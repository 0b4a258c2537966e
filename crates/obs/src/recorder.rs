//! The [`Recorder`] sink trait plus the two standard implementations:
//! [`NoopRecorder`] (zero cost) and [`MemRecorder`] (in-memory buffers).

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Timeline lane for spans — by convention one track per VM, with
/// reserved tracks for schedulers/queues registered via
/// [`Recorder::track_name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u64);

/// Handle pairing a `span_begin` with its `span_end`. Id 0 is the null
/// span returned by no-op recorders; ending it is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NULL: SpanId = SpanId(0);

    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// Attribute value attached to events and spans. Kept to cheap variants
/// so no-op instrumentation compiles away; `Owned` strings should be
/// gated behind [`Recorder::enabled`].
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'static str),
    Owned(String),
}

impl AttrValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            AttrValue::Owned(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            AttrValue::U64(v) => Some(v),
            AttrValue::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Owned(v)
    }
}

/// Key/value attribute pair.
pub type Attr = (&'static str, AttrValue);

/// Observability sink. All methods take `&self` (implementations use
/// interior mutability) so a recorder can be shared by every layer of a
/// simulation without threading `&mut` through the call graph.
///
/// Every method has a no-op default, which is the entire implementation
/// of [`NoopRecorder`]: generic instrumentation monomorphized against it
/// inlines to nothing.
pub trait Recorder {
    /// `false` means callers should skip building expensive attributes
    /// (formatted strings, per-item loops) before calling in.
    fn enabled(&self) -> bool {
        false
    }

    /// Add to a monotonic counter.
    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    /// Set an instantaneous gauge (last-write-wins in the snapshot).
    fn gauge_set(&self, _name: &'static str, _value: f64) {}

    /// Raise a gauge to `value` if it is the largest seen so far
    /// (running maximum — peak utilization, high-water marks).
    fn gauge_max(&self, _name: &'static str, _value: f64) {}

    /// Record a sample into a log-bucketed histogram.
    fn histogram_record(&self, _name: &'static str, _value: u64) {}

    /// Record a timestamped sample of a time-varying quantity (queue
    /// depth, heap size); exported as a counter track in the timeline.
    fn counter_sample(&self, _name: &'static str, _t_us: u64, _value: f64) {}

    /// Register a display name for a track (e.g. `vm3@node7`).
    fn track_name(&self, _track: TrackId, _name: &str) {}

    /// Record an instantaneous structured event.
    fn event(&self, _name: &'static str, _t_us: u64, _track: Option<TrackId>, _attrs: &[Attr]) {}

    /// Open a span on a track. The returned id must later be passed to
    /// [`Recorder::span_end`]; no-op recorders return [`SpanId::NULL`].
    fn span_begin(
        &self,
        _track: TrackId,
        _name: &'static str,
        _t_us: u64,
        _attrs: &[Attr],
    ) -> SpanId {
        SpanId::NULL
    }

    /// Close a span at `t_us`. Ending [`SpanId::NULL`] is a no-op.
    fn span_end(&self, _span: SpanId, _t_us: u64) {}

    /// Attach an attribute to an open span (outcomes discovered after
    /// the span began, e.g. which attempt won a speculative race).
    fn span_attr(&self, _span: SpanId, _key: &'static str, _value: AttrValue) {}

    /// A `Sync` view of this recorder, if it may be called from multiple
    /// threads concurrently. The default (`None`) marks single-threaded
    /// recorders such as [`MemRecorder`]; parallel code paths use this to
    /// decide whether worker threads may record directly or must fall
    /// back to aggregate recording on the calling thread.
    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        None
    }
}

/// Forwarding impl so instrumented code generic over `R: Recorder` also
/// accepts `&R` and `&dyn Recorder`.
impl<R: Recorder + ?Sized> Recorder for &R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn counter_add(&self, name: &'static str, delta: u64) {
        (**self).counter_add(name, delta)
    }
    fn gauge_set(&self, name: &'static str, value: f64) {
        (**self).gauge_set(name, value)
    }
    fn gauge_max(&self, name: &'static str, value: f64) {
        (**self).gauge_max(name, value)
    }
    fn histogram_record(&self, name: &'static str, value: u64) {
        (**self).histogram_record(name, value)
    }
    fn counter_sample(&self, name: &'static str, t_us: u64, value: f64) {
        (**self).counter_sample(name, t_us, value)
    }
    fn track_name(&self, track: TrackId, name: &str) {
        (**self).track_name(track, name)
    }
    fn event(&self, name: &'static str, t_us: u64, track: Option<TrackId>, attrs: &[Attr]) {
        (**self).event(name, t_us, track, attrs)
    }
    fn span_begin(&self, track: TrackId, name: &'static str, t_us: u64, attrs: &[Attr]) -> SpanId {
        (**self).span_begin(track, name, t_us, attrs)
    }
    fn span_end(&self, span: SpanId, t_us: u64) {
        (**self).span_end(span, t_us)
    }
    fn span_attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        (**self).span_attr(span, key, value)
    }
    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        (**self).as_sync()
    }
}

/// Recorder that records nothing. The canonical "observability off"
/// implementation: every hook is the trait's empty default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        Some(self)
    }
}

/// A recorded instantaneous event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    pub name: &'static str,
    pub t_us: u64,
    pub track: Option<TrackId>,
    pub attrs: Vec<Attr>,
}

/// A recorded span; `end_us` is `None` while the span is open.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: SpanId,
    pub track: TrackId,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: Option<u64>,
    pub attrs: Vec<Attr>,
}

#[derive(Debug, Default)]
struct MemInner {
    events: Vec<EventRecord>,
    spans: Vec<SpanRecord>,
    /// Open span id → index into `spans`.
    open: BTreeMap<u64, usize>,
    track_names: BTreeMap<u64, String>,
    counter_series: BTreeMap<&'static str, Vec<(u64, f64)>>,
    metrics: MetricsRegistry,
    next_span: u64,
    /// Per-series high-water sample timestamp: the gauge mirror of
    /// [`Recorder::counter_sample`] only applies in-sim-time-order
    /// samples, so the final gauge value matches a `(t_us, seq)`-sorted
    /// replay of the same stream (`ShardedRecorder::merged`,
    /// `stream::replay_jsonl`) even when overlapping jobs emit the same
    /// series at out-of-order timestamps.
    sample_last_t: BTreeMap<&'static str, u64>,
    /// Soft cap on buffered trace items (events + spans + series
    /// points). `None` = unbounded.
    trace_cap: Option<usize>,
    trace_items: usize,
    overflowed: bool,
}

impl MemInner {
    /// Whether one more trace item may be buffered. On the first refusal
    /// records the one-time `obs.recorder.overflow` counter. Metrics are
    /// never dropped — only spans, events, and series points are.
    fn admit_trace_item(&mut self) -> bool {
        match self.trace_cap {
            Some(cap) if self.trace_items >= cap => {
                if !self.overflowed {
                    self.overflowed = true;
                    self.metrics.counter_add("obs.recorder.overflow", 1);
                }
                false
            }
            _ => {
                self.trace_items += 1;
                true
            }
        }
    }
}

/// Buffering recorder for single-threaded simulations. Interior
/// mutability via `RefCell`; not `Sync` by design — each parallel batch
/// run owns its own recorder.
#[derive(Debug, Default)]
pub struct MemRecorder {
    inner: RefCell<MemInner>,
}

impl MemRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that buffers at most `cap` trace items (events, spans,
    /// and counter-series points combined). Past the cap, trace items
    /// are dropped — `span_begin` returns [`SpanId::NULL`] — and the
    /// one-time `obs.recorder.overflow` counter is set; metrics
    /// (counters/gauges/histograms) are always recorded in full.
    pub fn with_trace_cap(cap: usize) -> Self {
        let r = Self::default();
        r.inner.borrow_mut().trace_cap = Some(cap);
        r
    }

    /// True once the trace cap has dropped at least one item.
    pub fn overflowed(&self) -> bool {
        self.inner.borrow().overflowed
    }

    pub fn events(&self) -> Vec<EventRecord> {
        self.inner.borrow().events.clone()
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans.clone()
    }

    /// Number of spans begun but not yet ended.
    pub fn open_span_count(&self) -> usize {
        self.inner.borrow().open.len()
    }

    pub fn track_names(&self) -> BTreeMap<u64, String> {
        self.inner.borrow().track_names.clone()
    }

    pub fn counter_series(&self) -> BTreeMap<&'static str, Vec<(u64, f64)>> {
        self.inner.borrow().counter_series.clone()
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.borrow().metrics.snapshot()
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.inner.borrow_mut().metrics.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.inner.borrow_mut().metrics.gauge_set(name, value);
    }

    fn gauge_max(&self, name: &'static str, value: f64) {
        self.inner.borrow_mut().metrics.gauge_max(name, value);
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.inner
            .borrow_mut()
            .metrics
            .histogram_record(name, value);
    }

    fn counter_sample(&self, name: &'static str, t_us: u64, value: f64) {
        let mut inner = self.inner.borrow_mut();
        let apply = {
            let last = inner.sample_last_t.entry(name).or_insert(0);
            if t_us >= *last {
                *last = t_us;
                true
            } else {
                false
            }
        };
        if apply {
            inner.metrics.gauge_set(name, value);
        }
        if inner.admit_trace_item() {
            inner
                .counter_series
                .entry(name)
                .or_default()
                .push((t_us, value));
        }
    }

    fn track_name(&self, track: TrackId, name: &str) {
        self.inner
            .borrow_mut()
            .track_names
            .insert(track.0, name.to_string());
    }

    fn event(&self, name: &'static str, t_us: u64, track: Option<TrackId>, attrs: &[Attr]) {
        let mut inner = self.inner.borrow_mut();
        if !inner.admit_trace_item() {
            return;
        }
        inner.events.push(EventRecord {
            name,
            t_us,
            track,
            attrs: attrs.to_vec(),
        });
    }

    fn span_begin(&self, track: TrackId, name: &'static str, t_us: u64, attrs: &[Attr]) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        if !inner.admit_trace_item() {
            return SpanId::NULL;
        }
        inner.next_span += 1;
        let id = SpanId(inner.next_span);
        let index = inner.spans.len();
        inner.spans.push(SpanRecord {
            id,
            track,
            name,
            start_us: t_us,
            end_us: None,
            attrs: attrs.to_vec(),
        });
        inner.open.insert(id.0, index);
        id
    }

    fn span_end(&self, span: SpanId, t_us: u64) {
        if span.is_null() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(index) = inner.open.remove(&span.0) {
            inner.spans[index].end_us = Some(t_us);
        }
    }

    fn span_attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        if span.is_null() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(&index) = inner.open.get(&span.0) {
            inner.spans[index].attrs.push((key, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_returns_null_span() {
        let r = NoopRecorder;
        let s = r.span_begin(TrackId(1), "x", 0, &[]);
        assert!(s.is_null());
        r.span_end(s, 10);
        r.counter_add("c", 1);
    }

    #[test]
    fn mem_records_spans_and_events() {
        let r = MemRecorder::new();
        r.track_name(TrackId(3), "vm3@node1");
        let s = r.span_begin(TrackId(3), "map", 100, &[("task", AttrValue::U64(0))]);
        assert!(!s.is_null());
        assert_eq!(r.open_span_count(), 1);
        r.span_attr(s, "locality", AttrValue::Str("node_local"));
        r.span_end(s, 250);
        assert_eq!(r.open_span_count(), 0);
        r.event("admit", 50, None, &[("id", AttrValue::U64(7))]);

        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_us, 100);
        assert_eq!(spans[0].end_us, Some(250));
        assert_eq!(spans[0].attrs.len(), 2);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.track_names()[&3], "vm3@node1");
    }

    #[test]
    fn works_through_dyn() {
        let mem = MemRecorder::new();
        let r: &dyn Recorder = &mem;
        let s = r.span_begin(TrackId(0), "x", 0, &[]);
        r.span_end(s, 5);
        r.counter_add("n", 2);
        assert_eq!(mem.spans().len(), 1);
        assert_eq!(mem.metrics().counters["n"], 2);
    }

    #[test]
    fn counter_sample_builds_series() {
        let r = MemRecorder::new();
        r.counter_sample("queue.depth", 0, 1.0);
        r.counter_sample("queue.depth", 10, 2.0);
        let series = r.counter_series();
        assert_eq!(series["queue.depth"], vec![(0, 1.0), (10, 2.0)]);
    }

    #[test]
    fn counter_sample_gauge_is_last_in_sim_time() {
        // Overlapping jobs can emit the same series with out-of-order
        // timestamps; the gauge mirror must settle on the sample with
        // the largest t_us (program order breaking ties), matching a
        // (t_us, seq)-sorted replay of the same stream.
        let r = MemRecorder::new();
        r.counter_sample("util", 100, 0.9);
        r.counter_sample("util", 40, 0.1); // stale: earlier sim time
        assert_eq!(r.metrics().gauges["util"], 0.9);
        r.counter_sample("util", 100, 0.5); // same t: later wins
        assert_eq!(r.metrics().gauges["util"], 0.5);
        r.counter_sample("util", 200, 0.2);
        assert_eq!(r.metrics().gauges["util"], 0.2);
        // The series itself keeps every point in arrival order.
        assert_eq!(r.counter_series()["util"].len(), 4);
    }

    #[test]
    fn trace_cap_drops_trace_items_never_metrics() {
        let r = MemRecorder::with_trace_cap(2);
        r.event("a", 0, None, &[]);
        let s = r.span_begin(TrackId(0), "kept", 1, &[]);
        assert!(!s.is_null());
        r.span_end(s, 2);
        assert!(!r.overflowed());

        // Cap reached: trace items are dropped from here on.
        r.event("b", 3, None, &[]);
        let dropped = r.span_begin(TrackId(0), "dropped", 4, &[]);
        assert!(dropped.is_null());
        r.counter_sample("q", 5, 1.0);
        assert!(r.overflowed());
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.spans().len(), 1);
        assert!(r.counter_series().is_empty());

        // Metrics still record in full, plus the one-time overflow mark.
        r.counter_add("c", 7);
        r.histogram_record("h", 9);
        let m = r.metrics();
        assert_eq!(m.counters["c"], 7);
        assert_eq!(m.counters["obs.recorder.overflow"], 1);
        assert_eq!(m.histograms["h"].count, 1);
        // counter_sample past the cap still updates the gauge.
        assert_eq!(m.gauges["q"], 1.0);
    }
}
