//! The [`Recorder`] sink trait plus the two standard implementations:
//! [`NoopRecorder`] (zero cost) and [`MemRecorder`] (in-memory buffers).

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;

use serde_json::Value;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::TraceDump;

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

    pub(crate) fn is_null(self) -> bool {
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

    /// Any numeric variant as an `f64`, like `serde_json::Value::as_f64`.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match *self {
            AttrValue::U64(v) => Some(v as f64),
            AttrValue::I64(v) => Some(v as f64),
            AttrValue::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The JSON form every export writes (non-finite floats become
    /// `null`).
    pub(crate) fn to_json(&self) -> Value {
        match self {
            AttrValue::U64(x) => Value::U64(*x),
            AttrValue::I64(x) => Value::I64(*x),
            AttrValue::F64(x) => Value::F64(*x),
            AttrValue::Bool(x) => Value::Bool(*x),
            AttrValue::Str(s) => Value::Str(s.to_string()),
            AttrValue::Owned(s) => Value::Str(s.clone()),
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

/// The first attribute named `key`.
fn find_attr<'a>(attrs: &'a [Attr], key: &str) -> Option<&'a AttrValue> {
    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Observability sink. All methods take `&self` (implementations use
/// interior mutability) so a recorder can be shared by every layer of a
/// simulation without threading `&mut` through the call graph.
///
/// Recorders are single-threaded: `Recorder` has no `Sync` bound, so
/// `&dyn Recorder` is not `Send` and cannot reach a worker thread.
/// Parallel code returns plain data to its caller, which records it.
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
}

/// Recorder that records nothing. The canonical "observability off"
/// implementation: every hook is the trait's empty default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A recorded instantaneous event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    pub name: &'static str,
    pub t_us: u64,
    pub track: Option<TrackId>,
    pub attrs: Vec<Attr>,
}

impl EventRecord {
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        find_attr(&self.attrs, key)
    }
}

/// A recorded span; `end_us` is `None` while the span is open.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub track: TrackId,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: Option<u64>,
    pub attrs: Vec<Attr>,
}

impl SpanRecord {
    pub(crate) fn attr(&self, key: &str) -> Option<&AttrValue> {
        find_attr(&self.attrs, key)
    }
}

#[derive(Debug, Default)]
struct MemInner {
    /// Spans, events, track names and counter series as recorded; the
    /// metrics and open-span count are filled in by
    /// [`MemRecorder::into_dump`].
    trace: TraceDump,
    /// Open span id → index into `trace.spans`.
    open: BTreeMap<u64, usize>,
    metrics: MetricsRegistry,
    next_span: u64,
    /// Per-series high-water sample timestamp. Overlapping jobs emit the
    /// same series out of sim-time order, and the gauge mirror of
    /// [`Recorder::counter_sample`] reads the latest sample in sim time
    /// (the last emitted among equal timestamps), so an older sample
    /// emitted late does not overwrite it.
    sample_last_t: BTreeMap<&'static str, u64>,
}

/// Buffering recorder. Interior mutability via `RefCell`, so it is not
/// `Sync` — each parallel batch run owns its own recorder.
#[derive(Debug, Default)]
pub struct MemRecorder {
    inner: RefCell<MemInner>,
}

impl MemRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn events(&self) -> Vec<EventRecord> {
        self.inner.borrow().trace.events.clone()
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().trace.spans.clone()
    }

    /// Number of spans begun but not yet ended.
    pub fn open_span_count(&self) -> usize {
        self.inner.borrow().open.len()
    }

    pub fn counter_series(&self) -> BTreeMap<&'static str, Vec<(u64, f64)>> {
        self.inner.borrow().trace.counter_series.clone()
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.borrow().metrics.snapshot()
    }

    /// The buffers recorded so far, borrowed (metrics and open-span
    /// count not yet filled in).
    pub(crate) fn trace(&self) -> Ref<'_, TraceDump> {
        Ref::map(self.inner.borrow(), |inner| &inner.trace)
    }

    /// Finish recording: move the buffers into a [`TraceDump`] without
    /// copying them.
    pub fn into_dump(self) -> TraceDump {
        let inner = self.inner.into_inner();
        TraceDump {
            metrics: inner.metrics.snapshot(),
            open_spans: inner.open.len(),
            ..inner.trace
        }
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
        inner
            .trace
            .counter_series
            .entry(name)
            .or_default()
            .push((t_us, value));
    }

    fn track_name(&self, track: TrackId, name: &str) {
        self.inner
            .borrow_mut()
            .trace
            .track_names
            .insert(track.0, name.to_string());
    }

    fn event(&self, name: &'static str, t_us: u64, track: Option<TrackId>, attrs: &[Attr]) {
        self.inner.borrow_mut().trace.events.push(EventRecord {
            name,
            t_us,
            track,
            attrs: attrs.to_vec(),
        });
    }

    fn span_begin(&self, track: TrackId, name: &'static str, t_us: u64, attrs: &[Attr]) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        inner.next_span += 1;
        let id = SpanId(inner.next_span);
        let index = inner.trace.spans.len();
        inner.trace.spans.push(SpanRecord {
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
            inner.trace.spans[index].end_us = Some(t_us);
        }
    }

    fn span_attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        if span.is_null() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(&index) = inner.open.get(&span.0) {
            inner.trace.spans[index].attrs.push((key, value));
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
        assert_eq!(r.inner.borrow().trace.track_names[&3], "vm3@node1");
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
        // timestamps; the gauge mirror settles on the sample with the
        // largest t_us (program order breaking ties).
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
}
