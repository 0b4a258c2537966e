//! [`ShardedRecorder`]: a thread-safe buffering recorder.
//!
//! Each thread appends to its own shard (an op-log behind a short-lived
//! mutex that is never contended across threads), so parallel code —
//! notably the Algorithm-1 seed scan workers in `vc-placement` — can
//! record spans and counters without a global lock on the hot path.
//! Span ids and a global sequence number come from shared atomics, so
//! at flush time the per-thread logs merge into one deterministic
//! timeline ordered by `(t_us, seq)`: the sequence number is a total
//! order consistent with each thread's program order *and* with any
//! cross-thread happens-before edge, so a begin always replays before
//! its end.
//!
//! The merged view exposes the same accessors as [`MemRecorder`]
//! (`spans`, `events`, `metrics`, `counter_series`, `track_names`), so
//! trace export and tests treat the two interchangeably.
//!
//! [`MemRecorder`]: crate::recorder::MemRecorder

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::recorder::{Attr, AttrValue, EventRecord, Recorder, SpanId, SpanRecord, TrackId};

/// One logged recorder call. Ops that carry no timestamp of their own
/// (counters, span attributes) inherit the shard's most recent
/// timestamp so the `(t_us, seq)` merge keeps them adjacent to the
/// surrounding timeline activity.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    CounterAdd {
        name: &'static str,
        delta: u64,
    },
    GaugeSet {
        name: &'static str,
        value: f64,
    },
    GaugeMax {
        name: &'static str,
        value: f64,
    },
    HistRecord {
        name: &'static str,
        value: u64,
    },
    CounterSample {
        name: &'static str,
        value: f64,
    },
    TrackName {
        track: u64,
        name: String,
    },
    Event {
        name: &'static str,
        track: Option<TrackId>,
        attrs: Vec<Attr>,
    },
    SpanBegin {
        id: u64,
        track: TrackId,
        name: &'static str,
        attrs: Vec<Attr>,
    },
    SpanEnd {
        id: u64,
    },
    SpanAttr {
        id: u64,
        key: &'static str,
        value: AttrValue,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct StampedOp {
    pub(crate) t_us: u64,
    pub(crate) seq: u64,
    pub(crate) op: Op,
}

/// Sort an op log by `(t_us, seq)` and replay it into a [`MergedTrace`].
/// Shared by [`ShardedRecorder::merged`] and the JSONL stream replay in
/// [`crate::stream`], so both views have identical merge semantics.
pub(crate) fn replay_ops(mut ops: Vec<StampedOp>) -> MergedTrace {
    // seq is globally unique, so this order is total and respects
    // both per-thread program order and cross-thread causality.
    ops.sort_by_key(|op| (op.t_us, op.seq));

    let mut out = MergedTrace::default();
    let mut metrics = MetricsRegistry::default();
    let mut open: HashMap<u64, usize> = HashMap::new();
    for StampedOp { t_us, op, .. } in ops {
        match op {
            Op::CounterAdd { name, delta } => metrics.counter_add(name, delta),
            Op::GaugeSet { name, value } => metrics.gauge_set(name, value),
            Op::GaugeMax { name, value } => metrics.gauge_max(name, value),
            Op::HistRecord { name, value } => metrics.histogram_record(name, value),
            Op::CounterSample { name, value } => {
                metrics.gauge_set(name, value);
                out.counter_series
                    .entry(name)
                    .or_default()
                    .push((t_us, value));
            }
            Op::TrackName { track, name } => {
                out.track_names.insert(track, name);
            }
            Op::Event { name, track, attrs } => out.events.push(EventRecord {
                name,
                t_us,
                track,
                attrs,
            }),
            Op::SpanBegin {
                id,
                track,
                name,
                attrs,
            } => {
                open.insert(id, out.spans.len());
                out.spans.push(SpanRecord {
                    id: SpanId(id),
                    track,
                    name,
                    start_us: t_us,
                    end_us: None,
                    attrs,
                });
            }
            Op::SpanEnd { id } => {
                if let Some(index) = open.remove(&id) {
                    out.spans[index].end_us = Some(t_us);
                }
            }
            Op::SpanAttr { id, key, value } => {
                if let Some(&index) = open.get(&id) {
                    out.spans[index].attrs.push((key, value));
                }
            }
        }
    }
    out.open_spans = open.len();
    out.metrics = metrics.snapshot();
    out
}

#[derive(Debug, Default)]
struct ShardBuf {
    ops: Vec<StampedOp>,
    /// High-water timestamp of this shard, inherited by untimestamped ops.
    last_t: u64,
}

#[derive(Debug, Default)]
struct Shard {
    buf: Mutex<ShardBuf>,
}

/// Identity counter so the thread-local shard cache can tell recorders
/// apart (a thread may touch several recorders over its lifetime).
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Fast path: the shard this thread last used, keyed by recorder id.
    static SHARD_CACHE: RefCell<Option<(u64, Arc<Shard>)>> = const { RefCell::new(None) };
}

/// Thread-safe buffering recorder; see the module docs.
#[derive(Debug)]
pub struct ShardedRecorder {
    id: u64,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    shards: Mutex<HashMap<ThreadId, Arc<Shard>>>,
}

impl Default for ShardedRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic merged view of every shard, shaped like the buffers of
/// a [`MemRecorder`](crate::recorder::MemRecorder).
#[derive(Debug, Default)]
pub struct MergedTrace {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
    pub track_names: BTreeMap<u64, String>,
    pub counter_series: BTreeMap<&'static str, Vec<(u64, f64)>>,
    pub metrics: MetricsSnapshot,
    /// Spans begun but never ended at merge time.
    pub open_spans: usize,
}

impl ShardedRecorder {
    pub fn new() -> Self {
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            next_span: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            shards: Mutex::new(HashMap::new()),
        }
    }

    fn shard(&self) -> Arc<Shard> {
        SHARD_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((id, shard)) = cache.as_ref() {
                if *id == self.id {
                    return Arc::clone(shard);
                }
            }
            let shard = {
                let mut shards = self.shards.lock().expect("shard registry poisoned");
                Arc::clone(shards.entry(std::thread::current().id()).or_default())
            };
            *cache = Some((self.id, Arc::clone(&shard)));
            shard
        })
    }

    /// Append one op. `t` is the op's own timestamp, if it has one.
    fn push(&self, t: Option<u64>, op: Op) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard();
        let mut buf = shard.buf.lock().expect("shard poisoned");
        let t_us = match t {
            Some(t) => {
                buf.last_t = buf.last_t.max(t);
                t
            }
            None => buf.last_t,
        };
        buf.ops.push(StampedOp { t_us, seq, op });
    }

    /// Merge every shard into one deterministic trace. Non-destructive:
    /// the shards keep their logs, so repeated calls agree.
    pub fn merged(&self) -> MergedTrace {
        let mut ops: Vec<StampedOp> = Vec::new();
        {
            let shards = self.shards.lock().expect("shard registry poisoned");
            for shard in shards.values() {
                ops.extend(
                    shard
                        .buf
                        .lock()
                        .expect("shard poisoned")
                        .ops
                        .iter()
                        .cloned(),
                );
            }
        }
        replay_ops(ops)
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.merged().spans
    }

    pub fn events(&self) -> Vec<EventRecord> {
        self.merged().events
    }

    pub fn open_span_count(&self) -> usize {
        self.merged().open_spans
    }

    pub fn track_names(&self) -> BTreeMap<u64, String> {
        self.merged().track_names
    }

    pub fn counter_series(&self) -> BTreeMap<&'static str, Vec<(u64, f64)>> {
        self.merged().counter_series
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.merged().metrics
    }
}

impl Recorder for ShardedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.push(None, Op::CounterAdd { name, delta });
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.push(None, Op::GaugeSet { name, value });
    }

    fn gauge_max(&self, name: &'static str, value: f64) {
        self.push(None, Op::GaugeMax { name, value });
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.push(None, Op::HistRecord { name, value });
    }

    fn counter_sample(&self, name: &'static str, t_us: u64, value: f64) {
        self.push(Some(t_us), Op::CounterSample { name, value });
    }

    fn track_name(&self, track: TrackId, name: &str) {
        self.push(
            None,
            Op::TrackName {
                track: track.0,
                name: name.to_string(),
            },
        );
    }

    fn event(&self, name: &'static str, t_us: u64, track: Option<TrackId>, attrs: &[Attr]) {
        self.push(
            Some(t_us),
            Op::Event {
                name,
                track,
                attrs: attrs.to_vec(),
            },
        );
    }

    fn span_begin(&self, track: TrackId, name: &'static str, t_us: u64, attrs: &[Attr]) -> SpanId {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        self.push(
            Some(t_us),
            Op::SpanBegin {
                id,
                track,
                name,
                attrs: attrs.to_vec(),
            },
        );
        SpanId(id)
    }

    fn span_end(&self, span: SpanId, t_us: u64) {
        if span.is_null() {
            return;
        }
        self.push(Some(t_us), Op::SpanEnd { id: span.0 });
    }

    fn span_attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        if span.is_null() {
            return;
        }
        self.push(
            None,
            Op::SpanAttr {
                id: span.0,
                key,
                value,
            },
        );
    }

    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sync<T: Sync + Send>() {}

    #[test]
    fn sharded_is_sync() {
        assert_sync::<ShardedRecorder>();
    }

    #[test]
    fn single_thread_matches_mem_semantics() {
        let r = ShardedRecorder::new();
        r.track_name(TrackId(3), "vm3@node1");
        let s = r.span_begin(TrackId(3), "map", 100, &[("task", AttrValue::U64(0))]);
        assert!(!s.is_null());
        r.span_attr(s, "locality", AttrValue::Str("node_local"));
        r.span_end(s, 250);
        r.event("admit", 50, None, &[("id", AttrValue::U64(7))]);
        r.counter_add("c", 2);
        r.counter_sample("queue.depth", 10, 1.0);

        let m = r.merged();
        assert_eq!(m.spans.len(), 1);
        assert_eq!(m.spans[0].start_us, 100);
        assert_eq!(m.spans[0].end_us, Some(250));
        assert_eq!(m.spans[0].attrs.len(), 2);
        assert_eq!(m.open_spans, 0);
        assert_eq!(m.events.len(), 1);
        assert_eq!(m.track_names[&3], "vm3@node1");
        assert_eq!(m.metrics.counters["c"], 2);
        assert_eq!(m.counter_series["queue.depth"], vec![(10, 1.0)]);
    }

    #[test]
    fn records_from_scoped_threads() {
        let r = ShardedRecorder::new();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let r = &r;
                scope.spawn(move || {
                    let s = r.span_begin(TrackId(w), "scan", 10 * w, &[]);
                    r.counter_add("placement.seeds_scanned", w + 1);
                    r.span_end(s, 10 * w + 5);
                });
            }
        });
        let m = r.merged();
        assert_eq!(m.spans.len(), 4);
        assert_eq!(m.open_spans, 0);
        assert_eq!(m.metrics.counters["placement.seeds_scanned"], 1 + 2 + 3 + 4);
        // Deterministic order: sorted by start time.
        let starts: Vec<u64> = m.spans.iter().map(|s| s.start_us).collect();
        assert_eq!(starts, vec![0, 10, 20, 30]);
        // Span ids unique.
        let mut ids: Vec<u64> = m.spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn as_sync_views() {
        let sharded = ShardedRecorder::new();
        assert!(Recorder::as_sync(&sharded).is_some());
        let mem = crate::recorder::MemRecorder::new();
        assert!(Recorder::as_sync(&mem).is_none());
        let noop = crate::recorder::NoopRecorder;
        assert!(Recorder::as_sync(&noop).is_some());
        // Forwarding through &dyn.
        let dynrec: &dyn Recorder = &sharded;
        assert!(dynrec.as_sync().is_some());
    }
}
