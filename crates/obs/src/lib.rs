//! # vc-obs — unified simulation observability
//!
//! Tracing and metrics layer shared by every simulation crate in the
//! workspace. The design goals, in order:
//!
//! 1. **Zero overhead when off.** Instrumented code is generic over
//!    [`Recorder`]; with [`NoopRecorder`] every hook monomorphizes to an
//!    empty inlined function and the optimizer deletes the call and its
//!    argument construction. Hot paths must only pass cheap values
//!    (integers, `&'static str`) — see [`Recorder::enabled`] for gating
//!    anything that allocates.
//! 2. **No dependency cycles.** `vc-des` is itself instrumented, so this
//!    crate cannot depend on it; timestamps cross the API as raw
//!    microsecond `u64`s (the same unit `vc_des::SimTime` uses
//!    internally).
//! 3. **One trace type, standard edge formats.** [`MemRecorder`] buffers
//!    everything and finishes into a [`TraceDump`], which is also what a
//!    replayed JSONL stream ([`replay_jsonl`]) and a read-back Chrome
//!    trace ([`TraceDump::from_chrome_value`]) become. Every analysis
//!    (critical path, [`report`]) reads the dump; Chrome trace-event JSON
//!    (loadable in Perfetto / `chrome://tracing`) and the metrics
//!    snapshot (JSON or CSV via [`metrics::MetricsSnapshot`]) are only
//!    written and read at the edges.
//!
//! Spans model task attempts (map, shuffle fetch, reduce) on a
//! [`TrackId`] — one track per VM, so the Perfetto timeline reads like a
//! Gantt chart of the virtual cluster. Events model instants (admission,
//! rejection, speculative launch). Counters/gauges/histograms aggregate
//! into the metrics registry; time-varying counters (queue depth) can
//! additionally be sampled with [`Recorder::counter_sample`] to appear as
//! counter tracks in the timeline.

pub mod critical_path;
pub mod diff;
pub mod health;
pub mod manifest;
pub mod metrics;
pub mod prof;
pub mod prom;
pub mod recorder;
pub mod report;
pub mod stream;
pub mod timeseries;
pub mod trace;

pub use critical_path::{analyze, Category, JobAttribution, Segment};
pub use diff::{diff, DiffError, DiffOptions, DiffReport, Verdict};
pub use health::{AlertSink, HealthMonitor, Severity, WindowHealthSample};
pub use manifest::{Fnv64, RunManifest, MANIFEST_KEY};
pub use metrics::{Histogram, MetricsSnapshot};
pub use prof::{Phase, PhaseTimer};
pub use prom::to_prometheus_windowed;
pub use recorder::{
    AttrValue, EventRecord, MemRecorder, NoopRecorder, Recorder, SpanId, SpanRecord, TrackId,
};
pub use stream::{intern, replay_jsonl, replay_jsonl_from, StreamingRecorder};
pub use timeseries::{TimeSeriesSet, WindowSampler};
pub use trace::{chrome_trace, TraceDump};
