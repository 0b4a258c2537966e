//! Self-profiling: scoped wall-clock phase timers for the *simulator
//! itself* (as opposed to the simulated cluster, which the rest of this
//! crate observes).
//!
//! Every hot layer wraps its work in a [`PhaseTimer`] guard tied to a
//! static [`Phase`]. When the recorder is disabled the guard holds no
//! clock and drops without recording anything, preserving the invariant
//! that profiled and unprofiled runs are bit-identical — the timers only
//! read the host monotonic clock and never touch simulation state.
//!
//! Per phase the guard maintains two counters in the `prof.phase.*`
//! namespace:
//!
//! * `prof.phase.<name>.calls` — number of times the phase ran;
//! * `prof.phase.<name>.wall_us` — total host wall-clock microseconds.
//!
//! The phase taxonomy is chosen so `vc report --perf` can tile total
//! simulator wall-clock exactly: `cloudsim_run` is the whole run,
//! `serve` / `des_pop` are disjoint slices of it, and `mr_service` is
//! the slice of `serve` spent inside the MapReduce engine. The remaining
//! phases (`seed_scan`, `bound_precompute`, `exchange`, `index_commit`,
//! `mr_job`) are informational sub-slices.

use std::time::Instant;

use crate::recorder::Recorder;

/// Static identity of a profiled phase: the two metric names derived
/// from its base name. Built with [`phase!`]-style `concat!` so the
/// names are `&'static str` and flow through [`Recorder`] for free.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Base name, e.g. `"seed_scan"`.
    pub name: &'static str,
    /// Counter: invocations.
    pub calls: &'static str,
    /// Counter: total wall-clock µs.
    pub wall_us: &'static str,
}

macro_rules! phase {
    ($base:literal) => {
        Phase {
            name: $base,
            calls: concat!("prof.phase.", $base, ".calls"),
            wall_us: concat!("prof.phase.", $base, ".wall_us"),
        }
    };
}

/// Whole `cloudsim::run_recorded` invocation — the tiling total.
pub const CLOUDSIM_RUN: Phase = phase!("cloudsim_run");
/// One arrival served: placement decision + service-model evaluation.
pub const SERVE: Phase = phase!("serve");
/// MapReduce engine invocation inside `serve` (hold-time evaluation).
pub const MR_SERVICE: Phase = phase!("mr_service");
/// Queue-level DES pop + dispatch (excludes `serve` work).
pub const DES_POP: Phase = phase!("des_pop");
/// Algorithm-1 seed scan (sequential or parallel) per placement solve.
pub const SEED_SCAN: Phase = phase!("seed_scan");
/// Admissible lower-bound precompute before a pruned scan.
pub const BOUND_PRECOMPUTE: Phase = phase!("bound_precompute");
/// Algorithm-2 (Theorem-2) exchange suboptimization per batch.
pub const EXCHANGE: Phase = phase!("exchange");
/// Cluster-state index maintenance: allocation commit + release.
pub const INDEX_COMMIT: Phase = phase!("index_commit");
/// One MapReduce job simulation, recorded by the engine itself.
pub const MR_JOB: Phase = phase!("mr_job");

/// All phases, for docs/tests and the report surface.
pub(crate) const PHASES: &[Phase] = &[
    CLOUDSIM_RUN,
    SERVE,
    MR_SERVICE,
    DES_POP,
    SEED_SCAN,
    BOUND_PRECOMPUTE,
    EXCHANGE,
    INDEX_COMMIT,
    MR_JOB,
];

/// Gauge name for peak resident set size (kB), exported once per run.
const RSS_PEAK_KB: &str = "prof.rss_peak_kb";

/// RAII wall-clock guard for one phase invocation.
///
/// Construction reads the monotonic clock only when the recorder is
/// enabled; with a [`NoopRecorder`](crate::NoopRecorder) the guard is a
/// `None` and both construction and drop compile down to nothing.
#[must_use = "a phase timer records on drop; binding to _ drops immediately"]
pub struct PhaseTimer<'a, R: Recorder + ?Sized> {
    rec: &'a R,
    phase: Phase,
    start: Option<Instant>,
}

impl<'a, R: Recorder + ?Sized> PhaseTimer<'a, R> {
    #[inline]
    pub fn start(rec: &'a R, phase: Phase) -> Self {
        let start = if rec.enabled() {
            Some(Instant::now())
        } else {
            None
        };
        Self { rec, phase, start }
    }
}

impl<R: Recorder + ?Sized> Drop for PhaseTimer<'_, R> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            self.rec.counter_add(self.phase.calls, 1);
            self.rec.counter_add(self.phase.wall_us, us);
        }
    }
}

/// Parse the `VmHWM` (peak RSS, kB) field out of a `/proc/<pid>/status`
/// document. `None` when the field is absent or malformed — callers
/// must skip the gauge rather than record 0.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok();
        }
    }
    None
}

/// Peak resident set size of this process in kilobytes, from
/// `VmHWM` in `/proc/self/status`. `None` off Linux or if the field is
/// missing — callers should skip the gauge rather than record 0.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Record the process peak RSS as the `prof.rss_peak_kb` gauge if the
/// recorder is enabled and the platform exposes it.
pub fn record_peak_rss<R: Recorder + ?Sized>(rec: &R) {
    if rec.enabled() {
        if let Some(kb) = peak_rss_kb() {
            rec.gauge_max(RSS_PEAK_KB, kb as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MemRecorder, NoopRecorder};

    #[test]
    fn phase_names_are_derived() {
        for p in PHASES {
            assert_eq!(p.calls, format!("prof.phase.{}.calls", p.name));
            assert_eq!(p.wall_us, format!("prof.phase.{}.wall_us", p.name));
        }
    }

    #[test]
    fn timer_records_calls_and_wall() {
        let rec = MemRecorder::new();
        {
            let _t = PhaseTimer::start(&rec, SEED_SCAN);
        }
        {
            let _t = PhaseTimer::start(&rec, SEED_SCAN);
        }
        let snap = rec.metrics();
        assert_eq!(snap.counters.get(SEED_SCAN.calls), Some(&2));
        assert!(snap.counters.contains_key(SEED_SCAN.wall_us));
    }

    #[test]
    fn noop_recorder_records_nothing() {
        // With a disabled recorder the guard must not even read the clock;
        // here we can only observe that nothing is recorded.
        let rec = NoopRecorder;
        let t = PhaseTimer::start(&rec, SERVE);
        assert!(t.start.is_none());
        drop(t);
    }

    #[test]
    fn vm_hwm_parse_path() {
        assert_eq!(
            parse_vm_hwm("Name:\tvc\nVmPeak:\t  999 kB\nVmHWM:\t    1234 kB\n"),
            Some(1234)
        );
        // Tolerates missing unit suffix and extra whitespace.
        assert_eq!(parse_vm_hwm("VmHWM:   42\n"), Some(42));
        // Missing field: degrade to None, never 0.
        assert_eq!(parse_vm_hwm("Name:\tvc\nVmPeak:\t999 kB\n"), None);
        assert_eq!(parse_vm_hwm(""), None);
        // Garbage value: None, not a panic or 0.
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM available on Linux");
            assert!(kb > 0);
        }
        let rec = MemRecorder::new();
        record_peak_rss(&rec);
        if cfg!(target_os = "linux") {
            assert!(
                rec.metrics()
                    .gauges
                    .get(RSS_PEAK_KB)
                    .copied()
                    .unwrap_or(0.0)
                    > 0.0
            );
        }
    }
}
