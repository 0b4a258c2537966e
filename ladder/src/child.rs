//! What one child process measures. Each (workload, mode) runs in a
//! fresh child so that its peak RSS is its own; the child prints one
//! JSON [`Report`] line and exits.

use crate::host;
use crate::replay::{self, LayerCalls};
use crate::runs;
use crate::stats::{self, Summary};
use crate::workload::{setup, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use vc_cloudsim::sim::SimResult;

/// The four kinds of child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `sim::run` with the no-op recorder: the figure binaries' path.
    Plain,
    /// `run_recorded` into memory plus the `--metrics-out` run document.
    Recorded,
    /// `run_recorded` into a streamed file plus its replay.
    Streamed,
    /// The per-layer child: plain runs, the layer replay, one recorded
    /// and one streamed run, every step inside a timed span.
    Traced,
}

impl Mode {
    pub const END_TO_END: [Mode; 3] = [Mode::Plain, Mode::Recorded, Mode::Streamed];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Recorded => "recorded",
            Mode::Streamed => "streamed",
            Mode::Traced => "traced",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        [Mode::Plain, Mode::Recorded, Mode::Streamed, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == s)
    }

    /// Fewest timed runs per child, and the share of the child's
    /// measuring time this mode gets. The three end-to-end children split
    /// one measurement.
    fn reps_and_share(self) -> (usize, f64) {
        match self {
            Mode::Plain => (4, 0.25),
            Mode::Recorded => (1, 0.35),
            Mode::Streamed => (1, 0.4),
            Mode::Traced => (3, 0.6),
        }
    }
}

/// What a child is asked to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds one measurement (one workload, end to end or traced)
    /// should take.
    pub seconds: f64,
    /// One repetition of everything, no warm-up.
    pub smoke: bool,
}

impl Plan {
    /// Run `body` at least `min` times (once when smoking) and until
    /// `share` of the measuring time has passed.
    fn repeat(&self, min: usize, share: f64, mut body: impl FnMut()) {
        let budget = Duration::from_secs_f64(self.seconds * share);
        let start = Instant::now();
        let mut reps = 0;
        loop {
            body();
            reps += 1;
            if self.smoke || (reps >= min && start.elapsed() >= budget) || reps >= MAX_REPS {
                return;
            }
        }
    }
}

/// Cap on repetitions of any one step, whatever the time budget.
const MAX_REPS: usize = 500;

/// A metric value; `n` samples, with quartiles when it is a median.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
}

impl Reading {
    pub fn one(value: f64) -> Self {
        Self {
            value,
            quartiles: None,
            n: 1,
        }
    }

    /// The median of `samples`, with quartiles.
    pub fn median(samples: &[f64]) -> Self {
        let s = Summary::of(samples);
        Self {
            value: s.median,
            quartiles: Some((s.q1, s.q3)),
            n: s.n,
        }
    }

    /// Quantile `q` of per-call `samples` (0 when there are none). A
    /// tail with fewer than ten samples beyond it is reported as the
    /// largest sample, and flagged by `n` below [`stats::samples_for_tail`].
    fn quantile(samples: &[f64], q: f64) -> Self {
        let value =
            stats::tail(samples, q).unwrap_or_else(|| samples.iter().copied().fold(0.0, f64::max));
        Self {
            value,
            quartiles: None,
            n: samples.len(),
        }
    }
}

/// Everything a child sends back, as one JSON line: counts for the
/// correctness gate, the outcome digest, and its metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Requests in one run.
    pub requests: usize,
    /// Timed runs (plus, for the traced child, replays).
    pub runs: usize,
    /// Runs that failed a check.
    pub failed_runs: usize,
    pub problems: Vec<String>,
    /// Outcome digest shared by every run of the child.
    pub digest: String,
    pub metrics: BTreeMap<String, Reading>,
    /// Per-run samples of end-to-end metrics; the parent pools them over
    /// every child of a mode before taking medians.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Host seconds covered by the traced child's own spans.
    pub covered_s: f64,
}

impl Report {
    fn set(&mut self, name: &str, reading: Reading) {
        debug_assert!(
            crate::metrics::unit(name).is_some(),
            "undeclared metric {name}"
        );
        self.metrics.insert(name.to_string(), reading);
    }

    fn sample(&mut self, name: &str, values: Vec<f64>) {
        debug_assert!(
            crate::metrics::unit(name).is_some(),
            "undeclared metric {name}"
        );
        self.samples.insert(name.to_string(), values);
    }

    /// Check one run's outcomes and fold them into the gate: a run fails
    /// when a check fails or its digest differs from the child's first.
    fn record(&mut self, result: &SimResult) {
        let mut problems = runs::check(result, self.requests);
        let digest = runs::digest(&result.outcomes);
        if self.digest.is_empty() {
            self.digest = digest;
        } else if digest != self.digest {
            problems.push(format!("digest {digest} != {}", self.digest));
        }
        self.runs += 1;
        if !problems.is_empty() {
            self.failed_runs += 1;
            self.problems.extend(problems);
        }
    }

    fn fail(&mut self, problem: String) {
        self.runs += 1;
        self.failed_runs += 1;
        self.problems.push(problem);
    }
}

/// Requests settled per host second of a run.
fn throughput(result: &SimResult, secs: f64) -> f64 {
    (result.served + result.refused) as f64 / secs
}

/// Run one child of `mode`. `scratch` is a directory for the streamed
/// run's temporary file; `started` is when the process began.
pub fn run(mode: Mode, plan: &Plan, scratch: &Path, started: Instant) -> Report {
    let mut report = Report {
        requests: plan.workload.requests,
        ..Report::default()
    };
    match mode {
        Mode::Plain => plain(plan, &mut report),
        Mode::Recorded => recorded(plan, &mut report),
        Mode::Streamed => streamed(plan, scratch, &mut report),
        Mode::Traced => traced(plan, scratch, started, &mut report),
    }
    report
}

fn plain(plan: &Plan, report: &mut Report) {
    let w = &plan.workload;
    if !plan.smoke {
        let (inputs, _) = setup(w, plan.seed);
        black_box(runs::plain(inputs));
    }
    let (mut setup_s, mut rate) = (Vec::new(), Vec::new());
    let (min, share) = Mode::Plain.reps_and_share();
    plan.repeat(min, share, || {
        let (inputs, t) = setup(w, plan.seed);
        setup_s.push(t.total());
        let (result, secs) = runs::plain(inputs);
        rate.push(throughput(&result, secs));
        report.record(&result);
    });
    report.sample("setup_s", setup_s);
    report.sample("requests_per_s", rate);
    report.sample("peak_rss_mb", vec![host::peak_rss_mb()]);
}

fn recorded(plan: &Plan, report: &mut Report) {
    let w = &plan.workload;
    let mut rate = Vec::new();
    let (min, share) = Mode::Recorded.reps_and_share();
    plan.repeat(min, share, || {
        let (inputs, _) = setup(w, plan.seed);
        match runs::recorded(inputs) {
            Ok(r) => {
                rate.push(throughput(&r.result, r.times.total));
                report.record(&r.result);
            }
            Err(e) => report.fail(e),
        }
    });
    report.sample("recorded_requests_per_s", rate);
    report.sample("recorded_peak_rss_mb", vec![host::peak_rss_mb()]);
}

fn streamed(plan: &Plan, scratch: &Path, report: &mut Report) {
    let w = &plan.workload;
    let path = stream_path(scratch);
    let mut rate = Vec::new();
    let (min, share) = Mode::Streamed.reps_and_share();
    plan.repeat(min, share, || {
        let (inputs, _) = setup(w, plan.seed);
        match runs::streamed(inputs, &path) {
            Ok((result, t)) => {
                rate.push(throughput(&result, t.total));
                report.record(&result);
            }
            Err(e) => report.fail(e),
        }
    });
    report.sample("streamed_requests_per_s", rate);
    report.sample("streamed_peak_rss_mb", vec![host::peak_rss_mb()]);
}

fn stream_path(scratch: &Path) -> std::path::PathBuf {
    scratch.join(format!("stream-{}.jsonl", std::process::id()))
}

/// Wall time of the traced child's own steps, by name.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, f64>);

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.0.entry(name).or_insert(0.0) += t0.elapsed().as_secs_f64();
        out
    }

    fn covered(&self) -> f64 {
        self.0.values().sum()
    }
}

fn traced(plan: &Plan, scratch: &Path, started: Instant, report: &mut Report) {
    let w = &plan.workload;
    let mut spans = Spans::default();

    // Pairs of a plain run and a layer replay, back to back so that both
    // see the same host: the plain run gives `cloudsim.run_s`, the set-up
    // breakdown and the outcomes the replay must reproduce; the pair's
    // difference is the loop's own time. Pairs repeat until every tail
    // percentile has enough samples and the time share has passed.
    let (mut run_s, mut self_s, mut kernel_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_parts: [Vec<f64>; 3] = Default::default();
    let mut reference: Option<SimResult> = None;
    let mut calls = LayerCalls::default();
    let mut replays = 0usize;
    let mut mismatches = 0usize;
    let (min, share) = Mode::Traced.reps_and_share();
    let budget = Duration::from_secs_f64(plan.seconds * share);
    let t_pairs = Instant::now();
    loop {
        kernel_ms.push(spans.time("ref_kernel", host::ref_kernel_ms));
        let (inputs, t) = spans.time("setup", || setup(w, plan.seed));
        for (parts, v) in setup_parts
            .iter_mut()
            .zip([t.topology, t.cluster_state, t.trace])
        {
            parts.push(v);
        }
        let (result, secs) = spans.time("plain_run", || runs::plain(inputs));
        run_s.push(secs);
        spans.time("check", || {
            report.record(&result);
            reference.get_or_insert(result);
        });
        let reference = reference.as_ref().expect("recorded above");

        let (inputs, _) = spans.time("setup", || setup(w, plan.seed));
        let before = calls.layer_total();
        let outcomes = spans.time("replay", || {
            replay::replay(&inputs.state, &inputs.config, &mut calls)
        });
        self_s.push(secs - (calls.layer_total() - before));
        spans.time("check", || {
            let bad = replay::mismatches(&reference.outcomes, &outcomes);
            mismatches += bad;
            report.runs += 1;
            if bad > 0 {
                report.failed_runs += 1;
                report
                    .problems
                    .push(format!("replay differs from sim::run on {bad} requests"));
            }
            drop((inputs, outcomes));
        });
        replays += 1;
        let tails_ready = [&calls.placement, &calls.commit, &calls.job]
            .iter()
            .all(|c| c.count() == 0 || c.count() >= stats::samples_for_tail(0.99));
        let elapsed = t_pairs.elapsed();
        if plan.smoke
            || replays >= MAX_REPS
            || (replays >= min && tails_ready && elapsed >= budget)
            || elapsed >= 3 * budget
        {
            break;
        }
    }
    let reference = reference.expect("at least one plain run");

    // One recorded run: the program's own counters and the run-document
    // steps.
    let (inputs, _) = spans.time("setup", || setup(w, plan.seed));
    let rec = spans.time("recorded", || runs::recorded(inputs));
    let rec = match rec {
        Ok(r) => {
            spans.time("check", || report.record(&r.result));
            Some(r)
        }
        Err(e) => {
            report.fail(e);
            None
        }
    };

    // One streamed run.
    let (inputs, _) = spans.time("setup", || setup(w, plan.seed));
    let streamed = spans.time("streamed", || runs::streamed(inputs, &stream_path(scratch)));
    let streamed = match streamed {
        Ok((result, t)) => {
            spans.time("check", || report.record(&result));
            Some(t)
        }
        Err(e) => {
            report.fail(e);
            None
        }
    };

    let per_run = |x: f64| x / replays as f64;
    let count = |c: &replay::Calls| per_run(c.count() as f64);
    let us = |v: &[f64]| v.iter().map(|s| s * 1e6).collect::<Vec<_>>();
    let counter = |name: &str| {
        rec.as_ref()
            .and_then(|r| r.snapshot.counters.get(name).copied())
            .unwrap_or(0) as f64
    };
    let one = Reading::one;

    report.set("des.calls", one(count(&calls.des)));
    report.set("des.self_s", one(per_run(calls.des.total())));
    report.set("des.events", one(counter("des.events_processed")));

    report.set("placement.calls", one(count(&calls.placement)));
    report.set("placement.self_s", one(per_run(calls.placement.total())));
    let place_us = us(&calls.placement.0);
    report.set("placement.call_us_p50", Reading::quantile(&place_us, 0.5));
    report.set("placement.call_us_p99", Reading::quantile(&place_us, 0.99));
    let batch_sum: usize = calls.batch_len.iter().sum();
    report.set(
        "placement.batch_len_mean",
        one(batch_sum as f64 / calls.batch_len.len().max(1) as f64),
    );
    let (scanned, pruned) = (
        counter("placement.seeds_scanned"),
        counter("placement.seeds_pruned"),
    );
    let considered = scanned + pruned + counter("placement.seeds_aborted");
    report.set("placement.seeds_scanned", one(scanned));
    report.set("placement.seeds_pruned", one(pruned));
    report.set(
        "placement.prune_frac",
        one(if considered > 0.0 {
            pruned / considered
        } else {
            0.0
        }),
    );
    report.set(
        "placement.exchange_swaps",
        one(counter("placement.exchange_swaps")),
    );
    report.set(
        "placement.requests_deferred",
        one(counter("placement.requests_deferred")),
    );

    report.set("model.commit_calls", one(count(&calls.commit)));
    report.set("model.commit_s", one(per_run(calls.commit.total())));
    report.set(
        "model.commit_us_p99",
        Reading::quantile(&us(&calls.commit.0), 0.99),
    );

    let job_ms: Vec<f64> = calls.job.0.iter().map(|s| s * 1e3).collect();
    report.set("mapreduce.jobs", one(count(&calls.job)));
    report.set("mapreduce.self_s", one(per_run(calls.job.total())));
    report.set("mapreduce.job_ms_p50", Reading::quantile(&job_ms, 0.5));
    report.set("mapreduce.job_ms_p99", Reading::quantile(&job_ms, 0.99));
    report.set(
        "mapreduce.cluster_build_s",
        one(per_run(calls.cluster_build.total())),
    );

    report.set(
        "netsim.flownet_new_s",
        one(per_run(calls.flownet_new.total())),
    );
    report.set(
        "netsim.flownet_new_us_p50",
        Reading::quantile(&us(&calls.flownet_new.0), 0.5),
    );
    for (metric, counter_name) in [
        ("netsim.solves", "prof.solver.solves"),
        ("netsim.flows", "prof.solver.flows"),
        ("netsim.iterations", "prof.solver.iterations"),
        ("netsim.flows_skipped", "prof.solver.flows_skipped"),
        (
            "netsim.completion_batches",
            "prof.solver.completion_batches",
        ),
    ] {
        report.set(metric, one(counter(counter_name)));
    }
    let peak_flows = rec
        .as_ref()
        .and_then(|r| r.snapshot.gauges.get("prof.solver.peak_flows").copied())
        .unwrap_or(0.0);
    report.set("netsim.peak_flows", one(peak_flows));

    let run_s = Reading::median(&run_s);
    report.set("cloudsim.run_s", run_s);
    report.set("cloudsim.self_s", Reading::median(&self_s));
    report.set(
        "cloudsim.events",
        one(counter("cloudsim.event.arrival") + counter("cloudsim.event.departure")),
    );
    report.set("cloudsim.replay_mismatches", one(mismatches as f64));

    let rt = rec.as_ref().map(|r| r.times).unwrap_or_default();
    report.set("obs.recorded_run_s", one(rt.run));
    report.set("obs.record_overhead", one(rt.run / run_s.value));
    report.set("obs.snapshot_s", one(rt.snapshot));
    report.set("obs.chrome_trace_s", one(rt.chrome_trace));
    report.set("obs.attribution_s", one(rt.attribution));
    report.set("obs.doc_export_s", one(rt.export));
    let st = streamed.unwrap_or_default();
    report.set("obs.streamed_run_s", one(st.run));
    report.set("obs.stream_finish_s", one(st.finish));
    report.set("obs.stream_replay_s", one(st.replay));
    report.set("obs.stream_mb", one(st.bytes as f64 / (1024.0 * 1024.0)));
    report.set("obs.spans", one(rec.as_ref().map_or(0, |r| r.spans) as f64));
    report.set(
        "obs.events",
        one(rec.as_ref().map_or(0, |r| r.events) as f64),
    );

    for (name, parts) in ["setup.topology_s", "setup.cluster_state_s", "setup.trace_s"]
        .into_iter()
        .zip(&setup_parts)
    {
        report.set(name, Reading::median(parts));
    }

    let r = &reference;
    let jobs: Vec<f64> = r
        .outcomes
        .iter()
        .filter_map(|o| Some(o.job_runtime?.as_secs_f64()))
        .collect();
    report.set("outcome.served", one(r.served as f64));
    report.set("outcome.refused", one(r.refused as f64));
    report.set("outcome.mean_wait_s", one(r.mean_wait.as_secs_f64()));
    report.set("outcome.total_distance", one(r.total_distance as f64));
    report.set(
        "outcome.mean_job_runtime_s",
        one(jobs.iter().fold(0.0, |a, b| a + b) / jobs.len().max(1) as f64),
    );
    report.set("outcome.avg_utilization", one(r.avg_utilization));

    report.set("host.ref_kernel_ms", Reading::median(&kernel_ms));
    report.set(
        "host.cpu_per_wall",
        one(host::cpu_seconds() / started.elapsed().as_secs_f64()),
    );
    report.covered_s = spans.covered();
}
