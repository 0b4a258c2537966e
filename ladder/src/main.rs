//! `ladder`: the simulator benchmark, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path ladder/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--json PATH] [--smoke]
//! ```
//!
//! Each workload is measured end to end (`--trace 0`: plain, recorded
//! and streamed children), per layer (`--trace 1`: one traced child),
//! or both (no `--trace`). Every metric is printed as
//! `workload metric value unit`; the last line of standard output is a
//! JSON summary with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 1 when any correctness check fails. See README.md.

mod child;
mod host;
mod metrics;
mod replay;
mod runs;
mod stats;
mod workload;

use child::{Mode, Plan, Reading, Report};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::Workload;

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both end-to-end and traced.
    trace: Option<bool>,
    json: Option<PathBuf>,
    smoke: bool,
    child: Option<Mode>,
}

const USAGE: &str = "usage: ladder [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--json PATH] [--smoke]";

/// Smoke runs shrink every workload's request count by this factor.
const SMOKE_DIVISOR: usize = 20;

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10.0,
        trace: None,
        json: None,
        smoke: false,
        child: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?;
                args.workloads.push(w);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--child" => {
                let m = value()?;
                args.child = Some(Mode::parse(&m).ok_or_else(|| format!("unknown mode `{m}`"))?);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workload::WORKLOADS.to_vec();
    }
    if args.smoke {
        args.workloads = args
            .workloads
            .iter()
            .map(|w| w.with_requests((w.requests / SMOKE_DIVISOR).max(1)))
            .collect();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladder: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mode) = args.child else {
        return parent(&args);
    };
    let scratch = match scratch_dir(std::process::id()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ladder: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("ladder: {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let plan = Plan {
        workload: args.workloads[0],
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let report = child::run(mode, &plan, &scratch, started);
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serialises")
    );
    ExitCode::SUCCESS
}

/// The directory, beside the executable and so inside the build
/// directory, that child `pid` keeps its streamed runs' files in.
fn scratch_dir(pid: u32) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(dir.join(format!("ladder-tmp-{pid}")))
}

/// Everything measured on one workload.
#[derive(Default)]
struct WorkloadResult {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    digest: String,
    metrics: BTreeMap<String, Reading>,
    /// End-to-end samples pooled over every child of a mode.
    samples: BTreeMap<String, Vec<f64>>,
}

impl WorkloadResult {
    /// Fold one child's report in. Its runs count as attempted; a failed
    /// run fails all of its requests, and so does every run of a child
    /// whose outcomes differ from the first child's.
    fn absorb(&mut self, mode: Mode, report: Report) {
        let n = report.requests;
        self.attempted += report.runs * n;
        let mut failed_runs = report.failed_runs;
        if self.digest.is_empty() {
            self.digest = report.digest.clone();
        } else if report.digest != self.digest {
            failed_runs = report.runs;
            self.problems.push(format!(
                "{} digest {} != {}",
                mode.name(),
                report.digest,
                self.digest
            ));
        }
        self.failed += failed_runs * n;
        self.problems.extend(
            report
                .problems
                .into_iter()
                .map(|p| format!("{}: {p}", mode.name())),
        );
        self.metrics.extend(report.metrics);
        for (name, values) in report.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// A child that crashed, exited non-zero or sent no report: all the
    /// requests it was to run fail.
    fn crashed(&mut self, mode: Mode, requests: usize, why: String) {
        self.attempted += requests;
        self.failed += requests;
        self.problems.push(format!("{} child: {why}", mode.name()));
    }
}

/// End-to-end children run in this many rounds of (plain, recorded,
/// streamed), each round with its share of the measuring time, so that
/// every mode samples the whole measurement and a slow spell of the
/// host does not fall on one mode alone.
const ROUNDS: usize = 3;

fn parent(args: &Args) -> ExitCode {
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let mut schedule: Vec<(Mode, f64)> = Vec::new();
    if args.trace != Some(true) {
        for _ in 0..rounds {
            for mode in Mode::END_TO_END {
                schedule.push((mode, args.seconds / rounds as f64));
            }
        }
    }
    if args.trace != Some(false) {
        schedule.push((Mode::Traced, args.seconds));
    }
    let mut results: Vec<(Workload, WorkloadResult)> = Vec::new();
    for &w in &args.workloads {
        let mut result = WorkloadResult::default();
        for &(mode, seconds) in &schedule {
            let t0 = Instant::now();
            match spawn_child(args, w, mode, seconds) {
                Ok(report) => {
                    let wall = t0.elapsed().as_secs_f64();
                    if mode == Mode::Traced {
                        // Share of the child's wall time, measured from
                        // here, that none of its own spans covers.
                        let other = 1.0 - report.covered_s / wall;
                        result
                            .metrics
                            .insert("obs.other_frac".into(), Reading::one(other));
                    }
                    result.absorb(mode, report);
                }
                Err(why) => result.crashed(mode, w.requests, why),
            }
        }
        for (name, values) in std::mem::take(&mut result.samples) {
            result.metrics.insert(name, Reading::median(&values));
        }
        if let Some(r) = result.metrics.get("obs.other_frac") {
            if r.value >= 0.05 {
                result
                    .problems
                    .push(format!("obs.other_frac {} is not below 0.05", r.value));
            }
        }
        print_workload(w.name, &result);
        results.push((w, result));
    }
    let correct = results
        .iter()
        .all(|(_, r)| r.failed == 0 && r.problems.is_empty());
    if let Some(path) = &args.json {
        let doc = json_doc(args, &results);
        let text = serde_json::to_string_pretty(&doc).expect("document serialises");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("ladder: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", summary_line(correct, &results));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one child to completion and parse its report.
fn spawn_child(args: &Args, w: Workload, mode: Mode, seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode.name(), "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id();
    let out = child.wait_with_output().map_err(|e| format!("wait: {e}"));
    // A child that died early leaves its temporary files behind.
    if let Ok(dir) = scratch_dir(pid) {
        let _ = std::fs::remove_dir_all(dir);
    }
    let out = out?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no report")?;
    serde_json::from_str(line).map_err(|e| format!("bad report: {e}"))
}

fn print_workload(name: &str, r: &WorkloadResult) {
    for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        let Some(m) = r.metrics.get(def.name) else {
            continue;
        };
        let detail = match m.quartiles {
            Some((q1, q3)) => format!("  (q1 {q1:.6}, q3 {q3:.6}, n {})", m.n),
            None if m.n > 1 => format!("  (n {})", m.n),
            None => String::new(),
        };
        println!("{name} {} {} {}{detail}", def.name, m.value, def.unit);
        if def.name == "outcome.avg_utilization" {
            println!("{name} outcome.digest {}", r.digest);
        }
    }
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{name} check {}: {} of {} requests failed (failed_frac {frac})",
        if r.failed == 0 && r.problems.is_empty() {
            "passed"
        } else {
            "FAILED"
        },
        r.failed,
        r.attempted
    );
    for p in r.problems.iter().take(10) {
        println!("{name} problem: {p}");
    }
}

/// One metric in the summary line.
#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

/// The last line of standard output.
#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, Metric>,
}

/// One metric in the `--json` document, with its spread.
#[derive(Serialize)]
struct MetricDetail {
    value: f64,
    unit: String,
    n: usize,
    /// First and third quartile, for medians.
    quartiles: Option<(f64, f64)>,
}

/// One workload in the `--json` document.
#[derive(Serialize)]
struct WorkloadDoc {
    name: String,
    requests: usize,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    digest: String,
    metrics: BTreeMap<String, MetricDetail>,
}

/// The `--json` document.
#[derive(Serialize)]
struct Doc {
    seed: u64,
    seconds: f64,
    smoke: bool,
    workloads: Vec<WorkloadDoc>,
}

fn unit(name: &str) -> String {
    metrics::unit(name).unwrap_or_default().to_string()
}

fn json_doc(args: &Args, results: &[(Workload, WorkloadResult)]) -> Doc {
    let workloads = results
        .iter()
        .map(|(w, r)| WorkloadDoc {
            name: w.name.to_string(),
            requests: w.requests,
            attempted: r.attempted,
            failed: r.failed,
            problems: r.problems.clone(),
            digest: r.digest.clone(),
            metrics: r
                .metrics
                .iter()
                .map(|(name, m)| {
                    let detail = MetricDetail {
                        value: m.value,
                        unit: unit(name),
                        n: m.n,
                        quartiles: m.quartiles,
                    };
                    (name.clone(), detail)
                })
                .collect(),
        })
        .collect();
    Doc {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        workloads,
    }
}

/// The summary line. With one workload, metrics carry their own names;
/// with several, each is prefixed by its workload.
fn summary_line(correct: bool, results: &[(Workload, WorkloadResult)]) -> String {
    let prefix = results.len() > 1;
    let metrics = results
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |(name, m)| {
                let key = if prefix {
                    format!("{}.{name}", w.name)
                } else {
                    name.clone()
                };
                let metric = Metric {
                    value: m.value,
                    unit: unit(name),
                };
                (key, metric)
            })
        })
        .collect();
    let summary = Summary {
        correct,
        attempted: results.iter().map(|(_, r)| r.attempted).sum(),
        failed: results.iter().map(|(_, r)| r.failed).sum(),
        metrics,
    };
    serde_json::to_string(&summary).expect("summary serialises")
}
