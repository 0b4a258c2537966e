//! One simulator run per mode, timed from outside, and the checks every
//! run's outcomes must pass.

use crate::workload::Inputs;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;
use vc_cloudsim::sim::{self, RequestOutcome, SimResult};
use vc_obs::{Fnv64, MemRecorder, MetricsSnapshot, StreamingRecorder, TraceDump};

/// Digest of every outcome field, so two runs can be compared in one
/// string.
pub fn digest(outcomes: &[RequestOutcome]) -> String {
    fn opt(h: &mut Fnv64, v: Option<u64>) {
        match v {
            None => h.write_u64(0),
            Some(x) => h.write_u64(1).write_u64(x),
        };
    }
    let mut h = Fnv64::new();
    h.write_u64(outcomes.len() as u64);
    for o in outcomes {
        h.write_u64(o.id).write_u64(o.arrival.as_micros());
        opt(&mut h, o.distance);
        opt(&mut h, o.initial_distance);
        opt(&mut h, o.center.map(u64::from));
        opt(&mut h, o.span.map(u64::from));
        opt(&mut h, o.started.map(|t| t.as_micros()));
        opt(&mut h, o.finished.map(|t| t.as_micros()));
        opt(&mut h, o.job_runtime.map(|t| t.as_micros()));
        h.write_u64(u64::from(o.refused));
    }
    h.finish()
}

/// Problems with one run's outcomes; empty when the run is correct.
/// Every request must be settled exactly once (served xor refused), the
/// counts must add up, and a served request must start no earlier than
/// it arrived and finish no earlier than it started.
pub fn check(result: &SimResult, requests: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if result.outcomes.len() != requests {
        problems.push(format!(
            "{} outcomes for {requests} requests",
            result.outcomes.len()
        ));
    }
    let (mut served, mut refused) = (0, 0);
    for o in &result.outcomes {
        match (o.started, o.finished, o.refused) {
            (Some(start), Some(finish), false) => {
                served += 1;
                if !(o.arrival <= start && start <= finish) {
                    problems.push(format!(
                        "request {}: arrival {} start {start} finish {finish}",
                        o.id, o.arrival
                    ));
                }
            }
            (None, None, true) => refused += 1,
            _ => problems.push(format!("request {} is not settled exactly once", o.id)),
        }
    }
    if served + refused != requests || (served, refused) != (result.served, result.refused) {
        problems.push(format!(
            "served {}/{served} + refused {}/{refused} != {requests}",
            result.served, result.refused
        ));
    }
    problems
}

/// `sim::run` on `inputs`, with its wall time in seconds.
pub fn plain(inputs: Inputs) -> (SimResult, f64) {
    let t0 = Instant::now();
    let result = sim::run(&inputs.state, inputs.config);
    (result, t0.elapsed().as_secs_f64())
}

/// Host seconds of each step of a recorded run, as `simulate
/// --metrics-out` performs them.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordedTimes {
    pub run: f64,
    pub snapshot: f64,
    pub chrome_trace: f64,
    pub attribution: f64,
    /// Building the run document, serialising it, and freeing every
    /// buffer of the pipeline.
    pub export: f64,
    pub total: f64,
}

/// What a recorded run leaves for the caller besides its times.
pub struct Recorded {
    pub result: SimResult,
    pub times: RecordedTimes,
    pub snapshot: MetricsSnapshot,
    pub spans: usize,
    pub events: usize,
}

/// `run_recorded` into a `MemRecorder`, then the run document: metrics
/// snapshot, Chrome trace, critical-path attribution, and the JSON text.
pub fn recorded(inputs: Inputs) -> Result<Recorded, String> {
    let t0 = Instant::now();
    let rec = MemRecorder::new();
    let result = sim::run_recorded(&inputs.state, inputs.config, &rec);
    let t1 = Instant::now();
    let snapshot = rec.metrics();
    let t2 = Instant::now();
    let trace = vc_obs::chrome_trace(&rec);
    let t3 = Instant::now();
    let dump = TraceDump::from_chrome_value(&trace)?;
    let jobs = vc_obs::analyze(&dump);
    let t4 = Instant::now();
    let serde_json::Value::Object(mut doc) = snapshot.to_json() else {
        return Err("metrics snapshot is not a JSON object".into());
    };
    let jobs_json = jobs.iter().map(vc_obs::JobAttribution::to_json).collect();
    doc.push((
        "attribution".into(),
        serde_json::Value::Object(vec![("jobs".into(), serde_json::Value::Array(jobs_json))]),
    ));
    let text =
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).map_err(|e| e.to_string())?;
    let (spans, events) = (dump.spans.len(), dump.events.len());
    std::hint::black_box(text.len());
    drop((text, jobs, dump, trace, rec));
    let t5 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Recorded {
        result,
        times: RecordedTimes {
            run: secs(t0, t1),
            snapshot: secs(t1, t2),
            chrome_trace: secs(t2, t3),
            attribution: secs(t3, t4),
            export: secs(t4, t5),
            total: secs(t0, t5),
        },
        snapshot,
        spans,
        events,
    })
}

/// Host seconds of each step of a streamed run, as `simulate
/// --stream-out` performs them.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamedTimes {
    pub run: f64,
    pub finish: f64,
    /// Reading the file back, `replay_jsonl`, and deleting the file.
    pub replay: f64,
    pub total: f64,
    pub bytes: usize,
}

/// `run_recorded` into a `StreamingRecorder` writing `path`, then
/// finish, flush, replay the file, and delete it.
pub fn streamed(inputs: Inputs, path: &Path) -> Result<(SimResult, StreamedTimes), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let t0 = Instant::now();
    let rec = StreamingRecorder::new(BufWriter::new(File::create(path).map_err(io)?));
    let result = sim::run_recorded(&inputs.state, inputs.config, &rec);
    let t1 = Instant::now();
    let mut writer = rec.finish().map_err(io)?;
    writer.flush().map_err(io)?;
    drop(writer);
    let t2 = Instant::now();
    let text = std::fs::read_to_string(path).map_err(io)?;
    let bytes = text.len();
    let merged = vc_obs::replay_jsonl(&text);
    drop(text);
    std::fs::remove_file(path).map_err(io)?;
    let merged = merged.map_err(|e| format!("replay_jsonl: {e}"))?;
    drop(merged);
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        result,
        StreamedTimes {
            run: secs(t0, t1),
            finish: secs(t1, t2),
            replay: secs(t2, t3),
            total: secs(t0, t3),
            bytes,
        },
    ))
}
