//! Subcommand implementations.

use crate::args::{ArgError, Parsed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::sync::Arc;
use vc_cloudsim::sim::{PolicyMode, ServiceModel, SimConfig};
use vc_cloudsim::{ArrivalProcess, ServiceTime};
use vc_des::SimTime;
use vc_mapreduce::engine::SimParams;
use vc_mapreduce::{JobConfig, JobObservation, VirtualCluster, Workload};
use vc_model::workload::RequestProfile;
use vc_model::{ClusterState, Request, VmCatalog};
use vc_netsim::NetworkParams;
use vc_obs::{
    report, DiffOptions, DiffReport, Fnv64, MemRecorder, MetricsSnapshot, Recorder, RunManifest,
    Severity, StreamingRecorder, TimeSeriesSet, TraceDump, MANIFEST_KEY,
};
use vc_placement::distance::distance_with_center;
use vc_placement::global::Admission;
use vc_placement::{baselines, exact, ilp, online, PlacementPolicy};
use vc_topology::{generate, DistanceTiers, NodeId};

fn build_cloud(p: &Parsed) -> Result<ClusterState, ArgError> {
    let racks = p.num_or("racks", 3usize)?;
    let nodes = p.num_or("nodes", 10usize)?;
    let capacity = p.num_or("capacity", 2u32)?;
    if racks == 0 || nodes == 0 {
        return Err(ArgError::new("--racks and --nodes must be positive"));
    }
    // The placement index keeps per-node, per-rack and per-type totals in
    // u32: the largest is capacity × max(nodes in the cloud, VM types).
    let catalog = Arc::new(VmCatalog::ec2_table1());
    let largest = (racks as u128 * nodes as u128).max(catalog.len() as u128);
    if u128::from(capacity) * largest > u128::from(u32::MAX) {
        return Err(ArgError::new(format!(
            "--capacity {capacity} is too large: the cloud's VM totals must fit in {}, \
             and {capacity} × {largest} does not",
            u32::MAX
        )));
    }
    let topo = Arc::new(generate::uniform(
        racks,
        nodes,
        DistanceTiers::paper_experiment(),
    ));
    Ok(ClusterState::uniform_capacity(topo, catalog, capacity))
}

/// The seed-scan configuration selected by `--placement-threads`
/// (0 = auto-detect, 1 = sequential, n = that many workers). Pruning is
/// always on — it never changes the chosen allocation.
fn scan_config(p: &Parsed) -> Result<online::ScanConfig, ArgError> {
    let threads = p.num_or("placement-threads", 1usize)?;
    Ok(online::ScanConfig {
        prune: true,
        parallelism: online::Parallelism::from_thread_count(threads),
    })
}

fn policy_by_name(
    name: &str,
    scan: online::ScanConfig,
) -> Result<Box<dyn PlacementPolicy>, ArgError> {
    Ok(match name {
        "online" => Box::new(online::OnlineScan(scan)),
        "exact" => Box::new(exact::ExactSd),
        "ilp" => Box::new(ilp::IlpSd),
        "first-fit" => Box::new(baselines::FirstFit),
        "best-fit" => Box::new(baselines::BestFit),
        "spread" => Box::new(baselines::Spread),
        "random" => Box::new(baselines::RandomPlacement),
        other => {
            return Err(ArgError::new(format!(
                "unknown policy `{other}` for --policy"
            )))
        }
    })
}

fn workload_by_name(name: &str) -> Result<Workload, ArgError> {
    Ok(match name {
        "wordcount" => Workload::wordcount(),
        "wordcount-nocombine" => Workload::wordcount_no_combiner(),
        "terasort" => Workload::terasort(),
        "grep" => Workload::grep(),
        other => return Err(ArgError::new(format!("unknown workload `{other}`"))),
    })
}

/// Whether `--trace-out`, `--metrics-out`, `--prom-out`, `--series-out`
/// or `--stream-out` asks for a recorded run.
fn wants_observability(p: &Parsed) -> bool {
    !p.str_or("trace-out", "").is_empty()
        || !p.str_or("metrics-out", "").is_empty()
        || !p.str_or("prom-out", "").is_empty()
        || !p.str_or("series-out", "").is_empty()
        || !p.str_or("stream-out", "").is_empty()
}

/// The arrival rate from `--rate`: finite and positive, and small enough
/// that `count` exponential gaps fit in [`SimTime`] with half its range
/// to spare for holding times. A gap is at most `-ln(f64::EPSILON)/rate`
/// seconds, because [`ArrivalProcess::generate`] draws `u ≥ EPSILON`.
fn arrival_rate(p: &Parsed, count: usize) -> Result<f64, ArgError> {
    let rate = p.num_or("rate", 0.5f64)?;
    let given = p.str_or("rate", "0.5");
    if !(rate.is_finite() && rate > 0.0) {
        return Err(ArgError::new(format!(
            "--rate {given}: must be a finite positive number of arrivals per second"
        )));
    }
    let max_gap_us = -f64::EPSILON.ln() / rate * 1e6;
    if count > 0 && count as f64 * (max_gap_us + 1.0) > (u64::MAX / 2) as f64 {
        return Err(ArgError::new(format!(
            "--rate {given}: too low for {count} requests; their arrival times would \
             overflow the simulation clock"
        )));
    }
    Ok(rate)
}

/// The `ts.*` sampling cadence from `--window-us` (0/absent = off).
/// `--series-out` is meaningless without one, so that combination is
/// rejected here.
fn ts_window(p: &Parsed) -> Result<Option<u64>, ArgError> {
    let w = p.num_or("window-us", 0u64)?;
    if w == 0 && !p.str_or("series-out", "").is_empty() {
        return Err(ArgError::new(
            "--series-out needs --window-us <N> to define the sampling cadence",
        ));
    }
    Ok((w > 0).then_some(w))
}

/// FNV digest of a topology's identity — node/rack shape plus distance
/// tiers. Two runs with equal digests placed onto byte-identical clouds,
/// which is what makes their per-link and per-rack telemetry alignable.
fn topology_digest(topo: &vc_topology::Topology) -> String {
    let mut h = Fnv64::new();
    h.write_u64(topo.num_nodes() as u64)
        .write_u64(topo.num_racks() as u64);
    for node in topo.node_ids() {
        h.write_u64(u64::from(topo.rack_of(node).0));
    }
    let tiers = topo.tiers();
    h.write_u64(u64::from(tiers.same_rack))
        .write_u64(u64::from(tiers.cross_rack))
        .write_u64(u64::from(tiers.cross_cloud));
    h.finish()
}

/// FNV digest of a request trace: ids, timings and VM counts. Equal
/// digests mean the two runs served the exact same arrival sequence,
/// so count deltas are attributable to the policy, not the workload.
fn trace_digest(trace: &[vc_cloudsim::CloudRequest]) -> String {
    let mut h = Fnv64::new();
    h.write_u64(trace.len() as u64);
    for r in trace {
        h.write_u64(r.id)
            .write_u64(r.arrival.as_micros())
            .write_u64(r.service_time.as_micros());
        for &c in r.request.counts() {
            h.write_u64(u64::from(c));
        }
    }
    h.finish()
}

/// Cloud-shape knobs every cloud-building command contributes to its
/// manifest.
fn cloud_config_entries(p: &Parsed) -> Result<Vec<(String, String)>, ArgError> {
    Ok(vec![
        ("racks".to_string(), p.num_or("racks", 3usize)?.to_string()),
        ("nodes".to_string(), p.num_or("nodes", 10usize)?.to_string()),
        (
            "capacity".to_string(),
            p.num_or("capacity", 2u32)?.to_string(),
        ),
        (
            "placement-threads".to_string(),
            p.num_or("placement-threads", 1usize)?.to_string(),
        ),
    ])
}

/// The recorder a command records into: the buffering [`MemRecorder`]
/// normally, and the [`StreamingRecorder`] when `--stream-out` writes the
/// op stream to a JSONL file as it happens. A stream's artefacts
/// (trace/metrics/series) come from replaying the file, so what you
/// export is exactly what a later `report --stream` will see, and what
/// an in-memory recording of the run exports.
enum CliRecorder {
    Mem(Box<MemRecorder>),
    Stream {
        rec: StreamingRecorder<BufWriter<File>>,
        path: String,
    },
}

impl CliRecorder {
    /// Select the recorder for a run: a stream for `--stream-out`,
    /// memory otherwise. A stream opens with the run manifest as a
    /// JSONL header line, so a flushed file identifies its run even
    /// when no other artefact was exported (`replay_jsonl` skips the
    /// header).
    fn build(p: &Parsed, manifest: &RunManifest) -> Result<Self, ArgError> {
        match p.str_or("stream-out", "") {
            "" => Ok(Self::Mem(Box::default())),
            path => {
                let mut file = File::create(path)
                    .map_err(|e| ArgError::new(format!("--stream-out {path}: {e}")))?;
                let header =
                    serde_json::Value::Object(vec![(MANIFEST_KEY.to_string(), manifest.to_json())]);
                writeln!(file, "{header}")
                    .map_err(|e| ArgError::new(format!("--stream-out {path}: {e}")))?;
                Ok(Self::Stream {
                    rec: StreamingRecorder::new(BufWriter::new(file)),
                    path: path.to_string(),
                })
            }
        }
    }

    fn as_recorder(&self) -> &dyn Recorder {
        match self {
            Self::Mem(r) => r.as_ref(),
            Self::Stream { rec, .. } => rec,
        }
    }

    /// Finish recording. A stream is flushed to disk and replayed, which
    /// also validates the file end to end.
    fn finish(self) -> Result<TraceDump, ArgError> {
        match self {
            Self::Mem(r) => Ok(r.into_dump()),
            Self::Stream { rec, path } => {
                rec.finish()
                    .map_err(|e| ArgError::new(format!("--stream-out {path}: {e}")))?;
                replay_file("stream-out", &path)
            }
        }
    }
}

/// Replay the JSONL stream at `path`, read line by line, with errors
/// naming `--<flag> <path>`.
fn replay_file(flag: &str, path: &str) -> Result<TraceDump, ArgError> {
    let file =
        File::open(path).map_err(|e| ArgError::new(format!("--{flag} {path}: I/O error: {e}")))?;
    vc_obs::replay_jsonl_from(BufReader::new(file))
        .map_err(|e| ArgError::new(format!("--{flag} {path}: {e}")))
}

/// Write the requested observability artefacts: a Chrome/Perfetto trace
/// for `--trace-out`, the run document for `--metrics-out` (CSV snapshot
/// when the path ends in `.csv`, pretty JSON otherwise), a Prometheus
/// text exposition plus the `vc_run_info` info-metric for `--prom-out`
/// (window-labelled `ts.*` samples when `--window-us` is set), and the
/// windowed time-series for `--series-out` (CSV when the path ends in
/// `.csv`, else JSONL).
fn write_observability(
    p: &Parsed,
    dump: &TraceDump,
    manifest: &RunManifest,
    doc: Option<&serde_json::Value>,
) -> Result<(), ArgError> {
    match p.str_or("trace-out", "") {
        "" => {}
        path => {
            vc_obs::trace::save_trace_value(&dump.to_chrome_value(), path)
                .map_err(|e| ArgError::new(format!("--trace-out {path}: {e}")))?;
        }
    }
    match p.str_or("metrics-out", "") {
        "" => {}
        path => {
            let text = if path.ends_with(".csv") {
                dump.metrics.to_csv()
            } else {
                match doc {
                    Some(doc) => serde_json::to_string_pretty(doc)
                        .map_err(|e| ArgError::new(e.to_string()))?,
                    None => dump.metrics.to_json_string(),
                }
            };
            std::fs::write(path, text)
                .map_err(|e| ArgError::new(format!("--metrics-out {path}: {e}")))?;
        }
    }
    let window_us = p.num_or("window-us", 0u64)?;
    let series = || TimeSeriesSet::from_counter_series(&dump.counter_series);
    match p.str_or("prom-out", "") {
        "" => {}
        path => {
            let series = if window_us > 0 {
                series()
            } else {
                TimeSeriesSet::default()
            };
            let mut text = vc_obs::to_prometheus_windowed(&dump.metrics, window_us, &series);
            text.push_str(&manifest.to_prom_info());
            std::fs::write(path, text)
                .map_err(|e| ArgError::new(format!("--prom-out {path}: {e}")))?;
        }
    }
    match p.str_or("series-out", "") {
        "" => {}
        path => write_series(&series(), path)?,
    }
    Ok(())
}

/// Write `set` to `--series-out` (CSV when the path ends in `.csv`, else
/// JSONL).
fn write_series(set: &TimeSeriesSet, path: &str) -> Result<(), ArgError> {
    let text = if path.ends_with(".csv") {
        set.to_csv()
    } else {
        set.to_jsonl()
    };
    std::fs::write(path, text).map_err(|e| ArgError::new(format!("--series-out {path}: {e}")))
}

/// The run document: the metrics snapshot extended with the manifest,
/// per-job critical-path attribution, and (when `--window-us` sampled)
/// the windowed `ts.*` series. This is the unit `vc diff` aligns.
fn run_document(dump: &TraceDump, manifest: &RunManifest) -> Result<serde_json::Value, ArgError> {
    let serde_json::Value::Object(mut entries) = dump.metrics.to_json() else {
        return Err(ArgError::new("internal: metrics snapshot is not an object"));
    };
    entries.push((MANIFEST_KEY.to_string(), manifest.to_json()));
    let jobs: Vec<_> = vc_obs::analyze(dump)
        .iter()
        .map(vc_obs::JobAttribution::to_json)
        .collect();
    entries.push((
        "attribution".to_string(),
        serde_json::json!({ "jobs": jobs }),
    ));
    if manifest.window_us > 0 {
        let set = TimeSeriesSet::from_counter_series(&dump.counter_series);
        entries.push((
            "timeseries".to_string(),
            serde_json::json!({ "window_us": manifest.window_us, "series": set.to_json() }),
        ));
    }
    Ok(serde_json::Value::Object(entries))
}

/// Everything a recorded run leaves behind for its command to render.
struct RecordedRun<T> {
    result: T,
    metrics: MetricsSnapshot,
    spans: usize,
    events: usize,
    /// The run document — built when `capture` asked for it or an
    /// artefact needed it, `None` otherwise.
    doc: Option<serde_json::Value>,
}

/// Shared recorded-run harness for `simulate` and `simulate-job`:
/// selects the recorder (mem / streaming), runs `body`
/// against it, builds the run document when needed, and writes every
/// `--*-out` artefact — so manifest capture is wired exactly once.
fn run_recorded_command<T>(
    p: &Parsed,
    manifest: &RunManifest,
    capture: bool,
    body: impl FnOnce(&dyn Recorder) -> T,
) -> Result<RecordedRun<T>, ArgError> {
    let rec = CliRecorder::build(p, manifest)?;
    let result = body(rec.as_recorder());
    let dump = rec.finish()?;
    let metrics_path = p.str_or("metrics-out", "");
    let want_doc = capture || (!metrics_path.is_empty() && !metrics_path.ends_with(".csv"));
    let doc = if want_doc {
        Some(run_document(&dump, manifest)?)
    } else {
        None
    };
    write_observability(p, &dump, manifest, doc.as_ref())?;
    Ok(RecordedRun {
        result,
        spans: dump.spans.len(),
        events: dump.events.len(),
        metrics: dump.metrics,
        doc,
    })
}

/// `affinity-vc place`
pub fn place(p: &Parsed) -> Result<String, ArgError> {
    p.ensure_known(&[
        "request",
        "policy",
        "racks",
        "nodes",
        "capacity",
        "seed",
        "json",
        "placement-threads",
    ])?;
    let counts = p
        .u32_list("request")?
        .ok_or_else(|| ArgError::new("missing required option --request (e.g. --request 2,4,1)"))?;
    let cloud = build_cloud(p)?;
    if counts.len() != cloud.num_types() {
        return Err(ArgError::new(format!(
            "--request must list {} counts (one per VM type)",
            cloud.num_types()
        )));
    }
    let request = Request::from_counts(counts.clone());
    if request.is_zero() {
        return Err(ArgError::new("--request must ask for at least one VM"));
    }
    let policy = policy_by_name(p.str_or("policy", "online"), scan_config(p)?)?;
    let mut rng = StdRng::seed_from_u64(p.num_or("seed", 0u64)?);

    let allocation = policy
        .place(&request, &cloud, &mut rng)
        .map_err(|e| ArgError::new(e.to_string()))?;
    let distance = distance_with_center(allocation.matrix(), cloud.topology(), allocation.center());

    if p.switch("json") {
        let placements: Vec<_> = allocation
            .matrix()
            .entries()
            .map(|(n, t, c)| serde_json::json!({"node": n.0, "type": t.0, "count": c}))
            .collect();
        return Ok(serde_json::json!({
            "request": counts,
            "policy": policy.name(),
            "distance": distance,
            "center": allocation.center().0,
            "span_nodes": allocation.span(),
            "span_racks": allocation.rack_span(cloud.topology()),
            "placements": placements,
        })
        .to_string());
    }
    let mut out = format!(
        "policy {} placed {request}: distance {distance}, centre {}, {} node(s), {} rack(s)\n",
        policy.name(),
        allocation.center(),
        allocation.span(),
        allocation.rack_span(cloud.topology()),
    );
    for (node, ty, count) in allocation.matrix().entries() {
        out.push_str(&format!("  {node}: {count}×{ty}\n"));
    }
    Ok(out)
}

/// `affinity-vc simulate-job`
pub fn simulate_job(p: &Parsed) -> Result<String, ArgError> {
    p.ensure_known(&[
        "spread",
        "workload",
        "maps",
        "reducers",
        "seed",
        "json",
        "speculative",
        "straggler-prob",
        "trace-out",
        "metrics-out",
        "prom-out",
        "stream-out",
    ])?;
    let spread = p.u32_list("spread")?.unwrap_or_else(|| vec![2, 10, 0]);
    if spread.len() != 3 {
        return Err(ArgError::new(
            "--spread must be on_master,same_rack,cross_rack",
        ));
    }
    let workload = workload_by_name(p.str_or("workload", "wordcount"))?;
    let maps = p.num_or("maps", 32u32)?;
    let reducers = p.num_or("reducers", 1u32)?;
    if maps == 0 || reducers == 0 {
        return Err(ArgError::new("--maps and --reducers must be positive"));
    }

    let topo = Arc::new(generate::paper_simulation());
    let topo_digest = topology_digest(&topo);
    let mut nodes = vec![NodeId(0); spread[0] as usize];
    nodes.extend((0..spread[1]).map(|i| NodeId(1 + (i % 9))));
    nodes.extend((0..spread[2]).map(|i| NodeId(10 + (i % 20))));
    if nodes.is_empty() {
        return Err(ArgError::new("--spread must place at least one VM"));
    }
    let cluster = VirtualCluster::homogeneous(&nodes, nodes.len(), topo);

    let job = JobConfig {
        workload,
        input_mb: f64::from(maps) * 64.0,
        split_mb: 64.0,
        num_reducers: reducers,
        replication: 3,
    };
    let straggler_prob = p.num_or("straggler-prob", 0.0f64)?;
    if !(0.0..=1.0).contains(&straggler_prob) {
        return Err(ArgError::new(format!(
            "--straggler-prob {straggler_prob}: must be a probability in [0, 1]"
        )));
    }
    let params = SimParams {
        net: NetworkParams::default(),
        seed: p.num_or("seed", 0u64)?,
        straggler_prob,
        speculative_execution: p.switch("speculative"),
        ..SimParams::default()
    };
    let m = if wants_observability(p) {
        // The workload digest covers everything that shapes the job:
        // the VM spread, the workload profile, and the task counts.
        let workload_name = p.str_or("workload", "wordcount");
        let mut wh = Fnv64::new();
        wh.write_str(workload_name)
            .write_u64(u64::from(job.num_maps()))
            .write_u64(u64::from(reducers));
        for &s in &spread {
            wh.write_u64(u64::from(s));
        }
        let manifest = RunManifest::new(
            env!("CARGO_PKG_VERSION"),
            "simulate-job",
            params.seed,
            "pinned-spread",
            0,
            topo_digest,
            wh.finish(),
            vec![
                (
                    "spread".to_string(),
                    format!("{},{},{}", spread[0], spread[1], spread[2]),
                ),
                ("workload".to_string(), workload_name.to_string()),
                ("maps".to_string(), maps.to_string()),
                ("reducers".to_string(), reducers.to_string()),
                (
                    "straggler-prob".to_string(),
                    params.straggler_prob.to_string(),
                ),
                (
                    "speculative".to_string(),
                    params.speculative_execution.to_string(),
                ),
            ],
        );
        run_recorded_command(p, &manifest, false, |r| {
            vc_mapreduce::simulate_job_observed(&cluster, &job, &params, &JobObservation::new(r))
                .metrics
        })?
        .result
    } else {
        vc_mapreduce::simulate_job(&cluster, &job, &params)
    };

    if p.switch("json") {
        return serde_json::to_string(&m).map_err(|e| ArgError::new(e.to_string()));
    }
    Ok(format!(
        "cluster distance {}: runtime {:.1}s ({} maps: {} data-local / {} rack / {} remote; \
         non-local shuffle {:.0}%; {} speculative backups, {} won)\n",
        m.cluster_distance,
        m.runtime.as_secs_f64(),
        m.num_maps,
        m.data_local_maps,
        m.rack_local_maps,
        m.remote_maps,
        100.0 * m.non_local_shuffle_fraction(),
        m.speculative_attempts,
        m.speculative_wins,
    ))
}

/// `affinity-vc simulate` — the end-to-end pipeline:
/// request queue → affinity-aware placement → MapReduce jobs on the
/// placed virtual clusters, with the whole run recorded so
/// `--trace-out`/`--metrics-out` capture every layer at once.
pub fn simulate(p: &Parsed) -> Result<String, ArgError> {
    simulate_impl(p, None, false).map(|(out, _)| out)
}

/// The `simulate` body, parameterised for `compare`: `seed_override`
/// replaces `--seed` (so `compare --seeds N` can sweep a seed range),
/// and `capture` forces the run document to be built and returned even
/// when no `--metrics-out` artefact asked for it.
fn simulate_impl(
    p: &Parsed,
    seed_override: Option<u64>,
    capture: bool,
) -> Result<(String, Option<serde_json::Value>), ArgError> {
    p.ensure_known(&[
        "requests",
        "rate",
        "policy",
        "racks",
        "nodes",
        "capacity",
        "seed",
        "json",
        "service",
        "workload",
        "maps",
        "reducers",
        "trace",
        "save-trace",
        "trace-out",
        "metrics-out",
        "prom-out",
        "series-out",
        "stream-out",
        "window-us",
        "placement-threads",
        "health",
    ])?;
    let cloud = build_cloud(p)?;
    let count = p.num_or("requests", 10usize)?;
    let rate = arrival_rate(p, count)?;
    let seed = match seed_override {
        Some(s) => s,
        None => p.num_or("seed", 0u64)?,
    };
    let trace = match p.str_or("trace", "") {
        "" => {
            let process = ArrivalProcess {
                rate_per_s: rate,
                profile: RequestProfile::standard(),
                service: ServiceTime::UniformMs(10_000, 60_000),
            };
            process.generate(count, cloud.num_types(), &mut StdRng::seed_from_u64(seed))
        }
        path => vc_cloudsim::trace::load(path)
            .map_err(|e| ArgError::new(format!("--trace {path}: {e}")))?,
    };
    match p.str_or("save-trace", "") {
        "" => {}
        path => {
            vc_cloudsim::trace::save(&trace, path).map_err(|e| ArgError::new(e.to_string()))?;
        }
    }

    let policy_name = p.str_or("policy", "global");
    let scan = scan_config(p)?;
    let mode = if policy_name == "global" {
        PolicyMode::GlobalBatch(Admission::FifoBlocking, scan)
    } else {
        PolicyMode::Individual(policy_by_name(policy_name, scan)?)
    };
    let service_name = p.str_or("service", "mapreduce");
    let service = match service_name {
        "trace" => ServiceModel::Trace,
        "mapreduce" => {
            let maps = p.num_or("maps", 8u32)?;
            let reducers = p.num_or("reducers", 2u32)?;
            if maps == 0 || reducers == 0 {
                return Err(ArgError::new("--maps and --reducers must be positive"));
            }
            ServiceModel::MapReduce {
                job: JobConfig {
                    workload: workload_by_name(p.str_or("workload", "wordcount"))?,
                    input_mb: f64::from(maps) * 64.0,
                    split_mb: 64.0,
                    num_reducers: reducers,
                    replication: 3,
                },
                params: SimParams::default(),
            }
        }
        other => {
            return Err(ArgError::new(format!(
                "unknown service model `{other}` for --service (trace|mapreduce)"
            )))
        }
    };

    let total = trace.len();
    let workload_digest = trace_digest(&trace);
    let mut config = SimConfig::new(trace, mode, seed).with_service(service);
    if let Some(w) = ts_window(p)? {
        config = config.with_timeseries(w);
    }
    if p.switch("health") {
        config = config.with_health();
    }
    let mut entries = cloud_config_entries(p)?;
    entries.extend(config.manifest_entries());
    entries.push(("rate".to_string(), rate.to_string()));
    entries.push((
        "workload".to_string(),
        p.str_or("workload", "wordcount").to_string(),
    ));
    let manifest = RunManifest::new(
        env!("CARGO_PKG_VERSION"),
        "simulate",
        seed,
        &config.policy_name(),
        config.ts_window_us.unwrap_or(0),
        topology_digest(cloud.topology()),
        workload_digest,
        entries,
    );
    let run = run_recorded_command(p, &manifest, capture, |r| {
        vc_cloudsim::sim::run_recorded(&cloud, config, r)
    })?;
    let result = &run.result;
    let snap = &run.metrics;
    let (num_spans, num_events) = (run.spans, run.events);

    let out = if p.switch("json") {
        let outcomes: Vec<_> = result
            .outcomes
            .iter()
            .map(|o| {
                serde_json::json!({
                    "id": o.id,
                    "distance": o.distance,
                    "wait_s": o.wait().map(SimTime::as_secs_f64),
                    "refused": o.refused,
                })
            })
            .collect();
        serde_json::json!({
            "policy": policy_name,
            "service": service_name,
            "served": result.served,
            "refused": result.refused,
            "total_distance": result.total_distance,
            "mean_wait_s": result.mean_wait.as_secs_f64(),
            "outcomes": outcomes,
            "events": num_events,
            "spans": num_spans,
            "counters": snap.counters.len(),
            "histograms": snap.histograms.len(),
        })
        .to_string()
    } else {
        format!(
            "policy {policy_name}, service {service_name}: served {}/{} (refused {}), \
             Σdistance {}, mean wait {:.1}s\n\
             recorded {} events, {} spans, {} counters, {} histograms\n",
            result.served,
            total,
            result.refused,
            result.total_distance,
            result.mean_wait.as_secs_f64(),
            num_events,
            num_spans,
            snap.counters.len(),
            snap.histograms.len(),
        )
    };
    Ok((out, run.doc))
}

/// 1-based line number of a byte offset in `text`.
fn byte_line(text: &str, byte: usize) -> usize {
    text.as_bytes()
        .iter()
        .take(byte)
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// 1-based line of the first occurrence of `needle` (line 1 if absent).
fn line_of(text: &str, needle: &str) -> usize {
    text.find(needle).map_or(1, |pos| byte_line(text, pos))
}

/// Line of a manifest field inside a run document: search for the
/// quoted field name from the `"manifest"` key onward so a same-named
/// key elsewhere (e.g. `timeseries.window_us`) cannot shadow it.
fn manifest_field_line(text: &str, field: &str) -> usize {
    let start = text.find("\"manifest\"").unwrap_or(0);
    let needle = format!("\"{field}\"");
    match text[start..].find(&needle) {
        Some(off) => byte_line(text, start + off),
        None => line_of(text, "\"manifest\""),
    }
}

/// Load one run document for `vc diff`, locating parse errors by line.
fn load_run_doc(path: &str) -> Result<(String, serde_json::Value), ArgError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError::new(format!("{path}: I/O error: {e}")))?;
    match serde_json::from_str(&text) {
        Ok(doc) => Ok((text, doc)),
        Err(e) => {
            // The parser reports byte offsets; surface the line instead.
            let msg = e.to_string();
            let line = msg
                .rfind("byte ")
                .and_then(|i| {
                    msg[i + 5..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse::<usize>()
                        .ok()
                })
                .map_or(1, |b| byte_line(&text, b));
            Err(ArgError::new(format!("{path}: line {line}: {msg}")))
        }
    }
}

/// Map a [`vc_obs::DiffError`] onto the offending file and line.
fn locate_diff_error(err: vc_obs::DiffError, base: (&str, &str), cand: (&str, &str)) -> ArgError {
    use vc_obs::diff::Side;
    let side_file = |s: Side| match s {
        Side::Baseline => base,
        Side::Candidate => cand,
    };
    match &err {
        vc_obs::DiffError::MissingManifest(side) => {
            let (path, _) = side_file(*side);
            ArgError::new(format!("{path}: line 1: {err}"))
        }
        vc_obs::DiffError::Manifest(side, _) => {
            let (path, text) = side_file(*side);
            ArgError::new(format!(
                "{path}: line {}: {err}",
                line_of(text, "\"manifest\"")
            ))
        }
        vc_obs::DiffError::Incomparable { field, .. } => {
            let (path, text) = cand;
            ArgError::new(format!(
                "{path}: line {}: {err}",
                manifest_field_line(text, field)
            ))
        }
    }
}

/// `affinity-vc diff` — align two recorded run documents, classify
/// every delta, and attribute the makespan delta to critical-path
/// categories and gating links.
pub fn diff(p: &Parsed, files: &[String]) -> Result<String, ArgError> {
    p.ensure_known(&["json", "fail-on-regress", "tolerance-pct", "top"])?;
    let opts = DiffOptions {
        tolerance_pct: p.num_or("tolerance-pct", 0.0f64)?,
        top: p.num_or("top", 5usize)?,
    };
    if opts.tolerance_pct < 0.0 {
        return Err(ArgError::new("--tolerance-pct must be non-negative"));
    }
    let [baseline_path, candidate_path] = files else {
        return Err(ArgError::new(
            "diff compares exactly two run documents: \
             `affinity-vc diff <baseline.json> <candidate.json>` (files written by \
             `simulate --metrics-out`); `affinity-vc compare` re-runs two configs \
             over paired seeds",
        ));
    };
    let (base_text, base_doc) = load_run_doc(baseline_path)?;
    let (cand_text, cand_doc) = load_run_doc(candidate_path)?;
    let report = vc_obs::diff(&base_doc, &cand_doc, &opts).map_err(|e| {
        locate_diff_error(e, (baseline_path, &base_text), (candidate_path, &cand_text))
    })?;
    let warnings = vc_obs::diff::comparability_warnings(&report.baseline, &report.candidate);

    let gate = p.switch("fail-on-regress");
    if gate && report.regressed() > 0 {
        let names = report.regressed_names();
        return Err(ArgError::new(format!(
            "diff gate: FAIL — {} regression(s): {}",
            names.len(),
            names.join(", ")
        )));
    }
    if p.switch("json") {
        let serde_json::Value::Object(mut entries) = report.to_json() else {
            return Err(ArgError::new("internal: diff report is not an object"));
        };
        entries.push((
            "warnings".to_string(),
            serde_json::Value::Array(
                warnings
                    .iter()
                    .cloned()
                    .map(serde_json::Value::Str)
                    .collect(),
            ),
        ));
        if gate {
            entries.push((
                "gate".to_string(),
                serde_json::Value::Str("pass".to_string()),
            ));
        }
        return Ok(serde_json::Value::Object(entries).to_string());
    }
    let mut out = render_diff(&report, &warnings);
    if gate {
        out.push_str("diff gate: PASS — no regressions\n");
    }
    Ok(out)
}

/// The human-readable diff table plus the ranked explanation section.
fn render_diff(report: &DiffReport, warnings: &[String]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "diff — baseline `{}` seed {} vs candidate `{}` seed {}\n",
        report.baseline.policy,
        report.baseline.seed,
        report.candidate.policy,
        report.candidate.seed,
    ));
    for w in warnings {
        out.push_str(&format!("  warning: {w}\n"));
    }
    out.push_str(&format!(
        "  compared {} metric(s): {} changed, {} improved, {} regressed\n",
        report.compared,
        report.changed(),
        report.improved(),
        report.regressed(),
    ));
    let scalar_rows: Vec<&vc_obs::diff::Delta> = report
        .counters
        .iter()
        .chain(&report.gauges)
        .chain(&report.histograms)
        .chain(&report.alerts)
        .chain(&report.makespan)
        .collect();
    if !scalar_rows.is_empty() || !report.series.is_empty() || !report.links.is_empty() {
        out.push_str(&format!(
            "\n  {:<38} {:>15} {:>15}  verdict\n",
            "metric", "baseline", "candidate"
        ));
    }
    for d in &scalar_rows {
        out.push_str(&format!(
            "  {:<38} {:>15} {:>15}  {}{}\n",
            d.name,
            report::fmt_ts_val(d.baseline),
            report::fmt_ts_val(d.candidate),
            d.verdict.label(),
            if d.advisory { " (advisory)" } else { "" },
        ));
    }
    for s in &report.series {
        out.push_str(&format!(
            "  {:<38} {:>15} {:>15}  {} (mean, {}/{} window(s) changed)\n",
            s.name,
            report::fmt_ts_val(s.mean_baseline),
            report::fmt_ts_val(s.mean_candidate),
            s.verdict.label(),
            s.changed_windows,
            s.windows,
        ));
    }
    for l in &report.links {
        out.push_str(&format!(
            "  {:<38} {:>15} {:>15}  {} (bytes)\n",
            format!("net.link.{}", l.link),
            l.bytes_baseline,
            l.bytes_candidate,
            l.verdict.label(),
        ));
    }
    let expl = report.explanation();
    out.push_str(&format!(
        "\nexplanation — makespan delta {:+.3}s\n",
        expl.makespan_delta_us as f64 / 1e6
    ));
    if expl.top_categories.is_empty() && expl.top_links.is_empty() && expl.top_gating.is_empty() {
        out.push_str("  nothing moved; the runs are attribution-identical\n");
    }
    for c in &expl.top_categories {
        out.push_str(&format!(
            "  category {:<26} {:+.3}s\n",
            c.category,
            c.delta_us() as f64 / 1e6
        ));
    }
    for l in &expl.top_links {
        out.push_str(&format!(
            "  link     {:<26} {:+} B (peak util {:.2} -> {:.2})\n",
            l.link,
            l.bytes_delta(),
            l.peak_util_baseline,
            l.peak_util_candidate,
        ));
    }
    for g in &expl.top_gating {
        out.push_str(&format!(
            "  gating   {:<26} {} -> {} job(s)\n",
            g.name, g.baseline, g.candidate
        ));
    }
    for a in &expl.top_alerts {
        out.push_str(&format!(
            "  alert    {:<26} {} -> {}\n",
            a.name,
            report::fmt_ts_val(a.baseline),
            report::fmt_ts_val(a.candidate)
        ));
    }
    out
}

/// The paired summary's warnings and its per-metric table.
fn render_paired(report: &vc_obs::diff::PairedReport) -> String {
    let mut out = String::new();
    for w in &report.warnings {
        out.push_str(&format!("  warning: {w}\n"));
    }
    out.push_str(&format!(
        "\n  {:<30} {:>12} {:>7} {:>7} {:>5}\n",
        "metric", "median(B/A)", "B-wins", "A-wins", "ties"
    ));
    for r in &report.rows {
        let m = r
            .median_ratio
            .map_or_else(|| "-".to_string(), |m| format!("{m:.3}"));
        out.push_str(&format!(
            "  {:<30} {:>12} {:>7} {:>7} {:>5}\n",
            r.name, m, r.b_wins, r.a_wins, r.ties
        ));
    }
    out
}

/// `affinity-vc compare` — paired multi-seed A/B: re-run `--config-a`
/// and `--config-b` in-process over `--seeds` common seeds and report,
/// per metric, the median B/A ratio plus sign-test-style win counts
/// ([`vc_obs::diff::paired`]).
pub fn compare(p: &Parsed) -> Result<String, ArgError> {
    p.ensure_known(&["config-a", "config-b", "seeds", "seed", "json"])?;
    let seeds = p.num_or("seeds", 5usize)?;
    if seeds == 0 {
        return Err(ArgError::new("--seeds must be positive"));
    }
    let config_a = p.required("config-a")?;
    let config_b = p.required("config-b")?;
    let base_seed = p.num_or("seed", 0u64)?;
    let parse_config = |label: &str, s: &str| -> Result<Parsed, ArgError> {
        let args: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        let parsed = Parsed::parse(&args).map_err(|e| ArgError::new(format!("--{label}: {e}")))?;
        for banned in [
            "seed",
            "trace-out",
            "metrics-out",
            "prom-out",
            "series-out",
            "stream-out",
            "save-trace",
        ] {
            if !parsed.str_or(banned, "").is_empty() {
                return Err(ArgError::new(format!(
                    "--{label}: paired mode drives seeds and captures runs in-process; \
                     drop --{banned} from the config string"
                )));
            }
        }
        Ok(parsed)
    };
    let pa = parse_config("config-a", config_a)?;
    let pb = parse_config("config-b", config_b)?;

    let mut pairs: Vec<(serde_json::Value, serde_json::Value)> = Vec::new();
    for i in 0..seeds as u64 {
        let seed = base_seed + i;
        let (_, doc_a) = simulate_impl(&pa, Some(seed), true)?;
        let (_, doc_b) = simulate_impl(&pb, Some(seed), true)?;
        let (Some(a), Some(b)) = (doc_a, doc_b) else {
            return Err(ArgError::new("internal: paired run produced no document"));
        };
        pairs.push((a, b));
    }
    let report = vc_obs::diff::paired(&pairs)
        .map_err(|e| ArgError::new(format!("paired configs are not comparable: {e}")))?;

    if p.switch("json") {
        let mut doc = serde_json::json!({
            "seeds": seeds,
            "seed_start": base_seed,
            "config_a": config_a,
            "config_b": config_b,
        });
        if let (serde_json::Value::Object(head), serde_json::Value::Object(summary)) =
            (&mut doc, report.to_json())
        {
            head.extend(summary);
        }
        return Ok(doc.to_string());
    }
    let mut out = format!(
        "paired diff — {seeds} seed(s) starting at {base_seed}\n  A: `{config_a}`\n  B: `{config_b}`\n"
    );
    out.push_str(&render_paired(&report));
    Ok(out)
}

/// `affinity-vc report` — analyse a trace written by `--trace-out` (or
/// a stream written by `--stream-out`): per-job critical-path
/// attribution (where did the makespan go), the placement decision
/// audit (seed-scan work, bound gaps, Theorem-2 exchanges), and
/// optionally the headline placement counters from a `--metrics-out`
/// snapshot. The sections themselves live in [`vc_obs::report`].
pub fn report(p: &Parsed) -> Result<String, ArgError> {
    p.ensure_known(&[
        "trace",
        "stream",
        "metrics",
        "json",
        "network",
        "perf",
        "timeline",
        "series-out",
        "health",
        "fail-on-alert",
    ])?;
    // Parsed up front so a bad severity name fails before any file I/O.
    let fail_on = match p.str_or("fail-on-alert", "") {
        "" => None,
        s => Some(Severity::parse(s).ok_or_else(|| {
            ArgError::new(format!(
                "--fail-on-alert {s}: expected info, warn or critical"
            ))
        })?),
    };
    let read = |flag: &str, path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| ArgError::new(format!("--{flag} {path}: I/O error: {e}")))
    };
    let metrics: Option<serde_json::Value> = match p.str_or("metrics", "") {
        "" => None,
        path => {
            let doc: serde_json::Value = serde_json::from_str(&read("metrics", path)?)
                .map_err(|e| ArgError::new(format!("--metrics {path}: {e}")))?;
            if doc
                .get("counters")
                .and_then(serde_json::Value::as_object)
                .is_none()
            {
                return Err(ArgError::new(format!(
                    "--metrics {path}: not a metrics snapshot (no `counters` object); \
                     pass a JSON file written by --metrics-out"
                )));
            }
            Some(doc)
        }
    };

    // `--perf` only needs a metrics snapshot, so the trace input becomes
    // optional when it is the sole request; every other mode requires
    // either --trace (a Chrome document) or --stream (a JSONL file from
    // --stream-out).
    let trace_path = p.str_or("trace", "");
    let stream_path = p.str_or("stream", "");
    let dump: Option<TraceDump> = match (trace_path, stream_path) {
        ("", "") => {
            if !(p.switch("perf") && metrics.is_some()) {
                return Err(ArgError::new(
                    "missing required option --trace <FILE> (a file written by --trace-out) \
                     or --stream <FILE> (a JSONL file written by --stream-out); \
                     only `report --perf --metrics <FILE>` works without one",
                ));
            }
            None
        }
        (path, "") => {
            let doc: serde_json::Value = serde_json::from_str(&read("trace", path)?)
                .map_err(|e| ArgError::new(format!("--trace {path}: {e}")))?;
            Some(
                TraceDump::from_chrome_value(&doc)
                    .map_err(|e| ArgError::new(format!("--trace {path}: {e}")))?,
            )
        }
        ("", path) => Some(replay_file("stream", path)?),
        _ => {
            return Err(ArgError::new(
                "--trace and --stream both name a trace input; pass exactly one",
            ))
        }
    };
    let needs_trace = |flag: &str| {
        dump.as_ref().ok_or_else(|| {
            ArgError::new(format!("{flag} needs a trace input (--trace or --stream)"))
        })
    };
    let needs_metrics = |flag: &str| {
        metrics.as_ref().ok_or_else(|| {
            ArgError::new(format!(
                "{flag} needs --metrics <FILE> (a snapshot written by --metrics-out)"
            ))
        })
    };

    // `--timeline` renders the windowed `ts.*` series; `--series-out`
    // re-exports them (CSV/JSONL by extension) from either input kind.
    let series_out = p.str_or("series-out", "");
    let timeline = if p.switch("timeline") || !series_out.is_empty() {
        let set = TimeSeriesSet::from_counter_series(&needs_trace("--timeline")?.counter_series);
        if !series_out.is_empty() {
            write_series(&set, series_out)?;
        }
        Some(set)
    } else {
        None
    };

    let empty = TraceDump::default();
    let trace = dump.as_ref().unwrap_or(&empty);
    let jobs = vc_obs::analyze(trace);
    let mut sections = vec![
        ("jobs", report::critical_path(&jobs)),
        ("placement", report::placement(trace)),
        ("metrics", report::metrics_counters(metrics.as_ref())),
    ];
    if p.switch("network") {
        sections.push(("network", report::network(needs_metrics("--network")?)));
    }
    if p.switch("perf") {
        sections.push(("perf", report::perf(needs_metrics("--perf")?)));
    }
    if let Some(set) = &timeline {
        sections.push(("timeline", report::timeline(set)));
    }
    // `--health` summarises the watchdog's `alert.*` events (plus the
    // offline attribution-tiling audit over the analysed jobs);
    // `--fail-on-alert <severity>` implies it and gates the exit code.
    if p.switch("health") || fail_on.is_some() {
        let health =
            report::health(needs_trace("--health")?, &jobs, fail_on).map_err(ArgError::new)?;
        sections.push(("health", health));
    }
    Ok(report::render(sections, p.switch("json")))
}

/// `affinity-vc derive-distance`
pub fn derive_distance(p: &Parsed) -> Result<String, ArgError> {
    p.ensure_known(&["racks", "nodes", "unit-us", "json"])?;
    let racks = p.num_or("racks", 3usize)?;
    let nodes = p.num_or("nodes", 10usize)?;
    let unit = p.num_or("unit-us", 100u64)?;
    if racks == 0 || nodes == 0 || unit == 0 {
        return Err(ArgError::new(
            "--racks, --nodes and --unit-us must be positive",
        ));
    }
    let tiers =
        vc_netsim::measure::derive_tiers(&NetworkParams::default(), SimTime::from_micros(unit));
    let topo = &generate::uniform(racks, nodes, tiers);
    let row = |a: NodeId| topo.node_ids().map(move |b| topo.distance(a, b));
    if p.switch("json") {
        let rows: Vec<Vec<u32>> = topo.node_ids().map(|a| row(a).collect()).collect();
        return Ok(serde_json::json!({ "unit_us": unit, "matrix": rows }).to_string());
    }
    let mut out = format!(
        "distance matrix from measured latency ({} nodes, unit {unit}µs):\n",
        topo.num_nodes()
    );
    for a in topo.node_ids() {
        let row: Vec<String> = row(a).map(|d| d.to_string()).collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    Ok(out)
}
