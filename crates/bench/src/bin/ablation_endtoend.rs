//! The headline end-to-end experiment: close the paper's loop. Tenants
//! request virtual clusters, the provider places them (affinity-aware or
//! not), each tenant runs a real (simulated) shuffle-heavy MapReduce job
//! on exactly the VMs it got, and holds them until the job finishes.
//! Affinity now feeds back into the queue: tight clusters finish sooner,
//! release capacity earlier, and shrink everyone's waiting.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_bench::{attribution, scenarios};
use vc_cloudsim::sim::{run_recorded, PolicyMode, ServiceModel, SimConfig};
use vc_cloudsim::{ArrivalProcess, ServiceTime};
use vc_des::SimTime;
use vc_mapreduce::engine::SimParams;
use vc_mapreduce::{JobConfig, Workload};
use vc_model::workload::RequestProfile;
use vc_obs::MemRecorder;
use vc_placement::baselines::Spread;
use vc_placement::global::Admission;
use vc_placement::online::{OnlineHeuristic, ScanConfig};

fn main() {
    let state = scenarios::paper_cloud(17);
    let process = ArrivalProcess {
        rate_per_s: 0.2,
        profile: RequestProfile::standard(),
        service: ServiceTime::Fixed(SimTime::from_secs(1)), // superseded by the job model
    };
    let trace = process.generate(20, 3, &mut StdRng::seed_from_u64(17));
    let service = || ServiceModel::MapReduce {
        job: JobConfig {
            workload: Workload::terasort(),
            input_mb: 16.0 * 64.0,
            split_mb: 64.0,
            num_reducers: 2,
            replication: 2,
        },
        params: SimParams::default(),
    };

    let modes: Vec<(&str, PolicyMode)> = vec![
        (
            "Algorithm 1 (online)",
            PolicyMode::Individual(Box::new(OnlineHeuristic)),
        ),
        (
            "Algorithm 2 (global batch)",
            PolicyMode::GlobalBatch(Admission::FifoBlocking, ScanConfig::default()),
        ),
        ("spread baseline", PolicyMode::Individual(Box::new(Spread))),
    ];

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (name, mode) in modes {
        let rec = MemRecorder::new();
        let result = run_recorded(
            &state,
            SimConfig::new(trace.clone(), mode, 17).with_service(service()),
            &rec,
        );
        let dump = rec.into_dump();
        // Makespan-weighted critical-path split across every tenant job.
        let attr = attribution::aggregate_cell(&vc_obs::analyze(&dump));
        // Link telemetry across all tenants: exact bytes through rack
        // uplinks (counters sum over jobs) and the worst instantaneous
        // uplink utilization any tenant saw (gauge_max over jobs).
        let snap = &dump.metrics;
        let uplink_bytes: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("net.link.rack") && k.ends_with(".up.bytes"))
            .map(|(_, &v)| v)
            .sum();
        let peak_uplink: f64 = snap
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("net.link.rack") && k.ends_with(".up.peak_util"))
            .map(|(_, &v)| v)
            .fold(0.0, f64::max);
        let total_job_s: f64 = result
            .outcomes
            .iter()
            .filter_map(|o| o.job_runtime)
            .map(|t| t.as_secs_f64())
            .sum();
        let makespan = result
            .outcomes
            .iter()
            .filter_map(|o| o.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        series.push((
            name,
            result.served,
            result.total_distance,
            total_job_s,
            makespan.as_secs_f64(),
            result.mean_wait.as_secs_f64(),
            attr.clone(),
            (uplink_bytes, peak_uplink),
        ));
        rows.push(vec![
            name.to_string(),
            result.served.to_string(),
            result.total_distance.to_string(),
            format!("{total_job_s:.0}"),
            format!("{:.0}", makespan.as_secs_f64()),
            format!("{:.1}", result.mean_wait.as_secs_f64()),
            attr,
            format!("{:.0}", uplink_bytes as f64 / 1e6),
            format!("{peak_uplink:.2}"),
        ]);
    }
    vc_bench::table::print(
        "End-to-end — 20 tenants each running TeraSort on their placed cluster",
        &[
            "policy",
            "served",
            "Σ distance",
            "Σ job time (s)",
            "makespan (s)",
            "mean wait (s)",
            "crit-path m/s/r/w",
            "x-rack MB",
            "peak uplink",
        ],
        &rows,
    );
    vc_bench::emit_json(
        "ablation_endtoend",
        &serde_json::json!({ "series": series }),
    );
}
