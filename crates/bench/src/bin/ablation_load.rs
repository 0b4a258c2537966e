//! Ablation: behaviour under load. Sweeps the arrival rate and compares
//! the affinity-aware policy against the spread baseline on queueing
//! delay and cluster distance — checking the paper's claim that affinity
//! optimisation costs nothing in throughput ("cloud users can get a more
//! efficient platform with the same resource request and cost").

use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_bench::scenarios;
use vc_cloudsim::sim::{run, PolicyMode, SimConfig};
use vc_cloudsim::{ArrivalProcess, ServiceTime};
use vc_model::workload::RequestProfile;
use vc_placement::baselines::Spread;
use vc_placement::online::OnlineHeuristic;

fn main() {
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for rate in [0.2f64, 0.5, 1.0, 2.0, 4.0] {
        for aware in [true, false] {
            let state = scenarios::paper_cloud(11);
            let process = ArrivalProcess {
                rate_per_s: rate,
                profile: RequestProfile::standard(),
                service: ServiceTime::UniformMs(20_000, 60_000),
            };
            let trace = process.generate(100, 3, &mut StdRng::seed_from_u64(11));
            let mode: PolicyMode = if aware {
                PolicyMode::Individual(Box::new(OnlineHeuristic))
            } else {
                PolicyMode::Individual(Box::new(Spread))
            };
            let result = run(&state, SimConfig::new(trace, mode, 11));
            let mean_d = result.total_distance as f64 / result.served.max(1) as f64;
            series.push((
                rate,
                aware,
                result.served,
                result.mean_wait.as_secs_f64(),
                mean_d,
            ));
            rows.push(vec![
                format!("{rate}"),
                if aware { "online" } else { "spread" }.to_string(),
                result.served.to_string(),
                format!("{:.1}", result.mean_wait.as_secs_f64()),
                format!("{mean_d:.1}"),
            ]);
        }
    }
    vc_bench::table::print(
        "Ablation — load sweep (100 requests, 20-60s holds)",
        &[
            "arrivals/s",
            "policy",
            "served",
            "mean wait (s)",
            "mean distance",
        ],
        &rows,
    );
    vc_bench::emit_json("ablation_load", &serde_json::json!({ "series": series }));
}
