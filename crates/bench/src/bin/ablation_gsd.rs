//! Ablation: how close Algorithm 2 gets to the *true* GSD optimum
//! (§III-C), on instances small enough to solve exactly. The paper never
//! measures this — it argues the optimum is impractical and stops at the
//! heuristic; here we quantify the gap it accepted.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vc_model::workload::RequestProfile;
use vc_model::{ClusterState, VmCatalog};
use vc_placement::global::{self, Admission};
use vc_placement::gsd;
use vc_topology::{generate, DistanceTiers};

fn main() {
    // Asymmetric racks (1 + 2 + 3 nodes), 2 VM types, ONE instance per
    // (node, type) cell: compact placements compete for the big rack, so
    // serving order matters. Batches of 3 requests: 6^3 = 216 centre
    // tuples per instance.
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let (mut sum_opt, mut sum_a2, mut sum_online) = (0u64, 0u64, 0u64);
    let mut exact_hits = 0u32;
    let instances = 40u64;
    for seed in 0..instances {
        let topo = Arc::new(generate::heterogeneous(
            &[1, 2, 3],
            DistanceTiers::paper_experiment(),
        ));
        let mut types = VmCatalog::ec2_table1().types().to_vec();
        types.truncate(2);
        let catalog = Arc::new(VmCatalog::new(types));
        let mut rng = StdRng::seed_from_u64(seed);
        let state = ClusterState::uniform_capacity(topo, catalog, 1);

        let profile = RequestProfile {
            min_per_type: 1,
            max_per_type: 2,
            type_presence_pct: 100,
        };
        let queue = profile.sample_many(2, 3, &mut rng);
        // Only evaluate batches the cloud can admit in full.
        let admitted = global::get_requests(&queue, &state, Admission::FifoBlocking).admitted;
        if admitted.len() != queue.len() {
            continue;
        }
        let Ok(optimum) = gsd::solve(&queue, &state) else {
            continue;
        };
        let heuristic = global::place_queue(&queue, &state, Admission::FifoBlocking)
            .expect("admitted batch placement succeeds");

        sum_opt += optimum.total_distance;
        sum_a2 += heuristic.optimized_distance;
        sum_online += heuristic.online_distance;
        if heuristic.optimized_distance == optimum.total_distance {
            exact_hits += 1;
        }
        series.push((
            seed,
            heuristic.online_distance,
            heuristic.optimized_distance,
            optimum.total_distance,
        ));
        rows.push(vec![
            seed.to_string(),
            heuristic.online_distance.to_string(),
            heuristic.optimized_distance.to_string(),
            optimum.total_distance.to_string(),
        ]);
    }
    vc_bench::table::print(
        "Ablation — Algorithm 2 vs the exact GSD optimum (3-request batches)",
        &["instance", "online Σ", "Algorithm 2 Σ", "GSD optimum Σ"],
        &rows,
    );
    vc_bench::print_line(&format!(
        "\naggregate: online {sum_online}, Algorithm 2 {sum_a2}, optimum {sum_opt} \
         ({exact_hits}/{} instances solved to optimality)",
        rows.len()
    ));
    vc_bench::emit_json(
        "ablation_gsd",
        &serde_json::json!({
            "series": series,
            "online_total": sum_online,
            "algorithm2_total": sum_a2,
            "gsd_total": sum_opt,
            "exact_hits": exact_hits,
            "instances": rows.len(),
        }),
    );
}
