//! Regenerates **Fig. 2**: per-request cluster distance with the
//! heuristic's central node vs. the *same* cluster with a randomly chosen
//! central node — showing that centre selection alone matters.
//!
//! Setup follows §V-A: 3 racks × 10 nodes, random instance capacities,
//! twenty random requests served sequentially by Algorithm 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_bench::scenarios::{self, FIG_SEED};
use vc_model::workload::RequestProfile;
use vc_placement::baselines::random_center;
use vc_placement::distance::distance_with_center;
use vc_placement::online;

fn main() {
    let mut state = scenarios::paper_cloud(FIG_SEED);
    let requests = scenarios::paper_requests(FIG_SEED, RequestProfile::standard(), 20);
    let mut rng = StdRng::seed_from_u64(FIG_SEED);

    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut live: Vec<vc_model::Allocation> = Vec::new();
    let (mut total_h, mut total_r) = (0u64, 0u64);
    for (i, request) in requests.iter().enumerate() {
        // "The simulated requests will arrive and their job will finish
        // randomly" (§V-A): each arrival, ~half of the running clusters
        // complete and release their VMs.
        live.retain(|alloc| {
            if rng.gen_bool(0.5) {
                state.release(alloc).expect("release succeeds");
                false
            } else {
                true
            }
        });
        if !state.can_satisfy(request) {
            rows.push(vec![
                i.to_string(),
                request.to_string(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let alloc = online::place(request, &state).expect("satisfiable");
        state.allocate(&alloc).expect("valid allocation");
        live.push(alloc.clone());
        let topo = state.topology();
        let heuristic = distance_with_center(alloc.matrix(), topo, alloc.center());
        let rand_c = random_center(&alloc, &mut rng);
        let random = distance_with_center(alloc.matrix(), topo, rand_c);
        total_h += heuristic;
        total_r += random;
        series.push((i, heuristic, random));
        rows.push(vec![
            i.to_string(),
            request.to_string(),
            heuristic.to_string(),
            random.to_string(),
        ]);
    }
    vc_bench::table::print(
        "Fig. 2 — heuristic centre vs random centre (same clusters)",
        &[
            "request",
            "R",
            "heuristic distance",
            "random-centre distance",
        ],
        &rows,
    );
    vc_bench::print_line(&format!(
        "\ntotals: heuristic = {total_h}, random-centre = {total_r} ({:.1}% larger)",
        100.0 * (total_r as f64 - total_h as f64) / total_h.max(1) as f64
    ));
    vc_bench::emit_json(
        "fig2",
        &serde_json::json!({
            "series": series,
            "total_heuristic": total_h,
            "total_random_center": total_r,
        }),
    );
}
