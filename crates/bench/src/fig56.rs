//! Shared implementation of Figs. 5 and 6: online heuristic vs. global
//! sub-optimisation over a twenty-request queue. The figures differ only
//! in the request-size profile (standard vs. "relatively small").

use crate::scenarios;
use vc_model::workload::RequestProfile;
use vc_placement::global::{self, Admission};

/// Run the comparison, print the figure table, and emit the JSON trailer.
/// Returns `(online_total, global_total)`.
pub fn run(label: &str, profile: RequestProfile, seed: u64) -> (u64, u64) {
    let state = scenarios::paper_cloud(seed);
    let queue = scenarios::paper_requests(seed, profile, 20);

    let placed = global::place_queue(&queue, &state, Admission::FifoBlocking)
        .expect("admitted batch placement cannot fail");

    let mut rows = Vec::new();
    let mut series = Vec::new();
    let topo = state.topology();
    for ((idx, alloc), &online_d) in placed.served.iter().zip(&placed.served_online_distances) {
        let optimized_d =
            vc_placement::distance::distance_with_center(alloc.matrix(), topo, alloc.center());
        series.push((idx, online_d, optimized_d));
        rows.push(vec![
            idx.to_string(),
            queue[*idx].to_string(),
            online_d.to_string(),
            optimized_d.to_string(),
        ]);
    }
    crate::table::print(
        &format!(
            "{label} — online heuristic vs global sub-optimisation (served {} of {})",
            placed.served.len(),
            queue.len()
        ),
        &["request", "R", "online distance", "global distance"],
        &rows,
    );
    let decrease = placed
        .online_distance
        .saturating_sub(placed.optimized_distance);
    let pct = 100.0 * decrease as f64 / placed.online_distance.max(1) as f64;
    crate::print_line(&format!(
        "\ntotals: online = {}, global = {} (decrease {:.1}%)",
        placed.online_distance, placed.optimized_distance, pct
    ));
    crate::emit_json(
        label,
        &serde_json::json!({
            "series": series,
            "online_total": placed.online_distance,
            "global_total": placed.optimized_distance,
            "decrease_pct": pct,
            "served": placed.served.len(),
            "deferred": placed.deferred.len(),
        }),
    );
    (placed.online_distance, placed.optimized_distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::FIG_SEED;

    #[test]
    fn global_never_worse_in_both_scenarios() {
        let (on, gl) = run("fig5-test", RequestProfile::standard(), FIG_SEED);
        assert!(gl <= on);
        let (on, gl) = run("fig6-test", RequestProfile::small(), FIG_SEED);
        assert!(gl <= on);
    }
}
