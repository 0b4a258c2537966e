//! Regenerates the **Fig. 1 worked example** (paper §III-A): four
//! candidate allocations for the request `2·V1 + 4·V2 + 1·V3` on a
//! two-rack cloud, with their cluster distances, plus what the exact
//! solver and Algorithm 1 actually pick.

use std::sync::Arc;
use vc_model::{ClusterState, Request, ResourceMatrix, VmCatalog};
use vc_placement::distance::cluster_distance;
use vc_placement::{exact, online};
use vc_topology::{generate, DistanceTiers};

fn main() {
    let tiers = DistanceTiers::paper_experiment();
    let (d1, d2) = (u64::from(tiers.same_rack), u64::from(tiers.cross_rack));
    // Rack 0: N1, N2 — rack 1: N3, N4 (0-indexed: 0,1 | 2,3).
    let topo = Arc::new(generate::heterogeneous(&[2, 2], tiers));
    let request = Request::from_counts(vec![2, 4, 1]);

    // The paper's four example allocations (rows = nodes, cols = V1..V3).
    let candidates: Vec<(&str, ResourceMatrix, String)> = vec![
        (
            "DC1",
            ResourceMatrix::from_rows(&[
                vec![2, 2, 0],
                vec![0, 2, 0],
                vec![0, 0, 1],
                vec![0, 0, 0],
            ]),
            format!("2·d1 + d2 = {}", 2 * d1 + d2),
        ),
        (
            "DC2",
            ResourceMatrix::from_rows(&[
                vec![0, 2, 0],
                vec![2, 2, 0],
                vec![0, 0, 1],
                vec![0, 0, 0],
            ]),
            format!("2·d1 + d2 = {}", 2 * d1 + d2),
        ),
        (
            "DC3",
            ResourceMatrix::from_rows(&[
                vec![2, 3, 0],
                vec![0, 0, 0],
                vec![0, 1, 1],
                vec![0, 0, 0],
            ]),
            format!("2·d2 = {}", 2 * d2),
        ),
        (
            "DC4",
            ResourceMatrix::from_rows(&[
                vec![2, 2, 0],
                vec![0, 1, 0],
                vec![0, 1, 1],
                vec![0, 0, 0],
            ]),
            format!("d1 + 2·d2 = {}", d1 + 2 * d2),
        ),
    ];

    let mut rows = Vec::new();
    for (name, matrix, formula) in &candidates {
        let (d, center) = cluster_distance(matrix, &topo);
        rows.push(vec![
            name.to_string(),
            formula.clone(),
            d.to_string(),
            center.to_string(),
        ]);
    }
    vc_bench::table::print(
        "Fig. 1 — candidate allocations for R = (2·V1, 4·V2, 1·V3)",
        &["allocation", "formula", "DC", "central node"],
        &rows,
    );

    // What the solvers choose, on a cloud whose capacities admit all four.
    let capacity =
        ResourceMatrix::from_rows(&[vec![2, 4, 0], vec![2, 2, 0], vec![1, 2, 1], vec![1, 1, 0]]);
    let state = ClusterState::new(topo, Arc::new(VmCatalog::ec2_table1()), capacity);
    let best = exact::solve(&request, &state).expect("request satisfiable");
    let heur = online::place(&request, &state).expect("request satisfiable");
    let (bd, _) = cluster_distance(best.matrix(), state.topology());
    let (hd, _) = cluster_distance(heur.matrix(), state.topology());
    vc_bench::print_line(&format!("\nexact SD(R) = {bd} (centre {})", best.center()));
    vc_bench::print_line(&format!("Algorithm 1  = {hd} (centre {})", heur.center()));
    vc_bench::emit_json(
        "fig1",
        &serde_json::json!({
            "candidates": rows,
            "exact_distance": bd,
            "heuristic_distance": hd,
        }),
    );
}
