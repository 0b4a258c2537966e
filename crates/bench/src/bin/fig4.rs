//! Regenerates **Fig. 4**: the distance of one fixed allocation as a
//! function of which node is designated the centre — the master-placement
//! sensitivity of master/slave MapReduce topologies.

use vc_bench::scenarios::{self, FIG_SEED};
use vc_model::workload::RequestProfile;
use vc_placement::distance::{cluster_distance, distance_profile};
use vc_placement::online;

fn main() {
    let state = scenarios::paper_cloud(FIG_SEED);
    // One mid-sized request; its allocation is then evaluated at every centre.
    let request = scenarios::paper_requests(FIG_SEED, RequestProfile::standard(), 8)
        .into_iter()
        .max_by_key(vc_model::Request::total_vms)
        .expect("non-empty batch");
    let alloc = online::place(&request, &state).expect("satisfiable");
    let profile = distance_profile(alloc.matrix(), state.topology());
    let (best_d, best_k) = cluster_distance(alloc.matrix(), state.topology());

    let rows: Vec<Vec<String>> = profile
        .iter()
        .enumerate()
        .map(|(k, &d)| {
            let hosts = alloc.matrix().node_total(vc_topology::NodeId(k as u32));
            vec![
                format!("N{k}"),
                d.to_string(),
                hosts.to_string(),
                if vc_topology::NodeId(k as u32) == best_k {
                    "<- optimal".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    vc_bench::table::print(
        &format!("Fig. 4 — distance vs centre choice for R = {request}"),
        &["centre", "distance", "VMs hosted", ""],
        &rows,
    );
    vc_bench::print_line(&format!(
        "\noptimal centre {best_k} gives distance {best_d}; worst centre gives {}",
        profile.iter().max().unwrap()
    ));
    vc_bench::emit_json(
        "fig4",
        &serde_json::json!({ "profile": profile, "optimal_center": best_k.0, "optimal_distance": best_d }),
    );
}
