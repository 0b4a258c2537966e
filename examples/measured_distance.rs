//! Close the "distance = latency" loop (the paper's own definition, left
//! static in §II): quantise the network's latencies into distance tiers,
//! build a topology from them, and place a request — then watch a degraded
//! aggregation layer change the placement calculus.
//!
//! ```sh
//! cargo run --example measured_distance
//! ```

use affinity_vc::netsim::measure::derive_tiers;
use affinity_vc::placement::{exact, online};
use affinity_vc::prelude::*;
use std::sync::Arc;

fn topology_from_measurement(params: &NetworkParams) -> Topology {
    let measured = derive_tiers(params, SimTime::from_micros(100));

    // Physical layout: 2 racks × 4 nodes, carrying the *measured* tiers.
    let mut b = TopologyBuilder::new(measured);
    let cloud = b.add_cloud("measured");
    for r in 0..2 {
        let rack = b.add_named_rack(cloud, format!("rack{r}"));
        for _ in 0..4 {
            b.add_node(rack);
        }
    }
    b.build()
}

fn main() {
    let request = Request::from_counts(vec![6, 0, 0]);
    let catalog = Arc::new(VmCatalog::ec2_table1());

    for (label, params) in [
        ("healthy network", NetworkParams::default()),
        (
            "degraded aggregation (cross-rack latency 5x)",
            NetworkParams {
                cross_rack_latency_us: 1_500,
                ..NetworkParams::default()
            },
        ),
    ] {
        let topo = Arc::new(topology_from_measurement(&params));
        println!(
            "{label}: measured cross-rack distance = {}",
            topo.distance(NodeId(0), NodeId(4))
        );
        let cloud = ClusterState::uniform_capacity(Arc::clone(&topo), Arc::clone(&catalog), 1);
        let alloc = online::place(&request, &cloud).expect("fits");
        let optimal = exact::solve(&request, &cloud).expect("fits");
        let d = affinity_vc::placement::distance::distance_with_center(
            alloc.matrix(),
            &topo,
            alloc.center(),
        );
        let d_opt = affinity_vc::placement::distance::distance_with_center(
            optimal.matrix(),
            &topo,
            optimal.center(),
        );
        println!(
            "  placed 6 VMs: distance {d} (optimal {d_opt}), racks used: {}\n",
            alloc.rack_span(&topo)
        );
    }
    println!("Re-probing after degradation raises cross-rack cost; placements stay compact.");
}
