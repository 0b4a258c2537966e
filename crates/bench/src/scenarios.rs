//! Canonical experiment scenarios shared by figure binaries, benches, and
//! integration tests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vc_mapreduce::VirtualCluster;
use vc_model::workload::{self, RequestProfile};
use vc_model::{ClusterState, Request, VmCatalog};
use vc_topology::{generate, DistanceTiers, NodeId, Topology};

/// Default seed for every figure: fixed so published numbers regenerate.
pub const FIG_SEED: u64 = 2012;

/// The paper's simulated cloud (§V-A): 3 racks × 10 nodes, Table-I VM
/// types, random capacities of up to 3 instances per `(node, type)` cell.
pub fn paper_cloud(seed: u64) -> ClusterState {
    let mut rng = StdRng::seed_from_u64(seed);
    workload::paper_simulation_cloud(3, &mut rng)
}

/// The paper's twenty random requests under the given profile.
pub fn paper_requests(seed: u64, profile: RequestProfile, count: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    profile.sample_many(3, count, &mut rng)
}

/// A virtual cluster of `total` single-slot VMs on the paper topology with
/// a prescribed affinity distance, built from `(on_master, same_rack,
/// cross_rack)` VM counts: `distance = same_rack·d1 + cross_rack·d2`
/// (with the paper's `d1 = 1`, `d2 = 2`).
///
/// # Panics
/// Panics if the counts exceed the topology (10 nodes/rack — same-rack VMs
/// beyond 9 nodes stack on the same nodes, which is allowed).
fn cluster_with_spread(
    topo: Arc<Topology>,
    on_master: usize,
    same_rack: usize,
    cross_rack: usize,
) -> VirtualCluster {
    let master = NodeId(0);
    let mut nodes: Vec<NodeId> = Vec::new();
    for _ in 0..on_master {
        nodes.push(master);
    }
    // Same-rack VMs on nodes 1..9, cycling.
    for i in 0..same_rack {
        nodes.push(NodeId(1 + (i % 9) as u32));
    }
    // Cross-rack VMs on racks 1 and 2 (nodes 10..29), cycling.
    for i in 0..cross_rack {
        nodes.push(NodeId(10 + (i % 20) as u32));
    }
    VirtualCluster::homogeneous(&nodes, nodes.len(), topo)
}

/// The four equal-capability virtual clusters of Figs. 7–8, ordered by
/// increasing distance. Each has 12 identical VMs; only the placement
/// differs, giving affinity distances 10, 14, 16, and 20 (the paper's
/// testbed drew 10–22 depending on MyHadoop's random topology).
pub fn fig7_clusters() -> Vec<(&'static str, VirtualCluster)> {
    let topo = Arc::new(generate::paper_simulation());
    vec![
        (
            "compact(d=10)",
            cluster_with_spread(Arc::clone(&topo), 2, 10, 0),
        ),
        (
            "mixed(d=14)",
            cluster_with_spread(Arc::clone(&topo), 2, 6, 4),
        ),
        (
            "loose(d=16)",
            cluster_with_spread(Arc::clone(&topo), 2, 4, 6),
        ),
        ("spread(d=20)", cluster_with_spread(topo, 2, 0, 10)),
    ]
}

/// The Table II example inventory: racks R1–R2, nodes N1–N3, VM counts as
/// printed in the paper.
pub fn table2_state() -> ClusterState {
    let topo = Arc::new(generate::heterogeneous(
        &[2, 1],
        DistanceTiers::paper_experiment(),
    ));
    let catalog = Arc::new(VmCatalog::ec2_table1());
    let capacity = vc_model::ResourceMatrix::from_rows(&[
        vec![2, 3, 0], // N1: 2×V1 + 3×V2 (paper lists per-row entries)
        vec![3, 0, 0], // N2: 3×V1
        vec![0, 2, 0], // N3: 2×V2
    ]);
    ClusterState::new(topo, catalog, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cloud_deterministic() {
        let a = paper_cloud(1);
        let b = paper_cloud(1);
        assert_eq!(a.capacity(), b.capacity());
        assert_eq!(a.num_nodes(), 30);
    }

    #[test]
    fn fig7_distances_ascend_as_labelled() {
        let clusters = fig7_clusters();
        let distances: Vec<u64> = clusters
            .iter()
            .map(|(_, c)| c.affinity_distance())
            .collect();
        assert_eq!(distances, vec![10, 14, 16, 20]);
        // equal capability: same VM count everywhere
        for (_, c) in &clusters {
            assert_eq!(c.len(), 12);
        }
    }

    #[test]
    fn requests_deterministic() {
        let a = paper_requests(5, RequestProfile::standard(), 20);
        let b = paper_requests(5, RequestProfile::standard(), 20);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn table2_shape() {
        let s = table2_state();
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.availability().counts(), &[5, 5, 0]);
    }
}
