//! The cluster-distance metric `DC(C)` (paper Definition 1).
//!
//! For an allocation matrix `C` and distance matrix `D`:
//!
//! ```text
//! DC(C) = min_k Σ_i (Σ_j C_ij) · D_ik
//! ```
//!
//! i.e. the VM-count-weighted sum of distances from the best possible
//! *central node* `N_k`. MapReduce virtual clusters are master/slave
//! topologies, so the centre models the master placement and the weighted
//! sum approximates the all-to-master (and, by symmetry of the tiers, the
//! intra-cluster) traffic cost.

use vc_model::NodeTotals;
use vc_topology::{NodeId, Topology};

/// The weighted distance of allocation `matrix` (dense or sparse)
/// measured from a *fixed* central node `center`:
/// `Σ_i (Σ_j C_ij) · D_{i,center}`. Costs one step per occupied node.
///
/// # Panics
/// Panics if matrix and topology node counts disagree, or if `center` is
/// out of range.
pub fn distance_with_center(matrix: &impl NodeTotals, topo: &Topology, center: NodeId) -> u64 {
    assert_eq!(
        matrix.num_nodes(),
        topo.num_nodes(),
        "allocation and topology node counts disagree"
    );
    assert!(center.index() < topo.num_nodes(), "centre out of range");
    matrix
        .node_totals()
        .map(|(i, total)| u64::from(total) * u64::from(topo.distance(center, i)))
        .sum()
}

/// The cluster distance `DC(C)`: minimum over all candidate centres, with
/// the minimising centre (smallest node id on ties).
///
/// ```
/// use vc_model::ResourceMatrix;
/// use vc_placement::distance::cluster_distance;
/// use vc_topology::{generate, DistanceTiers, NodeId};
///
/// // Two racks of two nodes; 2 VMs on N0, 1 on N1 (same rack), 1 on N2.
/// let topo = generate::uniform(2, 2, DistanceTiers::paper_experiment());
/// let c = ResourceMatrix::from_rows(&[vec![2], vec![1], vec![1], vec![0]]);
/// let (dc, center) = cluster_distance(&c, &topo);
/// assert_eq!((dc, center), (3, NodeId(0))); // 1·d1 + 1·d2 from N0
/// ```
///
/// Any node of the cloud may serve as centre; for a non-empty allocation
/// the optimum always lies on an occupied node anyway (moving the centre
/// onto a VM-hosting node can only shed its own weight), and for ties the
/// paper notes the choice "does not impact the algorithm".
///
/// # Panics
/// Panics if matrix and topology node counts disagree or the topology is
/// empty.
pub fn cluster_distance(matrix: &impl NodeTotals, topo: &Topology) -> (u64, NodeId) {
    assert!(topo.num_nodes() > 0, "empty topology");
    let mut best = (u64::MAX, NodeId(0));
    for k in topo.node_ids() {
        let d = distance_with_center(matrix, topo, k);
        if d < best.0 {
            best = (d, k);
        }
    }
    best
}

/// The distance of the allocation from **every** candidate centre, indexed
/// by node id (the data behind the paper's Fig. 4).
pub fn distance_profile(matrix: &impl NodeTotals, topo: &Topology) -> Vec<u64> {
    topo.node_ids()
        .map(|k| distance_with_center(matrix, topo, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_model::ResourceMatrix;
    use vc_topology::{generate, DistanceTiers};

    /// Fig. 1 of the paper: two racks; nodes 0–1 in rack 0, nodes 2–4 in
    /// rack 1. Request: 2·V1 + 4·V2 + 1·V3.
    fn fig1_topology() -> Topology {
        generate::heterogeneous(&[2, 3], DistanceTiers::paper_experiment())
    }

    #[test]
    fn worked_example_fig1() {
        let topo = fig1_topology();
        let d1 = u64::from(DistanceTiers::paper_experiment().same_rack);
        let d2 = u64::from(DistanceTiers::paper_experiment().cross_rack);

        // DC1: N0 = (2,2,0), N1 = (0,2,0), N2 = (0,0,1); centre N0 -> 2d1 + d2.
        let c1 = ResourceMatrix::from_rows(&[
            vec![2, 2, 0],
            vec![0, 2, 0],
            vec![0, 0, 1],
            vec![0, 0, 0],
            vec![0, 0, 0],
        ]);
        let (dc1, k1) = cluster_distance(&c1, &topo);
        assert_eq!(dc1, 2 * d1 + d2);
        assert_eq!(k1, NodeId(0));

        // DC3-style: everything split across two racks from the centre's
        // perspective: N0 = (2,2,1) with 2 VMs at N3 and 1 at N4 (cross rack).
        let c3 = ResourceMatrix::from_rows(&[
            vec![2, 2, 0],
            vec![0, 0, 0],
            vec![0, 0, 0],
            vec![0, 2, 0],
            vec![0, 0, 1],
        ]);
        let (dc3, _) = cluster_distance(&c3, &topo);
        // centre N0: 2 VMs at d2 + 1 VM at d2 = 3·d2? weights: N3 hosts 2, N4 hosts 1
        assert_eq!(dc3, 2 * d2 + d2);
    }

    #[test]
    fn all_on_one_node_distance_zero() {
        let topo = fig1_topology();
        let c = ResourceMatrix::from_rows(&[
            vec![5, 5, 5],
            vec![0, 0, 0],
            vec![0, 0, 0],
            vec![0, 0, 0],
            vec![0, 0, 0],
        ]);
        let (d, k) = cluster_distance(&c, &topo);
        assert_eq!(d, 0);
        assert_eq!(k, NodeId(0));
    }

    #[test]
    fn empty_allocation_distance_zero() {
        let topo = fig1_topology();
        let c = ResourceMatrix::zeros(5, 3);
        let (d, k) = cluster_distance(&c, &topo);
        assert_eq!(d, 0);
        assert_eq!(k, NodeId(0)); // smallest id wins ties
    }

    #[test]
    fn profile_matches_fixed_center() {
        let topo = fig1_topology();
        let c = ResourceMatrix::from_rows(&[
            vec![1, 0, 0],
            vec![1, 0, 0],
            vec![0, 0, 0],
            vec![1, 0, 0],
            vec![0, 0, 0],
        ]);
        let profile = distance_profile(&c, &topo);
        assert_eq!(profile.len(), 5);
        for (k, &d) in profile.iter().enumerate() {
            assert_eq!(d, distance_with_center(&c, &topo, NodeId::from_index(k)));
        }
        // centre inside rack 0 sees 1·d1 + 1·d2 = 3; centre N3 sees 2·d2 = 4 ... wait:
        // from N0: N1 at d1=1, N3 at d2=2 -> 3. From N3: N0,N1 at 2 each -> 4.
        assert_eq!(profile[0], 3);
        assert_eq!(profile[3], 4);
        let (best, k) = cluster_distance(&c, &topo);
        assert_eq!(best, *profile.iter().min().unwrap());
        assert_eq!(k, NodeId(0));
    }

    #[test]
    fn weight_scales_distance() {
        let topo = fig1_topology();
        let mut c = ResourceMatrix::zeros(5, 3);
        c.set(NodeId(0), vc_model::VmTypeId(0), 1);
        c.set(NodeId(3), vc_model::VmTypeId(0), 3);
        // centre N3: 1 VM at distance 2 -> 2. Centre N0: 3 VMs at 2 -> 6.
        assert_eq!(distance_with_center(&c, &topo, NodeId(3)), 2);
        assert_eq!(distance_with_center(&c, &topo, NodeId(0)), 6);
        let (d, k) = cluster_distance(&c, &topo);
        assert_eq!((d, k), (2, NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "node counts disagree")]
    fn mismatched_dimensions_panic() {
        let topo = fig1_topology();
        let c = ResourceMatrix::zeros(3, 3);
        let _ = distance_with_center(&c, &topo, NodeId(0));
    }
}
