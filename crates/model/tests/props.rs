//! Property tests: request algebra and resource-accounting invariants.

use proptest::prelude::*;
use std::sync::Arc;
use vc_model::{Allocation, ClusterState, Request, ResourceMatrix, VmCatalog, VmTypeId};
use vc_topology::{generate, DistanceTiers, NodeId, TopologyBuilder};

fn request(m: usize) -> impl Strategy<Value = Request> {
    proptest::collection::vec(0u32..8, m).prop_map(Request::from_counts)
}

proptest! {
    #[test]
    fn com_is_commutative_idempotent_monotone(a in request(4), b in request(4)) {
        prop_assert_eq!(a.com(&b), b.com(&a));
        prop_assert_eq!(a.com(&a), a.clone());
        let c = a.com(&b);
        prop_assert!(c.le(&a) && c.le(&b));
        // com is the greatest lower bound: anything below both is below com.
        prop_assert_eq!(c.com(&a), c.clone());
    }

    #[test]
    fn le_is_a_partial_order(a in request(3), b in request(3), c in request(3)) {
        prop_assert!(a.le(&a));
        if a.le(&b) && b.le(&a) {
            prop_assert_eq!(a.clone(), b.clone());
        }
        if a.le(&b) && b.le(&c) {
            prop_assert!(a.le(&c));
        }
    }

    #[test]
    fn add_sub_roundtrip(a in request(3), b in request(3)) {
        let mut x = a.clone();
        x.checked_add_assign(&b);
        prop_assert_eq!(x.total_vms(), a.total_vms() + b.total_vms());
        x.checked_sub_assign(&b);
        prop_assert_eq!(x, a);
    }

    #[test]
    fn matrix_column_sums_match_totals(rows in proptest::collection::vec(
        proptest::collection::vec(0u32..5, 3), 1..6)) {
        let m = ResourceMatrix::from_rows(&rows);
        let sums = m.column_sums();
        prop_assert_eq!(u64::from(sums.total_vms()), m.total());
        let node_total: u64 = (0..m.num_nodes())
            .map(|i| u64::from(m.node_total(NodeId::from_index(i))))
            .sum();
        prop_assert_eq!(node_total, m.total());
    }

    #[test]
    fn allocate_release_conserves_state(
        takes in proptest::collection::vec((0usize..6, 0usize..3, 1u32..3), 0..8)
    ) {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let mut s = ClusterState::uniform_capacity(topo, cat, 3);
        let initial_avail = s.availability();
        let mut matrix = ResourceMatrix::zeros(6, 3);
        for (node, ty, count) in takes {
            let (n, t) = (NodeId::from_index(node), VmTypeId::from_index(ty));
            if matrix.get(n, t) + count <= 3 {
                matrix.add(n, t, count);
            }
        }
        let alloc = Allocation::new(matrix.clone(), NodeId(0));
        s.allocate(&alloc).unwrap();
        prop_assert_eq!(s.used(), &matrix);
        let mut expected = initial_avail.clone();
        expected.checked_sub_assign(&matrix.column_sums());
        prop_assert_eq!(s.availability(), expected);
        s.release(&alloc).unwrap();
        prop_assert_eq!(s.availability(), initial_avail);
        prop_assert!(s.used().is_zero());
    }

    #[test]
    fn fail_node_never_underflows(
        node in 0usize..6,
        takes in proptest::collection::vec((0usize..6, 0usize..3), 0..6)
    ) {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let mut s = ClusterState::uniform_capacity(topo, cat, 2);
        let mut matrix = ResourceMatrix::zeros(6, 3);
        for (n, t) in takes {
            let (n, t) = (NodeId::from_index(n), VmTypeId::from_index(t));
            if matrix.get(n, t) < 2 {
                matrix.add(n, t, 1);
            }
        }
        s.allocate(&Allocation::new(matrix.clone(), NodeId(0))).unwrap();
        let failed = NodeId::from_index(node);
        let lost = s.fail_node(failed);
        prop_assert_eq!(lost.counts(), matrix.row(failed));
        prop_assert_eq!(s.remaining_at(failed).total_vms(), 0);
        // The rest of the cloud is untouched.
        for other in s.topology().node_ids().filter(|&n| n != failed) {
            prop_assert_eq!(s.used().row(other), matrix.row(other));
        }
    }

    #[test]
    fn allocation_placements_expand_counts(rows in proptest::collection::vec(
        proptest::collection::vec(0u32..4, 2), 1..5)) {
        let matrix = ResourceMatrix::from_rows(&rows);
        let total = matrix.total();
        let alloc = Allocation::new(matrix.clone(), NodeId(0));
        let placements = alloc.placements();
        prop_assert_eq!(placements.len() as u64, total);
        for (node, ty) in placements {
            prop_assert!(matrix.get(node, ty) > 0);
        }
    }

    #[test]
    fn index_distance_minima_match_brute_force(
        clouds in 1usize..4,
        rack_clouds in proptest::collection::vec(0usize..3, 1..7),
        node_racks in proptest::collection::vec(0usize..8, 1..16),
        (d1, d2, d3) in (1u32..5, 1u32..5, 1u32..5),
    ) {
        // Racks land in random clouds and nodes in random racks, so clouds
        // and racks are uneven, some racks are empty or hold one node, and
        // some clouds have one rack or none. The tiers are any triple,
        // collapsed or out of order.
        let tiers = DistanceTiers { same_rack: d1, cross_rack: d2, cross_cloud: d3 };
        let mut b = TopologyBuilder::new(tiers);
        let cloud_ids: Vec<_> = (0..clouds).map(|c| b.add_cloud(format!("c{c}"))).collect();
        let racks: Vec<_> = rack_clouds.iter().map(|&c| b.add_rack(cloud_ids[c % clouds])).collect();
        for &r in &node_racks {
            b.add_node(racks[r % racks.len()]);
        }
        let topo = Arc::new(b.build());
        let s = ClusterState::uniform_capacity(Arc::clone(&topo), Arc::new(VmCatalog::ec2_table1()), 1);
        // Reference: the n² minimum over every other node.
        for a in topo.node_ids() {
            let min = |same: bool| {
                topo.node_ids()
                    .filter(|&x| x != a && topo.same_rack(a, x) == same)
                    .map(|x| topo.distance(a, x))
                    .min()
            };
            prop_assert_eq!(s.index().min_same_rack_distance(a), min(true));
            prop_assert_eq!(s.index().min_cross_rack_distance(a), min(false));
        }
    }
}
