//! Property tests: tier-distance invariants over random hierarchies.

use proptest::prelude::*;
use vc_topology::{generate, DistanceTiers, NodeId};

fn tiers() -> impl Strategy<Value = DistanceTiers> {
    (1u32..10, 1u32..10, 1u32..10).prop_map(|(a, b, c)| {
        let d1 = a;
        let d2 = a + b;
        let d3 = a + b + c;
        DistanceTiers::new(d1, d2, d3).expect("strictly increasing by construction")
    })
}

proptest! {
    #[test]
    fn tier_matrices_symmetric_zero_diag_metric(
        t in tiers(),
        clouds in 1usize..3,
        racks in 1usize..3,
        nodes in 1usize..4,
    ) {
        let topo = generate::multi_cloud(clouds, racks, nodes, t);
        let d = |i: usize, j: usize| topo.distance(NodeId(i as u32), NodeId(j as u32));
        let n = topo.num_nodes();
        // `multi_cloud` numbers nodes rack by rack, cloud by cloud.
        let (rack, cloud) = (|i: usize| i / nodes, |i: usize| i / (racks * nodes));
        for i in 0..n {
            for j in 0..n {
                // The exact tier separating the two nodes.
                let want = if i == j {
                    0
                } else if cloud(i) != cloud(j) {
                    t.cross_cloud
                } else if rack(i) != rack(j) {
                    t.cross_rack
                } else {
                    t.same_rack
                };
                prop_assert_eq!(d(i, j), want);
                prop_assert_eq!(d(i, j), d(j, i));
                // Triangle inequality through every intermediate node.
                for k in 0..n {
                    prop_assert!(d(i, k) + d(k, j) >= d(i, j));
                }
            }
        }
    }

    #[test]
    fn nodes_by_distance_is_sorted(
        t in tiers(),
        racks in 1usize..4,
        nodes in 1usize..4,
        seed in 0usize..16,
    ) {
        let topo = generate::uniform(racks, nodes, t);
        let k = NodeId((seed % topo.num_nodes()) as u32);
        let order = topo.nodes_by_distance(k);
        prop_assert_eq!(order.len(), topo.num_nodes());
        prop_assert_eq!(order[0], k);
        for w in order.windows(2) {
            prop_assert!(topo.distance(k, w[0]) <= topo.distance(k, w[1]));
        }
    }

    #[test]
    fn rack_peer_partition(
        t in tiers(),
        racks in 1usize..4,
        nodes in 1usize..4,
        seed in 0usize..16,
    ) {
        let topo = generate::uniform(racks, nodes, t);
        let x = NodeId((seed % topo.num_nodes()) as u32);
        let same = topo.rack_peers(x);
        let other = topo.non_rack_peers(x);
        // Together with x itself they partition the node set.
        prop_assert_eq!(same.len() + other.len() + 1, topo.num_nodes());
        for &p in &same {
            prop_assert!(topo.same_rack(p, x) && p != x);
            prop_assert_eq!(topo.distance(p, x), t.same_rack);
        }
        for &q in &other {
            prop_assert!(!topo.same_rack(q, x));
        }
    }
}
