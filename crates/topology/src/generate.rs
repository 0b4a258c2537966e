//! Canned topology generators, including the paper's simulation setup.

use crate::{DistanceTiers, Topology, TopologyBuilder};

/// A single cloud with `racks` racks of `nodes_per_rack` nodes each.
///
/// # Panics
/// Panics if `racks == 0` or `nodes_per_rack == 0`.
pub fn uniform(racks: usize, nodes_per_rack: usize, tiers: DistanceTiers) -> Topology {
    assert!(
        racks > 0 && nodes_per_rack > 0,
        "topology must be non-empty"
    );
    heterogeneous(&vec![nodes_per_rack; racks], tiers)
}

/// A single cloud with racks of the given sizes.
///
/// # Panics
/// Panics if `rack_sizes` is empty or contains a zero.
pub fn heterogeneous(rack_sizes: &[usize], tiers: DistanceTiers) -> Topology {
    assert!(
        !rack_sizes.is_empty(),
        "topology must have at least one rack"
    );
    let mut b = TopologyBuilder::new(tiers);
    let cloud = b.add_cloud("cloud0");
    for &size in rack_sizes {
        assert!(size > 0, "racks must be non-empty");
        let rack = b.add_rack(cloud);
        for _ in 0..size {
            b.add_node(rack);
        }
    }
    b.build()
}

/// `clouds` clouds, each with `racks_per_cloud` racks of `nodes_per_rack`
/// nodes.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn multi_cloud(
    clouds: usize,
    racks_per_cloud: usize,
    nodes_per_rack: usize,
    tiers: DistanceTiers,
) -> Topology {
    assert!(
        clouds > 0 && racks_per_cloud > 0 && nodes_per_rack > 0,
        "topology must be non-empty"
    );
    let mut b = TopologyBuilder::new(tiers);
    for c in 0..clouds {
        let cloud = b.add_cloud(format!("cloud{c}"));
        for _ in 0..racks_per_cloud {
            let rack = b.add_rack(cloud);
            for _ in 0..nodes_per_rack {
                b.add_node(rack);
            }
        }
    }
    b.build()
}

/// The configuration used for the paper's simulations (§V-A): **3 racks ×
/// 10 nodes**, equal intra-rack distances, equal inter-rack distances.
pub fn paper_simulation() -> Topology {
    uniform(3, 10, DistanceTiers::paper_experiment())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn paper_simulation_shape() {
        let t = paper_simulation();
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.num_nodes(), 30);
        for rack in t.racks() {
            assert_eq!(rack.nodes.len(), 10);
        }
    }

    #[test]
    fn heterogeneous_shape() {
        let t = heterogeneous(&[1, 4, 2], DistanceTiers::default());
        assert_eq!(t.num_nodes(), 7);
        assert_eq!(t.racks()[1].nodes.len(), 4);
        // node 0 alone in rack 0: cross-rack to everyone
        for other in 1..7 {
            assert_eq!(
                t.distance(NodeId(0), NodeId(other)),
                DistanceTiers::default().cross_rack
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_zero_rejected() {
        let _ = uniform(0, 5, DistanceTiers::default());
    }

    #[test]
    #[should_panic(expected = "racks must be non-empty")]
    fn heterogeneous_zero_rack_rejected() {
        let _ = heterogeneous(&[3, 0], DistanceTiers::default());
    }

    #[test]
    fn multi_cloud_shape() {
        let t = multi_cloud(3, 2, 4, DistanceTiers::new(1, 2, 6).unwrap());
        assert_eq!(t.clouds.len(), 3);
        assert_eq!(t.num_racks(), 6);
        assert_eq!(t.num_nodes(), 24);
        assert_eq!(t.distance(NodeId(0), NodeId(23)), 6);
    }
}
