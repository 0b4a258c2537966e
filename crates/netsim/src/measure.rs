//! Deriving the placement distance matrix from *measured* network
//! latency.
//!
//! The paper defines distance **as** latency ("we define distance as the
//! latency between virtual machines", §Abstract) but configures it
//! statically, and lists dynamic recomputation as future work (§VII).
//! This module closes the loop: probe the flow network's one-way
//! latencies and quantise them into the integer distance units the
//! optimisation crates consume. When links degrade or nodes move, a
//! re-probe yields an updated matrix and placements adapt.

use crate::params::NetworkParams;
use vc_des::SimTime;
use vc_topology::{DistanceMatrix, NodeId, Topology};

/// One-way latency between two nodes under `params`, as the flow network
/// would impose on a zero-byte transfer.
fn probe_latency(topo: &Topology, params: &NetworkParams, a: NodeId, b: NodeId) -> SimTime {
    if a == b {
        return SimTime::ZERO;
    }
    let us = if topo.same_rack(a, b) {
        params.same_rack_latency_us
    } else if topo.same_cloud(a, b) {
        params.cross_rack_latency_us
    } else {
        params.cross_cloud_latency_us
    };
    SimTime::from_micros(us)
}

/// Probe every node pair and quantise latencies into distance units of
/// `unit` (e.g. the same-rack latency), rounding up so that any strictly
/// larger latency maps to a strictly larger distance tier whenever it
/// exceeds the next multiple.
///
/// With the default parameters (100 µs / 300 µs / 10 ms) and
/// `unit = 100 µs` this reproduces the familiar `1 / 3 / 100` shape; with
/// `unit = 300 µs` it collapses towards the paper's coarse `1 / 1 / 34`.
///
/// # Panics
/// Panics if `unit` is zero.
pub fn derive_distance_matrix(
    topo: &Topology,
    params: &NetworkParams,
    unit: SimTime,
) -> DistanceMatrix {
    assert!(unit > SimTime::ZERO, "quantisation unit must be positive");
    DistanceMatrix::from_fn(topo.num_nodes(), |i, j| {
        let lat = probe_latency(topo, params, NodeId::from_index(i), NodeId::from_index(j));
        let units = lat.as_micros().div_ceil(unit.as_micros());
        u32::try_from(units).expect("distance unit overflow")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::{generate, DistanceTiers, TopologyBuilder};

    fn topo() -> Topology {
        generate::multi_cloud(2, 2, 2, DistanceTiers::new(1, 2, 4).unwrap())
    }

    #[test]
    fn probe_matches_tier_latencies() {
        let t = topo();
        let p = NetworkParams::default();
        assert_eq!(probe_latency(&t, &p, NodeId(0), NodeId(0)), SimTime::ZERO);
        assert_eq!(
            probe_latency(&t, &p, NodeId(0), NodeId(1)),
            SimTime::from_micros(100)
        );
        assert_eq!(
            probe_latency(&t, &p, NodeId(0), NodeId(2)),
            SimTime::from_micros(300)
        );
        assert_eq!(
            probe_latency(&t, &p, NodeId(0), NodeId(7)),
            SimTime::from_micros(10_000)
        );
    }

    #[test]
    fn derived_matrix_is_ordered_like_tiers() {
        let t = topo();
        let p = NetworkParams::default();
        let m = derive_distance_matrix(&t, &p, SimTime::from_micros(100));
        assert_eq!(m.get(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.get(NodeId(0), NodeId(1)), 1); // 100 µs / 100
        assert_eq!(m.get(NodeId(0), NodeId(2)), 3); // 300 µs / 100
        assert_eq!(m.get(NodeId(0), NodeId(7)), 100); // 10 ms / 100
    }

    #[test]
    fn derived_matrix_drives_placement_topology() {
        // The derived matrix can replace the static tiers in a Topology.
        let t = topo();
        let p = NetworkParams::default();
        let m = derive_distance_matrix(&t, &p, SimTime::from_micros(100));

        let mut b = TopologyBuilder::new(DistanceTiers::new(1, 3, 100).unwrap());
        let cloud = b.add_cloud("measured");
        let rack = b.add_rack(cloud);
        for _ in 0..t.num_nodes() {
            b.add_node(rack);
        }
        b.with_distance_matrix(m);
        let measured = b.build();
        assert_eq!(measured.distance(NodeId(0), NodeId(2)), 3);
    }

    #[test]
    fn degraded_link_raises_distance() {
        // Simulate a degraded aggregation layer: cross-rack latency 5x.
        let t = topo();
        let healthy = NetworkParams::default();
        let degraded = NetworkParams {
            cross_rack_latency_us: 1_500,
            ..NetworkParams::default()
        };
        let unit = SimTime::from_micros(100);
        let m0 = derive_distance_matrix(&t, &healthy, unit);
        let m1 = derive_distance_matrix(&t, &degraded, unit);
        assert!(m1.get(NodeId(0), NodeId(2)) > m0.get(NodeId(0), NodeId(2)));
        // Intra-rack unaffected.
        assert_eq!(m1.get(NodeId(0), NodeId(1)), m0.get(NodeId(0), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_unit_rejected() {
        let t = topo();
        let _ = derive_distance_matrix(&t, &NetworkParams::default(), SimTime::ZERO);
    }
}
