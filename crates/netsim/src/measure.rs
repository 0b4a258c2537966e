//! Deriving the placement distance tiers from *measured* network
//! latency.
//!
//! The paper defines distance **as** latency ("we define distance as the
//! latency between virtual machines", §Abstract) but configures it
//! statically, and lists dynamic recomputation as future work (§VII).
//! This module closes the loop: take the flow network's one-way latency
//! for each tier and quantise it into the integer distance units the
//! optimisation crates consume. When links degrade, a re-probe yields
//! updated tiers and placements adapt.

use crate::params::NetworkParams;
use vc_des::SimTime;
use vc_topology::DistanceTiers;

/// Quantise the three tier latencies of `params` into distance units of
/// `unit` (e.g. the same-rack latency), rounding up so that any strictly
/// larger latency maps to a strictly larger tier whenever it exceeds the
/// next multiple.
///
/// With the default parameters (100 µs / 300 µs / 10 ms) and
/// `unit = 100 µs` this gives the familiar `1 / 3 / 100`. Coarser units
/// collapse tiers: `unit = 300 µs` gives `1 / 1 / 34`, with same-rack and
/// cross-rack distances equal. The fields are set directly, so a collapsed
/// result is returned as is instead of failing [`DistanceTiers::new`]'s
/// strict `d1 < d2 < d3` check.
///
/// # Panics
/// Panics if `unit` is zero.
pub fn derive_tiers(params: &NetworkParams, unit: SimTime) -> DistanceTiers {
    assert!(unit > SimTime::ZERO, "quantisation unit must be positive");
    let quantise =
        |us: u64| u32::try_from(us.div_ceil(unit.as_micros())).expect("distance unit overflow");
    DistanceTiers {
        same_rack: quantise(params.same_rack_latency_us),
        cross_rack: quantise(params.cross_rack_latency_us),
        cross_cloud: quantise(params.cross_cloud_latency_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::{generate, NodeId, Topology};

    fn topo(tiers: DistanceTiers) -> Topology {
        generate::multi_cloud(2, 2, 2, tiers)
    }

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

    #[test]
    fn probe_matches_tier_latencies() {
        let t = topo(DistanceTiers::new(1, 2, 4).unwrap());
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
    fn derived_tiers_quantise_latencies() {
        let p = NetworkParams::default();
        let t = derive_tiers(&p, SimTime::from_micros(100));
        assert_eq!((t.same_rack, t.cross_rack, t.cross_cloud), (1, 3, 100));
        // A coarse unit collapses d1 and d2 instead of failing.
        let t = derive_tiers(&p, SimTime::from_micros(300));
        assert_eq!((t.same_rack, t.cross_rack, t.cross_cloud), (1, 1, 34));
    }

    #[test]
    fn derived_tiers_match_every_probed_pair() {
        // A topology built with the derived tiers has, for every pair, the
        // probed latency rounded up to whole units.
        let p = NetworkParams::default();
        for unit_us in [1, 100, 300, 7_000] {
            let unit = SimTime::from_micros(unit_us);
            let t = topo(derive_tiers(&p, unit));
            for a in t.node_ids() {
                for b in t.node_ids() {
                    let lat = probe_latency(&t, &p, a, b).as_micros();
                    assert_eq!(u64::from(t.distance(a, b)), lat.div_ceil(unit_us));
                }
            }
        }
    }

    #[test]
    fn degraded_link_raises_distance() {
        // Simulate a degraded aggregation layer: cross-rack latency 5x.
        let healthy = NetworkParams::default();
        let degraded = NetworkParams {
            cross_rack_latency_us: 1_500,
            ..NetworkParams::default()
        };
        let unit = SimTime::from_micros(100);
        let t0 = derive_tiers(&healthy, unit);
        let t1 = derive_tiers(&degraded, unit);
        assert!(t1.cross_rack > t0.cross_rack);
        // Intra-rack unaffected.
        assert_eq!(t1.same_rack, t0.same_rack);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_unit_rejected() {
        let _ = derive_tiers(&NetworkParams::default(), SimTime::ZERO);
    }
}
