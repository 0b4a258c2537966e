//! Network capacity and latency parameters.

use serde::{Deserialize, Serialize};

/// Capacities (MB/s) and latencies (µs) of the modelled network.
///
/// Defaults approximate the 2012-era gigabit clusters of the paper's
/// testbed: 1 Gbps NICs (≈ 119 MB/s), a single-gigabit rack uplink shared by the
/// whole rack (10:1 oversubscription at 10 nodes), per-flow TCP ceilings
/// that shrink with distance, and memory-speed intra-node copies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkParams {
    /// Same-node VM-to-VM copy rate, MB/s (unshared).
    pub intra_node_mbps: f64,
    /// Per-node NIC rate, MB/s (each of TX and RX).
    pub nic_mbps: f64,
    /// Per-rack uplink rate, MB/s (each of up and down).
    pub rack_uplink_mbps: f64,
    /// Per-cloud WAN rate, MB/s (each direction).
    pub cloud_uplink_mbps: f64,
    /// Per-flow throughput ceiling for intra-rack transfers, MB/s.
    ///
    /// Models the TCP window/RTT product: a single 2012-era connection
    /// rarely fills more than its NIC inside a rack.
    pub same_rack_flow_mbps: f64,
    /// Per-flow throughput ceiling for cross-rack transfers, MB/s.
    ///
    /// Higher RTT through the aggregation switch caps a single
    /// connection well below the NIC — this is the mechanism that makes
    /// cluster *distance* (the paper's affinity metric) matter even when
    /// shared links are not saturated.
    pub cross_rack_flow_mbps: f64,
    /// Per-flow throughput ceiling for cross-cloud transfers, MB/s.
    pub cross_cloud_flow_mbps: f64,
    /// One-way latency between nodes in the same rack, µs.
    pub same_rack_latency_us: u64,
    /// One-way latency between racks, µs.
    pub cross_rack_latency_us: u64,
    /// One-way latency between clouds, µs.
    pub cross_cloud_latency_us: u64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        Self {
            intra_node_mbps: 4_000.0,
            nic_mbps: 119.0,
            rack_uplink_mbps: 119.0,
            cloud_uplink_mbps: 119.0,
            same_rack_flow_mbps: 119.0,
            cross_rack_flow_mbps: 40.0,
            cross_cloud_flow_mbps: 10.0,
            same_rack_latency_us: 100,
            cross_rack_latency_us: 300,
            cross_cloud_latency_us: 10_000,
        }
    }
}

impl NetworkParams {
    /// A fast, uncontended network for unit tests (1 GB/s everywhere,
    /// zero latency).
    pub fn uncontended() -> Self {
        Self {
            intra_node_mbps: 1_000.0,
            nic_mbps: 1_000.0,
            rack_uplink_mbps: 1_000_000.0,
            cloud_uplink_mbps: 1_000_000.0,
            same_rack_flow_mbps: 1_000_000.0,
            cross_rack_flow_mbps: 1_000_000.0,
            cross_cloud_flow_mbps: 1_000_000.0,
            same_rack_latency_us: 0,
            cross_rack_latency_us: 0,
            cross_cloud_latency_us: 0,
        }
    }

    /// Validate the rate parameters.
    ///
    /// Shared link capacities (`nic_mbps`, `rack_uplink_mbps`,
    /// `cloud_uplink_mbps`) may be **zero** — a zero-capacity link models
    /// a failed or partitioned link (ROADMAP item 3): flows routed over
    /// it get rate 0 and *starve* (see `FlowNet::starved_flows`) rather
    /// than being rejected at construction. Per-flow ceilings must stay
    /// strictly positive: they describe what one connection can do at a
    /// distance tier, not link health, and a zero ceiling would starve
    /// every flow of that tier with no link to blame it on.
    ///
    /// # Panics
    /// Panics on non-finite or negative capacities, and on non-positive
    /// or non-finite per-flow ceilings.
    pub(crate) fn validate(&self) {
        for (name, v) in [
            ("nic_mbps", self.nic_mbps),
            ("rack_uplink_mbps", self.rack_uplink_mbps),
            ("cloud_uplink_mbps", self.cloud_uplink_mbps),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and non-negative, got {v}"
            );
        }
        for (name, v) in [
            ("intra_node_mbps", self.intra_node_mbps),
            ("same_rack_flow_mbps", self.same_rack_flow_mbps),
            ("cross_rack_flow_mbps", self.cross_rack_flow_mbps),
            ("cross_cloud_flow_mbps", self.cross_cloud_flow_mbps),
        ] {
            assert!(
                v.is_finite() && v > 0.0,
                "{name} must be positive and finite, got {v}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_oversubscribed() {
        let p = NetworkParams::default();
        p.validate();
        // 10 nodes × NIC > uplink: rack uplink is the shared bottleneck.
        assert!(10.0 * p.nic_mbps > p.rack_uplink_mbps);
    }

    #[test]
    #[should_panic(expected = "cross_rack_flow_mbps must be positive")]
    fn zero_flow_ceiling_rejected() {
        let p = NetworkParams {
            cross_rack_flow_mbps: 0.0,
            ..NetworkParams::default()
        };
        p.validate();
    }

    #[test]
    fn zero_link_capacity_models_failure() {
        // A dead uplink is a legal topology state (failed link) — flows
        // over it starve instead of the params being rejected.
        let p = NetworkParams {
            rack_uplink_mbps: 0.0,
            ..NetworkParams::default()
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "nic_mbps must be finite and non-negative")]
    fn negative_link_capacity_rejected() {
        let p = NetworkParams {
            nic_mbps: -1.0,
            ..NetworkParams::default()
        };
        p.validate();
    }

    #[test]
    fn uncontended_is_valid() {
        NetworkParams::uncontended().validate();
    }
}
