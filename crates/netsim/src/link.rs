//! Link-level telemetry types: the catalog of physical link resources
//! and the per-link accumulators/samples [`FlowNet`](crate::FlowNet)
//! maintains.
//!
//! Resource indices follow the `FlowNet` layout: per-node TX/RX pairs,
//! then per-rack up/down pairs, then per-cloud up/down pairs, each group
//! ascending by id and holding only the net's own node set and its racks
//! and clouds. Indices are local to one net; link names carry the global
//! ids. All
//! accumulators are *always on* (they cost a few adds per advance), so
//! results are identical whether or not a recorder is attached; only the
//! time-series [`LinkSample`] buffer is gated behind
//! [`FlowNet::set_sampling`](crate::FlowNet::set_sampling).

/// Traffic class of a flow, used for exact per-link byte attribution.
///
/// Callers tag flows via
/// [`FlowNet::start_flow_classed`](crate::FlowNet::start_flow_classed);
/// the plain `start_flow` defaults to [`FlowClass::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowClass {
    /// Map-side input read (block fetch from a remote replica).
    MapRead,
    /// Shuffle fetch (map output partition → reducer).
    Shuffle,
    /// Reducer output write (commit replica traffic).
    OutputWrite,
    /// Unclassified traffic.
    #[default]
    Other,
}

/// Which layer of the physical topology a link resource belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// A node's transmit NIC half.
    NodeTx,
    /// A node's receive NIC half.
    NodeRx,
    /// A rack's uplink into the core (rack → core direction).
    RackUp,
    /// A rack's downlink from the core (core → rack direction).
    RackDown,
    /// A cloud's WAN uplink.
    CloudUp,
    /// A cloud's WAN downlink.
    CloudDown,
}

impl LinkClass {
    /// Stable lowercase label (`node-tx`, `rack-up`, …) used in metric
    /// names and span attributes.
    pub fn label(self) -> &'static str {
        match self {
            LinkClass::NodeTx => "node-tx",
            LinkClass::NodeRx => "node-rx",
            LinkClass::RackUp => "rack-up",
            LinkClass::RackDown => "rack-down",
            LinkClass::CloudUp => "cloud-up",
            LinkClass::CloudDown => "cloud-down",
        }
    }
}

/// Static description of one link resource in the flow network.
#[derive(Debug, Clone)]
pub struct LinkInfo {
    /// Stable name, e.g. `node3.tx`, `rack1.up`, `cloud0.down`.
    pub name: String,
    /// The topology layer this link belongs to.
    pub class: LinkClass,
    /// Link capacity in MB/s (== bytes/µs).
    pub capacity_mbps: f64,
}

/// Always-on accumulators for one link resource.
///
/// `bytes_total` is the time-integral of the fluid model's drained
/// bytes (an `f64`, exact up to fp rounding); the per-class byte
/// counters are *exact integers*, attributed when a flow completes:
/// every link on a completed flow's path carried exactly the flow's
/// requested byte count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Total bytes carried (time-integral of per-flow drain).
    pub bytes_total: f64,
    /// Exact bytes from [`FlowClass::Shuffle`] flows (at completion).
    pub shuffle_bytes: u64,
    /// Exact bytes from [`FlowClass::MapRead`] flows (at completion).
    pub map_read_bytes: u64,
    /// Exact bytes from [`FlowClass::OutputWrite`] flows (at completion).
    pub output_bytes: u64,
    /// Exact bytes from [`FlowClass::Other`] flows (at completion).
    pub other_bytes: u64,
    /// Microseconds during which ≥ 1 flow was actively draining bytes
    /// through this link (union of active-transfer windows).
    pub busy_us: f64,
    /// Peak instantaneous utilization (Σ flow rate / capacity) observed
    /// at any rate recomputation.
    pub peak_utilization: f64,
    /// Peak concurrent flow count observed at any rate recomputation.
    pub peak_active_flows: u32,
    /// Number of rate recomputations in which this link was *binding* —
    /// it froze at least one flow's max-min rate.
    pub binding_events: u64,
}

impl LinkStats {
    /// Sum of the exact per-class byte counters.
    pub fn completed_bytes(&self) -> u64 {
        self.shuffle_bytes + self.map_read_bytes + self.output_bytes + self.other_bytes
    }
}

/// One utilization sample, emitted at a rate recomputation for every
/// link whose `(utilization, active flows, binding)` state changed.
///
/// Only produced while sampling is enabled
/// ([`FlowNet::set_sampling`](crate::FlowNet::set_sampling)); drain with
/// [`FlowNet::drain_link_samples`](crate::FlowNet::drain_link_samples).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSample {
    /// Simulation time of the recomputation, µs.
    pub t_us: u64,
    /// Resource index into the emitting net's own
    /// [`FlowNet::links`](crate::FlowNet::links), not a global link id.
    pub link: usize,
    /// Instantaneous utilization, Σ flow rate / capacity ∈ [0, 1].
    pub utilization: f64,
    /// Number of flows routed through this link.
    pub active_flows: u32,
    /// Whether this link froze at least one flow's rate in the max-min
    /// solve (it is a bottleneck right now).
    pub binding: bool,
}

/// Why a completed flow's rate was what it was at the last rate
/// recomputation before it finished — the flow's bottleneck attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Frozen by the physical link with this resource index, an index
    /// into the net's own [`FlowNet::links`](crate::FlowNet::links).
    Link(usize),
    /// Frozen by its own per-connection rate ceiling (TCP window/RTT
    /// tier or same-node memory bandwidth), not by any shared link.
    RateCap,
    /// Never constrained — an empty path with an infinite rate ceiling.
    Unconstrained,
}
