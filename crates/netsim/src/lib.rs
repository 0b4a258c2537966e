//! Flow-level datacenter network simulation.
//!
//! Models the network the paper's experiments run over — NICs, shared
//! top-of-rack uplinks, and (optionally) inter-cloud links — at *flow*
//! granularity: each transfer is a fluid flow whose rate is the **max-min
//! fair share** across every resource on its path. Flow starts and
//! finishes are staged and the rates recomputed once for all of them
//! before anything reads a rate or time moves on, so several flows
//! started at one instant cost one solve. This captures exactly the
//! effect the paper
//! measures: a virtual cluster that spans racks pushes its shuffle traffic
//! through oversubscribed uplinks and slows down, while a compact cluster
//! stays on fast intra-rack paths.
//!
//! Resources on a flow's path:
//!
//! * same node — no network resource (memory-speed copy at
//!   [`NetworkParams::intra_node_mbps`], unshared);
//! * same rack — sender NIC TX, receiver NIC RX;
//! * cross rack — sender TX, source-rack uplink (up), destination-rack
//!   uplink (down), receiver RX;
//! * cross cloud — additionally the per-cloud WAN links.
//!
//! Rates are in MB/s, which conveniently equals bytes/µs — the unit of
//! [`vc_des::SimTime`].
//!
//! Every link resource additionally carries always-on telemetry
//! ([`LinkStats`]: byte integrals, exact per-class byte counters, busy
//! time, peaks, binding counts) and can emit utilization time-series
//! samples ([`LinkSample`]) at each rate recomputation (a state that
//! lasts 0 µs between two changes at the same instant is never
//! solved, so it is neither sampled nor counted); completed flows
//! report which link (or per-connection ceiling) bound their rate
//! ([`Bottleneck`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fairshare;
mod flownet;
mod incremental;
mod link;
pub mod measure;
mod params;

pub use fairshare::{max_min_fair_share_detailed, FairShare};
pub use flownet::{CompletedFlow, FlowId, FlowNet, FlowSnapshot, SolverMode, SolverStats};
pub use link::{Bottleneck, FlowClass, LinkClass, LinkInfo, LinkSample, LinkStats};
pub use params::NetworkParams;
