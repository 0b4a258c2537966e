//! Cloud request-queue simulation (paper §V-A).
//!
//! Simulates an IaaS cloud receiving virtual-cluster requests over time:
//! requests arrive (Poisson), wait in a FIFO queue when resources are
//! short, are placed by a pluggable [`vc_placement::PlacementPolicy`] (or
//! by Algorithm 2 in batched mode), hold their VMs for a random service
//! time, and release them. The paper's simulations — 3 racks × 10 nodes,
//! twenty random requests with random arrivals and completions — are one
//! [`SimConfig`] away.
//!
//! * [`arrivals`] — request/arrival/service-time generation;
//! * [`sim`] — the event loop and per-request outcomes;
//! * [`trace`] — saving and loading request traces.
//!
//! Everything here is single-threaded: a run is deterministic in its
//! seed, and sweeps over seeds or parameters are sequential loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
mod probe;
pub mod sim;
pub mod trace;

pub use arrivals::{ArrivalProcess, CloudRequest, ServiceTime};
pub use sim::{PolicyMode, RequestOutcome, SimConfig, SimResult};
