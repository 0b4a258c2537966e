//! Resource model for virtual cluster provisioning (paper §II).
//!
//! The paper's decision data structures map onto this crate as follows:
//!
//! | Paper | Meaning | Here |
//! |---|---|---|
//! | `V_0..V_{m-1}` | VM types (Table I) | [`VmType`], [`VmCatalog`] |
//! | `R` (len `m`) | requested instances per type | [`Request`] |
//! | `A` (len `m`) | available instances per type | [`ClusterState::availability`] |
//! | `M` (`n × m`) | max instances per node per type | [`ResourceMatrix`] (capacity) |
//! | `C` (`n × m`) | currently allocated per node per type | [`ResourceMatrix`] (used), per-request [`Allocation`] |
//! | `L = M − C` | remaining per node per type | [`ClusterState::remaining`] |
//!
//! A request is admissible only if `R_j ≤ A_j` for all types `j`
//! ([`ClusterState::can_satisfy`]); callers that want the paper's
//! "refuse vs. queue" distinction compare against total capacity with
//! [`ClusterState::fits_capacity`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod catalog;
mod cluster;
mod error;
mod index;
mod matrix;
mod request;
pub mod workload;

pub use allocation::Allocation;
pub use catalog::{VmCatalog, VmType, VmTypeId};
pub use cluster::ClusterState;
pub use error::ModelError;
pub use index::PlacementIndex;
pub use matrix::ResourceMatrix;
pub use request::Request;
