//! **affinity-vc** — affinity-aware virtual cluster optimization for
//! MapReduce applications.
//!
//! A from-scratch Rust reproduction of *Yan et al., "Affinity-aware
//! Virtual Cluster Optimization for MapReduce Applications", IEEE
//! CLUSTER 2012*. This umbrella crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`topology`] | `vc-topology` | clouds → racks → nodes, distance `D` by tiers |
//! | [`model`] | `vc-model` | VM types (Table I), requests `R`, matrices `M`/`C`/`L` |
//! | [`ilp`] | `vc-ilp` | from-scratch simplex + branch-and-bound MILP solver |
//! | [`placement`] | `vc-placement` | `DC` metric, SD/GSD solvers, Algorithms 1–2, baselines |
//! | [`des`] | `vc-des` | deterministic discrete-event kernel |
//! | [`netsim`] | `vc-netsim` | max-min fair flow-level network |
//! | [`mapreduce`] | `vc-mapreduce` | HDFS + locality scheduler + shuffle simulator |
//! | [`cloudsim`] | `vc-cloudsim` | request-queue simulation (arrivals, FIFO, release) |
//!
//! # Quickstart
//!
//! ```
//! use affinity_vc::prelude::*;
//! use std::sync::Arc;
//!
//! // A cloud: 3 racks × 10 nodes, EC2 Table-I VM types, 2 slots per cell.
//! let topo = Arc::new(affinity_vc::topology::generate::paper_simulation());
//! let catalog = Arc::new(VmCatalog::ec2_table1());
//! let mut cloud = ClusterState::uniform_capacity(topo, catalog, 2);
//!
//! // Request 2 small + 4 medium + 1 large VM and place it with Algorithm 1.
//! let request = Request::from_counts(vec![2, 4, 1]);
//! let allocation = affinity_vc::placement::online::place(&request, &cloud).unwrap();
//! assert!(allocation.satisfies(&request));
//! cloud.allocate(&allocation).unwrap();
//!
//! // The affinity metric the whole paper optimises:
//! let (distance, center) = affinity_vc::placement::distance::cluster_distance(
//!     allocation.matrix(),
//!     cloud.topology(),
//! );
//! assert_eq!(center, allocation.center());
//! assert!(distance <= 14); // compact clusters stay close
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vc_cloudsim as cloudsim;
pub use vc_des as des;
pub use vc_ilp as ilp;
pub use vc_mapreduce as mapreduce;
pub use vc_model as model;
pub use vc_netsim as netsim;
pub use vc_placement as placement;
pub use vc_topology as topology;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use vc_des::SimTime;
    pub use vc_mapreduce::{simulate_job, JobConfig, VirtualCluster, Workload};
    pub use vc_model::{Allocation, ClusterState, Request, ResourceMatrix, VmCatalog, VmTypeId};
    pub use vc_netsim::NetworkParams;
    pub use vc_placement::{PlacementError, PlacementPolicy};
    pub use vc_topology::{DistanceTiers, NodeId, RackId, Topology, TopologyBuilder};
}
