//! Discrete-event MapReduce simulator over a provisioned virtual cluster.
//!
//! Stands in for the paper's physical Hadoop testbed (§V-B): the paper
//! runs WordCount on virtual clusters of varying *distance* and measures
//! job runtime, data locality, and shuffle locality (Figs. 7–8). This
//! crate reproduces the three data-movement phases of §I on top of the
//! `vc-netsim` flow network:
//!
//! 1. **DFS → map** — input blocks live in a simulated HDFS
//!    (`hdfs`) with rack-aware replication across the cluster's VMs;
//!    map tasks read locally when the slot-scheduler ([`scheduler`])
//!    achieves data locality, otherwise over the network;
//! 2. **map → reduce** — the shuffle: every reducer fetches its partition
//!    of every map output, contending for NICs and rack uplinks;
//! 3. **reduce → DFS** — reducers write replicated output back.
//!
//! [`simulate_job`] returns [`JobMetrics`] with the
//! exact quantities plotted in Figs. 7–8 (runtime, non-data-local map
//! count, shuffle-locality byte fractions, cluster affinity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
mod hdfs;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod workloads;

pub use cluster::VirtualCluster;
pub use engine::{simulate_job, simulate_job_observed, JobObservation, ObservedJob};
pub use job::JobConfig;
pub use metrics::{JobMetrics, Locality};
pub use workloads::Workload;
