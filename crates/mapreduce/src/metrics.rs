//! Job-level measurements — the quantities behind Figs. 7 and 8.

use serde::{Deserialize, Serialize};
use vc_des::SimTime;

/// How close a map task ran to its input data (Hadoop's locality levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Locality {
    /// A replica of the input block lives on the task's node.
    NodeLocal,
    /// A replica lives in the task's rack (but not on its node).
    RackLocal,
    /// All replicas are in other racks.
    Remote,
}

impl Locality {
    /// Stable label used in traces and metrics.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Locality::NodeLocal => "node_local",
            Locality::RackLocal => "rack_local",
            Locality::Remote => "remote",
        }
    }
}

/// Everything measured about one simulated job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Total job runtime (submission to last reducer commit).
    pub runtime: SimTime,
    /// The cluster-affinity distance of the virtual cluster the job ran
    /// on (the x-axis of Fig. 7).
    pub cluster_distance: u64,
    /// Number of map tasks.
    pub num_maps: u32,
    /// Number of reduce tasks.
    pub num_reducers: u32,
    /// Map tasks that read node-locally.
    pub data_local_maps: u32,
    /// Map tasks that read rack-locally.
    pub rack_local_maps: u32,
    /// Map tasks that read across racks.
    pub remote_maps: u32,
    /// Shuffle bytes moved within a node.
    pub local_shuffle_bytes: u64,
    /// Shuffle bytes moved within a rack.
    pub rack_shuffle_bytes: u64,
    /// Shuffle bytes moved across racks.
    pub remote_shuffle_bytes: u64,
    /// When the last map task finished.
    pub maps_finished_at: SimTime,
    /// When the last shuffle fetch finished.
    pub shuffle_finished_at: SimTime,
    /// Backup map attempts launched by speculative execution.
    pub speculative_attempts: u32,
    /// Backup attempts that finished before the original.
    pub speculative_wins: u32,
    /// Exact bytes (all traffic classes) the job pushed through rack
    /// uplinks — the oversubscribed links the paper's placement
    /// optimization tries to avoid.
    pub rack_uplink_bytes: u64,
    /// Peak instantaneous utilization observed on any rack uplink
    /// (Σ flow rate / capacity ∈ [0, 1]).
    pub peak_rack_uplink_utilization: f64,
}

impl JobMetrics {
    /// Map tasks that were **not** data-local (the first series of
    /// Fig. 8).
    pub fn non_data_local_maps(&self) -> u32 {
        self.rack_local_maps + self.remote_maps
    }

    /// Total shuffle traffic in bytes.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.local_shuffle_bytes + self.rack_shuffle_bytes + self.remote_shuffle_bytes
    }

    /// Fraction of shuffle bytes that did **not** stay on-node (the
    /// second series of Fig. 8); `0.0` when there was no shuffle at all.
    pub fn non_local_shuffle_fraction(&self) -> f64 {
        let total = self.total_shuffle_bytes();
        if total == 0 {
            0.0
        } else {
            (self.rack_shuffle_bytes + self.remote_shuffle_bytes) as f64 / total as f64
        }
    }

    /// Fraction of shuffle bytes that crossed racks; `0.0` when there was
    /// no shuffle at all. This is the component that rides the
    /// oversubscribed uplinks.
    pub fn cross_rack_shuffle_fraction(&self) -> f64 {
        let total = self.total_shuffle_bytes();
        if total == 0 {
            0.0
        } else {
            self.remote_shuffle_bytes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobMetrics {
        JobMetrics {
            runtime: SimTime::from_secs(100),
            cluster_distance: 14,
            num_maps: 32,
            num_reducers: 1,
            data_local_maps: 24,
            rack_local_maps: 6,
            remote_maps: 2,
            local_shuffle_bytes: 10,
            rack_shuffle_bytes: 30,
            remote_shuffle_bytes: 60,
            maps_finished_at: SimTime::from_secs(80),
            shuffle_finished_at: SimTime::from_secs(90),
            speculative_attempts: 0,
            speculative_wins: 0,
            rack_uplink_bytes: 70,
            peak_rack_uplink_utilization: 0.5,
        }
    }

    #[test]
    fn derived_quantities() {
        let m = sample();
        assert_eq!(m.non_data_local_maps(), 8);
        assert_eq!(m.total_shuffle_bytes(), 100);
        assert!((m.non_local_shuffle_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_shuffle_fraction_defined() {
        let m = JobMetrics {
            local_shuffle_bytes: 0,
            rack_shuffle_bytes: 0,
            remote_shuffle_bytes: 0,
            ..sample()
        };
        assert_eq!(m.non_local_shuffle_fraction(), 0.0);
        assert_eq!(m.cross_rack_shuffle_fraction(), 0.0);
    }

    #[test]
    fn cross_rack_fraction() {
        let m = sample();
        assert!((m.cross_rack_shuffle_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn locality_counts_partition_maps() {
        let m = sample();
        assert_eq!(
            m.data_local_maps + m.rack_local_maps + m.remote_maps,
            m.num_maps
        );
    }
}
