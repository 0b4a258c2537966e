//! Job configuration: input size, split size, reducer count, replication.

use crate::workloads::Workload;
use serde::{Deserialize, Serialize};

/// Configuration of one MapReduce job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobConfig {
    /// The application model.
    pub workload: Workload,
    /// Total input size in MB.
    pub input_mb: f64,
    /// HDFS block / input-split size in MB (Hadoop default: 64).
    pub split_mb: f64,
    /// Number of reduce tasks (the paper's experiment uses 1).
    pub num_reducers: u32,
    /// HDFS replication factor (Hadoop default: 3).
    pub replication: u32,
}

impl JobConfig {
    /// The paper's §V-B experiment: WordCount, **32 map tasks** and **one
    /// reduce task** — 32 × 64 MB = 2 GB of input.
    pub fn paper_wordcount() -> Self {
        Self {
            workload: Workload::wordcount(),
            input_mb: 32.0 * 64.0,
            split_mb: 64.0,
            num_reducers: 1,
            replication: 3,
        }
    }

    /// Number of map tasks: one per (possibly partial) split.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`validate`](Self::validate)).
    pub fn num_maps(&self) -> u32 {
        self.validate();
        (self.input_mb / self.split_mb).ceil() as u32
    }

    /// Input size of map task `index` (the last split may be partial).
    pub(crate) fn split_size_mb(&self, index: u32) -> f64 {
        let full = self.num_maps().saturating_sub(1);
        if index < full {
            self.split_mb
        } else {
            let rem = self.input_mb - f64::from(full) * self.split_mb;
            if rem > 0.0 {
                rem
            } else {
                self.split_mb
            }
        }
    }

    /// Validate the configuration.
    ///
    /// # Panics
    /// Panics if sizes are non-positive/non-finite, there are no
    /// reducers, or replication is zero.
    pub(crate) fn validate(&self) {
        self.workload.validate();
        assert!(
            self.input_mb.is_finite() && self.input_mb > 0.0,
            "input_mb must be positive"
        );
        assert!(
            self.split_mb.is_finite() && self.split_mb > 0.0,
            "split_mb must be positive"
        );
        assert!(self.num_reducers > 0, "need at least one reducer");
        assert!(self.replication > 0, "replication must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_job_has_32_maps_1_reducer() {
        let j = JobConfig::paper_wordcount();
        assert_eq!(j.num_maps(), 32);
        assert_eq!(j.num_reducers, 1);
        assert_eq!(j.split_size_mb(0), 64.0);
        assert_eq!(j.split_size_mb(31), 64.0);
    }

    #[test]
    fn partial_last_split() {
        let j = JobConfig {
            input_mb: 100.0,
            ..JobConfig::paper_wordcount()
        };
        assert_eq!(j.num_maps(), 2);
        assert_eq!(j.split_size_mb(0), 64.0);
        assert!((j.split_size_mb(1) - 36.0).abs() < 1e-9);
    }

    #[test]
    fn exact_multiple_splits() {
        let j = JobConfig {
            input_mb: 128.0,
            ..JobConfig::paper_wordcount()
        };
        assert_eq!(j.num_maps(), 2);
        assert_eq!(j.split_size_mb(1), 64.0);
    }

    #[test]
    #[should_panic(expected = "at least one reducer")]
    fn zero_reducers_rejected() {
        let j = JobConfig {
            num_reducers: 0,
            ..JobConfig::paper_wordcount()
        };
        j.validate();
    }

    #[test]
    #[should_panic(expected = "input_mb must be positive")]
    fn zero_input_rejected() {
        let j = JobConfig {
            input_mb: 0.0,
            ..JobConfig::paper_wordcount()
        };
        j.validate();
    }
}
