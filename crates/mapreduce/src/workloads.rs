//! Workload models: how much data each phase produces and how expensive
//! the user code is.
//!
//! A workload is characterised by two data ratios and two CPU factors:
//!
//! * `map_selectivity` — map-output bytes per input byte *after the
//!   combiner* (WordCount with a combiner emits only per-split word
//!   frequencies, a small fraction of the text; TeraSort re-emits
//!   everything);
//! * `reduce_selectivity` — final-output bytes per reduce-input byte;
//! * `map_cpu_factor` / `reduce_cpu_factor` — CPU seconds relative to
//!   streaming the same bytes at the VM's slot rate (`1.0` = exactly the
//!   slot rate; `2.0` = twice as slow).

use serde::{Deserialize, Serialize};

/// A MapReduce application model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable name for reports.
    pub name: String,
    /// Map-output bytes per input byte (post-combiner).
    pub map_selectivity: f64,
    /// Final-output bytes per reduce-input byte.
    pub reduce_selectivity: f64,
    /// Map CPU cost multiplier (≥ 0).
    pub map_cpu_factor: f64,
    /// Reduce CPU cost multiplier (≥ 0).
    pub reduce_cpu_factor: f64,
}

impl Workload {
    /// The paper's benchmark: **WordCount** with the standard combiner.
    /// Per-split intermediate data is the distinct-word histogram — small
    /// relative to the text (≈ 5 %); the final counts shrink further.
    pub fn wordcount() -> Self {
        Self {
            name: "wordcount".into(),
            map_selectivity: 0.05,
            reduce_selectivity: 0.4,
            map_cpu_factor: 1.0,
            reduce_cpu_factor: 0.5,
        }
    }

    /// WordCount **without** the combiner: every word is shuffled, so the
    /// intermediate data slightly exceeds the input (keys + counts).
    /// Useful for shuffle-stress ablations.
    pub fn wordcount_no_combiner() -> Self {
        Self {
            name: "wordcount-nocombine".into(),
            map_selectivity: 1.1,
            reduce_selectivity: 0.02,
            map_cpu_factor: 1.0,
            reduce_cpu_factor: 1.0,
        }
    }

    /// **TeraSort**: shuffle-heavy identity — everything moves.
    pub fn terasort() -> Self {
        Self {
            name: "terasort".into(),
            map_selectivity: 1.0,
            reduce_selectivity: 1.0,
            map_cpu_factor: 0.5,
            reduce_cpu_factor: 1.0,
        }
    }

    /// **Grep** (selective filter): maps emit almost nothing.
    pub fn grep() -> Self {
        Self {
            name: "grep".into(),
            map_selectivity: 0.01,
            reduce_selectivity: 1.0,
            map_cpu_factor: 0.8,
            reduce_cpu_factor: 0.1,
        }
    }

    /// Validate ratios and factors.
    ///
    /// # Panics
    /// Panics on negative or non-finite parameters.
    pub(crate) fn validate(&self) {
        for (name, v) in [
            ("map_selectivity", self.map_selectivity),
            ("reduce_selectivity", self.reduce_selectivity),
            ("map_cpu_factor", self.map_cpu_factor),
            ("reduce_cpu_factor", self.reduce_cpu_factor),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be non-negative, got {v}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_workloads_valid() {
        for w in [
            Workload::wordcount(),
            Workload::wordcount_no_combiner(),
            Workload::terasort(),
            Workload::grep(),
        ] {
            w.validate();
        }
    }

    #[test]
    fn combiner_shrinks_shuffle() {
        assert!(
            Workload::wordcount().map_selectivity
                < Workload::wordcount_no_combiner().map_selectivity
        );
    }

    #[test]
    fn terasort_moves_everything() {
        let t = Workload::terasort();
        assert_eq!(t.map_selectivity, 1.0);
        assert_eq!(t.reduce_selectivity, 1.0);
    }

    #[test]
    #[should_panic(expected = "map_selectivity")]
    fn negative_ratio_rejected() {
        let w = Workload {
            map_selectivity: -1.0,
            ..Workload::grep()
        };
        w.validate();
    }
}
