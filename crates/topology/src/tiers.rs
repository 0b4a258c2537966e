//! Latency distance tiers `0 < d1 < d2 < d3` (paper §II, matrix `D`).

use std::fmt;

/// The three latency classes that give every node-to-node distance.
///
/// The distance between two *VMs on the same node* is always `0`; the tiers
/// give the node-to-node distances:
///
/// * [`same_rack`](Self::same_rack) — `d1`, nodes behind one ToR switch;
/// * [`cross_rack`](Self::cross_rack) — `d2`, nodes in different racks of
///   the same cloud;
/// * [`cross_cloud`](Self::cross_cloud) — `d3`, nodes in different clouds.
///
/// The paper requires `0 < d1 < d2 < d3`; [`DistanceTiers::new`] enforces
/// this. The experiment section (§V-B) uses `d1 = 1`, `d2 = 2`, which is
/// the [`Default`]. The fields are public because tiers quantised from
/// measured latency may collapse (e.g. `1 / 1 / 34`); topologies accept
/// any triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DistanceTiers {
    /// `d1`: distance between two nodes in the same rack.
    pub same_rack: u32,
    /// `d2`: distance between two nodes in different racks.
    pub cross_rack: u32,
    /// `d3`: distance between two nodes in different clouds.
    pub cross_cloud: u32,
}

/// Error returned when tier values violate `0 < d1 < d2 < d3`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidTiers {
    /// The offending values `(d1, d2, d3)`.
    pub values: (u32, u32, u32),
}

impl fmt::Display for InvalidTiers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (d1, d2, d3) = self.values;
        write!(
            f,
            "distance tiers must satisfy 0 < d1 < d2 < d3, got d1={d1}, d2={d2}, d3={d3}"
        )
    }
}

impl std::error::Error for InvalidTiers {}

impl DistanceTiers {
    /// Create tiers, validating `0 < d1 < d2 < d3`.
    pub fn new(d1: u32, d2: u32, d3: u32) -> Result<Self, InvalidTiers> {
        if d1 == 0 || d1 >= d2 || d2 >= d3 {
            return Err(InvalidTiers {
                values: (d1, d2, d3),
            });
        }
        Ok(Self {
            same_rack: d1,
            cross_rack: d2,
            cross_cloud: d3,
        })
    }

    /// The affinity configuration of the paper's experiments (§V-B):
    /// same node `0`, same rack `1`, different racks `2` (cross-cloud `4`
    /// extrapolates the doubling and is unused in single-cloud setups).
    pub fn paper_experiment() -> Self {
        Self {
            same_rack: 1,
            cross_rack: 2,
            cross_cloud: 4,
        }
    }
}

impl Default for DistanceTiers {
    /// The paper's experimental configuration: `d1 = 1`, `d2 = 2`.
    fn default() -> Self {
        Self::paper_experiment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_tiers_accepted() {
        let t = DistanceTiers::new(1, 2, 4).unwrap();
        assert_eq!(t.same_rack, 1);
        assert_eq!(t.cross_rack, 2);
        assert_eq!(t.cross_cloud, 4);
    }

    #[test]
    fn zero_d1_rejected() {
        assert!(DistanceTiers::new(0, 2, 3).is_err());
    }

    #[test]
    fn non_increasing_rejected() {
        assert!(DistanceTiers::new(2, 2, 3).is_err());
        assert!(DistanceTiers::new(1, 3, 3).is_err());
        assert!(DistanceTiers::new(3, 2, 5).is_err());
    }

    #[test]
    fn error_message_mentions_values() {
        let err = DistanceTiers::new(5, 2, 3).unwrap_err();
        assert!(err.to_string().contains("d1=5"));
    }

    #[test]
    fn default_is_paper_experiment() {
        assert_eq!(DistanceTiers::default(), DistanceTiers::paper_experiment());
    }
}
