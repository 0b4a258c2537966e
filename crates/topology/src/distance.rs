//! Dense symmetric inter-node distance matrix (`D` in the paper).

// Index-based loops mirror the textbook matrix formulations here.
#![allow(clippy::needless_range_loop)]

use crate::NodeId;
use serde::{Deserialize, Serialize};

/// A dense `n × n` symmetric distance matrix with a zero diagonal.
///
/// Stored row-major in a single allocation. Distances are unsigned
/// integers (latency units); the optimisation crates accumulate into
/// `u64` so overflow is not a practical concern at datacenter scale.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Build by evaluating `f(i, j)` for every ordered pair, symmetrised by
    /// construction: only `i ≤ j` is evaluated and mirrored.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u32) -> Self {
        let mut data = vec![0u32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f(i, j);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        Self { n, data }
    }

    /// Matrix dimension (number of nodes).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Distance between nodes `a` and `b`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "node index out of range"
        );
        self.data[a.index() * self.n + b.index()]
    }

    /// The row of distances from node `a` to every node.
    #[inline]
    pub fn row(&self, a: NodeId) -> &[u32] {
        let i = a.index();
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Maximum distance in the matrix (0 for matrices of dimension ≤ 1).
    pub fn max_distance(&self) -> u32 {
        self.data.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_symmetric_zero_diagonal() {
        let m = DistanceMatrix::from_fn(4, |i, j| (i + j) as u32);
        for i in 0..4 {
            assert_eq!(m.get(NodeId(i), NodeId(i)), 0);
            for j in 0..4 {
                assert_eq!(m.get(NodeId(i), NodeId(j)), m.get(NodeId(j), NodeId(i)));
            }
        }
    }

    #[test]
    fn row_matches_get() {
        let m = DistanceMatrix::from_fn(3, |_, _| 7);
        assert_eq!(m.row(NodeId(1)), &[7, 0, 7]);
    }

    #[test]
    fn max_distance() {
        let m = DistanceMatrix::from_fn(3, |i, j| (i * 3 + j) as u32);
        assert_eq!(m.max_distance(), 5);
        assert_eq!(DistanceMatrix::from_fn(1, |_, _| 9).max_distance(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let m = DistanceMatrix::from_fn(2, |_, _| 1);
        let _ = m.get(NodeId(5), NodeId(0));
    }
}
