//! Dense `n × m` (node × VM type) count matrices — the paper's `M`, `C`,
//! and `L` structures.

use crate::{Request, VmTypeId};
use serde::{Deserialize, Serialize};
use vc_topology::NodeId;

/// A dense `n × m` matrix of VM counts: entry `(i, j)` counts instances of
/// type `V_j` on node `N_i`.
///
/// The same type serves as the capacity matrix `M`, the global allocation
/// matrix `C`, the remaining matrix `L = M − C`, and per-request allocation
/// matrices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceMatrix {
    n: usize,
    m: usize,
    data: Vec<u32>,
}

impl ResourceMatrix {
    /// An all-zero `n × m` matrix.
    pub fn zeros(n: usize, m: usize) -> Self {
        Self {
            n,
            m,
            data: vec![0; n * m],
        }
    }

    /// Build from explicit rows (one per node, `m` entries each).
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let n = rows.len();
        let m = rows.first().map_or(0, Vec::len);
        for row in rows {
            assert_eq!(row.len(), m, "all rows must have the same length");
        }
        Self {
            n,
            m,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// Number of nodes (rows).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of VM types (columns).
    #[inline]
    pub fn num_types(&self) -> usize {
        self.m
    }

    /// Count at `(node, vm_type)`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    pub fn get(&self, node: NodeId, vm_type: VmTypeId) -> u32 {
        self.data[self.offset(node, vm_type)]
    }

    /// Set the count at `(node, vm_type)`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    pub fn set(&mut self, node: NodeId, vm_type: VmTypeId, value: u32) {
        let o = self.offset(node, vm_type);
        self.data[o] = value;
    }

    /// Add `delta` to the count at `(node, vm_type)`.
    ///
    /// # Panics
    /// Panics on index out of range or `u32` overflow.
    #[inline]
    pub fn add(&mut self, node: NodeId, vm_type: VmTypeId, delta: u32) {
        let o = self.offset(node, vm_type);
        self.data[o] = self.data[o].checked_add(delta).expect("VM count overflow");
    }

    /// Subtract `delta` from the count at `(node, vm_type)`.
    ///
    /// # Panics
    /// Panics on index out of range or underflow below zero.
    #[inline]
    pub fn sub(&mut self, node: NodeId, vm_type: VmTypeId, delta: u32) {
        let o = self.offset(node, vm_type);
        self.data[o] = self.data[o].checked_sub(delta).expect("VM count underflow");
    }

    #[inline]
    fn offset(&self, node: NodeId, vm_type: VmTypeId) -> usize {
        assert!(
            node.index() < self.n && vm_type.index() < self.m,
            "matrix index out of range"
        );
        node.index() * self.m + vm_type.index()
    }

    /// The row for `node` — its per-type counts.
    #[inline]
    pub fn row(&self, node: NodeId) -> &[u32] {
        assert!(node.index() < self.n, "matrix index out of range");
        &self.data[node.index() * self.m..(node.index() + 1) * self.m]
    }

    /// The row for `node` as a [`Request`] (the `L[i]` vector in the
    /// paper's `com(L[i], R)` operation).
    pub fn row_request(&self, node: NodeId) -> Request {
        Request::from_counts(self.row(node).to_vec())
    }

    /// Column sums: total count per VM type across all nodes. This is the
    /// availability vector `A_j = Σ_i L_ij` when applied to `L`.
    pub fn column_sums(&self) -> Request {
        let mut sums = vec![0u32; self.m];
        for row in self.data.chunks_exact(self.m.max(1)) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s = s.checked_add(v).expect("availability overflow");
            }
        }
        Request::from_counts(sums)
    }

    /// Total VMs on `node` across all types: `Σ_j C_ij`, the weight used by
    /// the cluster-distance metric.
    #[inline]
    pub fn node_total(&self, node: NodeId) -> u32 {
        self.row(node).iter().sum()
    }

    /// Total VM count in the whole matrix.
    pub fn total(&self) -> u64 {
        self.data.iter().map(|&v| u64::from(v)).sum()
    }

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }

    /// Elementwise checked addition (e.g. merging an allocation into the
    /// global `C`).
    ///
    /// # Panics
    /// Panics if dimensions differ or on overflow.
    pub fn checked_add_assign(&mut self, other: &Self) {
        assert_eq!((self.n, self.m), (other.n, other.m), "dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = a.checked_add(b).expect("VM count overflow");
        }
    }

    /// Elementwise checked subtraction (e.g. releasing an allocation).
    ///
    /// # Panics
    /// Panics if dimensions differ or any entry would underflow.
    #[cfg(test)]
    pub(crate) fn checked_sub_assign(&mut self, other: &Self) {
        assert_eq!((self.n, self.m), (other.n, other.m), "dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = a.checked_sub(b).expect("VM count underflow");
        }
    }

    /// Iterate over all non-zero entries as `(node, type, count)`.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, VmTypeId, u32)> + '_ {
        self.data
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(move |(o, &v)| {
                (
                    NodeId::from_index(o / self.m),
                    VmTypeId::from_index(o % self.m),
                    v,
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResourceMatrix {
        ResourceMatrix::from_rows(&[vec![2, 2, 0], vec![0, 2, 0], vec![0, 0, 1]])
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = ResourceMatrix::zeros(2, 2);
        m.set(NodeId(1), VmTypeId(0), 5);
        assert_eq!(m.get(NodeId(1), VmTypeId(0)), 5);
        assert_eq!(m.get(NodeId(0), VmTypeId(0)), 0);
    }

    #[test]
    fn add_sub() {
        let mut m = ResourceMatrix::zeros(1, 1);
        m.add(NodeId(0), VmTypeId(0), 3);
        m.sub(NodeId(0), VmTypeId(0), 1);
        assert_eq!(m.get(NodeId(0), VmTypeId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let mut m = ResourceMatrix::zeros(1, 1);
        m.sub(NodeId(0), VmTypeId(0), 1);
    }

    #[test]
    fn column_sums_is_availability() {
        let a = sample().column_sums();
        assert_eq!(a.counts(), &[2, 4, 1]);
    }

    #[test]
    fn node_total_and_total() {
        let m = sample();
        assert_eq!(m.node_total(NodeId(0)), 4);
        assert_eq!(m.node_total(NodeId(2)), 1);
        assert_eq!(m.total(), 7);
    }

    #[test]
    fn add_sub_assign_roundtrip() {
        let base = sample();
        let mut acc = ResourceMatrix::zeros(3, 3);
        acc.checked_add_assign(&base);
        assert_eq!(acc, base);
        acc.checked_sub_assign(&base);
        assert!(acc.is_zero());
    }

    #[test]
    fn saturating_diff_is_l_equals_m_minus_c() {
        let m = sample();
        let mut c = ResourceMatrix::zeros(3, 3);
        c.set(NodeId(0), VmTypeId(0), 1);
        let mut l = m.clone();
        l.checked_sub_assign(&c);
        assert_eq!(l.get(NodeId(0), VmTypeId(0)), 1);
        assert_eq!(l.get(NodeId(0), VmTypeId(1)), 2);
    }

    #[test]
    fn entries_nonzero_only() {
        let m = sample();
        let e: Vec<_> = m.entries().collect();
        assert_eq!(e.len(), 4);
        assert_eq!(e[0], (NodeId(0), VmTypeId(0), 2));
        assert_eq!(e[3], (NodeId(2), VmTypeId(2), 1));
    }

    #[test]
    fn row_request_matches_row() {
        let m = sample();
        assert_eq!(m.row_request(NodeId(0)).counts(), m.row(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_rejected() {
        let _ = ResourceMatrix::from_rows(&[vec![1, 2], vec![3]]);
    }
}
