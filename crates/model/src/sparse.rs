//! Sparse `n × m` count matrices — a per-request allocation `C` stored as
//! its non-zero entries, so its size follows the request, not the cloud.

use crate::{Request, ResourceMatrix, VmTypeId};
use vc_topology::NodeId;

/// A sparse `n × m` matrix of VM counts: the non-zero `(node, type, count)`
/// entries, sorted by node then type.
///
/// This is how an [`Allocation`](crate::Allocation) holds its `C` matrix:
/// a request for `k` VMs has at most `k` entries, whatever the cloud's
/// size. Reads mirror [`ResourceMatrix`]'s (`get`, `node_total`,
/// `entries`, …) and return the same values as the dense matrix with the
/// same entries; two sparse matrices are equal exactly when their dense
/// forms are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMatrix {
    n: usize,
    m: usize,
    entries: Vec<(NodeId, VmTypeId, u32)>,
}

impl SparseMatrix {
    /// An all-zero `n × m` matrix.
    pub fn zeros(n: usize, m: usize) -> Self {
        Self {
            n,
            m,
            entries: Vec::new(),
        }
    }

    /// Build from `(node, type, count)` triples in any order: repeated
    /// cells add up and zero counts are dropped.
    ///
    /// # Panics
    /// Panics if an index is out of range or a cell overflows `u32`.
    pub fn from_entries(
        n: usize,
        m: usize,
        entries: impl IntoIterator<Item = (NodeId, VmTypeId, u32)>,
    ) -> Self {
        let mut entries: Vec<_> = entries.into_iter().filter(|e| e.2 > 0).collect();
        for &(node, ty, _) in &entries {
            assert!(
                node.index() < n && ty.index() < m,
                "matrix index out of range"
            );
        }
        entries.sort_unstable_by_key(|&(node, ty, _)| (node, ty));
        entries.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 = kept.2.checked_add(later.2).expect("VM count overflow");
            }
            same
        });
        Self { n, m, entries }
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

    /// Position of cell `(node, vm_type)` in `entries`, or where it would
    /// be inserted.
    fn find(&self, node: NodeId, vm_type: VmTypeId) -> Result<usize, usize> {
        assert!(
            node.index() < self.n && vm_type.index() < self.m,
            "matrix index out of range"
        );
        self.entries
            .binary_search_by_key(&(node, vm_type), |&(i, j, _)| (i, j))
    }

    /// Count at `(node, vm_type)`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn get(&self, node: NodeId, vm_type: VmTypeId) -> u32 {
        self.find(node, vm_type).map_or(0, |p| self.entries[p].2)
    }

    /// Add `delta` to the count at `(node, vm_type)`.
    ///
    /// # Panics
    /// Panics on index out of range or `u32` overflow.
    pub fn add(&mut self, node: NodeId, vm_type: VmTypeId, delta: u32) {
        match self.find(node, vm_type) {
            Ok(p) => {
                let c = &mut self.entries[p].2;
                *c = c.checked_add(delta).expect("VM count overflow");
            }
            Err(p) if delta > 0 => self.entries.insert(p, (node, vm_type, delta)),
            Err(_) => {}
        }
    }

    /// Subtract `delta` from the count at `(node, vm_type)`.
    ///
    /// # Panics
    /// Panics on index out of range or underflow below zero.
    pub fn sub(&mut self, node: NodeId, vm_type: VmTypeId, delta: u32) {
        match self.find(node, vm_type) {
            Ok(p) => {
                let c = &mut self.entries[p].2;
                *c = c.checked_sub(delta).expect("VM count underflow");
                if *c == 0 {
                    self.entries.remove(p);
                }
            }
            Err(_) => assert_eq!(delta, 0, "VM count underflow"),
        }
    }

    /// The entries on `node`, in type order.
    fn row_entries(&self, node: NodeId) -> &[(NodeId, VmTypeId, u32)] {
        let lo = self.entries.partition_point(|e| e.0 < node);
        let hi = lo + self.entries[lo..].partition_point(|e| e.0 == node);
        &self.entries[lo..hi]
    }

    /// The row for `node` as a [`Request`] (its per-type counts).
    pub fn row_request(&self, node: NodeId) -> Request {
        assert!(node.index() < self.n, "matrix index out of range");
        let mut row = vec![0; self.m];
        for &(_, ty, count) in self.row_entries(node) {
            row[ty.index()] = count;
        }
        Request::from_counts(row)
    }

    /// Total VMs on `node` across all types: `Σ_j C_ij`.
    pub fn node_total(&self, node: NodeId) -> u32 {
        self.row_entries(node).iter().map(|e| e.2).sum()
    }

    /// `(node, Σ_j C_ij)` for every node hosting a VM, in id order.
    pub fn node_totals(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.entries
            .chunk_by(|a, b| a.0 == b.0)
            .map(|row| (row[0].0, row.iter().map(|e| e.2).sum()))
    }

    /// Column sums: total count per VM type.
    pub fn column_sums(&self) -> Request {
        let mut sums = vec![0u32; self.m];
        for &(_, ty, count) in &self.entries {
            sums[ty.index()] += count;
        }
        Request::from_counts(sums)
    }

    /// Total VM count in the whole matrix.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.2)).sum()
    }

    /// Elementwise `self ≤ other` against a dense matrix (e.g. `C ≤ L`).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn le(&self, other: &ResourceMatrix) -> bool {
        assert_eq!(
            (self.n, self.m),
            (other.num_nodes(), other.num_types()),
            "dimension mismatch"
        );
        self.entries
            .iter()
            .all(|&(node, ty, count)| count <= other.get(node, ty))
    }

    /// Nodes hosting at least one VM, in id order.
    pub fn occupied_nodes(&self) -> Vec<NodeId> {
        self.node_totals().map(|(node, _)| node).collect()
    }

    /// Iterate over all non-zero entries as `(node, type, count)`, ordered
    /// by node then type.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (NodeId, VmTypeId, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// The dense `n × m` form.
    pub fn to_dense(&self) -> ResourceMatrix {
        let mut dense = ResourceMatrix::zeros(self.n, self.m);
        for &(node, ty, count) in &self.entries {
            dense.set(node, ty, count);
        }
        dense
    }
}

/// A node × type count matrix seen through its per-node totals — all
/// that the cluster distance weighs. Implemented by the dense
/// [`ResourceMatrix`] and the sparse [`SparseMatrix`], so distance
/// functions take either.
pub trait NodeTotals {
    /// Number of nodes (rows).
    fn num_nodes(&self) -> usize;

    /// `(node, Σ_j C_ij)` for every node hosting a VM, in id order.
    fn node_totals(&self) -> impl Iterator<Item = (NodeId, u32)> + '_;
}

impl NodeTotals for SparseMatrix {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn node_totals(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        SparseMatrix::node_totals(self)
    }
}

impl NodeTotals for ResourceMatrix {
    fn num_nodes(&self) -> usize {
        ResourceMatrix::num_nodes(self)
    }

    fn node_totals(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        (0..ResourceMatrix::num_nodes(self))
            .map(NodeId::from_index)
            .map(|node| (node, self.node_total(node)))
            .filter(|&(_, total)| total > 0)
    }
}

impl From<&ResourceMatrix> for SparseMatrix {
    fn from(dense: &ResourceMatrix) -> Self {
        Self {
            n: dense.num_nodes(),
            m: dense.num_types(),
            entries: dense.entries().collect(),
        }
    }
}

impl From<ResourceMatrix> for SparseMatrix {
    fn from(dense: ResourceMatrix) -> Self {
        Self::from(&dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense() -> ResourceMatrix {
        ResourceMatrix::from_rows(&[vec![2, 2, 0], vec![0, 0, 0], vec![0, 0, 1]])
    }

    #[test]
    fn reads_match_the_dense_matrix() {
        let d = dense();
        let s = SparseMatrix::from(&d);
        assert_eq!(s.entries().len(), 3);
        assert_eq!(
            s.entries().collect::<Vec<_>>(),
            d.entries().collect::<Vec<_>>()
        );
        for node in (0..3).map(NodeId::from_index) {
            assert_eq!(s.node_total(node), d.node_total(node));
            assert_eq!(s.row_request(node), d.row_request(node));
            for ty in (0..3).map(VmTypeId::from_index) {
                assert_eq!(s.get(node, ty), d.get(node, ty));
            }
        }
        assert_eq!(s.column_sums(), d.column_sums());
        assert_eq!(s.total(), d.total());
        assert_eq!(s.occupied_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(
            s.node_totals().collect::<Vec<_>>(),
            vec![(NodeId(0), 4), (NodeId(2), 1)]
        );
        assert!(s.le(&d));
        let mut tight = d.clone();
        tight.sub(NodeId(2), VmTypeId(2), 1);
        assert!(!s.le(&tight));
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn from_entries_sorts_merges_and_drops_zeros() {
        let s = SparseMatrix::from_entries(
            3,
            3,
            [
                (NodeId(2), VmTypeId(2), 1),
                (NodeId(0), VmTypeId(1), 2),
                (NodeId(1), VmTypeId(0), 0),
                (NodeId(0), VmTypeId(0), 2),
            ],
        );
        assert_eq!(s, SparseMatrix::from(&dense()));
        let merged = SparseMatrix::from_entries(
            1,
            1,
            [(NodeId(0), VmTypeId(0), 1), (NodeId(0), VmTypeId(0), 2)],
        );
        assert_eq!(merged.get(NodeId(0), VmTypeId(0)), 3);
    }

    #[test]
    fn add_and_sub_keep_the_entries_canonical() {
        let mut s = SparseMatrix::from(&dense());
        s.add(NodeId(1), VmTypeId(1), 3);
        s.sub(NodeId(0), VmTypeId(0), 2);
        s.add(NodeId(2), VmTypeId(0), 0);
        let mut d = dense();
        d.add(NodeId(1), VmTypeId(1), 3);
        d.sub(NodeId(0), VmTypeId(0), 2);
        assert_eq!(s, SparseMatrix::from(&d));
        assert_eq!(s.entries().len(), 3);
    }

    #[test]
    fn le_comparison() {
        let d = dense();
        let mut big = SparseMatrix::from(&d);
        assert!(big.le(&d));
        big.add(NodeId(1), VmTypeId(2), 1);
        assert!(!big.le(&d));
        assert!(SparseMatrix::zeros(3, 3).le(&d));
    }

    #[test]
    fn occupied_nodes() {
        let mut s = SparseMatrix::from(&dense());
        s.add(NodeId(1), VmTypeId(0), 1);
        assert_eq!(s.occupied_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(SparseMatrix::zeros(3, 3).occupied_nodes().is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn le_dimension_mismatch_panics() {
        let _ = SparseMatrix::zeros(2, 2).le(&ResourceMatrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        SparseMatrix::zeros(1, 1).sub(NodeId(0), VmTypeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_panics() {
        let _ = SparseMatrix::from_entries(2, 1, [(NodeId(2), VmTypeId(0), 1)]);
    }
}
