//! Cloud-wide resource accounting: capacity `M`, usage `C`, remaining `L`.

use crate::{Allocation, ModelError, PlacementIndex, Request, ResourceMatrix, VmCatalog};
use std::sync::Arc;
use vc_topology::{NodeId, Topology};

/// The provider-side view of the cloud: the physical [`Topology`], the VM
/// [`VmCatalog`], the per-node capacity matrix `M`, and the aggregate
/// allocation matrix `C` (sum of all live allocations).
///
/// Invariant: `C ≤ M` elementwise at all times; `L = M − C`, the
/// [`PlacementIndex`] aggregates, the capacity column sums and the used
/// total are maintained incrementally alongside every mutation, so
/// [`remaining`](Self::remaining), [`index`](Self::index),
/// [`fits_capacity`](Self::fits_capacity) and
/// [`used_total`](Self::used_total) cost no pass over the nodes.
/// Committing or releasing an allocation touches only its entries.
#[derive(Debug, Clone)]
pub struct ClusterState {
    topology: Arc<Topology>,
    catalog: Arc<VmCatalog>,
    capacity: ResourceMatrix,
    used: ResourceMatrix,
    remaining: ResourceMatrix,
    index: PlacementIndex,
    /// Column sums of `M`: the per-type capacity of the whole cloud.
    capacity_sums: Request,
    /// `Σ C`: VMs currently allocated.
    used_total: u64,
}

impl ClusterState {
    /// Create a cluster with the given capacity matrix and nothing
    /// allocated.
    ///
    /// # Panics
    /// Panics if the capacity matrix dimensions disagree with the topology
    /// node count or catalogue type count.
    pub fn new(topology: Arc<Topology>, catalog: Arc<VmCatalog>, capacity: ResourceMatrix) -> Self {
        assert_eq!(
            capacity.num_nodes(),
            topology.num_nodes(),
            "capacity rows != node count"
        );
        assert_eq!(
            capacity.num_types(),
            catalog.len(),
            "capacity cols != type count"
        );
        let used = ResourceMatrix::zeros(capacity.num_nodes(), capacity.num_types());
        let remaining = capacity.clone();
        let index = PlacementIndex::build(&topology, &remaining);
        let capacity_sums = Request::from_counts(index.availability().to_vec());
        Self {
            topology,
            catalog,
            capacity,
            used,
            remaining,
            index,
            capacity_sums,
            used_total: 0,
        }
    }

    /// A cluster where every node can host `per_node` instances of every
    /// type.
    pub fn uniform_capacity(
        topology: Arc<Topology>,
        catalog: Arc<VmCatalog>,
        per_node: u32,
    ) -> Self {
        let cap =
            ResourceMatrix::from_rows(&vec![vec![per_node; catalog.len()]; topology.num_nodes()]);
        Self::new(topology, catalog, cap)
    }

    /// The physical topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Shared handle to the topology.
    #[inline]
    pub fn topology_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    /// The VM type catalogue.
    #[inline]
    pub fn catalog(&self) -> &VmCatalog {
        &self.catalog
    }

    /// Number of physical nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Number of VM types `m`.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.catalog.len()
    }

    /// The capacity matrix `M`.
    #[inline]
    pub fn capacity(&self) -> &ResourceMatrix {
        &self.capacity
    }

    /// The aggregate allocation matrix `C`.
    #[inline]
    pub fn used(&self) -> &ResourceMatrix {
        &self.used
    }

    /// Total VMs currently allocated (`Σ C`, equal to
    /// `used().total()`), maintained incrementally.
    #[inline]
    pub fn used_total(&self) -> u64 {
        self.used_total
    }

    /// The remaining matrix `L = M − C`, maintained incrementally.
    #[inline]
    pub fn remaining(&self) -> &ResourceMatrix {
        &self.remaining
    }

    /// The incrementally maintained [`PlacementIndex`] over `L`.
    #[inline]
    pub fn index(&self) -> &PlacementIndex {
        &self.index
    }

    /// The availability vector `A` (`A_j = Σ_i L_ij`).
    pub fn availability(&self) -> Request {
        Request::from_counts(self.index.availability().to_vec())
    }

    /// Whether the request could *ever* be satisfied (`R_j ≤ Σ_i M_ij`).
    /// The paper refuses requests failing this test. Costs `O(m)`.
    pub fn fits_capacity(&self, request: &Request) -> bool {
        request.num_types() == self.num_types() && request.le(&self.capacity_sums)
    }

    /// Whether the request can be satisfied *now* (`R_j ≤ A_j`). The paper
    /// queues requests failing this test (but passing
    /// [`fits_capacity`](Self::fits_capacity)).
    pub fn can_satisfy(&self, request: &Request) -> bool {
        request.num_types() == self.num_types() && request.le(&self.availability())
    }

    /// Check that `allocation` could be committed now: its dimensions
    /// match the cloud and no node would be over-committed. Costs
    /// `O(entries)`; changes nothing.
    pub fn check_allocate(&self, allocation: &Allocation) -> Result<(), ModelError> {
        self.check(allocation, &self.remaining, |node| {
            ModelError::NodeOverCommit { node }
        })
    }

    /// Validate dimensions, then every entry against `bound` (the
    /// remaining matrix for a commit, the used one for a release).
    fn check(
        &self,
        allocation: &Allocation,
        bound: &ResourceMatrix,
        err: impl Fn(NodeId) -> ModelError,
    ) -> Result<(), ModelError> {
        let m = allocation.matrix();
        if m.num_nodes() != self.num_nodes() || m.num_types() != self.num_types() {
            return Err(ModelError::DimensionMismatch);
        }
        match m
            .entries()
            .find(|&(node, ty, count)| count > bound.get(node, ty))
        {
            Some((node, _, _)) => Err(err(node)),
            None => Ok(()),
        }
    }

    /// Commit an allocation, consuming resources.
    ///
    /// Validates dimensions and per-node remaining capacity; on error the
    /// state is unchanged. Touches only the allocation's entries and the
    /// racks they lie in.
    pub fn allocate(&mut self, allocation: &Allocation) -> Result<(), ModelError> {
        self.check_allocate(allocation)?;
        let m = allocation.matrix();
        for (node, ty, count) in m.entries() {
            self.used.add(node, ty, count);
            self.remaining.sub(node, ty, count);
        }
        self.used_total += m.total();
        self.index.record_delta(m, true, &self.remaining);
        Ok(())
    }

    /// Release a previously committed allocation, freeing resources.
    ///
    /// Validates that the release does not underflow any node; on error the
    /// state is unchanged.
    pub fn release(&mut self, allocation: &Allocation) -> Result<(), ModelError> {
        self.check(allocation, &self.used, |node| ModelError::ReleaseMismatch {
            node,
        })?;
        let m = allocation.matrix();
        for (node, ty, count) in m.entries() {
            self.used.sub(node, ty, count);
            self.remaining.add(node, ty, count);
        }
        self.used_total -= m.total();
        self.index.record_delta(m, false, &self.remaining);
        Ok(())
    }

    /// Fraction of total VM slots currently allocated, in `[0, 1]`.
    /// Returns 0 for a zero-capacity cloud.
    pub fn utilization(&self) -> f64 {
        let cap: u64 = self
            .capacity_sums
            .counts()
            .iter()
            .map(|&c| u64::from(c))
            .sum();
        if cap == 0 {
            0.0
        } else {
            self.used_total as f64 / cap as f64
        }
    }

    /// Take a physical node out of service: its capacity drops to zero and
    /// any VMs it was running are lost. Returns the per-type counts that
    /// were running there, so the provider can repair the affected
    /// allocations (see `vc-placement`'s migration module).
    ///
    /// The paper lists this as future work ("how to compute \[distances\]
    /// when some VMs are down or reconfigured is critical for the VM
    /// placement policy" — §VII).
    pub fn fail_node(&mut self, node: NodeId) -> Request {
        let old_remaining = self.remaining.row(node).to_vec();
        let mut lost = Vec::with_capacity(self.num_types());
        let old_capacity = self.capacity.row_request(node);
        for j in 0..self.num_types() {
            let t = crate::VmTypeId::from_index(j);
            lost.push(self.used.get(node, t));
            self.used.set(node, t, 0);
            self.capacity.set(node, t, 0);
            self.remaining.set(node, t, 0);
        }
        self.capacity_sums.checked_sub_assign(&old_capacity);
        let lost = Request::from_counts(lost);
        self.used_total -= lost.counts().iter().map(|&c| u64::from(c)).sum::<u64>();
        self.index.replace_row(
            node,
            &old_remaining,
            &vec![0; self.num_types()],
            &self.remaining,
        );
        lost
    }

    /// Return a previously failed (or reconfigured) node to service with
    /// the given per-type capacity. Nothing is scheduled onto it until a
    /// placement decision does so.
    ///
    /// # Panics
    /// Panics if `capacity` has the wrong number of types.
    pub fn restore_node(&mut self, node: NodeId, capacity: &Request) {
        assert_eq!(
            capacity.num_types(),
            self.num_types(),
            "type count mismatch"
        );
        assert!(
            self.used.row(node).iter().all(|&u| u == 0),
            "restoring a node with live VMs"
        );
        let old_remaining = self.remaining.row(node).to_vec();
        self.capacity_sums
            .checked_sub_assign(&self.capacity.row_request(node));
        self.capacity_sums.checked_add_assign(capacity);
        for (j, &c) in capacity.counts().iter().enumerate() {
            let t = crate::VmTypeId::from_index(j);
            self.capacity.set(node, t, c);
            self.remaining.set(node, t, c);
        }
        self.index
            .replace_row(node, &old_remaining, capacity.counts(), &self.remaining);
    }

    /// Remaining capacity on one node as a [`Request`] vector (`L[i]`).
    pub fn remaining_at(&self, node: NodeId) -> Request {
        Request::from_counts(self.remaining.row(node).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SparseMatrix, VmTypeId};
    use vc_topology::{generate, DistanceTiers};

    fn state() -> ClusterState {
        let topo = Arc::new(generate::uniform(2, 2, DistanceTiers::default()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::uniform_capacity(topo, cat, 2)
    }

    fn alloc(rows: &[Vec<u32>]) -> Allocation {
        Allocation::new(ResourceMatrix::from_rows(rows), NodeId(0))
    }

    #[test]
    fn fresh_state_fully_available() {
        let s = state();
        assert_eq!(s.availability().counts(), &[8, 8, 8]);
        assert_eq!(s.utilization(), 0.0);
        assert!(*s.remaining() == *s.capacity());
    }

    #[test]
    fn allocate_then_release_roundtrip() {
        let mut s = state();
        let a = alloc(&[vec![1, 0, 0], vec![0, 2, 0], vec![0, 0, 0], vec![0, 0, 1]]);
        s.allocate(&a).unwrap();
        assert_eq!(s.availability().counts(), &[7, 6, 7]);
        assert!(s.utilization() > 0.0);
        s.release(&a).unwrap();
        assert_eq!(s.availability().counts(), &[8, 8, 8]);
    }

    #[test]
    fn overcommit_rejected_atomically() {
        let mut s = state();
        let a = alloc(&[vec![3, 0, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        let err = s.allocate(&a).unwrap_err();
        assert_eq!(err, ModelError::NodeOverCommit { node: NodeId(0) });
        // state unchanged
        assert_eq!(s.used().total(), 0);
    }

    #[test]
    fn release_mismatch_rejected() {
        let mut s = state();
        let a = alloc(&[vec![1, 0, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        let err = s.release(&a).unwrap_err();
        assert_eq!(err, ModelError::ReleaseMismatch { node: NodeId(0) });
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut s = state();
        let a = Allocation::new(ResourceMatrix::zeros(2, 3), NodeId(0));
        assert_eq!(s.allocate(&a).unwrap_err(), ModelError::DimensionMismatch);
        assert_eq!(s.release(&a).unwrap_err(), ModelError::DimensionMismatch);
    }

    #[test]
    fn fits_capacity_vs_can_satisfy() {
        let mut s = state();
        // fill node 0's type-0 slots
        let a = alloc(&[vec![2, 0, 0], vec![2, 0, 0], vec![2, 0, 0], vec![2, 0, 0]]);
        s.allocate(&a).unwrap();
        let r = Request::from_counts(vec![1, 0, 0]);
        assert!(s.fits_capacity(&r)); // M allows it
        assert!(!s.can_satisfy(&r)); // but L is exhausted -> queue
    }

    #[test]
    fn wrong_length_request_never_satisfiable() {
        let s = state();
        let r = Request::from_counts(vec![1]);
        assert!(!s.fits_capacity(&r));
        assert!(!s.can_satisfy(&r));
    }

    #[test]
    fn remaining_at_node() {
        let mut s = state();
        let a = alloc(&[vec![1, 2, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        s.allocate(&a).unwrap();
        assert_eq!(s.remaining_at(NodeId(0)).counts(), &[1, 0, 2]);
        assert_eq!(s.remaining_at(NodeId(1)).counts(), &[2, 2, 2]);
    }

    #[test]
    fn fail_node_drops_capacity_and_reports_losses() {
        let mut s = state();
        let a = alloc(&[vec![1, 2, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        s.allocate(&a).unwrap();
        let lost = s.fail_node(NodeId(0));
        assert_eq!(lost.counts(), &[1, 2, 0]);
        assert_eq!(s.remaining_at(NodeId(0)).counts(), &[0, 0, 0]);
        assert_eq!(s.capacity().row(NodeId(0)), &[0, 0, 0]);
        // Other nodes untouched.
        assert_eq!(s.remaining_at(NodeId(1)).counts(), &[2, 2, 2]);
    }

    #[test]
    fn restore_node_brings_capacity_back() {
        let mut s = state();
        s.fail_node(NodeId(2));
        s.restore_node(NodeId(2), &Request::from_counts(vec![1, 1, 1]));
        assert_eq!(s.remaining_at(NodeId(2)).counts(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "live VMs")]
    fn restore_busy_node_panics() {
        let mut s = state();
        let a = alloc(&[vec![1, 0, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        s.allocate(&a).unwrap();
        s.restore_node(NodeId(0), &Request::from_counts(vec![2, 2, 2]));
    }

    #[test]
    fn index_stays_consistent_through_mutations() {
        let mut s = state();
        let a = alloc(&[vec![1, 2, 0], vec![0, 1, 1], vec![0, 0, 0], vec![2, 0, 0]]);
        s.allocate(&a).unwrap();
        s.index().assert_consistent(s.topology(), s.remaining());
        s.release(&a).unwrap();
        s.index().assert_consistent(s.topology(), s.remaining());
        s.fail_node(NodeId(1));
        s.index().assert_consistent(s.topology(), s.remaining());
        s.restore_node(NodeId(1), &Request::from_counts(vec![1, 0, 2]));
        s.index().assert_consistent(s.topology(), s.remaining());
    }

    #[test]
    fn availability_matches_remaining_column_sums() {
        let mut s = state();
        let a = alloc(&[vec![1, 1, 1], vec![1, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        s.allocate(&a).unwrap();
        assert_eq!(s.availability(), s.remaining().column_sums());
        let _ = VmTypeId(0);
    }

    #[test]
    fn used_total_and_capacity_sums_track_mutations() {
        let mut s = state();
        let a = alloc(&[vec![1, 2, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 1]]);
        s.allocate(&a).unwrap();
        assert_eq!(s.used_total(), 4);
        assert_eq!(s.used_total(), s.used().total());
        s.fail_node(NodeId(0));
        assert_eq!(s.used_total(), 1);
        assert!(!s.fits_capacity(&Request::from_counts(vec![7, 0, 0])));
        assert!(s.fits_capacity(&Request::from_counts(vec![6, 6, 6])));
        s.restore_node(NodeId(0), &Request::from_counts(vec![3, 0, 0]));
        assert!(s.fits_capacity(&Request::from_counts(vec![9, 6, 6])));
        assert!(!s.fits_capacity(&Request::from_counts(vec![0, 7, 0])));
    }

    #[test]
    fn check_allocate_validates_without_committing() {
        let s = state();
        let ok = alloc(&[vec![2, 0, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        let over = alloc(&[vec![0, 0, 0], vec![0, 3, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        assert_eq!(s.check_allocate(&ok), Ok(()));
        assert_eq!(
            s.check_allocate(&over),
            Err(ModelError::NodeOverCommit { node: NodeId(1) })
        );
        assert_eq!(s.used_total(), 0);
    }

    /// The dense bookkeeping every commit used to do — whole-matrix
    /// add/subtract, a fresh index and fresh column sums — as a reference
    /// for the sparse path.
    struct DenseRef {
        capacity: ResourceMatrix,
        used: ResourceMatrix,
        remaining: ResourceMatrix,
    }

    impl DenseRef {
        /// Commit (`allocate`) or release a dense delta, validating first.
        fn apply(&mut self, delta: &ResourceMatrix, allocate: bool) -> Result<(), ModelError> {
            if (delta.num_nodes(), delta.num_types())
                != (self.used.num_nodes(), self.used.num_types())
            {
                return Err(ModelError::DimensionMismatch);
            }
            let bound = if allocate {
                &self.remaining
            } else {
                &self.used
            };
            if let Some((node, _, _)) = delta.entries().find(|&(i, j, c)| c > bound.get(i, j)) {
                return Err(if allocate {
                    ModelError::NodeOverCommit { node }
                } else {
                    ModelError::ReleaseMismatch { node }
                });
            }
            let (grow, shrink) = if allocate {
                (&mut self.used, &mut self.remaining)
            } else {
                (&mut self.remaining, &mut self.used)
            };
            grow.checked_add_assign(delta);
            shrink.checked_sub_assign(delta);
            Ok(())
        }
    }

    fn assert_matches(s: &ClusterState, r: &DenseRef) {
        assert_eq!(s.capacity(), &r.capacity);
        assert_eq!(s.used(), &r.used);
        assert_eq!(s.remaining(), &r.remaining);
        assert_eq!(s.used_total(), r.used.total());
        assert_eq!(s.availability(), r.remaining.column_sums());
        let sums = r.capacity.column_sums();
        assert!(s.fits_capacity(&sums));
        for j in 0..sums.num_types() {
            let mut over = sums.counts().to_vec();
            over[j] += 1;
            assert!(!s.fits_capacity(&Request::from_counts(over)));
        }
        s.index().assert_consistent(s.topology(), s.remaining());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Sparse commits equal dense ones: random allocate / release /
        /// fail / restore sequences over uneven multi-cloud racks (empty
        /// and single-node ones included) leave the same capacity, used
        /// and remaining matrices, the same column sums and an index equal
        /// to a fresh build, and every error — over-commit, release
        /// mismatch, an entry past the last node — fires in the same case
        /// and leaves both states unchanged.
        #[test]
        fn sparse_commit_matches_dense(
            node_racks in proptest::collection::vec(0usize..5, 1..12),
            rack_clouds in proptest::collection::vec(0usize..2, 5),
            cap in 1u32..4,
            ops in proptest::collection::vec(
                (0u8..6, proptest::collection::vec((0usize..13, 0usize..3, 1u32..4), 0..5)),
                1..24,
            ),
        ) {
            use vc_topology::TopologyBuilder;
            let mut b = TopologyBuilder::new(vc_topology::DistanceTiers::default());
            let clouds = [b.add_cloud("c0"), b.add_cloud("c1")];
            let racks: Vec<_> = rack_clouds.iter().map(|&c| b.add_rack(clouds[c])).collect();
            for &r in &node_racks {
                b.add_node(racks[r]);
            }
            let topo = Arc::new(b.build());
            let n = topo.num_nodes();
            let mut s = ClusterState::uniform_capacity(
                Arc::clone(&topo),
                Arc::new(VmCatalog::ec2_table1()),
                cap,
            );
            let mut r = DenseRef {
                capacity: s.capacity().clone(),
                used: ResourceMatrix::zeros(n, 3),
                remaining: s.capacity().clone(),
            };
            let mut live: Vec<Allocation> = Vec::new();
            for (kind, cells) in ops {
                // Cells past the last node exercise the out-of-range case.
                let rows = if kind == 5 { n + 1 } else { n };
                let mut dense = ResourceMatrix::zeros(rows, 3);
                for &(i, j, c) in &cells {
                    dense.add(NodeId::from_index(i % rows), VmTypeId::from_index(j), c);
                }
                let sparse = Allocation::new(
                    SparseMatrix::from_entries(rows, 3, dense.entries()),
                    NodeId(0),
                );
                match kind {
                    // Commit (often over-committing a node).
                    0 | 1 | 5 => {
                        let got = s.allocate(&sparse);
                        proptest::prop_assert_eq!(&got, &r.apply(&dense, true));
                        if got.is_ok() {
                            live.push(sparse);
                        }
                    }
                    // Release a live allocation.
                    2 if !live.is_empty() => {
                        let a = live.remove(cells.len() % live.len());
                        let got = s.release(&a);
                        proptest::prop_assert_eq!(&got, &r.apply(&a.matrix().to_dense(), false));
                    }
                    // Release something never committed.
                    2 | 3 => {
                        let got = s.release(&sparse);
                        proptest::prop_assert_eq!(&got, &r.apply(&dense, false));
                    }
                    // A node fails (its tenants' VMs are lost), then returns
                    // with a new capacity.
                    _ => {
                        let node = NodeId::from_index(cells.len() % n);
                        s.fail_node(node);
                        for j in (0..3).map(VmTypeId::from_index) {
                            r.used.set(node, j, 0);
                            r.capacity.set(node, j, 0);
                            r.remaining.set(node, j, 0);
                        }
                        live.clear();
                        assert_matches(&s, &r);
                        let fresh: Vec<u32> = (0..3).map(|j| (cells.len() as u32 + j) % 4).collect();
                        s.restore_node(node, &Request::from_counts(fresh.clone()));
                        for (j, &c) in fresh.iter().enumerate() {
                            r.capacity.set(node, VmTypeId::from_index(j), c);
                            r.remaining.set(node, VmTypeId::from_index(j), c);
                        }
                        // Release what is left so `live` stays consistent.
                        let rest = Allocation::new(r.used.clone(), NodeId(0));
                        s.release(&rest).unwrap();
                        r.apply(&rest.matrix().to_dense(), false).unwrap();
                    }
                }
                assert_matches(&s, &r);
            }
        }
    }
}
