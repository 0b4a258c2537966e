//! Cloud-wide resource accounting: capacity `M`, usage `C`, remaining `L`.

use crate::{Allocation, ModelError, PlacementIndex, Request, ResourceMatrix, VmCatalog};
use std::sync::Arc;
use vc_topology::{NodeId, Topology};

/// The provider-side view of the cloud: the physical [`Topology`], the VM
/// [`VmCatalog`], the per-node capacity matrix `M`, and the aggregate
/// allocation matrix `C` (sum of all live allocations).
///
/// Invariant: `C ≤ M` elementwise at all times; `L = M − C` and the
/// [`PlacementIndex`] aggregates are maintained incrementally alongside
/// every mutation, so [`remaining`](Self::remaining) and
/// [`index`](Self::index) are free to read.
#[derive(Debug, Clone)]
pub struct ClusterState {
    topology: Arc<Topology>,
    catalog: Arc<VmCatalog>,
    capacity: ResourceMatrix,
    used: ResourceMatrix,
    remaining: ResourceMatrix,
    index: PlacementIndex,
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
        Self {
            topology,
            catalog,
            capacity,
            used,
            remaining,
            index,
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
    /// The paper refuses requests failing this test.
    pub fn fits_capacity(&self, request: &Request) -> bool {
        request.num_types() == self.num_types() && request.le(&self.capacity.column_sums())
    }

    /// Whether the request can be satisfied *now* (`R_j ≤ A_j`). The paper
    /// queues requests failing this test (but passing
    /// [`fits_capacity`](Self::fits_capacity)).
    pub fn can_satisfy(&self, request: &Request) -> bool {
        request.num_types() == self.num_types() && request.le(&self.availability())
    }

    /// Commit an allocation, consuming resources.
    ///
    /// Validates dimensions and per-node remaining capacity; on error the
    /// state is unchanged.
    pub fn allocate(&mut self, allocation: &Allocation) -> Result<(), ModelError> {
        let m = allocation.matrix();
        if m.num_nodes() != self.num_nodes() || m.num_types() != self.num_types() {
            return Err(ModelError::DimensionMismatch);
        }
        for (node, ty, count) in m.entries() {
            if count > self.remaining.get(node, ty) {
                return Err(ModelError::NodeOverCommit { node });
            }
        }
        self.used.checked_add_assign(m);
        self.remaining.checked_sub_assign(m);
        self.index.record_delta(m, true);
        Ok(())
    }

    /// Release a previously committed allocation, freeing resources.
    ///
    /// Validates that the release does not underflow any node; on error the
    /// state is unchanged.
    pub fn release(&mut self, allocation: &Allocation) -> Result<(), ModelError> {
        let m = allocation.matrix();
        if m.num_nodes() != self.num_nodes() || m.num_types() != self.num_types() {
            return Err(ModelError::DimensionMismatch);
        }
        for (node, ty, count) in m.entries() {
            if count > self.used.get(node, ty) {
                return Err(ModelError::ReleaseMismatch { node });
            }
        }
        self.used.checked_sub_assign(m);
        self.remaining.checked_add_assign(m);
        self.index.record_delta(m, false);
        Ok(())
    }

    /// Fraction of total VM slots currently allocated, in `[0, 1]`.
    /// Returns 0 for a zero-capacity cloud.
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity.total();
        if cap == 0 {
            0.0
        } else {
            self.used.total() as f64 / cap as f64
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
        for j in 0..self.num_types() {
            let t = crate::VmTypeId::from_index(j);
            lost.push(self.used.get(node, t));
            self.used.set(node, t, 0);
            self.capacity.set(node, t, 0);
            self.remaining.set(node, t, 0);
        }
        self.index
            .replace_row(node, &old_remaining, &vec![0; self.num_types()]);
        Request::from_counts(lost)
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
        let old_remaining = self.remaining.row(node).to_vec();
        for (j, &c) in capacity.counts().iter().enumerate() {
            let t = crate::VmTypeId::from_index(j);
            assert_eq!(self.used.get(node, t), 0, "restoring a node with live VMs");
            self.capacity.set(node, t, c);
            self.remaining.set(node, t, c);
        }
        self.index
            .replace_row(node, &old_remaining, capacity.counts());
    }

    /// Remaining capacity on one node as a [`Request`] vector (`L[i]`).
    pub fn remaining_at(&self, node: NodeId) -> Request {
        Request::from_counts(self.remaining.row(node).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmTypeId;
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
}
