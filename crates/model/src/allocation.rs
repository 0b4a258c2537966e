//! A per-request allocation: a sparse `C` matrix plus its central node.

use crate::{Request, SparseMatrix, VmTypeId};
use vc_topology::{NodeId, Topology};

/// The result of provisioning one request: which node hosts how many VMs of
/// each type, and which node acts as the *central node* (`N_k`) — the
/// master of the MapReduce virtual cluster.
///
/// The matrix is sparse: its size, and the cost of committing it, follow
/// the request's VM count rather than the cloud's node count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    matrix: SparseMatrix,
    center: NodeId,
}

impl Allocation {
    /// Bundle an allocation matrix (sparse, or a dense
    /// [`ResourceMatrix`](crate::ResourceMatrix)) with its central node.
    ///
    /// # Panics
    /// Panics if `center` is out of range for the matrix.
    pub fn new(matrix: impl Into<SparseMatrix>, center: NodeId) -> Self {
        let matrix = matrix.into();
        assert!(
            center.index() < matrix.num_nodes(),
            "central node out of range"
        );
        Self { matrix, center }
    }

    /// The allocation matrix `C`.
    #[inline]
    pub fn matrix(&self) -> &SparseMatrix {
        &self.matrix
    }

    /// Mutable access to the allocation matrix (used by the Theorem-2
    /// exchange step, which moves VMs between clusters).
    #[inline]
    pub fn matrix_mut(&mut self) -> &mut SparseMatrix {
        &mut self.matrix
    }

    /// The central node `N_k`.
    #[inline]
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// Re-designate the central node.
    ///
    /// # Panics
    /// Panics if `center` is out of range.
    pub fn set_center(&mut self, center: NodeId) {
        assert!(
            center.index() < self.matrix.num_nodes(),
            "central node out of range"
        );
        self.center = center;
    }

    /// Total VMs in this cluster.
    pub fn total_vms(&self) -> u64 {
        self.matrix.total()
    }

    /// Whether this allocation delivers exactly the requested counts
    /// (`Σ_i C_ij = R_j` for all `j`).
    pub fn satisfies(&self, request: &Request) -> bool {
        self.matrix.column_sums() == *request
    }

    /// Expand to individual VM placements `(node, type)`, one entry per VM,
    /// ordered by node then type. This is how the MapReduce simulator
    /// instantiates the virtual cluster.
    pub fn placements(&self) -> Vec<(NodeId, VmTypeId)> {
        let mut out = Vec::with_capacity(self.total_vms() as usize);
        for (node, ty, count) in self.matrix.entries() {
            for _ in 0..count {
                out.push((node, ty));
            }
        }
        out
    }

    /// Number of distinct physical nodes hosting at least one VM.
    pub fn span(&self) -> usize {
        self.matrix.node_totals().count()
    }

    /// Number of distinct racks hosting at least one VM.
    pub fn rack_span(&self, topo: &Topology) -> usize {
        let mut racks: Vec<_> = self
            .matrix
            .node_totals()
            .map(|(n, _)| topo.rack_of(n))
            .collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceMatrix;
    use vc_topology::{generate, DistanceTiers};

    fn sample() -> Allocation {
        // Fig. 1's DC1 allocation: N0 hosts 2·V0+2·V1, N1 hosts 2·V1, N2 hosts 1·V2.
        Allocation::new(
            ResourceMatrix::from_rows(&[vec![2, 2, 0], vec![0, 2, 0], vec![0, 0, 1]]),
            NodeId(0),
        )
    }

    #[test]
    fn satisfies_request() {
        let a = sample();
        assert!(a.satisfies(&Request::from_counts(vec![2, 4, 1])));
        assert!(!a.satisfies(&Request::from_counts(vec![2, 4, 2])));
    }

    #[test]
    fn placements_one_per_vm() {
        let a = sample();
        let p = a.placements();
        assert_eq!(p.len(), 7);
        assert_eq!(p[0], (NodeId(0), VmTypeId(0)));
        assert_eq!(p[6], (NodeId(2), VmTypeId(2)));
        assert_eq!(p.iter().filter(|&&(_, t)| t == VmTypeId(1)).count(), 4);
    }

    #[test]
    fn span_counts_nodes_and_racks() {
        let a = sample();
        assert_eq!(a.span(), 3);
        let topo = generate::uniform(2, 2, DistanceTiers::default());
        // nodes 0,1 in rack 0; node 2 in rack 1
        assert_eq!(a.rack_span(&topo), 2);
    }

    #[test]
    fn set_center() {
        let mut a = sample();
        a.set_center(NodeId(2));
        assert_eq!(a.center(), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "central node out of range")]
    fn center_out_of_range_panics() {
        let _ = Allocation::new(ResourceMatrix::zeros(2, 1), NodeId(5));
    }

    #[test]
    fn total_vms() {
        assert_eq!(sample().total_vms(), 7);
    }
}
