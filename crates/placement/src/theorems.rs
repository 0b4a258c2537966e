//! The paper's Theorems 1 and 2 as checkable predicates.
//!
//! These functions compute both sides of each theorem's inequality so
//! property tests (and curious users) can verify the claims on arbitrary
//! topologies and allocations, rather than trusting the proofs.

use crate::distance::distance_with_center;
use vc_model::{SparseMatrix, VmTypeId};
use vc_topology::{NodeId, Topology};

/// **Theorem 1** (paper §IV-A): with a fixed centre `N_x`, moving one VM
/// of type `r` from node `N_q` to node `N_p` changes the cluster distance
/// by exactly `D[x][p] − D[x][q]`; in particular it *decreases* whenever
/// `p` is nearer the centre than `q`.
///
/// Returns `(before, after)` distances, both measured from `center`.
///
/// # Panics
/// Panics if the matrix holds no type-`r` VM on `from` to move.
pub fn theorem1_move(
    matrix: &SparseMatrix,
    topo: &Topology,
    center: NodeId,
    from: NodeId,
    to: NodeId,
    ty: VmTypeId,
) -> (u64, u64) {
    assert!(matrix.get(from, ty) > 0, "no VM of {ty} on {from} to move");
    let before = distance_with_center(matrix, topo, center);
    let mut moved = matrix.clone();
    moved.sub(from, ty, 1);
    moved.add(to, ty, 1);
    let after = distance_with_center(&moved, topo, center);
    (before, after)
}

/// The exact delta Theorem 1 predicts for [`theorem1_move`]:
/// `after − before = D[x][to] − D[x][from]`.
pub fn theorem1_predicted_delta(topo: &Topology, center: NodeId, from: NodeId, to: NodeId) -> i64 {
    i64::from(topo.distance(center, to)) - i64::from(topo.distance(center, from))
}

/// **Theorem 2** (paper §IV-B): for clusters centred at `N_x` and `N_y`
/// exchanging a VM via node `N_k`, the summed distance drops by
/// `D[x][y] + D[y][k] − D[x][k]`, which is positive exactly when the
/// triangle `x, y, k` satisfies the strict inequality.
///
/// Returns that predicted gain (possibly negative — the exchange would
/// then hurt).
pub fn theorem2_predicted_gain(topo: &Topology, x: NodeId, y: NodeId, k: NodeId) -> i64 {
    i64::from(topo.distance(x, y)) + i64::from(topo.distance(y, k)) - i64::from(topo.distance(x, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::{generate, DistanceTiers};

    fn topo() -> Topology {
        generate::heterogeneous(&[2, 2], DistanceTiers::paper_experiment())
    }

    #[test]
    fn theorem1_exact_delta() {
        let t = topo();
        let mut m = SparseMatrix::zeros(4, 1);
        m.add(NodeId(3), VmTypeId(0), 1);
        m.add(NodeId(0), VmTypeId(0), 2);
        // move the stray VM from node 3 (cross rack, d=2) to node 1 (same rack, d=1)
        let (before, after) = theorem1_move(&m, &t, NodeId(0), NodeId(3), NodeId(1), VmTypeId(0));
        assert_eq!(after as i64 - before as i64, -1);
        assert_eq!(
            theorem1_predicted_delta(&t, NodeId(0), NodeId(3), NodeId(1)),
            -1
        );
    }

    #[test]
    fn theorem1_moving_away_increases() {
        let t = topo();
        let mut m = SparseMatrix::zeros(4, 1);
        m.add(NodeId(1), VmTypeId(0), 1);
        let (before, after) = theorem1_move(&m, &t, NodeId(0), NodeId(1), NodeId(2), VmTypeId(0));
        assert!(after > before);
    }

    #[test]
    fn theorem2_gain_on_tiers() {
        let t = topo();
        // x=0, y=2 (cross rack), k=1 (same rack as x): gain = 2 + 2 - 1 = 3.
        assert_eq!(
            theorem2_predicted_gain(&t, NodeId(0), NodeId(2), NodeId(1)),
            3
        );
        // degenerate: k == x -> gain = d_xy + d_yx - 0 = 4 > 0
        assert_eq!(
            theorem2_predicted_gain(&t, NodeId(0), NodeId(2), NodeId(0)),
            4
        );
    }

    #[test]
    #[should_panic(expected = "no VM")]
    fn theorem1_requires_a_vm_to_move() {
        let t = topo();
        let m = SparseMatrix::zeros(4, 1);
        let _ = theorem1_move(&m, &t, NodeId(0), NodeId(1), NodeId(2), VmTypeId(0));
    }
}
