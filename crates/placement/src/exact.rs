//! Exact Shortest-Distance solvers.
//!
//! **Fixed-centre decomposition.** For a fixed centre `N_k` the SD
//! objective is `Σ_i w_i · D_ik` with `w_i = Σ_j x_ij`: every VM placed on
//! node `i` costs `D_ik` *regardless of its type*, and the only coupling
//! between types is that each `(i, j)` cell is capped by `L_ij`
//! independently. The problem therefore decomposes per type into a
//! single-echelon transportation fill whose greedy solution — satisfy
//! `R_j` from nodes in ascending `D_ik` order — is optimal (an exchange
//! argument: moving a VM from a nearer node to a farther one can only
//! increase the objective; this is exactly the paper's Theorem 1).
//! Minimising over all `n` candidate centres yields the global optimum in
//! `O(n² (m + log n))`.
//!
//! [`solve_brute`] enumerates *every* feasible allocation and is
//! exponential — it exists purely to cross-validate the other solvers on
//! tiny instances.

use crate::distance::{cluster_distance, distance_with_center};
use crate::policy::{PlacementError, PlacementPolicy};
use vc_model::{Allocation, ClusterState, Request, ResourceMatrix, VmTypeId};
use vc_topology::NodeId;

/// Solve the SD problem exactly via the fixed-centre decomposition.
///
/// Returns the allocation with minimal `DC` (ties broken towards the
/// smaller centre id), or an error if the request cannot be satisfied.
pub fn solve(request: &Request, state: &ClusterState) -> Result<Allocation, PlacementError> {
    crate::policy::check_admissible(request, state)?;
    let topo = state.topology();
    let remaining = state.remaining();
    let mut best: Option<(u64, Allocation)> = None;

    for center in topo.node_ids() {
        let order = topo.nodes_by_distance(center);
        let mut matrix = ResourceMatrix::zeros(state.num_nodes(), state.num_types());
        let mut satisfied = true;
        for j in 0..state.num_types() {
            let ty = VmTypeId::from_index(j);
            let mut need = request.get(ty);
            for &node in &order {
                if need == 0 {
                    break;
                }
                let take = need.min(remaining.get(node, ty));
                if take > 0 {
                    matrix.set(node, ty, take);
                    need -= take;
                }
            }
            if need > 0 {
                satisfied = false;
                break;
            }
        }
        if !satisfied {
            continue;
        }
        let d = distance_with_center(&matrix, topo, center);
        if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
            best = Some((d, Allocation::new(matrix, center)));
        }
    }

    best.map(|(_, a)| a)
        .ok_or_else(|| PlacementError::Unsatisfiable {
            request: request.clone(),
        })
}

/// Exhaustively enumerate all feasible allocations and return one with
/// minimal `DC` (recomputing the optimal centre for each).
///
/// Exponential in nodes × types × counts — use only on tiny instances
/// (guarded by an internal work limit).
///
/// # Panics
/// Panics if the enumeration would exceed ~10⁷ visited states; this solver
/// is for cross-validation on toy instances only.
pub fn solve_brute(request: &Request, state: &ClusterState) -> Result<Allocation, PlacementError> {
    crate::policy::check_admissible(request, state)?;
    let remaining = state.remaining();
    let n = state.num_nodes();
    let m = state.num_types();

    struct Ctx<'a> {
        remaining: &'a ResourceMatrix,
        state: &'a ClusterState,
        request: &'a Request,
        n: usize,
        m: usize,
        matrix: ResourceMatrix,
        best: Option<(u64, ResourceMatrix, NodeId)>,
        visited: u64,
    }

    /// Distribute `need` remaining VMs of type `ty` over nodes `node..n`,
    /// then advance to the next type; evaluate complete allocations.
    fn recurse(ctx: &mut Ctx<'_>, ty: usize, node: usize, need: u32) {
        ctx.visited += 1;
        assert!(
            ctx.visited < 10_000_000,
            "brute-force enumeration too large"
        );
        if need == 0 {
            let next = ty + 1;
            if next == ctx.m {
                let (d, k) = cluster_distance(&ctx.matrix, ctx.state.topology());
                if ctx.best.as_ref().is_none_or(|(bd, _, _)| d < *bd) {
                    ctx.best = Some((d, ctx.matrix.clone(), k));
                }
            } else {
                let next_need = ctx.request.get(VmTypeId::from_index(next));
                recurse(ctx, next, 0, next_need);
            }
            return;
        }
        if node == ctx.n {
            return; // type unsatisfied along this path
        }
        let nid = NodeId::from_index(node);
        let tyid = VmTypeId::from_index(ty);
        let cap = ctx.remaining.get(nid, tyid).min(need);
        for take in (0..=cap).rev() {
            if take > 0 {
                ctx.matrix.set(nid, tyid, take);
            }
            recurse(ctx, ty, node + 1, need - take);
            ctx.matrix.set(nid, tyid, 0);
        }
    }

    let mut ctx = Ctx {
        remaining,
        state,
        request,
        n,
        m,
        matrix: ResourceMatrix::zeros(n, m),
        best: None,
        visited: 0,
    };
    let first_need = request.get(VmTypeId(0));
    recurse(&mut ctx, 0, 0, first_need);

    ctx.best
        .map(|(_, matrix, k)| Allocation::new(matrix, k))
        .ok_or_else(|| PlacementError::Unsatisfiable {
            request: request.clone(),
        })
}

/// [`PlacementPolicy`] wrapper around the exact solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSd;

impl PlacementPolicy for ExactSd {
    fn name(&self) -> &'static str {
        "exact-sd"
    }

    fn place(
        &self,
        request: &Request,
        state: &ClusterState,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<Allocation, PlacementError> {
        solve(request, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vc_model::VmCatalog;
    use vc_topology::{generate, DistanceTiers};

    fn small_state(capacity_rows: &[Vec<u32>]) -> ClusterState {
        let racks = if capacity_rows.len() >= 4 {
            vec![2, capacity_rows.len() - 2]
        } else {
            vec![capacity_rows.len()]
        };
        let topo = Arc::new(generate::heterogeneous(
            &racks,
            DistanceTiers::paper_experiment(),
        ));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::new(topo, cat, ResourceMatrix::from_rows(capacity_rows))
    }

    #[test]
    fn prefers_single_node() {
        let state = small_state(&[vec![1, 1, 1], vec![5, 5, 5], vec![1, 1, 1], vec![1, 1, 1]]);
        let req = Request::from_counts(vec![2, 2, 1]);
        let alloc = solve(&req, &state).unwrap();
        assert!(alloc.satisfies(&req));
        assert_eq!(alloc.span(), 1);
        assert_eq!(alloc.center(), NodeId(1));
        assert_eq!(
            distance_with_center(alloc.matrix(), state.topology(), alloc.center()),
            0
        );
    }

    #[test]
    fn prefers_same_rack_over_cross_rack() {
        // Nodes 0,1 in rack 0; nodes 2,3 in rack 1.
        let state = small_state(&[vec![2, 0, 0], vec![2, 0, 0], vec![3, 0, 0], vec![1, 0, 0]]);
        let req = Request::from_counts(vec![4, 0, 0]);
        let alloc = solve(&req, &state).unwrap();
        assert!(alloc.satisfies(&req));
        let d = distance_with_center(alloc.matrix(), state.topology(), alloc.center());
        // best: 2+2 in rack 0 -> 2·d1 = 2, or 3+1 in rack 1 -> 1·d1? wait:
        // rack1: node2 provides 3, node3 provides 1 -> centre node2: 1·d1 = 1.
        assert_eq!(d, 1);
        assert_eq!(alloc.center(), NodeId(2));
    }

    #[test]
    fn brute_matches_exact_on_small_instances() {
        let state = small_state(&[vec![1, 1, 0], vec![2, 0, 1], vec![1, 2, 0], vec![0, 1, 1]]);
        for req in [
            Request::from_counts(vec![2, 1, 1]),
            Request::from_counts(vec![1, 0, 0]),
            Request::from_counts(vec![3, 2, 0]),
            Request::from_counts(vec![4, 4, 2]),
        ] {
            let exact = solve(&req, &state);
            let brute = solve_brute(&req, &state);
            match (exact, brute) {
                (Ok(e), Ok(b)) => {
                    let de = distance_with_center(e.matrix(), state.topology(), e.center());
                    let db = distance_with_center(b.matrix(), state.topology(), b.center());
                    assert_eq!(de, db, "request {req}");
                    assert!(e.satisfies(&req) && b.satisfies(&req));
                }
                (Err(_), Err(_)) => {}
                (e, b) => panic!("solver disagreement for {req}: exact={e:?} brute={b:?}"),
            }
        }
    }

    #[test]
    fn over_capacity_refused() {
        let state = small_state(&[vec![1, 0, 0], vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        let req = Request::from_counts(vec![2, 0, 0]);
        assert!(matches!(
            solve(&req, &state),
            Err(PlacementError::Refused { .. })
        ));
        assert!(matches!(
            solve_brute(&req, &state),
            Err(PlacementError::Refused { .. })
        ));
    }

    #[test]
    fn busy_cloud_unsatisfiable() {
        let mut state = small_state(&[vec![1, 0, 0], vec![1, 0, 0], vec![0, 0, 0], vec![0, 0, 0]]);
        let req = Request::from_counts(vec![2, 0, 0]);
        // Occupy one slot so only one remains.
        let first = solve(&Request::from_counts(vec![1, 0, 0]), &state).unwrap();
        state.allocate(&first).unwrap();
        assert!(matches!(
            solve(&req, &state),
            Err(PlacementError::Unsatisfiable { .. })
        ));
        assert!(matches!(
            solve_brute(&req, &state),
            Err(PlacementError::Unsatisfiable { .. })
        ));
    }

    #[test]
    fn policy_trait_name() {
        let p = ExactSd;
        assert_eq!(p.name(), "exact-sd");
    }
}
