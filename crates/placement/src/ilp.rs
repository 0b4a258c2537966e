//! The paper's §III-B integer-programming formulation of the SD problem,
//! solved with the from-scratch [`vc_ilp`] MILP solver.
//!
//! The objective `Σ_i (Σ_j x_ij) · D_ik` couples the allocation to the
//! centre choice `k`; as in the paper's formulation the centre is an
//! explicit decision, which we realise by solving one ILP per candidate
//! centre and taking the best (the standard linearisation of the
//! `min_k` — `n` small transportation-like ILPs whose LP relaxations are
//! integral, so branch & bound typically terminates at the root node).

// Index-based loops mirror the textbook matrix formulations here.
#![allow(clippy::needless_range_loop)]

use crate::distance::distance_with_center;
use crate::policy::{check_admissible, PlacementError, PlacementPolicy};
use vc_ilp::{Cmp, Problem};
use vc_model::{Allocation, ClusterState, Request, ResourceMatrix, VmTypeId};
use vc_topology::NodeId;

/// Solve the SD problem by integer programming.
///
/// Semantically identical to [`crate::exact::solve`]; exists to mirror the
/// paper's formulation and to cross-validate the combinatorial solver.
pub fn solve(request: &Request, state: &ClusterState) -> Result<Allocation, PlacementError> {
    check_admissible(request, state)?;
    let topo = state.topology();
    let remaining = state.remaining();
    let n = state.num_nodes();
    let m = state.num_types();

    let mut best: Option<(u64, Allocation)> = None;
    for center in topo.node_ids() {
        // Build: minimise Σ_ij x_ij · D_{i,center}
        //        s.t.  Σ_i x_ij = R_j            ∀j
        //              0 ≤ x_ij ≤ L_ij           (as variable bounds)
        let mut problem = Problem::minimize();
        let mut vars = vec![vec![]; n];
        for i in 0..n {
            let node = NodeId::from_index(i);
            let dist = f64::from(topo.distance(node, center));
            for j in 0..m {
                let ty = VmTypeId::from_index(j);
                let ub = f64::from(remaining.get(node, ty).min(request.get(ty)));
                vars[i].push(problem.add_int_var(0.0, ub, dist));
            }
        }
        for j in 0..m {
            let terms: Vec<_> = (0..n).map(|i| (vars[i][j], 1.0)).collect();
            problem.add_constraint(
                terms,
                Cmp::Eq,
                f64::from(request.get(VmTypeId::from_index(j))),
            );
        }

        let solution = match problem.solve() {
            Ok(s) => s,
            Err(vc_ilp::SolveError::Infeasible) => continue,
            Err(e) => panic!("SD ILP solver failure for centre {center}: {e}"),
        };

        let mut matrix = ResourceMatrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let v = solution.int_value(vars[i][j]);
                if v > 0 {
                    matrix.set(NodeId::from_index(i), VmTypeId::from_index(j), v as u32);
                }
            }
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

/// [`PlacementPolicy`] wrapper around the ILP solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpSd;

impl PlacementPolicy for IlpSd {
    fn name(&self) -> &'static str {
        "ilp-sd"
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
    use crate::exact;
    use std::sync::Arc;
    use vc_model::VmCatalog;
    use vc_topology::{generate, DistanceTiers};

    fn state(rows: &[Vec<u32>], racks: &[usize]) -> ClusterState {
        let topo = Arc::new(generate::heterogeneous(
            racks,
            DistanceTiers::paper_experiment(),
        ));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::new(topo, cat, ResourceMatrix::from_rows(rows))
    }

    #[test]
    fn ilp_matches_exact_solver() {
        let s = state(
            &[vec![2, 1, 0], vec![1, 0, 1], vec![0, 2, 1], vec![1, 1, 0]],
            &[2, 2],
        );
        for req in [
            Request::from_counts(vec![2, 1, 1]),
            Request::from_counts(vec![1, 0, 0]),
            Request::from_counts(vec![3, 3, 2]),
            Request::from_counts(vec![4, 4, 2]),
        ] {
            let i = solve(&req, &s).unwrap();
            let e = exact::solve(&req, &s).unwrap();
            let di = distance_with_center(i.matrix(), s.topology(), i.center());
            let de = distance_with_center(e.matrix(), s.topology(), e.center());
            assert_eq!(di, de, "ILP {di} != exact {de} for {req}");
            assert!(i.satisfies(&req));
            assert!(i.matrix().le(s.remaining()));
        }
    }

    #[test]
    fn unsatisfiable_propagates() {
        let s = state(&[vec![1, 0, 0], vec![0, 0, 0]], &[2]);
        assert!(matches!(
            solve(&Request::from_counts(vec![2, 0, 0]), &s),
            Err(PlacementError::Refused { .. })
        ));
    }

    #[test]
    fn policy_name() {
        assert_eq!(IlpSd.name(), "ilp-sd");
    }
}
