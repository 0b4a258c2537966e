//! Exact solver for the **Global Shortest Distance** problem (paper
//! §III-C, Definition 4): provision a whole batch of requests at once,
//! minimising the *sum* of cluster distances.
//!
//! The paper formulates GSD as an integer program but concludes a global
//! optimum is impractical online and falls back to Algorithm 2. This
//! module provides the optimum anyway — for small instances — so the
//! heuristic pipeline can be measured against the true bound:
//!
//! * enumerate every assignment of central nodes `(T_1 … T_p) ∈ N^p`
//!   (the only non-convex part of the formulation);
//! * for fixed centres the problem is a transportation program —
//!   `min Σ_k Σ_ij x^k_ij · D_{i,T_k}` subject to per-request demands
//!   `Σ_i x^k_ij = R^k_j` and shared capacities `Σ_k x^k_ij ≤ L_ij` —
//!   solved exactly with the in-repo MILP solver (`vc-ilp`);
//! * keep the best tuple.
//!
//! Complexity is `O(nᵖ · ILP(p·n·m))`: use only where `nᵖ` is small
//! (tests, ablations); [`solve`] panics past 10⁵ centre tuples.

// Index-based loops mirror the textbook matrix formulations here.
#![allow(clippy::needless_range_loop)]

use crate::distance::distance_with_center;
use crate::policy::{check_admissible, PlacementError};
use vc_ilp::{Cmp, Problem};
use vc_model::{Allocation, ClusterState, Request, ResourceMatrix, VmTypeId};
use vc_topology::NodeId;

/// The exact GSD optimum: allocations (aligned with `requests`) and the
/// minimal distance sum.
#[derive(Debug, Clone)]
pub struct GsdSolution {
    /// One allocation per request, in input order.
    pub allocations: Vec<Allocation>,
    /// `GSD(R̃) = Σ_k DC(C^k)` at the optimum.
    pub total_distance: u64,
}

/// Number of centre tuples the enumeration would visit: `n^p`.
fn work_estimate(num_nodes: usize, num_requests: usize) -> u128 {
    (num_nodes as u128).saturating_pow(num_requests as u32)
}

/// Solve GSD exactly.
///
/// Errors with [`PlacementError::Refused`]/
/// [`PlacementError::Unsatisfiable`] if the batch as a whole exceeds
/// capacity/availability (the paper's Definition 4 presumes "there are
/// enough resources for a request set").
///
/// # Panics
/// Panics if the enumeration would exceed ~10⁵ centre tuples — this
/// solver exists for validation on small instances.
pub fn solve(requests: &[Request], state: &ClusterState) -> Result<GsdSolution, PlacementError> {
    let n = state.num_nodes();
    let m = state.num_types();
    let p = requests.len();
    assert!(
        work_estimate(n, p) <= 100_000,
        "GSD enumeration too large: {n}^{p} centre tuples"
    );
    // Admissibility of the combined batch.
    let mut combined = Request::zeros(m);
    for r in requests {
        if r.num_types() != m {
            return Err(PlacementError::Refused { request: r.clone() });
        }
        combined.checked_add_assign(r);
    }
    check_admissible(&combined, state)?;
    if p == 0 {
        return Ok(GsdSolution {
            allocations: vec![],
            total_distance: 0,
        });
    }

    let remaining = state.remaining();
    let topo = state.topology();
    let mut best: Option<GsdSolution> = None;

    // Odometer over centre tuples.
    let mut centers = vec![0usize; p];
    loop {
        // Solve the fixed-centre transportation program.
        let mut problem = Problem::minimize();
        // vars[k][i][j]
        let mut vars = vec![vec![vec![]; n]; p];
        for (k, req) in requests.iter().enumerate() {
            let center = NodeId::from_index(centers[k]);
            for i in 0..n {
                let node = NodeId::from_index(i);
                let dist = f64::from(topo.distance(node, center));
                for j in 0..m {
                    let ty = VmTypeId::from_index(j);
                    let ub = f64::from(remaining.get(node, ty).min(req.get(ty)));
                    vars[k][i].push(problem.add_int_var(0.0, ub, dist));
                }
            }
            for j in 0..m {
                let terms: Vec<_> = (0..n).map(|i| (vars[k][i][j], 1.0)).collect();
                problem.add_constraint(terms, Cmp::Eq, f64::from(req.get(VmTypeId::from_index(j))));
            }
        }
        // Shared capacity: Σ_k x^k_ij ≤ L_ij.
        for i in 0..n {
            let node = NodeId::from_index(i);
            for j in 0..m {
                let ty = VmTypeId::from_index(j);
                let terms: Vec<_> = (0..p).map(|k| (vars[k][i][j], 1.0)).collect();
                problem.add_constraint(terms, Cmp::Le, f64::from(remaining.get(node, ty)));
            }
        }

        if let Ok(solution) = problem.solve() {
            let mut allocations = Vec::with_capacity(p);
            let mut total = 0u64;
            for k in 0..p {
                let mut matrix = ResourceMatrix::zeros(n, m);
                for i in 0..n {
                    for j in 0..m {
                        let v = solution.int_value(vars[k][i][j]);
                        if v > 0 {
                            matrix.set(NodeId::from_index(i), VmTypeId::from_index(j), v as u32);
                        }
                    }
                }
                let center = NodeId::from_index(centers[k]);
                total += distance_with_center(&matrix, topo, center);
                allocations.push(Allocation::new(matrix, center));
            }
            if best.as_ref().is_none_or(|b| total < b.total_distance) {
                best = Some(GsdSolution {
                    allocations,
                    total_distance: total,
                });
            }
        }

        // Advance the odometer.
        let mut pos = 0;
        loop {
            if pos == p {
                let best = best.ok_or_else(|| PlacementError::Unsatisfiable {
                    request: combined.clone(),
                })?;
                return Ok(best);
            }
            centers[pos] += 1;
            if centers[pos] < n {
                break;
            }
            centers[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact, global};
    use std::sync::Arc;
    use vc_model::VmCatalog;
    use vc_topology::{generate, DistanceTiers};

    fn state(rows: &[Vec<u32>], racks: &[usize]) -> ClusterState {
        let topo = Arc::new(generate::heterogeneous(
            racks,
            DistanceTiers::paper_experiment(),
        ));
        let mut types = VmCatalog::ec2_table1().types().to_vec();
        types.truncate(rows[0].len());
        ClusterState::new(
            topo,
            Arc::new(VmCatalog::new(types)),
            ResourceMatrix::from_rows(rows),
        )
    }

    #[test]
    fn single_request_equals_sd() {
        let s = state(&[vec![2, 1], vec![1, 1], vec![2, 0], vec![0, 2]], &[2, 2]);
        let req = Request::from_counts(vec![3, 1]);
        let gsd = solve(std::slice::from_ref(&req), &s).unwrap();
        let opt = exact::solve(&req, &s).unwrap();
        let sd = distance_with_center(opt.matrix(), s.topology(), opt.center());
        assert_eq!(gsd.total_distance, sd);
        assert!(gsd.allocations[0].satisfies(&req));
    }

    #[test]
    fn gsd_lower_bounds_algorithm2() {
        let s = state(&[vec![2, 1], vec![1, 1], vec![2, 0], vec![0, 2]], &[2, 2]);
        let queue = vec![
            Request::from_counts(vec![2, 1]),
            Request::from_counts(vec![2, 1]),
        ];
        let optimum = solve(&queue, &s).unwrap();
        let heuristic = global::place_queue(&queue, &s, global::Admission::FifoBlocking).unwrap();
        assert_eq!(heuristic.served.len(), 2, "both requests fit");
        assert!(
            optimum.total_distance <= heuristic.optimized_distance,
            "GSD optimum {} must lower-bound Algorithm 2's {}",
            optimum.total_distance,
            heuristic.optimized_distance
        );
        // Combined feasibility of the optimum.
        let mut check = s.clone();
        for (alloc, req) in optimum.allocations.iter().zip(&queue) {
            assert!(alloc.satisfies(req));
            check.allocate(alloc).unwrap();
        }
    }

    #[test]
    fn batch_can_beat_sequential_sd() {
        // Two identical requests competing for one perfect node: served
        // sequentially the second is pushed away; jointly the optimum
        // balances them. GSD ≤ sequential in all cases.
        let s = state(&[vec![2], vec![1], vec![1], vec![0]], &[2, 2]);
        let queue = vec![Request::from_counts(vec![2]), Request::from_counts(vec![2])];
        let optimum = solve(&queue, &s).unwrap();
        let mut seq_state = s.clone();
        let mut seq_total = 0;
        for req in &queue {
            let a = exact::solve(req, &seq_state).unwrap();
            seq_total += distance_with_center(a.matrix(), seq_state.topology(), a.center());
            seq_state.allocate(&a).unwrap();
        }
        assert!(optimum.total_distance <= seq_total);
    }

    #[test]
    fn over_capacity_batch_rejected() {
        let s = state(&[vec![1], vec![1]], &[2]);
        let queue = vec![Request::from_counts(vec![2]), Request::from_counts(vec![1])];
        assert!(matches!(
            solve(&queue, &s),
            Err(PlacementError::Refused { .. })
        ));
    }

    #[test]
    fn empty_batch_trivial() {
        let s = state(&[vec![1]], &[1]);
        let out = solve(&[], &s).unwrap();
        assert_eq!(out.total_distance, 0);
        assert!(out.allocations.is_empty());
    }

    #[test]
    fn work_estimate_monotone() {
        assert_eq!(work_estimate(4, 2), 16);
        assert_eq!(work_estimate(10, 3), 1000);
        assert!(work_estimate(30, 20) > 100_000);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_enumeration_rejected() {
        let rows = vec![vec![9u32]; 30];
        let s = state(&rows, &[15, 15]);
        let queue = vec![Request::from_counts(vec![1]); 5];
        let _ = solve(&queue, &s);
    }
}
