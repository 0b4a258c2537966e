//! A small, self-contained **mixed-integer linear programming** solver.
//!
//! The paper (§III-B) formulates the Shortest Distance problem as an
//! integer program; mature ILP bindings are scarce in the Rust ecosystem,
//! so this crate implements the classical toolchain from scratch:
//!
//! * a [`Problem`] builder — variables with bounds, linear constraints,
//!   a minimise/maximise objective;
//! * a **two-phase primal simplex** on a dense tableau with Dantzig
//!   pricing and a Bland's-rule fallback for anti-cycling;
//! * **branch & bound** over the integer variables with most-fractional
//!   branching and incumbent pruning.
//!
//! Scale target: the paper's instances are ~30 nodes × 3 VM types
//! (≈ 100 variables, ≈ 100 constraints), far below the point where dense
//! tableaus or from-scratch B&B become a bottleneck. Everything is `f64`
//! with explicit tolerances; integer answers are validated by the caller
//! (`vc-placement` cross-checks them against an exact combinatorial
//! solver).
//!
//! ```
//! use vc_ilp::{Problem, Cmp};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y >= 0 integer
//! let mut p = Problem::maximize();
//! let x = p.add_int_var(0.0, f64::INFINITY, 3.0);
//! let y = p.add_int_var(0.0, f64::INFINITY, 2.0);
//! p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! p.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0);
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.int_value(x), 2);
//! assert_eq!(sol.int_value(y), 2);
//! assert!((sol.objective() - 10.0).abs() < 1e-6);
//! ```

// Index-based loops mirror the textbook matrix formulations here.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod error;
mod problem;
mod simplex;
mod solution;

pub use error::SolveError;
pub use problem::{Cmp, Problem, Sense, VarId, VarKind};
pub use solution::Solution;

/// Tolerance below which a value is considered integral.
pub(crate) const INT_TOL: f64 = 1e-6;
/// Tolerance for feasibility / optimality comparisons.
pub(crate) const EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_minimize_simple() {
        // minimize x + y  s.t.  x + 2y >= 4,  3x + y >= 6
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        p.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        let sol = p.solve().unwrap();
        // optimum at intersection: x = 8/5, y = 6/5, obj = 14/5
        assert!(
            (sol.objective() - 2.8).abs() < 1e-6,
            "obj = {}",
            sol.objective()
        );
        assert!((sol.value(x) - 1.6).abs() < 1e-6);
        assert!((sol.value(y) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn lp_maximize_with_equality() {
        // maximize 2x + 3y  s.t.  x + y = 10, x <= 6
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 6.0, 2.0);
        let y = p.add_var(0.0, f64::INFINITY, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        let sol = p.solve().unwrap();
        // all weight on y: obj = 30
        assert!((sol.objective() - 30.0).abs() < 1e-6);
        assert!(sol.value(x).abs() < 1e-6);
    }

    #[test]
    fn lp_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 5.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn lp_unbounded() {
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, -1.0)], Cmp::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn mip_knapsack() {
        // classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50
        let mut p = Problem::maximize();
        let items: Vec<_> = [60.0, 100.0, 120.0]
            .iter()
            .map(|&v| p.add_int_var(0.0, 1.0, v))
            .collect();
        p.add_constraint(
            vec![(items[0], 10.0), (items[1], 20.0), (items[2], 30.0)],
            Cmp::Le,
            50.0,
        );
        let sol = p.solve().unwrap();
        assert!((sol.objective() - 220.0).abs() < 1e-6);
        assert_eq!(sol.int_value(items[0]), 0);
        assert_eq!(sol.int_value(items[1]), 1);
        assert_eq!(sol.int_value(items[2]), 1);
    }

    #[test]
    fn mip_requires_branching() {
        // LP relaxation is fractional: maximize x + y s.t. 2x + 2y <= 3
        let mut p = Problem::maximize();
        let x = p.add_int_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_int_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective() - 1.0).abs() < 1e-6);
        assert_eq!(sol.int_value(x) + sol.int_value(y), 1);
    }

    #[test]
    fn mip_assignment_problem() {
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut p = Problem::minimize();
        let mut vars = vec![];
        for row in &cost {
            let r: Vec<_> = row.iter().map(|&c| p.add_int_var(0.0, 1.0, c)).collect();
            vars.push(r);
        }
        for i in 0..3 {
            p.add_constraint((0..3).map(|j| (vars[i][j], 1.0)).collect(), Cmp::Eq, 1.0);
            p.add_constraint((0..3).map(|j| (vars[j][i], 1.0)).collect(), Cmp::Eq, 1.0);
        }
        let sol = p.solve().unwrap();
        // optimum: (0,1)=1, (1,0)=2, (2,2)=2 -> 5
        assert!(
            (sol.objective() - 5.0).abs() < 1e-6,
            "obj = {}",
            sol.objective()
        );
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // minimize x + y, x integer, s.t. x + y >= 2.5, x >= 0.7
        let mut p = Problem::minimize();
        let x = p.add_int_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 2.5);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 0.7);
        let sol = p.solve().unwrap();
        // Optimal objective is 2.5; both (x=1, y=1.5) and (x=2, y=0.5) attain it.
        assert!((sol.objective() - 2.5).abs() < 1e-6);
        let x_val = sol.int_value(x);
        assert!(x_val == 1 || x_val == 2, "x = {x_val}");
        assert!((sol.value(x) + sol.value(y) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn mip_infeasible_after_branching() {
        // x integer, 0.2 <= x <= 0.8 has no integer point
        let mut p = Problem::minimize();
        let x = p.add_int_var(0.0, 1.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 0.2);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 0.8);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn negative_rhs_normalized() {
        // minimize x s.t. -x <= -3   (i.e. x >= 3)
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, -1.0)], Cmp::Le, -3.0);
        let sol = p.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn shifted_lower_bounds() {
        // minimize x + y with x >= 2, y >= 3, x + y >= 7
        let mut p = Problem::minimize();
        let x = p.add_var(2.0, f64::INFINITY, 1.0);
        let y = p.add_var(3.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 7.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective() - 7.0).abs() < 1e-6);
        assert!(sol.value(x) >= 2.0 - 1e-9);
        assert!(sol.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn zero_objective_feasibility_problem() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 10.0, 0.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 4.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective()).abs() < 1e-9);
        assert!(sol.value(x) >= 4.0 - 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut p = Problem::maximize();
        let x1 = p.add_var(0.0, f64::INFINITY, 100.0);
        let x2 = p.add_var(0.0, f64::INFINITY, 10.0);
        let x3 = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x1, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(x1, 20.0), (x2, 1.0)], Cmp::Le, 100.0);
        p.add_constraint(vec![(x1, 200.0), (x2, 20.0), (x3, 1.0)], Cmp::Le, 10000.0);
        let sol = p.solve().unwrap();
        assert!(
            (sol.objective() - 10000.0).abs() < 1e-4,
            "obj = {}",
            sol.objective()
        );
    }

    #[test]
    fn transportation_problem_integral() {
        // 2 supplies (10, 20), 2 demands (15, 15), costs [[1,4],[2,1]].
        // Optimal: s0->d0: 10, s1->d0: 5, s1->d1: 15 => 10 + 10 + 15 = 35.
        let mut p = Problem::minimize();
        let costs = [[1.0, 4.0], [2.0, 1.0]];
        let supply = [10.0, 20.0];
        let demand = [15.0, 15.0];
        let mut x = vec![];
        for i in 0..2 {
            let row: Vec<_> = (0..2)
                .map(|j| p.add_int_var(0.0, f64::INFINITY, costs[i][j]))
                .collect();
            x.push(row);
        }
        for i in 0..2 {
            p.add_constraint((0..2).map(|j| (x[i][j], 1.0)).collect(), Cmp::Le, supply[i]);
        }
        for j in 0..2 {
            p.add_constraint((0..2).map(|i| (x[i][j], 1.0)).collect(), Cmp::Eq, demand[j]);
        }
        let sol = p.solve().unwrap();
        assert!(
            (sol.objective() - 35.0).abs() < 1e-6,
            "obj = {}",
            sol.objective()
        );
    }
}
