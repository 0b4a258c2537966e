//! The MILP model builder.

use crate::{branch_bound, error::SolveError, simplex, Solution};
use serde::{Deserialize, Serialize};

/// Handle to a decision variable within one [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of this variable.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Whether a variable must take integer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarKind {
    /// Real-valued.
    Continuous,
    /// Integer-valued (branch & bound enforces this).
    Integer,
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub lower: f64,
    pub upper: f64,
    pub kind: VarKind,
    pub cost: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub terms: Vec<(VarId, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A mixed-integer linear program under construction.
///
/// Variables carry their bounds and objective coefficient; constraints are
/// arbitrary linear combinations. Lower bounds must be finite (the SD/GSD
/// formulations only need `x ≥ 0`); upper bounds may be `f64::INFINITY`.
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Start a minimisation problem.
    pub fn minimize() -> Self {
        Self {
            sense: Sense::Minimize,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Start a maximisation problem.
    pub fn maximize() -> Self {
        Self {
            sense: Sense::Maximize,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Add a continuous variable with bounds `[lower, upper]` and objective
    /// coefficient `cost`.
    ///
    /// # Panics
    /// Panics if `lower` is not finite, if `upper < lower`, or if either is
    /// NaN.
    pub fn add_var(&mut self, lower: f64, upper: f64, cost: f64) -> VarId {
        self.add_var_kind(lower, upper, cost, VarKind::Continuous)
    }

    /// Add an integer variable with bounds `[lower, upper]` and objective
    /// coefficient `cost`.
    ///
    /// # Panics
    /// Panics under the same conditions as [`add_var`](Self::add_var).
    pub fn add_int_var(&mut self, lower: f64, upper: f64, cost: f64) -> VarId {
        self.add_var_kind(lower, upper, cost, VarKind::Integer)
    }

    fn add_var_kind(&mut self, lower: f64, upper: f64, cost: f64, kind: VarKind) -> VarId {
        assert!(
            lower.is_finite(),
            "lower bound must be finite (got {lower})"
        );
        assert!(
            !upper.is_nan() && upper >= lower,
            "invalid bounds [{lower}, {upper}]"
        );
        assert!(cost.is_finite(), "objective coefficient must be finite");
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            lower,
            upper,
            kind,
            cost,
        });
        id
    }

    /// Add the constraint `Σ coeff·var  cmp  rhs`.
    ///
    /// Duplicate variables in `terms` are summed. Terms with zero
    /// coefficient are kept (harmless).
    ///
    /// # Panics
    /// Panics if a `VarId` does not belong to this problem, or if any
    /// coefficient or the rhs is not finite.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, c) in &terms {
            assert!(
                v.0 < self.vars.len(),
                "variable does not belong to this problem"
            );
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Whether any variable is integer.
    fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Solve to optimality.
    ///
    /// Pure LPs go straight to the simplex; problems with integer
    /// variables go through branch & bound with a generous default node
    /// budget (200 000 nodes).
    ///
    /// Caveat: if the LP *relaxation* is unbounded the solver reports
    /// [`SolveError::Unbounded`] without checking whether an integer
    /// point exists — an integer-infeasible program with an unbounded
    /// relaxation is therefore reported as unbounded. All problems built
    /// by this repository have finite variable bounds, where the case
    /// cannot arise.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with_node_limit(branch_bound::DEFAULT_NODE_LIMIT)
    }

    /// Solve with an explicit branch-and-bound node budget.
    pub(crate) fn solve_with_node_limit(&self, node_limit: usize) -> Result<Solution, SolveError> {
        if self.has_integers() {
            branch_bound::solve_mip(self, node_limit)
        } else {
            simplex::solve_lp(self, &[])
        }
    }

    /// Solve the LP relaxation only (integrality dropped).
    pub fn solve_relaxation(&self) -> Result<Solution, SolveError> {
        simplex::solve_lp(self, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0);
        let y = p.add_int_var(0.0, 1.0, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        assert_eq!(p.vars.len(), 2);
        assert_eq!(p.constraints.len(), 1);
        assert!(p.has_integers());
        assert_eq!(p.sense, Sense::Minimize);
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite")]
    fn infinite_lower_bound_rejected() {
        let mut p = Problem::minimize();
        let _ = p.add_var(f64::NEG_INFINITY, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn inverted_bounds_rejected() {
        let mut p = Problem::minimize();
        let _ = p.add_var(2.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_var_rejected() {
        let mut p = Problem::minimize();
        let mut q = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0);
        let _ = x;
        // q has no variables; using p's var id 0 must panic
        q.add_constraint(vec![(VarId(0), 1.0)], Cmp::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "rhs must be finite")]
    fn nan_rhs_rejected() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, f64::NAN);
    }

    #[test]
    fn relaxation_drops_integrality() {
        let mut p = Problem::maximize();
        let x = p.add_int_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 2.0)], Cmp::Le, 3.0);
        let relaxed = p.solve_relaxation().unwrap();
        assert!((relaxed.value(x) - 1.5).abs() < 1e-6);
        let integral = p.solve().unwrap();
        assert_eq!(integral.int_value(x), 1);
    }
}
