//! Solver output.

use crate::problem::VarId;
use crate::INT_TOL;

/// An optimal (or incumbent-optimal) assignment of values to variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, objective: f64) -> Self {
        Self { values, objective }
    }

    /// The objective value at this solution (in the problem's own sense —
    /// no sign flipping).
    #[inline]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    #[inline]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    #[inline]
    pub(crate) fn value_at(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// Value of an integer variable, rounded to the nearest integer.
    ///
    /// # Panics
    /// Panics if the stored value is further than `1e-4` from an integer
    /// (a looser bound than the solver's branching tolerance, to absorb
    /// accumulated simplex round-off) — calling this on a continuous
    /// variable with a genuinely fractional value is a bug.
    pub fn int_value(&self, var: VarId) -> i64 {
        let v = self.values[var.index()];
        let r = v.round();
        assert!(
            (v - r).abs() <= 1e-4,
            "variable {} has non-integral value {v}",
            var.index()
        );
        r as i64
    }

    /// Snap the listed variables to exact integers (post-B&B cleanup) and
    /// return the adjusted solution. The objective is kept as computed.
    pub(crate) fn snap_integers(mut self, int_vars: &[usize]) -> Self {
        for &i in int_vars {
            let v = self.values[i];
            if (v - v.round()).abs() <= INT_TOL * 10.0 {
                self.values[i] = v.round();
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution::new(vec![1.0, 2.5], 4.5);
        assert_eq!(s.objective(), 4.5);
        assert_eq!(s.value(VarId(1)), 2.5);
        assert_eq!(s.values, [1.0, 2.5]);
        assert_eq!(s.int_value(VarId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "non-integral")]
    fn int_value_on_fraction_panics() {
        let s = Solution::new(vec![0.5], 0.5);
        let _ = s.int_value(VarId(0));
    }

    #[test]
    fn snap_cleans_near_integers() {
        let s = Solution::new(vec![2.0 + 1e-7, 0.4], 0.0).snap_integers(&[0]);
        assert_eq!(s.value(VarId(0)), 2.0);
        assert_eq!(s.value(VarId(1)), 0.4);
    }
}
