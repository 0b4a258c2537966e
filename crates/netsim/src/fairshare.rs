//! Max-min fair bandwidth allocation (progressive filling).

// Index-based loops mirror the textbook matrix formulations here.
#![allow(clippy::needless_range_loop)]

/// Per-flow outcome of a max-min fair allocation, including which
/// resource froze (bottlenecked) each flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FairShare {
    /// Fair rate for each flow (MB/s); unconstrained flows get
    /// [`f64::INFINITY`].
    pub rates: Vec<f64>,
    /// For each flow, the resource index whose progressive-filling round
    /// froze it — the flow's *binding* (bottleneck) link. `None` for
    /// unconstrained (empty-path) flows.
    pub binding: Vec<Option<usize>>,
    /// Progressive-filling rounds that ran before every flow froze — the
    /// solver's iterations-to-fixpoint. 0 when no flow is constrained.
    /// Purely diagnostic: the rates are computed identically whether or
    /// not anyone reads this.
    pub iterations: u64,
}

/// Compute the max-min fair rate for each flow, and each flow's binding
/// resource — the link whose saturation froze the flow's rate.
///
/// * `capacities[r]` — capacity of resource `r` (MB/s);
/// * `flow_resources[f]` — the resource indices flow `f` traverses (a
///   flow with an empty list is unconstrained and gets
///   [`f64::INFINITY`]).
///
/// Progressive filling: repeatedly find the resource with the smallest
/// per-flow fair share among its unfrozen flows, freeze those flows at
/// that rate, deduct their consumption everywhere, and continue until all
/// flows are frozen. `O(R · F · path)` — fine at simulator scale.
///
/// # Panics
/// Panics if a flow references an out-of-range resource or a capacity is
/// negative/NaN.
pub fn max_min_fair_share_detailed(capacities: &[f64], flow_resources: &[Vec<usize>]) -> FairShare {
    for &c in capacities {
        assert!(c.is_finite() && c >= 0.0, "invalid capacity {c}");
    }
    let nr = capacities.len();
    let nf = flow_resources.len();
    for fr in flow_resources {
        for &r in fr {
            assert!(r < nr, "resource index {r} out of range");
        }
    }

    let mut rates = vec![f64::INFINITY; nf];
    let mut binding: Vec<Option<usize>> = vec![None; nf];
    let mut frozen = vec![false; nf];
    let mut residual: Vec<f64> = capacities.to_vec();
    // Unconstrained flows stay at infinity.
    for (f, fr) in flow_resources.iter().enumerate() {
        if fr.is_empty() {
            frozen[f] = true;
        }
    }

    let mut iterations = 0u64;
    loop {
        // Count unfrozen flows per resource.
        let mut users = vec![0u32; nr];
        for (f, fr) in flow_resources.iter().enumerate() {
            if !frozen[f] {
                for &r in fr {
                    users[r] += 1;
                }
            }
        }
        // Bottleneck resource: smallest residual fair share.
        let mut bottleneck: Option<(usize, f64)> = None;
        for r in 0..nr {
            if users[r] > 0 {
                let share = residual[r].max(0.0) / f64::from(users[r]);
                if bottleneck.is_none_or(|(_, s)| share < s) {
                    bottleneck = Some((r, share));
                }
            }
        }
        let Some((r, share)) = bottleneck else {
            // every flow frozen
            return FairShare {
                rates,
                binding,
                iterations,
            };
        };
        iterations += 1;
        // Freeze all unfrozen flows through r at `share`.
        for f in 0..nf {
            if !frozen[f] && flow_resources[f].contains(&r) {
                rates[f] = share;
                binding[f] = Some(r);
                frozen[f] = true;
                for &res in &flow_resources[f] {
                    residual[res] -= share;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn single_flow_gets_bottleneck() {
        let rates = max_min_fair_share_detailed(&[100.0, 40.0], &[vec![0, 1]]).rates;
        assert_close(rates[0], 40.0);
    }

    #[test]
    fn equal_split_on_shared_link() {
        let rates = max_min_fair_share_detailed(&[90.0], &[vec![0], vec![0], vec![0]]).rates;
        for r in rates {
            assert_close(r, 30.0);
        }
    }

    #[test]
    fn classic_three_flow_example() {
        // Link A (cap 10) shared by f0, f1; link B (cap 30) shared by f1, f2.
        // f0 = 5, f1 = 5 (bottleneck A), f2 = 25 (leftover of B).
        let rates =
            max_min_fair_share_detailed(&[10.0, 30.0], &[vec![0], vec![0, 1], vec![1]]).rates;
        assert_close(rates[0], 5.0);
        assert_close(rates[1], 5.0);
        assert_close(rates[2], 25.0);
    }

    #[test]
    fn unconstrained_flow_infinite() {
        let rates = max_min_fair_share_detailed(&[10.0], &[vec![], vec![0]]).rates;
        assert!(rates[0].is_infinite());
        assert_close(rates[1], 10.0);
    }

    #[test]
    fn no_flows() {
        assert!(max_min_fair_share_detailed(&[5.0], &[]).rates.is_empty());
    }

    #[test]
    fn total_never_exceeds_capacity() {
        // randomised-ish structured case, checked exactly
        let caps = [50.0, 20.0, 80.0];
        let flows = vec![vec![0, 1], vec![1], vec![0, 2], vec![2], vec![0, 1, 2]];
        let rates = max_min_fair_share_detailed(&caps, &flows).rates;
        for r in 0..caps.len() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(fr, _)| fr.contains(&r))
                .map(|(_, &rate)| rate)
                .sum();
            assert!(used <= caps[r] + 1e-6, "resource {r} over capacity: {used}");
        }
    }

    #[test]
    fn pareto_efficiency_on_bottlenecks() {
        // Every flow should be bottlenecked somewhere: increasing any flow
        // alone must violate some resource.
        let caps = [50.0, 20.0];
        let flows = vec![vec![0], vec![0, 1], vec![1]];
        let rates = max_min_fair_share_detailed(&caps, &flows).rates;
        for (f, fr) in flows.iter().enumerate() {
            let saturated = fr.iter().any(|&r| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.contains(&r))
                    .map(|(_, &rate)| rate)
                    .sum();
                (used - caps[r]).abs() < 1e-6
            });
            assert!(saturated, "flow {f} is not bottlenecked");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_resource_index_panics() {
        let _ = max_min_fair_share_detailed(&[1.0], &[vec![3]]);
    }

    #[test]
    #[should_panic(expected = "invalid capacity")]
    fn nan_capacity_panics() {
        let _ = max_min_fair_share_detailed(&[f64::NAN], &[vec![0]]);
    }

    #[test]
    fn zero_capacity_freezes_at_zero() {
        let rates = max_min_fair_share_detailed(&[0.0], &[vec![0]]).rates;
        assert_close(rates[0], 0.0);
    }

    #[test]
    fn detailed_reports_binding_resources() {
        // Same fixture as classic_three_flow_example: f0/f1 bind on link 0,
        // f2 binds on link 1.
        let fs = max_min_fair_share_detailed(&[10.0, 30.0], &[vec![0], vec![0, 1], vec![1]]);
        assert_eq!(fs.binding, vec![Some(0), Some(0), Some(1)]);
        assert_close(fs.rates[0], 5.0);
        assert_close(fs.rates[1], 5.0);
        assert_close(fs.rates[2], 25.0);
    }

    #[test]
    fn detailed_unconstrained_flow_has_no_binding() {
        let fs = max_min_fair_share_detailed(&[10.0], &[vec![], vec![0]]);
        assert_eq!(fs.binding, vec![None, Some(0)]);
    }

    #[test]
    fn iterations_count_freezing_rounds() {
        // classic_three_flow_example freezes in two rounds: link 0 first
        // (f0, f1), then link 1 (f2).
        let fs = max_min_fair_share_detailed(&[10.0, 30.0], &[vec![0], vec![0, 1], vec![1]]);
        assert_eq!(fs.iterations, 2);
        // No constrained flows → zero rounds.
        let fs = max_min_fair_share_detailed(&[10.0], &[vec![], vec![]]);
        assert_eq!(fs.iterations, 0);
        let fs = max_min_fair_share_detailed(&[10.0], &[]);
        assert_eq!(fs.iterations, 0);
        // One shared link, any number of flows → one round.
        let fs = max_min_fair_share_detailed(&[90.0], &[vec![0], vec![0], vec![0]]);
        assert_eq!(fs.iterations, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random (capacities, flow paths) instances: up to 6 resources with
    /// capacities in [0, 1000], up to 10 flows each traversing a random
    /// (possibly empty, possibly duplicated) subset of resources.
    fn instances() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
        (1usize..=6).prop_flat_map(|nr| {
            (
                proptest::collection::vec(0.0f64..1000.0, nr),
                proptest::collection::vec(proptest::collection::vec(0usize..nr, 0..=4), 0..=10),
            )
        })
    }

    proptest! {
        /// Max-min rates never oversubscribe any link: for every
        /// resource, the summed rate of flows through it stays within
        /// capacity (up to fp tolerance).
        #[test]
        fn rates_never_oversubscribe((caps, flows) in instances()) {
            let rates = max_min_fair_share_detailed(&caps, &flows).rates;
            for (r, &cap) in caps.iter().enumerate() {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter_map(|(fr, &rate)| {
                        let crossings = fr.iter().filter(|&&x| x == r).count();
                        (crossings > 0).then_some(rate * crossings as f64)
                    })
                    .sum();
                prop_assert!(
                    used <= cap + 1e-6 * (1.0 + cap),
                    "resource {} over capacity: {} > {}",
                    r, used, cap
                );
            }
        }

        /// Binding-link marking is consistent: every constrained flow is
        /// frozen by a resource on its own path, and that resource is
        /// saturated (its residual capacity is ~0), i.e. the flow really
        /// is capped by a binding link. Unconstrained flows have no
        /// binding and an infinite rate.
        #[test]
        fn binding_marks_are_consistent((caps, flows) in instances()) {
            let fs = max_min_fair_share_detailed(&caps, &flows);
            for (f, fr) in flows.iter().enumerate() {
                if fr.is_empty() {
                    prop_assert_eq!(fs.binding[f], None);
                    prop_assert!(fs.rates[f].is_infinite());
                    continue;
                }
                let r = fs.binding[f].expect("constrained flow must have a binding link");
                prop_assert!(fr.contains(&r), "binding {} not on flow {}'s path", r, f);
                let used: f64 = flows
                    .iter()
                    .zip(&fs.rates)
                    .filter_map(|(g, &rate)| {
                        let crossings = g.iter().filter(|&&x| x == r).count();
                        (crossings > 0).then_some(rate * crossings as f64)
                    })
                    .sum();
                prop_assert!(
                    (used - caps[r]).abs() <= 1e-6 * (1.0 + caps[r]),
                    "binding resource {} of flow {} is not saturated: used {} cap {}",
                    r, f, used, caps[r]
                );
            }
        }

        /// Each progressive-filling round saturates a distinct resource
        /// and freezes at least one flow, so iterations is bounded by
        /// both counts — and is zero iff no flow is constrained.
        #[test]
        fn iterations_bounded_by_resources_and_flows((caps, flows) in instances()) {
            let fs = max_min_fair_share_detailed(&caps, &flows);
            let constrained = flows.iter().filter(|fr| !fr.is_empty()).count() as u64;
            prop_assert!(fs.iterations <= caps.len() as u64);
            prop_assert!(fs.iterations <= constrained);
            prop_assert_eq!(fs.iterations == 0, constrained == 0);
        }
    }
}
