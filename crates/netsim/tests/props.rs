//! Property tests for max-min fair sharing and flow conservation.

use proptest::prelude::*;
use std::sync::Arc;
use vc_des::SimTime;
use vc_netsim::{max_min_fair_share_detailed, FlowNet, NetworkParams};
use vc_topology::{generate, DistanceTiers, NodeId};

fn flows_and_caps() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    (1usize..6).prop_flat_map(|nr| {
        (
            proptest::collection::vec(1u32..1000, nr..=nr),
            proptest::collection::vec(proptest::collection::vec(0usize..nr, 1..=nr.min(3)), 0..8),
        )
            .prop_map(|(caps, mut flows)| {
                for f in &mut flows {
                    f.sort_unstable();
                    f.dedup();
                }
                (caps.into_iter().map(f64::from).collect(), flows)
            })
    })
}

proptest! {
    /// No resource is over-committed and every flow is bottlenecked
    /// somewhere (Pareto efficiency of max-min fairness).
    #[test]
    fn fair_share_feasible_and_pareto((caps, flows) in flows_and_caps()) {
        let rates = max_min_fair_share_detailed(&caps, &flows).rates;
        prop_assert_eq!(rates.len(), flows.len());
        for (r, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&r))
                .map(|(_, &rate)| rate)
                .sum();
            prop_assert!(used <= cap + 1e-6, "resource {r}: {used} > {cap}");
        }
        for (f, fr) in flows.iter().enumerate() {
            prop_assert!(rates[f] > 0.0, "flow {f} starved with positive capacities");
            let saturated = fr.iter().any(|&r| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.contains(&r))
                    .map(|(_, &rate)| rate)
                    .sum();
                (used - caps[r]).abs() < 1e-6
            });
            prop_assert!(saturated, "flow {f} not bottlenecked");
        }
    }

    /// Increasing any capacity never reduces any flow's rate (max-min
    /// monotonicity).
    #[test]
    fn fair_share_monotone_in_capacity((caps, flows) in flows_and_caps(), which in 0usize..6, bump in 1u32..100) {
        prop_assume!(!flows.is_empty());
        let rates = max_min_fair_share_detailed(&caps, &flows).rates;
        let mut bigger = caps.clone();
        let idx = which % caps.len();
        bigger[idx] += f64::from(bump);
        let rates2 = max_min_fair_share_detailed(&bigger, &flows).rates;
        // The *minimum* rate cannot decrease (max-min lexicographic optimality).
        let min1 = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let min2 = rates2.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(min2 >= min1 - 1e-6);
    }

    /// Flow-level simulation conserves bytes: each transfer completes at
    /// exactly the moment its integral of rate equals its size (checked
    /// against an independent event-free replay at constant rates for a
    /// single flow).
    #[test]
    fn single_flow_completion_matches_analytic(
        src in 0u32..6,
        dst in 0u32..6,
        megabytes in 1u64..200,
    ) {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
        let mut net = FlowNet::new(Arc::clone(&topo), NetworkParams::default());
        let bytes = megabytes * 1_000_000;
        net.start_flow(SimTime::ZERO, NodeId(src), NodeId(dst), bytes, 1);
        let predicted = net.isolated_transfer_time(NodeId(src), NodeId(dst), bytes);
        let mut done = vec![];
        while let Some(t) = net.next_event_time() {
            done.extend(net.take_completed(t).into_iter().map(|c| (t, c.token)));
        }
        prop_assert_eq!(done.len(), 1);
        let t = done[0].0;
        // within 2µs of the analytic value (integer rounding of wake-ups)
        let diff = t.as_micros().abs_diff(predicted.as_micros());
        prop_assert!(diff <= 2, "simulated {t} vs analytic {predicted}");
    }

    /// With N parallel same-path flows, total completion time scales ~N
    /// (all share one bottleneck) and the net drains completely.
    #[test]
    fn parallel_flows_drain(count in 1usize..6) {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
        let mut net = FlowNet::new(topo, NetworkParams::default());
        for i in 0..count {
            net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 10_000_000, i as u64);
        }
        let mut completions = 0;
        while let Some(t) = net.next_event_time() {
            completions += net.take_completed(t).len();
        }
        prop_assert_eq!(completions, count);
        prop_assert_eq!(net.active_flows(), 0);
    }
}
