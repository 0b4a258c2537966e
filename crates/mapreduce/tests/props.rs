//! Property tests: simulation invariants over random clusters and jobs.

use proptest::prelude::*;
use std::sync::Arc;
use vc_des::SimTime;
use vc_mapreduce::engine::SimParams;
use vc_mapreduce::scheduler::SchedulerPolicy;
use vc_mapreduce::{simulate_job, JobConfig, VirtualCluster, Workload};
use vc_topology::{generate, DistanceTiers, NodeId};

fn cluster_strategy() -> impl Strategy<Value = VirtualCluster> {
    // 1–8 VMs on random nodes of the 2×4 topology.
    proptest::collection::vec(0u32..8, 1..=8).prop_map(|nodes| {
        let topo = Arc::new(generate::uniform(2, 4, DistanceTiers::paper_experiment()));
        let node_ids: Vec<NodeId> = nodes.into_iter().map(NodeId).collect();
        VirtualCluster::homogeneous(&node_ids, node_ids.len(), topo)
    })
}

fn job_strategy() -> impl Strategy<Value = JobConfig> {
    (1u32..12, 1u32..4, 0usize..4, 1u32..3).prop_map(|(maps, reducers, wl, replication)| {
        let workload = match wl {
            0 => Workload::wordcount(),
            1 => Workload::terasort(),
            2 => Workload::grep(),
            _ => Workload::wordcount_no_combiner(),
        };
        JobConfig {
            workload,
            input_mb: f64::from(maps) * 64.0,
            split_mb: 64.0,
            num_reducers: reducers,
            replication,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every job terminates; locality classes partition the maps; phase
    /// timestamps are ordered; shuffle volume matches the workload model.
    #[test]
    fn job_invariants(cluster in cluster_strategy(), job in job_strategy()) {
        let m = simulate_job(&cluster, &job, &SimParams::default());
        prop_assert_eq!(m.num_maps, job.num_maps());
        prop_assert_eq!(
            m.data_local_maps + m.rack_local_maps + m.remote_maps,
            m.num_maps
        );
        prop_assert!(m.runtime > SimTime::ZERO);
        prop_assert!(m.maps_finished_at <= m.shuffle_finished_at);
        prop_assert!(m.shuffle_finished_at <= m.runtime);
        // Shuffle bytes = input × selectivity (up to per-fetch rounding).
        let expect = job.input_mb * job.workload.map_selectivity * 1e6;
        let got = m.total_shuffle_bytes() as f64;
        prop_assert!(
            (got - expect).abs() <= f64::from(m.num_maps * m.num_reducers),
            "shuffle {got} vs expected {expect}"
        );
    }

    /// Determinism: same inputs, same metrics — including with stragglers
    /// and speculation enabled.
    #[test]
    fn deterministic(cluster in cluster_strategy(), job in job_strategy(), seed in 0u64..64) {
        let params = SimParams {
            seed,
            straggler_prob: 0.3,
            speculative_execution: true,
            ..SimParams::default()
        };
        let a = simulate_job(&cluster, &job, &params);
        let b = simulate_job(&cluster, &job, &params);
        prop_assert_eq!(a, b);
    }

    /// Profiling parity: a recorded run — phase timers, solver-effort
    /// counters, the whole `prof.*` namespace — returns bit-identical
    /// `JobMetrics` to the unrecorded run (the profiler only reads the
    /// host clock; it never touches simulation state), and the `prof.*`
    /// counters actually land in the snapshot.
    #[test]
    fn recorded_equals_unrecorded_including_prof(
        cluster in cluster_strategy(),
        job in job_strategy(),
        seed in 0u64..16,
    ) {
        let params = SimParams {
            seed,
            straggler_prob: 0.2,
            speculative_execution: true,
            ..SimParams::default()
        };
        let plain = simulate_job(&cluster, &job, &params);
        let rec = vc_obs::MemRecorder::new();
        let traced = vc_mapreduce::simulate_job_observed(
            &cluster,
            &job,
            &params,
            &vc_mapreduce::JobObservation::new(&rec),
        )
        .metrics;
        prop_assert_eq!(&plain, &traced);

        let m = rec.metrics();
        // The engine's own DES loop is timed as one mr_job phase call.
        prop_assert_eq!(m.counters.get("prof.phase.mr_job.calls").copied(), Some(1));
        prop_assert!(m.counters.contains_key("prof.phase.mr_job.wall_us"));
        // Solver effort exported from the FlowNet accumulators: at least
        // one rate recomputation happened (reducers always shuffle or
        // commit), with a consistent flows-per-solve accounting.
        let solves = m.counters.get("prof.solver.solves").copied().unwrap_or(0);
        prop_assert!(solves > 0, "no solver effort exported");
        prop_assert!(m.counters.contains_key("prof.solver.flows"));
        prop_assert!(m.counters.contains_key("prof.solver.links_touched"));
        prop_assert!(m.counters.contains_key("prof.solver.iterations"));
        let peak = m.gauges.get("prof.solver.peak_flows").copied().unwrap_or(0.0);
        let flows = m.counters["prof.solver.flows"];
        prop_assert!(peak as u64 <= flows, "peak {peak} exceeds total {flows}");
        // The net settles at most once per instant, and a link is sampled
        // at most once per settle: every link's utilization series moves
        // strictly forward in time.
        for (name, series) in rec.counter_series() {
            if name.starts_with("net.link.") && name.ends_with(".util") {
                prop_assert!(
                    series.windows(2).all(|w| w[0].0 < w[1].0),
                    "{} samples an instant twice: {:?}",
                    name,
                    series
                );
            }
        }
    }

    /// A faster network can reorder map completions and hence change
    /// which tasks the scheduler hands to which VM, so "uncontended is
    /// never slower" is false in the strictest sense — but it can only be
    /// slower by scheduling noise, never by bandwidth. Allow 5 %.
    #[test]
    fn contention_only_hurts_beyond_scheduling_noise(
        cluster in cluster_strategy(),
        job in job_strategy(),
    ) {
        let contended = simulate_job(&cluster, &job, &SimParams::default());
        let free = simulate_job(
            &cluster,
            &job,
            &SimParams { net: vc_netsim::NetworkParams::uncontended(), ..SimParams::default() },
        );
        prop_assert!(
            free.runtime.as_secs_f64() <= contended.runtime.as_secs_f64() * 1.05,
            "uncontended {} vs contended {}",
            free.runtime,
            contended.runtime
        );
    }
}

/// Greedy locality dispatch is not a maximum matching, so the blind
/// scheduler can win individual draws; in aggregate over many
/// configurations the locality-aware scheduler must dominate clearly.
#[test]
fn locality_aware_dominates_blind_in_aggregate() {
    let topo = Arc::new(generate::uniform(2, 4, DistanceTiers::paper_experiment()));
    let mut aware_total = 0u32;
    let mut blind_total = 0u32;
    for seed in 0..30u64 {
        let nodes: Vec<NodeId> = (0..6).map(|i| NodeId((seed as u32 + i) % 8)).collect();
        let cluster = VirtualCluster::homogeneous(&nodes, nodes.len(), Arc::clone(&topo));
        let job = JobConfig {
            workload: Workload::wordcount(),
            input_mb: 16.0 * 64.0,
            split_mb: 64.0,
            num_reducers: 1,
            replication: 2,
        };
        let aware = simulate_job(
            &cluster,
            &job,
            &SimParams {
                scheduler: SchedulerPolicy::LocalityAware,
                seed,
                ..SimParams::default()
            },
        );
        let blind = simulate_job(
            &cluster,
            &job,
            &SimParams {
                scheduler: SchedulerPolicy::FifoBlind,
                seed,
                ..SimParams::default()
            },
        );
        aware_total += aware.data_local_maps;
        blind_total += blind.data_local_maps;
    }
    assert!(
        aware_total > blind_total + blind_total / 4,
        "locality-aware ({aware_total}) must clearly beat blind ({blind_total})"
    );
}
