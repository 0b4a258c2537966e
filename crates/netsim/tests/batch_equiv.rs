//! Batch-vs-incremental solver equivalence under random interleavings.
//!
//! Drives two [`FlowNet`]s — one per [`SolverMode`] — through identical
//! random sequences of `start_flow` / `advance` / `take_completed`,
//! settled after every step, and asserts they are observably
//! indistinguishable at every step:
//! bit-identical rates, bindings, completion times, link telemetry
//! (byte integrals, busy time, peaks, binding events), and utilization
//! samples. Also asserts the incremental solver's effort counters are
//! deterministic across reruns of the same sequence (they feed the
//! `prof.solver.*` CI regression gate), and that a net over a node
//! subset ([`FlowNet::for_nodes`]) is indistinguishable from the
//! whole-cloud net for flows among that subset, and that a net which
//! coalesces the starts and completions of one instant into one settle
//! matches a net settled after every step.
//!
//! Links are compared by name, not by index: a subset net numbers its
//! links locally, while names carry the global ids.

use proptest::prelude::*;
use std::sync::Arc;
use vc_des::SimTime;
use vc_netsim::{
    Bottleneck, FlowClass, FlowId, FlowNet, LinkStats, NetworkParams, SolverMode, SolverStats,
};
use vc_topology::{generate, DistanceTiers, NodeId, Topology};

/// One scripted step: advance time by `dt_us`, then either start a flow
/// or drain completions.
#[derive(Debug, Clone)]
enum Op {
    Start {
        src: u32,
        dst: u32,
        kilobytes: u64,
        class_sel: u8,
    },
    Take {
        dt_us: u64,
    },
    /// Drain exactly at the net's own predicted next event (if any).
    TakeAtNext,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..6,
            0u32..64,
            0u32..64,
            1u64..5_000,
            0u64..400_000,
            0u8..4,
        ),
        1usize..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, src, dst, kilobytes, dt_us, class_sel)| match kind {
                // Bias towards starts so nets actually fill up.
                0..=2 => Op::Start {
                    src,
                    dst,
                    kilobytes,
                    class_sel,
                },
                3..=4 => Op::Take { dt_us },
                _ => Op::TakeAtNext,
            })
            .collect()
    })
}

fn classes(sel: u8) -> FlowClass {
    match sel {
        0 => FlowClass::MapRead,
        1 => FlowClass::Shuffle,
        2 => FlowClass::OutputWrite,
        _ => FlowClass::Other,
    }
}

/// A paper-shaped 2-rack topology; `dead_uplink` zeroes rack uplinks to
/// exercise starvation paths in both solvers.
fn mk_net(mode: SolverMode, dead_uplink: bool) -> FlowNet {
    let topo = Arc::new(generate::uniform(2, 4, DistanceTiers::default()));
    let params = NetworkParams {
        rack_uplink_mbps: if dead_uplink { 0.0 } else { 60.0 },
        ..NetworkParams::default()
    };
    let mut net = FlowNet::with_solver(topo, params, mode);
    net.set_sampling(true);
    net
}

/// The nodes of [`mk_net`]'s topology.
fn mk_nodes() -> Vec<NodeId> {
    (0..8).map(NodeId).collect()
}

/// A bottleneck as a comparable label: the link's name, or the variant.
fn bottleneck_name(net: &FlowNet, b: Bottleneck) -> String {
    match b {
        Bottleneck::Link(r) => net.links()[r].name.clone(),
        other => format!("{other:?}"),
    }
}

/// Everything observable about a net, with rates as raw bits so the
/// comparison is exact (not `f64` partial-eq semantics). Links are
/// listed by name, in link order, and only once they leave their
/// all-zero initial state, so nets over different node sets compare
/// equal exactly when their shared links agree and every other link is
/// idle.
fn observe(net: &mut FlowNet) -> impl std::fmt::Debug + PartialEq {
    let flows: Vec<_> = net
        .active_flow_snapshot()
        .into_iter()
        .map(|f| {
            (
                f.id,
                f.token,
                f.rate.to_bits(),
                f.remaining_bytes.to_bits(),
                bottleneck_name(net, f.bottleneck),
            )
        })
        .collect();
    let stats = net.link_stats().to_vec();
    let links: Vec<_> = net
        .links()
        .iter()
        .zip(&stats)
        .filter(|(_, s)| **s != LinkStats::default())
        .map(|(l, s)| {
            (
                l.name.clone(),
                s.bytes_total.to_bits(),
                s.busy_us.to_bits(),
                s.peak_utilization.to_bits(),
                s.peak_active_flows,
                s.binding_events,
                s.map_read_bytes,
                s.shuffle_bytes,
                s.output_bytes,
                s.other_bytes,
            )
        })
        .collect();
    (flows, links, net.next_event_time(), net.starved_flows())
}

/// Marker recorded when a take tripped the idle-with-starved-flows
/// debug assertion (an expected outcome on dead-link topologies — and
/// one that must occur at identical steps in both solver modes).
const STARVATION_PANIC: u64 = u64::MAX;

/// One completed flow: token, bytes, class and bottleneck label.
type Done = (u64, u64, FlowClass, String);

/// `take_completed` and a settle, with the starvation debug assertion
/// (which fires at the settle after a drain) folded into the observable
/// outcome: the assertion runs *after* all state mutation, so the net
/// stays consistent and the panic becomes a comparable marker. Any
/// other panic is re-raised.
fn take(net: &mut FlowNet, now: SimTime) -> Vec<Done> {
    let drain = || {
        let done = net.take_completed(now);
        net.settle();
        done
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(drain)) {
        Ok(done) => done
            .into_iter()
            .map(|c| {
                (
                    c.token,
                    c.bytes,
                    c.class,
                    bottleneck_name(net, c.bottleneck),
                )
            })
            .collect(),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(
                msg.contains("starved at rate 0"),
                "unexpected panic in take_completed: {msg}"
            );
            vec![(STARVATION_PANIC, 0, FlowClass::Other, String::new())]
        }
    }
}

/// Run the scripted sequence against one net, returning each take's
/// completions (or starvation-panic marker). Flow endpoints are the
/// script's node numbers taken modulo `nodes.len()` as indices into
/// `nodes`. The caller compares these (and per-step observations)
/// across nets.
fn drive(
    net: &mut FlowNet,
    script: &[Op],
    nodes: &[NodeId],
    observations: &mut Vec<String>,
) -> Vec<(SimTime, Vec<Done>)> {
    let node = |i: u32| nodes[i as usize % nodes.len()];
    let mut now = SimTime::ZERO;
    let mut token = 0u64;
    let mut takes = Vec::new();
    for op in script {
        match op {
            Op::Start {
                src,
                dst,
                kilobytes,
                class_sel,
            } => {
                token += 1;
                net.start_flow_classed(
                    now,
                    node(*src),
                    node(*dst),
                    kilobytes * 1_000,
                    token,
                    classes(*class_sel),
                );
            }
            Op::Take { dt_us } => {
                now += SimTime::from_micros(*dt_us);
                takes.push((now, take(net, now)));
            }
            Op::TakeAtNext => {
                if let Some(t) = net.next_event_time() {
                    now = t;
                    takes.push((now, take(net, now)));
                }
            }
        }
        observations.push(format!("{:?}", observe(net)));
    }
    // Drain whatever is drainable so completion times to the very end
    // are part of the comparison.
    while let Some(t) = net.next_event_time() {
        now = t;
        takes.push((now, take(net, now)));
        observations.push(format!("{:?}", observe(net)));
    }
    takes
}

/// `SolverStats` with the host-wall-clock field cleared: everything else
/// must be deterministic.
fn deterministic(stats: &SolverStats) -> SolverStats {
    SolverStats {
        wall_us: 0,
        ..stats.clone()
    }
}

proptest! {
    /// Batch and incremental nets are observably indistinguishable at
    /// every step of a random interleaving: rates, bindings, remaining
    /// bytes (all bit-exact), link-stat integrals, peaks, binding
    /// events, class-byte attribution, completion batches and their
    /// times, utilization samples, and starvation reporting.
    #[test]
    fn interleavings_indistinguishable(script in ops()) {
        let mut batch = mk_net(SolverMode::Batch, false);
        let mut inc = mk_net(SolverMode::Incremental, false);
        let mut obs_batch = Vec::new();
        let mut obs_inc = Vec::new();
        let takes_batch = drive(&mut batch, &script, &mk_nodes(), &mut obs_batch);
        let takes_inc = drive(&mut inc, &script, &mk_nodes(), &mut obs_inc);
        prop_assert_eq!(takes_batch, takes_inc);
        for (step, (b, i)) in obs_batch.iter().zip(&obs_inc).enumerate() {
            prop_assert_eq!(b, i, "observation diverged at step {}", step);
        }
        prop_assert_eq!(obs_batch.len(), obs_inc.len());
        prop_assert_eq!(batch.drain_link_samples(), inc.drain_link_samples());
        // Effort counters differ by design (that is the point of the
        // incremental solver), but the *workload* accounting must agree.
        let sb = batch.solver_stats();
        let si = inc.solver_stats();
        prop_assert_eq!(sb.solves, si.solves);
        prop_assert_eq!(sb.completion_batches, si.completion_batches);
        prop_assert_eq!(sb.completion_batch_flows, si.completion_batch_flows);
        prop_assert_eq!(sb.flows_skipped_total, 0, "batch mode never skips");
        prop_assert!(si.flows_total <= sb.flows_total);
        prop_assert!(si.iterations_total <= sb.iterations_total);
        prop_assert!(si.links_touched_total <= sb.links_touched_total);
        prop_assert_eq!(
            si.flows_total + si.flows_skipped_total,
            sb.flows_total,
            "skipped + solved must account for every active flow per solve"
        );
    }

    /// Same equivalence over a topology with failed (zero-capacity)
    /// rack uplinks: cross-rack flows starve identically in both modes
    /// and the nets still agree on everything observable.
    #[test]
    fn interleavings_indistinguishable_with_dead_links(script in ops()) {
        let mut batch = mk_net(SolverMode::Batch, true);
        let mut inc = mk_net(SolverMode::Incremental, true);
        let mut obs_batch = Vec::new();
        let mut obs_inc = Vec::new();
        let takes_batch = drive(&mut batch, &script, &mk_nodes(), &mut obs_batch);
        let takes_inc = drive(&mut inc, &script, &mk_nodes(), &mut obs_inc);
        prop_assert_eq!(takes_batch, takes_inc);
        for (step, (b, i)) in obs_batch.iter().zip(&obs_inc).enumerate() {
            prop_assert_eq!(b, i, "observation diverged at step {}", step);
        }
        prop_assert_eq!(batch.drain_link_samples(), inc.drain_link_samples());
    }

    /// The incremental solver's effort counters are deterministic: the
    /// same script yields identical `SolverStats` (wall time aside) on
    /// every rerun — the contract the `vc diff --fail-on-regress` CI gate
    /// relies on.
    #[test]
    fn incremental_effort_deterministic(script in ops()) {
        let run = || {
            let mut net = mk_net(SolverMode::Incremental, false);
            let mut obs = Vec::new();
            drive(&mut net, &script, &mk_nodes(), &mut obs);
            deterministic(net.solver_stats())
        };
        prop_assert_eq!(run(), run());
    }
}

/// Small random topologies: one cloud of uniform racks, or several
/// clouds (so cross-cloud paths and cloud links are exercised).
fn topologies() -> impl Strategy<Value = Topology> {
    (any::<bool>(), 1usize..4, 1usize..5, 1usize..6).prop_map(|(multi, clouds, racks, nodes)| {
        if multi {
            let tiers = DistanceTiers::new(1, 2, 8).unwrap();
            generate::multi_cloud(clouds + 1, racks.min(2), nodes.min(3), tiers)
        } else {
            generate::uniform(racks, nodes, DistanceTiers::default())
        }
    })
}

/// Utilization samples keyed by link name, with `f64`s as raw bits.
fn named_samples(net: &mut FlowNet) -> Vec<(u64, String, u64, u32, bool)> {
    net.drain_link_samples()
        .into_iter()
        .map(|s| {
            (
                s.t_us,
                net.links()[s.link].name.clone(),
                s.utilization.to_bits(),
                s.active_flows,
                s.binding,
            )
        })
        .collect()
}

proptest! {
    /// A net over a node subset is indistinguishable from the
    /// whole-cloud net for flows among that subset, under both solver
    /// modes: the same completions (token, time, bytes, class,
    /// bottleneck) and, at every step, bit-identical rates, link
    /// telemetry by name and starvation; the same samples by name,
    /// deterministic solver effort and window rollup; and every
    /// whole-cloud link outside the subset stays idle.
    #[test]
    fn subset_net_matches_whole_cloud_net(
        topo in topologies(),
        mask in proptest::collection::vec(any::<bool>(), 24),
        script in ops(),
        dead_uplink in any::<bool>(),
        window_us in 1u64..2_000_000,
    ) {
        let topo = Arc::new(topo);
        let mut subset: Vec<NodeId> = topo.node_ids().filter(|n| mask[n.index()]).collect();
        if subset.is_empty() {
            subset.push(NodeId(0));
        }
        // `for_nodes` takes its set in any order and with repeats.
        let mut given = subset.clone();
        given.reverse();
        given.push(subset[0]);
        let params = NetworkParams {
            rack_uplink_mbps: if dead_uplink { 0.0 } else { 60.0 },
            ..NetworkParams::default()
        };
        for mode in [SolverMode::Batch, SolverMode::Incremental] {
            let mut whole = FlowNet::with_solver(Arc::clone(&topo), params, mode);
            let mut part = FlowNet::for_nodes(Arc::clone(&topo), params, mode, &given);
            for net in [&mut whole, &mut part] {
                net.set_sampling(true);
                net.set_window_rollup(window_us, 7_000);
            }
            let mut obs_whole = Vec::new();
            let mut obs_part = Vec::new();
            let takes_whole = drive(&mut whole, &script, &subset, &mut obs_whole);
            let takes_part = drive(&mut part, &script, &subset, &mut obs_part);
            prop_assert_eq!(takes_whole, takes_part, "{:?}", mode);
            prop_assert_eq!(obs_whole.len(), obs_part.len());
            for (step, (w, p)) in obs_whole.iter().zip(&obs_part).enumerate() {
                prop_assert_eq!(w, p, "{:?}: observation diverged at step {}", mode, step);
            }
            prop_assert_eq!(named_samples(&mut whole), named_samples(&mut part));
            prop_assert_eq!(
                deterministic(whole.solver_stats()),
                deterministic(part.solver_stats())
            );
            let bits = |roll: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
                roll.into_iter().map(|(w, b)| (w, b.to_bits())).collect()
            };
            prop_assert_eq!(bits(whole.take_window_rollup()), bits(part.take_window_rollup()));

            let mut racks: Vec<_> = subset.iter().map(|&n| topo.rack_of(n)).collect();
            racks.sort_unstable();
            racks.dedup();
            let mut clouds: Vec<_> = subset.iter().map(|&n| topo.cloud_of(n)).collect();
            clouds.sort_unstable();
            clouds.dedup();
            prop_assert_eq!(
                part.links().len(),
                2 * (subset.len() + racks.len() + clouds.len())
            );
            let part_stats = part.link_stats().to_vec();
            let whole_stats = whole.link_stats().to_vec();
            for (link, stats) in whole.links().iter().zip(whole_stats) {
                let pos = part.links().iter().position(|l| l.name == link.name);
                match pos {
                    Some(i) => prop_assert_eq!(&stats, &part_stats[i]),
                    None => prop_assert_eq!(&stats, &LinkStats::default(), "{} not idle", link.name),
                }
            }
        }
    }
}

/// Start `n` staggered ~1 MiB flows across a 4x8 paper topology at time
/// zero and drain the net. Returns the `(id, completion time)` order
/// and the number of drain steps taken.
fn drain(n: u64, mode: SolverMode) -> (Vec<(FlowId, SimTime)>, usize) {
    let topo = Arc::new(generate::uniform(4, 8, DistanceTiers::paper_experiment()));
    let mut net = FlowNet::with_solver(topo, NetworkParams::default(), mode);
    let nodes = 4 * 8;
    for i in 0..n {
        let src = NodeId((i * 7 % nodes) as u32);
        let dst = NodeId(((i * 13 + 5) % nodes) as u32);
        // The stagger makes completions interleave instead of batching.
        net.start_flow(SimTime::ZERO, src, dst, (1 << 20) + i * 4096, i);
    }
    let mut done = Vec::new();
    let mut steps = 0;
    while let Some(next) = net.next_event_time() {
        net.advance(next);
        done.extend(net.take_completed(next).into_iter().map(|c| (c.id, next)));
        steps += 1;
    }
    (done, steps)
}

/// At a concurrency the random interleavings never reach, both solvers
/// complete the same flows in the same order at the same times, and the
/// incremental solver drains 1024 concurrent flows in at most one step
/// per flow.
#[test]
fn many_concurrent_flows_drain_identically() {
    let (batch, _) = drain(256, SolverMode::Batch);
    let (inc, _) = drain(256, SolverMode::Incremental);
    assert_eq!(batch.len(), 256);
    assert_eq!(batch, inc);

    let (done, steps) = drain(1024, SolverMode::Incremental);
    assert_eq!(done.len(), 1024, "every flow must complete");
    assert!(steps <= 1024, "{steps} drain steps for 1024 flows");
}

/// A change staged at one instant of a coalescing script.
#[derive(Debug, Clone)]
enum Step {
    Start {
        src: u32,
        dst: u32,
        kilobytes: u64,
        class_sel: u8,
    },
    /// Drain whatever has finished by the instant.
    Take,
}

/// One instant of a coalescing script: the clock moves to the per-step
/// net's next event (`to_next`) or by `dt_us`, the steps are staged, and
/// the instant ends with a read of both nets (`read`) or leaves its
/// changes for the next advance to settle.
#[derive(Debug, Clone)]
struct Instant {
    to_next: bool,
    dt_us: u64,
    steps: Vec<Step>,
    read: bool,
}

fn instants() -> impl Strategy<Value = Vec<Instant>> {
    let step = (0u8..4, 0u32..64, 0u32..64, 0u8..8, 1u64..3_000, 0u8..4).prop_map(
        |(kind, src, dst, zero, kilobytes, class_sel)| match kind {
            0 => Step::Take,
            _ => Step::Start {
                src,
                dst,
                // Zero-byte flows finish on their latency alone; same-node
                // ones finish at the instant they start.
                kilobytes: if zero == 0 { 0 } else { kilobytes },
                class_sel,
            },
        },
    );
    let instant = (
        any::<bool>(),
        0u64..300_000,
        proptest::collection::vec(step, 0..8),
        0u8..4,
    )
        .prop_map(|(to_next, dt_us, steps, read)| Instant {
            to_next,
            dt_us,
            steps,
            read: read > 0,
        });
    proptest::collection::vec(instant, 1..25)
}

/// What must agree bit for bit between a coalesced and a per-step net:
/// every active flow's rate, remaining bytes and bottleneck, each link's
/// byte integral, busy time and class bytes by name, the next event and
/// starvation. Peaks and binding events are compared separately.
fn exact_state(net: &mut FlowNet) -> impl std::fmt::Debug + PartialEq {
    let flows: Vec<_> = net
        .active_flow_snapshot()
        .into_iter()
        .map(|f| {
            (
                f.token,
                f.rate.to_bits(),
                f.remaining_bytes.to_bits(),
                bottleneck_name(net, f.bottleneck),
            )
        })
        .collect();
    let stats = net.link_stats().to_vec();
    let links: Vec<_> = net
        .links()
        .iter()
        .zip(&stats)
        .map(|(l, s)| {
            (
                l.name.clone(),
                s.bytes_total.to_bits(),
                s.busy_us.to_bits(),
                s.map_read_bytes,
                s.shuffle_bytes,
                s.output_bytes,
                s.other_bytes,
            )
        })
        .collect();
    (flows, links, net.next_event_time(), net.starved_flows())
}

/// Peaks and binding events of the coalesced net never exceed the
/// per-step net's: it observes a subsequence of the same link states.
fn assert_peaks_bounded(coalesced: &mut FlowNet, per_step: &mut FlowNet) {
    let per = per_step.link_stats().to_vec();
    for (c, p) in coalesced.link_stats().iter().zip(&per) {
        assert!(c.peak_utilization <= p.peak_utilization, "{c:?} vs {p:?}");
        assert!(c.peak_active_flows <= p.peak_active_flows, "{c:?} vs {p:?}");
        assert!(c.binding_events <= p.binding_events, "{c:?} vs {p:?}");
    }
}

proptest! {
    /// A net that stages every start and drain of an instant and settles
    /// them together is indistinguishable from a net settled after every
    /// step, in both solver modes and on random topologies: the same
    /// completions (token, time, bytes, class, bottleneck), bit-identical
    /// rates and link byte and busy integrals at every read, and peaks,
    /// binding events, samples and solver effort that never exceed the
    /// per-step net's.
    #[test]
    fn coalesced_settles_match_per_step_settles(
        topo in topologies(),
        script in instants(),
        slow_uplink in any::<bool>(),
    ) {
        let topo = Arc::new(topo);
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let node = |i: u32| nodes[i as usize % nodes.len()];
        let params = NetworkParams {
            rack_uplink_mbps: if slow_uplink { 60.0 } else { 476.0 },
            ..NetworkParams::default()
        };
        for mode in [SolverMode::Batch, SolverMode::Incremental] {
            let mut coal = FlowNet::with_solver(Arc::clone(&topo), params, mode);
            let mut per = FlowNet::with_solver(Arc::clone(&topo), params, mode);
            coal.set_sampling(true);
            per.set_sampling(true);
            let mut now = SimTime::ZERO;
            let mut token = 0u64;
            let mut done = (Vec::new(), Vec::new());
            let mut drain = |coal: &mut FlowNet, per: &mut FlowNet, now: SimTime| {
                let label = |net: &FlowNet, c: vc_netsim::CompletedFlow| {
                    (now, c.token, c.bytes, c.class, bottleneck_name(net, c.bottleneck))
                };
                let c: Vec<_> = coal.take_completed(now);
                done.0.extend(c.into_iter().map(|c| label(coal, c)));
                let p: Vec<_> = per.take_completed(now);
                per.settle();
                done.1.extend(p.into_iter().map(|c| label(per, c)));
            };
            for instant in &script {
                if !instant.to_next {
                    now += SimTime::from_micros(instant.dt_us);
                } else if let Some(t) = per.next_event_time() {
                    now = t;
                }
                for step in &instant.steps {
                    match *step {
                        Step::Start { src, dst, kilobytes, class_sel } => {
                            token += 1;
                            for net in [&mut coal, &mut per] {
                                net.start_flow_classed(
                                    now,
                                    node(src),
                                    node(dst),
                                    kilobytes * 1_000,
                                    token,
                                    classes(class_sel),
                                );
                            }
                            per.settle();
                        }
                        Step::Take => drain(&mut coal, &mut per, now),
                    }
                }
                if instant.read {
                    prop_assert_eq!(
                        format!("{:?}", exact_state(&mut coal)),
                        format!("{:?}", exact_state(&mut per)),
                        "{:?} at {}", mode, now
                    );
                }
            }
            while let Some(t) = per.next_event_time() {
                prop_assert_eq!(coal.next_event_time(), Some(t), "{:?}: next event", mode);
                now = t;
                drain(&mut coal, &mut per, now);
            }
            prop_assert_eq!(&done.0, &done.1, "{:?}: completions", mode);
            prop_assert_eq!(
                format!("{:?}", exact_state(&mut coal)),
                format!("{:?}", exact_state(&mut per)),
                "{:?} at the end", mode
            );
            assert_peaks_bounded(&mut coal, &mut per);
            prop_assert!(coal.drain_link_samples().len() <= per.drain_link_samples().len());
            let (c, p) = (coal.solver_stats(), per.solver_stats());
            prop_assert!(c.solves <= p.solves, "{:?}: {:?} vs {:?}", mode, c, p);
            prop_assert!(c.flows_total <= p.flows_total, "{:?}: {:?} vs {:?}", mode, c, p);
            prop_assert!(c.links_touched_total <= p.links_touched_total, "{:?}: {:?} vs {:?}", mode, c, p);
            prop_assert!(c.iterations_total <= p.iterations_total, "{:?}: {:?} vs {:?}", mode, c, p);
            if mode == SolverMode::Batch {
                // One incremental settle may solve the union of components
                // that separate settles solved one at a time, so only a
                // whole-set solve's peak is bounded.
                prop_assert!(c.peak_flows <= p.peak_flows, "{:?}: {:?} vs {:?}", mode, c, p);
            }
            prop_assert_eq!(c.completion_batches, p.completion_batches);
            prop_assert_eq!(c.completion_batch_flows, p.completion_batch_flows);
        }
    }
}
