//! The MapReduce discrete-event engine.
//!
//! Task lifecycle (all data sizes in MB, all times via [`vc_des::SimTime`]):
//!
//! ```text
//! map:    read input (local disk | network flow from nearest replica)
//!         → compute (split · cpu_factor / slot rate) + write map output locally
//!         → slot freed, shuffle fetches to every running reducer begin
//! reduce: occupy a reduce slot (waves if reducers > slots)
//!         → fetch one partition per map output as maps finish
//!         → once all fetched: sort/reduce compute
//!         → commit: local disk write + replication flows to other nodes
//! job:    done when every reducer has committed
//! ```
//!
//! All network transfers (remote reads, shuffle, output replication) share
//! one [`FlowNet`], so rack oversubscription and NIC contention shape the
//! schedule exactly as in the paper's testbed.

use crate::cluster::{VirtualCluster, VmId};
use crate::hdfs::{BlockId, HdfsLayout};
use crate::job::JobConfig;
use crate::metrics::{JobMetrics, Locality};
use crate::scheduler::{MapScheduler, SchedulerPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use vc_des::{Engine, EventKind, SimTime};
use vc_netsim::{Bottleneck, FlowClass, FlowNet, LinkClass, NetworkParams, SolverMode};
use vc_obs::health::{rules, AlertSink, Severity};
use vc_obs::{intern, AttrValue, NoopRecorder, Recorder, SpanId, TrackId};
use vc_topology::NodeId;

/// Simulation inputs beyond the job itself.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Network capacities/latencies.
    pub net: NetworkParams,
    /// RNG seed (HDFS placement and any tie-breaking randomness).
    pub seed: u64,
    /// Map-slot dispatch policy.
    pub scheduler: SchedulerPolicy,
    /// Probability that a map attempt is a straggler (Hadoop's motivation
    /// for speculative execution). Applies to first attempts only.
    pub straggler_prob: f64,
    /// Compute-time multiplier for straggling attempts.
    pub straggler_slowdown: f64,
    /// Launch backup copies of still-running maps once the pending pool
    /// drains (Hadoop's speculative execution); first copy to finish wins.
    pub speculative_execution: bool,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            net: NetworkParams::default(),
            seed: 0,
            scheduler: SchedulerPolicy::default(),
            straggler_prob: 0.0,
            straggler_slowdown: 4.0,
            speculative_execution: false,
        }
    }
}

/// A task phase that ends at a known time: the engine's queued events.
/// Network transfers end when the job's [`FlowNet`] says they do, so
/// they are never queued.
#[derive(Debug)]
enum TaskDone {
    MapRead { task: u32, attempt: u8 },
    MapCpu { task: u32, attempt: u8 },
    ReduceCpu { reducer: u32 },
    ReduceDisk { reducer: u32 },
}

impl EventKind for TaskDone {
    fn kind(&self) -> &'static str {
        match self {
            TaskDone::MapRead { .. } => "mr.event.map_read_done",
            TaskDone::MapCpu { .. } => "mr.event.map_cpu_done",
            TaskDone::ReduceCpu { .. } => "mr.event.reduce_cpu_done",
            TaskDone::ReduceDisk { .. } => "mr.event.reduce_disk_done",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum FlowPurpose {
    MapRead {
        task: u32,
        attempt: u8,
    },
    Shuffle {
        reducer: u32,
        /// Contention-free transfer time of this fetch, µs (0 when the
        /// recorder is disabled). Feeds the critical-path split between
        /// shuffle wire time and network wait.
        ideal_us: u64,
    },
    OutputWrite {
        reducer: u32,
    },
}

/// One execution attempt of a map task (speculation may run two).
#[derive(Debug, Clone, Copy)]
struct MapAttempt {
    vm: VmId,
    locality: Locality,
    started: SimTime,
    span: SpanId,
}

#[derive(Debug)]
struct MapTask {
    size_mb: f64,
    output_mb: f64,
    /// Compute-time multiplier for the first attempt (stragglers > 1).
    slowdown: f64,
    attempts: Vec<MapAttempt>,
    /// Index into `attempts` of the attempt that finished first.
    winner: Option<u8>,
}

impl MapTask {
    fn is_done(&self) -> bool {
        self.winner.is_some()
    }

    fn winning_attempt(&self) -> &MapAttempt {
        &self.attempts[usize::from(self.winner.expect("task finished"))]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ReduceState {
    Waiting,
    Fetching,
    Computing,
    Committing,
    Done,
}

#[derive(Debug)]
struct ReduceTask {
    vm: Option<VmId>,
    state: ReduceState,
    fetches_done: u32,
    input_mb: f64,
    /// Commit legs outstanding: local disk + replication flows.
    commit_legs: u32,
    /// Open span for the current phase (shuffle/reduce/commit).
    span: SpanId,
    /// Contention-free duration of the most recently completed fetch,
    /// µs; attached to the shuffle span for critical-path attribution.
    last_fetch_ideal_us: u64,
    /// Bottleneck link class of the most recently completed fetch
    /// (`rack-up`, `node-rx`, `rate-cap`, …); attached to the shuffle
    /// span so shuffle-network-wait can be decomposed by link class.
    last_fetch_bottleneck: &'static str,
}

struct Sim<'a, R: Recorder> {
    rec: &'a R,
    /// Timeline lane offset: VM `i` draws on track `track_base + 1 + i`,
    /// the job-level lane is `track_base`. Lets several jobs share one
    /// recorder without colliding (the cloud simulator offsets per request).
    track_base: u64,
    /// Added to every simulated timestamp, so a job embedded in a larger
    /// simulation lands at its real start time on the shared timeline.
    t0_us: u64,
    job_span: SpanId,
    cluster: &'a VirtualCluster,
    job: &'a JobConfig,
    layout: HdfsLayout,
    engine: Engine<TaskDone>,
    net: FlowNet,
    flow_purposes: Vec<FlowPurpose>,
    maps: Vec<MapTask>,
    reducers: Vec<ReduceTask>,
    map_sched: MapScheduler,
    scheduler_policy: SchedulerPolicy,
    speculative: bool,
    speculative_attempts: u32,
    speculative_wins: u32,
    reducer_queue: VecDeque<u32>,
    free_map_slots: Vec<u32>,
    free_reduce_slots: Vec<u32>,
    maps_done: u32,
    reducers_done: u32,
    // metrics accumulation
    local_shuffle_bytes: u64,
    rack_shuffle_bytes: u64,
    remote_shuffle_bytes: u64,
    maps_finished_at: SimTime,
    shuffle_finished_at: SimTime,
    outstanding_fetch_flows: u64,
    /// Completed shuffle bytes keyed by the bottleneck that bound the
    /// fetch (`rack-up`, `node-rx`, `rate-cap`, …) — the link-class
    /// decomposition of shuffle network time.
    shuffle_bottleneck_bytes: BTreeMap<&'static str, u64>,
    /// Run the health watchdog's job-end invariant audits (shuffle
    /// conservation, flow starvation). Read-only: never perturbs the sim.
    audit: bool,
    /// `alert.*` events fired by the audits, reported to the caller.
    alerts_fired: u64,
}

/// Run one job on one virtual cluster and return its metrics.
///
/// Deterministic for a given `(cluster, job, params)` triple.
///
/// ```
/// use std::sync::Arc;
/// use vc_mapreduce::{simulate_job, JobConfig, VirtualCluster};
/// use vc_mapreduce::engine::SimParams;
/// use vc_topology::{generate, DistanceTiers, NodeId};
///
/// let topo = Arc::new(generate::uniform(2, 4, DistanceTiers::paper_experiment()));
/// let cluster = VirtualCluster::homogeneous(
///     &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 4, topo);
/// let metrics = simulate_job(&cluster, &JobConfig::paper_wordcount(), &SimParams::default());
/// assert_eq!(metrics.num_maps, 32);
/// assert!(metrics.runtime.as_secs_f64() > 0.0);
/// ```
///
/// # Panics
/// Panics on invalid configuration (zero reducers, empty cluster, …).
pub fn simulate_job(cluster: &VirtualCluster, job: &JobConfig, params: &SimParams) -> JobMetrics {
    simulate_job_observed(cluster, job, params, &JobObservation::new(&NoopRecorder)).metrics
}

/// What to observe while [`simulate_job_observed`] runs a job.
///
/// Spans, events and metrics land on `rec`. VM `i` draws on track
/// `track_base + 1 + i` and every timestamp is offset by `t0_us`, so
/// multiple jobs can share one recorder (the cloud simulator passes each
/// request's start time and a disjoint track range).
///
/// The recorder type defaults to `dyn Recorder`; a concrete `R` (such as
/// [`NoopRecorder`]) makes the job's recording calls static.
pub struct JobObservation<'a, R: Recorder + ?Sized = dyn Recorder> {
    /// Where spans, events and metrics land.
    pub rec: &'a R,
    /// Track of the job lane; VM `i` draws on `track_base + 1 + i`.
    pub track_base: u64,
    /// Shared-timeline timestamp of the job's start.
    pub t0_us: u64,
    /// When set, the job's `FlowNet` apportions every RackUp byte it
    /// drains over absolute sim-time windows of this width (`t0_us` maps
    /// the job-local clock onto the shared timeline), returned as
    /// [`ObservedJob::rollup`] for the `ts.net.*` time-series.
    pub window_us: Option<u64>,
    /// When set and `rec` is enabled, run the health watchdog's job-end
    /// audits: the per-link shuffle-byte integrals must equal the
    /// engine's own shuffle accounting exactly, and the flow network
    /// must hold no starved flows. Violations emit `alert.*` events
    /// instead of panicking.
    pub health: bool,
}

impl<'a, R: Recorder + ?Sized> JobObservation<'a, R> {
    /// Record onto `rec` at track 0 and time 0, with no rollup and no
    /// audits.
    pub fn new(rec: &'a R) -> Self {
        Self {
            rec,
            track_base: 0,
            t0_us: 0,
            window_us: None,
            health: false,
        }
    }
}

/// What [`simulate_job_observed`] returns beside the recorder's contents.
#[derive(Debug)]
pub struct ObservedJob {
    /// The same metrics [`simulate_job`] returns.
    pub metrics: JobMetrics,
    /// Sorted `(window_index, bytes)` cross-rack traffic pairs; empty
    /// unless [`JobObservation::window_us`] is set.
    pub rollup: Vec<(u64, f64)>,
    /// Number of `alert.*` events the job-end audits fired.
    pub alerts: u64,
}

/// [`simulate_job`] with observability, as configured by `obs`.
///
/// Observation is read-only: `metrics` are identical to
/// [`simulate_job`]'s whatever `obs` asks for.
///
/// # Panics
/// Panics on invalid configuration (zero reducers, empty cluster, …).
pub fn simulate_job_observed<R: Recorder + ?Sized>(
    cluster: &VirtualCluster,
    job: &JobConfig,
    params: &SimParams,
    obs: &JobObservation<R>,
) -> ObservedJob {
    let JobObservation {
        rec,
        track_base,
        t0_us,
        window_us,
        health,
    } = *obs;
    job.validate();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let num_maps = job.num_maps();
    let sizes: Vec<f64> = (0..num_maps).map(|i| job.split_size_mb(i)).collect();
    let layout = HdfsLayout::place(cluster, sizes.len(), job.replication, &mut rng);

    use rand::Rng as _;
    let maps = sizes
        .iter()
        .map(|&size_mb| MapTask {
            size_mb,
            output_mb: size_mb * job.workload.map_selectivity,
            slowdown: if rng.gen::<f64>() < params.straggler_prob {
                params.straggler_slowdown
            } else {
                1.0
            },
            attempts: Vec::new(),
            winner: None,
        })
        .collect();
    let total_map_output: f64 = sizes.iter().map(|s| s * job.workload.map_selectivity).sum();
    let reducers = (0..job.num_reducers)
        .map(|_| ReduceTask {
            vm: None,
            state: ReduceState::Waiting,
            fetches_done: 0,
            input_mb: total_map_output / f64::from(job.num_reducers),
            commit_legs: 0,
            span: SpanId::NULL,
            last_fetch_ideal_us: 0,
            last_fetch_bottleneck: "none",
        })
        .collect();

    if rec.enabled() {
        rec.track_name(TrackId(track_base), "job");
        for (i, vm) in cluster.vms().iter().enumerate() {
            rec.track_name(
                TrackId(track_base + 1 + i as u64),
                &format!("vm{i}@node{}", vm.node.0),
            );
        }
    }
    let job_span = rec.span_begin(
        TrackId(track_base),
        "job",
        t0_us,
        &[
            ("maps", AttrValue::from(num_maps as u64)),
            ("reducers", AttrValue::from(u64::from(job.num_reducers))),
            (
                "cluster_distance",
                AttrValue::from(cluster.affinity_distance()),
            ),
        ],
    );

    let mut net = cluster_net(cluster, params.net);
    // Time-series link samples are trace-only; the byte/busy/peak
    // accumulators inside FlowNet run unconditionally, so recorded and
    // unrecorded runs stay bit-identical.
    net.set_sampling(rec.enabled());
    if let Some(w) = window_us {
        net.set_window_rollup(w, t0_us);
    }
    let mut sim = Sim {
        rec: &rec,
        track_base,
        t0_us,
        job_span,
        cluster,
        job,
        layout,
        engine: Engine::new(),
        net,
        flow_purposes: Vec::new(),
        maps,
        reducers,
        map_sched: MapScheduler::new(num_maps),
        scheduler_policy: params.scheduler,
        speculative: params.speculative_execution,
        speculative_attempts: 0,
        speculative_wins: 0,
        reducer_queue: (0..job.num_reducers).collect(),
        free_map_slots: cluster.vms().iter().map(|v| v.map_slots).collect(),
        free_reduce_slots: cluster.vms().iter().map(|v| v.reduce_slots).collect(),
        maps_done: 0,
        reducers_done: 0,
        local_shuffle_bytes: 0,
        rack_shuffle_bytes: 0,
        remote_shuffle_bytes: 0,
        maps_finished_at: SimTime::ZERO,
        shuffle_finished_at: SimTime::ZERO,
        outstanding_fetch_flows: 0,
        shuffle_bottleneck_bytes: BTreeMap::new(),
        audit: health && rec.enabled(),
        alerts_fired: 0,
    };
    let metrics = sim.run();
    ObservedJob {
        metrics,
        rollup: sim.net.take_window_rollup(),
        alerts: sim.alerts_fired,
    }
}

/// The job's network: only the links its cluster's nodes can touch, so
/// building and tearing it down costs O(cluster), not O(cloud). Every
/// flow the engine starts (HDFS reads, shuffle fetches, output writes)
/// runs between the cluster's own nodes.
fn cluster_net(cluster: &VirtualCluster, net: NetworkParams) -> FlowNet {
    FlowNet::for_nodes(
        cluster.topology_arc(),
        net,
        SolverMode::default(),
        &cluster.nodes(),
    )
}

const MB: f64 = 1_000_000.0;

impl<R: Recorder> Sim<'_, R> {
    /// Simulated time as a shared-timeline timestamp.
    fn t(&self, now: SimTime) -> u64 {
        self.t0_us + now.as_micros()
    }

    /// Timeline lane of a VM.
    fn vm_track(&self, vm_index: usize) -> TrackId {
        TrackId(self.track_base + 1 + vm_index as u64)
    }

    fn run(&mut self) -> JobMetrics {
        let _job_timer = vc_obs::PhaseTimer::start(self.rec, vc_obs::prof::MR_JOB);
        self.schedule_reducers();
        self.fill_map_slots();

        while self.reducers_done < self.job.num_reducers {
            // The next instant is the earlier of the task queue's head and
            // the network's next completion; the queue wins a tie. The
            // network is asked only once the current instant's queued
            // events are handled, so it settles at most once per instant.
            let queued = self.engine.peek_time();
            if queued != Some(self.engine.now()) {
                self.forward_link_samples();
                let net_next = self.net.next_event_time();
                if let Some(t) = net_next.filter(|&t| queued.is_none_or(|q| t < q)) {
                    self.engine.advance_to(t);
                    self.on_flows_done(t);
                    continue;
                }
            }
            let Some((now, event)) = self.engine.pop_traced(self.rec) else {
                panic!(
                    "simulation deadlock: {} of {} reducers done, {} flows active",
                    self.reducers_done,
                    self.job.num_reducers,
                    self.net.active_flows()
                );
            };
            match event {
                TaskDone::MapRead { task, attempt } => self.on_map_read_done(now, task, attempt),
                TaskDone::MapCpu { task, attempt } => self.on_map_cpu_done(now, task, attempt),
                TaskDone::ReduceCpu { reducer } => self.on_reduce_cpu_done(now, reducer),
                TaskDone::ReduceDisk { reducer } => self.on_commit_leg_done(now, reducer),
            }
        }
        self.forward_link_samples();

        let runtime = self.engine.now();
        self.rec.span_end(self.job_span, self.t(runtime));
        let (mut dl, mut rl, mut rm) = (0, 0, 0);
        for m in &self.maps {
            match m.winning_attempt().locality {
                Locality::NodeLocal => dl += 1,
                Locality::RackLocal => rl += 1,
                Locality::Remote => rm += 1,
            }
        }
        self.rec.counter_add("mr.maps.node_local", dl as u64);
        self.rec.counter_add("mr.maps.rack_local", rl as u64);
        self.rec.counter_add("mr.maps.remote", rm as u64);
        self.rec.counter_add(
            "mr.speculative_attempts",
            u64::from(self.speculative_attempts),
        );
        self.rec
            .counter_add("mr.speculative_wins", u64::from(self.speculative_wins));
        self.rec
            .histogram_record("mr.job_runtime_us", runtime.as_micros());

        // Link telemetry. The FlowNet accumulators are always on, so the
        // derived JobMetrics fields below are identical with or without a
        // recorder; only the metric export, whose names cost a `format!`
        // and an `intern` each, is skipped for disabled recorders.
        let export = self.rec.enabled();
        let mut peak_rack_uplink_utilization = 0.0f64;
        let mut rack_uplink_bytes = 0u64;
        let mut node_rx_shuffle_bytes = 0u64;
        let link_stats = self.net.link_stats().to_vec();
        for (info, stats) in self.net.links().iter().zip(&link_stats) {
            if info.class == LinkClass::RackUp {
                if stats.peak_utilization > peak_rack_uplink_utilization {
                    peak_rack_uplink_utilization = stats.peak_utilization;
                }
                rack_uplink_bytes += stats.completed_bytes();
            }
            if info.class == LinkClass::NodeRx {
                node_rx_shuffle_bytes += stats.shuffle_bytes;
            }
            if !export || (stats.completed_bytes() == 0 && stats.bytes_total == 0.0) {
                continue; // unrecorded, or idle link: keep the snapshot small
            }
            let base = format!("net.link.{}", info.name);
            self.rec.counter_add(
                intern(&format!("{base}.bytes")),
                stats.bytes_total.round() as u64,
            );
            self.rec.counter_add(
                intern(&format!("{base}.shuffle_bytes")),
                stats.shuffle_bytes,
            );
            self.rec.counter_add(
                intern(&format!("{base}.busy_us")),
                stats.busy_us.round() as u64,
            );
            self.rec.counter_add(
                intern(&format!("{base}.binding_events")),
                stats.binding_events,
            );
            self.rec
                .gauge_max(intern(&format!("{base}.peak_util")), stats.peak_utilization);
            self.rec.histogram_record(
                intern(&format!("net.link.peak_util_pct.{}", info.class.label())),
                (stats.peak_utilization * 100.0).round() as u64,
            );
        }
        if export {
            for (label, bytes) in &self.shuffle_bottleneck_bytes {
                self.rec.counter_add(
                    intern(&format!("net.shuffle.bottleneck_bytes.{label}")),
                    *bytes,
                );
            }
        }

        // Health watchdog: job-end invariant audits. Both checks are
        // exact — the link integrals and shuffle accounting share every
        // byte — so any alert here is a simulator bug, not noise.
        if self.audit {
            let mut sink = AlertSink::new();
            let end_us = self.t(runtime);
            let track = Some(TrackId(self.track_base));
            let engine_shuffle = self.rack_shuffle_bytes + self.remote_shuffle_bytes;
            if node_rx_shuffle_bytes != engine_shuffle {
                sink.emit(
                    self.rec,
                    end_us,
                    track,
                    Severity::Critical,
                    "netsim",
                    rules::SHUFFLE_CONSERVATION,
                    &[
                        ("link_bytes", AttrValue::U64(node_rx_shuffle_bytes)),
                        ("engine_bytes", AttrValue::U64(engine_shuffle)),
                    ],
                );
            }
            let starved = self.net.starved_flows();
            if !starved.is_empty() {
                sink.emit(
                    self.rec,
                    end_us,
                    track,
                    Severity::Critical,
                    "netsim",
                    rules::FLOW_STARVATION,
                    &[("flows", AttrValue::U64(starved.len() as u64))],
                );
            }
            self.alerts_fired = sink.fired();
        }

        // Fair-share solver effort (always accumulated inside FlowNet;
        // export is a no-op for Noop recorders). Everything except
        // `wall_us` is deterministic for a given workload and seed, which
        // is what makes these usable as CI regression-gate inputs.
        let solver = self.net.solver_stats();
        self.rec.counter_add("prof.solver.solves", solver.solves);
        self.rec
            .counter_add("prof.solver.flows", solver.flows_total);
        self.rec
            .counter_add("prof.solver.links_touched", solver.links_touched_total);
        self.rec
            .counter_add("prof.solver.iterations", solver.iterations_total);
        self.rec
            .counter_add("prof.solver.completion_batches", solver.completion_batches);
        self.rec
            .counter_add("prof.solver.batch_flows", solver.completion_batch_flows);
        self.rec
            .counter_add("prof.solver.flows_skipped", solver.flows_skipped_total);
        self.rec.counter_add("prof.solver.wall_us", solver.wall_us);
        self.rec
            .gauge_max("prof.solver.peak_flows", solver.peak_flows as f64);
        self.rec
            .gauge_max("prof.solver.peak_iterations", solver.peak_iterations as f64);

        JobMetrics {
            runtime,
            cluster_distance: self.cluster.affinity_distance(),
            num_maps: self.maps.len() as u32,
            num_reducers: self.job.num_reducers,
            data_local_maps: dl,
            rack_local_maps: rl,
            remote_maps: rm,
            local_shuffle_bytes: self.local_shuffle_bytes,
            rack_shuffle_bytes: self.rack_shuffle_bytes,
            remote_shuffle_bytes: self.remote_shuffle_bytes,
            maps_finished_at: self.maps_finished_at,
            shuffle_finished_at: self.shuffle_finished_at,
            speculative_attempts: self.speculative_attempts,
            speculative_wins: self.speculative_wins,
            rack_uplink_bytes,
            peak_rack_uplink_utilization,
        }
    }

    /// Hand every transfer that has finished by `now` to its task.
    fn on_flows_done(&mut self, now: SimTime) {
        for done in self.net.take_completed(now) {
            match self.flow_purposes[done.token as usize] {
                FlowPurpose::MapRead { task, attempt } => self.on_map_read_done(now, task, attempt),
                FlowPurpose::Shuffle { reducer, ideal_us } => {
                    let label = self.bottleneck_label(done.bottleneck);
                    self.reducers[reducer as usize].last_fetch_bottleneck = label;
                    *self.shuffle_bottleneck_bytes.entry(label).or_insert(0) += done.bytes;
                    self.on_fetch_done(now, reducer, ideal_us);
                }
                FlowPurpose::OutputWrite { reducer } => self.on_commit_leg_done(now, reducer),
            }
        }
    }

    /// Forward the network's buffered link utilization samples to the
    /// recorder's counter tracks (draining settles the network).
    fn forward_link_samples(&mut self) {
        if self.rec.enabled() {
            for s in self.net.drain_link_samples() {
                let name = intern(&format!("net.link.{}.util", self.net.links()[s.link].name));
                self.rec
                    .counter_sample(name, self.t0_us + s.t_us, s.utilization);
            }
        }
    }

    /// Human label for a completed flow's bottleneck attribution.
    fn bottleneck_label(&self, b: Bottleneck) -> &'static str {
        match b {
            Bottleneck::Link(r) => self.net.links()[r].class.label(),
            Bottleneck::RateCap => "rate-cap",
            Bottleneck::Unconstrained => "none",
        }
    }

    fn start_flow(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64, p: FlowPurpose) {
        let token = self.flow_purposes.len() as u64;
        let class = match p {
            FlowPurpose::MapRead { .. } => FlowClass::MapRead,
            FlowPurpose::Shuffle { .. } => FlowClass::Shuffle,
            FlowPurpose::OutputWrite { .. } => FlowClass::OutputWrite,
        };
        self.flow_purposes.push(p);
        self.net
            .start_flow_classed(now, src, dst, bytes, token, class);
    }

    // ---- reducers: slot assignment ----

    fn schedule_reducers(&mut self) {
        // Assign queued reducers to free reduce slots, FIFO over VM ids.
        while let Some(&r) = self.reducer_queue.front() {
            let slot = (0..self.cluster.len()).find(|&v| self.free_reduce_slots[v] > 0);
            let Some(vm_index) = slot else { return };
            self.reducer_queue.pop_front();
            self.free_reduce_slots[vm_index] -= 1;
            let span = self.rec.span_begin(
                self.vm_track(vm_index),
                "shuffle",
                self.t(self.engine.now()),
                &[("reducer", AttrValue::from(u64::from(r)))],
            );
            let reducer = &mut self.reducers[r as usize];
            reducer.vm = Some(VmId(vm_index as u32));
            reducer.state = ReduceState::Fetching;
            reducer.span = span;
            // Fetch every map output that is already done.
            let done_maps: Vec<(u32, f64, NodeId)> = self
                .maps
                .iter()
                .enumerate()
                .filter(|(_, m)| m.is_done())
                .map(|(i, m)| {
                    (
                        i as u32,
                        m.output_mb,
                        self.cluster.vm(m.winning_attempt().vm).node,
                    )
                })
                .collect();
            let now = self.engine.now();
            for (_map, output_mb, src) in done_maps {
                self.start_fetch(now, output_mb, src, r);
            }
            self.maybe_start_reduce_cpu(self.engine.now(), r);
        }
    }

    // ---- maps ----

    fn fill_map_slots(&mut self) {
        for vm_index in 0..self.cluster.len() {
            while self.free_map_slots[vm_index] > 0 {
                let vm = &self.cluster.vms()[vm_index];
                let Some((task, locality)) = self.map_sched.pick_for_with(
                    self.scheduler_policy,
                    vm,
                    &self.layout,
                    self.cluster,
                ) else {
                    break;
                };
                self.start_attempt(task, vm_index, locality);
            }
        }
        if self.speculative && self.map_sched.is_drained() {
            self.launch_speculative_attempts();
        }
    }

    /// Hadoop's speculative execution: once no fresh tasks remain, free
    /// slots re-run still-running maps; the first copy to finish wins.
    fn launch_speculative_attempts(&mut self) {
        for vm_index in 0..self.cluster.len() {
            while self.free_map_slots[vm_index] > 0 {
                // Slowest running task with a single attempt (Hadoop
                // backs up the worst-progressing task first); ties fall
                // back to the lowest id.
                let candidate = (0..self.maps.len())
                    .filter(|&t| {
                        let m = &self.maps[t];
                        !m.is_done()
                            && m.attempts.len() == 1
                            && m.attempts[0].vm.index() != vm_index
                    })
                    .max_by(|&a, &b| {
                        let (sa, sb) = (self.maps[a].slowdown, self.maps[b].slowdown);
                        sa.partial_cmp(&sb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.cmp(&a))
                    });
                let Some(task) = candidate else { return };
                let vm = &self.cluster.vms()[vm_index];
                let block = BlockId(task as u32);
                let locality = if self.layout.is_local(block, vm.node) {
                    Locality::NodeLocal
                } else if self.layout.is_rack_local(block, vm.node, self.cluster) {
                    Locality::RackLocal
                } else {
                    Locality::Remote
                };
                self.speculative_attempts += 1;
                self.start_attempt(task as u32, vm_index, locality);
            }
        }
    }

    /// Occupy a slot on `vm_index` and start the read phase of a new
    /// attempt of `task`.
    fn start_attempt(&mut self, task: u32, vm_index: usize, locality: Locality) {
        let now = self.engine.now();
        self.free_map_slots[vm_index] -= 1;
        let attempt = self.maps[task as usize].attempts.len() as u8;
        debug_assert!(attempt < 2, "at most one backup per task");
        let span = self.rec.span_begin(
            self.vm_track(vm_index),
            "map",
            self.t(now),
            &[
                ("task", AttrValue::from(u64::from(task))),
                ("attempt", AttrValue::from(u64::from(attempt))),
                ("locality", AttrValue::Str(locality.label())),
                ("speculative", AttrValue::Bool(attempt > 0)),
            ],
        );
        // Stragglers hit first attempts only; record the factor so the
        // critical-path analyzer can separate slack from useful map time.
        let slowdown = self.maps[task as usize].slowdown;
        if attempt == 0 && slowdown > 1.0 {
            self.rec
                .span_attr(span, "slowdown", AttrValue::from(slowdown));
        }
        if attempt > 0 {
            self.rec.event(
                "mr.speculative_launch",
                self.t(now),
                Some(self.vm_track(vm_index)),
                &[("task", AttrValue::from(u64::from(task)))],
            );
        }
        let vm = &self.cluster.vms()[vm_index];
        let m = &mut self.maps[task as usize];
        m.attempts.push(MapAttempt {
            vm: VmId(vm_index as u32),
            locality,
            started: now,
            span,
        });
        let size_mb = m.size_mb;
        if locality == Locality::NodeLocal {
            let read = SimTime::from_secs_f64(size_mb / vm.disk_mb_per_s);
            self.engine
                .schedule(now + read, TaskDone::MapRead { task, attempt });
        } else {
            let src = self
                .layout
                .nearest_replica(BlockId(task), vm.node, self.cluster);
            let dst = vm.node;
            self.start_flow(
                now,
                src,
                dst,
                (size_mb * MB) as u64,
                FlowPurpose::MapRead { task, attempt },
            );
        }
    }

    fn on_map_read_done(&mut self, now: SimTime, task: u32, attempt: u8) {
        let m = &self.maps[task as usize];
        let att = m.attempts[usize::from(attempt)];
        if m.is_done() {
            // A sibling attempt already won; release this attempt's slot.
            self.rec.span_attr(att.span, "lost", AttrValue::Bool(true));
            self.rec.span_end(att.span, self.t(now));
            self.free_map_slots[att.vm.index()] += 1;
            self.fill_map_slots();
            return;
        }
        let vm = self.cluster.vm(att.vm);
        // Stragglers afflict first attempts; backups run clean.
        let slow = if attempt == 0 { m.slowdown } else { 1.0 };
        let compute_s = m.size_mb * self.job.workload.map_cpu_factor * slow / vm.slot_mb_per_s;
        let spill_s = m.output_mb / vm.disk_mb_per_s;
        self.engine.schedule(
            now + SimTime::from_secs_f64(compute_s + spill_s),
            TaskDone::MapCpu { task, attempt },
        );
    }

    fn on_map_cpu_done(&mut self, now: SimTime, task: u32, attempt: u8) {
        let m = &self.maps[task as usize];
        let att = m.attempts[usize::from(attempt)];
        if m.is_done() {
            // Lost the race: discard output, release the slot.
            self.rec.span_attr(att.span, "lost", AttrValue::Bool(true));
            self.rec.span_end(att.span, self.t(now));
            self.free_map_slots[att.vm.index()] += 1;
            self.fill_map_slots();
            return;
        }
        self.rec.span_attr(att.span, "won", AttrValue::Bool(true));
        self.rec.span_end(att.span, self.t(now));
        self.rec.counter_add("mr.maps_done", 1);
        self.rec
            .histogram_record("mr.map_duration_us", (now - att.started).as_micros());
        self.maps[task as usize].winner = Some(attempt);
        if attempt > 0 {
            self.speculative_wins += 1;
            self.rec.event(
                "mr.speculative_win",
                self.t(now),
                Some(self.vm_track(att.vm.index())),
                &[("task", AttrValue::from(u64::from(task)))],
            );
        }
        self.maps_done += 1;
        if self.maps_done == self.maps.len() as u32 {
            self.maps_finished_at = now;
        }
        // Shuffle this output to every reducer already holding a slot.
        let src = self.cluster.vm(att.vm).node;
        let output_mb = self.maps[task as usize].output_mb;
        for r in 0..self.reducers.len() as u32 {
            if self.reducers[r as usize].vm.is_some()
                && self.reducers[r as usize].state != ReduceState::Done
            {
                self.start_fetch(now, output_mb, src, r);
            }
        }
        // Free the slot and pull more work.
        self.free_map_slots[att.vm.index()] += 1;
        self.fill_map_slots();
    }

    // ---- shuffle ----

    fn start_fetch(&mut self, now: SimTime, output_mb: f64, src: NodeId, reducer: u32) {
        let r_vm = self.reducers[reducer as usize]
            .vm
            .expect("fetching reducer has a vm");
        let dst = self.cluster.vm(r_vm).node;
        let bytes = (output_mb * MB / f64::from(self.job.num_reducers)) as u64;
        // Classify for Fig. 8.
        let shuffle_locality = if src == dst {
            self.local_shuffle_bytes += bytes;
            "node_local"
        } else if self.cluster.topology().same_rack(src, dst) {
            self.rack_shuffle_bytes += bytes;
            "rack_local"
        } else {
            self.remote_shuffle_bytes += bytes;
            "remote"
        };
        if self.rec.enabled() {
            self.rec.event(
                "mr.shuffle_fetch",
                self.t(now),
                Some(self.vm_track(r_vm.index())),
                &[
                    ("reducer", AttrValue::from(u64::from(reducer))),
                    ("bytes", AttrValue::from(bytes)),
                    ("locality", AttrValue::Str(shuffle_locality)),
                ],
            );
        }
        self.rec.counter_add(
            match shuffle_locality {
                "node_local" => "mr.shuffle.node_local_bytes",
                "rack_local" => "mr.shuffle.rack_local_bytes",
                _ => "mr.shuffle.remote_bytes",
            },
            bytes,
        );
        self.outstanding_fetch_flows += 1;
        let ideal_us = if self.rec.enabled() {
            self.net.isolated_transfer_time(src, dst, bytes).as_micros()
        } else {
            0
        };
        self.start_flow(
            now,
            src,
            dst,
            bytes,
            FlowPurpose::Shuffle { reducer, ideal_us },
        );
    }

    fn on_fetch_done(&mut self, now: SimTime, reducer: u32, ideal_us: u64) {
        self.outstanding_fetch_flows -= 1;
        self.reducers[reducer as usize].fetches_done += 1;
        self.reducers[reducer as usize].last_fetch_ideal_us = ideal_us;
        if self.outstanding_fetch_flows == 0 && self.maps_done == self.maps.len() as u32 {
            self.shuffle_finished_at = now;
        }
        self.maybe_start_reduce_cpu(now, reducer);
    }

    fn maybe_start_reduce_cpu(&mut self, now: SimTime, reducer: u32) {
        let all_maps_done = self.maps_done == self.maps.len() as u32;
        let r = &self.reducers[reducer as usize];
        if r.state == ReduceState::Fetching
            && all_maps_done
            && r.fetches_done == self.maps.len() as u32
        {
            if self.rec.enabled() {
                // Everything the critical-path analyzer needs to split the
                // shuffle tail: when the maps stopped producing, and the
                // contention-free duration of the gating (last) fetch.
                self.rec.span_attr(
                    r.span,
                    "maps_done_us",
                    AttrValue::from(self.t(self.maps_finished_at)),
                );
                self.rec.span_attr(
                    r.span,
                    "last_fetch_ideal_us",
                    AttrValue::from(r.last_fetch_ideal_us),
                );
                self.rec.span_attr(
                    r.span,
                    "last_fetch_bottleneck",
                    AttrValue::Str(r.last_fetch_bottleneck),
                );
            }
            self.rec.span_end(r.span, self.t(now));
            let vm_id = r.vm.expect("computing reducer has a vm");
            let span = self.rec.span_begin(
                self.vm_track(vm_id.index()),
                "reduce",
                self.t(now),
                &[("reducer", AttrValue::from(u64::from(reducer)))],
            );
            let r = &mut self.reducers[reducer as usize];
            r.state = ReduceState::Computing;
            r.span = span;
            let vm = self.cluster.vm(vm_id);
            let compute_s = r.input_mb * self.job.workload.reduce_cpu_factor / vm.slot_mb_per_s;
            self.engine.schedule(
                now + SimTime::from_secs_f64(compute_s),
                TaskDone::ReduceCpu { reducer },
            );
        }
    }

    // ---- commit (reduce → DFS) ----

    fn on_reduce_cpu_done(&mut self, now: SimTime, reducer: u32) {
        let old_span = self.reducers[reducer as usize].span;
        self.rec.span_end(old_span, self.t(now));
        let vm_index = self.reducers[reducer as usize]
            .vm
            .expect("committing reducer has a vm")
            .index();
        let span = self.rec.span_begin(
            self.vm_track(vm_index),
            "commit",
            self.t(now),
            &[("reducer", AttrValue::from(u64::from(reducer)))],
        );
        let r = &mut self.reducers[reducer as usize];
        debug_assert_eq!(r.state, ReduceState::Computing);
        r.state = ReduceState::Committing;
        r.span = span;
        let vm_id = r.vm.expect("committing reducer has a vm");
        let vm = self.cluster.vm(vm_id);
        let output_mb = r.input_mb * self.job.workload.reduce_selectivity;
        // Leg 1: local disk write.
        r.commit_legs = 1;
        let disk = SimTime::from_secs_f64(output_mb / vm.disk_mb_per_s);
        self.engine
            .schedule(now + disk, TaskDone::ReduceDisk { reducer });
        // Legs 2..replication: pipeline to other nodes (off-rack first, per
        // HDFS policy).
        let topo = self.cluster.topology();
        let mut targets: Vec<NodeId> = self
            .cluster
            .nodes()
            .into_iter()
            .filter(|&n| n != vm.node)
            .collect();
        // HDFS policy: prefer a *different* rack for fault tolerance, but
        // the nearest such (same cloud before WAN); remaining replicas fill
        // by distance.
        targets.sort_by_key(|&n| (topo.same_rack(n, vm.node), topo.distance(n, vm.node), n));
        targets.truncate(self.job.replication.saturating_sub(1) as usize);
        let bytes = (output_mb * MB) as u64;
        for dst in targets {
            self.reducers[reducer as usize].commit_legs += 1;
            self.start_flow(
                now,
                vm.node,
                dst,
                bytes,
                FlowPurpose::OutputWrite { reducer },
            );
        }
    }

    fn on_commit_leg_done(&mut self, now: SimTime, reducer: u32) {
        let r = &mut self.reducers[reducer as usize];
        debug_assert_eq!(r.state, ReduceState::Committing);
        r.commit_legs -= 1;
        if r.commit_legs == 0 {
            r.state = ReduceState::Done;
            let span = r.span;
            self.reducers_done += 1;
            let vm_id = r.vm.expect("done reducer has a vm");
            self.rec.span_end(span, self.t(now));
            self.rec.counter_add("mr.reducers_done", 1);
            self.free_reduce_slots[vm_id.index()] += 1;
            self.schedule_reducers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::sync::Arc;
    use vc_topology::{generate, DistanceTiers};

    fn topo() -> Arc<vc_topology::Topology> {
        Arc::new(generate::uniform(2, 4, DistanceTiers::paper_experiment()))
    }

    fn compact_cluster() -> VirtualCluster {
        // 4 VMs on 4 nodes of one rack.
        VirtualCluster::homogeneous(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 4, topo())
    }

    fn spread_cluster() -> VirtualCluster {
        // 4 VMs across both racks.
        VirtualCluster::homogeneous(&[NodeId(0), NodeId(1), NodeId(4), NodeId(5)], 4, topo())
    }

    fn small_job() -> JobConfig {
        JobConfig {
            workload: Workload::wordcount(),
            input_mb: 8.0 * 64.0,
            split_mb: 64.0,
            num_reducers: 1,
            replication: 3,
        }
    }

    #[test]
    fn job_completes_with_sane_metrics() {
        let m = simulate_job(&compact_cluster(), &small_job(), &SimParams::default());
        assert_eq!(m.num_maps, 8);
        assert_eq!(m.num_reducers, 1);
        assert_eq!(m.data_local_maps + m.rack_local_maps + m.remote_maps, 8);
        assert!(m.runtime > SimTime::ZERO);
        assert!(m.maps_finished_at <= m.shuffle_finished_at);
        assert!(m.shuffle_finished_at <= m.runtime);
        assert!(m.total_shuffle_bytes() > 0);
    }

    #[test]
    fn deterministic() {
        let a = simulate_job(&compact_cluster(), &small_job(), &SimParams::default());
        let b = simulate_job(&compact_cluster(), &small_job(), &SimParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn compact_cluster_no_remote_maps() {
        // A single-rack cluster can never have worse than rack-local reads.
        let m = simulate_job(&compact_cluster(), &small_job(), &SimParams::default());
        assert_eq!(m.remote_maps, 0);
        assert_eq!(m.cluster_distance, 1 + 1 + 1);
    }

    #[test]
    fn spread_cluster_larger_distance_and_slower() {
        let compact = simulate_job(&compact_cluster(), &small_job(), &SimParams::default());
        let spread = simulate_job(&spread_cluster(), &small_job(), &SimParams::default());
        assert!(spread.cluster_distance > compact.cluster_distance);
        // With a shuffle-heavy workload the gap is guaranteed; WordCount's
        // combiner makes it small, so use TeraSort for the strict check.
        let ts_job = JobConfig {
            workload: Workload::terasort(),
            ..small_job()
        };
        let c = simulate_job(&compact_cluster(), &ts_job, &SimParams::default());
        let s = simulate_job(&spread_cluster(), &ts_job, &SimParams::default());
        assert!(
            s.runtime > c.runtime,
            "spread {} should be slower than compact {}",
            s.runtime,
            c.runtime
        );
    }

    #[test]
    fn single_vm_cluster_all_local() {
        let vc = VirtualCluster::homogeneous(&[NodeId(0)], 1, topo());
        let job = JobConfig {
            replication: 1,
            ..small_job()
        };
        let m = simulate_job(&vc, &job, &SimParams::default());
        assert_eq!(m.data_local_maps, m.num_maps);
        assert_eq!(m.remote_shuffle_bytes, 0);
        assert_eq!(m.rack_shuffle_bytes, 0);
        assert_eq!(m.non_local_shuffle_fraction(), 0.0);
        assert_eq!(m.cluster_distance, 0);
    }

    #[test]
    fn reducer_waves_when_fewer_slots() {
        // 1 VM with 1 reduce slot, 3 reducers: must run in waves and finish.
        let vc = VirtualCluster::homogeneous(&[NodeId(0), NodeId(1)], 2, topo());
        let job = JobConfig {
            num_reducers: 3,
            ..small_job()
        };
        let m = simulate_job(&vc, &job, &SimParams::default());
        assert_eq!(m.num_reducers, 3);
        assert!(m.runtime > SimTime::ZERO);
    }

    #[test]
    fn more_reducers_spread_shuffle() {
        let job1 = small_job();
        let job4 = JobConfig {
            num_reducers: 4,
            ..small_job()
        };
        let m1 = simulate_job(&compact_cluster(), &job1, &SimParams::default());
        let m4 = simulate_job(&compact_cluster(), &job4, &SimParams::default());
        // Same total shuffle volume (±rounding), different fan-out.
        let t1 = m1.total_shuffle_bytes() as f64;
        let t4 = m4.total_shuffle_bytes() as f64;
        assert!((t1 - t4).abs() / t1 < 0.01, "shuffle volumes {t1} vs {t4}");
    }

    #[test]
    fn shuffle_heavy_workload_moves_more() {
        let wc = simulate_job(&compact_cluster(), &small_job(), &SimParams::default());
        let ts = simulate_job(
            &compact_cluster(),
            &JobConfig {
                workload: Workload::terasort(),
                ..small_job()
            },
            &SimParams::default(),
        );
        assert!(ts.total_shuffle_bytes() > 10 * wc.total_shuffle_bytes());
        assert!(ts.runtime > wc.runtime);
    }

    #[test]
    fn speculation_beats_stragglers() {
        // Half the first attempts straggle 8x; backups rescue them.
        // Seed chosen so the straggler draws are mixed (some attempts
        // straggle, some run clean) — the scenario speculation targets.
        let straggly = SimParams {
            seed: 2,
            straggler_prob: 0.5,
            straggler_slowdown: 8.0,
            speculative_execution: false,
            ..SimParams::default()
        };
        let with_spec = SimParams {
            speculative_execution: true,
            ..straggly.clone()
        };
        // One slot per map: with no second wave competing for slots,
        // backups launch as soon as the first clean maps finish and beat
        // the 8x primaries by a wide margin. (On a slot-starved cluster
        // the backup and straggler finish on the same tick and FIFO event
        // order keeps the primary's win.)
        let cluster =
            VirtualCluster::homogeneous(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 8, topo());
        let job = small_job();
        let slow = simulate_job(&cluster, &job, &straggly);
        let fast = simulate_job(&cluster, &job, &with_spec);
        assert_eq!(slow.speculative_attempts, 0);
        assert!(
            fast.speculative_attempts > 0,
            "drained pool must trigger backups"
        );
        assert!(
            fast.speculative_wins > 0,
            "8x stragglers must lose the race"
        );
        assert!(
            fast.runtime < slow.runtime,
            "speculation {fast:?} should beat stragglers {slow:?}"
        );
        assert_eq!(fast.num_maps, slow.num_maps);
    }

    #[test]
    fn traced_run_records_spans_and_metrics() {
        use vc_obs::MemRecorder;
        let rec = MemRecorder::new();
        let m = simulate_job_observed(
            &compact_cluster(),
            &small_job(),
            &SimParams::default(),
            &JobObservation::new(&rec),
        )
        .metrics;
        // Tracing must not perturb the simulation.
        assert_eq!(
            m,
            simulate_job(&compact_cluster(), &small_job(), &SimParams::default())
        );
        let spans = rec.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("job"), 1);
        assert_eq!(count("map"), 8);
        assert_eq!(count("shuffle"), 1);
        assert_eq!(count("reduce"), 1);
        assert_eq!(count("commit"), 1);
        assert_eq!(rec.open_span_count(), 0, "all spans closed at job end");
        // Every map span carries a locality label.
        for s in spans.iter().filter(|s| s.name == "map") {
            let loc = s
                .attrs
                .iter()
                .find(|(k, _)| *k == "locality")
                .and_then(|(_, v)| v.as_str())
                .expect("map span has locality");
            assert!(["node_local", "rack_local", "remote"].contains(&loc));
        }
        let snap = rec.metrics();
        assert_eq!(snap.counters["mr.maps_done"], 8);
        assert_eq!(snap.counters["mr.reducers_done"], 1);
        assert!(snap.counters["des.events_processed"] > 0);
        assert!(snap.histograms["mr.map_duration_us"].count == 8);
        // Job span covers the whole runtime on the shared timeline.
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(job.end_us, Some(m.runtime.as_micros()));
        // Track offsets shift lanes and timestamps for embedded jobs.
        let rec2 = MemRecorder::new();
        let _ = simulate_job_observed(
            &compact_cluster(),
            &small_job(),
            &SimParams::default(),
            &JobObservation {
                track_base: 100,
                t0_us: 5_000,
                ..JobObservation::new(&rec2)
            },
        );
        let job2 = rec2.spans().into_iter().find(|s| s.name == "job").unwrap();
        assert_eq!(job2.track.0, 100);
        assert_eq!(job2.start_us, 5_000);
        assert_eq!(job2.end_us, Some(5_000 + m.runtime.as_micros()));
    }

    #[test]
    fn speculation_noop_without_stragglers() {
        let params = SimParams {
            speculative_execution: true,
            ..SimParams::default()
        };
        let base = simulate_job(&compact_cluster(), &small_job(), &SimParams::default());
        let spec = simulate_job(&compact_cluster(), &small_job(), &params);
        // Backups may launch near the end but the job outcome is unchanged
        // in locality accounting and roughly on runtime.
        assert_eq!(
            spec.data_local_maps + spec.rack_local_maps + spec.remote_maps,
            8
        );
        // Late backups add a little read/disk contention, so allow a
        // small margin rather than strict equality.
        assert!(
            spec.runtime.as_micros() as f64 <= base.runtime.as_micros() as f64 * 1.05,
            "speculation without stragglers should not materially slow the job: \
             {spec:?} vs {base:?}"
        );
        assert!(spec.speculative_wins <= spec.speculative_attempts);
    }

    #[test]
    fn straggler_draws_deterministic() {
        let params = SimParams {
            straggler_prob: 0.3,
            speculative_execution: true,
            ..SimParams::default()
        };
        let a = simulate_job(&spread_cluster(), &small_job(), &params);
        let b = simulate_job(&spread_cluster(), &small_job(), &params);
        assert_eq!(a, b);
    }

    #[test]
    fn job_net_size_follows_the_cluster_not_the_cloud() {
        // A 48×40 cloud has 2 · (1920 + 48 + 1) = 3938 links; a job on
        // 4 distinct nodes in 3 racks of 1 cloud needs 2 · (4 + 3 + 1).
        let topo = Arc::new(generate::uniform(48, 40, DistanceTiers::paper_experiment()));
        let placed = [7, 3, 45, 1900, 3, 7].map(NodeId);
        let cluster = VirtualCluster::homogeneous(&placed, placed.len(), Arc::clone(&topo));
        let nodes = cluster.nodes();
        let mut racks: Vec<_> = nodes.iter().map(|&n| topo.rack_of(n)).collect();
        racks.dedup();
        let mut clouds: Vec<_> = nodes.iter().map(|&n| topo.cloud_of(n)).collect();
        clouds.dedup();
        let (k, r, c) = (nodes.len(), racks.len(), clouds.len());
        assert_eq!((k, r, c), (4, 3, 1));
        let net = cluster_net(&cluster, NetworkParams::default());
        assert_eq!(net.links().len(), 2 * (k + r + c));
        assert_eq!(net.links()[0].name, "node3.tx");
        assert_eq!(net.links().last().unwrap().name, "cloud0.down");
        // Every flow the job starts stays on those nodes: a flow off the
        // set would panic.
        let m = simulate_job(&cluster, &small_job(), &SimParams::default());
        assert!(m.total_shuffle_bytes() > 0 && m.rack_uplink_bytes > 0);
    }

    #[test]
    fn terasort_settles_at_most_once_per_instant() {
        use vc_obs::MemRecorder;
        // 12 VMs over all three racks of the paper's 3×10 cloud, running
        // a 32-map, 8-reducer terasort: every map finish starts a burst
        // of fetches at one instant.
        let topo = Arc::new(generate::uniform(3, 10, DistanceTiers::paper_experiment()));
        let nodes = [0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23].map(NodeId);
        let cluster = VirtualCluster::homogeneous(&nodes, nodes.len(), topo);
        let job = JobConfig {
            workload: Workload::terasort(),
            input_mb: 32.0 * 64.0,
            split_mb: 64.0,
            num_reducers: 8,
            replication: 3,
        };
        let rec = MemRecorder::new();
        let m = simulate_job_observed(
            &cluster,
            &job,
            &SimParams::default(),
            &JobObservation::new(&rec),
        )
        .metrics;
        let snap = rec.metrics();
        // The queue holds task events only, and the net settles at most
        // once per instant, when the job asks it for its next completion
        // (settling after every start and completion batch took 294
        // solves here).
        let events = snap.counters["des.events_processed"];
        let solves = snap.counters["prof.solver.solves"];
        assert_eq!((events, solves), (77, 25));
        assert_eq!(snap.counters["prof.solver.completion_batches"], 19);
        assert_eq!(snap.counters["prof.solver.batch_flows"], 275);
        assert_eq!(
            m,
            JobMetrics {
                runtime: SimTime::from_micros(38_720_373),
                cluster_distance: 19,
                num_maps: 32,
                num_reducers: 8,
                data_local_maps: 29,
                rack_local_maps: 3,
                remote_maps: 0,
                local_shuffle_bytes: 192_000_000,
                rack_shuffle_bytes: 576_000_000,
                remote_shuffle_bytes: 1_280_000_000,
                maps_finished_at: SimTime::from_micros(10_240_002),
                shuffle_finished_at: SimTime::from_micros(11_269_988),
                speculative_attempts: 0,
                speculative_wins: 0,
                rack_uplink_bytes: 5_376_000_000,
                // A peak over settled states only: settling after every
                // change also saw a 0 µs state at 1.0000000000000004.
                peak_rack_uplink_utilization: 1.000_000_000_000_000_2,
            }
        );
        assert_eq!(
            m.peak_rack_uplink_utilization.to_bits(),
            0x3ff0_0000_0000_0001
        );
    }
}
