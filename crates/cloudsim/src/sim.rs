//! The request-queue event loop.

use crate::arrivals::CloudRequest;
use crate::probe::{JobTelemetry, Probes, SimView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use vc_des::{Engine, EventKind, SimTime};
use vc_mapreduce::engine::SimParams;
use vc_mapreduce::{JobConfig, JobObservation, VirtualCluster};
use vc_model::{Allocation, ClusterState, Request};
use vc_obs::prof::{self, PhaseTimer};
use vc_obs::{AttrValue, NoopRecorder, Recorder, SpanId, TrackId};
use vc_placement::distance::distance_with_center;
use vc_placement::global::{self, Admission};
use vc_placement::online::ScanConfig;
use vc_placement::{PlacementError, PlacementPolicy};
use vc_topology::{RackId, Topology};

/// Track-id stride between requests on a shared timeline: request `i`
/// owns tracks `STRIDE·(i+1) ..`, leaving track 0 for queue-level
/// counters. Large enough that an embedded MapReduce job (one lane per
/// VM) never spills into the next request's range.
const TRACK_STRIDE: u64 = 1024;

/// How queued requests are served.
pub enum PolicyMode {
    /// Serve the queue head with a per-request policy whenever resources
    /// allow (plain FIFO; this is how Algorithm 1 and all baselines run).
    Individual(Box<dyn PlacementPolicy>),
    /// At every arrival/departure run **Algorithm 2** over the whole
    /// queue: admit a batch, place with Algorithm 1 (scanning seeds per
    /// the [`ScanConfig`]), then apply the Theorem-2 exchange pass before
    /// committing.
    GlobalBatch(Admission, ScanConfig),
}

/// Where a served request's holding time comes from.
#[derive(Debug, Clone, Default)]
pub enum ServiceModel {
    /// Use the trace's pre-drawn [`CloudRequest::service_time`].
    #[default]
    Trace,
    /// Close the paper's loop: instantiate the placed allocation as a
    /// [`VirtualCluster`], run the given MapReduce job on it with the
    /// `vc-mapreduce` simulator, and hold the VMs for the measured
    /// runtime. Tighter placements finish sooner and release capacity
    /// earlier — affinity feeds back into queueing.
    MapReduce {
        /// The job every tenant runs.
        job: JobConfig,
        /// MapReduce/network simulation parameters.
        params: SimParams,
    },
}

/// Simulation inputs.
pub struct SimConfig {
    /// The request trace (see [`crate::arrivals::ArrivalProcess`]).
    pub requests: Vec<CloudRequest>,
    /// Placement strategy.
    pub mode: PolicyMode,
    /// Holding-time model.
    pub service: ServiceModel,
    /// Seed for stochastic placement policies.
    pub seed: u64,
    /// When set, sample the `ts.*` cloud-health time-series into
    /// fixed-width sim-time windows of this many microseconds (see
    /// `vc_obs::timeseries`). Pure observation: results are identical
    /// with it on or off, and it costs nothing unless a recorder is
    /// enabled.
    pub ts_window_us: Option<u64>,
    /// Run the cloud-health watchdog: cadenced invariant auditors inside
    /// the DES loop plus anomaly detectors over the `ts.*` windows (the
    /// latter require [`Self::ts_window_us`]).
    /// Violations emit structured `alert.*` events instead of panicking.
    /// Like sampling, the watchdog is read-only — results are
    /// bit-identical with it on or off — and idle without a recorder.
    pub health: bool,
}

impl SimConfig {
    /// Trace-driven service times (the common case).
    pub fn new(requests: Vec<CloudRequest>, mode: PolicyMode, seed: u64) -> Self {
        Self {
            requests,
            mode,
            service: ServiceModel::Trace,
            seed,
            ts_window_us: None,
            health: false,
        }
    }

    /// Replace the holding-time model.
    pub fn with_service(mut self, service: ServiceModel) -> Self {
        self.service = service;
        self
    }

    /// Enable windowed `ts.*` time-series sampling on the given cadence.
    ///
    /// # Panics
    /// Panics if `window_us` is zero.
    pub fn with_timeseries(mut self, window_us: u64) -> Self {
        assert!(window_us > 0, "time-series window must be positive");
        self.ts_window_us = Some(window_us);
        self
    }

    /// Enable the cloud-health watchdog.
    pub fn with_health(mut self) -> Self {
        self.health = true;
        self
    }

    /// The placement-policy name this config runs under, for run
    /// manifests and reports.
    pub fn policy_name(&self) -> String {
        match &self.mode {
            PolicyMode::Individual(policy) => policy.name().to_string(),
            PolicyMode::GlobalBatch(admission, _) => format!("global-batch/{admission:?}"),
        }
    }

    /// Identity facts for a run manifest (see `vc_obs::manifest`):
    /// everything about this config that affects results, as sorted
    /// key/value pairs. The caller merges in command-level knobs
    /// (topology shape, workload parameters) it owns.
    pub fn manifest_entries(&self) -> Vec<(String, String)> {
        let service = match &self.service {
            ServiceModel::Trace => "trace".to_string(),
            ServiceModel::MapReduce { job, .. } => {
                format!(
                    "mapreduce/maps={}/reducers={}",
                    job.num_maps(),
                    job.num_reducers
                )
            }
        };
        vec![
            ("policy".to_string(), self.policy_name()),
            ("service".to_string(), service),
            ("requests".to_string(), self.requests.len().to_string()),
            (
                "window_us".to_string(),
                self.ts_window_us.unwrap_or(0).to_string(),
            ),
            (
                "health".to_string(),
                if self.health { "on" } else { "off" }.to_string(),
            ),
        ]
    }
}

/// Per-request outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// Cluster distance of the final allocation (after any exchange
    /// pass), measured from its designated centre. `None` if refused.
    pub distance: Option<u64>,
    /// Distance when first placed, before any Theorem-2 exchanges.
    pub initial_distance: Option<u64>,
    /// Chosen central node (topology index). `None` if refused.
    pub center: Option<u32>,
    /// Physical nodes spanned. `None` if refused.
    pub span: Option<u32>,
    /// Submission time.
    pub arrival: SimTime,
    /// Service start, if served.
    pub started: Option<SimTime>,
    /// Service completion, if served.
    pub finished: Option<SimTime>,
    /// Whether the request exceeded total capacity and was refused.
    pub refused: bool,
    /// Measured MapReduce runtime, when [`ServiceModel::MapReduce`] is in
    /// effect (equals `finished - started` there).
    pub job_runtime: Option<SimTime>,
}

impl RequestOutcome {
    /// Queueing delay (start − arrival); `None` if never served.
    pub fn wait(&self) -> Option<SimTime> {
        self.started.map(|s| s.saturating_sub(self.arrival))
    }

    /// A request that has arrived but is neither served nor refused.
    fn pending(req: &CloudRequest) -> Self {
        RequestOutcome {
            id: req.id,
            distance: None,
            initial_distance: None,
            center: None,
            span: None,
            arrival: req.arrival,
            started: None,
            finished: None,
            refused: false,
            job_runtime: None,
        }
    }
}

/// Aggregate results.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Outcomes indexed by request id.
    pub outcomes: Vec<RequestOutcome>,
    /// Σ final distances over served requests.
    pub total_distance: u64,
    /// Σ initial (pre-exchange) distances over served requests.
    pub total_initial_distance: u64,
    /// Served request count.
    pub served: usize,
    /// Refused request count.
    pub refused: usize,
    /// Mean queueing delay over served requests.
    pub mean_wait: SimTime,
    /// Time-weighted average fraction of VM slots in use over the whole
    /// simulated horizon.
    pub avg_utilization: f64,
    /// Peak fraction of VM slots in use.
    pub peak_utilization: f64,
}

impl SimResult {
    fn new(outcomes: Vec<RequestOutcome>, avg_utilization: f64, peak_utilization: f64) -> Self {
        let served = outcomes.iter().filter(|o| o.started.is_some()).count();
        let refused = outcomes.iter().filter(|o| o.refused).count();
        let total_distance = outcomes.iter().filter_map(|o| o.distance).sum();
        let total_initial_distance = outcomes.iter().filter_map(|o| o.initial_distance).sum();
        let total_wait: u64 = outcomes
            .iter()
            .filter_map(|o| o.wait())
            .map(|w| w.as_micros())
            .sum();
        let mean_wait = if served > 0 {
            SimTime::from_micros(total_wait / served as u64)
        } else {
            SimTime::ZERO
        };
        SimResult {
            outcomes,
            total_distance,
            total_initial_distance,
            served,
            refused,
            mean_wait,
            avg_utilization,
            peak_utilization,
        }
    }
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    Departure(u64),
}

impl EventKind for Event {
    fn kind(&self) -> &'static str {
        match self {
            Event::Arrival(_) => "cloudsim.event.arrival",
            Event::Departure(_) => "cloudsim.event.departure",
        }
    }
}

/// Run the simulation to completion (all arrivals processed, all served
/// clusters released).
///
/// # Panics
/// Panics if request ids are not dense `0..n` in arrival order.
pub fn run(state: &ClusterState, config: SimConfig) -> SimResult {
    run_recorded(state, config, &NoopRecorder)
}

/// Free-resource fragmentation index: `1 − max_rack_free / total_free`,
/// where both terms count free VM slots via the placement index's rack
/// aggregates. 0 means every free slot sits in one rack (a tight request
/// can still land with zero cross-rack spill); values toward 1 mean the
/// free pool is shredded across racks. Defined as 0 — never NaN — on the
/// degenerate clouds: fully allocated (no free slots anywhere) and empty
/// (zero total capacity) both have `total_free == 0`.
pub(crate) fn fragmentation_index(state: &ClusterState, topo: &Topology) -> f64 {
    let idx = state.index();
    let mut total_free = 0u64;
    let mut max_rack_free = 0u64;
    for r in 0..topo.num_racks() {
        let free: u64 = idx
            .rack_free(RackId(r as u32))
            .iter()
            .map(|&x| u64::from(x))
            .sum();
        total_free += free;
        max_rack_free = max_rack_free.max(free);
    }
    if total_free == 0 {
        0.0
    } else {
        1.0 - max_rack_free as f64 / total_free as f64
    }
}

/// [`run`] with observability: queue-depth samples and histograms,
/// admission/refusal events, provisioning-latency (`cloudsim.wait_us`)
/// and holding-time histograms, per-request timeline spans, and — when
/// [`ServiceModel::MapReduce`] is active — full task-level traces of every
/// job, each on its own track range, all land on `rec`.
///
/// # Panics
/// Panics if request ids are not dense `0..n` in arrival order.
pub fn run_recorded(state: &ClusterState, config: SimConfig, rec: &dyn Recorder) -> SimResult {
    // Total simulator wall-clock: every other prof phase tiles inside
    // this one (drops when the function returns).
    let _run_timer = PhaseTimer::start(rec, prof::CLOUDSIM_RUN);
    let SimConfig {
        requests,
        mode,
        service,
        seed,
        ts_window_us,
        health,
    } = config;
    for (i, r) in requests.iter().enumerate() {
        assert_eq!(r.id, i as u64, "request ids must be dense and ordered");
    }
    let mut engine = Engine::new();
    for (i, r) in requests.iter().enumerate() {
        engine.schedule(r.arrival, Event::Arrival(i));
    }
    let mut probes = Probes::new(rec, ts_window_us, health, &service, state.topology());
    // Jobs sample windows and audit themselves only for a live recorder.
    let observed = rec.enabled();
    let mut sim = Sim {
        requests: &requests,
        mode: &mode,
        service: &service,
        rec,
        job_window: ts_window_us.filter(|_| observed),
        job_health: health && observed,
        state: state.clone(),
        queue: VecDeque::new(),
        live: BTreeMap::new(),
        outcomes: requests.iter().map(RequestOutcome::pending).collect(),
        engine,
        rng: StdRng::seed_from_u64(seed),
        req_spans: BTreeMap::new(),
        arrivals_seen: 0,
        served: 0,
        refused: 0,
        jobs: JobTelemetry::default(),
    };
    if rec.enabled() {
        rec.track_name(TrackId(0), "cloud queue");
    }

    let capacity_total = sim.state.capacity().total();
    let mut last_time = SimTime::ZERO;
    let mut used_integral = 0f64; // slot-microseconds
    let mut peak_used = 0u64;
    loop {
        let popped = {
            let _t = PhaseTimer::start(rec, prof::DES_POP);
            sim.engine.pop_traced(&rec)
        };
        let Some((now, event)) = popped else { break };
        // Close every window edge the clock just crossed *before*
        // processing the event: the sampled state is exactly the state
        // as of the edge, because no event in [edge, now) exists.
        probes.close_due(&sim.view(now), rec);
        used_integral += sim.state.used_total() as f64 * (now - last_time).as_micros() as f64;
        last_time = now;
        match event {
            Event::Arrival(idx) => sim.arrive(now, idx),
            Event::Departure(id) => sim.depart(now, id),
        }
        sim.serve(now);
        let (queue_len, used) = (sim.queue.len(), sim.state.used_total());
        rec.counter_sample("cloudsim.queue_depth", now.as_micros(), queue_len as f64);
        rec.histogram_record("cloudsim.queue_depth", queue_len as u64);
        rec.counter_sample("cloudsim.used_slots", now.as_micros(), used as f64);
        peak_used = peak_used.max(used);
        let jobs = std::mem::take(&mut sim.jobs);
        probes.on_event(&sim.view(now), rec, &jobs);
    }
    probes.finish(&sim.view(last_time), rec);
    prof::record_peak_rss(rec);
    let horizon = last_time.as_micros() as f64;
    let avg_utilization = if horizon > 0.0 && capacity_total > 0 {
        used_integral / (horizon * capacity_total as f64)
    } else {
        0.0
    };
    let peak_utilization = if capacity_total > 0 {
        peak_used as f64 / capacity_total as f64
    } else {
        0.0
    };
    SimResult::new(sim.outcomes, avg_utilization, peak_utilization)
}

/// The dispatch core's state. Probes see it only through [`SimView`].
struct Sim<'a> {
    requests: &'a [CloudRequest],
    mode: &'a PolicyMode,
    service: &'a ServiceModel,
    rec: &'a dyn Recorder,
    /// The `ts.*` window each MapReduce job samples under and whether it
    /// audits itself; off without a live recorder.
    job_window: Option<u64>,
    job_health: bool,
    state: ClusterState,
    queue: VecDeque<usize>,
    live: BTreeMap<u64, Allocation>,
    outcomes: Vec<RequestOutcome>,
    engine: Engine<Event>,
    rng: StdRng,
    req_spans: BTreeMap<u64, SpanId>,
    arrivals_seen: u64,
    /// Requests served and refused so far.
    served: u64,
    refused: u64,
    /// Telemetry of the jobs the current event started.
    jobs: JobTelemetry,
}

impl Sim<'_> {
    fn view(&self, now: SimTime) -> SimView<'_> {
        SimView {
            now,
            state: &self.state,
            topo: self.state.topology(),
            queue_len: self.queue.len(),
            live: &self.live,
            outcomes: &self.outcomes,
            arrivals_seen: self.arrivals_seen,
            served: self.served,
            refused: self.refused,
        }
    }

    /// Queue an arriving request, or refuse it on the spot if it exceeds
    /// total capacity: capacity is fixed for the run, so waiting cannot
    /// help it.
    fn arrive(&mut self, now: SimTime, idx: usize) {
        self.arrivals_seen += 1;
        if self.state.fits_capacity(&self.requests[idx].request) {
            self.queue.push_back(idx);
        } else {
            self.refuse(now, idx);
        }
    }

    /// Release a departing request's VMs and close its timeline span.
    fn depart(&mut self, now: SimTime, id: u64) {
        let alloc = self
            .live
            .remove(&id)
            .expect("departure for unknown allocation");
        {
            let _t = PhaseTimer::start(self.rec, prof::INDEX_COMMIT);
            self.state.release(&alloc).expect("release failed");
        }
        if let Some(span) = self.req_spans.remove(&id) {
            self.rec.span_end(span, now.as_micros());
        }
    }

    /// Place whatever the queue and the free capacity allow.
    fn serve(&mut self, now: SimTime) {
        let _serve_timer = PhaseTimer::start(self.rec, prof::SERVE);
        let (rec, requests) = (self.rec, self.requests);
        match self.mode {
            PolicyMode::Individual(policy) => {
                while let Some(&idx) = self.queue.front() {
                    let request = &requests[idx].request;
                    let placed = policy.place_recorded(
                        request,
                        &self.state,
                        &mut self.rng,
                        rec,
                        now.as_micros(),
                    );
                    match placed {
                        Ok(alloc) => {
                            self.queue.pop_front();
                            self.admit(now, idx, alloc, None);
                        }
                        Err(PlacementError::Unsatisfiable { .. }) => break, // FIFO blocks
                        Err(PlacementError::Refused { .. } | PlacementError::Malformed { .. }) => {
                            self.queue.pop_front();
                            self.refuse(now, idx);
                        }
                    }
                }
            }
            PolicyMode::GlobalBatch(admission, scan) => {
                // Admission walks the queue lazily and, under FIFO
                // blocking, stops at the first request that must wait.
                // When it settles nothing — an empty queue, or a head that
                // exceeds `A` — placement could change nothing either
                // (it draws no randomness), so skip it until a departure
                // frees capacity. Otherwise hand placement only the
                // prefix admission examined: nothing past it is settled.
                let queued = || self.queue.iter().map(|&idx| &requests[idx].request);
                let reach = global::get_requests(queued(), &self.state, *admission);
                if reach.admitted.is_empty() && reach.rejected.is_empty() {
                    return;
                }
                let batch: Vec<&Request> = queued().take(reach.examined).collect();
                let placed = match global::place_queue_recorded(
                    &batch,
                    &self.state,
                    *admission,
                    *scan,
                    rec,
                    now.as_micros(),
                ) {
                    Ok(placed) => placed,
                    Err(err) => {
                        // A placement-layer failure defers the whole batch
                        // to the next event instead of aborting the run.
                        rec.counter_add("cloudsim.batch_failed", 1);
                        rec.event(
                            "cloudsim.batch_failed",
                            now.as_micros(),
                            Some(TrackId(0)),
                            &[("error", AttrValue::from(err.to_string()))],
                        );
                        return;
                    }
                };
                let mut settled: Vec<usize> = Vec::new();
                for ((pos, alloc), online_d) in placed
                    .served
                    .into_iter()
                    .zip(placed.served_online_distances)
                {
                    let idx = self.queue[pos];
                    self.admit(now, idx, alloc, Some(online_d));
                    settled.push(pos);
                }
                // Over-capacity requests were refused on arrival; the
                // placement layer still rejects any request its solver
                // cannot classify as waiting, and those leave the same way.
                for pos in placed.rejected {
                    let idx = self.queue[pos];
                    self.refuse(now, idx);
                    settled.push(pos);
                }
                // Remove settled entries from the queue (descending positions).
                settled.sort_unstable_by(|a, b| b.cmp(a));
                for pos in settled {
                    self.queue.remove(pos);
                }
            }
        }
    }

    /// Commit `alloc` for queued request `idx`, record it served, fill
    /// its outcome, and schedule its departure. `online_d` is a batch's
    /// pre-exchange distance; per-request policies pass `None`, and
    /// their DC is recorded here because only the batch placement layer
    /// records it itself.
    fn admit(&mut self, now: SimTime, idx: usize, alloc: Allocation, online_d: Option<u64>) {
        let (rec, req) = (self.rec, &self.requests[idx]);
        {
            let _t = PhaseTimer::start(rec, prof::INDEX_COMMIT);
            self.state
                .allocate(&alloc)
                .expect("placement produced an invalid allocation");
        }
        let d = distance_with_center(alloc.matrix(), self.state.topology(), alloc.center());
        if online_d.is_none() {
            rec.histogram_record("placement.dc", d);
        }
        let (hold, job_runtime) = self.hold_time(req, &alloc, now);
        self.served += 1;
        rec.counter_add("cloudsim.served", 1);
        rec.histogram_record("cloudsim.wait_us", (now - req.arrival).as_micros());
        rec.histogram_record("cloudsim.hold_us", hold.as_micros());
        let span_nodes = alloc.span();
        if rec.enabled() {
            let attrs = [
                ("id", AttrValue::from(req.id)),
                ("center", AttrValue::from(u64::from(alloc.center().0))),
                ("dc", AttrValue::from(d)),
                ("span_nodes", AttrValue::from(span_nodes)),
            ];
            rec.event(
                "cloudsim.request_admitted",
                now.as_micros(),
                Some(TrackId(0)),
                &attrs,
            );
            let span = rec.span_begin(
                TrackId(TRACK_STRIDE * (req.id + 1)),
                "request",
                now.as_micros(),
                &attrs,
            );
            self.req_spans.insert(req.id, span);
        }
        let o = &mut self.outcomes[idx];
        o.distance = Some(d);
        o.initial_distance = Some(online_d.unwrap_or(d));
        o.center = Some(alloc.center().0);
        o.span = Some(span_nodes as u32);
        o.started = Some(now);
        o.finished = Some(now + hold);
        o.job_runtime = job_runtime;
        self.engine.schedule(now + hold, Event::Departure(req.id));
        self.live.insert(req.id, alloc);
    }

    /// Mark queued or arriving request `idx` refused and record it.
    fn refuse(&mut self, now: SimTime, idx: usize) {
        let outcome = &mut self.outcomes[idx];
        outcome.refused = true;
        self.refused += 1;
        self.rec.counter_add("cloudsim.refused", 1);
        self.rec.event(
            "cloudsim.request_refused",
            now.as_micros(),
            Some(TrackId(0)),
            &[("id", AttrValue::from(outcome.id))],
        );
    }

    /// How long a freshly placed allocation holds its VMs, plus the
    /// measured job runtime under the MapReduce service.
    fn hold_time(
        &mut self,
        req: &CloudRequest,
        alloc: &Allocation,
        now: SimTime,
    ) -> (SimTime, Option<SimTime>) {
        match self.service {
            ServiceModel::Trace => (req.service_time, None),
            ServiceModel::MapReduce { job, params } => {
                let cluster = VirtualCluster::from_allocation(
                    alloc,
                    self.state.catalog(),
                    self.state.topology_arc(),
                );
                // Each job traces onto its request's private track range,
                // offset to its real start time on the queue timeline.
                let _t = PhaseTimer::start(self.rec, prof::MR_SERVICE);
                let observed = vc_mapreduce::simulate_job_observed(
                    &cluster,
                    job,
                    params,
                    &JobObservation {
                        rec: self.rec,
                        track_base: TRACK_STRIDE * (req.id + 1),
                        t0_us: now.as_micros(),
                        window_us: self.job_window,
                        health: self.job_health,
                    },
                );
                self.jobs.rollup.extend(observed.rollup);
                self.jobs.alerts += observed.alerts;
                (observed.metrics.runtime, Some(observed.metrics.runtime))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, ServiceTime};
    use std::sync::Arc;
    use vc_model::workload::RequestProfile;
    use vc_model::{Request, VmCatalog};
    use vc_placement::online::OnlineHeuristic;
    use vc_topology::{generate, DistanceTiers};

    fn state(per_node: u32) -> ClusterState {
        let topo = Arc::new(generate::uniform(3, 4, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::uniform_capacity(topo, cat, per_node)
    }

    fn trace(count: usize, seed: u64) -> Vec<CloudRequest> {
        let p = ArrivalProcess {
            rate_per_s: 1.0,
            profile: RequestProfile::standard(),
            service: ServiceTime::UniformMs(2_000, 8_000),
        };
        p.generate(count, 3, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn all_requests_eventually_served() {
        let s = state(3);
        let result = run(
            &s,
            SimConfig::new(
                trace(20, 1),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                1,
            ),
        );
        assert_eq!(result.served, 20);
        assert_eq!(result.refused, 0);
        for o in &result.outcomes {
            assert!(o.started.unwrap() >= o.arrival);
            assert!(o.finished.unwrap() > o.started.unwrap());
        }
    }

    #[test]
    fn resources_fully_released_at_end() {
        let s = state(2);
        // Re-run and confirm the *final* state we maintained internally is
        // clean by checking conservation: run twice gives identical results
        // (any leak would change queueing).
        let cfg = || {
            SimConfig::new(
                trace(15, 2),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                2,
            )
        };
        let a = run(&s, cfg());
        let b = run(&s, cfg());
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn contention_produces_waiting() {
        // Tiny cloud, big requests, long holds: someone must wait.
        let topo = Arc::new(generate::uniform(1, 2, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo, cat, 1);
        let requests = vec![
            CloudRequest {
                id: 0,
                request: Request::from_counts(vec![2, 0, 0]),
                arrival: SimTime::ZERO,
                service_time: SimTime::from_secs(100),
            },
            CloudRequest {
                id: 1,
                request: Request::from_counts(vec![1, 0, 0]),
                arrival: SimTime::from_secs(1),
                service_time: SimTime::from_secs(10),
            },
        ];
        let result = run(
            &s,
            SimConfig {
                requests,
                mode: PolicyMode::Individual(Box::new(OnlineHeuristic)),
                service: ServiceModel::Trace,
                seed: 0,
                ts_window_us: None,
                health: false,
            },
        );
        let second = &result.outcomes[1];
        assert_eq!(second.started, Some(SimTime::from_secs(100)));
        assert_eq!(second.wait(), Some(SimTime::from_secs(99)));
    }

    #[test]
    fn refused_requests_flagged_not_served() {
        let topo = Arc::new(generate::uniform(1, 2, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo, cat, 1);
        let requests = vec![CloudRequest {
            id: 0,
            request: Request::from_counts(vec![99, 0, 0]),
            arrival: SimTime::ZERO,
            service_time: SimTime::from_secs(1),
        }];
        let result = run(
            &s,
            SimConfig {
                requests,
                mode: PolicyMode::Individual(Box::new(OnlineHeuristic)),
                service: ServiceModel::Trace,
                seed: 0,
                ts_window_us: None,
                health: false,
            },
        );
        assert_eq!(result.refused, 1);
        assert_eq!(result.served, 0);
        assert!(result.outcomes[0].distance.is_none());
    }

    #[test]
    fn global_batch_no_worse_than_individual() {
        let s = state(2);
        let individual = run(
            &s,
            SimConfig::new(
                trace(20, 7),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                7,
            ),
        );
        let batched = run(
            &s,
            SimConfig::new(
                trace(20, 7),
                PolicyMode::GlobalBatch(Admission::FifoBlocking, ScanConfig::default()),
                7,
            ),
        );
        assert_eq!(batched.served, individual.served);
        assert!(
            batched.total_distance <= batched.total_initial_distance,
            "exchange pass must not increase distance"
        );
    }

    #[test]
    fn recorded_run_captures_queue_and_placement() {
        use vc_obs::MemRecorder;
        let s = state(2);
        let rec = MemRecorder::new();
        let result = run_recorded(
            &s,
            SimConfig::new(
                trace(10, 4),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                4,
            ),
            &rec,
        );
        // Recording must not perturb the simulation.
        let plain = run(
            &s,
            SimConfig::new(
                trace(10, 4),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                4,
            ),
        );
        assert_eq!(result.outcomes, plain.outcomes);

        let snap = rec.metrics();
        assert_eq!(snap.counters["cloudsim.served"], result.served as u64);
        assert_eq!(snap.counters["cloudsim.event.arrival"], 10);
        assert_eq!(
            snap.counters["cloudsim.event.departure"],
            result.served as u64
        );
        assert!(snap.histograms["cloudsim.queue_depth"].count > 0);
        assert_eq!(
            snap.histograms["cloudsim.wait_us"].count,
            result.served as u64
        );
        assert_eq!(snap.histograms["placement.dc"].count, result.served as u64);
        // One request span per served request, all closed by departure.
        let spans = rec.spans();
        assert_eq!(
            spans.iter().filter(|s| s.name == "request").count(),
            result.served
        );
        assert_eq!(rec.open_span_count(), 0);
        // Queue-depth samples form a counter track on the timeline.
        assert!(!rec.counter_series()["cloudsim.queue_depth"].is_empty());
    }

    #[test]
    fn recorded_mapreduce_service_nests_job_traces() {
        use vc_obs::MemRecorder;
        let topo = Arc::new(generate::uniform(3, 4, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo, cat, 2);
        let job = JobConfig {
            workload: vc_mapreduce::Workload::wordcount(),
            input_mb: 4.0 * 64.0,
            split_mb: 64.0,
            num_reducers: 1,
            replication: 2,
        };
        let rec = MemRecorder::new();
        let result = run_recorded(
            &s,
            SimConfig::new(
                trace(3, 9),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                9,
            )
            .with_service(ServiceModel::MapReduce {
                job,
                params: SimParams::default(),
            }),
            &rec,
        );
        assert_eq!(result.served, 3);
        let spans = rec.spans();
        // Each request nests one job span plus its map/reduce task spans,
        // anchored at the request's start time on the shared timeline.
        for o in &result.outcomes {
            let base = TRACK_STRIDE * (o.id + 1);
            let job_span = spans
                .iter()
                .find(|s| s.name == "job" && s.track.0 == base)
                .expect("job span on the request's track range");
            assert_eq!(job_span.start_us, o.started.unwrap().as_micros());
            assert_eq!(job_span.end_us, Some(o.finished.unwrap().as_micros()));
            assert!(spans
                .iter()
                .any(|s| s.name == "map" && s.track.0 > base && s.track.0 < base + TRACK_STRIDE));
        }
        assert!(spans.iter().any(|s| s.name == "reduce"));
        assert_eq!(rec.open_span_count(), 0);
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn misordered_ids_rejected() {
        let s = state(2);
        let mut requests = trace(3, 1);
        requests[0].id = 5;
        let _ = run(
            &s,
            SimConfig {
                requests,
                mode: PolicyMode::Individual(Box::new(OnlineHeuristic)),
                service: ServiceModel::Trace,
                seed: 0,
                ts_window_us: None,
                health: false,
            },
        );
    }
}

#[cfg(test)]
mod mapreduce_service_tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, ServiceTime};
    use std::sync::Arc;
    use vc_mapreduce::Workload;
    use vc_model::workload::RequestProfile;
    use vc_model::VmCatalog;
    use vc_placement::baselines::Spread;
    use vc_placement::online::OnlineHeuristic;
    use vc_topology::{generate, DistanceTiers};

    fn state() -> ClusterState {
        let topo = Arc::new(generate::uniform(3, 4, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::uniform_capacity(topo, cat, 2)
    }

    fn mr_service() -> ServiceModel {
        ServiceModel::MapReduce {
            job: JobConfig {
                workload: Workload::terasort(),
                input_mb: 8.0 * 64.0,
                split_mb: 64.0,
                num_reducers: 2,
                replication: 2,
            },
            params: SimParams::default(),
        }
    }

    fn trace(count: usize, seed: u64) -> Vec<CloudRequest> {
        let p = ArrivalProcess {
            rate_per_s: 0.5,
            profile: RequestProfile::standard(),
            service: ServiceTime::Fixed(SimTime::from_secs(1)), // ignored by MapReduce model
        };
        p.generate(count, 3, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn holding_time_is_measured_job_runtime() {
        let s = state();
        let result = run(
            &s,
            SimConfig::new(
                trace(6, 3),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                3,
            )
            .with_service(mr_service()),
        );
        assert_eq!(result.served, 6);
        for o in &result.outcomes {
            let runtime = o.job_runtime.expect("MapReduce model records runtime");
            assert!(
                runtime > SimTime::from_secs(1),
                "jobs take real time: {runtime}"
            );
            assert_eq!(o.finished.unwrap() - o.started.unwrap(), runtime);
        }
    }

    #[test]
    fn affinity_aware_jobs_no_slower_than_spread() {
        let s = state();
        let online = run(
            &s,
            SimConfig::new(
                trace(8, 5),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                5,
            )
            .with_service(mr_service()),
        );
        let spread = run(
            &s,
            SimConfig::new(trace(8, 5), PolicyMode::Individual(Box::new(Spread)), 5)
                .with_service(mr_service()),
        );
        let total = |r: &SimResult| -> u64 {
            r.outcomes
                .iter()
                .filter_map(|o| o.job_runtime)
                .map(|t| t.as_micros())
                .sum()
        };
        assert!(
            total(&online) <= total(&spread),
            "affinity-aware total job time {} must not exceed spread {}",
            total(&online),
            total(&spread)
        );
    }

    #[test]
    fn trace_model_ignores_job_runtime() {
        let s = state();
        let result = run(
            &s,
            SimConfig::new(
                trace(3, 1),
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                1,
            ),
        );
        assert!(result.outcomes.iter().all(|o| o.job_runtime.is_none()));
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;
    use crate::arrivals::CloudRequest;
    use std::sync::Arc;
    use vc_model::{Request, VmCatalog};
    use vc_placement::online::OnlineHeuristic;
    use vc_topology::{generate, DistanceTiers};

    #[test]
    fn utilization_tracks_occupancy() {
        // One request occupying half the cloud for the whole horizon.
        let topo = Arc::new(generate::uniform(1, 2, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo, cat, 1); // 6 slots
        let requests = vec![CloudRequest {
            id: 0,
            request: Request::from_counts(vec![1, 1, 1]),
            arrival: SimTime::ZERO,
            service_time: SimTime::from_secs(100),
        }];
        let result = run(
            &s,
            SimConfig::new(
                requests,
                PolicyMode::Individual(Box::new(OnlineHeuristic)),
                0,
            ),
        );
        // 3 of 6 slots for ~the whole horizon.
        assert!(
            (result.avg_utilization - 0.5).abs() < 0.01,
            "{}",
            result.avg_utilization
        );
        assert!((result.peak_utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_zero_utilization() {
        let topo = Arc::new(generate::uniform(1, 2, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo, cat, 1);
        let result = run(
            &s,
            SimConfig::new(vec![], PolicyMode::Individual(Box::new(OnlineHeuristic)), 0),
        );
        assert_eq!(result.avg_utilization, 0.0);
        assert_eq!(result.peak_utilization, 0.0);
        assert_eq!(result.served, 0);
    }
}

#[cfg(test)]
mod timeseries_tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, ServiceTime};
    use std::sync::Arc;
    use vc_mapreduce::Workload;
    use vc_model::workload::RequestProfile;
    use vc_model::VmCatalog;
    use vc_obs::{MemRecorder, TimeSeriesSet};
    use vc_placement::online::OnlineHeuristic;
    use vc_topology::{generate, DistanceTiers};

    const WINDOW_US: u64 = 5_000_000; // 5 s

    fn state() -> ClusterState {
        let topo = Arc::new(generate::uniform(3, 4, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::uniform_capacity(topo, cat, 2)
    }

    fn trace(count: usize, seed: u64) -> Vec<CloudRequest> {
        let p = ArrivalProcess {
            rate_per_s: 1.0,
            profile: RequestProfile::standard(),
            service: ServiceTime::UniformMs(2_000, 8_000),
        };
        p.generate(count, 3, &mut StdRng::seed_from_u64(seed))
    }

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::new(
            trace(20, seed),
            PolicyMode::Individual(Box::new(OnlineHeuristic)),
            seed,
        )
    }

    #[test]
    fn sampling_does_not_perturb_results() {
        let s = state();
        let plain = run(&s, cfg(11));
        let rec = MemRecorder::new();
        let sampled = run_recorded(&s, cfg(11).with_timeseries(WINDOW_US), &rec);
        assert_eq!(plain.outcomes, sampled.outcomes);
        // And with no recorder attached the cadence is entirely inert.
        let noop = run(&s, cfg(11).with_timeseries(WINDOW_US));
        assert_eq!(plain.outcomes, noop.outcomes);
    }

    #[test]
    fn windows_are_monotone_and_deterministic() {
        let s = state();
        let rec = MemRecorder::new();
        let result = run_recorded(&s, cfg(11).with_timeseries(WINDOW_US), &rec);
        let set = TimeSeriesSet::from_counter_series(&rec.counter_series());
        assert!(!set.is_empty());
        assert!(set.is_monotone());
        for name in [
            "ts.cloud.fill",
            "ts.cloud.frag",
            "ts.cloud.active_vms",
            "ts.cloud.active_jobs",
            "ts.queue.depth",
            "ts.cloud.mean_job_dc",
            "ts.served.delta",
            "ts.refused.delta",
        ] {
            assert!(set.series.contains_key(name), "missing {name}");
        }
        // Trace-driven service: no network, so no ts.net.* series.
        assert!(!set.series.keys().any(|n| n.starts_with("ts.net.")));
        // Every series samples every window: identical edge lists, full
        // edges on exact multiples of the cadence plus one partial tail.
        let edges = set.edges();
        for points in set.series.values() {
            let series_edges: Vec<u64> = points.iter().map(|&(t, _)| t).collect();
            assert_eq!(series_edges, edges);
        }
        for &edge in &edges[..edges.len() - 1] {
            assert_eq!(edge % WINDOW_US, 0, "full edge off-cadence: {edge}");
        }
        // The served deltas tile the run: they sum to the served count.
        let served_sum: f64 = set.series["ts.served.delta"].iter().map(|&(_, v)| v).sum();
        assert_eq!(served_sum as usize, result.served);
        // The cloud drains by the end of the run.
        let (_, last_vms) = *set.series["ts.cloud.active_vms"].last().unwrap();
        assert_eq!(last_vms, 0.0);
        // Fill and fragmentation stay in [0, 1].
        for name in ["ts.cloud.fill", "ts.cloud.frag"] {
            for &(_, v) in &set.series[name] {
                assert!((0.0..=1.0).contains(&v), "{name} out of range: {v}");
            }
        }
        // Same run, same windows: bit-identical series.
        let rec2 = MemRecorder::new();
        run_recorded(&s, cfg(11).with_timeseries(WINDOW_US), &rec2);
        assert_eq!(
            set,
            TimeSeriesSet::from_counter_series(&rec2.counter_series())
        );
    }

    #[test]
    fn mapreduce_service_reports_windowed_uplink_traffic() {
        let s = state();
        let service = ServiceModel::MapReduce {
            job: JobConfig {
                workload: Workload::terasort(),
                input_mb: 8.0 * 64.0,
                split_mb: 64.0,
                num_reducers: 2,
                replication: 2,
            },
            params: SimParams::default(),
        };
        let rec = MemRecorder::new();
        let result = run_recorded(
            &s,
            cfg(5).with_service(service).with_timeseries(WINDOW_US),
            &rec,
        );
        assert!(result.served > 0);
        let set = TimeSeriesSet::from_counter_series(&rec.counter_series());
        let bytes = &set.series["ts.net.rack_up_bytes.delta"];
        let util = &set.series["ts.net.rack_up_util"];
        assert_eq!(bytes.len(), util.len());
        let total: f64 = bytes.iter().map(|&(_, v)| v).sum();
        assert!(total > 0.0, "terasort must cross racks: {total}");
        for &(_, u) in util {
            assert!(u.is_finite() && u >= 0.0, "bad utilization {u}");
        }
        // Utilization is bytes over the aggregate uplink budget, so it
        // cannot exceed 1 by more than the fluid model's rounding.
        assert!(util.iter().all(|&(_, u)| u <= 1.0 + 1e-9));
    }

    #[test]
    fn health_auditing_does_not_perturb_results_or_metrics() {
        let s = state();
        let plain = run(&s, cfg(11));
        let rec_health = MemRecorder::new();
        let audited = run_recorded(
            &s,
            cfg(11).with_timeseries(WINDOW_US).with_health(),
            &rec_health,
        );
        assert_eq!(plain.outcomes, audited.outcomes);
        // Healthy seeded run: the exact auditors must never fire.
        assert!(
            rec_health
                .events()
                .iter()
                .all(|e| !e.name.starts_with("alert.")),
            "false-positive alert on a healthy run"
        );
        // Against a health-off recorded run, metrics may differ only in
        // `alert.*` / `ts.health.*` names (plus host wall metrics).
        let rec_plain = MemRecorder::new();
        run_recorded(&s, cfg(11).with_timeseries(WINDOW_US), &rec_plain);
        let strip = |rec: &MemRecorder| {
            let mut m = rec.metrics();
            m.counters
                .retain(|k, _| !k.ends_with(".wall_us") && !k.starts_with("alert."));
            m.gauges
                .retain(|k, _| k != "prof.rss_peak_kb" && !k.starts_with("ts.health."));
            m
        };
        assert_eq!(strip(&rec_health), strip(&rec_plain));
        let mut series_health = rec_health.counter_series();
        series_health.retain(|k, _| !k.starts_with("ts.health."));
        assert_eq!(series_health, rec_plain.counter_series());
    }
}

#[cfg(test)]
mod health_tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, ServiceTime};
    use std::sync::Arc;
    use vc_model::workload::RequestProfile;
    use vc_model::{Request, VmCatalog};
    use vc_obs::MemRecorder;
    use vc_placement::online::OnlineHeuristic;
    use vc_topology::{generate, DistanceTiers};

    const WINDOW_US: u64 = 5_000_000; // 5 s

    fn topo() -> Arc<Topology> {
        Arc::new(generate::uniform(3, 4, DistanceTiers::paper_experiment()))
    }

    #[test]
    fn fragmentation_index_zero_on_empty_cloud() {
        // A cloud with zero capacity has no free slots anywhere.
        let topo = topo();
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo.clone(), cat, 0);
        let f = fragmentation_index(&s, &topo);
        assert!(!f.is_nan());
        assert_eq!(f, 0.0);
    }

    #[test]
    fn fragmentation_index_zero_on_fully_allocated_cloud() {
        let topo = topo();
        let cat = Arc::new(VmCatalog::ec2_table1());
        let mut s = ClusterState::uniform_capacity(topo.clone(), cat, 1);
        let everything = s.availability();
        let mut rng = StdRng::seed_from_u64(0);
        let alloc = OnlineHeuristic
            .place(&everything, &s, &mut rng)
            .expect("cloud-filling request must place");
        s.allocate(&alloc).expect("allocation fits");
        assert_eq!(s.remaining().total(), 0, "cloud must be full");
        let f = fragmentation_index(&s, &topo);
        assert!(!f.is_nan());
        assert_eq!(f, 0.0);
    }

    /// A two-slot cloud, one long-running tenant holding everything, and
    /// a stream of arrivals piling up behind it: queue depth rises for
    /// window after window with nothing served.
    fn stagnation_config() -> (ClusterState, SimConfig) {
        let topo = Arc::new(generate::uniform(1, 2, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo, cat, 1);
        let hog = CloudRequest {
            id: 0,
            request: Request::from_counts(vec![2, 0, 0]),
            arrival: SimTime::ZERO,
            service_time: SimTime::from_secs(600),
        };
        let mut requests = vec![hog];
        for i in 1..=10u64 {
            requests.push(CloudRequest {
                id: i,
                request: Request::from_counts(vec![1, 0, 0]),
                arrival: SimTime::from_secs(3 * i),
                service_time: SimTime::from_secs(2),
            });
        }
        let cfg = SimConfig::new(
            requests,
            PolicyMode::Individual(Box::new(OnlineHeuristic)),
            0,
        )
        .with_timeseries(WINDOW_US)
        .with_health();
        (s, cfg)
    }

    #[test]
    fn queue_stagnation_fires_on_blocked_queue() {
        let (s, cfg) = stagnation_config();
        let rec = MemRecorder::new();
        run_recorded(&s, cfg, &rec);
        let events = rec.events();
        assert!(
            events.iter().any(|e| e.name == "alert.queue_stagnation"),
            "expected a queue_stagnation alert; events: {:?}",
            events
                .iter()
                .map(|e| e.name)
                .filter(|n| n.starts_with("alert."))
                .collect::<Vec<_>>()
        );
        let snap = rec.metrics();
        assert!(
            snap.counters
                .get("alert.total.warn.queue_stagnation")
                .copied()
                .unwrap_or(0)
                >= 1
        );
        // The windowed alert series tiles the total alert count.
        let series = rec.counter_series();
        let delta_sum: f64 = series["ts.health.alerts.delta"]
            .iter()
            .map(|&(_, v)| v)
            .sum();
        let total: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("alert.total."))
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(delta_sum as u64, total);
    }

    #[test]
    fn health_without_recorder_is_inert() {
        let (s, cfg) = stagnation_config();
        let (s2, cfg2) = stagnation_config();
        let audited = run(&s, cfg);
        let mut plain_cfg = cfg2;
        plain_cfg.health = false;
        plain_cfg.ts_window_us = None;
        let plain = run(&s2, plain_cfg);
        assert_eq!(audited.outcomes, plain.outcomes);
    }

    #[test]
    fn arrival_trace_profile_compiles_with_health() {
        // The health switch rides SimConfig through the arrival-process
        // builder path used by the CLI.
        let p = ArrivalProcess {
            rate_per_s: 1.0,
            profile: RequestProfile::standard(),
            service: ServiceTime::UniformMs(2_000, 8_000),
        };
        let requests = p.generate(5, 3, &mut StdRng::seed_from_u64(7));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let s = ClusterState::uniform_capacity(topo(), cat, 2);
        let rec = MemRecorder::new();
        let cfg = SimConfig::new(
            requests,
            PolicyMode::Individual(Box::new(OnlineHeuristic)),
            7,
        )
        .with_health();
        // No ts window: invariant audits still run, detectors idle.
        run_recorded(&s, cfg, &rec);
        assert!(rec.events().iter().all(|e| !e.name.starts_with("alert.")));
    }
}
