//! The flow network: active transfers and their fair-share rates.

use crate::fairshare::max_min_fair_share_detailed;
use crate::incremental::{IncrementalFairShare, SolveReport};
use crate::link::{Bottleneck, FlowClass, LinkClass, LinkInfo, LinkSample, LinkStats};
use crate::params::NetworkParams;
use std::collections::BTreeMap;
use std::sync::Arc;
use vc_des::SimTime;
use vc_topology::{CloudId, NodeId, RackId, Topology};

/// Identifier of an active (or completed) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

/// Which fair-share solver drives rate recomputations.
///
/// Both produce bit-identical rates, bindings, completion times, and
/// link telemetry (asserted by the equality proptests); they differ
/// only in effort. [`SolverStats`] working-set counters
/// (`flows_total`, `links_touched_total`, `iterations_total`, peaks)
/// count what each solver actually re-solved, so the two modes report
/// different — honest — effort numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Re-solve the entire flow set from scratch on every flow start
    /// and completion batch. O(rounds × flows × path) per event plus
    /// allocation churn; kept as the reference oracle.
    Batch,
    /// Delta-update: re-solve only the connected component of links
    /// whose flow membership changed, with persistent per-link flow
    /// sets and reusable scratch (the crate's `incremental` module).
    #[default]
    Incremental,
}

/// Σ flow rate over capacity, defined as 0 for idle links — including
/// zero-capacity (failed) links, which can only carry rate-0 flows —
/// so utilization telemetry never produces NaN or infinity.
fn utilization(rate_sum: f64, capacity: f64) -> f64 {
    if rate_sum > 0.0 && capacity > 0.0 {
        rate_sum / capacity
    } else {
        0.0
    }
}

#[derive(Debug)]
struct Flow {
    resources: Vec<usize>,
    /// Rate ceiling independent of sharing (same-node memory copies).
    rate_cap: f64,
    remaining_latency_us: f64,
    remaining_bytes: f64,
    /// Current fair-share rate, bytes/µs (== MB/s).
    rate: f64,
    /// Caller-supplied correlation token, returned on completion.
    token: u64,
    src: NodeId,
    dst: NodeId,
    /// Requested transfer size (exact).
    bytes: u64,
    started: SimTime,
    class: FlowClass,
    /// What froze this flow's rate at the latest recomputation.
    bottleneck: Bottleneck,
}

/// A finished transfer returned by [`FlowNet::take_completed`]: the
/// caller's token plus the flow's own metadata, so callers need no
/// shadow map keyed by token.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFlow {
    /// The flow's identifier.
    pub id: FlowId,
    /// Caller-supplied correlation token from `start_flow`.
    pub token: u64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Requested transfer size in bytes.
    pub bytes: u64,
    /// When the flow was started.
    pub started: SimTime,
    /// Traffic class the flow was tagged with.
    pub class: FlowClass,
    /// What bounded the flow's rate at the last recomputation before it
    /// finished — its bottleneck attribution.
    pub bottleneck: Bottleneck,
}

/// Point-in-time view of one active flow, from
/// [`FlowNet::active_flow_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSnapshot {
    /// The flow's identifier.
    pub id: FlowId,
    /// Caller-supplied correlation token from `start_flow`.
    pub token: u64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Requested transfer size in bytes.
    pub bytes: u64,
    /// Bytes not yet drained by the fluid model.
    pub remaining_bytes: f64,
    /// Current max-min fair rate, bytes/µs (== MB/s).
    pub rate: f64,
    /// Traffic class the flow was tagged with.
    pub class: FlowClass,
    /// What froze the flow's rate at the latest recomputation.
    pub bottleneck: Bottleneck,
    /// When the flow was started.
    pub started: SimTime,
}

const BYTE_EPS: f64 = 1e-6;

/// All active flows over one physical topology, with max-min fair rates.
///
/// A net holds the links of a node set: every node for
/// [`new`](Self::new), a virtual cluster's nodes for
/// [`for_nodes`](Self::for_nodes). Link ids — [`LinkSample::link`],
/// [`Bottleneck::Link`], positions in [`link_stats`](Self::link_stats) —
/// index this net's own [`links`](Self::links).
///
/// Drive it from a discrete-event loop:
///
/// 1. [`start_flow`](Self::start_flow) when a transfer begins;
/// 2. schedule a wake-up at [`next_event_time`](Self::next_event_time)
///    (re-query after *every* start/completion — rates shift);
/// 3. on wake-up, [`take_completed`](Self::take_completed) returns the
///    transfers that have finished by then.
///
/// ```
/// use std::sync::Arc;
/// use vc_des::SimTime;
/// use vc_netsim::{FlowNet, NetworkParams};
/// use vc_topology::{generate, DistanceTiers, NodeId};
///
/// let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
/// let mut net = FlowNet::new(topo, NetworkParams::default());
/// net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 119_000_000, 42);
/// let done_at = net.next_event_time().unwrap();
/// let done = net.take_completed(done_at);
/// assert_eq!(done[0].token, 42);
/// assert_eq!(done[0].bytes, 119_000_000);
/// assert!((done_at.as_secs_f64() - 1.0).abs() < 0.01); // 119 MB at 119 MB/s
/// ```
#[derive(Debug)]
pub struct FlowNet {
    topo: Arc<Topology>,
    params: NetworkParams,
    /// The node set, and its racks and clouds, each ascending: position
    /// in these lists is position in the local link layout.
    nodes: Vec<NodeId>,
    racks: Vec<RackId>,
    clouds: Vec<CloudId>,
    capacities: Vec<f64>,
    flows: BTreeMap<u64, Flow>,
    next_id: u64,
    clock: SimTime,
    /// Static catalog of the physical link resources (parallel to
    /// `capacities`).
    links: Vec<LinkInfo>,
    /// Always-on per-link accumulators (parallel to `capacities`).
    stats: Vec<LinkStats>,
    /// Emit [`LinkSample`]s at rate recomputations?
    sampling: bool,
    samples: Vec<LinkSample>,
    /// Last emitted `(utilization, active, binding)` per link, to
    /// suppress unchanged samples.
    last_sample: Vec<(f64, u32, bool)>,
    /// Always-on fair-share solver effort accumulators.
    solver_stats: SolverStats,
    /// Which solver runs rate recomputations (fixed at construction).
    mode: SolverMode,
    /// Incremental solver state (only maintained in incremental mode).
    inc: IncrementalFairShare,
    /// Links currently binding ≥ 1 flow, ascending (incremental mode:
    /// lets every solve bump `binding_events` for *unchanged* binding
    /// links without scanning all flows, matching batch accounting).
    binding_links: Vec<usize>,
    /// Per-link binding state backing `binding_links`.
    binding_now: Vec<bool>,
    /// `advance` scratch: per-link active-transfer windows, reused.
    win_scratch: Vec<Vec<(f64, f64)>>,
    /// Links with pending windows in `win_scratch` this advance.
    win_touched: Vec<usize>,
    /// Optional fixed-window rollup of cross-rack (RackUp) traffic for
    /// the `ts.*` time-series layer. Off by default; pure observation —
    /// never feeds back into rates or completion times.
    win_rollup: Option<WindowRollup>,
}

/// Windowed RackUp byte rollup: drained bytes apportioned over absolute
/// sim-time windows of fixed width. `offset_us` maps this net's local
/// clock (a per-job engine runs its `FlowNet` from t=0) onto global sim
/// time.
#[derive(Debug, Default)]
struct WindowRollup {
    window_us: u64,
    offset_us: u64,
    /// Window index → RackUp bytes drained within that window.
    bytes: BTreeMap<u64, f64>,
}

impl WindowRollup {
    /// Spread `bytes` uniformly over the absolute interval
    /// `[start_us, end_us)` across window boundaries.
    fn add_span(&mut self, start_us: f64, end_us: f64, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        let w = self.window_us as f64;
        if end_us <= start_us {
            let idx = (start_us / w) as u64;
            *self.bytes.entry(idx).or_insert(0.0) += bytes;
            return;
        }
        let rate = bytes / (end_us - start_us);
        let mut t = start_us;
        while t < end_us {
            let idx = (t / w) as u64;
            let seg_end = (w * (idx + 1) as f64).min(end_us);
            *self.bytes.entry(idx).or_insert(0.0) += rate * (seg_end - t);
            if seg_end <= t {
                break; // f64 guard: a zero-width segment must not loop
            }
            t = seg_end;
        }
    }
}

/// Always-on effort counters for the max-min fair-share solver — the
/// measured baseline ROADMAP item 5 (incremental fair share) must beat.
/// The deterministic counters (everything except `wall_us`) depend only
/// on the simulated workload, so they are stable across hosts and usable
/// as CI regression-gate inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverStats {
    /// Rate recomputations (one per flow start and per non-empty
    /// completion batch).
    pub solves: u64,
    /// Σ flows in the solved set, over all solves.
    pub flows_total: u64,
    /// Σ distinct physical links carrying ≥ 1 flow, over all solves.
    pub links_touched_total: u64,
    /// Σ progressive-filling iterations to fixpoint, over all solves.
    pub iterations_total: u64,
    /// Largest flow set handed to a single solve.
    pub peak_flows: u64,
    /// Most iterations any single solve took.
    pub peak_iterations: u64,
    /// Non-empty completion batches drained by `take_completed`.
    pub completion_batches: u64,
    /// Σ flows completed across those batches (batch size integral).
    pub completion_batch_flows: u64,
    /// Σ active flows a solve did *not* have to re-solve (outside the
    /// changed connected component) — the incremental solver's saved
    /// work. Always 0 in [`SolverMode::Batch`].
    pub flows_skipped_total: u64,
    /// Host wall-clock µs spent in the solver, accumulated only while
    /// sampling is on (i.e. under an enabled recorder) so unprofiled
    /// runs never read the clock. Non-deterministic; never gate CI on it.
    pub wall_us: u64,
}

impl FlowNet {
    /// Build the resource graph for every node of `topo`: TX/RX per node,
    /// up/down per rack, up/down per cloud. The "every node" case of
    /// [`for_nodes`](Self::for_nodes).
    ///
    /// # Panics
    /// Panics if `params` is invalid.
    pub fn new(topo: Arc<Topology>, params: NetworkParams) -> Self {
        Self::with_solver(topo, params, SolverMode::default())
    }

    /// [`new`](Self::new) with an explicit [`SolverMode`] — use
    /// [`SolverMode::Batch`] to run the reference full-set solver (for
    /// equivalence tests).
    ///
    /// # Panics
    /// Panics if `params` is invalid.
    pub fn with_solver(topo: Arc<Topology>, params: NetworkParams, mode: SolverMode) -> Self {
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        Self::for_nodes(topo, params, mode, &nodes)
    }

    /// A net holding only the links that flows among `nodes` can touch:
    /// those nodes' TX/RX, their racks' up/down and their clouds'
    /// up/down. Its size, and the cost of building it, grow with the
    /// node set, not with `topo`.
    ///
    /// Links are numbered like the whole-cloud net with the gaps
    /// removed: nodes' TX/RX pairs, then racks' up/down pairs, then
    /// clouds' up/down pairs, each group in ascending id order. Local
    /// order is therefore monotone in whole-cloud order, so every
    /// rate, binding, completion time and telemetry value is
    /// bit-identical to the whole-cloud net's for the same flows. Link
    /// names keep their global ids (`node{id}.tx`, `rack{id}.up`, …).
    /// `nodes` may be unsorted and hold duplicates.
    ///
    /// # Panics
    /// Panics if `params` is invalid or a node is not in `topo`. Starting
    /// a flow to or from a node outside `nodes` panics too (see
    /// [`start_flow_classed`](Self::start_flow_classed)).
    pub fn for_nodes(
        topo: Arc<Topology>,
        params: NetworkParams,
        mode: SolverMode,
        nodes: &[NodeId],
    ) -> Self {
        params.validate();
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let mut racks: Vec<RackId> = nodes.iter().map(|&n| topo.rack_of(n)).collect();
        racks.sort_unstable();
        racks.dedup();
        let mut clouds: Vec<CloudId> = nodes.iter().map(|&n| topo.cloud_of(n)).collect();
        clouds.sort_unstable();
        clouds.dedup();
        let link = |name: String, class: LinkClass, capacity_mbps: f64| LinkInfo {
            name,
            class,
            capacity_mbps,
        };
        let mut links = Vec::with_capacity(2 * (nodes.len() + racks.len() + clouds.len()));
        for n in &nodes {
            let (i, nic) = (n.0, params.nic_mbps);
            links.push(link(format!("node{i}.tx"), LinkClass::NodeTx, nic));
            links.push(link(format!("node{i}.rx"), LinkClass::NodeRx, nic));
        }
        for r in &racks {
            let (i, up) = (r.0, params.rack_uplink_mbps);
            links.push(link(format!("rack{i}.up"), LinkClass::RackUp, up));
            links.push(link(format!("rack{i}.down"), LinkClass::RackDown, up));
        }
        for c in &clouds {
            let (i, wan) = (c.0, params.cloud_uplink_mbps);
            links.push(link(format!("cloud{i}.up"), LinkClass::CloudUp, wan));
            links.push(link(format!("cloud{i}.down"), LinkClass::CloudDown, wan));
        }
        let capacities: Vec<f64> = links.iter().map(|l| l.capacity_mbps).collect();
        let nr = capacities.len();
        Self {
            topo,
            params,
            nodes,
            racks,
            clouds,
            inc: IncrementalFairShare::new(capacities.clone()),
            capacities,
            flows: BTreeMap::new(),
            next_id: 0,
            clock: SimTime::ZERO,
            links,
            stats: vec![LinkStats::default(); nr],
            sampling: false,
            samples: Vec::new(),
            last_sample: vec![(0.0, 0, false); nr],
            solver_stats: SolverStats::default(),
            mode,
            binding_links: Vec::new(),
            binding_now: vec![false; nr],
            win_scratch: vec![Vec::new(); nr],
            win_touched: Vec::new(),
            win_rollup: None,
        }
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// The static catalog of this net's link resources, indexed by the
    /// resource ids used in [`LinkSample::link`] and
    /// [`Bottleneck::Link`]. Only the links of this net's node set are
    /// listed (see [`for_nodes`](Self::for_nodes)).
    pub fn links(&self) -> &[LinkInfo] {
        &self.links
    }

    /// The always-on accumulators, parallel to [`links`](Self::links).
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.stats
    }

    /// Fair-share solver effort accumulated so far (see [`SolverStats`]).
    pub fn solver_stats(&self) -> &SolverStats {
        &self.solver_stats
    }

    /// Enable or disable [`LinkSample`] emission at rate recomputations.
    /// Off by default; the byte/busy/peak accumulators in
    /// [`link_stats`](Self::link_stats) run regardless.
    pub fn set_sampling(&mut self, on: bool) {
        self.sampling = on;
    }

    /// Take the buffered utilization samples accumulated since the last
    /// drain (empty unless [`set_sampling`](Self::set_sampling) is on).
    pub fn drain_link_samples(&mut self) -> Vec<LinkSample> {
        std::mem::take(&mut self.samples)
    }

    /// Enable the windowed RackUp byte rollup: `window_us`-wide windows
    /// over `offset_us + local_clock` absolute sim time. Off by default
    /// (no cost and no behavior change when unset).
    pub fn set_window_rollup(&mut self, window_us: u64, offset_us: u64) {
        assert!(window_us > 0, "rollup window must be positive");
        self.win_rollup = Some(WindowRollup {
            window_us,
            offset_us,
            bytes: BTreeMap::new(),
        });
    }

    /// Drain the windowed rollup accumulated so far as sorted
    /// `(window_index, rack_up_bytes)` pairs. Empty when the rollup is
    /// disabled. The rollup stays enabled after draining.
    pub fn take_window_rollup(&mut self) -> Vec<(u64, f64)> {
        match self.win_rollup.as_mut() {
            Some(roll) => std::mem::take(&mut roll.bytes).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Local position of `node` in this net's node set: its TX link is
    /// `2 * pos`, its RX link `2 * pos + 1`.
    ///
    /// # Panics
    /// Panics if `node` is not in the set.
    fn node_pos(&self, node: NodeId) -> usize {
        self.nodes
            .binary_search(&node)
            .unwrap_or_else(|_| panic!("node {} is not in this FlowNet's node set", node.0))
    }

    /// Local index of `rack`'s up link; its down link follows it.
    fn rack_up(&self, rack: RackId) -> usize {
        let pos = self
            .racks
            .binary_search(&rack)
            .expect("rack of a member node");
        2 * (self.nodes.len() + pos)
    }

    /// Local index of `cloud`'s up link; its down link follows it.
    fn cloud_up(&self, cloud: CloudId) -> usize {
        let pos = self
            .clouds
            .binary_search(&cloud)
            .expect("cloud of a member node");
        2 * (self.nodes.len() + self.racks.len() + pos)
    }

    /// The path (resources, one-way latency, per-flow rate ceiling)
    /// between nodes. The ceiling models the TCP window/RTT limit of one
    /// connection at that distance tier.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not in this net's node set.
    fn path(&self, src: NodeId, dst: NodeId) -> (Vec<usize>, u64, f64) {
        let (s, d) = (self.node_pos(src), self.node_pos(dst));
        if src == dst {
            return (vec![], 0, self.params.intra_node_mbps);
        }
        let mut res = vec![2 * s, 2 * d + 1];
        let latency;
        let flow_cap;
        if self.topo.same_rack(src, dst) {
            latency = self.params.same_rack_latency_us;
            flow_cap = self.params.same_rack_flow_mbps;
        } else {
            res.push(self.rack_up(self.topo.rack_of(src)));
            res.push(self.rack_up(self.topo.rack_of(dst)) + 1);
            if self.topo.same_cloud(src, dst) {
                latency = self.params.cross_rack_latency_us;
                flow_cap = self.params.cross_rack_flow_mbps;
            } else {
                res.push(self.cloud_up(self.topo.cloud_of(src)));
                res.push(self.cloud_up(self.topo.cloud_of(dst)) + 1);
                latency = self.params.cross_cloud_latency_us;
                flow_cap = self.params.cross_cloud_flow_mbps;
            }
        }
        (res, latency, flow_cap)
    }

    /// Begin a transfer of `bytes` from `src` to `dst` at time `now`;
    /// `token` is handed back on completion. Zero-byte flows still pay the
    /// path latency. The flow is tagged [`FlowClass::Other`]; use
    /// [`start_flow_classed`](Self::start_flow_classed) to attribute its
    /// bytes to a traffic class.
    ///
    /// # Panics
    /// Panics if `now` precedes the net's clock, or if `src` or `dst` is
    /// not in this net's node set (a caller bug).
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        token: u64,
    ) -> FlowId {
        self.start_flow_classed(now, src, dst, bytes, token, FlowClass::Other)
    }

    /// [`start_flow`](Self::start_flow) with an explicit traffic class:
    /// every link on the flow's path accrues the flow's exact byte count
    /// under `class` when the flow completes.
    ///
    /// # Panics
    /// Panics if `now` precedes the net's clock, or if `src` or `dst` is
    /// not in this net's node set (a caller bug): the panic message names
    /// the node.
    pub fn start_flow_classed(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        token: u64,
        class: FlowClass,
    ) -> FlowId {
        self.advance(now);
        let (resources, latency_us, rate_cap) = self.path(src, dst);
        let id = self.next_id;
        self.next_id += 1;
        let report = match self.mode {
            SolverMode::Incremental => {
                let t0 = self.sampling.then(std::time::Instant::now);
                Some((self.inc.insert(id, &resources, rate_cap), t0))
            }
            SolverMode::Batch => None,
        };
        self.flows.insert(
            id,
            Flow {
                resources,
                rate_cap,
                remaining_latency_us: latency_us as f64,
                remaining_bytes: bytes as f64,
                rate: 0.0,
                token,
                src,
                dst,
                bytes,
                started: now,
                class,
                bottleneck: Bottleneck::Unconstrained,
            },
        );
        match report {
            Some((report, t0)) => self.finish_incremental_solve(report, t0),
            None => self.recompute_rates_batch(),
        }
        FlowId(id)
    }

    /// Advance the fluid model to `now`, draining latency then bytes at
    /// the current rates.
    ///
    /// # Panics
    /// Panics if `now` precedes the net's clock.
    pub fn advance(&mut self, now: SimTime) {
        assert!(now >= self.clock, "FlowNet clock moving backwards");
        let elapsed = (now - self.clock).as_micros() as f64;
        self.clock = now;
        if elapsed == 0.0 {
            return;
        }
        // Per-link (start, end) active-transfer windows within this
        // interval, collected into reusable per-link scratch buffers and
        // merged into exact busy time below. Flows iterate in ascending
        // id order, so each link's window list is pushed in a
        // deterministic order and the stable per-link sort reproduces
        // the same merge arithmetic as a global (link, start) sort.
        for flow in self.flows.values_mut() {
            let lat = flow.remaining_latency_us.min(elapsed);
            flow.remaining_latency_us -= lat;
            let active = elapsed - lat;
            if active > 0.0 && flow.rate > 0.0 {
                let before = flow.remaining_bytes;
                flow.remaining_bytes = (flow.remaining_bytes - flow.rate * active).max(0.0);
                let drained = before - flow.remaining_bytes;
                if drained > 0.0 {
                    let end = (lat + drained / flow.rate).min(elapsed);
                    let mut rack_up_hits = 0u32;
                    for &r in &flow.resources {
                        self.stats[r].bytes_total += drained;
                        if self.win_scratch[r].is_empty() {
                            self.win_touched.push(r);
                        }
                        self.win_scratch[r].push((lat, end));
                        if self.links[r].class == LinkClass::RackUp {
                            rack_up_hits += 1;
                        }
                    }
                    if rack_up_hits > 0 {
                        if let Some(roll) = self.win_rollup.as_mut() {
                            // `lat`/`end` are relative to the interval
                            // start (now − elapsed); map to absolute sim
                            // time through the configured offset.
                            let base = now.as_micros() as f64 - elapsed + roll.offset_us as f64;
                            roll.add_span(
                                base + lat,
                                base + end,
                                drained * f64::from(rack_up_hits),
                            );
                        }
                    }
                }
            }
        }
        for &link in &self.win_touched {
            let windows = &mut self.win_scratch[link];
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut s, mut e) = windows[0];
            for &(ws, we) in &windows[1..] {
                if ws <= e {
                    e = e.max(we);
                } else {
                    self.stats[link].busy_us += e - s;
                    (s, e) = (ws, we);
                }
            }
            self.stats[link].busy_us += e - s;
            windows.clear();
        }
        self.win_touched.clear();
    }

    /// Earliest predicted completion across all active flows at current
    /// rates, or `None` when idle. Rounded *up* to the next microsecond so
    /// a wake-up scheduled at this time is guaranteed to observe the
    /// completion.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.flows
            .values()
            .filter_map(|f| {
                let transfer_us = if f.remaining_bytes <= BYTE_EPS {
                    0.0
                } else if f.rate > 0.0 {
                    f.remaining_bytes / f.rate
                } else {
                    return None; // starved flow: wait for a rate change
                };
                let us = (f.remaining_latency_us + transfer_us).ceil() as u64;
                Some(self.clock + SimTime::from_micros(us))
            })
            .min()
    }

    /// Advance to `now` and remove every flow that has finished, returning
    /// a [`CompletedFlow`] per transfer in flow-creation order.
    ///
    /// Completion is also when byte attribution happens: every link on a
    /// finished flow's path accrues the flow's *exact* requested byte
    /// count under its [`FlowClass`] (same-node flows traverse no links,
    /// so they accrue nowhere).
    pub fn take_completed(&mut self, now: SimTime) -> Vec<CompletedFlow> {
        self.advance(now);
        let done: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining_bytes <= BYTE_EPS && f.remaining_latency_us <= 0.0)
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::with_capacity(done.len());
        for &id in &done {
            let flow = self.flows.remove(&id).expect("flow disappeared");
            for &r in &flow.resources {
                let s = &mut self.stats[r];
                match flow.class {
                    FlowClass::MapRead => s.map_read_bytes += flow.bytes,
                    FlowClass::Shuffle => s.shuffle_bytes += flow.bytes,
                    FlowClass::OutputWrite => s.output_bytes += flow.bytes,
                    FlowClass::Other => s.other_bytes += flow.bytes,
                }
            }
            out.push(CompletedFlow {
                id: FlowId(id),
                token: flow.token,
                src: flow.src,
                dst: flow.dst,
                bytes: flow.bytes,
                started: flow.started,
                class: flow.class,
                bottleneck: flow.bottleneck,
            });
        }
        if !out.is_empty() {
            self.solver_stats.completion_batches += 1;
            self.solver_stats.completion_batch_flows += out.len() as u64;
            match self.mode {
                SolverMode::Incremental => {
                    let t0 = self.sampling.then(std::time::Instant::now);
                    let report = self.inc.remove_batch(&done);
                    self.finish_incremental_solve(report, t0);
                }
                SolverMode::Batch => self.recompute_rates_batch(),
            }
        }
        // A standard drive loop (`while let Some(t) = net.next_event_time()`)
        // exits as soon as no completion can ever fire; starved flows
        // (rate 0 with bytes remaining, e.g. routed over a zero-capacity
        // failed link) would be silently lost at that point. Fail loudly
        // in debug builds; release callers can poll `starved_flows()`.
        debug_assert!(
            self.flows.is_empty() || self.next_event_time().is_some(),
            "FlowNet went idle with {} active flow(s) starved at rate 0 — no completion can \
             ever fire; inspect FlowNet::starved_flows() ({:?}) and treat their links as failed",
            self.flows.len(),
            self.starved_flows(),
        );
        out
    }

    /// Point-in-time view of every active flow, in flow-creation order —
    /// the equality tests' window into solver state (rates compared
    /// bit-for-bit via [`f64::to_bits`]).
    pub fn active_flow_snapshot(&self) -> Vec<FlowSnapshot> {
        self.flows
            .iter()
            .map(|(&id, f)| FlowSnapshot {
                id: FlowId(id),
                token: f.token,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
                remaining_bytes: f.remaining_bytes,
                rate: f.rate,
                class: f.class,
                bottleneck: f.bottleneck,
                started: f.started,
            })
            .collect()
    }

    /// Flows that can never finish at current rates: bytes remaining
    /// but a max-min rate of zero (every path crosses a saturated-by-
    /// zero or zero-capacity link). They are *not* returned by
    /// [`take_completed`](Self::take_completed) and produce no
    /// [`next_event_time`](Self::next_event_time) entry; callers that
    /// model link failures must check for them when the net goes idle.
    pub fn starved_flows(&self) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|(_, f)| f.remaining_bytes > BYTE_EPS && f.rate <= 0.0)
            .map(|(&id, _)| FlowId(id))
            .collect()
    }

    /// Analytic lower bound for one isolated transfer: path latency plus
    /// bytes over the path's narrowest link. Useful for tests and quick
    /// estimates.
    ///
    /// A transfer that can never finish — nonzero bytes over a path with
    /// a zero-capacity (failed) link — returns [`SimTime::MAX`] as the
    /// "never" sentinel rather than overflowing; don't add an offset to
    /// it (`SimTime` addition panics on overflow by design).
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not in this net's node set.
    pub fn isolated_transfer_time(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        let (resources, latency_us, rate_cap) = self.path(src, dst);
        if bytes == 0 {
            return SimTime::from_micros(latency_us);
        }
        let bottleneck = resources
            .iter()
            .map(|&r| self.capacities[r])
            .fold(rate_cap, f64::min);
        if bottleneck <= 0.0 {
            return SimTime::MAX;
        }
        let us = latency_us as f64 + bytes as f64 / bottleneck;
        if us >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime::from_micros(us.ceil() as u64)
        }
    }

    /// Apply one incremental solve's results: copy the re-solved
    /// component's rates/bindings into the flow table, fold touched-link
    /// telemetry, and account effort (including the flows the solver
    /// *skipped* — everything outside the changed component).
    fn finish_incremental_solve(&mut self, report: SolveReport, t0: Option<std::time::Instant>) {
        {
            // `changed()` is ascending by key, as is the flow table:
            // apply the updates with one sorted merge pass instead of a
            // tree lookup per re-solved flow.
            let Self { inc, flows, .. } = self;
            let mut changed = inc.changed().peekable();
            if changed.peek().is_some() {
                for (&id, f) in flows.iter_mut() {
                    match changed.peek() {
                        Some(&(key, rate, binding)) if key == id => {
                            f.rate = rate;
                            f.bottleneck = binding;
                            changed.next();
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                debug_assert!(changed.peek().is_none(), "solved flow missing from table");
            }
        }
        self.observe_touched_links();
        let active = self.flows.len() as u64;
        let s = &mut self.solver_stats;
        s.solves += 1;
        s.flows_total += report.flows_solved;
        s.links_touched_total += report.links_solved;
        s.iterations_total += report.iterations;
        s.peak_flows = s.peak_flows.max(report.flows_solved);
        s.peak_iterations = s.peak_iterations.max(report.iterations);
        s.flows_skipped_total += active - report.flows_solved;
        if let Some(t0) = t0 {
            s.wall_us += t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        }
    }

    /// Incremental-mode counterpart of [`observe_links`](Self::observe_links):
    /// fold post-solve state for only the links the solve touched. Links
    /// outside the changed component cannot have changed state (their
    /// flows were not re-solved), so skipping them preserves bit-identical
    /// peaks, samples, and binding events — except `binding_events`,
    /// which batch mode bumps for *every* currently-binding link each
    /// solve; `binding_links` tracks that set persistently so we can do
    /// the same without a full scan.
    fn observe_touched_links(&mut self) {
        let t_us = self.clock.as_micros();
        let Self {
            inc,
            stats,
            capacities,
            binding_now,
            binding_links,
            sampling,
            samples,
            last_sample,
            ..
        } = self;
        for &r in inc.touched_links() {
            let (rate_sum, active, binding) = inc.observe_link(r);
            let util = utilization(rate_sum, capacities[r]);
            let s = &mut stats[r];
            if util > s.peak_utilization {
                s.peak_utilization = util;
            }
            if active > s.peak_active_flows {
                s.peak_active_flows = active;
            }
            if binding != binding_now[r] {
                binding_now[r] = binding;
                if binding {
                    let pos = binding_links.binary_search(&r).unwrap_err();
                    binding_links.insert(pos, r);
                } else {
                    let pos = binding_links
                        .binary_search(&r)
                        .expect("unbinding unknown link");
                    binding_links.remove(pos);
                }
            }
            if *sampling {
                let state = (util, active, binding);
                if state != last_sample[r] {
                    last_sample[r] = state;
                    samples.push(LinkSample {
                        t_us,
                        link: r,
                        utilization: util,
                        active_flows: active,
                        binding,
                    });
                }
            }
        }
        for &r in binding_links.iter() {
            stats[r].binding_events += 1;
        }
    }

    fn recompute_rates_batch(&mut self) {
        // Wall timing reads the host clock only while sampling (enabled
        // recorder); it never feeds back into simulated state.
        let t0 = self.sampling.then(std::time::Instant::now);
        // Model each finite per-flow ceiling as a dedicated single-flow
        // resource *inside* the max-min computation, so bandwidth a
        // capped flow cannot use is redistributed to its competitors
        // rather than stranded.
        let physical = self.capacities.len();
        let mut capacities = self.capacities.clone();
        let paths: Vec<Vec<usize>> = self
            .flows
            .values()
            .map(|f| {
                let mut path = f.resources.clone();
                if f.rate_cap.is_finite() {
                    path.push(capacities.len());
                    capacities.push(f.rate_cap);
                }
                path
            })
            .collect();
        let fs = max_min_fair_share_detailed(&capacities, &paths);
        for ((flow, rate), bind) in self.flows.values_mut().zip(fs.rates).zip(fs.binding) {
            flow.rate = rate.min(flow.rate_cap);
            flow.bottleneck = match bind {
                Some(r) if r < physical => Bottleneck::Link(r),
                Some(_) => Bottleneck::RateCap,
                None => Bottleneck::Unconstrained,
            };
        }
        let links_touched = self.observe_links();
        let s = &mut self.solver_stats;
        s.solves += 1;
        s.flows_total += paths.len() as u64;
        s.links_touched_total += links_touched;
        s.iterations_total += fs.iterations;
        s.peak_flows = s.peak_flows.max(paths.len() as u64);
        s.peak_iterations = s.peak_iterations.max(fs.iterations);
        if let Some(t0) = t0 {
            s.wall_us += t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        }
    }

    /// Fold the post-recomputation link state into the always-on
    /// accumulators, and (when sampling) emit a [`LinkSample`] for every
    /// link whose state changed. Returns the number of distinct physical
    /// links carrying at least one flow (the solve's working set).
    fn observe_links(&mut self) -> u64 {
        let physical = self.capacities.len();
        let mut rate_sum = vec![0.0f64; physical];
        let mut active = vec![0u32; physical];
        let mut binding = vec![false; physical];
        for flow in self.flows.values() {
            for &r in &flow.resources {
                rate_sum[r] += flow.rate;
                active[r] += 1;
            }
            if let Bottleneck::Link(r) = flow.bottleneck {
                binding[r] = true;
            }
        }
        let t_us = self.clock.as_micros();
        let links_touched = active.iter().filter(|&&a| a > 0).count() as u64;
        for r in 0..physical {
            let util = utilization(rate_sum[r], self.capacities[r]);
            let s = &mut self.stats[r];
            if util > s.peak_utilization {
                s.peak_utilization = util;
            }
            if active[r] > s.peak_active_flows {
                s.peak_active_flows = active[r];
            }
            if binding[r] {
                s.binding_events += 1;
            }
            if self.sampling {
                let state = (util, active[r], binding[r]);
                if state != self.last_sample[r] {
                    self.last_sample[r] = state;
                    self.samples.push(LinkSample {
                        t_us,
                        link: r,
                        utilization: util,
                        active_flows: active[r],
                        binding: binding[r],
                    });
                }
            }
        }
        links_touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::{generate, DistanceTiers};

    fn net() -> FlowNet {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
        FlowNet::new(topo, NetworkParams::default())
    }

    fn run_to_completion(net: &mut FlowNet) -> Vec<(SimTime, u64)> {
        let mut out = vec![];
        while let Some(t) = net.next_event_time() {
            for done in net.take_completed(t) {
                out.push((t, done.token));
            }
        }
        out
    }

    #[test]
    fn single_intra_rack_flow_nic_limited() {
        let mut n = net();
        // 119 MB over a 119 MB/s NIC = 1s + 100µs latency.
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 119_000_000, 7);
        let done = run_to_completion(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 7);
        let t = done[0].0;
        let expect = n.isolated_transfer_time(NodeId(0), NodeId(1), 119_000_000);
        assert_eq!(t, expect);
        assert!((t.as_secs_f64() - 1.0001).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn same_node_flow_memory_speed() {
        let mut n = net();
        n.start_flow(SimTime::ZERO, NodeId(2), NodeId(2), 4_000_000, 1);
        let done = run_to_completion(&mut n);
        // 4 MB at 4000 MB/s = 1 ms, zero latency.
        assert_eq!(done[0].0, SimTime::from_micros(1_000));
    }

    #[test]
    fn two_flows_share_sender_nic() {
        let mut n = net();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 119_000_000, 1);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 119_000_000, 2);
        let done = run_to_completion(&mut n);
        assert_eq!(done.len(), 2);
        // Each gets half the TX NIC -> ~2s.
        let last = done.last().unwrap().0;
        assert!((last.as_secs_f64() - 2.0001).abs() < 1e-2, "last = {last}");
    }

    #[test]
    fn solver_stats_count_effort() {
        let mut n = net();
        assert_eq!(*n.solver_stats(), SolverStats::default());
        // Two flows from node 0 sharing its TX NIC (rack-local paths:
        // sender TX + receiver RX).
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 119_000_000, 1);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 119_000_000, 2);
        let s = n.solver_stats().clone();
        assert_eq!(s.solves, 2);
        assert_eq!(s.flows_total, 1 + 2);
        // Solve 1 touches {node0.tx, node1.rx}; solve 2 adds node2.rx.
        assert_eq!(s.links_touched_total, 2 + 3);
        // Each solve froze everything through the shared TX in one round.
        assert_eq!(s.iterations_total, 2);
        assert_eq!(s.peak_flows, 2);
        assert_eq!(s.peak_iterations, 1);
        assert_eq!(s.completion_batches, 0);
        // Sampling is off → the solver never read the host clock.
        assert_eq!(s.wall_us, 0);

        // Symmetric flows finish together: one batch of two, plus one
        // final (empty-set) recomputation.
        let done = run_to_completion(&mut n);
        assert_eq!(done.len(), 2);
        let s = n.solver_stats().clone();
        assert_eq!(s.solves, 3);
        assert_eq!(s.completion_batches, 1);
        assert_eq!(s.completion_batch_flows, 2);
        assert_eq!(s.flows_total, 3);
        assert_eq!(s.links_touched_total, 5);
    }

    #[test]
    fn cross_rack_flows_capped_per_flow() {
        let mut n = net();
        // 3 senders in rack 0 to rack 1: the per-flow ceiling is 40 MB/s
        // and the shared 119 MB/s uplink allows 119/3 ≈ 39.7 MB/s each, so
        // the uplink share binds: 119 MB / 39.7 MB/s ≈ 3.0 s.
        for (i, src) in [0u32, 1, 2].into_iter().enumerate() {
            n.start_flow(
                SimTime::ZERO,
                NodeId(src),
                NodeId(3 + src),
                119_000_000,
                i as u64,
            );
        }
        let done = run_to_completion(&mut n);
        let last = done.last().unwrap().0;
        assert!((last.as_secs_f64() - 3.0003).abs() < 1e-2, "last = {last}");
        // A single cross-rack flow in isolation is capped at 40 MB/s.
        let mut solo = net();
        solo.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 119_000_000, 0);
        let done = run_to_completion(&mut solo);
        assert!(
            (done[0].0.as_secs_f64() - 2.9753).abs() < 1e-2,
            "solo = {}",
            done[0].0
        );
    }

    #[test]
    fn uplink_saturates_with_many_cross_rack_flows() {
        // 3 nodes per rack is too few to saturate 476; shrink the uplink.
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
        let params = NetworkParams {
            rack_uplink_mbps: 60.0,
            ..NetworkParams::default()
        };
        let mut n = FlowNet::new(topo, params);
        for i in 0..3u32 {
            n.start_flow(
                SimTime::ZERO,
                NodeId(i),
                NodeId(3 + i),
                60_000_000,
                u64::from(i),
            );
        }
        // 3 flows share the 60 MB/s uplink: 20 MB/s each -> ~3 s.
        let done = run_to_completion(&mut n);
        let last = done.last().unwrap().0;
        assert!((last.as_secs_f64() - 3.0003).abs() < 1e-2, "last = {last}");
    }

    #[test]
    fn oversubscribed_uplink_slows_cross_rack() {
        // Compare 5 parallel intra-rack flows vs 5 cross-rack flows from
        // distinct senders: uplink (476) < 5 × NIC (595).
        let topo = Arc::new(generate::uniform(2, 5, DistanceTiers::default()));
        let mut intra = FlowNet::new(Arc::clone(&topo), NetworkParams::default());
        let mut cross = FlowNet::new(topo, NetworkParams::default());
        for i in 0..5u32 {
            // intra: node i -> node (i+1)%5 (same rack, distinct NIC pairs? receivers overlap)
            intra.start_flow(
                SimTime::ZERO,
                NodeId(i),
                NodeId((i + 1) % 5),
                50_000_000,
                u64::from(i),
            );
            cross.start_flow(
                SimTime::ZERO,
                NodeId(i),
                NodeId(5 + i),
                50_000_000,
                u64::from(i),
            );
        }
        let t_intra = run_to_completion(&mut intra).last().unwrap().0;
        let t_cross = run_to_completion(&mut cross).last().unwrap().0;
        assert!(
            t_cross > t_intra,
            "cross-rack {t_cross} should be slower than intra-rack {t_intra}"
        );
    }

    #[test]
    fn zero_byte_flow_costs_latency_only() {
        let mut n = net();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(4), 0, 9);
        let done = run_to_completion(&mut n);
        assert_eq!(done[0].0, SimTime::from_micros(300)); // cross-rack latency
    }

    #[test]
    fn staggered_starts_rate_adjustment() {
        let mut n = net();
        // Flow A alone for 0.5s at 119 MB/s, then B joins; both share TX.
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 119_000_000, 1);
        n.start_flow(
            SimTime::from_millis(500),
            NodeId(0),
            NodeId(2),
            119_000_000,
            2,
        );
        let done = run_to_completion(&mut n);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].1, 1);
        // A: 0.5s alone (59.5MB) + remainder shared at 59.5 MB/s -> ~1.5s total.
        assert!(
            (done[0].0.as_secs_f64() - 1.5).abs() < 0.02,
            "A at {}",
            done[0].0
        );
        // B: ~119MB at mixed rates, finishes ~2.0s
        assert!(
            (done[1].0.as_secs_f64() - 2.0).abs() < 0.02,
            "B at {}",
            done[1].0
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let mut n = net();
            for i in 0..8u64 {
                n.start_flow(
                    SimTime::from_micros(i * 137),
                    NodeId((i % 6) as u32),
                    NodeId(((i + 3) % 6) as u32),
                    1_000_000 + i * 50_000,
                    i,
                );
            }
            run_to_completion(&mut n)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "clock moving backwards")]
    fn backwards_clock_panics() {
        let mut n = net();
        n.advance(SimTime::from_secs(1));
        n.advance(SimTime::ZERO);
    }

    #[test]
    fn completed_flow_carries_metadata() {
        let mut n = net();
        n.start_flow_classed(
            SimTime::from_micros(250),
            NodeId(0),
            NodeId(1),
            1_000_000,
            42,
            FlowClass::Shuffle,
        );
        let t = n.next_event_time().unwrap();
        let done = n.take_completed(t);
        assert_eq!(done.len(), 1);
        let d = &done[0];
        assert_eq!(d.token, 42);
        assert_eq!(d.src, NodeId(0));
        assert_eq!(d.dst, NodeId(1));
        assert_eq!(d.bytes, 1_000_000);
        assert_eq!(d.started, SimTime::from_micros(250));
        assert_eq!(d.class, FlowClass::Shuffle);
    }

    #[test]
    fn link_catalog_matches_resource_layout() {
        let n = net(); // 2 racks × 3 nodes, 1 cloud
        let links = n.links();
        assert_eq!(links.len(), 2 * 6 + 2 * 2 + 2);
        assert_eq!(links[0].name, "node0.tx");
        assert_eq!(links[0].class, LinkClass::NodeTx);
        assert_eq!(links[1].name, "node0.rx");
        assert_eq!(links[12].name, "rack0.up");
        assert_eq!(links[12].class, LinkClass::RackUp);
        assert_eq!(links[15].name, "rack1.down");
        assert_eq!(links[16].name, "cloud0.up");
        assert_eq!(links[16].class, LinkClass::CloudUp);
        for l in links {
            assert!(l.capacity_mbps > 0.0);
        }
    }

    #[test]
    fn exact_class_bytes_attributed_on_completion() {
        let mut n = net();
        // Cross-rack shuffle + same-rack map read + same-node flow
        // (the latter traverses no links and must accrue nowhere).
        n.start_flow_classed(
            SimTime::ZERO,
            NodeId(0),
            NodeId(3),
            5_000_000,
            0,
            FlowClass::Shuffle,
        );
        n.start_flow_classed(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            3_000_000,
            1,
            FlowClass::MapRead,
        );
        n.start_flow_classed(
            SimTime::ZERO,
            NodeId(4),
            NodeId(4),
            9_000_000,
            2,
            FlowClass::Shuffle,
        );
        run_to_completion(&mut n);
        let rx_shuffle: u64 = n
            .link_stats()
            .iter()
            .zip(n.links())
            .filter(|(_, l)| l.class == LinkClass::NodeRx)
            .map(|(s, _)| s.shuffle_bytes)
            .sum();
        assert_eq!(rx_shuffle, 5_000_000, "same-node shuffle must not count");
        let rack_up = n.links().iter().position(|l| l.name == "rack0.up").unwrap();
        assert_eq!(n.link_stats()[rack_up].shuffle_bytes, 5_000_000);
        assert_eq!(n.link_stats()[rack_up].map_read_bytes, 0);
        let rx_map: u64 = n
            .link_stats()
            .iter()
            .zip(n.links())
            .filter(|(_, l)| l.class == LinkClass::NodeRx)
            .map(|(s, _)| s.map_read_bytes)
            .sum();
        assert_eq!(rx_map, 3_000_000);
    }

    #[test]
    fn byte_integral_and_busy_time_track_single_flow() {
        let mut n = net();
        // 119 MB at 119 MB/s: ~1 s of busy time on node0.tx / node1.rx.
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 119_000_000, 0);
        run_to_completion(&mut n);
        let tx = &n.link_stats()[0];
        assert!(
            (tx.bytes_total - 119_000_000.0).abs() < 1.0,
            "integral = {}",
            tx.bytes_total
        );
        assert!(
            (tx.busy_us - 1_000_000.0).abs() < 1_000.0,
            "busy = {}",
            tx.busy_us
        );
        assert!((tx.peak_utilization - 1.0).abs() < 1e-9);
        assert_eq!(tx.peak_active_flows, 1);
    }

    #[test]
    fn busy_time_merges_overlapping_flows() {
        let mut n = net();
        // Two flows share node0.tx the whole time: busy time is the
        // union (~2 s for 2 × 119 MB at half rate each), not the sum.
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 119_000_000, 0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 119_000_000, 1);
        run_to_completion(&mut n);
        let tx = &n.link_stats()[0];
        assert!(
            (tx.busy_us - 2_000_000.0).abs() < 2_000.0,
            "busy = {}",
            tx.busy_us
        );
        assert_eq!(tx.peak_active_flows, 2);
        assert!(
            (tx.bytes_total - 238_000_000.0).abs() < 2.0,
            "integral = {}",
            tx.bytes_total
        );
    }

    #[test]
    fn bottleneck_attribution_rate_cap_vs_link() {
        // A solo cross-rack flow is bound by its 40 MB/s connection cap.
        let mut solo = net();
        solo.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000, 0);
        let t = solo.next_event_time().unwrap();
        let done = solo.take_completed(t);
        assert_eq!(done[0].bottleneck, Bottleneck::RateCap);

        // Four competing cross-rack senders oversubscribe the shared
        // 119 MB/s uplink (4 × 40 > 119): the uplink binds.
        let topo = Arc::new(generate::uniform(2, 4, DistanceTiers::default()));
        let mut n = FlowNet::new(topo, NetworkParams::default());
        for i in 0..4u32 {
            n.start_flow(
                SimTime::ZERO,
                NodeId(i),
                NodeId(4 + i),
                10_000_000,
                u64::from(i),
            );
        }
        let t = n.next_event_time().unwrap();
        let done = n.take_completed(t);
        let rack0_up = n.links().iter().position(|l| l.name == "rack0.up").unwrap();
        assert_eq!(done[0].bottleneck, Bottleneck::Link(rack0_up));
        assert!(n.link_stats()[rack0_up].binding_events > 0);
    }

    #[test]
    fn sampling_emits_changed_links_only() {
        let mut n = net();
        n.set_sampling(true);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
        let samples = n.drain_link_samples();
        // One recompute touched exactly node0.tx and node1.rx.
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert!(s.utilization > 0.0 && s.utilization <= 1.0 + 1e-9);
            assert_eq!(s.active_flows, 1);
            assert_eq!(s.t_us, 0);
        }
        run_to_completion(&mut n);
        let after = n.drain_link_samples();
        // Completion recompute drops both links back to zero.
        assert_eq!(after.len(), 2);
        for s in &after {
            assert_eq!(s.utilization, 0.0);
            assert_eq!(s.active_flows, 0);
        }
        // Untraced runs buffer nothing.
        let mut quiet = net();
        quiet.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000, 0);
        run_to_completion(&mut quiet);
        assert!(quiet.drain_link_samples().is_empty());
    }

    #[test]
    fn window_rollup_partitions_rack_up_bytes() {
        // Cross-rack: node0 (rack 0) → node3 (rack 1) crosses rack0.up.
        let mut n = net();
        n.set_window_rollup(1_000, 0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 50_000_000, 0);
        run_to_completion(&mut n);
        let roll = n.take_window_rollup();
        assert!(!roll.is_empty());
        let total: f64 = roll.iter().map(|&(_, b)| b).sum();
        assert!(
            (total - 50_000_000.0).abs() < 1.0,
            "rollup total {total} != flow bytes"
        );
        // Windows are contiguous from 0 while the flow transfers.
        for (i, &(idx, bytes)) in roll.iter().enumerate() {
            assert_eq!(idx, i as u64, "gap in rollup windows: {roll:?}");
            assert!(bytes > 0.0);
        }
        // Draining leaves the rollup armed but empty.
        assert!(n.take_window_rollup().is_empty());

        // Same-rack traffic never touches a RackUp link.
        let mut local = net();
        local.set_window_rollup(1_000, 0);
        local.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
        run_to_completion(&mut local);
        assert!(local.take_window_rollup().is_empty());

        // The offset shifts which absolute windows accrue.
        let mut shifted = net();
        shifted.set_window_rollup(1_000, 5_000);
        shifted.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000, 0);
        run_to_completion(&mut shifted);
        let roll = shifted.take_window_rollup();
        assert!(roll.iter().all(|&(idx, _)| idx >= 5), "{roll:?}");

        // Rollup is pure observation: completion times are unchanged.
        let mut plain = net();
        plain.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 50_000_000, 0);
        let mut rolled = net();
        rolled.set_window_rollup(1_000, 0);
        rolled.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 50_000_000, 0);
        assert_eq!(
            run_to_completion(&mut plain),
            run_to_completion(&mut rolled)
        );
    }

    #[test]
    fn telemetry_does_not_change_completion_times() {
        let mk = |sampling: bool| {
            let mut n = net();
            n.set_sampling(sampling);
            for i in 0..8u64 {
                n.start_flow(
                    SimTime::from_micros(i * 137),
                    NodeId((i % 6) as u32),
                    NodeId(((i + 3) % 6) as u32),
                    1_000_000 + i * 50_000,
                    i,
                );
            }
            run_to_completion(&mut n)
        };
        assert_eq!(mk(false), mk(true));
    }

    /// 2 racks × 3 nodes with a dead (failed) rack uplink.
    fn net_dead_uplink() -> FlowNet {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
        let params = NetworkParams {
            rack_uplink_mbps: 0.0,
            ..NetworkParams::default()
        };
        FlowNet::new(topo, params)
    }

    #[test]
    fn starved_flows_are_surfaced_not_lost() {
        let mut n = net_dead_uplink();
        // Cross-rack flow over the dead uplink: max-min rate 0.
        let starved = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000, 7);
        // Intra-rack flow is unaffected by the dead uplink.
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 8);
        assert_eq!(n.starved_flows(), vec![starved]);
        // The healthy flow still schedules a wake-up…
        assert!(n.next_event_time().is_some());
        // …but a net with only the starved flow can never fire an event.
        let mut probe = net_dead_uplink();
        probe.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000, 7);
        assert_eq!(probe.next_event_time(), None);
        assert_eq!(probe.starved_flows().len(), 1);
        // Zero-byte flows only pay latency and are *not* starved.
        let mut lat = net_dead_uplink();
        lat.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 0, 9);
        assert!(lat.starved_flows().is_empty());
        assert!(lat.next_event_time().is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "starved at rate 0")]
    fn going_idle_with_starved_flows_panics_in_debug() {
        let mut n = net_dead_uplink();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000, 7);
        // Nothing completes and the net is idle with a live flow: the
        // debug assertion in take_completed must fire rather than let a
        // drive loop exit with the flow silently lost.
        n.take_completed(SimTime::from_secs(10));
    }

    #[test]
    fn isolated_transfer_time_over_dead_link_is_never() {
        let n = net_dead_uplink();
        // Nonzero bytes across the dead uplink: "never", not an overflow.
        let t = n.isolated_transfer_time(NodeId(0), NodeId(3), 1);
        assert_eq!(t, SimTime::MAX);
        // Zero bytes still just pay the path latency (no 0/0 NaN).
        let t0 = n.isolated_transfer_time(NodeId(0), NodeId(3), 0);
        assert_eq!(t0, SimTime::from_micros(300));
        // Intra-rack paths avoid the dead link entirely.
        let t1 = n.isolated_transfer_time(NodeId(0), NodeId(1), 119_000_000);
        assert!((t1.as_secs_f64() - 1.0001).abs() < 1e-3, "t1 = {t1}");
    }

    #[test]
    fn zero_capacity_links_report_finite_utilization() {
        for mode in [SolverMode::Batch, SolverMode::Incremental] {
            let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::default()));
            let params = NetworkParams {
                rack_uplink_mbps: 0.0,
                ..NetworkParams::default()
            };
            let mut n = FlowNet::with_solver(topo, params, mode);
            n.set_sampling(true);
            // One starved cross-rack flow and one healthy intra-rack flow.
            n.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000, 0);
            n.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), 1_000_000, 1);
            for s in &n.drain_link_samples() {
                assert!(
                    s.utilization.is_finite(),
                    "{mode:?}: non-finite utilization leaked into samples: {s:?}"
                );
            }
            let rack_up = n.links().iter().position(|l| l.name == "rack0.up").unwrap();
            let dead = &n.link_stats()[rack_up];
            // rate 0 over capacity 0 is reported as 0, not NaN/inf.
            assert_eq!(dead.peak_utilization, 0.0, "{mode:?}");
            assert_eq!(dead.peak_active_flows, 1, "{mode:?}");
        }
    }

    /// 2 clouds × 2 racks × 2 nodes; the net holds nodes 6, 1 and 3
    /// (given unsorted, with a duplicate): racks 0, 1, 3 and both clouds.
    fn subset_net() -> FlowNet {
        let topo = Arc::new(generate::multi_cloud(
            2,
            2,
            2,
            DistanceTiers::new(1, 2, 8).unwrap(),
        ));
        let nodes = [6, 1, 3, 1].map(NodeId);
        FlowNet::for_nodes(
            topo,
            NetworkParams::default(),
            SolverMode::default(),
            &nodes,
        )
    }

    #[test]
    fn subset_links_are_ascending_with_global_names() {
        let n = subset_net();
        let names: Vec<&str> = n.links().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "node1.tx",
                "node1.rx",
                "node3.tx",
                "node3.rx",
                "node6.tx",
                "node6.rx",
                "rack0.up",
                "rack0.down",
                "rack1.up",
                "rack1.down",
                "rack3.up",
                "rack3.down",
                "cloud0.up",
                "cloud0.down",
                "cloud1.up",
                "cloud1.down",
            ]
        );
        assert_eq!(n.links()[9].class, LinkClass::RackDown);
        assert_eq!(n.links()[14].class, LinkClass::CloudUp);
        // Every node of the cloud is the `new` case: 8 nodes, 4 racks, 2 clouds.
        let whole = FlowNet::new(Arc::clone(&n.topo), NetworkParams::default());
        assert_eq!(whole.links().len(), 2 * (8 + 4 + 2));
    }

    #[test]
    fn subset_path_uses_local_indices() {
        let mut n = subset_net();
        // node1 (rack 0, cloud 0) → node6 (rack 3, cloud 1).
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(6), 1_000_000, 0);
        run_to_completion(&mut n);
        let busy: Vec<&str> = n
            .links()
            .iter()
            .zip(n.link_stats())
            .filter(|(_, s)| s.completed_bytes() > 0)
            .map(|(l, _)| l.name.as_str())
            .collect();
        assert_eq!(
            busy,
            [
                "node1.tx",
                "node6.rx",
                "rack0.up",
                "rack3.down",
                "cloud0.up",
                "cloud1.down"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "node 2 is not in this FlowNet's node set")]
    fn flow_to_a_node_outside_the_set_panics() {
        let mut n = subset_net();
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), 1_000, 0);
    }

    #[test]
    #[should_panic(expected = "node 0 is not in this FlowNet's node set")]
    fn flow_from_a_node_outside_the_set_panics() {
        let mut n = subset_net();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(0), 1_000, 0);
    }

    #[test]
    fn cross_cloud_path_uses_wan() {
        let topo = Arc::new(generate::multi_cloud(
            2,
            1,
            2,
            DistanceTiers::new(1, 2, 8).unwrap(),
        ));
        let n = FlowNet::new(topo, NetworkParams::default());
        // WAN latency dominates.
        let t = n.isolated_transfer_time(NodeId(0), NodeId(3), 0);
        assert_eq!(t, SimTime::from_micros(10_000));
        // A single cross-cloud connection is capped at 10 MB/s.
        let t2 = n.isolated_transfer_time(NodeId(0), NodeId(3), 119_000_000);
        assert!((t2.as_secs_f64() - 11.91).abs() < 0.01, "t2 = {t2}");
    }
}
