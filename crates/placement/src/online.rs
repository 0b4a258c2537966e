//! **Algorithm 1** — the online greedy VM-placement heuristic (paper §IV-A).
//!
//! For each candidate *seed* node the heuristic allocates as much of the
//! request as possible on the seed, then fills from the seed's rack
//! neighbours, then from the remaining nodes — always preferring nodes
//! that can provide more resources toward the *outstanding remainder*
//! (Theorem 1 justifies nearest-first filling). The seed whose completed
//! allocation has the smallest seed-centred distance wins and becomes the
//! cluster's central node; equal distances break toward the lowest seed id.
//!
//! The naïve scan is `O(n² m)` plus `O(n² log n)` sort work per request.
//! This module keeps that loop structure but makes it scale:
//!
//! * **cached aggregates** — candidate sort keys read the
//!   [`PlacementIndex`](vc_model::PlacementIndex) maintained by
//!   [`ClusterState`] instead of recomputing `row_request().com()` inside
//!   every comparator;
//! * **seed pruning** — each seed has an admissible lower bound on the
//!   distance it could possibly achieve (outstanding VMs at the cheapest
//!   same-rack hop while rack capacity lasts, the cheapest cross-rack hop
//!   after), so seeds that cannot beat the incumbent are skipped and the
//!   scan exits early once the incumbent meets the global bound;
//! * **parallel scan** — seeds are split into contiguous chunks evaluated
//!   on scoped threads (see [`Parallelism`]), sharing the incumbent
//!   distance through an atomic so all chunks prune against the best
//!   found anywhere.
//!
//! Every configuration returns **bit-identical** allocations: pruning
//! rules are strict enough to never discard a potential winner, and the
//! final reduce picks the lexicographically smallest `(distance, seed)`
//! exactly like the sequential loop.

use crate::policy::{check_admissible, PlacementError, PlacementPolicy};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use vc_model::{Allocation, ClusterState, PlacementIndex, Request, ResourceMatrix, VmTypeId};
use vc_obs::{AttrValue, NoopRecorder, Recorder};
use vc_topology::{NodeId, Topology};

/// Worker-count knob for the seed scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Scan all seeds on the calling thread.
    #[default]
    Sequential,
    /// Use exactly this many scan workers (values ≤ 1 run sequentially).
    Threads(usize),
    /// One worker per available core.
    Auto,
}

impl Parallelism {
    /// Map a CLI-style thread count onto a mode: `0` means [`Auto`]
    /// (one worker per core), `1` means [`Sequential`], anything else is
    /// [`Threads`]`(n)`.
    ///
    /// [`Auto`]: Parallelism::Auto
    /// [`Sequential`]: Parallelism::Sequential
    /// [`Threads`]: Parallelism::Threads
    pub fn from_thread_count(n: usize) -> Self {
        match n {
            0 => Self::Auto,
            1 => Self::Sequential,
            n => Self::Threads(n),
        }
    }

    /// Concrete worker count for a scan over `seeds` candidates.
    fn workers(self, seeds: usize) -> usize {
        let raw = match self {
            Self::Sequential => 1,
            Self::Threads(n) => n.max(1),
            Self::Auto => std::thread::available_parallelism().map_or(1, |p| p.get()),
        };
        raw.min(seeds.max(1))
    }
}

/// How the seed scan should run. The default is pruned and sequential —
/// the fastest single-threaded configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Skip seeds whose admissible lower bound cannot beat the incumbent,
    /// abort fills that have already lost, and early-exit once the
    /// incumbent meets the global bound.
    pub prune: bool,
    /// Seed-scan threading.
    pub parallelism: Parallelism,
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self {
            prune: true,
            parallelism: Parallelism::Sequential,
        }
    }
}

impl ScanConfig {
    /// The unpruned single-threaded scan — the measurement baseline that
    /// evaluates every seed in full.
    pub const fn sequential_baseline() -> Self {
        Self {
            prune: false,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Pruned, single-threaded (the default).
    pub const fn pruned() -> Self {
        Self {
            prune: true,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Pruned with an explicit thread count (`0` = one worker per core).
    pub fn pruned_parallel(threads: usize) -> Self {
        Self {
            prune: true,
            parallelism: Parallelism::from_thread_count(threads),
        }
    }
}

/// What one scan did — fuels the `placement.seeds_*` observability
/// counters and the pruning-efficacy test.
///
/// In parallel runs the split between `seeds_pruned` and `seeds_aborted`
/// depends on cross-thread timing; only the allocation itself and the
/// invariant `scanned + pruned + aborted == total` are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidate seeds overall (`n`, or what was left after the fast path).
    pub seeds_total: u64,
    /// Seeds evaluated to a complete allocation.
    pub seeds_scanned: u64,
    /// Seeds skipped outright by the lower bound.
    pub seeds_pruned: u64,
    /// Seeds whose fill was cut off once it could no longer win.
    pub seeds_aborted: u64,
    /// Fully evaluated seeds that tied the incumbent distance and lost the
    /// lower-id tie-break (a subset of `seeds_scanned`). With pruning on,
    /// most ties are cut mid-fill and show up as `seeds_aborted` instead.
    pub seeds_tied: u64,
    /// Whether a single node covered the whole request (no seed scan ran).
    pub fast_path: bool,
}

impl ScanStats {
    fn absorb(&mut self, other: &ScanStats) {
        self.seeds_total += other.seeds_total;
        self.seeds_scanned += other.seeds_scanned;
        self.seeds_pruned += other.seeds_pruned;
        self.seeds_aborted += other.seeds_aborted;
        self.seeds_tied += other.seeds_tied;
    }
}

/// Everything worth knowing about one placement decision — the
/// [`ScanStats`] plus the outcome (chosen central node, its seed-centred
/// distance) and the pruning context (global lower bound, worker count).
/// Emitted as a `placement.scan_audit` event by [`place_recorded`] and
/// surfaced by `vc report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanAudit {
    /// Scan work breakdown (scanned / pruned / aborted / tied).
    pub stats: ScanStats,
    /// The winning seed — the virtual cluster's central node.
    pub center: NodeId,
    /// Seed-centred distance of the winning allocation.
    pub distance: u64,
    /// `min` over all seeds of the admissible lower bound (0 when pruning
    /// was off or the fast path fired).
    pub lower_bound: u64,
    /// Scan workers actually used (1 = sequential or fast path).
    pub workers: u64,
}

impl ScanAudit {
    /// How far the chosen allocation sits above the admissible global
    /// lower bound. 0 means the scan proved the result optimal *for this
    /// seed-greedy family*; larger gaps flag requests worth exchanging.
    fn bound_gap(&self) -> u64 {
        self.distance.saturating_sub(self.lower_bound)
    }

    /// Emit this audit through `rec` as a `placement.scan_audit` event.
    fn emit(&self, rec: &dyn Recorder, t_us: u64) {
        rec.counter_add("placement.seeds_scanned", self.stats.seeds_scanned);
        rec.counter_add("placement.seeds_pruned", self.stats.seeds_pruned);
        rec.counter_add("placement.seeds_aborted", self.stats.seeds_aborted);
        if !rec.enabled() {
            return;
        }
        rec.event(
            "placement.scan_audit",
            t_us,
            None,
            &[
                ("center", AttrValue::from(self.center.0 as u64)),
                ("dc", AttrValue::from(self.distance)),
                ("lower_bound", AttrValue::from(self.lower_bound)),
                ("bound_gap", AttrValue::from(self.bound_gap())),
                ("workers", AttrValue::from(self.workers)),
                ("seeds_total", AttrValue::from(self.stats.seeds_total)),
                ("seeds_scanned", AttrValue::from(self.stats.seeds_scanned)),
                ("seeds_pruned", AttrValue::from(self.stats.seeds_pruned)),
                ("seeds_aborted", AttrValue::from(self.stats.seeds_aborted)),
                ("seeds_tied", AttrValue::from(self.stats.seeds_tied)),
                ("fast_path", AttrValue::Bool(self.stats.fast_path)),
            ],
        );
    }
}

/// Place `request` with the online heuristic (default [`ScanConfig`]).
///
/// Returns an error if the request is refused (over capacity), malformed
/// (wrong type-vector length), or must be queued (over current
/// availability); otherwise always succeeds.
///
/// ```
/// use std::sync::Arc;
/// use vc_model::{ClusterState, Request, VmCatalog};
/// use vc_placement::online;
/// use vc_topology::{generate, DistanceTiers};
///
/// let topo = Arc::new(generate::uniform(3, 10, DistanceTiers::paper_experiment()));
/// let cloud = ClusterState::uniform_capacity(topo, Arc::new(VmCatalog::ec2_table1()), 2);
/// let request = Request::from_counts(vec![2, 4, 1]);
/// let allocation = online::place(&request, &cloud).unwrap();
/// assert!(allocation.satisfies(&request));
/// assert!(allocation.rack_span(cloud.topology()) == 1); // compact
/// ```
pub fn place(request: &Request, state: &ClusterState) -> Result<Allocation, PlacementError> {
    place_with(request, state, ScanConfig::default()).map(|(allocation, _)| allocation)
}

/// Place `request` with an explicit [`ScanConfig`], also returning the
/// [`ScanStats`] for observability. All configurations produce
/// bit-identical allocations.
pub fn place_with(
    request: &Request,
    state: &ClusterState,
    config: ScanConfig,
) -> Result<(Allocation, ScanStats), PlacementError> {
    place_recorded(request, state, config, &NoopRecorder, 0)
        .map(|(allocation, audit)| (allocation, audit.stats))
}

/// [`place_with`] plus a decision audit, emitting placement telemetry
/// through `rec` as it runs:
///
/// * `placement.seeds_scanned` / `.seeds_pruned` / `.seeds_aborted`
///   counters (request totals, deterministic sums);
/// * one `placement.scan_chunk` event per scan chunk, in worker order,
///   recorded by the calling thread from the [`ScanStats`] each worker
///   returns (a sequential scan is one chunk, worker 0);
/// * one `placement.scan_audit` event per request (see [`ScanAudit`]).
///
/// `t_us` stamps the emitted events (simulation time of the decision).
pub(crate) fn place_recorded(
    request: &Request,
    state: &ClusterState,
    config: ScanConfig,
    rec: &dyn Recorder,
    t_us: u64,
) -> Result<(Allocation, ScanAudit), PlacementError> {
    check_admissible(request, state)?;
    let topo = state.topology();
    let remaining = state.remaining();
    let index = state.index();
    let n = state.num_nodes();
    let m = state.num_types();

    // Fast path (Algorithm 1, first loop): a single node covers the whole
    // request — distance 0, that node is the centre.
    for i in topo.node_ids() {
        if covers(remaining.row(i), request.counts()) {
            let mut matrix = ResourceMatrix::zeros(n, m);
            for (ty, count) in request.nonzero() {
                matrix.set(i, ty, count);
            }
            let stats = ScanStats {
                seeds_total: n as u64,
                fast_path: true,
                ..ScanStats::default()
            };
            let audit = ScanAudit {
                stats,
                center: i,
                distance: 0,
                lower_bound: 0,
                workers: 1,
            };
            audit.emit(rec, t_us);
            return Ok((Allocation::new(matrix, i), audit));
        }
    }

    let (lower_bounds, global_min_lb) = if config.prune {
        let _t = vc_obs::PhaseTimer::start(rec, vc_obs::prof::BOUND_PRECOMPUTE);
        let lbs: Vec<u64> = topo
            .node_ids()
            .map(|seed| seed_lower_bound(topo, index, remaining, request.counts(), seed))
            .collect();
        let min = lbs.iter().copied().min().unwrap_or(0);
        (lbs, min)
    } else {
        (Vec::new(), 0)
    };

    let ctx = ScanCtx {
        topo,
        remaining,
        index,
        request: request.counts(),
        req_total: request.total_vms(),
        prune: config.prune,
        lower_bounds,
        global_min_lb,
    };

    let workers = config.parallelism.workers(n);
    let chunk = n.div_ceil(workers);
    let bounds = |w: usize| ((w * chunk).min(n), ((w + 1) * chunk).min(n));
    let shared_best = AtomicU64::new(u64::MAX);
    let scan_timer = vc_obs::PhaseTimer::start(rec, vc_obs::prof::SEED_SCAN);
    // Workers return plain data and never touch `rec` (`&dyn Recorder`
    // is not `Send`); the calling thread records what they hand back.
    let results: Vec<(Option<SeedResult>, ScanStats)> = if workers <= 1 {
        vec![scan_range(&ctx, 0, n, &shared_best)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (ctx, shared) = (&ctx, &shared_best);
                    let (lo, hi) = bounds(w);
                    scope.spawn(move || scan_range(ctx, lo, hi, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("seed-scan worker panicked"))
                .collect()
        })
    };
    let mut best: Option<SeedResult> = None;
    let mut stats = ScanStats::default();
    for (w, (candidate, chunk_stats)) in results.into_iter().enumerate() {
        emit_scan_chunk(rec, t_us, w, bounds(w), &chunk_stats);
        stats.absorb(&chunk_stats);
        if let Some(c) = candidate {
            // Lexicographic (distance, seed id) — identical to the
            // sequential incumbent rule.
            match best.as_ref() {
                Some(b) if c.distance == b.distance => stats.seeds_tied += 1,
                Some(b) if (c.distance, c.seed) < (b.distance, b.seed) => best = Some(c),
                Some(_) => {}
                None => best = Some(c),
            }
        }
    }
    drop(scan_timer);

    let Some(win) = best else {
        return Err(PlacementError::Unsatisfiable {
            request: request.clone(),
        });
    };
    let mut matrix = ResourceMatrix::zeros(n, m);
    for &(node, ty, count) in &win.takes {
        matrix.set(node, VmTypeId::from_index(ty as usize), count);
    }
    let audit = ScanAudit {
        stats,
        center: win.seed,
        distance: win.distance,
        lower_bound: global_min_lb,
        workers: workers as u64,
    };
    audit.emit(rec, t_us);
    Ok((Allocation::new(matrix, win.seed), audit))
}

/// Record one `placement.scan_chunk` event: the pruning/bound telemetry
/// of worker `worker`'s seed range `lo..hi`.
fn emit_scan_chunk(
    rec: &dyn Recorder,
    t_us: u64,
    worker: usize,
    (lo, hi): (usize, usize),
    stats: &ScanStats,
) {
    if !rec.enabled() {
        return;
    }
    rec.event(
        "placement.scan_chunk",
        t_us,
        None,
        &[
            ("worker", AttrValue::from(worker as u64)),
            ("lo", AttrValue::from(lo as u64)),
            ("hi", AttrValue::from(hi as u64)),
            ("seeds_scanned", AttrValue::from(stats.seeds_scanned)),
            ("seeds_pruned", AttrValue::from(stats.seeds_pruned)),
            ("seeds_aborted", AttrValue::from(stats.seeds_aborted)),
            ("seeds_tied", AttrValue::from(stats.seeds_tied)),
        ],
    );
}

/// Shared read-only inputs for one scan.
struct ScanCtx<'a> {
    topo: &'a Topology,
    remaining: &'a ResourceMatrix,
    index: &'a PlacementIndex,
    request: &'a [u32],
    req_total: u32,
    prune: bool,
    /// Per-seed admissible lower bounds (empty when pruning is off).
    lower_bounds: Vec<u64>,
    /// `min(lower_bounds)` — an incumbent at or below this cannot be beaten.
    global_min_lb: u64,
}

/// A completed seed evaluation: the seed-centred distance and the sparse
/// `(node, type, count)` takes that reconstruct the allocation matrix.
struct SeedResult {
    distance: u64,
    seed: NodeId,
    takes: Vec<(NodeId, u32, u32)>,
}

/// `min(row, want)` summed — how much this node can provide toward `want`.
#[inline]
fn capped_total(row: &[u32], want: &[u32]) -> u32 {
    row.iter().zip(want).map(|(&a, &b)| a.min(b)).sum()
}

/// Whether `row` covers `want` elementwise.
#[inline]
fn covers(row: &[u32], want: &[u32]) -> bool {
    row.iter().zip(want).all(|(&a, &b)| a >= b)
}

/// Admissible lower bound on the seed-centred distance any allocation
/// seeded at `seed` can achieve: the seed takes its elementwise best, the
/// outstanding VMs travel at least the cheapest same-rack hop while the
/// rack's spare (non-seed) capacity lasts, and at least the cheapest
/// cross-rack hop after that. Never overestimates, so pruning on it is
/// exact.
fn seed_lower_bound(
    topo: &Topology,
    index: &PlacementIndex,
    remaining: &ResourceMatrix,
    request: &[u32],
    seed: NodeId,
) -> u64 {
    let row = remaining.row(seed);
    let rack_free = index.rack_free(topo.rack_of(seed));
    let mut out_total: u64 = 0;
    let mut in_rack_cap: u64 = 0;
    for j in 0..request.len() {
        let out_j = u64::from(request[j] - row[j].min(request[j]));
        out_total += out_j;
        in_rack_cap += u64::from(rack_free[j] - row[j].min(rack_free[j])).min(out_j);
    }
    if out_total == 0 {
        return 0;
    }
    match (
        index.min_same_rack_distance(seed),
        index.min_cross_rack_distance(seed),
    ) {
        (None, None) => 0,
        (Some(d1), None) => u64::from(d1) * out_total,
        (None, Some(d2)) => u64::from(d2) * out_total,
        (Some(d1), Some(d2)) if d1 <= d2 => {
            let near = in_rack_cap.min(out_total);
            u64::from(d1) * near + u64::from(d2) * (out_total - near)
        }
        // Same-rack hops costing more than cross-rack ones only happen
        // with tiers set without `DistanceTiers::new`'s ordering check;
        // assume every outstanding VM travels at the cheaper cross-rack
        // hop — still admissible.
        (Some(_), Some(d2)) => u64::from(d2) * out_total,
    }
}

/// Evaluate seeds `lo..hi` (ascending ids), returning the chunk's best
/// completed seed and its scan statistics. `shared_best` carries the best
/// distance found by *any* chunk; pruning against it uses strictly-greater
/// comparisons so ties (which break by seed id in the final reduce) are
/// never discarded.
fn scan_range(
    ctx: &ScanCtx<'_>,
    lo: usize,
    hi: usize,
    shared_best: &AtomicU64,
) -> (Option<SeedResult>, ScanStats) {
    let m = ctx.request.len();
    let mut stats = ScanStats {
        seeds_total: (hi - lo) as u64,
        ..ScanStats::default()
    };
    let mut best: Option<SeedResult> = None;
    // Scratch reused across seeds to keep the hot loop allocation-free.
    let mut out = vec![0u32; m];
    let mut takes: Vec<(NodeId, u32, u32)> = Vec::new();
    let mut rack_buf: Vec<(Reverse<u32>, NodeId)> = Vec::new();
    let mut far_buf: Vec<(u32, Reverse<u32>, NodeId)> = Vec::new();

    for s in lo..hi {
        let seed = NodeId::from_index(s);
        let local_best_d = best.as_ref().map_or(u64::MAX, |b| b.distance);
        if ctx.prune {
            // Incumbent already meets the best bound any seed has — no
            // remaining seed can strictly beat it, and later ids lose ties.
            if local_best_d <= ctx.global_min_lb {
                stats.seeds_pruned += (hi - s) as u64;
                break;
            }
            let lb = ctx.lower_bounds[s];
            if lb >= local_best_d || lb > shared_best.load(Ordering::Relaxed) {
                stats.seeds_pruned += 1;
                continue;
            }
        }
        match evaluate_seed(
            ctx,
            seed,
            local_best_d,
            shared_best,
            &mut out,
            &mut takes,
            &mut rack_buf,
            &mut far_buf,
        ) {
            Some(distance) => {
                stats.seeds_scanned += 1;
                // Ascending ids within the chunk: a tie keeps the earlier
                // incumbent, so only strictly smaller distances replace it.
                if distance < local_best_d {
                    shared_best.fetch_min(distance, Ordering::Relaxed);
                    best = Some(SeedResult {
                        distance,
                        seed,
                        takes: takes.clone(),
                    });
                } else if distance == local_best_d {
                    stats.seeds_tied += 1;
                }
            }
            None => stats.seeds_aborted += 1,
        }
    }
    (best, stats)
}

/// Run one seed's greedy fill: seed first, then rack peers keyed on what
/// they provide toward the *post-seed* outstanding remainder, then
/// non-rack nodes keyed on `(distance, providable-toward-remainder, id)`.
///
/// Returns the seed-centred distance, or `None` if the fill was aborted
/// because it could no longer win (pruning only) or could not complete.
#[allow(clippy::too_many_arguments)]
fn evaluate_seed(
    ctx: &ScanCtx<'_>,
    seed: NodeId,
    local_best_d: u64,
    shared_best: &AtomicU64,
    out: &mut [u32],
    takes: &mut Vec<(NodeId, u32, u32)>,
    rack_buf: &mut Vec<(Reverse<u32>, NodeId)>,
    far_buf: &mut Vec<(u32, Reverse<u32>, NodeId)>,
) -> Option<u64> {
    out.copy_from_slice(ctx.request);
    takes.clear();
    let mut out_total = ctx.req_total;
    let mut distance: u64 = 0;

    let take = |node: NodeId, out: &mut [u32], takes: &mut Vec<(NodeId, u32, u32)>| -> u32 {
        let row = ctx.remaining.row(node);
        let mut got = 0u32;
        for (j, o) in out.iter_mut().enumerate() {
            let t = row[j].min(*o);
            if t > 0 {
                *o -= t;
                got += t;
                takes.push((node, j as u32, t));
            }
        }
        got
    };

    out_total -= take(seed, out, takes);

    if out_total > 0 {
        // rackList: same-rack peers, most-providing-toward-the-remainder
        // first. When the remainder dominates the rack's free counts the
        // index's (free-total, id) order is already exactly that, so the
        // sort is skipped.
        let rack = ctx.topo.rack_of(seed);
        let members = ctx.index.rack_candidates(rack);
        let dominated = covers(out, ctx.index.rack_free(rack));
        rack_buf.clear();
        if dominated {
            // Remainder dominates the rack: providable(i) = free-total(i),
            // so the index order is already the sorted order.
            rack_buf.extend(
                members
                    .iter()
                    .filter(|&&n| n != seed)
                    .map(|&n| (Reverse(0), n)),
            );
        } else {
            rack_buf.extend(
                members
                    .iter()
                    .filter(|&&n| n != seed)
                    .map(|&n| (Reverse(capped_total(ctx.remaining.row(n), out)), n)),
            );
            rack_buf.sort_unstable();
        }
        for &(_, node) in rack_buf.iter() {
            if out_total == 0 {
                break;
            }
            let got = take(node, out, takes);
            if got > 0 {
                out_total -= got;
                distance += u64::from(got) * u64::from(ctx.topo.distance(seed, node));
                if ctx.prune
                    && (distance >= local_best_d || distance > shared_best.load(Ordering::Relaxed))
                {
                    return None;
                }
            }
        }
    }

    if out_total > 0 {
        // nRackList: remaining nodes, nearest tier first, most-providing
        // toward the post-rack remainder within a tier.
        let rack = ctx.topo.rack_of(seed);
        far_buf.clear();
        for node in ctx.topo.node_ids() {
            if ctx.topo.rack_of(node) != rack {
                far_buf.push((
                    ctx.topo.distance(seed, node),
                    Reverse(capped_total(ctx.remaining.row(node), out)),
                    node,
                ));
            }
        }
        far_buf.sort_unstable();
        for &(d_hop, _, node) in far_buf.iter() {
            if out_total == 0 {
                break;
            }
            let got = take(node, out, takes);
            if got > 0 {
                out_total -= got;
                distance += u64::from(got) * u64::from(d_hop);
                if ctx.prune
                    && (distance >= local_best_d || distance > shared_best.load(Ordering::Relaxed))
                {
                    return None;
                }
            }
        }
    }

    // `can_satisfy` passed, and a full sweep visits every node, so the
    // fill always completes; guard anyway so an incomplete fill can never
    // masquerade as a (wrong) winner.
    (out_total == 0).then_some(distance)
}

/// [`PlacementPolicy`] wrapper around [`place`] (default scan).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineHeuristic;

impl PlacementPolicy for OnlineHeuristic {
    fn name(&self) -> &'static str {
        "online-heuristic"
    }

    fn place(
        &self,
        request: &Request,
        state: &ClusterState,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<Allocation, PlacementError> {
        place(request, state)
    }

    fn place_recorded(
        &self,
        request: &Request,
        state: &ClusterState,
        _rng: &mut dyn rand::RngCore,
        rec: &dyn Recorder,
        t_us: u64,
    ) -> Result<Allocation, PlacementError> {
        place_recorded(request, state, ScanConfig::default(), rec, t_us)
            .map(|(allocation, _)| allocation)
    }
}

/// [`PlacementPolicy`] wrapper around [`place_with`] carrying an explicit
/// [`ScanConfig`] — the policy the CLI's `--placement-threads` flag
/// constructs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineScan(pub ScanConfig);

impl PlacementPolicy for OnlineScan {
    fn name(&self) -> &'static str {
        "online-heuristic"
    }

    fn place(
        &self,
        request: &Request,
        state: &ClusterState,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<Allocation, PlacementError> {
        place_with(request, state, self.0).map(|(allocation, _)| allocation)
    }

    fn place_recorded(
        &self,
        request: &Request,
        state: &ClusterState,
        _rng: &mut dyn rand::RngCore,
        rec: &dyn Recorder,
        t_us: u64,
    ) -> Result<Allocation, PlacementError> {
        place_recorded(request, state, self.0, rec, t_us).map(|(allocation, _)| allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_with_center;
    use crate::exact;
    use std::sync::Arc;
    use vc_model::VmCatalog;
    use vc_topology::{generate, DistanceTiers};

    fn state(rows: &[Vec<u32>], racks: &[usize]) -> ClusterState {
        let topo = Arc::new(generate::heterogeneous(
            racks,
            DistanceTiers::paper_experiment(),
        ));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::new(topo, cat, ResourceMatrix::from_rows(rows))
    }

    fn all_configs() -> [ScanConfig; 4] {
        [
            ScanConfig::sequential_baseline(),
            ScanConfig::pruned(),
            ScanConfig::pruned_parallel(2),
            ScanConfig {
                prune: false,
                parallelism: Parallelism::Threads(3),
            },
        ]
    }

    #[test]
    fn single_node_fast_path() {
        let s = state(&[vec![1, 0, 0], vec![3, 3, 3], vec![1, 1, 1]], &[3]);
        let req = Request::from_counts(vec![2, 1, 1]);
        let (a, stats) = place_with(&req, &s, ScanConfig::default()).unwrap();
        assert!(a.satisfies(&req));
        assert_eq!(a.span(), 1);
        assert_eq!(a.center(), NodeId(1));
        assert!(stats.fast_path);
    }

    #[test]
    fn fills_rack_before_crossing() {
        // rack 0: nodes 0,1 ; rack 1: nodes 2,3. Request needs 3 V0.
        let s = state(
            &[vec![2, 0, 0], vec![1, 0, 0], vec![2, 0, 0], vec![2, 0, 0]],
            &[2, 2],
        );
        let req = Request::from_counts(vec![3, 0, 0]);
        let a = place(&req, &s).unwrap();
        assert!(a.satisfies(&req));
        // optimal: 2 on node 0 + 1 on node 1 (distance d1) — never cross-rack.
        let d = distance_with_center(a.matrix(), s.topology(), a.center());
        assert_eq!(d, 1);
    }

    #[test]
    fn stale_full_request_key_would_pick_worse_order() {
        // Regression for the stale-sort-key bug: the rack list must be
        // keyed on the remainder *after* the seed took its share.
        //
        // Seed 0 takes [2,0,0]; remainder [0,2,0]. Against the remainder
        // node 2 provides 2 and node 1 provides 1, so node 2 alone
        // completes the cluster (span 2). Keyed against the *full*
        // request both tie at 2 and node 1 goes first, dragging node 2 in
        // anyway (span 3) — strictly worse fragmentation.
        let s = state(&[vec![2, 0, 0], vec![1, 1, 0], vec![0, 2, 0]], &[3]);
        let req = Request::from_counts(vec![2, 2, 0]);
        let a = place(&req, &s).unwrap();
        assert!(a.satisfies(&req));
        assert_eq!(a.center(), NodeId(0));
        assert_eq!(a.span(), 2, "remainder key must finish on node 2 alone");
        assert_eq!(a.matrix().node_total(NodeId(1)), 0);
        assert_eq!(a.matrix().node_total(NodeId(2)), 2);
    }

    #[test]
    fn all_scan_configs_bit_identical() {
        let s = state(
            &[
                vec![2, 1, 0],
                vec![1, 0, 1],
                vec![0, 2, 1],
                vec![1, 1, 0],
                vec![2, 0, 1],
                vec![1, 2, 2],
            ],
            &[2, 2, 2],
        );
        for req in [
            Request::from_counts(vec![2, 1, 1]),
            Request::from_counts(vec![4, 2, 2]),
            Request::from_counts(vec![6, 5, 4]),
        ] {
            let (base, base_stats) =
                place_with(&req, &s, ScanConfig::sequential_baseline()).unwrap();
            assert_eq!(
                base_stats.seeds_scanned + base_stats.seeds_aborted,
                base_stats.seeds_total,
                "baseline never prunes"
            );
            for config in all_configs() {
                let (a, stats) = place_with(&req, &s, config).unwrap();
                assert_eq!(a.matrix(), base.matrix(), "{config:?}");
                assert_eq!(a.center(), base.center(), "{config:?}");
                assert_eq!(
                    stats.seeds_scanned + stats.seeds_pruned + stats.seeds_aborted,
                    stats.seeds_total,
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn pruning_skips_seeds_on_uniform_cloud() {
        let topo = Arc::new(generate::uniform(4, 8, DistanceTiers::paper_experiment()));
        let s = ClusterState::uniform_capacity(topo, Arc::new(VmCatalog::ec2_table1()), 1);
        // Needs several nodes, so no fast path; uniform racks mean the
        // first completed seed already meets the global lower bound.
        let req = Request::from_counts(vec![3, 3, 3]);
        let (_, stats) = place_with(&req, &s, ScanConfig::pruned()).unwrap();
        assert!(!stats.fast_path);
        assert!(
            stats.seeds_pruned > 0,
            "expected pruning on a uniform cloud, got {stats:?}"
        );

        // At 480 and 1920 nodes of random capacity the pruned scan
        // evaluates at most 5% of the seeds, and every scan mode still
        // returns the exhaustive scan's allocation.
        use rand::SeedableRng;
        let req = Request::from_counts(vec![8, 8, 4]);
        for racks in [12, 48] {
            let topo = Arc::new(generate::uniform(
                racks,
                40,
                DistanceTiers::paper_experiment(),
            ));
            let catalog = Arc::new(VmCatalog::ec2_table1());
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let capacity = vc_model::workload::random_capacity(&topo, &catalog, 3, &mut rng);
            let s = ClusterState::new(topo, catalog, capacity);
            let (base, _) = place_with(&req, &s, ScanConfig::sequential_baseline()).unwrap();
            for config in [ScanConfig::pruned(), ScanConfig::pruned_parallel(2)] {
                let (a, stats) = place_with(&req, &s, config).unwrap();
                assert_eq!(a.matrix(), base.matrix(), "{config:?}");
                assert_eq!(a.center(), base.center(), "{config:?}");
                assert!(!stats.fast_path);
                assert!(
                    (stats.seeds_scanned + stats.seeds_aborted) * 20 <= stats.seeds_total,
                    "{config:?} at {} nodes evaluated too many seeds: {stats:?}",
                    racks * 40
                );
            }
        }
    }

    #[test]
    fn heuristic_never_beats_exact() {
        let s = state(
            &[
                vec![2, 1, 0],
                vec![1, 0, 1],
                vec![0, 2, 1],
                vec![1, 1, 0],
                vec![2, 0, 1],
            ],
            &[2, 3],
        );
        for req in [
            Request::from_counts(vec![2, 1, 1]),
            Request::from_counts(vec![4, 2, 2]),
            Request::from_counts(vec![1, 1, 0]),
            Request::from_counts(vec![6, 4, 3]),
        ] {
            let h = place(&req, &s).unwrap();
            let e = exact::solve(&req, &s).unwrap();
            let dh = distance_with_center(h.matrix(), s.topology(), h.center());
            let de = distance_with_center(e.matrix(), s.topology(), e.center());
            assert!(dh >= de, "heuristic {dh} < exact {de} for {req}");
            assert!(h.satisfies(&req));
        }
    }

    #[test]
    fn respects_remaining_capacity() {
        let mut s = state(&[vec![2, 0, 0], vec![2, 0, 0]], &[2]);
        // Occupy node 0 fully.
        let first = place(&Request::from_counts(vec![2, 0, 0]), &s).unwrap();
        s.allocate(&first).unwrap();
        let second = place(&Request::from_counts(vec![2, 0, 0]), &s).unwrap();
        assert!(second.matrix().le(s.remaining()));
        assert_eq!(second.matrix().get(NodeId(1), vc_model::VmTypeId(0)), 2);
    }

    #[test]
    fn queue_signal_when_busy() {
        let mut s = state(&[vec![1, 0, 0]], &[1]);
        let a = place(&Request::from_counts(vec![1, 0, 0]), &s).unwrap();
        s.allocate(&a).unwrap();
        let err = place(&Request::from_counts(vec![1, 0, 0]), &s).unwrap_err();
        assert!(matches!(err, PlacementError::Unsatisfiable { .. }));
    }

    #[test]
    fn refusal_when_over_capacity() {
        let s = state(&[vec![1, 0, 0]], &[1]);
        let err = place(&Request::from_counts(vec![5, 0, 0]), &s).unwrap_err();
        assert!(matches!(err, PlacementError::Refused { .. }));
    }

    #[test]
    fn malformed_request_rejected() {
        let s = state(&[vec![1, 0, 0]], &[1]);
        let err = place(&Request::from_counts(vec![1, 0]), &s).unwrap_err();
        assert!(matches!(err, PlacementError::Malformed { .. }));
    }

    #[test]
    fn parallelism_knob_mapping() {
        assert_eq!(Parallelism::from_thread_count(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_thread_count(1), Parallelism::Sequential);
        assert_eq!(Parallelism::from_thread_count(4), Parallelism::Threads(4));
        assert_eq!(Parallelism::Threads(3).workers(2), 2);
        assert_eq!(Parallelism::Sequential.workers(100), 1);
    }

    #[test]
    fn policy_name() {
        assert_eq!(OnlineHeuristic.name(), "online-heuristic");
        assert_eq!(OnlineScan::default().name(), "online-heuristic");
    }
}
