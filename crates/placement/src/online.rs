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
//! This module keeps that loop structure but makes its cost follow the
//! request and the number of racks, not the number of nodes, on the
//! tier topology (every distance is `0`, `d1`, `d2` or `d3`):
//!
//! * **cached aggregates** — candidate sort keys read the
//!   [`PlacementIndex`] maintained by [`ClusterState`] instead of
//!   recomputing `row_request().com()` inside every comparator;
//! * **rack-level fast path** — a node can cover the whole request only
//!   if its rack's per-type maxima do, so only those racks' members are
//!   checked for the lowest covering id: `O(racks · m)` when none can;
//! * **rack-level pruning** — each seed has an admissible lower bound on
//!   the distance it could possibly achieve (outstanding VMs at the
//!   cheapest same-rack hop while rack capacity lasts, the cheapest
//!   cross-rack hop after). The bound never increases as the seed's free
//!   row grows, so the bound at a rack's per-type maximum row holds for
//!   every member. Racks are visited by ascending bound, and a rack that
//!   cannot beat the incumbent on `(distance, id)` is skipped whole; its
//!   seeds count as pruned. Visited racks prune seed by seed on their own
//!   bound, and fills abort once they have lost;
//! * **tier walk** — the far list (`nRackList`) is the other racks of the
//!   seed's cloud at `d2`, then the other clouds at `d3`, each tier
//!   sorted on its own when the fill reaches it (so a fill that leaves
//!   its rack still costs `O(t log t)` for a tier of `t` nodes);
//! * **parallel scan** — seeds, in visiting order, are split into
//!   contiguous chunks evaluated on scoped threads (see [`Parallelism`]),
//!   sharing the incumbent distance through an atomic so all chunks prune
//!   against the best found anywhere.
//!
//! A request's scan thus costs `O(racks · m + racks log racks)` plus the
//! members of the racks it visits and the fills it evaluates; committing
//! the sparse result touches only its entries.
//!
//! Every configuration returns **bit-identical** allocations: pruning
//! rules are strict enough to never discard a potential winner, and every
//! comparison — inside a chunk and in the final reduce — picks the
//! lexicographically smallest `(distance, seed)`, exactly like the
//! unpruned sequential loop.

use crate::policy::{check_admissible, PlacementError, PlacementPolicy};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use vc_model::{
    Allocation, ClusterState, PlacementIndex, Request, ResourceMatrix, SparseMatrix, VmTypeId,
};
use vc_obs::{AttrValue, NoopRecorder, Recorder};
use vc_topology::{NodeId, RackId, Topology};

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
/// Every node is a seed: `scanned + pruned + aborted == total`. A pruned
/// scan visits racks in ascending order of their admissible bound, and a
/// rack whose bound cannot beat the incumbent is skipped whole — its
/// seeds all count as pruned, so `pruned / total` keeps its meaning.
/// In parallel runs the split between `seeds_pruned` and `seeds_aborted`
/// depends on cross-thread timing; only the allocation itself and the
/// invariant are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidate seeds overall (`n`).
    pub seeds_total: u64,
    /// Seeds evaluated to a complete allocation.
    pub seeds_scanned: u64,
    /// Seeds skipped outright by a lower bound: their own, or their
    /// rack's.
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
/// Emitted as a `placement.scan_audit` event by every recorded scan and
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
    /// was off or the fast path fired). Taken over the seeds of the racks
    /// the scan visited: a skipped rack's bound is at least the winner's
    /// distance, so none of its seeds can hold a smaller one.
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
    if let Some(node) = lowest_covering_node(topo, index, remaining, request.counts()) {
        let entries = request.nonzero().map(|(ty, count)| (node, ty, count));
        let stats = ScanStats {
            seeds_total: n as u64,
            fast_path: true,
            ..ScanStats::default()
        };
        let audit = ScanAudit {
            stats,
            center: node,
            distance: 0,
            lower_bound: 0,
            workers: 1,
        };
        audit.emit(rec, t_us);
        return Ok((
            Allocation::new(SparseMatrix::from_entries(n, m, entries), node),
            audit,
        ));
    }

    let visits = {
        let _t = vc_obs::PhaseTimer::start(rec, vc_obs::prof::BOUND_PRECOMPUTE);
        rack_visits(topo, index, request.counts(), config.prune)
    };
    let ctx = ScanCtx {
        topo,
        remaining,
        index,
        request: request.counts(),
        req_total: request.total_vms(),
        prune: config.prune,
    };

    // Workers split the seeds in visiting order into contiguous ranges.
    let workers = config.parallelism.workers(n);
    let chunk = n.div_ceil(workers);
    let bounds = |w: usize| ((w * chunk).min(n), ((w + 1) * chunk).min(n));
    let shared_best = AtomicU64::new(u64::MAX);
    let scan_timer = vc_obs::PhaseTimer::start(rec, vc_obs::prof::SEED_SCAN);
    // Workers return plain data and never touch `rec` (`&dyn Recorder`
    // is not `Send`); the calling thread records what they hand back.
    let results: Vec<ChunkResult> = if workers <= 1 {
        vec![scan_range(&ctx, &visits, (0, n), &shared_best)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (ctx, shared) = (&ctx, &shared_best);
                    let (visits, range) = (&visits, bounds(w));
                    scope.spawn(move || scan_range(ctx, visits, range, shared))
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
    let mut lower_bound = u64::MAX;
    for (w, chunk) in results.into_iter().enumerate() {
        emit_scan_chunk(rec, t_us, w, bounds(w), &chunk.stats);
        stats.absorb(&chunk.stats);
        lower_bound = lower_bound.min(chunk.min_lower_bound);
        if let Some(c) = chunk.best {
            // Lexicographic (distance, seed id) — identical to the
            // incumbent rule inside a chunk.
            if let Some(b) = &best {
                stats.seeds_tied += u64::from(c.distance == b.distance);
            }
            if best.as_ref().is_none_or(|b| c.key() < b.key()) {
                best = Some(c);
            }
        }
    }
    drop(scan_timer);

    let Some(win) = best else {
        return Err(PlacementError::Unsatisfiable {
            request: request.clone(),
        });
    };
    let audit = ScanAudit {
        stats,
        center: win.seed,
        distance: win.distance,
        lower_bound: if config.prune { lower_bound } else { 0 },
        workers: workers as u64,
    };
    audit.emit(rec, t_us);
    let matrix = SparseMatrix::from_entries(n, m, win.takes);
    Ok((Allocation::new(matrix, win.seed), audit))
}

/// The lowest-id node whose free row covers `want`, visiting only racks
/// whose per-type maxima cover it: `O(racks · m)` plus the members of
/// those racks up to the incumbent's id.
fn lowest_covering_node(
    topo: &Topology,
    index: &PlacementIndex,
    remaining: &ResourceMatrix,
    want: &[u32],
) -> Option<NodeId> {
    let mut best: Option<NodeId> = None;
    for rack in topo.racks() {
        if !covers(index.rack_max(rack.id), want) {
            continue;
        }
        // Members are in ascending id order.
        for &node in &rack.nodes {
            if best.is_some_and(|b| node >= b) {
                break;
            }
            if covers(remaining.row(node), want) {
                best = Some(node);
                break;
            }
        }
    }
    best
}

/// One rack of the seed scan: the admissible lower bound every member's
/// distance is at least, and where its members start in the visiting
/// order of all seeds.
#[derive(Debug, Clone, Copy)]
struct RackVisit {
    rack: RackId,
    first: NodeId,
    bound: u64,
    start: usize,
}

/// The racks holding a node, in the order the scan visits them. Pruned
/// scans take each rack's bound at its per-type maximum row and visit
/// by ascending `(bound, lowest id)`, so a tight incumbent comes early
/// and the racks after it are skipped whole; an unpruned scan visits in
/// rack order with zero bounds. `O(racks · m + racks log racks)`.
fn rack_visits(
    topo: &Topology,
    index: &PlacementIndex,
    want: &[u32],
    prune: bool,
) -> Vec<RackVisit> {
    let mut visits: Vec<RackVisit> = topo
        .racks()
        .iter()
        .filter_map(|r| {
            let first = *r.nodes.first()?;
            let bound = if prune {
                lower_bound(
                    index.rack_max(r.id),
                    index.rack_free(r.id),
                    index.rack_min_same_distance(r.id),
                    index.rack_min_cross_distance(r.id),
                    want,
                )
            } else {
                0
            };
            Some(RackVisit {
                rack: r.id,
                first,
                bound,
                start: 0,
            })
        })
        .collect();
    if prune {
        visits.sort_unstable_by_key(|v| (v.bound, v.first));
    }
    let mut start = 0;
    for v in &mut visits {
        v.start = start;
        start += topo.racks()[v.rack.index()].nodes.len();
    }
    visits
}

/// Record one `placement.scan_chunk` event: the pruning/bound telemetry
/// of worker `worker`'s seeds, positions `lo..hi` of the visiting order.
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
}

/// A completed seed evaluation: the seed-centred distance and the sparse
/// `(node, type, count)` takes that make up the allocation matrix.
struct SeedResult {
    distance: u64,
    seed: NodeId,
    takes: Vec<(NodeId, VmTypeId, u32)>,
}

impl SeedResult {
    /// The order seeds compete in: distance, then the lower id.
    fn key(&self) -> (u64, NodeId) {
        (self.distance, self.seed)
    }
}

/// What one worker's share of the seeds produced.
struct ChunkResult {
    best: Option<SeedResult>,
    stats: ScanStats,
    /// Smallest per-seed lower bound over the seeds of the racks this
    /// chunk visited (`u64::MAX` when it visited none or did not prune).
    min_lower_bound: u64,
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

/// Whether a seed `id` whose distance is at least `bound` can no longer
/// win: it orders after the chunk's incumbent on `(distance, id)`, or its
/// bound exceeds the best distance any worker has found. Both are strict,
/// so a seed that could still tie-break its way to the win is kept.
#[inline]
fn loses(
    bound: u64,
    id: NodeId,
    incumbent: Option<(u64, NodeId)>,
    shared_best: &AtomicU64,
) -> bool {
    incumbent.is_some_and(|best| (bound, id) > best) || bound > shared_best.load(Ordering::Relaxed)
}

/// Admissible lower bound on the seed-centred distance any allocation
/// seeded at a node with free row `row` can achieve: the seed takes its
/// elementwise best, the outstanding VMs travel at least the cheapest
/// same-rack hop while the rack's spare (non-seed) capacity lasts, and
/// at least the cheapest cross-rack hop after that. Never overestimates,
/// so pruning on it is exact.
///
/// The bound never increases as `row` grows: each extra VM the seed holds
/// takes one outstanding VM off the bill at `d1` or `d2` and shrinks the
/// rack's spare capacity by at most one. So the bound at a rack's
/// per-type maximum row is admissible for every member of the rack.
fn lower_bound(
    row: &[u32],
    rack_free: &[u32],
    same: Option<u32>,
    cross: Option<u32>,
    request: &[u32],
) -> u64 {
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
    match (same, cross) {
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

/// Evaluate the seeds at positions `lo..hi` of the visiting order (racks
/// as `visits` orders them, each rack's members in ascending id order),
/// returning the chunk's best completed seed and its statistics.
/// `shared_best` carries the best distance found by *any* chunk; pruning
/// against it is strict, so ties (which break by seed id in the final
/// reduce) are never discarded.
fn scan_range(
    ctx: &ScanCtx<'_>,
    visits: &[RackVisit],
    (lo, hi): (usize, usize),
    shared_best: &AtomicU64,
) -> ChunkResult {
    let racks = ctx.topo.racks();
    let mut stats = ScanStats {
        seeds_total: (hi - lo) as u64,
        ..ScanStats::default()
    };
    let mut best: Option<SeedResult> = None;
    let mut min_lower_bound = u64::MAX;
    // Buffers reused across seeds keep the hot loop allocation-free.
    let mut bufs = Buffers::new(ctx.request.len());

    for visit in visits {
        let nodes = &racks[visit.rack.index()].nodes;
        let (from, to) = (
            lo.clamp(visit.start, visit.start + nodes.len()),
            hi.clamp(visit.start, visit.start + nodes.len()),
        );
        let members = &nodes[from - visit.start..to - visit.start];
        let Some(&first) = members.first() else {
            continue;
        };
        let incumbent = best.as_ref().map(SeedResult::key);
        if ctx.prune && loses(visit.bound, first, incumbent, shared_best) {
            // No member can beat the incumbent: skip the whole rack.
            stats.seeds_pruned += members.len() as u64;
            continue;
        }
        let (same, cross) = (
            ctx.index.rack_min_same_distance(visit.rack),
            ctx.index.rack_min_cross_distance(visit.rack),
        );
        for &seed in members {
            let incumbent = best.as_ref().map(SeedResult::key);
            if ctx.prune {
                let row = ctx.remaining.row(seed);
                let lb = lower_bound(
                    row,
                    ctx.index.rack_free(visit.rack),
                    same,
                    cross,
                    ctx.request,
                );
                min_lower_bound = min_lower_bound.min(lb);
                if loses(lb, seed, incumbent, shared_best) {
                    stats.seeds_pruned += 1;
                    continue;
                }
            }
            let Some(distance) = evaluate_seed(ctx, seed, incumbent, shared_best, &mut bufs) else {
                stats.seeds_aborted += 1;
                continue;
            };
            stats.seeds_scanned += 1;
            stats.seeds_tied += u64::from(incumbent.is_some_and(|b| distance == b.0));
            if incumbent.is_none_or(|b| (distance, seed) < b) {
                shared_best.fetch_min(distance, Ordering::Relaxed);
                best = Some(SeedResult {
                    distance,
                    seed,
                    takes: bufs.takes.clone(),
                });
            }
        }
    }
    ChunkResult {
        best,
        stats,
        min_lower_bound,
    }
}

/// Buffers one worker reuses across seeds.
struct Buffers {
    /// Outstanding demand of the fill in progress.
    out: Vec<u32>,
    /// The demand when the far pass began: its nodes' sort keys.
    far_out: Vec<u32>,
    takes: Vec<(NodeId, VmTypeId, u32)>,
    /// `(providable, id)` candidates of a pass that sorts.
    sorted: Vec<(Reverse<u32>, NodeId)>,
}

impl Buffers {
    fn new(m: usize) -> Self {
        Self {
            out: vec![0; m],
            far_out: vec![0; m],
            takes: Vec::new(),
            sorted: Vec::new(),
        }
    }
}

/// One seed's fill in progress: the remainder, the takes and the
/// distance so far.
struct Fill<'s> {
    seed: NodeId,
    out: &'s mut [u32],
    takes: &'s mut Vec<(NodeId, VmTypeId, u32)>,
    out_total: u32,
    distance: u64,
}

impl Fill<'_> {
    /// Take what `node` can give toward the remainder, each VM `hop` away
    /// from the seed. Returns how many VMs it gave.
    fn take(&mut self, remaining: &ResourceMatrix, node: NodeId, hop: u32) -> u32 {
        let row = remaining.row(node);
        let mut got = 0u32;
        for (j, o) in self.out.iter_mut().enumerate() {
            let t = row[j].min(*o);
            if t > 0 {
                *o -= t;
                got += t;
                self.takes.push((node, VmTypeId::from_index(j), t));
            }
        }
        self.out_total -= got;
        self.distance += u64::from(got) * u64::from(hop);
        got
    }
}

/// Run one seed's greedy fill: seed first, then rack peers keyed on what
/// they provide toward the *post-seed* outstanding remainder, then
/// non-rack nodes keyed on `(distance, providable-toward-remainder, id)`.
///
/// The non-rack pass walks the far tiers — the other racks of the seed's
/// cloud at `d2`, then the other clouds at `d3` (nearer tier first; equal
/// tiers form one) — and sorts each tier's nodes on what they provide
/// toward the post-rack remainder, so a fill that completes in the nearer
/// tier never sorts the farther one.
///
/// Returns the seed-centred distance, or `None` if the fill was aborted
/// because it could no longer win (pruning only) or could not complete.
fn evaluate_seed(
    ctx: &ScanCtx<'_>,
    seed: NodeId,
    incumbent: Option<(u64, NodeId)>,
    shared_best: &AtomicU64,
    bufs: &mut Buffers,
) -> Option<u64> {
    bufs.out.copy_from_slice(ctx.request);
    bufs.takes.clear();
    let mut fill = Fill {
        seed,
        out: &mut bufs.out,
        takes: &mut bufs.takes,
        out_total: ctx.req_total,
        distance: 0,
    };
    let lost =
        |fill: &Fill<'_>| ctx.prune && loses(fill.distance, fill.seed, incumbent, shared_best);
    fill.take(ctx.remaining, seed, 0);

    let topo = ctx.topo;
    let rack = topo.rack_of(seed);
    if fill.out_total > 0 {
        // rackList: same-rack peers, most-providing-toward-the-remainder
        // first. When the remainder dominates the rack's free counts the
        // index's (free-total, id) order is already exactly that, so the
        // sort is skipped.
        let d1 = topo.tiers().same_rack;
        let members = ctx.index.rack_candidates(rack);
        if covers(fill.out, ctx.index.rack_free(rack)) {
            for &node in members.iter().filter(|&&n| n != seed) {
                if fill.out_total == 0 || ctx.index.node_free(node) == 0 {
                    break;
                }
                if fill.take(ctx.remaining, node, d1) > 0 && lost(&fill) {
                    return None;
                }
            }
        } else {
            let sorted = &mut bufs.sorted;
            sorted.clear();
            sorted.extend(members.iter().filter(|&&n| n != seed).filter_map(|&n| {
                let key = capped_total(ctx.remaining.row(n), fill.out);
                (key > 0).then_some((Reverse(key), n))
            }));
            sorted.sort_unstable();
            for &(_, node) in sorted.iter() {
                if fill.out_total == 0 {
                    break;
                }
                if fill.take(ctx.remaining, node, d1) > 0 && lost(&fill) {
                    return None;
                }
            }
        }
    }

    if fill.out_total > 0 {
        // nRackList: remaining nodes, nearest tier first, most-providing
        // toward the post-rack remainder within a tier.
        bufs.far_out.copy_from_slice(fill.out);
        let key_out = &bufs.far_out;
        let tiers = topo.tiers();
        let cloud = topo.racks()[rack.index()].cloud;
        let (near, away) = (tiers.cross_rack, tiers.cross_cloud);
        // (hop, whether the tier is the seed's own cloud — `None` when the
        // two tiers cost the same and form one)
        let far_tiers: &[(u32, Option<bool>)] = if near == away {
            &[(near, None)]
        } else if near < away {
            &[(near, Some(true)), (away, Some(false))]
        } else {
            &[(away, Some(false)), (near, Some(true))]
        };
        for &(hop, own_cloud) in far_tiers {
            if fill.out_total == 0 {
                break;
            }
            let sorted = &mut bufs.sorted;
            sorted.clear();
            for r in topo
                .racks()
                .iter()
                .filter(|r| r.id != rack && own_cloud.is_none_or(|own| (r.cloud == cloud) == own))
            {
                sorted.extend(r.nodes.iter().filter_map(|&n| {
                    let key = capped_total(ctx.remaining.row(n), key_out);
                    (key > 0).then_some((Reverse(key), n))
                }));
            }
            sorted.sort_unstable();
            for &(_, node) in sorted.iter() {
                if fill.out_total == 0 {
                    break;
                }
                if fill.take(ctx.remaining, node, hop) > 0 && lost(&fill) {
                    return None;
                }
            }
        }
    }

    // `can_satisfy` passed, and a full sweep visits every node, so the
    // fill always completes; guard anyway so an incomplete fill can never
    // masquerade as a (wrong) winner.
    (fill.out_total == 0).then_some(fill.distance)
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
