//! **Algorithm 2** — global sub-optimisation over a request queue (paper
//! §IV-B).
//!
//! 1. **Admission** ([`get_requests`]): collect the queue prefix the
//!    current resources can serve (FIFO, as the paper suggests; a
//!    skipping variant is provided for ablation).
//! 2. **Serve** each admitted request with Algorithm 1 against the
//!    evolving resource state.
//! 3. **Exchange** ([`suboptimize`]): for every pair of allocations with
//!    different central nodes, apply Theorem-2 VM swaps — cluster `a`
//!    trades a VM it holds on `b`'s centre for one of `b`'s same-type VMs
//!    on a node nearer `a`'s centre — until no improving swap remains.
//!    Each swap is capacity-neutral (per-node, per-type totals are
//!    unchanged) and strictly reduces the summed distance.

use crate::distance::distance_with_center;
use crate::online::{self, ScanConfig, ScanStats};
use crate::policy::PlacementError;
use std::borrow::Borrow;
use vc_model::{Allocation, ClusterState, Request};
use vc_obs::{AttrValue, NoopRecorder, Recorder};
use vc_topology::Topology;

/// How [`get_requests`] walks the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Strict FIFO: stop at the first request that does not fit (the
    /// paper's default — later requests must not overtake).
    #[default]
    FifoBlocking,
    /// FIFO order, but requests that do not fit are skipped rather than
    /// blocking the queue (backfilling).
    FifoSkipping,
}

/// Which queue entries admission let through, and which it threw out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionDecision {
    /// Indices the current availability can serve, in FIFO order.
    pub admitted: Vec<usize>,
    /// Indices that can *never* be served — malformed type vectors or
    /// requests beyond total capacity. These used to stall a
    /// [`FifoBlocking`](Admission::FifoBlocking) queue forever; now they
    /// are rejected up front so traffic behind them keeps flowing.
    pub rejected: Vec<usize>,
    /// How many leading queue entries admission examined: up to and
    /// including the request a [`FifoBlocking`](Admission::FifoBlocking)
    /// walk stopped at, otherwise the whole queue. Entries past this
    /// prefix cannot be settled this round, so a caller may hand
    /// [`place_queue_recorded`] just the prefix.
    pub examined: usize,
}

/// The outcome of serving a queue.
#[derive(Debug, Clone)]
pub struct QueuePlacement {
    /// `(queue_index, allocation)` for each served request, in service
    /// order. Centres are as chosen by Algorithm 1; the Theorem-2 pass
    /// mutates matrices but never centres (per the paper).
    pub served: Vec<(usize, Allocation)>,
    /// Queue indices that could not be admitted this round.
    pub deferred: Vec<usize>,
    /// Queue indices rejected outright (malformed or over total
    /// capacity) — retrying them can never succeed.
    pub rejected: Vec<usize>,
    /// Per-served-allocation centre distance right after step 2 (aligned
    /// with [`served`](Self::served)).
    pub served_online_distances: Vec<u64>,
    /// Σ of per-allocation centre distances right after step 2.
    pub online_distance: u64,
    /// Σ of per-allocation centre distances after the Theorem-2 exchanges.
    pub optimized_distance: u64,
}

/// Step 1 of Algorithm 2: which queue entries can be served now?
///
/// Walks `queue` in order, tentatively reserving availability.
/// `FifoBlocking` stops at the first request that must *wait*;
/// `FifoSkipping` keeps scanning past it. Requests that can never be
/// served — wrong type-vector shape, or beyond total capacity `M` — are
/// rejected without blocking either mode: waiting cannot help them, and
/// letting one of them block a FIFO queue livelocks everything behind it.
///
/// The walk pulls from `queue` lazily, so a blocked FIFO queue costs one
/// comparison however long it is.
pub fn get_requests<'q>(
    queue: impl IntoIterator<Item = &'q Request>,
    state: &ClusterState,
    admission: Admission,
) -> AdmissionDecision {
    let mut available = state.availability();
    let mut decision = AdmissionDecision {
        admitted: Vec::new(),
        rejected: Vec::new(),
        examined: 0,
    };
    for (idx, request) in queue.into_iter().enumerate() {
        decision.examined = idx + 1;
        if !state.fits_capacity(request) {
            decision.rejected.push(idx);
        } else if request.le(&available) {
            available.checked_sub_assign(request);
            decision.admitted.push(idx);
        } else if admission == Admission::FifoBlocking {
            break;
        }
    }
    decision
}

/// Steps 1–3 of Algorithm 2: admit, serve with Algorithm 1, then apply the
/// Theorem-2 exchange pass.
///
/// `state` is cloned internally; committing the returned allocations is
/// the caller's responsibility (the cloud simulator does it after deciding
/// service times).
pub fn place_queue(
    queue: &[Request],
    state: &ClusterState,
    admission: Admission,
) -> Result<QueuePlacement, PlacementError> {
    place_queue_recorded(
        queue,
        state,
        admission,
        ScanConfig::default(),
        &NoopRecorder,
        0,
    )
}

/// [`place_queue`] with an explicit [`ScanConfig`] for the Algorithm-1
/// seed scans (pruning / `--placement-threads` parallelism).
pub fn place_queue_with(
    queue: &[Request],
    state: &ClusterState,
    admission: Admission,
    scan: ScanConfig,
) -> Result<QueuePlacement, PlacementError> {
    place_queue_recorded(queue, state, admission, scan, &NoopRecorder, 0)
}

/// [`place_queue`] with observability: per-request placement events (with
/// chosen centre and `DC(C)`), per-request scan audits and per-worker
/// chunk events (see [`ScanAudit`](online::ScanAudit)), the `placement.dc`
/// histogram, seed-scan counters including aborts, the Theorem-2
/// exchange-pass counters, and a per-batch `placement.exchange_audit`
/// event all land on `rec`, timestamped `t_us`. `queue` holds requests
/// or borrows of them.
pub fn place_queue_recorded<R: Borrow<Request>>(
    queue: &[R],
    state: &ClusterState,
    admission: Admission,
    scan: ScanConfig,
    rec: &dyn Recorder,
    t_us: u64,
) -> Result<QueuePlacement, PlacementError> {
    place_queue_impl(queue, state, admission, rec, t_us, &|request, working| {
        online::place_recorded(request, working, scan, rec, t_us)
            .map(|(allocation, audit)| (allocation, audit.stats))
    })
}

/// The Algorithm-1 entry point the queue drives: request × working state
/// → allocation + scan stats.
type SolveFn<'a> =
    dyn Fn(&Request, &ClusterState) -> Result<(Allocation, ScanStats), PlacementError> + 'a;

/// Solver-parameterised core so tests can inject a broken solver and
/// exercise the commit-failure path (Algorithm 1 itself never
/// over-commits).
fn place_queue_impl<R: Borrow<Request>>(
    queue: &[R],
    state: &ClusterState,
    admission: Admission,
    rec: &dyn Recorder,
    t_us: u64,
    solver: &SolveFn<'_>,
) -> Result<QueuePlacement, PlacementError> {
    let decision = get_requests(queue.iter().map(Borrow::borrow), state, admission);
    let mut rejected = decision.rejected;
    // Each request is solved against the state the earlier ones left.
    // The last one's allocation is only checked, never committed here, so
    // a batch of one — the usual case — solves against `state` itself and
    // clones nothing.
    let mut working: Option<ClusterState> = None;
    let mut served = Vec::with_capacity(decision.admitted.len());
    for (pos, &idx) in decision.admitted.iter().enumerate() {
        let last = pos + 1 == decision.admitted.len();
        match solver(queue[idx].borrow(), working.as_ref().unwrap_or(state)) {
            // Seed-scan counters (scanned / pruned / aborted) are emitted
            // by the solver itself — see `online::place_recorded`.
            Ok((allocation, _stats)) => {
                // A broken solver must not take the whole run down: record
                // the failure and defer the request (it stays queued).
                let committed = if last {
                    working
                        .as_ref()
                        .unwrap_or(state)
                        .check_allocate(&allocation)
                } else {
                    working
                        .get_or_insert_with(|| state.clone())
                        .allocate(&allocation)
                };
                match committed {
                    Ok(()) => served.push((idx, allocation)),
                    Err(err) => {
                        rec.counter_add("placement.commit_failed", 1);
                        rec.event(
                            "placement.commit_failed",
                            t_us,
                            None,
                            &[
                                ("queue_index", AttrValue::from(idx)),
                                ("error", AttrValue::from(err.to_string())),
                            ],
                        );
                    }
                }
            }
            // Admission reserved availability, so these only fire on a
            // state/solver disagreement; classify like admission would.
            Err(PlacementError::Refused { .. } | PlacementError::Malformed { .. }) => {
                rejected.push(idx);
            }
            Err(PlacementError::Unsatisfiable { .. }) => {}
        }
    }
    rejected.sort_unstable();

    let topo = state.topology();
    let served_online_distances: Vec<u64> = served
        .iter()
        .map(|(_, a)| distance_with_center(a.matrix(), topo, a.center()))
        .collect();
    let online_distance = served_online_distances.iter().sum();

    let mut allocations: Vec<&mut Allocation> = served.iter_mut().map(|(_, a)| a).collect();
    let exchange_timer = vc_obs::PhaseTimer::start(rec, vc_obs::prof::EXCHANGE);
    let exchanges = suboptimize_stats(&mut allocations, topo);
    drop(exchange_timer);
    rec.counter_add("placement.exchange_swaps", exchanges.swaps);
    rec.counter_add("placement.exchange_saved", exchanges.saved);
    rec.counter_add("placement.exchange_passes", exchanges.passes);

    let optimized_distances: Vec<u64> = served
        .iter()
        .map(|(_, a)| {
            let d = distance_with_center(a.matrix(), topo, a.center());
            rec.histogram_record("placement.dc", d);
            d
        })
        .collect();
    let optimized_distance = optimized_distances.iter().sum();
    if rec.enabled() && !served.is_empty() {
        rec.event(
            "placement.exchange_audit",
            t_us,
            None,
            &[
                ("batch_size", AttrValue::from(served.len() as u64)),
                ("passes", AttrValue::from(exchanges.passes)),
                ("swaps", AttrValue::from(exchanges.swaps)),
                ("saved", AttrValue::from(exchanges.saved)),
                ("online_distance", AttrValue::from(online_distance)),
                ("optimized_distance", AttrValue::from(optimized_distance)),
            ],
        );
    }
    if rec.enabled() {
        for ((idx, a), &d) in served.iter().zip(&optimized_distances) {
            rec.event(
                "placement.request_placed",
                t_us,
                None,
                &[
                    ("queue_index", AttrValue::from(*idx)),
                    ("center", AttrValue::from(u64::from(a.center().0))),
                    ("dc", AttrValue::from(d)),
                    ("span_nodes", AttrValue::from(a.span())),
                ],
            );
        }
    }
    rec.counter_add("placement.requests_served", served.len() as u64);

    // deferred = everything neither served nor rejected, via an O(n) mask
    // (the old `admitted.contains` scan was quadratic in queue length).
    let mut settled = vec![false; queue.len()];
    for (idx, _) in &served {
        settled[*idx] = true;
    }
    for &idx in &rejected {
        settled[idx] = true;
    }
    let deferred: Vec<usize> = (0..queue.len()).filter(|&i| !settled[i]).collect();
    rec.counter_add("placement.requests_deferred", deferred.len() as u64);
    rec.counter_add("placement.requests_rejected", rejected.len() as u64);
    Ok(QueuePlacement {
        served,
        deferred,
        rejected,
        served_online_distances,
        online_distance,
        optimized_distance,
    })
}

/// What one run of Algorithm 2's exchange step (step 3) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Total distance reduction.
    pub saved: u64,
    /// Individual Theorem-2 VM swaps applied.
    pub swaps: u64,
    /// Full passes over all pairs (including the final no-progress pass).
    pub passes: u64,
}

/// Step 3 of Algorithm 2: repeatedly apply `transfer` to every pair of
/// allocations with distinct centres until a full pass makes no progress.
/// Returns the total distance reduction.
pub fn suboptimize(allocations: &mut [&mut Allocation], topo: &Topology) -> u64 {
    suboptimize_stats(allocations, topo).saved
}

/// [`suboptimize`], also reporting how many swaps and passes it took.
fn suboptimize_stats(allocations: &mut [&mut Allocation], topo: &Topology) -> ExchangeStats {
    let mut stats = ExchangeStats::default();
    loop {
        let mut pass_saved = 0u64;
        stats.passes += 1;
        for i in 0..allocations.len() {
            for j in (i + 1)..allocations.len() {
                if allocations[i].center() != allocations[j].center() {
                    let (left, right) = allocations.split_at_mut(j);
                    let (saved, swaps) = transfer(left[i], right[0], topo);
                    pass_saved += saved;
                    stats.swaps += swaps;
                }
            }
        }
        stats.saved += pass_saved;
        if pass_saved == 0 {
            return stats;
        }
    }
}

/// The paper's `transfer` operation: apply every improving Theorem-2 swap
/// between clusters `a` and `b`, in both directions, until none remains.
/// Returns the distance reduction achieved and the swaps applied.
///
/// A swap moves one VM of type `r` of cluster `a` **off** `b`'s centre
/// `N_y` onto a node `N_k` currently hosting one of `b`'s type-`r` VMs,
/// while `b` moves that VM onto its own centre `N_y`. It improves the sum
/// exactly when `D[x][y] + D[y][k] > D[x][k]` (`N_x` = `a`'s centre), and
/// is capacity-neutral because the per-node, per-type totals of `a + b`
/// are unchanged.
fn transfer(a: &mut Allocation, b: &mut Allocation, topo: &Topology) -> (u64, u64) {
    let (mut saved, mut swaps) = (0u64, 0u64);
    loop {
        let (s1, n1) = transfer_one(a, b, topo);
        let (s2, n2) = transfer_one(b, a, topo);
        if s1 + s2 == 0 {
            return (saved, swaps);
        }
        saved += s1 + s2;
        swaps += n1 + n2;
    }
}

/// One directed sweep: move VMs of `mover` off `anchor`'s centre.
/// Returns `(distance saved, swaps applied)`.
fn transfer_one(mover: &mut Allocation, anchor: &mut Allocation, topo: &Topology) -> (u64, u64) {
    let x = mover.center();
    let y = anchor.center();
    if x == y {
        return (0, 0);
    }
    let m = mover.matrix().num_types();
    let d_xy = u64::from(topo.distance(x, y));
    let (mut saved, mut swaps) = (0u64, 0u64);
    for j in 0..m {
        let ty = vc_model::VmTypeId::from_index(j);
        // While the mover holds a type-j VM on the anchor's centre…
        while mover.matrix().get(y, ty) > 0 {
            // …find the anchor's type-j VM whose node gives the best
            // improvement for the mover: ties go to the lowest node id.
            let candidate = anchor
                .matrix()
                .entries()
                .filter(|&(k, t, _)| t == ty && k != y)
                .map(|(k, _, _)| {
                    let gain = (d_xy + u64::from(topo.distance(y, k)))
                        .saturating_sub(u64::from(topo.distance(x, k)));
                    (gain, k)
                })
                .filter(|&(gain, _)| gain > 0)
                .max_by_key(|&(gain, k)| (gain, std::cmp::Reverse(k)));
            let Some((gain, k)) = candidate else { break };
            mover.matrix_mut().sub(y, ty, 1);
            mover.matrix_mut().add(k, ty, 1);
            anchor.matrix_mut().sub(k, ty, 1);
            anchor.matrix_mut().add(y, ty, 1);
            saved += gain;
            swaps += 1;
        }
    }
    (saved, swaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vc_model::{ResourceMatrix, VmCatalog, VmTypeId};
    use vc_topology::{generate, DistanceTiers, NodeId};

    fn state(rows: &[Vec<u32>], racks: &[usize]) -> ClusterState {
        let topo = Arc::new(generate::heterogeneous(
            racks,
            DistanceTiers::paper_experiment(),
        ));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::new(topo, cat, ResourceMatrix::from_rows(rows))
    }

    #[test]
    fn fifo_blocking_stops_at_first_miss() {
        let s = state(&[vec![2, 0, 0], vec![2, 0, 0]], &[2]);
        let queue = vec![
            Request::from_counts(vec![3, 0, 0]),
            Request::from_counts(vec![4, 0, 0]), // fits M, but only 1 left now
            Request::from_counts(vec![1, 0, 0]), // would fit, but blocked
        ];
        let blocking = get_requests(&queue, &s, Admission::FifoBlocking);
        assert_eq!(blocking.admitted, vec![0]);
        assert!(blocking.rejected.is_empty());
        let skipping = get_requests(&queue, &s, Admission::FifoSkipping);
        assert_eq!(skipping.admitted, vec![0, 2]);
        assert!(skipping.rejected.is_empty());
    }

    #[test]
    fn admission_respects_running_availability() {
        let s = state(&[vec![2, 0, 0], vec![2, 0, 0]], &[2]);
        let queue = vec![
            Request::from_counts(vec![3, 0, 0]),
            Request::from_counts(vec![2, 0, 0]), // only 1 left
        ];
        assert_eq!(
            get_requests(&queue, &s, Admission::FifoSkipping).admitted,
            vec![0]
        );
    }

    #[test]
    fn malformed_request_mid_queue_no_longer_stalls_fifo() {
        // Regression: a request with the wrong number of VM types used to
        // block a FifoBlocking queue forever — it could never be admitted
        // (shape mismatch) and never got refused, so everything behind it
        // starved. It must be rejected up front with later traffic served.
        let s = state(&[vec![2, 0, 0], vec![2, 0, 0]], &[2]);
        let queue = vec![
            Request::from_counts(vec![1, 0, 0]),
            Request::from_counts(vec![1, 1]), // malformed: 2 types, catalogue has 3
            Request::from_counts(vec![1, 0, 0]),
        ];
        let decision = get_requests(&queue, &s, Admission::FifoBlocking);
        assert_eq!(decision.admitted, vec![0, 2]);
        assert_eq!(decision.rejected, vec![1]);

        let out = place_queue(&queue, &s, Admission::FifoBlocking).unwrap();
        assert_eq!(
            out.served.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(out.rejected, vec![1]);
        assert!(out.deferred.is_empty());
    }

    #[test]
    fn over_capacity_request_mid_queue_rejected_not_blocking() {
        let s = state(&[vec![2, 0, 0], vec![2, 0, 0]], &[2]);
        let queue = vec![
            Request::from_counts(vec![1, 0, 0]),
            Request::from_counts(vec![9, 0, 0]), // beyond total capacity M
            Request::from_counts(vec![1, 0, 0]),
        ];
        let decision = get_requests(&queue, &s, Admission::FifoBlocking);
        assert_eq!(decision.admitted, vec![0, 2]);
        assert_eq!(decision.rejected, vec![1]);
    }

    #[test]
    fn commit_failure_defers_instead_of_panicking() {
        use vc_obs::MemRecorder;
        // Inject a solver that over-commits node 0 — place_queue must
        // survive, record the failure, and leave the request deferred.
        let s = state(&[vec![2, 0, 0], vec![2, 0, 0]], &[2]);
        let queue = vec![
            Request::from_counts(vec![1, 0, 0]),
            Request::from_counts(vec![2, 0, 0]),
        ];
        let rec = MemRecorder::new();
        let broken: &super::SolveFn<'_> = &|req, working| {
            if req == &queue[1] {
                // Claims 9 slots on node 0 — more than it has.
                let mut m = ResourceMatrix::zeros(working.num_nodes(), working.num_types());
                m.set(NodeId(0), VmTypeId(0), 9);
                Ok((Allocation::new(m, NodeId(0)), online::ScanStats::default()))
            } else {
                online::place_with(req, working, online::ScanConfig::default())
            }
        };
        let out = place_queue_impl(&queue, &s, Admission::FifoBlocking, &rec, 7, broken).unwrap();
        assert_eq!(
            out.served.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(out.deferred, vec![1]);
        assert!(out.rejected.is_empty());
        let snap = rec.metrics();
        assert_eq!(snap.counters["placement.commit_failed"], 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.name == "placement.commit_failed" && e.t_us == 7));
    }

    #[test]
    fn queue_scan_configs_agree() {
        let s = state(
            &[vec![2, 2, 2], vec![2, 2, 2], vec![2, 2, 2], vec![2, 2, 2]],
            &[2, 2],
        );
        let queue = vec![
            Request::from_counts(vec![3, 1, 0]),
            Request::from_counts(vec![1, 2, 1]),
            Request::from_counts(vec![4, 4, 4]),
        ];
        let base = place_queue_with(
            &queue,
            &s,
            Admission::FifoSkipping,
            online::ScanConfig::sequential_baseline(),
        )
        .unwrap();
        for scan in [
            online::ScanConfig::pruned(),
            online::ScanConfig::pruned_parallel(2),
        ] {
            let out = place_queue_with(&queue, &s, Admission::FifoSkipping, scan).unwrap();
            assert_eq!(out.deferred, base.deferred);
            assert_eq!(out.rejected, base.rejected);
            assert_eq!(out.served.len(), base.served.len());
            for ((i1, a1), (i2, a2)) in out.served.iter().zip(base.served.iter()) {
                assert_eq!(i1, i2);
                assert_eq!(a1.matrix(), a2.matrix());
                assert_eq!(a1.center(), a2.center());
            }
        }
    }

    #[test]
    fn place_queue_serves_and_accounts() {
        let s = state(
            &[vec![2, 2, 2], vec![2, 2, 2], vec![2, 2, 2], vec![2, 2, 2]],
            &[2, 2],
        );
        let queue = vec![
            Request::from_counts(vec![2, 1, 0]),
            Request::from_counts(vec![1, 1, 1]),
        ];
        let out = place_queue(&queue, &s, Admission::FifoBlocking).unwrap();
        assert_eq!(out.served.len(), 2);
        assert!(out.deferred.is_empty());
        assert!(out.optimized_distance <= out.online_distance);
        for (idx, alloc) in &out.served {
            assert!(alloc.satisfies(&queue[*idx]));
        }
        // Combined allocations respect capacity.
        let mut check = s.clone();
        for (_, alloc) in &out.served {
            check.allocate(alloc).unwrap();
        }
    }

    #[test]
    fn transfer_improves_crafted_pair() {
        // Topology: rack0 = {0,1}, rack1 = {2,3}. Cluster A centred at 0
        // holds a VM on node 2 (cross-rack, d=2); cluster B centred at 2
        // holds a VM on node 1 (cross-rack from 2).
        let topo = generate::heterogeneous(&[2, 2], DistanceTiers::paper_experiment());
        let mut a = Allocation::new(
            ResourceMatrix::from_rows(&[vec![1], vec![0], vec![1], vec![0]]),
            NodeId(0),
        );
        let mut b = Allocation::new(
            ResourceMatrix::from_rows(&[vec![0], vec![1], vec![1], vec![0]]),
            NodeId(2),
        );
        let before = distance_with_center(a.matrix(), &topo, a.center())
            + distance_with_center(b.matrix(), &topo, b.center());
        let saved = transfer(&mut a, &mut b, &topo).0;
        let after = distance_with_center(a.matrix(), &topo, a.center())
            + distance_with_center(b.matrix(), &topo, b.center());
        assert_eq!(before - after, saved);
        assert!(saved > 0, "crafted swap should improve");
        // A's stray VM moved onto node 1 (same rack as its centre); B's onto
        // its own centre.
        assert_eq!(a.matrix().get(NodeId(1), VmTypeId(0)), 1);
        assert_eq!(a.matrix().get(NodeId(2), VmTypeId(0)), 0);
        assert_eq!(b.matrix().get(NodeId(2), VmTypeId(0)), 2);
    }

    #[test]
    fn transfer_is_capacity_neutral() {
        let topo = generate::heterogeneous(&[2, 2], DistanceTiers::paper_experiment());
        let mut a = Allocation::new(
            ResourceMatrix::from_rows(&[vec![1], vec![0], vec![1], vec![0]]),
            NodeId(0),
        );
        let mut b = Allocation::new(
            ResourceMatrix::from_rows(&[vec![0], vec![1], vec![1], vec![0]]),
            NodeId(2),
        );
        let mut combined_before = a.matrix().to_dense();
        combined_before.checked_add_assign(&b.matrix().to_dense());
        let _ = transfer(&mut a, &mut b, &topo);
        let mut combined_after = a.matrix().to_dense();
        combined_after.checked_add_assign(&b.matrix().to_dense());
        assert_eq!(combined_before, combined_after);
    }

    #[test]
    fn transfer_preserves_request_sizes() {
        let topo = generate::heterogeneous(&[2, 2], DistanceTiers::paper_experiment());
        let mut a = Allocation::new(
            ResourceMatrix::from_rows(&[vec![2], vec![0], vec![1], vec![0]]),
            NodeId(0),
        );
        let mut b = Allocation::new(
            ResourceMatrix::from_rows(&[vec![0], vec![1], vec![2], vec![0]]),
            NodeId(2),
        );
        let (ta, tb) = (a.total_vms(), b.total_vms());
        let _ = transfer(&mut a, &mut b, &topo);
        assert_eq!(a.total_vms(), ta);
        assert_eq!(b.total_vms(), tb);
    }

    #[test]
    fn same_center_pairs_untouched() {
        let topo = generate::heterogeneous(&[2, 2], DistanceTiers::paper_experiment());
        let mut a = Allocation::new(
            ResourceMatrix::from_rows(&[vec![1], vec![0], vec![1], vec![0]]),
            NodeId(0),
        );
        let mut b = a.clone();
        let before = (a.clone(), b.clone());
        assert_eq!(transfer(&mut a, &mut b, &topo).0, 0);
        assert_eq!((a, b), before);
    }

    #[test]
    fn recorded_queue_placement_reports_exchanges() {
        use vc_obs::MemRecorder;
        let s = state(
            &[vec![2, 2, 2], vec![2, 2, 2], vec![2, 2, 2], vec![2, 2, 2]],
            &[2, 2],
        );
        let queue = vec![
            Request::from_counts(vec![2, 1, 0]),
            Request::from_counts(vec![1, 1, 1]),
        ];
        let rec = MemRecorder::new();
        let out = place_queue_recorded(
            &queue,
            &s,
            Admission::FifoBlocking,
            ScanConfig::default(),
            &rec,
            42,
        )
        .unwrap();
        let plain = place_queue(&queue, &s, Admission::FifoBlocking).unwrap();
        assert_eq!(out.optimized_distance, plain.optimized_distance);

        let snap = rec.metrics();
        assert_eq!(snap.counters["placement.requests_served"], 2);
        assert_eq!(snap.counters["placement.requests_deferred"], 0);
        assert!(snap.counters["placement.exchange_passes"] >= 1);
        assert_eq!(snap.histograms["placement.dc"].count, 2);
        let events = rec.events();
        let placed: Vec<_> = events
            .iter()
            .filter(|e| e.name == "placement.request_placed")
            .collect();
        assert_eq!(placed.len(), 2);
        assert!(placed.iter().all(|e| e.t_us == 42));
        assert!(placed
            .iter()
            .all(|e| e.attrs.iter().any(|(k, _)| *k == "center")
                && e.attrs.iter().any(|(k, _)| *k == "dc")));
    }

    /// A parallel-scan queue run records into a plain `MemRecorder`: the
    /// workers hand their scan stats back and the calling thread records
    /// one `placement.scan_chunk` event per worker, in worker order. The
    /// run matches a sequential one on metrics and on every other event.
    /// Pruning is disabled so the scanned/pruned/aborted split is
    /// deterministic regardless of cross-thread timing; chunk events and
    /// the `workers` attribute of scan audits are the only intentional
    /// differences, so they are excluded from the comparison.
    #[test]
    fn parallel_queue_matches_sequential_mem() {
        use vc_obs::MemRecorder;
        // Capacity-1 nodes: a request for two VMs of one type spans
        // nodes, so the seed scan runs; `[1, 1, 1]` fits one node and
        // takes the distance-0 fast path.
        let s = state(&vec![vec![1, 1, 1]; 6], &[3, 3]);
        let queue = vec![
            Request::from_counts(vec![2, 1, 0]),
            Request::from_counts(vec![1, 1, 1]),
            Request::from_counts(vec![0, 2, 1]),
        ];
        let run = |parallelism| {
            let rec = MemRecorder::new();
            let config = ScanConfig {
                prune: false,
                parallelism,
            };
            let out =
                place_queue_recorded(&queue, &s, Admission::FifoBlocking, config, &rec, 7).unwrap();
            (out, rec)
        };
        let (seq, seq_rec) = run(crate::online::Parallelism::Sequential);
        let (par, par_rec) = run(crate::online::Parallelism::Threads(3));

        assert_eq!(seq.optimized_distance, par.optimized_distance);
        // Phase wall-clock counters are host time, not simulation state —
        // the only intentionally non-deterministic metrics. Everything
        // else must match exactly.
        let strip_wall = |mut m: vc_obs::MetricsSnapshot| {
            m.counters
                .retain(|k, _| !(k.starts_with("prof.phase.") && k.ends_with(".wall_us")));
            m
        };
        let par_metrics = par_rec.metrics();
        // No fallback counter: nothing degrades when the scan is parallel.
        assert!(!par_metrics.counters.keys().any(|k| k.contains("unsync")));
        assert_eq!(strip_wall(seq_rec.metrics()), strip_wall(par_metrics));

        let canonical = |events: &[vc_obs::EventRecord]| -> Vec<String> {
            let mut keys: Vec<String> = events
                .iter()
                .filter(|e| e.name != "placement.scan_chunk")
                .map(|e| {
                    let attrs: Vec<_> = e.attrs.iter().filter(|(k, _)| *k != "workers").collect();
                    format!("{} @{} {:?}", e.name, e.t_us, attrs)
                })
                .collect();
            keys.sort();
            keys
        };
        let par_events = par_rec.events();
        assert_eq!(canonical(&seq_rec.events()), canonical(&par_events));

        // Each scan records its chunks in worker order, just before its
        // audit event; a single-node fast path scans nothing.
        let mut workers: Vec<u64> = Vec::new();
        let mut scans = 0;
        for e in &par_events {
            let attr = |key| e.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            match e.name {
                "placement.scan_chunk" => workers.push(attr("worker").unwrap().as_u64().unwrap()),
                "placement.scan_audit" if attr("fast_path") == Some(&AttrValue::Bool(true)) => {
                    assert!(workers.is_empty());
                }
                "placement.scan_audit" => {
                    assert_eq!(workers, vec![0, 1, 2]);
                    workers.clear();
                    scans += 1;
                }
                _ => {}
            }
        }
        assert!(scans > 0);
        assert!(workers.is_empty());
    }

    #[test]
    fn exchange_stats_consistent_with_distance_drop() {
        let topo = generate::heterogeneous(&[2, 2], DistanceTiers::paper_experiment());
        let mut a = Allocation::new(
            ResourceMatrix::from_rows(&[vec![1], vec![0], vec![1], vec![0]]),
            NodeId(0),
        );
        let mut b = Allocation::new(
            ResourceMatrix::from_rows(&[vec![0], vec![1], vec![1], vec![0]]),
            NodeId(2),
        );
        let before = distance_with_center(a.matrix(), &topo, a.center())
            + distance_with_center(b.matrix(), &topo, b.center());
        let mut allocs: Vec<&mut Allocation> = vec![&mut a, &mut b];
        let stats = suboptimize_stats(&mut allocs, &topo);
        let after = distance_with_center(a.matrix(), &topo, a.center())
            + distance_with_center(b.matrix(), &topo, b.center());
        assert_eq!(stats.saved, before - after);
        assert!(stats.swaps >= 1);
        assert!(stats.passes >= 2, "must include the final no-progress pass");
    }

    #[test]
    fn suboptimize_never_increases_total() {
        let s = state(
            &[
                vec![1, 1, 1],
                vec![1, 1, 1],
                vec![1, 1, 1],
                vec![1, 1, 1],
                vec![1, 1, 1],
                vec![1, 1, 1],
            ],
            &[3, 3],
        );
        let queue = vec![
            Request::from_counts(vec![2, 1, 0]),
            Request::from_counts(vec![1, 2, 0]),
            Request::from_counts(vec![0, 0, 2]),
        ];
        let out = place_queue(&queue, &s, Admission::FifoBlocking).unwrap();
        assert!(out.optimized_distance <= out.online_distance);
    }
}
