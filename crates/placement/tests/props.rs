//! Property tests at paper scale (30 nodes): solver dominance, exchange
//! soundness, migration invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::sync::Arc;
use vc_model::workload::{random_capacity, RequestProfile};
use vc_model::{ClusterState, Request, SparseMatrix, VmCatalog, VmTypeId};
use vc_placement::distance::{cluster_distance, distance_with_center};
use vc_placement::online::ScanConfig;
use vc_placement::{baselines, exact, global, migration, online, PlacementPolicy};
use vc_topology::{generate, DistanceTiers, NodeId, TopologyBuilder};

fn paper_state(seed: u64) -> ClusterState {
    let topo = Arc::new(generate::paper_simulation());
    let catalog = Arc::new(VmCatalog::ec2_table1());
    let mut rng = StdRng::seed_from_u64(seed);
    let capacity = random_capacity(&topo, &catalog, 3, &mut rng);
    ClusterState::new(topo, catalog, capacity)
}

fn request() -> impl Strategy<Value = Request> {
    proptest::collection::vec(0u32..7, 3).prop_map(Request::from_counts)
}

/// A cloud over an arbitrary (possibly lopsided) rack layout with random
/// per-cell capacities — exercises the seed scan's pruning bounds on
/// shapes the paper topology never produces.
fn random_state(rack_sizes: &[usize], cap_seed: u64) -> ClusterState {
    let topo = Arc::new(generate::heterogeneous(
        rack_sizes,
        DistanceTiers::paper_experiment(),
    ));
    let catalog = Arc::new(VmCatalog::ec2_table1());
    let mut rng = StdRng::seed_from_u64(cap_seed);
    let capacity = random_capacity(&topo, &catalog, 3, &mut rng);
    ClusterState::new(topo, catalog, capacity)
}

/// A cloud over a random multi-cloud tier topology: racks land in random
/// clouds and nodes in random racks in random order, so rack id ranges
/// interleave, some racks are empty or hold one node, and the tiers are
/// any triple — collapsed (`d1 = d2`, `d2 = d3`) or out of order. Part of
/// the capacity is then taken by earlier tenants.
fn tier_state(
    rack_clouds: &[usize],
    node_racks: &[usize],
    (d1, d2, d3): (u32, u32, u32),
    cap_seed: u64,
) -> ClusterState {
    let tiers = DistanceTiers {
        same_rack: d1,
        cross_rack: d2,
        cross_cloud: d3,
    };
    let mut b = TopologyBuilder::new(tiers);
    let clouds: Vec<_> = (0..3).map(|c| b.add_cloud(format!("c{c}"))).collect();
    let racks: Vec<_> = rack_clouds.iter().map(|&c| b.add_rack(clouds[c])).collect();
    for &r in node_racks {
        b.add_node(racks[r % racks.len()]);
    }
    let topo = Arc::new(b.build());
    let catalog = Arc::new(VmCatalog::ec2_table1());
    let mut rng = StdRng::seed_from_u64(cap_seed);
    let capacity = random_capacity(&topo, &catalog, 3, &mut rng);
    let mut state = ClusterState::new(topo, catalog, capacity);
    for _ in 0..cap_seed % 4 {
        let r = RequestProfile::standard().sample(3, &mut rng);
        if let Ok(a) = online::place(&r, &state) {
            state.allocate(&a).unwrap();
        }
    }
    state
}

/// Algorithm 1 as the paper states it, with no index, bound, rack order
/// or tier walk: for every seed in id order, fill from the seed, then its
/// rack peers by what they give toward the remainder (then id), then
/// every other node by (distance, what it gives, id); the smallest
/// (distance, seed) complete fill wins.
fn reference_place(req: &Request, state: &ClusterState) -> Option<(u64, NodeId, SparseMatrix)> {
    let (topo, rem) = (state.topology(), state.remaining());
    let give = |node: NodeId, out: &[u32]| -> u32 {
        rem.row(node).iter().zip(out).map(|(&a, &b)| a.min(b)).sum()
    };
    let mut best: Option<(u64, NodeId, SparseMatrix)> = None;
    for seed in topo.node_ids() {
        let mut out = req.counts().to_vec();
        let mut takes = Vec::new();
        let mut distance = 0u64;
        let mut take = |node: NodeId, out: &mut Vec<u32>| {
            for (j, o) in out.iter_mut().enumerate() {
                let t = rem.row(node)[j].min(*o);
                if t > 0 {
                    *o -= t;
                    takes.push((node, VmTypeId::from_index(j), t));
                    distance += u64::from(t) * u64::from(topo.distance(seed, node));
                }
            }
        };
        take(seed, &mut out);
        let mut peers: Vec<NodeId> = topo.rack_peers(seed);
        peers.sort_by_key(|&n| (Reverse(give(n, &out)), n));
        for n in peers {
            take(n, &mut out);
        }
        let mut far = topo.non_rack_peers(seed);
        far.sort_by_key(|&n| (topo.distance(seed, n), Reverse(give(n, &out)), n));
        for n in far {
            take(n, &mut out);
        }
        if out.iter().any(|&o| o > 0) {
            continue;
        }
        let matrix = SparseMatrix::from_entries(state.num_nodes(), 3, takes);
        if best.as_ref().is_none_or(|b| (distance, seed) < (b.0, b.1)) {
            best = Some((distance, seed, matrix));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tier-aware scan is Algorithm 1: on random multi-cloud tier
    /// topologies, the pruned scan — sequential and at two threads — and
    /// the unpruned baseline return the reference's allocation, centre
    /// and distance, and every scan accounts for each seed exactly once.
    #[test]
    fn tier_scan_matches_reference(
        rack_clouds in proptest::collection::vec(0usize..3, 1..7),
        node_racks in proptest::collection::vec(0usize..8, 1..20),
        tiers in (1u32..5, 1u32..5, 1u32..5),
        cap_seed in 0u64..1000,
        req in request(),
    ) {
        prop_assume!(!req.is_zero());
        let state = tier_state(&rack_clouds, &node_racks, tiers, cap_seed);
        prop_assume!(state.can_satisfy(&req));
        let (want_d, want_center, want_matrix) = reference_place(&req, &state).unwrap();
        for scan in [
            ScanConfig::sequential_baseline(),
            ScanConfig::pruned(),
            ScanConfig::pruned_parallel(2),
        ] {
            let (a, stats) = online::place_with(&req, &state, scan).unwrap();
            prop_assert_eq!(a.center(), want_center, "centre differs under {:?}", scan);
            prop_assert!(a.matrix() == &want_matrix, "matrix differs under {:?}", scan);
            prop_assert_eq!(
                distance_with_center(a.matrix(), state.topology(), a.center()),
                want_d,
            );
            prop_assert_eq!(stats.seeds_total, state.num_nodes() as u64);
            if !stats.fast_path {
                prop_assert_eq!(
                    stats.seeds_scanned + stats.seeds_pruned + stats.seeds_aborted,
                    stats.seeds_total,
                    "{:?}: {:?}", scan, stats
                );
            }
        }
    }

    /// At paper scale: heuristic ≥ exact, all baselines ≥ exact, and every
    /// produced allocation is feasible and complete.
    #[test]
    fn exact_lower_bounds_everything(seed in 0u64..500, req in request()) {
        prop_assume!(!req.is_zero());
        let state = paper_state(seed);
        prop_assume!(state.can_satisfy(&req));
        let opt = exact::solve(&req, &state).unwrap();
        let (d_opt, _) = cluster_distance(opt.matrix(), state.topology());
        let mut rng = StdRng::seed_from_u64(seed);
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(online::OnlineHeuristic),
            Box::new(baselines::FirstFit),
            Box::new(baselines::BestFit),
            Box::new(baselines::Spread),
            Box::new(baselines::RandomPlacement),
        ];
        for p in policies {
            let a = p.place(&req, &state, &mut rng).unwrap();
            prop_assert!(a.satisfies(&req), "{}", p.name());
            prop_assert!(a.matrix().le(state.remaining()), "{}", p.name());
            let (d, _) = cluster_distance(a.matrix(), state.topology());
            prop_assert!(d >= d_opt, "{} beat the optimum: {d} < {d_opt}", p.name());
        }
    }

    /// Serving a queue then repairing a random failure keeps the cloud's
    /// books balanced.
    #[test]
    fn failure_repair_conserves_accounting(seed in 0u64..200, failed_node in 0u32..30) {
        let mut state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 77);
        let req = RequestProfile::standard().sample(3, &mut rng);
        prop_assume!(state.can_satisfy(&req));
        let mut alloc = online::place(&req, &state).unwrap();
        state.allocate(&alloc).unwrap();

        let failed = vc_topology::NodeId(failed_node);
        let _aggregate_lost = state.fail_node(failed);
        match migration::repair(&mut alloc, failed, &mut state) {
            Ok(report) => {
                prop_assert!(alloc.satisfies(&req));
                prop_assert_eq!(alloc.matrix().node_total(failed), 0);
                prop_assert_eq!(
                    report.distance_after,
                    distance_with_center(alloc.matrix(), state.topology(), alloc.center())
                );
                // Releasing the repaired allocation empties the cloud.
                state.release(&alloc).unwrap();
                prop_assert!(state.used().is_zero());
            }
            Err(_) => {
                // No capacity: allocation is degraded but consistent, and
                // the surviving VMs can still be released.
                prop_assert_eq!(alloc.matrix().node_total(failed), 0);
                state.release(&alloc).unwrap();
                prop_assert!(state.used().is_zero());
            }
        }
    }

    /// The Theorem-2 pass is idempotent: running `place_queue` and then
    /// re-applying `suboptimize` to the result finds nothing further.
    #[test]
    fn exchange_pass_reaches_fixpoint(seed in 0u64..200) {
        let state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let queue = RequestProfile::small().sample_many(3, 6, &mut rng);
        let mut placed =
            global::place_queue(&queue, &state, global::Admission::FifoBlocking).unwrap();
        let topo = state.topology();
        let mut allocations: Vec<&mut vc_model::Allocation> =
            placed.served.iter_mut().map(|(_, a)| a).collect();
        let extra = global::suboptimize(&mut allocations, topo);
        prop_assert_eq!(extra, 0, "place_queue must already be at the exchange fixpoint");
    }

    /// Pruning and parallelism are pure accelerations: on arbitrary
    /// topologies, every [`ScanConfig`] returns the *bit-identical*
    /// allocation (matrix, centre, distance) — or the same error — as the
    /// exhaustive sequential scan.
    #[test]
    fn scan_configs_bit_identical(
        rack_sizes in proptest::collection::vec(1usize..6, 1..5),
        cap_seed in 0u64..500,
        req in request(),
    ) {
        prop_assume!(!req.is_zero());
        let state = random_state(&rack_sizes, cap_seed);
        let baseline = online::place_with(&req, &state, ScanConfig::sequential_baseline());
        for scan in [
            ScanConfig::pruned(),
            ScanConfig::pruned_parallel(2),
            ScanConfig::pruned_parallel(0),
            ScanConfig { prune: false, parallelism: online::Parallelism::Threads(3) },
        ] {
            let got = online::place_with(&req, &state, scan);
            match (&baseline, &got) {
                (Ok((a, _)), Ok((b, _))) => {
                    prop_assert_eq!(a.center(), b.center(), "centre differs under {:?}", scan);
                    prop_assert!(a.matrix() == b.matrix(), "matrix differs under {:?}", scan);
                    let topo = state.topology();
                    prop_assert_eq!(
                        distance_with_center(a.matrix(), topo, a.center()),
                        distance_with_center(b.matrix(), topo, b.center()),
                    );
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                _ => prop_assert!(false, "ok/err disagreement under {:?}", scan),
            }
        }
    }

    /// `place_queue` outcomes — who is served (and how), who is deferred,
    /// who is rejected — never depend on the scan configuration.
    #[test]
    fn queue_outcome_invariant_under_scan_config(seed in 0u64..200, batch in 2usize..8) {
        let state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        let queue = RequestProfile::standard().sample_many(3, batch, &mut rng);
        for admission in [global::Admission::FifoBlocking, global::Admission::FifoSkipping] {
            let base = global::place_queue_with(
                &queue, &state, admission, ScanConfig::sequential_baseline(),
            ).unwrap();
            for scan in [ScanConfig::pruned(), ScanConfig::pruned_parallel(2)] {
                let got = global::place_queue_with(&queue, &state, admission, scan).unwrap();
                prop_assert_eq!(&base.deferred, &got.deferred, "{:?}", scan);
                prop_assert_eq!(&base.rejected, &got.rejected, "{:?}", scan);
                prop_assert_eq!(base.served.len(), got.served.len(), "{:?}", scan);
                for ((bi, ba), (gi, ga)) in base.served.iter().zip(got.served.iter()) {
                    prop_assert_eq!(bi, gi);
                    prop_assert_eq!(ba.center(), ga.center());
                    prop_assert!(ba.matrix() == ga.matrix(), "served matrix differs under {:?}", scan);
                }
                prop_assert_eq!(base.online_distance, got.online_distance);
                prop_assert_eq!(base.optimized_distance, got.optimized_distance);
            }
        }
    }

    /// Rebalancing with a huge budget is idempotent and never hurts.
    #[test]
    fn rebalance_monotone_and_idempotent(seed in 0u64..200) {
        let mut state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 9);
        let blocker_req = RequestProfile::standard().sample(3, &mut rng);
        prop_assume!(state.can_satisfy(&blocker_req));
        let blocker = online::place(&blocker_req, &state).unwrap();
        state.allocate(&blocker).unwrap();
        let req = RequestProfile::standard().sample(3, &mut rng);
        prop_assume!(state.can_satisfy(&req));
        let mut alloc = online::place(&req, &state).unwrap();
        state.allocate(&alloc).unwrap();
        state.release(&blocker).unwrap();

        let first = migration::rebalance(&mut alloc, &mut state, 64);
        prop_assert!(first.distance_after <= first.distance_before);
        prop_assert!(alloc.satisfies(&req));
        let second = migration::rebalance(&mut alloc, &mut state, 64);
        prop_assert_eq!(second.moves.len(), 0, "second pass must be a no-op");
    }
}
