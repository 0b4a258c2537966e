//! Algorithm-2 serving does work in proportion to what it admits, and
//! changes nothing by it.
//!
//! `sim::run_recorded` refuses over-capacity requests on arrival, skips
//! placement while admission can settle nothing, and hands placement only
//! the queue prefix admission examined. The reference loop below does
//! none of that: at every event it refuses over-capacity requests from
//! the whole queue and re-offers the whole queue to placement. The two
//! must agree on outcomes, spans, events and counters; only the three
//! counters that measure placement's own effort may differ, and only
//! downwards.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use vc_cloudsim::sim::{run, run_recorded, PolicyMode, RequestOutcome, SimConfig};
use vc_cloudsim::{ArrivalProcess, CloudRequest, ServiceTime};
use vc_des::{Engine, EventKind, SimTime};
use vc_model::workload::RequestProfile;
use vc_model::{Allocation, ClusterState, Request, ResourceMatrix, VmCatalog};
use vc_obs::prof::{self, PhaseTimer};
use vc_obs::{AttrValue, MemRecorder, MetricsSnapshot, Recorder, SpanId, TrackId};
use vc_placement::distance::distance_with_center;
use vc_placement::global::{self, Admission};
use vc_placement::online::ScanConfig;
use vc_topology::{generate, DistanceTiers};

/// Counters that count placement calls or the requests each call left
/// queued: the only ones allowed to differ from the reference.
const EFFORT_COUNTERS: [&str; 3] = [
    "placement.requests_deferred",
    "placement.exchange_passes",
    "prof.phase.exchange.calls",
];

/// The track stride cloudsim gives each request's timeline.
const TRACK_STRIDE: u64 = 1024;

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

/// What the reference loop decided, plus when each refusal happened.
struct Reference {
    outcomes: Vec<RequestOutcome>,
    refused_at: Vec<Option<SimTime>>,
}

/// Refuse request `idx` at `now`, recording it as cloudsim does.
fn refuse(rec: &MemRecorder, reference: &mut Reference, idx: usize, now: SimTime) {
    reference.outcomes[idx].refused = true;
    reference.refused_at[idx] = Some(now);
    rec.counter_add("cloudsim.refused", 1);
    rec.event(
        "cloudsim.request_refused",
        now.as_micros(),
        Some(TrackId(0)),
        &[("id", AttrValue::from(idx as u64))],
    );
}

/// The whole-queue Algorithm-2 loop under trace service times, recording
/// what `sim::run_recorded` records outside its probes.
fn reference(
    state: &ClusterState,
    requests: &[CloudRequest],
    admission: Admission,
    rec: &MemRecorder,
) -> Reference {
    let _run = PhaseTimer::start(rec, prof::CLOUDSIM_RUN);
    let mut engine = Engine::new();
    for (i, r) in requests.iter().enumerate() {
        engine.schedule(r.arrival, Event::Arrival(i));
    }
    rec.track_name(TrackId(0), "cloud queue");
    let mut state = state.clone();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut live: BTreeMap<u64, (Allocation, SpanId)> = BTreeMap::new();
    let mut out = Reference {
        outcomes: requests
            .iter()
            .map(|r| RequestOutcome {
                id: r.id,
                distance: None,
                initial_distance: None,
                center: None,
                span: None,
                arrival: r.arrival,
                started: None,
                finished: None,
                refused: false,
                job_runtime: None,
            })
            .collect(),
        refused_at: vec![None; requests.len()],
    };
    loop {
        let popped = {
            let _t = PhaseTimer::start(rec, prof::DES_POP);
            engine.pop_traced(rec)
        };
        let Some((now, event)) = popped else { break };
        match event {
            Event::Arrival(idx) => queue.push_back(idx),
            Event::Departure(id) => {
                let (alloc, span) = live.remove(&id).expect("departure of a live request");
                {
                    let _t = PhaseTimer::start(rec, prof::INDEX_COMMIT);
                    state.release(&alloc).expect("release");
                }
                rec.span_end(span, now.as_micros());
            }
        }
        let _serve = PhaseTimer::start(rec, prof::SERVE);
        let mut kept = VecDeque::new();
        for idx in queue.drain(..) {
            if state.fits_capacity(&requests[idx].request) {
                kept.push_back(idx);
            } else {
                refuse(rec, &mut out, idx, now);
            }
        }
        queue = kept;
        let batch: Vec<Request> = queue.iter().map(|&i| requests[i].request.clone()).collect();
        let placed = global::place_queue_recorded(
            &batch,
            &state,
            admission,
            ScanConfig::default(),
            rec,
            now.as_micros(),
        )
        .expect("placement succeeds");
        let mut settled = Vec::new();
        for ((pos, alloc), online_d) in placed
            .served
            .into_iter()
            .zip(placed.served_online_distances)
        {
            let idx = queue[pos];
            let req = &requests[idx];
            {
                let _t = PhaseTimer::start(rec, prof::INDEX_COMMIT);
                state.allocate(&alloc).expect("valid allocation");
            }
            let d = distance_with_center(alloc.matrix(), state.topology(), alloc.center());
            rec.counter_add("cloudsim.served", 1);
            rec.histogram_record("cloudsim.wait_us", (now - req.arrival).as_micros());
            rec.histogram_record("cloudsim.hold_us", req.service_time.as_micros());
            let attrs = [
                ("id", AttrValue::from(req.id)),
                ("center", AttrValue::from(u64::from(alloc.center().0))),
                ("dc", AttrValue::from(d)),
                ("span_nodes", AttrValue::from(alloc.span())),
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
            let o = &mut out.outcomes[idx];
            o.distance = Some(d);
            o.initial_distance = Some(online_d);
            o.center = Some(alloc.center().0);
            o.span = Some(alloc.span() as u32);
            o.started = Some(now);
            o.finished = Some(now + req.service_time);
            engine.schedule(now + req.service_time, Event::Departure(req.id));
            live.insert(req.id, (alloc, span));
            settled.push(pos);
        }
        for pos in placed.rejected {
            refuse(rec, &mut out, queue[pos], now);
            settled.push(pos);
        }
        settled.sort_unstable_by(|a, b| b.cmp(a));
        for pos in settled {
            queue.remove(pos);
        }
    }
    out
}

/// A random cloud of 1–3 racks of 1–3 nodes, 0–2 slots per node and type.
fn cloud(rng: &mut StdRng) -> ClusterState {
    let racks: Vec<usize> = (0..rng.gen_range(1..=3))
        .map(|_| rng.gen_range(1..=3))
        .collect();
    let nodes: usize = racks.iter().sum();
    let rows: Vec<Vec<u32>> = (0..nodes)
        .map(|_| (0..3).map(|_| rng.gen_range(0..=2)).collect())
        .collect();
    let topo = Arc::new(generate::heterogeneous(
        &racks,
        DistanceTiers::paper_experiment(),
    ));
    ClusterState::new(
        topo,
        Arc::new(VmCatalog::ec2_table1()),
        ResourceMatrix::from_rows(&rows),
    )
}

/// `count` requests, some arriving together, about one in eight beyond
/// the cloud's total capacity.
fn requests(rng: &mut StdRng, state: &ClusterState, count: usize) -> Vec<CloudRequest> {
    let totals = state.capacity().column_sums();
    let mut t_ms = 0u64;
    (0..count)
        .map(|i| {
            t_ms += rng.gen_range(0..3) * 1000;
            let mut counts: Vec<u32> = (0..3).map(|_| rng.gen_range(0..=3)).collect();
            if counts.iter().all(|&c| c == 0) {
                counts[rng.gen_range(0..3)] = 1;
            }
            if rng.gen_range(0..8) == 0 {
                let ty = rng.gen_range(0..3);
                counts[ty] = totals.counts()[ty] + 1;
            }
            CloudRequest {
                id: i as u64,
                request: Request::from_counts(counts),
                arrival: SimTime::from_millis(t_ms),
                service_time: SimTime::from_millis(rng.gen_range(1_000..30_000)),
            }
        })
        .collect()
}

/// Counters as a total map: a counter never touched reads 0, as it does
/// in any report. Host wall time and the watchdog's own alerts are
/// dropped; the reference runs no probes.
fn counters(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| !k.ends_with(".wall_us") && !k.starts_with("alert."))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Cumulative settled count per window edge, checked against the times
/// the reference settled requests: a full edge sees every request settled
/// strictly before it, the final partial edge everything up to it.
fn check_window_deltas(
    series: &[(u64, f64)],
    settled_at: &[Option<SimTime>],
    window_us: u64,
) -> Result<(), TestCaseError> {
    let mut cumulative = 0f64;
    for (i, &(edge, delta)) in series.iter().enumerate() {
        cumulative += delta;
        let partial = i + 1 == series.len() && edge % window_us != 0;
        let expected = settled_at
            .iter()
            .flatten()
            .filter(|t| t.as_micros() < edge || (partial && t.as_micros() == edge))
            .count();
        prop_assert_eq!(cumulative as usize, expected, "edge {}", edge);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serve_matches_whole_queue_reference(
        seed in any::<u64>(),
        count in 1usize..40,
        skipping in any::<bool>(),
        window_s in 0u64..8,
        health in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = cloud(&mut rng);
        let trace = requests(&mut rng, &state, count);
        let admission = if skipping { Admission::FifoSkipping } else { Admission::FifoBlocking };
        let config = || {
            let mut c = SimConfig::new(
                trace.clone(),
                PolicyMode::GlobalBatch(admission, ScanConfig::default()),
                seed,
            );
            if window_s > 0 {
                c = c.with_timeseries(window_s * 1_000_000);
            }
            if health {
                c = c.with_health();
            }
            c
        };

        let rec = MemRecorder::new();
        let result = run_recorded(&state, config(), &rec);
        let ref_rec = MemRecorder::new();
        let expected = reference(&state, &trace, admission, &ref_rec);

        prop_assert_eq!(&result.outcomes, &expected.outcomes);
        prop_assert_eq!(&run(&state, config()).outcomes, &expected.outcomes);

        let (dump, ref_dump) = (rec.into_dump(), ref_rec.into_dump());
        prop_assert_eq!(&dump.spans, &ref_dump.spans);
        // The watchdog may flag a stagnating queue, but its exact
        // auditors (critical alerts) must stay silent.
        let (alerts, events): (Vec<_>, Vec<_>) =
            dump.events.iter().partition(|e| e.name.starts_with("alert."));
        for alert in alerts {
            prop_assert!(alert.attr("severity") != Some(&AttrValue::Str("critical")), "{:?}", alert);
        }
        prop_assert_eq!(events, ref_dump.events.iter().collect::<Vec<_>>());

        let (got, want) = (counters(&dump.metrics), counters(&ref_dump.metrics));
        let names: BTreeSet<&String> = got.keys().chain(want.keys()).collect();
        for name in names {
            let g = got.get(name).copied().unwrap_or(0);
            let w = want.get(name).copied().unwrap_or(0);
            if EFFORT_COUNTERS.contains(&name.as_str()) {
                prop_assert!(g <= w, "{} rose: {} > {}", name, g, w);
            } else {
                prop_assert_eq!(g, w, "counter {}", name);
            }
        }

        // The window clock's running served/refused counts match when
        // the reference settled each request.
        if window_s > 0 {
            let w = window_s * 1_000_000;
            let started: Vec<_> = expected.outcomes.iter().map(|o| o.started).collect();
            check_window_deltas(&dump.counter_series["ts.served.delta"], &started, w)?;
            check_window_deltas(&dump.counter_series["ts.refused.delta"], &expected.refused_at, w)?;
        }
    }
}

/// On the benchmark's `backlog` shape — a queue hundreds deep behind a
/// 3×10 cloud — serving costs at most one deferred request per placement
/// call, and events that can admit nothing make no call at all.
#[test]
fn blocked_queue_costs_one_deferral_per_placement_call() {
    let topo = Arc::new(generate::uniform(3, 10, DistanceTiers::paper_experiment()));
    let state = ClusterState::uniform_capacity(topo, Arc::new(VmCatalog::ec2_table1()), 2);
    let process = ArrivalProcess {
        rate_per_s: 2.0,
        profile: RequestProfile::standard(),
        service: ServiceTime::UniformMs(10_000, 60_000),
    };
    let trace = process.generate(2000, 3, &mut StdRng::seed_from_u64(0));
    let config = SimConfig::new(
        trace,
        PolicyMode::GlobalBatch(Admission::FifoBlocking, ScanConfig::default()),
        0,
    );
    let rec = MemRecorder::new();
    let result = run_recorded(&state, config, &rec);
    assert_eq!(result.served, 2000);
    let c = rec.metrics().counters;
    let calls = c["prof.phase.exchange.calls"];
    let events = c["cloudsim.event.arrival"] + c["cloudsim.event.departure"];
    assert!(
        c["placement.requests_deferred"] <= calls,
        "{} deferrals over {calls} placement calls",
        c["placement.requests_deferred"]
    );
    assert!(
        calls < events,
        "{calls} placement calls for {events} events"
    );
}
