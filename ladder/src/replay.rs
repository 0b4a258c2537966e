//! The traced replay: cloudsim's Algorithm-2 loop driven through each
//! layer's public functions, with every call into a layer timed.
//!
//! It mirrors `vc_cloudsim::sim::run_recorded` under
//! `PolicyMode::GlobalBatch`: arrivals go on a `vc_des::Engine`, each
//! popped event runs placement over the whole queue, served requests are
//! committed to the `ClusterState` and get a hold time (a MapReduce job
//! or the trace's service time), and departures release their
//! allocation. The replay must reproduce `sim::run`'s outcomes exactly;
//! the traced child counts every outcome that differs.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;
use vc_cloudsim::sim::{PolicyMode, RequestOutcome, ServiceModel, SimConfig};
use vc_des::Engine;
use vc_mapreduce::VirtualCluster;
use vc_model::{Allocation, ClusterState, Request};
use vc_netsim::FlowNet;
use vc_placement::distance::distance_with_center;
use vc_placement::global;

/// Per-call host seconds of one kind of call.
#[derive(Debug, Default, Clone)]
pub struct Calls(pub Vec<f64>);

impl Calls {
    /// Run `f`, recording its wall time as one call.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0.push(t0.elapsed().as_secs_f64());
        out
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    pub fn total(&self) -> f64 {
        self.0.iter().fold(0.0, |a, b| a + b)
    }
}

/// Timed calls into each layer, accumulated over one or more replays.
#[derive(Debug, Default, Clone)]
pub struct LayerCalls {
    /// `Engine::schedule` and `Engine::pop`.
    pub des: Calls,
    /// `global::place_queue_with`.
    pub placement: Calls,
    /// Queue length handed to each placement call.
    pub batch_len: Vec<usize>,
    /// `ClusterState::allocate` and `ClusterState::release`.
    pub commit: Calls,
    /// `VirtualCluster::from_allocation`.
    pub cluster_build: Calls,
    /// `vc_mapreduce::simulate_job`.
    pub job: Calls,
    /// A duplicate `FlowNet::new` per job, timed on its own. The job
    /// builds its own network inside `simulate_job`; this copy measures
    /// what that costs and is not subtracted from `job`.
    pub flownet_new: Calls,
}

impl LayerCalls {
    /// Host seconds spent inside the layers that `cloudsim`'s own loop
    /// calls, i.e. everything but the duplicate `FlowNet::new`.
    pub fn layer_total(&self) -> f64 {
        self.des.total()
            + self.placement.total()
            + self.commit.total()
            + self.cluster_build.total()
            + self.job.total()
    }
}

enum Event {
    Arrival(usize),
    Departure(u64),
}

/// Replay `config` on a copy of `state`, timing every layer call into
/// `calls`, and return the per-request outcomes.
///
/// # Panics
/// Panics if `config` is not an Algorithm-2 (`GlobalBatch`) run — every
/// ladder workload is — or if a layer breaks an invariant `sim::run`
/// also asserts.
pub fn replay(
    state: &ClusterState,
    config: &SimConfig,
    calls: &mut LayerCalls,
) -> Vec<RequestOutcome> {
    let PolicyMode::GlobalBatch(admission, scan) = config.mode else {
        panic!("the replay mirrors the GlobalBatch loop only");
    };
    let requests = &config.requests;
    let mut engine = Engine::new();
    for (i, r) in requests.iter().enumerate() {
        calls
            .des
            .time(|| engine.schedule(r.arrival, Event::Arrival(i)));
    }
    let mut state = state.clone();
    let topo = state.topology_arc();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut live: BTreeMap<u64, Allocation> = BTreeMap::new();
    let mut outcomes: Vec<RequestOutcome> = requests
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
        .collect();

    while let Some((now, event)) = calls.des.time(|| engine.pop()) {
        match event {
            Event::Arrival(idx) => queue.push_back(idx),
            Event::Departure(id) => {
                let alloc = live.remove(&id).expect("departure for unknown allocation");
                calls
                    .commit
                    .time(|| state.release(&alloc))
                    .expect("release failed");
            }
        }
        queue.retain(|&idx| {
            let fits = state.fits_capacity(&requests[idx].request);
            outcomes[idx].refused |= !fits;
            fits
        });
        let batch: Vec<Request> = queue.iter().map(|&i| requests[i].request.clone()).collect();
        calls.batch_len.push(batch.len());
        let placed = calls
            .placement
            .time(|| global::place_queue_with(&batch, &state, admission, scan));
        // A placement error defers the whole batch, as in cloudsim.
        let Ok(placed) = placed else { continue };
        let mut settled: Vec<usize> = Vec::new();
        for ((pos, alloc), &online_d) in placed.served.iter().zip(&placed.served_online_distances) {
            let idx = queue[*pos];
            let req = &requests[idx];
            calls
                .commit
                .time(|| state.allocate(alloc))
                .expect("batch produced invalid allocation");
            let (hold, job_runtime) = match &config.service {
                ServiceModel::Trace => (req.service_time, None),
                ServiceModel::MapReduce { job, params } => {
                    let cluster = calls.cluster_build.time(|| {
                        VirtualCluster::from_allocation(
                            alloc,
                            state.catalog(),
                            state.topology_arc(),
                        )
                    });
                    calls
                        .flownet_new
                        .time(|| black_box(FlowNet::new(state.topology_arc(), params.net)));
                    let metrics = calls
                        .job
                        .time(|| vc_mapreduce::simulate_job(&cluster, job, params));
                    (metrics.runtime, Some(metrics.runtime))
                }
            };
            let o = &mut outcomes[idx];
            o.distance = Some(distance_with_center(alloc.matrix(), &topo, alloc.center()));
            o.initial_distance = Some(online_d);
            o.center = Some(alloc.center().0);
            o.span = Some(alloc.span() as u32);
            o.started = Some(now);
            o.finished = Some(now + hold);
            o.job_runtime = job_runtime;
            calls
                .des
                .time(|| engine.schedule(now + hold, Event::Departure(req.id)));
            live.insert(req.id, alloc.clone());
            settled.push(*pos);
        }
        for &pos in &placed.rejected {
            outcomes[queue[pos]].refused = true;
            settled.push(pos);
        }
        settled.sort_unstable_by(|a, b| b.cmp(a));
        for pos in settled {
            queue.remove(pos);
        }
    }
    outcomes
}

/// Number of requests whose replayed outcome differs from `expected`
/// (a length difference counts every missing or extra request).
pub fn mismatches(expected: &[RequestOutcome], replayed: &[RequestOutcome]) -> usize {
    let differing = expected
        .iter()
        .zip(replayed)
        .filter(|(a, b)| a != b)
        .count();
    differing + expected.len().abs_diff(replayed.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{setup, WORKLOADS};

    /// ~60-request versions of every workload: the replay reproduces
    /// every outcome of `sim::run`, field for field.
    #[test]
    fn replay_reproduces_sim_run_on_every_workload() {
        for w in WORKLOADS {
            let w = w.with_requests(60);
            for seed in [0, 7] {
                let (inputs, _) = setup(&w, seed);
                let mut calls = LayerCalls::default();
                let replayed = replay(&inputs.state, &inputs.config, &mut calls);
                let expected = vc_cloudsim::sim::run(&inputs.state, inputs.config).outcomes;
                assert_eq!(
                    mismatches(&expected, &replayed),
                    0,
                    "{} seed {seed}",
                    w.name
                );
                assert_eq!(replayed, expected, "{} seed {seed}", w.name);
                assert!(
                    calls.placement.count() >= 60,
                    "{}: one placement per event",
                    w.name
                );
                assert_eq!(
                    calls.job.count(),
                    if w.job.is_some() {
                        expected.iter().filter(|o| o.started.is_some()).count()
                    } else {
                        0
                    },
                    "{}: one job per served request",
                    w.name
                );
            }
        }
    }

    #[test]
    fn mismatches_counts_differences_and_length() {
        let w = WORKLOADS[2].with_requests(20);
        let (inputs, _) = setup(&w, 3);
        let a = vc_cloudsim::sim::run(&inputs.state, inputs.config).outcomes;
        let mut b = a.clone();
        assert_eq!(mismatches(&a, &b), 0);
        b[4].refused = !b[4].refused;
        assert_eq!(mismatches(&a, &b), 1);
        b.truncate(10);
        assert_eq!(mismatches(&a, &b), 11);
    }
}
