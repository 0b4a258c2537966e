//! The four workloads and the set-up that turns a seed into simulator
//! inputs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use vc_cloudsim::sim::{PolicyMode, ServiceModel, SimConfig};
use vc_cloudsim::{ArrivalProcess, ServiceTime};
use vc_mapreduce::engine::SimParams;
use vc_mapreduce::JobConfig;
use vc_model::workload::RequestProfile;
use vc_model::{ClusterState, VmCatalog};
use vc_placement::global::Admission;
use vc_placement::online::{Parallelism, ScanConfig};
use vc_topology::{generate, DistanceTiers};

/// The MapReduce job every tenant of a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub app: fn() -> vc_mapreduce::Workload,
    pub maps: u32,
    pub reducers: u32,
}

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub racks: usize,
    pub nodes_per_rack: usize,
    pub requests: usize,
    /// `None`: hold times are the trace's service times.
    pub job: Option<Job>,
}

/// Every workload, in the order the full ladder runs them. Why each
/// exists is in the README; in short: `steady` is the paper's cloud at
/// its intended load, `wide` grows the physical cloud 64×, `backlog`
/// grows the queue and bypasses MapReduce, `shuffle` is all network.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        racks: 3,
        nodes_per_rack: 10,
        requests: 1000,
        job: Some(Job {
            app: vc_mapreduce::Workload::wordcount,
            maps: 8,
            reducers: 2,
        }),
    },
    Workload {
        name: "wide",
        racks: 48,
        nodes_per_rack: 40,
        requests: 500,
        job: Some(Job {
            app: vc_mapreduce::Workload::wordcount,
            maps: 8,
            reducers: 2,
        }),
    },
    Workload {
        name: "backlog",
        racks: 3,
        nodes_per_rack: 10,
        requests: 2000,
        job: None,
    },
    Workload {
        name: "shuffle",
        racks: 3,
        nodes_per_rack: 10,
        requests: 200,
        job: Some(Job {
            app: vc_mapreduce::Workload::terasort,
            maps: 32,
            reducers: 8,
        }),
    },
];

/// Arrivals per simulated second (open loop in simulated time).
const ARRIVAL_RATE: f64 = 2.0;
/// VM slots per node and type.
const CAPACITY: u32 = 2;

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with `requests` requests.
    pub fn with_requests(self, requests: usize) -> Self {
        Self { requests, ..self }
    }

    fn service(&self) -> ServiceModel {
        match self.job {
            None => ServiceModel::Trace,
            Some(job) => ServiceModel::MapReduce {
                job: JobConfig {
                    workload: (job.app)(),
                    input_mb: f64::from(job.maps) * 64.0,
                    split_mb: 64.0,
                    num_reducers: job.reducers,
                    replication: 3,
                },
                params: SimParams::default(),
            },
        }
    }
}

/// Simulator inputs for one run.
pub struct Inputs {
    pub state: ClusterState,
    pub config: SimConfig,
}

/// Host seconds spent building each part of the inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub topology: f64,
    pub cluster_state: f64,
    /// Trace generation plus the `SimConfig` around it.
    pub trace: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.topology + self.cluster_state + self.trace
    }
}

/// Build the inputs of `w` from `seed`: the same seed gives the same
/// inputs. Policy is Algorithm 2 (`simulate`'s default): FIFO-blocking
/// admission, pruned sequential seed scan.
pub fn setup(w: &Workload, seed: u64) -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let topo = Arc::new(generate::uniform(
        w.racks,
        w.nodes_per_rack,
        DistanceTiers::paper_experiment(),
    ));
    let t1 = Instant::now();
    let state = ClusterState::uniform_capacity(topo, Arc::new(VmCatalog::ec2_table1()), CAPACITY);
    let t2 = Instant::now();
    let process = ArrivalProcess {
        rate_per_s: ARRIVAL_RATE,
        profile: RequestProfile::standard(),
        service: ServiceTime::UniformMs(10_000, 60_000),
    };
    let trace = process.generate(
        w.requests,
        state.num_types(),
        &mut StdRng::seed_from_u64(seed),
    );
    let scan = ScanConfig {
        prune: true,
        parallelism: Parallelism::from_thread_count(1),
    };
    let config = SimConfig::new(
        trace,
        PolicyMode::GlobalBatch(Admission::FifoBlocking, scan),
        seed,
    )
    .with_service(w.service());
    let t3 = Instant::now();
    let times = SetupTimes {
        topology: (t1 - t0).as_secs_f64(),
        cluster_state: (t2 - t1).as_secs_f64(),
        trace: (t3 - t2).as_secs_f64(),
    };
    (Inputs { state, config }, times)
}
