//! Streaming-vs-memory recorder parity over random simulate runs.
//!
//! The [`StreamingRecorder`] writes every recorder op to a JSONL sink as
//! it happens; replaying that stream must reproduce the [`MemRecorder`]
//! dump of the *same* run exactly — same outcomes, spans, events,
//! series and metrics (modulo the self-profiling wall-clock metrics,
//! which measure the host, not the simulation).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vc_cloudsim::sim::{run_recorded, PolicyMode, SimConfig};
use vc_cloudsim::{ArrivalProcess, CloudRequest, ServiceTime};
use vc_mapreduce::engine::SimParams;
use vc_mapreduce::{JobConfig, Workload};
use vc_model::workload::RequestProfile;
use vc_model::{ClusterState, VmCatalog};
use vc_obs::{replay_jsonl, MemRecorder, MetricsSnapshot, StreamingRecorder};
use vc_placement::online::OnlineHeuristic;
use vc_topology::{generate, DistanceTiers};

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

fn cfg(count: usize, seed: u64, window_us: u64, mapreduce: bool, health: bool) -> SimConfig {
    let mut c = SimConfig::new(
        trace(count, seed),
        PolicyMode::Individual(Box::new(OnlineHeuristic)),
        seed,
    )
    .with_timeseries(window_us);
    if health {
        c = c.with_health();
    }
    if mapreduce {
        c = c.with_service(vc_cloudsim::sim::ServiceModel::MapReduce {
            job: JobConfig {
                workload: Workload::wordcount(),
                input_mb: 4.0 * 64.0,
                split_mb: 64.0,
                num_reducers: 1,
                replication: 2,
            },
            params: SimParams::default(),
        });
    }
    c
}

/// Drop the host-wall-clock self-profiling metrics: they time the
/// simulator process, so two runs of the same simulation legitimately
/// differ there. Everything else must match bit-for-bit.
fn strip_host_metrics(mut snap: MetricsSnapshot) -> MetricsSnapshot {
    snap.counters.retain(|k, _| !k.ends_with(".wall_us"));
    snap.gauges.retain(|k, _| k != "prof.rss_peak_kb");
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For a random queue simulation, the replayed stream is the
    /// in-memory recording, and neither recorder perturbs the simulation
    /// itself.
    #[test]
    fn stream_replay_matches_mem_over_random_runs(
        count in 3usize..12,
        seed in any::<u64>(),
        window_s in 2u64..9,
        mapreduce in any::<bool>(),
        health in any::<bool>(),
    ) {
        let window_us = window_s * 1_000_000;
        let s = state();

        let mem = MemRecorder::new();
        let mem_result = run_recorded(&s, cfg(count, seed, window_us, mapreduce, health), &mem);

        let stream = StreamingRecorder::new(Vec::new());
        let stream_result = run_recorded(&s, cfg(count, seed, window_us, mapreduce, health), &stream);
        let bytes = stream.finish().expect("Vec sink cannot fail");
        let mut merged = replay_jsonl(&String::from_utf8(bytes).expect("UTF-8 stream"))
            .expect("own stream replays");

        prop_assert_eq!(mem_result.outcomes, stream_result.outcomes);
        // The replayed stream is the in-memory recording, whole: same
        // spans and events in emission order, same series (per-job link
        // series interleave across overlapping jobs, out of sim-time
        // order, in both), same metrics.
        let mut mem = mem.into_dump();
        mem.metrics = strip_host_metrics(mem.metrics);
        merged.metrics = strip_host_metrics(merged.metrics);
        prop_assert_eq!(merged.open_spans, 0);
        prop_assert_eq!(merged, mem);
    }

    /// Health auditing is provably read-only: with the watchdog enabled,
    /// a random run produces identical outcomes, and the only metric
    /// names allowed to differ from a health-off run are the watchdog's
    /// own (`alert.*` counters and the `ts.health.*` window series).
    #[test]
    fn health_auditing_perturbs_nothing_but_alert_metrics(
        count in 3usize..12,
        seed in any::<u64>(),
        window_s in 2u64..9,
        mapreduce in any::<bool>(),
    ) {
        let window_us = window_s * 1_000_000;
        let s = state();

        let plain = MemRecorder::new();
        let plain_result = run_recorded(&s, cfg(count, seed, window_us, mapreduce, false), &plain);

        let audited = MemRecorder::new();
        let audited_result =
            run_recorded(&s, cfg(count, seed, window_us, mapreduce, true), &audited);

        // The simulation itself is untouched...
        prop_assert_eq!(&plain_result.outcomes, &audited_result.outcomes);
        // ...and so is the unaudited run without any recorder at all.
        let bare = vc_cloudsim::sim::run(&s, cfg(count, seed, window_us, mapreduce, true));
        prop_assert_eq!(&plain_result.outcomes, &bare.outcomes);

        // Metrics: strip the watchdog's own names, nothing else differs.
        let strip_health = |mut snap: MetricsSnapshot| {
            snap.counters.retain(|k, _| !k.starts_with("alert."));
            snap.gauges.retain(|k, _| !k.starts_with("ts.health."));
            snap
        };
        prop_assert_eq!(
            strip_host_metrics(strip_health(audited.metrics())),
            strip_host_metrics(plain.metrics())
        );
        let mut audited_series = audited.counter_series();
        audited_series.retain(|k, _| !k.starts_with("ts.health."));
        prop_assert_eq!(audited_series, plain.counter_series());
        // Every extra event is an alert; a healthy seeded run fires none,
        // so the event streams are identical too.
        let plain_events = plain.events().len();
        let alert_events = audited
            .events()
            .iter()
            .filter(|e| e.name.starts_with("alert."))
            .count();
        prop_assert_eq!(audited.events().len(), plain_events + alert_events);
    }
}
