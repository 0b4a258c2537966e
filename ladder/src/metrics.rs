//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! declares the same names; a test keeps the two in step.

/// A metric name and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the simulator sees, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("requests_per_s", "req/s"),
    def("recorded_requests_per_s", "req/s"),
    def("streamed_requests_per_s", "req/s"),
    def("peak_rss_mb", "MB"),
    def("recorded_peak_rss_mb", "MB"),
    def("streamed_peak_rss_mb", "MB"),
];

/// Single layers, from the traced child.
pub const PER_LAYER: &[Def] = &[
    def("des.calls", "count"),
    def("des.self_s", "s"),
    def("des.events", "count"),
    def("placement.calls", "count"),
    def("placement.self_s", "s"),
    def("placement.call_us_p50", "us"),
    def("placement.call_us_p99", "us"),
    def("placement.batch_len_mean", "requests"),
    def("placement.seeds_scanned", "count"),
    def("placement.seeds_pruned", "count"),
    def("placement.prune_frac", "fraction"),
    def("placement.exchange_swaps", "count"),
    def("placement.requests_deferred", "count"),
    def("model.commit_calls", "count"),
    def("model.commit_s", "s"),
    def("model.commit_us_p99", "us"),
    def("mapreduce.jobs", "count"),
    def("mapreduce.self_s", "s"),
    def("mapreduce.job_ms_p50", "ms"),
    def("mapreduce.job_ms_p99", "ms"),
    def("mapreduce.cluster_build_s", "s"),
    def("netsim.flownet_new_s", "s"),
    def("netsim.flownet_new_us_p50", "us"),
    def("netsim.solves", "count"),
    def("netsim.flows", "count"),
    def("netsim.iterations", "count"),
    def("netsim.flows_skipped", "count"),
    def("netsim.completion_batches", "count"),
    def("netsim.peak_flows", "count"),
    def("cloudsim.run_s", "s"),
    def("cloudsim.self_s", "s"),
    def("cloudsim.events", "count"),
    def("cloudsim.replay_mismatches", "count"),
    def("obs.recorded_run_s", "s"),
    def("obs.record_overhead", "ratio"),
    def("obs.snapshot_s", "s"),
    def("obs.chrome_trace_s", "s"),
    def("obs.attribution_s", "s"),
    def("obs.doc_export_s", "s"),
    def("obs.streamed_run_s", "s"),
    def("obs.stream_finish_s", "s"),
    def("obs.stream_replay_s", "s"),
    def("obs.stream_mb", "MB"),
    def("obs.spans", "count"),
    def("obs.events", "count"),
    def("obs.other_frac", "fraction"),
    def("setup.topology_s", "s"),
    def("setup.cluster_state_s", "s"),
    def("setup.trace_s", "s"),
    def("outcome.served", "count"),
    def("outcome.refused", "count"),
    def("outcome.mean_wait_s", "sim_s"),
    def("outcome.total_distance", "distance"),
    def("outcome.mean_job_runtime_s", "sim_s"),
    def("outcome.avg_utilization", "fraction"),
    def("host.ref_kernel_ms", "ms"),
    def("host.cpu_per_wall", "ratio"),
];

/// The unit of `name`, if it is a declared metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
    }

    /// `BENCHMARK.json` declares exactly these metrics, with these units.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }
}
