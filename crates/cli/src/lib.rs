//! The `affinity-vc` command-line tool.
//!
//! Thin, dependency-free argument handling over the workspace crates.
//! All commands are pure functions from arguments to an output string
//! ([`run`]), which keeps the whole surface unit-testable; `main.rs` only
//! prints the result or the error.
//!
//! ```text
//! affinity-vc place          --request 2,4,1 [--racks 3] [--nodes 10] ...
//! affinity-vc simulate-job   --spread 2,10,0 [--workload wordcount] ...
//! affinity-vc simulate       --requests 10 [--service mapreduce] ...
//! affinity-vc derive-distance [--racks 3] [--nodes 10] [--unit-us 100]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{ArgError, Parsed};

/// Entry point: dispatch `argv[1..]` to a subcommand and return its
/// output text.
pub fn run(argv: &[String]) -> Result<String, ArgError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(usage());
    };
    // `diff` takes file operands, so it parses positionals.
    if command == "diff" {
        let (parsed, files) = Parsed::parse_with_positionals(rest)?;
        return commands::diff(&parsed, &files);
    }
    let parsed = Parsed::parse(rest)?;
    match command.as_str() {
        "place" => commands::place(&parsed),
        "simulate-job" => commands::simulate_job(&parsed),
        "simulate" => commands::simulate(&parsed),
        "report" => commands::report(&parsed),
        "compare" => commands::compare(&parsed),
        "derive-distance" => commands::derive_distance(&parsed),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(ArgError::new(format!(
            "unknown command `{other}` — try `affinity-vc help`"
        ))),
    }
}

/// The top-level help text.
pub fn usage() -> String {
    "\
affinity-vc — affinity-aware virtual cluster optimization (CLUSTER 2012)

USAGE:
    affinity-vc <COMMAND> [OPTIONS]

COMMANDS:
    place             place one VM request on a simulated cloud
    simulate-job      run a MapReduce job on a virtual cluster
    simulate          request queue + placement + MapReduce
    report            analyse a recorded trace: critical path + placement audit
    diff              compare two recorded runs: metric deltas + attribution
    compare           paired multi-seed A/B re-run of two configs
    derive-distance   derive a distance matrix from network latencies
    help              show this text

COMMON OPTIONS:
    --racks <N>            racks in the cloud            [default: 3]
    --nodes <N>            nodes per rack                [default: 10]
    --capacity <N>         instances per (node, type)    [default: 2]
    --seed <N>             RNG seed                      [default: 0]
    --json                 emit JSON instead of text

PLACE OPTIONS:
    --request a,b,c        VM counts per type (required)
    --policy <P>           online|exact|ilp|first-fit|best-fit|spread|random
                           [default: online]
    --placement-threads <N> seed-scan workers (0 = auto)  [default: 1]

SIMULATE-JOB OPTIONS:
    --spread a,b,c         VMs on master, same rack, cross rack [default: 2,10,0]
    --workload <W>         wordcount|wordcount-nocombine|terasort|grep
                           [default: wordcount]
    --maps <N>             map tasks                     [default: 32]
    --reducers <N>         reduce tasks                  [default: 1]
    --speculative          enable speculative execution
    --straggler-prob <F>   straggler probability         [default: 0]

SIMULATE OPTIONS:
    --requests <N>         request count                 [default: 10]
    --rate <F>             arrivals per second           [default: 0.5]
    --policy <P>           global|online|spread|first-fit|best-fit|random
                           [default: global]
    --service <S>          trace|mapreduce               [default: mapreduce]
    --workload/--maps/--reducers as simulate-job (mapreduce service)
    --trace <FILE>         replay a saved JSON trace instead of generating
    --save-trace <FILE>    save the generated trace for later replay
    --placement-threads <N> seed-scan workers (0 = auto)  [default: 1]

OBSERVABILITY (simulate, simulate-job):
    --trace-out <FILE>     write a Chrome/Perfetto trace-event timeline
    --metrics-out <FILE>   write a metrics snapshot (.csv for CSV, else JSON)
    --prom-out <FILE>      write the snapshot in Prometheus text exposition
                           (windowed ts.* samples labelled when --window-us set)
    --stream-out <FILE>    also write every recorder op to a JSONL file as
                           it happens (replay with `report --stream`); the
                           exports come from replaying the file, so they
                           match an in-memory run's, and peak RSS is higher
                           (about 48 vs 20 MB for 200 terasort requests)
    --window-us <N>        sample ts.* cloud-health series every N µs of
                           sim time (simulate)
    --series-out <FILE>    export the windowed series (.csv wide table,
                           else JSONL); needs --window-us

HEALTH WATCHDOG (simulate):
    --health               audit conservation invariants during the run and
                           run the anomaly detectors over the ts.* windows
                           (detectors need --window-us); alerts appear as
                           alert.* events in the trace/stream and as
                           alert_total{severity,rule} in --prom-out;
                           thresholds are fixed (docs/metrics-schema.md)

REPORT OPTIONS:
    --trace <FILE>         trace written by --trace-out (this or --stream is
                           required, except `report --perf --metrics <FILE>`)
    --stream <FILE>        JSONL stream written by --stream-out, replayed
                           into the same report
    --metrics <FILE>       metrics JSON written by --metrics-out (optional)
    --network              add the link-level hot-spot summary (needs --metrics):
                           per-link bytes/peak-utilization, rack-uplink peaks,
                           top congested links, shuffle locality split
    --perf                 add the simulator self-profile (needs --metrics):
                           phase wall-clock breakdown, fair-share solver
                           effort, peak RSS
    --timeline             add the windowed ts.* time-series table (from a
                           run recorded with --window-us)
    --series-out <FILE>    re-export the ts.* series from the trace input
    --health               summarise alert.* events by rule: severity,
                           subsystem, count, first/last sim-time, worst
                           window; also audits critical-path tiling offline
    --fail-on-alert <S>    exit 1 (`health gate: FAIL`) if any alert at or
                           above severity S (info|warn|critical) fired;
                           implies --health
    --json                 emit the full report as JSON

DIFF OPTIONS:
    affinity-vc diff <BASELINE.json> <CANDIDATE.json>
                           run documents written by `simulate --metrics-out`;
                           both must carry a run manifest and agree on
                           schema, --window-us and topology
    --tolerance-pct <F>    treat relative deltas below this as neutral for
                           non-deterministic metrics       [default: 0]
    --top <N>              rows in the explanation section  [default: 5]
    --fail-on-regress      exit 1 (`diff gate: FAIL`) if any non-advisory
                           metric regressed; prints `diff gate: PASS`
                           otherwise
    --json                 emit the full diff report as JSON

COMPARE OPTIONS:
    affinity-vc compare --config-a <ARGS> --config-b <ARGS>
                           per metric: median B/A ratio and win counts
    --config-a <ARGS>      quoted simulate flags for side A (e.g. '--policy global')
    --config-b <ARGS>      quoted simulate flags for side B
    --seeds <N>            common seeds to re-run per side  [default: 5]
    --seed <N>             first seed                       [default: 0]
    --json                 emit the paired summary as JSON
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, ArgError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn no_args_prints_usage() {
        let out = call(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_prints_usage() {
        for h in ["help", "--help", "-h"] {
            assert!(call(&[h]).unwrap().contains("COMMANDS"));
        }
    }

    #[test]
    fn unknown_command_errors() {
        let err = call(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn place_text_output() {
        let out = call(&["place", "--request", "2,4,1"]).unwrap();
        assert!(out.contains("distance"), "{out}");
        assert!(out.contains("centre"), "{out}");
    }

    #[test]
    fn place_json_output() {
        let out = call(&["place", "--request", "1,0,0", "--json"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["request"], serde_json::json!([1, 0, 0]));
        assert!(v["distance"].is_u64());
    }

    #[test]
    fn place_rejects_zero_request() {
        let err = call(&["place", "--request", "0,0,0"]).unwrap_err();
        assert!(err.to_string().contains("at least one VM"));
    }

    #[test]
    fn place_requires_request() {
        let err = call(&["place"]).unwrap_err();
        assert!(err.to_string().contains("--request"));
    }

    #[test]
    fn place_all_policies() {
        for p in [
            "online",
            "exact",
            "ilp",
            "first-fit",
            "best-fit",
            "spread",
            "random",
        ] {
            let out = call(&["place", "--request", "2,1,0", "--policy", p]).unwrap();
            assert!(out.contains("distance"), "{p}: {out}");
        }
    }

    #[test]
    fn place_bad_policy_errors() {
        let err = call(&["place", "--request", "1,0,0", "--policy", "nope"]).unwrap_err();
        assert!(err.to_string().contains("policy"));
    }

    #[test]
    fn simulate_job_runs() {
        let out = call(&["simulate-job", "--maps", "8", "--spread", "1,3,0"]).unwrap();
        assert!(out.contains("runtime"), "{out}");
        assert!(out.contains("data-local"), "{out}");
    }

    #[test]
    fn simulate_job_json() {
        let out = call(&[
            "simulate-job",
            "--maps",
            "4",
            "--json",
            "--workload",
            "grep",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["num_maps"], serde_json::json!(4));
    }

    #[test]
    fn simulate_trace_service_runs() {
        let out = call(&[
            "simulate",
            "--requests",
            "5",
            "--service",
            "trace",
            "--policy",
            "online",
        ])
        .unwrap();
        assert!(out.contains("served 5/5"), "{out}");
    }

    /// The per-request outcomes of a `simulate --json` run.
    fn outcomes(json: &str) -> serde_json::Value {
        let v: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
        v["outcomes"].clone()
    }

    #[test]
    fn placement_threads_do_not_change_results() {
        // The parallel seed scan is bit-identical to the sequential one,
        // so thread count must never alter any command's output.
        for threads in ["0", "2", "4"] {
            let base = call(&["place", "--request", "3,2,1", "--json"]).unwrap();
            let multi = call(&[
                "place",
                "--request",
                "3,2,1",
                "--json",
                "--placement-threads",
                threads,
            ])
            .unwrap();
            assert_eq!(base, multi, "--placement-threads {threads} changed place");
        }
        let base = call(&[
            "simulate",
            "--requests",
            "8",
            "--service",
            "trace",
            "--json",
        ])
        .unwrap();
        let multi = call(&[
            "simulate",
            "--requests",
            "8",
            "--service",
            "trace",
            "--json",
            "--placement-threads",
            "3",
        ])
        .unwrap();
        assert_eq!(
            outcomes(&base),
            outcomes(&multi),
            "--placement-threads changed simulate"
        );
        assert_eq!(outcomes(&base).as_array().map(Vec::len), Some(8));
    }

    #[test]
    fn placement_threads_rejects_garbage() {
        let err =
            call(&["place", "--request", "1,0,0", "--placement-threads", "lots"]).unwrap_err();
        assert!(err.to_string().contains("placement-threads"));
    }

    #[test]
    fn derive_distance_matrix_shape() {
        let out = call(&["derive-distance", "--racks", "2", "--nodes", "2"]).unwrap();
        // 4 matrix rows plus a header line.
        assert_eq!(out.lines().count(), 5, "{out}");
    }

    #[test]
    fn bad_number_errors() {
        let err = call(&["place", "--request", "1,0,0", "--seed", "abc"]).unwrap_err();
        assert!(err.to_string().contains("seed"));
    }

    #[test]
    fn unknown_flag_errors() {
        let err = call(&["place", "--request", "1,0,0", "--bogus", "1"]).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }
}

#[cfg(test)]
mod trace_cli_tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, ArgError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn save_then_replay_trace() {
        let path = std::env::temp_dir().join("affinity_vc_cli_trace.json");
        let path_s = path.to_str().unwrap();
        let sim = ["simulate", "--service", "trace", "--policy", "online"];
        let first =
            call(&[&sim[..], &["--requests", "5", "--save-trace", path_s]].concat()).unwrap();
        let replay = call(&[&sim[..], &["--trace", path_s]].concat()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            first, replay,
            "replaying the saved trace must reproduce the run"
        );
    }

    #[test]
    fn missing_trace_file_errors() {
        let err = call(&["simulate", "--trace", "/no/such/file.json"]).unwrap_err();
        assert!(err.to_string().contains("I/O"));
    }
}

#[cfg(test)]
mod obs_cli_tests {
    use super::*;
    use serde_json::Value;

    fn call(args: &[&str]) -> Result<String, ArgError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    fn tmp(name: &str) -> (std::path::PathBuf, String) {
        let path = std::env::temp_dir().join(name);
        let s = path.to_str().unwrap().to_string();
        (path, s)
    }

    fn read_json(path: &std::path::Path) -> Value {
        let text = std::fs::read_to_string(path).expect("output file written");
        serde_json::from_str(&text).expect("valid JSON")
    }

    #[test]
    fn simulate_end_to_end_writes_trace_and_metrics() {
        let (tp, tps) = tmp("affinity_vc_e2e_trace.json");
        let (mp, mps) = tmp("affinity_vc_e2e_metrics.json");
        let out = call(&[
            "simulate",
            "--requests",
            "4",
            "--maps",
            "4",
            "--trace-out",
            &tps,
            "--metrics-out",
            &mps,
        ])
        .unwrap();
        assert!(out.contains("served"), "{out}");
        assert!(out.contains("spans"), "{out}");

        let trace = read_json(&tp);
        let metrics = read_json(&mp);
        std::fs::remove_file(&tp).ok();
        std::fs::remove_file(&mp).ok();

        let events = trace["traceEvents"].as_array().expect("traceEvents array");
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .filter_map(|e| e["name"].as_str())
            .collect();
        for required in ["request", "job", "map", "shuffle", "reduce"] {
            assert!(span_names.contains(&required), "missing {required} span");
        }
        let map_span = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some("map"))
            .unwrap();
        let locality = map_span["args"]["locality"].as_str().unwrap();
        assert!(["node_local", "rack_local", "remote"].contains(&locality));

        // Metrics snapshot: placement DC(C) and queue-depth histograms.
        assert!(metrics["histograms"]["placement.dc"]["count"].as_u64() > Some(0));
        assert!(metrics["histograms"]["cloudsim.queue_depth"].is_object());
        assert!(metrics["counters"]["des.events_processed"].as_u64() > Some(0));
    }

    #[test]
    fn simulate_has_no_run_alias() {
        let a = call(&["simulate", "--requests", "3", "--service", "trace"]).unwrap();
        let b = call(&["simulate", "--requests", "3", "--service", "trace"]).unwrap();
        assert_eq!(a, b);
        let err = call(&["run", "--requests", "3", "--service", "trace"]).unwrap_err();
        assert!(err.to_string().contains("unknown command `run`"), "{err}");
    }

    #[test]
    fn simulate_job_trace_out_has_vm_tracks() {
        let (tp, tps) = tmp("affinity_vc_job_trace.json");
        call(&[
            "simulate-job",
            "--maps",
            "4",
            "--spread",
            "1,3,0",
            "--trace-out",
            &tps,
        ])
        .unwrap();
        let trace = read_json(&tp);
        std::fs::remove_file(&tp).ok();
        let events = trace["traceEvents"].as_array().unwrap();
        let vm_track = events.iter().any(|e| {
            e["ph"].as_str() == Some("M")
                && e["name"].as_str() == Some("thread_name")
                && e["args"]["name"]
                    .as_str()
                    .is_some_and(|n| n.starts_with("vm"))
        });
        assert!(vm_track, "expected a vm* thread_name metadata event");
    }

    #[test]
    fn simulate_metrics_out_csv() {
        let (mp, mps) = tmp("affinity_vc_queue_metrics.csv");
        call(&[
            "simulate",
            "--requests",
            "5",
            "--service",
            "trace",
            "--metrics-out",
            &mps,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&mp).unwrap();
        std::fs::remove_file(&mp).ok();
        assert!(text.starts_with("kind,name,field,value"), "{text}");
        assert!(text.contains("cloudsim.queue_depth"), "{text}");
    }

    #[test]
    fn simulate_rejects_unknown_service() {
        let err = call(&["simulate", "--service", "magic"]).unwrap_err();
        assert!(err.to_string().contains("service"));
    }

    #[test]
    fn report_requires_trace() {
        let err = call(&["report"]).unwrap_err();
        assert!(err.to_string().contains("--trace"), "{err}");
    }

    #[test]
    fn report_attribution_sums_to_makespan() {
        // Acceptance check: on a WordCount end-to-end run, every job's
        // category attribution must tile its makespan exactly.
        let (tp, tps) = tmp("affinity_vc_report_trace.json");
        call(&[
            "simulate",
            "--requests",
            "3",
            "--maps",
            "4",
            "--workload",
            "wordcount",
            "--trace-out",
            &tps,
        ])
        .unwrap();
        let out = call(&["report", "--trace", &tps, "--json"]).unwrap();
        std::fs::remove_file(&tp).ok();
        let v: Value = serde_json::from_str(&out).unwrap();
        let jobs = v["jobs"].as_array().unwrap();
        assert!(!jobs.is_empty(), "no jobs in report");
        for job in jobs {
            let makespan = job["makespan_us"].as_u64().unwrap();
            let cats = job["categories_us"].as_object().unwrap();
            let total: u64 = cats.iter().map(|(_, v)| v.as_u64().unwrap()).sum();
            assert!(
                total.abs_diff(makespan) <= 1,
                "attribution {total} != makespan {makespan}"
            );
        }
        assert!(
            !v["placement"]["scan_audits"].as_array().unwrap().is_empty(),
            "expected scan audits in report"
        );
    }

    #[test]
    fn report_text_table_with_metrics() {
        let (tp, tps) = tmp("affinity_vc_report_t2.json");
        let (mp, mps) = tmp("affinity_vc_report_m2.json");
        call(&[
            "simulate",
            "--requests",
            "3",
            "--maps",
            "4",
            "--placement-threads",
            "2",
            "--trace-out",
            &tps,
            "--metrics-out",
            &mps,
        ])
        .unwrap();
        let out = call(&["report", "--trace", &tps, "--metrics", &mps]).unwrap();
        std::fs::remove_file(&tp).ok();
        std::fs::remove_file(&mp).ok();
        assert!(out.contains("critical-path attribution"), "{out}");
        assert!(out.contains("makespan_s"), "{out}");
        assert!(out.contains("placement —"), "{out}");
        assert!(out.contains("seeds:"), "{out}");
        assert!(out.contains("placement.seeds_scanned"), "{out}");
    }

    #[test]
    fn placement_threads_match_sequential_artifacts() {
        // A parallel seed scan (--placement-threads 0: one worker per
        // core) records into the same MemRecorder; its trace must carry
        // the same deterministic placement telemetry as a sequential run.
        let (t1, t1s) = tmp("affinity_vc_threads_t1.json");
        let (t2, t2s) = tmp("affinity_vc_threads_t2.json");
        let base = call(&[
            "simulate",
            "--requests",
            "6",
            "--service",
            "trace",
            "--json",
            "--trace-out",
            &t1s,
        ])
        .unwrap();
        let multi = call(&[
            "simulate",
            "--requests",
            "6",
            "--service",
            "trace",
            "--json",
            "--placement-threads",
            "0",
            "--trace-out",
            &t2s,
        ])
        .unwrap();
        let outcomes =
            |json: &str| serde_json::from_str::<Value>(json).unwrap()["outcomes"].clone();
        assert_eq!(
            outcomes(&base),
            outcomes(&multi),
            "results must not depend on the thread count"
        );
        let (a, b) = (read_json(&t1), read_json(&t2));
        std::fs::remove_file(&t1).ok();
        std::fs::remove_file(&t2).ok();
        // Deterministic placement events agree between thread counts.
        let placed = |doc: &Value| -> Vec<String> {
            let mut v: Vec<String> = doc["traceEvents"]
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| {
                    e["ph"].as_str() == Some("i")
                        && matches!(
                            e["name"].as_str(),
                            Some("placement.request_placed" | "placement.exchange_audit")
                        )
                })
                .map(|e| format!("{} {} {}", e["name"], e["ts"], e["args"]))
                .collect();
            v.sort();
            v
        };
        assert_eq!(placed(&a), placed(&b));
    }

    #[test]
    fn report_network_requires_metrics() {
        let (tp, tps) = tmp("affinity_vc_net_nometrics_trace.json");
        call(&[
            "simulate",
            "--requests",
            "2",
            "--maps",
            "4",
            "--trace-out",
            &tps,
        ])
        .unwrap();
        let err = call(&["report", "--trace", &tps, "--network"]).unwrap_err();
        std::fs::remove_file(&tp).ok();
        assert!(err.to_string().contains("--metrics"), "{err}");
    }

    #[test]
    fn report_network_links_match_engine_shuffle_bytes() {
        // Acceptance check: the per-link shuffle-byte integrals must
        // equal the engine's own shuffle accounting EXACTLY — every
        // cross-node shuffle byte enters its destination node once, and
        // node-local shuffle crosses no link.
        let (tp, tps) = tmp("affinity_vc_net_trace.json");
        let (mp, mps) = tmp("affinity_vc_net_metrics.json");
        call(&[
            "simulate",
            "--requests",
            "4",
            "--maps",
            "6",
            "--reducers",
            "2",
            "--trace-out",
            &tps,
            "--metrics-out",
            &mps,
        ])
        .unwrap();
        let metrics = read_json(&mp);
        let out = call(&["report", "--trace", &tps, "--metrics", &mps, "--network"]).unwrap();
        let json_out = call(&[
            "report",
            "--trace",
            &tps,
            "--metrics",
            &mps,
            "--network",
            "--json",
        ])
        .unwrap();
        std::fs::remove_file(&tp).ok();
        std::fs::remove_file(&mp).ok();

        assert!(out.contains("network —"), "{out}");
        assert!(out.contains("rack uplinks"), "{out}");
        assert!(out.contains("top congested links"), "{out}");

        let v: Value = serde_json::from_str(&json_out).unwrap();
        let consistency = &v["network"]["consistency"];
        // Independent recomputation from the raw snapshot: Σ node-rx
        // link shuffle bytes vs the engine's fetch-by-fetch counters.
        let counters = metrics["counters"].as_object().unwrap();
        let rx_sum: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("net.link.node") && k.ends_with(".rx.shuffle_bytes"))
            .map(|(_, v)| v.as_u64().unwrap())
            .sum();
        let engine: u64 = counters
            .iter()
            .filter(|(k, _)| k == "mr.shuffle.rack_local_bytes" || k == "mr.shuffle.remote_bytes")
            .map(|(_, v)| v.as_u64().unwrap())
            .sum();
        assert!(rx_sum > 0, "expected cross-node shuffle traffic");
        assert_eq!(rx_sum, engine, "link vs engine shuffle bytes diverge");
        assert_eq!(consistency["link_rx_shuffle_bytes"].as_u64(), Some(rx_sum));
        assert_eq!(
            consistency["shuffle_rx_matches_engine"],
            Value::Bool(true),
            "{json_out}"
        );
        // Hot-spot summary fields present and sane.
        let uplinks = &v["network"]["rack_uplinks"];
        assert!(uplinks["peak_util"].as_f64().unwrap() >= 0.0);
        assert!(!v["network"]["top_congested"].as_array().unwrap().is_empty());
    }

    #[test]
    fn simulate_prom_out_is_text_exposition() {
        let (pp, pps) = tmp("affinity_vc_prom.prom");
        call(&[
            "simulate",
            "--requests",
            "3",
            "--maps",
            "4",
            "--prom-out",
            &pps,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&pp).unwrap();
        std::fs::remove_file(&pp).ok();
        // Prometheus text exposition 0.0.4: TYPE headers, sanitized
        // names, one sample per line.
        assert!(
            text.contains("# TYPE des_events_processed counter"),
            "{text}"
        );
        assert!(text.contains("# TYPE prof_phase_cloudsim_run_calls counter"));
        assert!(text.contains("prof_phase_cloudsim_run_calls 1"));
        assert!(text.contains("# TYPE prof_solver_solves counter"));
        assert!(text.contains("# TYPE prof_rss_peak_kb gauge"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let (name, value) = (parts.next().unwrap(), parts.next().unwrap());
            // Label values may contain arbitrary characters; the bare
            // metric name before any label set must be sanitized.
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars().all(|c| c.is_ascii_alphanumeric()
                    || c == '_'
                    || c == ':'
                    || c == '+'
                    || c == '.'
                    || c == '-'),
                "unsanitized name {name}"
            );
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
        }
    }

    #[test]
    fn report_perf_phases_tile_total() {
        // Acceptance check: the --perf breakdown must tile the total
        // simulator wall-clock (within 5% — exact by construction here).
        let (mp, mps) = tmp("affinity_vc_perf_tile_metrics.json");
        call(&[
            "simulate",
            "--requests",
            "5",
            "--maps",
            "6",
            "--metrics-out",
            &mps,
        ])
        .unwrap();
        let out = call(&["report", "--perf", "--metrics", &mps, "--json"]).unwrap();
        std::fs::remove_file(&mp).ok();
        let v: Value = serde_json::from_str(&out).unwrap();
        let perf = &v["perf"];
        let total = perf["total_wall_us"].as_u64().unwrap();
        assert!(total > 0, "{out}");
        let sum: u64 = perf["breakdown"]
            .as_array()
            .unwrap()
            .iter()
            .map(|row| row["wall_us"].as_u64().unwrap())
            .sum();
        assert!(
            (sum as f64 - total as f64).abs() <= total as f64 * 0.05,
            "breakdown {sum} vs total {total}"
        );
        // Solver effort counters present and consistent.
        let solver = &perf["solver"];
        assert!(solver["solves"].as_u64().unwrap() > 0);
        assert!(solver["flows"].as_u64().unwrap() >= solver["solves"].as_u64().unwrap());
        assert!(solver["iterations"].as_u64().is_some());
        assert!(solver["links_touched"].as_u64().is_some());
        // Phase table covers the whole taxonomy actually exercised.
        let phases: Vec<&str> = perf["phases"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["phase"].as_str().unwrap())
            .collect();
        for required in ["cloudsim_run", "serve", "mr_service", "des_pop", "mr_job"] {
            assert!(phases.contains(&required), "missing phase {required}");
        }
    }

    #[test]
    fn report_perf_requires_metrics() {
        let err = call(&["report", "--perf"]).unwrap_err();
        assert!(err.to_string().contains("--metrics"), "{err}");
    }

    #[test]
    fn observability_flags_do_not_change_results() {
        let (mp, mps) = tmp("affinity_vc_parity_metrics.json");
        let sim = ["simulate", "--service", "trace", "--policy", "online"];
        let plain = call(&[&sim[..], &["--requests", "6", "--json"]].concat()).unwrap();
        let recorded = call(
            &[
                &sim[..],
                &["--requests", "6", "--json", "--metrics-out", &mps],
            ]
            .concat(),
        )
        .unwrap();
        std::fs::remove_file(&mp).ok();
        assert_eq!(plain, recorded, "exporting must not perturb the simulation");
    }

    #[test]
    fn series_out_requires_window() {
        let (_, sps) = tmp("affinity_vc_no_window.csv");
        let err = call(&["simulate", "--requests", "2", "--series-out", &sps]).unwrap_err();
        assert!(err.to_string().contains("--window-us"), "{err}");
    }

    #[test]
    fn simulate_series_out_csv_is_windowed_and_monotone() {
        let (sp, sps) = tmp("affinity_vc_series.csv");
        call(&[
            "simulate",
            "--requests",
            "6",
            "--maps",
            "4",
            "--window-us",
            "5000000",
            "--series-out",
            &sps,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&sp).unwrap();
        std::fs::remove_file(&sp).ok();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("t_us,"), "{header}");
        assert!(header.contains("ts.cloud.fill"), "{header}");
        assert!(header.contains("ts.queue.depth"), "{header}");
        assert!(header.contains("ts.net.rack_up_util"), "{header}");
        let edges: Vec<u64> = lines
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(edges.len() >= 2, "expected several windows: {text}");
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "{edges:?}");
        // Every full edge is a multiple of the window width.
        for &e in &edges[..edges.len() - 1] {
            assert_eq!(e % 5_000_000, 0, "unaligned full edge {e}");
        }
    }

    #[test]
    fn stream_out_does_not_change_results_and_report_replays_it() {
        // The streaming recorder must be invisible to the simulation and
        // its JSONL must reproduce the exact same report as an in-memory
        // trace of the same run.
        let (tp, tps) = tmp("affinity_vc_stream_cmp_trace.json");
        let (sp, sps) = tmp("affinity_vc_stream_cmp.jsonl");
        fn args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
            let mut v = vec![
                "simulate",
                "--requests",
                "5",
                "--maps",
                "4",
                "--window-us",
                "5000000",
                "--json",
            ];
            v.extend_from_slice(extra);
            v
        }
        let plain = call(&args(&["--trace-out", &tps])).unwrap();
        let streamed = call(&args(&["--stream-out", &sps])).unwrap();
        assert_eq!(plain, streamed, "streaming must not perturb the run");

        let from_trace = call(&["report", "--trace", &tps, "--timeline", "--json"]).unwrap();
        let from_stream = call(&["report", "--stream", &sps, "--timeline", "--json"]).unwrap();
        std::fs::remove_file(&tp).ok();
        std::fs::remove_file(&sp).ok();
        let a: Value = serde_json::from_str(&from_trace).unwrap();
        let b: Value = serde_json::from_str(&from_stream).unwrap();
        assert_eq!(a["timeline"], b["timeline"], "windowed values must match");
        assert!(
            a["timeline"]["window_count"].as_u64().unwrap() >= 2,
            "{from_trace}"
        );
        assert_eq!(a["jobs"], b["jobs"], "critical-path view must match");
    }

    #[test]
    fn report_timeline_renders_table() {
        let (sp, sps) = tmp("affinity_vc_timeline.jsonl");
        call(&[
            "simulate",
            "--requests",
            "4",
            "--maps",
            "4",
            "--window-us",
            "5000000",
            "--stream-out",
            &sps,
        ])
        .unwrap();
        let out = call(&["report", "--stream", &sps, "--timeline"]).unwrap();
        std::fs::remove_file(&sp).ok();
        assert!(out.contains("timeline —"), "{out}");
        assert!(out.contains("t_s"), "{out}");
        assert!(out.contains("cloud.fill"), "{out}");
        assert!(out.contains("queue.depth"), "{out}");
    }

    #[test]
    fn report_rejects_both_trace_and_stream() {
        let err = call(&["report", "--trace", "a.json", "--stream", "b.jsonl"]).unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
    }

    #[test]
    fn prom_out_window_labels_when_sampling() {
        let (pp, pps) = tmp("affinity_vc_prom_windowed.prom");
        call(&[
            "simulate",
            "--requests",
            "4",
            "--maps",
            "4",
            "--window-us",
            "5000000",
            "--prom-out",
            &pps,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&pp).unwrap();
        std::fs::remove_file(&pp).ok();
        assert!(text.contains("window=\""), "{text}");
        assert!(text.contains("ts_cloud_fill"), "{text}");
    }

    /// A two-slot cloud trace with a 600 s hog and short jobs piling up
    /// behind it — the queue rises window after window with nothing
    /// served, so the `queue_stagnation` detector must fire. Saved as a
    /// replayable request trace for `simulate --trace`.
    fn write_stagnation_trace(path: &str) {
        use vc_cloudsim::CloudRequest;
        use vc_des::SimTime;
        use vc_model::Request;
        let mut requests = vec![CloudRequest {
            id: 0,
            request: Request::from_counts(vec![2, 0, 0]),
            arrival: SimTime::ZERO,
            service_time: SimTime::from_secs(600),
        }];
        for i in 1..=10u64 {
            requests.push(CloudRequest {
                id: i,
                request: Request::from_counts(vec![1, 0, 0]),
                arrival: SimTime::from_secs(3 * i),
                service_time: SimTime::from_secs(2),
            });
        }
        vc_cloudsim::trace::save(&requests, path).unwrap();
    }

    fn stagnation_run(trace_path: &str, extra: &[&str]) -> Result<String, ArgError> {
        let mut args = vec![
            "simulate",
            "--service",
            "trace",
            "--policy",
            "online",
            "--racks",
            "1",
            "--nodes",
            "2",
            "--capacity",
            "1",
            "--trace",
            trace_path,
            "--health",
            "--window-us",
            "5000000",
        ];
        args.extend_from_slice(extra);
        call(&args)
    }

    #[test]
    fn report_health_summarises_alerts_and_gates_exit() {
        let (rp, rps) = tmp("affinity_vc_health_reqs.json");
        let (tp, tps) = tmp("affinity_vc_health_trace.json");
        let (pp, pps) = tmp("affinity_vc_health.prom");
        write_stagnation_trace(&rps);
        let out = stagnation_run(&rps, &["--trace-out", &tps, "--prom-out", &pps]).unwrap();
        assert!(out.contains("served"), "{out}");

        // The watchdog's counters export as one labelled family.
        let prom = std::fs::read_to_string(&pp).unwrap();
        assert!(
            prom.contains("alert_total{severity=\"warn\",rule=\"queue_stagnation\"}"),
            "{prom}"
        );

        let table = call(&["report", "--trace", &tps, "--health"]).unwrap();
        assert!(table.contains("health —"), "{table}");
        assert!(table.contains("queue_stagnation"), "{table}");
        assert!(table.contains("warn"), "{table}");

        let json: Value = serde_json::from_str(
            &call(&["report", "--trace", &tps, "--health", "--json"]).unwrap(),
        )
        .unwrap();
        assert!(json["health"]["total"].as_u64().unwrap() >= 1, "{json:?}");
        let alerts = json["health"]["alerts"].as_array().unwrap();
        let stag = alerts
            .iter()
            .find(|a| a["rule"].as_str() == Some("queue_stagnation"))
            .expect("queue_stagnation row");
        assert_eq!(stag["severity"].as_str(), Some("warn"));
        assert_eq!(stag["subsystem"].as_str(), Some("cloudsim"));
        assert!(stag["count"].as_u64().unwrap() >= 1);
        assert!(stag["last_t_us"].as_u64() >= stag["first_t_us"].as_u64());
        assert!(stag["worst_window_edge_us"].as_u64().unwrap() > 0);

        // Gate trips at warn (a warn alert fired), passes at critical.
        let err = call(&["report", "--trace", &tps, "--fail-on-alert", "warn"]).unwrap_err();
        assert!(err.to_string().contains("health gate: FAIL"), "{err}");
        assert!(err.to_string().contains("queue_stagnation"), "{err}");
        let pass = call(&["report", "--trace", &tps, "--fail-on-alert", "critical"]).unwrap();
        assert!(pass.contains("health gate: PASS"), "{pass}");

        std::fs::remove_file(&rp).ok();
        std::fs::remove_file(&tp).ok();
        std::fs::remove_file(&pp).ok();
    }

    #[test]
    fn alerts_replay_through_the_stream() {
        let (rp, rps) = tmp("affinity_vc_health_stream_reqs.json");
        let (sp, sps) = tmp("affinity_vc_health_stream.jsonl");
        write_stagnation_trace(&rps);
        stagnation_run(&rps, &["--stream-out", &sps]).unwrap();
        let json: Value = serde_json::from_str(
            &call(&["report", "--stream", &sps, "--health", "--json"]).unwrap(),
        )
        .unwrap();
        let alerts = json["health"]["alerts"].as_array().unwrap();
        assert!(
            alerts
                .iter()
                .any(|a| a["rule"].as_str() == Some("queue_stagnation")),
            "{json:?}"
        );
        std::fs::remove_file(&rp).ok();
        std::fs::remove_file(&sp).ok();
    }

    #[test]
    fn healthy_run_reports_clean_and_passes_gate() {
        let (sp, sps) = tmp("affinity_vc_healthy.jsonl");
        call(&[
            "simulate",
            "--requests",
            "3",
            "--maps",
            "2",
            "--health",
            "--window-us",
            "5000000",
            "--stream-out",
            &sps,
        ])
        .unwrap();
        let json: Value = serde_json::from_str(
            &call(&["report", "--stream", &sps, "--health", "--json"]).unwrap(),
        )
        .unwrap();
        assert_eq!(json["health"]["total"].as_u64(), Some(0), "{json:?}");
        assert_eq!(json["health"]["alerts"].as_array().map(Vec::len), Some(0));
        // `--fail-on-alert` at the strictest level still passes.
        let out = call(&["report", "--stream", &sps, "--fail-on-alert", "info"]).unwrap();
        assert!(out.contains("health gate: PASS"), "{out}");
        std::fs::remove_file(&sp).ok();
    }

    #[test]
    fn health_gate_rejects_unknown_severity_and_needs_trace() {
        let err = call(&["report", "--fail-on-alert", "fatal"]).unwrap_err();
        assert!(err.to_string().contains("info, warn or critical"), "{err}");
        let err = call(&["report", "--health"]).unwrap_err();
        assert!(err.to_string().contains("--trace"), "{err}");
    }

    #[test]
    fn report_series_out_round_trips_deltas_across_formats() {
        let (tp, tps) = tmp("affinity_vc_delta_trace.json");
        let (cp, cps) = tmp("affinity_vc_delta.csv");
        let (jp, jps) = tmp("affinity_vc_delta.jsonl");
        let sim: Value = serde_json::from_str(
            &call(&[
                "simulate",
                "--requests",
                "5",
                "--maps",
                "4",
                "--json",
                "--window-us",
                "5000000",
                "--trace-out",
                &tps,
            ])
            .unwrap(),
        )
        .unwrap();
        call(&[
            "report",
            "--trace",
            &tps,
            "--timeline",
            "--series-out",
            &cps,
        ])
        .unwrap();
        call(&[
            "report",
            "--trace",
            &tps,
            "--timeline",
            "--series-out",
            &jps,
        ])
        .unwrap();
        let csv = std::fs::read_to_string(&cp).unwrap();
        let jsonl = std::fs::read_to_string(&jp).unwrap();
        std::fs::remove_file(&tp).ok();
        std::fs::remove_file(&cp).ok();
        std::fs::remove_file(&jp).ok();

        type Series = std::collections::BTreeMap<String, Vec<(u64, f64)>>;
        let mut from_csv = Series::new();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        for name in ["ts.served.delta", "ts.refused.delta"] {
            assert!(header.contains(&name), "{csv}");
        }
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            let t: u64 = cells[0].parse().unwrap();
            for (i, cell) in cells.iter().enumerate().skip(1) {
                if !cell.is_empty() {
                    from_csv
                        .entry(header[i].to_string())
                        .or_default()
                        .push((t, cell.parse().unwrap()));
                }
            }
        }
        let mut from_jsonl = Series::new();
        for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
            let v: Value = serde_json::from_str(line).unwrap();
            let t = v["t_us"].as_u64().unwrap();
            let Value::Object(entries) = &v else {
                panic!("JSONL row is not an object: {line}");
            };
            for (k, val) in entries {
                if k != "t_us" {
                    from_jsonl
                        .entry(k.clone())
                        .or_default()
                        .push((t, val.as_f64().unwrap()));
                }
            }
        }
        // Identical series (names, edges, values) in both formats.
        assert_eq!(from_csv, from_jsonl);
        // The deltas account for every outcome of the run exactly.
        let sum = |name: &str| -> f64 { from_csv[name].iter().map(|&(_, v)| v).sum() };
        assert_eq!(
            sum("ts.served.delta") as u64,
            sim["served"].as_u64().unwrap()
        );
        assert_eq!(
            sum("ts.refused.delta") as u64,
            sim["refused"].as_u64().unwrap()
        );
    }
}

#[cfg(test)]
mod diff_cli_tests {
    use super::*;
    use serde_json::Value;

    fn call(args: &[&str]) -> Result<String, ArgError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    fn tmp(name: &str) -> (std::path::PathBuf, String) {
        let path = std::env::temp_dir().join(name);
        let s = path.to_str().unwrap().to_string();
        (path, s)
    }

    /// Record one simulate run document to `name` and return its path.
    fn record_run(name: &str, extra: &[&str]) -> (std::path::PathBuf, String) {
        let (path, s) = tmp(name);
        let mut args = vec![
            "simulate",
            "--requests",
            "5",
            "--maps",
            "4",
            "--seed",
            "11",
            "--window-us",
            "200000000",
            "--metrics-out",
            &s,
        ];
        args.extend_from_slice(extra);
        call(&args).unwrap();
        (path, s)
    }

    #[test]
    fn metrics_out_embeds_manifest_and_attribution() {
        let (path, s) = record_run("affinity_vc_diff_manifest.json", &[]);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let manifest = doc.get("manifest").expect("manifest embedded");
        assert_eq!(
            manifest.get("command").and_then(Value::as_str),
            Some("simulate")
        );
        assert_eq!(manifest.get("seed").and_then(Value::as_u64), Some(11));
        assert!(manifest.get("topology_digest").is_some());
        assert!(doc.get("attribution").and_then(|a| a.get("jobs")).is_some());
        assert!(doc
            .get("timeseries")
            .and_then(|t| t.get("window_us"))
            .is_some());
        let _ = s;
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn self_diff_reports_zero_regressions_and_gate_passes() {
        let (path, s) = record_run("affinity_vc_diff_self.json", &[]);
        let out = call(&["diff", &s, &s, "--fail-on-regress", "--json"]).unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("regressed").and_then(Value::as_u64), Some(0));
        assert_eq!(summary.get("improved").and_then(Value::as_u64), Some(0));
        assert_eq!(doc.get("gate").and_then(Value::as_str), Some("pass"));
        let text = call(&["diff", &s, &s, "--fail-on-regress"]).unwrap();
        assert!(text.contains("diff gate: PASS"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn affinity_vs_spread_attributes_shuffle_network_and_uplinks() {
        let (bp, bs) = record_run("affinity_vc_diff_aff.json", &[]);
        let (cp, cs) = record_run("affinity_vc_diff_spread.json", &["--policy", "spread"]);
        let out = call(&["diff", &bs, &cs, "--json"]).unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        let expl = doc.get("explanation").expect("explanation section");
        let categories: Vec<&str> = expl["top_categories"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|c| c.get("category").and_then(Value::as_str))
            .collect();
        assert!(
            categories.contains(&"shuffle-network-wait"),
            "categories: {categories:?}"
        );
        let links: Vec<&str> = expl["top_links"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|l| l.get("link").and_then(Value::as_str))
            .collect();
        assert!(
            links
                .iter()
                .any(|l| l.starts_with("rack") && l.ends_with(".up")),
            "links: {links:?}"
        );
        // Spread placement pushes shuffle traffic onto the rack uplinks.
        let regressed_links: Vec<&str> = doc["links"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|l| l["verdict"].as_str() == Some("regressed"))
            .filter_map(|l| l["link"].as_str())
            .collect();
        assert!(
            regressed_links.iter().any(|n| n.starts_with("rack")),
            "regressed links: {regressed_links:?}"
        );
        let err = call(&["diff", &bs, &cs, "--fail-on-regress"]).unwrap_err();
        assert!(err.to_string().contains("diff gate: FAIL"), "{err}");
        std::fs::remove_file(bp).ok();
        std::fs::remove_file(cp).ok();
    }

    #[test]
    fn window_mismatch_is_located_by_line() {
        let (bp, bs) = record_run("affinity_vc_diff_w1.json", &[]);
        let (cp, cs) = tmp("affinity_vc_diff_w2.json");
        call(&[
            "simulate",
            "--requests",
            "5",
            "--maps",
            "4",
            "--seed",
            "11",
            "--window-us",
            "100000000",
            "--metrics-out",
            &cs,
        ])
        .unwrap();
        let err = call(&["diff", &bs, &cs]).unwrap_err().to_string();
        assert!(err.contains("window_us"), "{err}");
        assert!(err.contains("line "), "{err}");
        assert!(err.contains("not comparable"), "{err}");
        std::fs::remove_file(bp).ok();
        std::fs::remove_file(cp).ok();
    }

    #[test]
    fn missing_manifest_names_file_and_line_one() {
        let (path, s) = tmp("affinity_vc_diff_nomanifest.json");
        std::fs::write(&path, "{\"counters\": {}}\n").unwrap();
        let err = call(&["diff", &s, &s]).unwrap_err().to_string();
        assert!(err.contains("manifest"), "{err}");
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compare_reports_median_ratios() {
        let out = call(&[
            "compare",
            "--config-a",
            "--requests 4 --maps 4",
            "--config-b",
            "--requests 4 --maps 4 --policy spread",
            "--seeds",
            "3",
            "--json",
        ])
        .unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        assert_eq!(doc["seeds"].as_u64(), Some(3));
        let metrics = doc["metrics"].as_array().unwrap();
        let makespan = metrics
            .iter()
            .find(|m| m["metric"].as_str() == Some("attribution.makespan_us"))
            .expect("makespan row");
        assert!(makespan["median_ratio"].as_f64().unwrap() > 0.0);
        let wins = makespan["a_wins"].as_u64().unwrap()
            + makespan["b_wins"].as_u64().unwrap()
            + makespan["ties"].as_u64().unwrap();
        assert_eq!(wins, 3, "each seed contributes one paired outcome");
    }

    #[test]
    fn compare_rejects_files_and_io_flags() {
        let err = call(&["compare", "a.json", "b.json", "--seeds", "2"]).unwrap_err();
        assert!(err.to_string().contains("unexpected argument"), "{err}");
        let err = call(&[
            "compare",
            "--config-a",
            "--requests 2 --metrics-out x.json",
            "--config-b",
            "--requests 2",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--metrics-out"), "{err}");
    }

    #[test]
    fn diff_compare_and_health_tuning_options_are_unknown() {
        for (line, flag) in [
            ("diff --config-a x --config-b y", "--config-a"),
            ("diff a.json b.json --seed 1", "--seed"),
            ("diff a.json b.json --seeds 2", "--seeds"),
            ("compare --config-a x --tolerance-pct 5", "--tolerance-pct"),
            ("compare --top 1", "--top"),
            ("compare --fail-on-regress", "--fail-on-regress"),
            (
                "simulate --health --health-audit-events 1",
                "--health-audit-events",
            ),
            ("simulate --health-uplink-util 1", "--health-uplink-util"),
            (
                "simulate --health-uplink-windows 1",
                "--health-uplink-windows",
            ),
            ("simulate --health-frag-windows 1", "--health-frag-windows"),
            (
                "simulate --health-queue-windows 1",
                "--health-queue-windows",
            ),
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let err = call(&args).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown option {flag}")),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn diff_warns_on_mismatched_seeds() {
        let (ap, a) = record_run("affinity_vc_diff_seed_a.json", &[]);
        let (bp, b) = tmp("affinity_vc_diff_seed_b.json");
        call(&[
            "simulate",
            "--requests",
            "5",
            "--maps",
            "4",
            "--seed",
            "12",
            "--window-us",
            "200000000",
            "--metrics-out",
            &b,
        ])
        .unwrap();
        // Different seeds: the diff still runs but warns.
        let out = call(&["diff", &a, &b]).unwrap();
        assert!(out.contains("warning: seeds differ"), "{out}");
        // Same file on both sides: no warning.
        let out = call(&["diff", &a, &a]).unwrap();
        assert!(!out.contains("warning:"), "{out}");
        std::fs::remove_file(ap).ok();
        std::fs::remove_file(bp).ok();
    }
}
