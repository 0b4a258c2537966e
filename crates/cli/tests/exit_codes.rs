//! Process-level tests: exit codes and stderr for failure paths, and
//! degenerate-run behaviour of `report --network` / `report --perf`.
//!
//! These spawn the real `affinity-vc` binary so they exercise exactly
//! what CI and shell scripts observe: exit status plus stream contents.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_affinity-vc"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary spawns")
}

fn tmp(name: &str) -> (PathBuf, String) {
    let path = std::env::temp_dir().join(name);
    let s = path.to_str().unwrap().to_string();
    (path, s)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn malformed_trace_file_exits_nonzero_with_context() {
    let (path, path_s) = tmp("affinity_vc_malformed_trace.json");
    std::fs::write(&path, "{ this is not json").unwrap();
    let out = run(&["report", "--trace", &path_s]);
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success(), "malformed trace must fail");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains(&path_s), "error must name the file: {err}");
}

#[test]
fn trace_with_wrong_shape_exits_nonzero() {
    // Valid JSON, but not a chrome trace document.
    let (path, path_s) = tmp("affinity_vc_wrongshape_trace.json");
    std::fs::write(&path, r#"{"hello": [1, 2, 3]}"#).unwrap();
    let out = run(&["report", "--trace", &path_s]);
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
    assert!(stderr(&out).contains(&path_s));
}

#[test]
fn malformed_trace_records_exit_one_naming_file_and_record() {
    // Each record is well-formed JSON the Chrome reader must refuse: an
    // overflowing `ts + dur` (a panic in a debug build before), and a
    // span with no `ts` (silently read as t=0 before).
    let cases = [
        (
            r#"{"ph":"X","name":"job","pid":0,"tid":0,"ts":18446744073709551615,"dur":10,"args":{}}"#,
            "overflows",
        ),
        (
            r#"{"ph":"X","name":"job","pid":0,"tid":0,"dur":10,"args":{}}"#,
            "`ts`",
        ),
    ];
    for (i, (record, what)) in cases.into_iter().enumerate() {
        let (path, path_s) = tmp(&format!("affinity_vc_bad_record_{i}.json"));
        std::fs::write(&path, format!(r#"{{"traceEvents":[{record}]}}"#)).unwrap();
        let out = run(&["report", "--trace", &path_s]);
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{record}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&path_s), "error must name the file: {err}");
        assert!(
            err.contains("traceEvents[0]") && err.contains(what),
            "{err}"
        );
    }
}

#[test]
fn missing_trace_file_exits_nonzero() {
    let out = run(&["report", "--trace", "/no/such/dir/trace.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("I/O error"), "{}", stderr(&out));
}

#[test]
fn request_trace_past_half_the_clock_exits_one_naming_file_and_request() {
    // A service time or an arrival near u64::MAX overflowed the sim
    // clock in a release build (exit 101); both are refused on load.
    for (case, arrival, service) in [
        ("service_time", 10, u64::MAX - 1),
        ("arrival", u64::MAX - 1, 1_000),
    ] {
        let (path, path_s) = tmp(&format!("affinity_vc_horizon_{case}.json"));
        let trace = format!(
            r#"[{{"id":0,"request":{{"counts":[1,0,0]}},"arrival":0,"service_time":1000}},
                {{"id":1,"request":{{"counts":[1,0,0]}},"arrival":{arrival},"service_time":{service}}}]"#
        );
        std::fs::write(&path, trace).unwrap();
        let out = run(&["simulate", "--service", "trace", "--trace", &path_s]);
        std::fs::remove_file(&path).ok();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{case}: {err}");
        assert!(err.contains(&path_s), "{case}: must name the file: {err}");
        assert!(
            err.contains("request 1"),
            "{case}: must name the request: {err}"
        );
    }
}

#[test]
fn corrupt_stream_line_exits_nonzero_with_line_number() {
    // A stream with a syntactically broken line must fail the replay
    // and name both the file and the offending line.
    let (path, path_s) = tmp("affinity_vc_corrupt_stream.jsonl");
    std::fs::write(
        &path,
        "{\"o\":\"c\",\"n\":\"a\",\"d\":1,\"t\":0,\"q\":1}\nnot json at all\n",
    )
    .unwrap();
    let out = run(&["report", "--stream", &path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains(&path_s), "error must name the file: {err}");
    assert!(err.contains("line 2"), "error must name the line: {err}");
}

#[test]
fn non_utf8_stream_line_exits_one_naming_file_and_line() {
    // The stream is read line by line, so a byte that is not UTF-8 is
    // an error on its own line, not a failure to read the whole file.
    let (path, path_s) = tmp("affinity_vc_non_utf8_stream.jsonl");
    let mut bytes = b"{\"o\":\"c\",\"n\":\"a\",\"d\":1}\n\n".to_vec();
    bytes.extend_from_slice(b"{\"o\":\"c\",\"n\":\"\xff\",\"d\":1}\n");
    std::fs::write(&path, bytes).unwrap();
    let out = run(&["report", "--stream", &path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains(&path_s), "error must name the file: {err}");
    assert!(err.contains("line 3"), "error must name the line: {err}");
}

#[test]
fn truncated_stream_exits_nonzero() {
    // Simulate a crash mid-write: record a real stream, then chop the
    // last line in half. The replay must reject it, not silently drop it.
    let (sp, sps) = tmp("affinity_vc_truncated_stream.jsonl");
    let sim = run(&[
        "simulate",
        "--requests",
        "3",
        "--maps",
        "4",
        "--stream-out",
        &sps,
    ]);
    assert!(sim.status.success(), "{}", stderr(&sim));
    let text = std::fs::read_to_string(&sp).unwrap();
    let trimmed = text.trim_end();
    let cut = trimmed.len() - trimmed.lines().last().unwrap().len() / 2;
    std::fs::write(&sp, &trimmed[..cut]).unwrap();
    let out = run(&["report", "--stream", &sps]);
    std::fs::remove_file(&sp).ok();
    assert_eq!(out.status.code(), Some(1), "truncated stream must fail");
    let err = stderr(&out);
    assert!(err.contains(&sps), "error must name the file: {err}");
}

#[test]
fn missing_stream_file_exits_nonzero() {
    let out = run(&["report", "--stream", "/no/such/dir/run.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("I/O error"), "{err}");
    assert!(err.contains("/no/such/dir/run.jsonl"), "{err}");
}

#[test]
fn diff_gate_trips_on_effort_counter_growth() {
    // A bigger run does more solver and DES work than a smaller one on
    // the same cloud: diffing a run against itself passes the gate, and
    // against the smaller baseline it fails on the effort counters.
    let (mp_a, mps_a) = tmp("affinity_vc_gate_small.json");
    let (mp_b, mps_b) = tmp("affinity_vc_gate_big.json");
    for (requests, maps, path) in [("3", "4", &mps_a), ("6", "8", &mps_b)] {
        let sim = run(&[
            "simulate",
            "--requests",
            requests,
            "--maps",
            maps,
            "--metrics-out",
            path,
        ]);
        assert!(sim.status.success(), "{}", stderr(&sim));
    }

    let pass = run(&["diff", &mps_a, &mps_a, "--fail-on-regress"]);
    assert_eq!(pass.status.code(), Some(0), "{}", stderr(&pass));
    assert!(
        stdout(&pass).contains("diff gate: PASS"),
        "{}",
        stdout(&pass)
    );

    let fail = run(&["diff", &mps_a, &mps_b, "--fail-on-regress"]);
    std::fs::remove_file(&mp_a).ok();
    std::fs::remove_file(&mp_b).ok();
    assert_eq!(fail.status.code(), Some(1), "bigger run must regress");
    let err = stderr(&fail);
    assert!(err.contains("diff gate: FAIL"), "{err}");
    assert!(err.contains("prof.solver.solves"), "{err}");
    assert!(err.contains("des.events_processed"), "{err}");
}

#[test]
fn report_network_and_perf_on_zero_flow_run() {
    // `--service trace` runs no MapReduce jobs: zero flows, zero link
    // traffic. Both summaries must render without panicking and report
    // exact zeros.
    let (tp, tps) = tmp("affinity_vc_deg_trace.json");
    let (mp, mps) = tmp("affinity_vc_deg_metrics.json");
    let sim = run(&[
        "simulate",
        "--requests",
        "2",
        "--service",
        "trace",
        "--trace-out",
        &tps,
        "--metrics-out",
        &mps,
    ]);
    assert!(sim.status.success(), "{}", stderr(&sim));

    let out = run(&[
        "report",
        "--trace",
        &tps,
        "--metrics",
        &mps,
        "--network",
        "--perf",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(v["network"]["links"].as_array().map(Vec::len), Some(0));
    assert_eq!(
        v["network"]["top_congested"].as_array().map(Vec::len),
        Some(0)
    );
    assert_eq!(v["perf"]["solver"]["solves"].as_u64(), Some(0));
    assert_eq!(v["perf"]["solver"]["flows"].as_u64(), Some(0));
    // Zero-flow runs still tile: breakdown sums to the recorded total.
    let total = v["perf"]["total_wall_us"].as_u64().unwrap();
    let sum: u64 = v["perf"]["breakdown"]
        .as_array()
        .unwrap()
        .iter()
        .map(|row| row["wall_us"].as_u64().unwrap())
        .sum();
    assert_eq!(sum, total, "breakdown must tile the total exactly");

    let text = run(&[
        "report",
        "--trace",
        &tps,
        "--metrics",
        &mps,
        "--network",
        "--perf",
    ]);
    std::fs::remove_file(&tp).ok();
    std::fs::remove_file(&mp).ok();
    assert!(text.status.success(), "{}", stderr(&text));
    let body = stdout(&text);
    assert!(body.contains("network — 0 link(s) with traffic"), "{body}");
    assert!(body.contains("0 solve(s)"), "{body}");
}

#[test]
fn report_network_and_perf_on_single_node_placement() {
    // One node: every map is node-local and shuffle crosses no link, so
    // the network section is empty even though the solver did run.
    let (tp, tps) = tmp("affinity_vc_deg1_trace.json");
    let (mp, mps) = tmp("affinity_vc_deg1_metrics.json");
    let sim = run(&[
        "simulate",
        "--requests",
        "2",
        "--racks",
        "1",
        "--nodes",
        "1",
        "--capacity",
        "8",
        "--maps",
        "2",
        "--trace-out",
        &tps,
        "--metrics-out",
        &mps,
    ]);
    assert!(sim.status.success(), "{}", stderr(&sim));
    let out = run(&[
        "report",
        "--trace",
        &tps,
        "--metrics",
        &mps,
        "--network",
        "--perf",
        "--json",
    ]);
    std::fs::remove_file(&tp).ok();
    std::fs::remove_file(&mp).ok();
    assert!(out.status.success(), "{}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(v["network"]["links"].as_array().map(Vec::len), Some(0));
    assert!(v["perf"]["solver"]["solves"].as_u64().unwrap() > 0);
    assert_eq!(v["perf"]["solver"]["links_touched"].as_u64(), Some(0));
}

#[test]
fn diff_missing_manifest_exits_one_with_line() {
    let (path, path_s) = tmp("affinity_vc_diff_nomani.json");
    std::fs::write(&path, "{\"counters\": {}}\n").unwrap();
    let out = run(&["diff", &path_s, &path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("manifest"), "{err}");
    assert!(err.contains("line 1"), "{err}");
}

#[test]
fn diff_corrupt_json_exits_one_naming_file_and_line() {
    let (path, path_s) = tmp("affinity_vc_diff_corrupt.json");
    std::fs::write(&path, "{\"counters\": {},\n  broken\n}\n").unwrap();
    let out = run(&["diff", &path_s, &path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains(&path_s), "error must name the file: {err}");
    assert!(err.contains("line "), "error must name the line: {err}");
}

#[test]
fn diff_topology_mismatch_exits_one_with_field_and_line() {
    // Same seed, different cloud shape: the runs are not comparable and
    // the refusal must name the differing manifest field with a line.
    let (bp, bps) = tmp("affinity_vc_diff_topo_a.json");
    let (cp, cps) = tmp("affinity_vc_diff_topo_b.json");
    for (racks, path) in [("3", &bps), ("2", &cps)] {
        let sim = run(&[
            "simulate",
            "--requests",
            "3",
            "--maps",
            "4",
            "--racks",
            racks,
            "--metrics-out",
            path,
        ]);
        assert!(sim.status.success(), "{}", stderr(&sim));
    }
    let out = run(&["diff", &bps, &cps]);
    std::fs::remove_file(&bp).ok();
    std::fs::remove_file(&cp).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("topology_digest"), "{err}");
    assert!(err.contains("line "), "{err}");
    assert!(err.contains("not comparable"), "{err}");
}

#[test]
fn diff_gate_trips_on_regression_with_greppable_verdict() {
    let (bp, bps) = tmp("affinity_vc_diff_gate_a.json");
    let (cp, cps) = tmp("affinity_vc_diff_gate_b.json");
    for (policy, path) in [("global", &bps), ("spread", &cps)] {
        let sim = run(&[
            "simulate",
            "--requests",
            "5",
            "--maps",
            "4",
            "--seed",
            "7",
            "--policy",
            policy,
            "--metrics-out",
            path,
        ]);
        assert!(sim.status.success(), "{}", stderr(&sim));
    }
    // Identity passes the gate...
    let ok = run(&["diff", &bps, &bps, "--fail-on-regress"]);
    assert_eq!(ok.status.code(), Some(0), "{}", stderr(&ok));
    assert!(stdout(&ok).contains("diff gate: PASS"), "{}", stdout(&ok));
    // ...and the degraded placement trips it.
    let out = run(&["diff", &bps, &cps, "--fail-on-regress"]);
    std::fs::remove_file(&bp).ok();
    std::fs::remove_file(&cp).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("diff gate: FAIL"), "{err}");
    assert!(err.contains("regression"), "{err}");
}

#[test]
fn out_of_range_rate_and_straggler_prob_exit_one_naming_flag() {
    // NaN would trip the arrival generator's assert and 1e-300 would
    // overflow the simulation clock, so both are refused up front.
    for line in [
        "simulate --requests 3 --rate nan",
        "simulate --requests 3 --rate 1e-300",
        "simulate --requests 3 --rate inf",
        "simulate --requests 3 --rate -2",
        "simulate-job --maps 4 --straggler-prob 2",
        "simulate-job --maps 4 --straggler-prob -1",
        "simulate-job --maps 4 --straggler-prob nan",
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let out = run(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{line}: {err}");
        assert!(err.contains(args[args.len() - 2]), "{line}: {err}");
    }
    for prob in ["0", "1"] {
        let out = run(&["simulate-job", "--maps", "4", "--straggler-prob", prob]);
        assert!(out.status.success(), "{prob}: {}", stderr(&out));
    }
}

#[test]
fn oversized_capacity_exits_one_naming_flag() {
    // capacity × max(nodes in the cloud, VM types) must fit in u32: the
    // placement index sums per node, per rack and per type in u32.
    for line in [
        "simulate --capacity 143165577 --service trace --requests 3",
        "simulate --capacity 4294967295 --service trace --requests 3",
        "place --capacity 4294967295 --request 1,1,1",
        "place --racks 1 --nodes 1 --capacity 1431655766 --request 1,1,1",
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let out = run(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{line}: {err}");
        assert!(err.contains("--capacity"), "{line}: {err}");
    }
    // The largest capacity the default 3 × 10-node cloud holds still runs.
    let out = run(&["place", "--capacity", "143165576", "--request", "1,1,1"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn report_metrics_without_counters_exits_one_naming_file() {
    // Read as a snapshot, a document without a `counters` object prints
    // all-zero sections and a passing consistency line.
    for (i, body) in ["[1,2]", "{}", r#"{"counters":[1]}"#]
        .into_iter()
        .enumerate()
    {
        let (path, path_s) = tmp(&format!("affinity_vc_not_metrics_{i}.json"));
        std::fs::write(&path, body).unwrap();
        let out = run(&["report", "--perf", "--network", "--metrics", &path_s]);
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{body}: {}", stdout(&out));
        let err = stderr(&out);
        assert!(err.contains(&path_s), "error must name the file: {err}");
        assert!(err.contains("counters"), "{err}");
    }
}
