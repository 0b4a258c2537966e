//! Runs the whole binary in `--smoke` mode: every workload at 1/20 size,
//! every mode plus the traced child, one repetition each.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

fn ladder(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ladder"))
        .args(args)
        .output()
        .expect("run ladder")
}

fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
    doc.get(section)
        .and_then(Value::as_array)
        .expect(section)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The last line of standard output: the summary the contract asks for.
fn summary(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    let v: Value = serde_json::from_str(last).expect("summary is JSON");
    let keys: Vec<&str> = v
        .as_object()
        .expect("summary is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    v
}

fn metric_names(metrics: &Value) -> BTreeSet<String> {
    metrics
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_and_passes_its_checks() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ladder-smoke.json");
    let out = ladder(&["--smoke", "--json", json.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "ladder --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let s = summary(&out);
    assert_eq!(s.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(s.get("failed").and_then(Value::as_u64), Some(0));

    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&json).expect("read --json"))
        .expect("parse --json");
    let all: BTreeSet<String> = declared("end_to_end")
        .union(&declared("per_layer"))
        .cloned()
        .collect();
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let name = |w: &Value| {
        w.get("name")
            .and_then(Value::as_str)
            .expect("name")
            .to_string()
    };
    let names: Vec<String> = workloads.iter().map(name).collect();
    assert_eq!(names, ["steady", "wide", "backlog", "shuffle"]);
    for w in workloads {
        let name = name(w);
        assert_eq!(
            metric_names(w.get("metrics").expect("metrics")),
            all,
            "{name}"
        );
        assert_eq!(w.get("failed").and_then(Value::as_u64), Some(0), "{name}");
        assert!(
            w.get("attempted").and_then(Value::as_u64).unwrap_or(0) > 0,
            "{name}"
        );
        let m = |k: &str| {
            w.get("metrics")
                .and_then(|m| m.get(k))
                .and_then(|v| v.get("value"))
        };
        assert_eq!(
            m("cloudsim.replay_mismatches").and_then(Value::as_f64),
            Some(0.0)
        );
        assert!(
            m("obs.other_frac")
                .and_then(Value::as_f64)
                .expect("other_frac")
                < 0.05
        );
    }
}

/// One workload at a time, one kind of measurement: `--trace 0` reports the
/// end-to-end metrics only, `--trace 1` the per-layer ones.
#[test]
fn trace_flag_selects_end_to_end_or_per_layer_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = ladder(&[
            "--smoke",
            "--workload",
            "shuffle",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(out.status.success(), "--trace {trace}");
        let s = summary(&out);
        assert_eq!(
            metric_names(s.get("metrics").expect("metrics")),
            declared(section),
            "--trace {trace}"
        );
        assert!(s.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    }
}

#[test]
fn bad_arguments_fail_without_a_summary() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seed"]] {
        let out = ladder(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
