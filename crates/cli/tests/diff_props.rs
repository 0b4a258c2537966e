//! Property tests for `vc diff` and the run manifest.
//!
//! Three invariants hold for *any* simulate configuration:
//!
//! 1. **Self-diff identity** — diffing a run document against itself
//!    reports zero improved and zero regressed metrics, and the gate
//!    passes.
//! 2. **Self-compare identity** — `vc compare` with the same config on
//!    both sides reports every metric as a tie on every seed, with a
//!    median B/A ratio of exactly 1.
//! 3. **Manifest stability** — re-running the same configuration with
//!    the same seed produces the same manifest digest (the manifest
//!    captures only deterministic inputs), and diffing the two runs
//!    finds no deterministic-counter deltas.

use proptest::prelude::*;
use serde_json::Value;

fn call(args: &[&str]) -> Result<String, vc_cli::ArgError> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    vc_cli::run(&v)
}

/// Unique temp path per test case so parallel cases don't collide.
fn tmp(tag: &str, case: u64) -> (std::path::PathBuf, String) {
    let path = std::env::temp_dir().join(format!("affinity_vc_diff_prop_{tag}_{case}.json"));
    let s = path.to_str().unwrap().to_string();
    (path, s)
}

/// Record one simulate run document and return the parsed JSON.
fn record(path: &str, requests: usize, seed: u64, maps: usize, policy: &str, window_s: u64) {
    let requests = requests.to_string();
    let seed_s = seed.to_string();
    let maps = maps.to_string();
    let window_us = (window_s * 1_000_000_000).to_string();
    let mut args = vec![
        "simulate",
        "--requests",
        &requests,
        "--seed",
        &seed_s,
        "--maps",
        &maps,
        "--policy",
        policy,
        "--metrics-out",
        path,
    ];
    if window_s > 0 {
        args.extend_from_slice(&["--window-us", &window_us]);
    }
    call(&args).unwrap();
}

fn read_doc(path: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(path).expect("run document written");
    serde_json::from_str(&text).expect("valid JSON")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `vc diff run.json run.json` is the identity: nothing improves,
    /// nothing regresses, the gate passes.
    #[test]
    fn self_diff_is_identity(
        requests in 2usize..8,
        seed in any::<u64>(),
        maps in 2usize..8,
        spread in any::<bool>(),
        window_s in 0u64..3,
    ) {
        let case = seed.wrapping_mul(31).wrapping_add(requests as u64);
        let (path, s) = tmp("self", case);
        let policy = if spread { "spread" } else { "global" };
        record(&s, requests, seed, maps, policy, window_s);
        let out = call(&["diff", &s, &s, "--fail-on-regress", "--json"]).unwrap();
        std::fs::remove_file(&path).ok();
        let doc: Value = serde_json::from_str(&out).unwrap();
        prop_assert_eq!(doc["summary"]["improved"].as_u64(), Some(0));
        prop_assert_eq!(doc["summary"]["regressed"].as_u64(), Some(0));
        prop_assert_eq!(doc["gate"].as_str(), Some("pass"));
        // The explanation has nothing to explain.
        prop_assert_eq!(doc["explanation"]["makespan_delta_us"].as_i64(), Some(0));
    }

    /// `vc compare --config-a C --config-b C` is the identity: every row
    /// is all ties with median ratio 1.000 (`-` only for a value that is
    /// never positive on side A).
    #[test]
    fn self_compare_is_identity(
        requests in 2usize..6,
        seed in 0u64..1_000,
        seeds in 1usize..3,
        maps in 2usize..6,
        spread in any::<bool>(),
    ) {
        let policy = if spread { "spread" } else { "global" };
        let config = format!("--requests {requests} --maps {maps} --policy {policy}");
        let (seed_s, seeds_s) = (seed.to_string(), seeds.to_string());
        let out = call(&[
            "compare", "--config-a", &config, "--config-b", &config,
            "--seed", &seed_s, "--seeds", &seeds_s,
        ]).unwrap();
        let mut lines = out.lines().skip_while(|l| !l.contains("median(B/A)"));
        prop_assert!(lines.next().is_some(), "no table: {}", out);
        let mut rows = 0;
        for line in lines {
            let cols: Vec<&str> = line.split_whitespace().collect();
            prop_assert_eq!(cols.len(), 5, "{}", line);
            prop_assert!(cols[1] == "1.000" || cols[1] == "-", "{}", line);
            prop_assert_eq!(&cols[2..], &["0", "0", seeds_s.as_str()][..], "{}", line);
            rows += 1;
        }
        prop_assert!(rows > 0, "no metric rows: {}", out);
        prop_assert!(!out.contains("warning:"), "{}", out);
    }

    /// Same config + same seed re-run: identical manifest digest and no
    /// deterministic-counter deltas (only advisory wall-clock metrics
    /// may move between the two processes).
    #[test]
    fn manifest_digest_stable_across_reruns(
        requests in 2usize..8,
        seed in any::<u64>(),
        maps in 2usize..8,
    ) {
        let case = seed.wrapping_mul(37).wrapping_add(maps as u64);
        let (pa, sa) = tmp("rerun_a", case);
        let (pb, sb) = tmp("rerun_b", case);
        record(&sa, requests, seed, maps, "global", 0);
        record(&sb, requests, seed, maps, "global", 0);
        let da = read_doc(&pa);
        let db = read_doc(&pb);
        prop_assert_eq!(
            da["manifest"]["digest"].as_str().unwrap(),
            db["manifest"]["digest"].as_str().unwrap()
        );
        let out = call(&["diff", &sa, &sb, "--json"]).unwrap();
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        let doc: Value = serde_json::from_str(&out).unwrap();
        // Every non-advisory delta must be an exact match.
        for section in ["counters", "gauges", "histograms", "alerts"] {
            for d in doc[section].as_array().unwrap() {
                if matches!(d["advisory"], Value::Bool(true)) {
                    continue;
                }
                prop_assert_eq!(
                    d["verdict"].as_str(),
                    Some("neutral"),
                    "deterministic metric {} drifted across re-runs",
                    d["name"].as_str().unwrap_or("?")
                );
                prop_assert!(
                    (d["baseline"].as_f64().unwrap() - d["candidate"].as_f64().unwrap()).abs()
                        == 0.0
                );
            }
        }
        prop_assert_eq!(doc["summary"]["regressed"].as_u64(), Some(0));
    }
}
