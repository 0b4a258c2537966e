//! The `report` analyzers: each section of `vc report` as a pure
//! function of a [`TraceDump`] and/or a metrics document, returning the
//! section's `--json` value and its text. [`render`] joins the sections
//! a command asked for into one of the two forms.

use serde_json::{json, Value};

use crate::critical_path::{Category, JobAttribution, CATEGORIES};
use crate::health::{Severity, ALERT_PREFIX};
use crate::metrics::{LinkTotals, SnapshotView};
use crate::recorder::{AttrValue, EventRecord};
use crate::timeseries::{TimeSeriesSet, TS_PREFIX};
use crate::trace::TraceDump;

/// One report section: its `--json` value and its text.
pub type Section = (Value, String);

/// Join `(key, section)` pairs into the report: a JSON object keyed by
/// section when `as_json`, else the texts in order.
pub fn render(sections: Vec<(&str, Section)>, as_json: bool) -> String {
    if as_json {
        let entries = sections
            .into_iter()
            .map(|(key, (json, _))| (key.to_string(), json))
            .collect();
        Value::Object(entries).to_string()
    } else {
        sections.into_iter().map(|(_, (_, text))| text).collect()
    }
}

/// The per-job critical-path table: where each job's makespan went.
pub fn critical_path(jobs: &[JobAttribution]) -> Section {
    let json = Value::Array(jobs.iter().map(JobAttribution::to_json).collect());
    let mut out = String::new();
    out.push_str(&format!(
        "critical-path attribution — {} job(s)\n",
        jobs.len()
    ));
    if !jobs.is_empty() {
        // Abbreviated category headers so the table stays under 100 cols;
        // the full names are in the JSON output and docs/metrics-schema.md.
        let short = |cat: Category| match cat {
            Category::Map => "map",
            Category::StragglerSlack => "straggler",
            Category::ShuffleSerialisation => "shuf-ser",
            Category::ShuffleNetworkWait => "shuf-net",
            Category::Reduce => "reduce",
            Category::SchedulerWait => "sched",
        };
        out.push_str(&format!(
            "{:>6} {:>6} {:>10} {:>10}",
            "track", "dc", "start_s", "makespan_s"
        ));
        for cat in CATEGORIES {
            out.push_str(&format!(" {:>10}", short(cat)));
        }
        out.push('\n');
        for job in jobs {
            let makespan = job.makespan_us();
            out.push_str(&format!(
                "{:>6} {:>6} {:>10.2} {:>10.2}",
                job.track,
                job.distance
                    .map_or_else(|| "-".to_string(), |d| d.to_string()),
                job.start_us as f64 / 1e6,
                makespan as f64 / 1e6,
            ));
            for cat in CATEGORIES {
                let us = job.total_us(cat);
                let pct = if makespan > 0 {
                    100.0 * us as f64 / makespan as f64
                } else {
                    0.0
                };
                out.push_str(&format!(" {pct:>9.1}%"));
            }
            out.push('\n');
        }
    }
    (json, out)
}

/// The placement decision audit: seed-scan work, bound gaps and
/// Theorem-2 exchanges, from the `placement.*_audit` events.
pub fn placement(dump: &TraceDump) -> Section {
    let audits = |name: &str| -> Vec<&EventRecord> {
        dump.events.iter().filter(|e| e.name == name).collect()
    };
    let scan_audits = audits("placement.scan_audit");
    let exchange_audits = audits("placement.exchange_audit");
    let event_objs = |events: &[&EventRecord]| {
        let objs = events.iter().map(|e| {
            let mut entries = vec![("t_us".to_string(), Value::U64(e.t_us))];
            entries.extend(e.attrs.iter().map(|(k, v)| (k.to_string(), v.to_json())));
            Value::Object(entries)
        });
        Value::Array(objs.collect())
    };
    let json = json!({
        "scan_audits": event_objs(&scan_audits),
        "exchange_audits": event_objs(&exchange_audits),
    });
    let sum = |events: &[&EventRecord], key: &str| -> u64 {
        events
            .iter()
            .map(|e| e.attr(key).and_then(AttrValue::as_u64).unwrap_or(0))
            .sum()
    };

    let mut out = format!(
        "\nplacement — {} decision(s), {} exchange batch(es)\n",
        scan_audits.len(),
        exchange_audits.len()
    );
    if !scan_audits.is_empty() {
        let sum = |key: &str| sum(&scan_audits, key);
        let gap_total = sum("bound_gap");
        out.push_str(&format!(
            "  seeds: {} total — {} scanned, {} pruned, {} aborted, {} tied; \
             mean bound gap {:.2}\n",
            sum("seeds_total"),
            sum("seeds_scanned"),
            sum("seeds_pruned"),
            sum("seeds_aborted"),
            sum("seeds_tied"),
            gap_total as f64 / scan_audits.len() as f64,
        ));
    }
    if !exchange_audits.is_empty() {
        let sum = |key: &str| sum(&exchange_audits, key);
        out.push_str(&format!(
            "  exchanges: {} swaps over {} passes, distance saved {} ({} → {})\n",
            sum("swaps"),
            sum("passes"),
            sum("saved"),
            sum("online_distance"),
            sum("optimized_distance"),
        ));
    }
    (json, out)
}

/// The `--metrics` document as given (`null` without one), and its
/// `placement.*` counters as text.
pub fn metrics_counters(metrics: Option<&Value>) -> Section {
    let Some(metrics) = metrics else {
        return (Value::Null, String::new());
    };
    let mut out = String::new();
    let placement: Vec<_> = SnapshotView(metrics)
        .section("counters")
        .iter()
        .filter(|(k, _)| k.starts_with("placement."))
        .collect();
    if !placement.is_empty() {
        out.push_str("\ncounters (--metrics):\n");
        for (k, v) in placement {
            out.push_str(&format!("  {k} = {v}\n"));
        }
    }
    (metrics.clone(), out)
}

/// The `--network` hot-spot summary: per-rack uplink peaks, top-K
/// congested links, the shuffle-byte locality split, and the exactness
/// cross-check between link-level and engine-level shuffle accounting.
pub fn network(metrics: &Value) -> Section {
    let snapshot = SnapshotView(metrics);
    let links = snapshot.links();

    let uplinks: Vec<&LinkTotals> = links
        .iter()
        .filter(|(name, _)| name.starts_with("rack") && name.ends_with(".up"))
        .map(|(_, l)| l)
        .collect();
    let uplink_peak = uplinks.iter().map(|l| l.peak_util).fold(0.0, f64::max);
    let uplink_mean_peak = if uplinks.is_empty() {
        0.0
    } else {
        uplinks.iter().map(|l| l.peak_util).sum::<f64>() / uplinks.len() as f64
    };
    let uplink_bytes: u64 = uplinks.iter().map(|l| l.bytes).sum();
    let uplink_shuffle_bytes: u64 = uplinks.iter().map(|l| l.shuffle_bytes).sum();

    let mut congested: Vec<(&String, &LinkTotals)> = links.iter().collect();
    congested.sort_by(|(a_name, a), (b_name, b)| {
        b.peak_util
            .total_cmp(&a.peak_util)
            .then_with(|| b.bytes.cmp(&a.bytes))
            .then_with(|| a_name.cmp(b_name))
    });
    congested.truncate(5);

    // Shuffle locality split as the engine counted it, fetch by fetch.
    let node_local = snapshot.counter("mr.shuffle.node_local_bytes");
    let rack_local = snapshot.counter("mr.shuffle.rack_local_bytes");
    let cross_rack = snapshot.counter("mr.shuffle.remote_bytes");

    // Exactness cross-check: every cross-node shuffle byte enters its
    // destination node exactly once, and node-local shuffle crosses no
    // link at all, so the node-rx shuffle integrals must equal the
    // engine's rack-local + cross-rack total *exactly* (both are integer
    // byte counts attributed at flow completion, not rate integrals).
    let link_rx_shuffle: u64 = links
        .iter()
        .filter(|(name, _)| name.starts_with("node") && name.ends_with(".rx"))
        .map(|(_, l)| l.shuffle_bytes)
        .sum();
    let engine_cross_node = rack_local + cross_rack;
    let matches = link_rx_shuffle == engine_cross_node;

    let link_objs: Vec<Value> = links
        .iter()
        .map(|(name, l)| {
            json!({
                "link": name.as_str(),
                "bytes": l.bytes,
                "shuffle_bytes": l.shuffle_bytes,
                "busy_us": l.busy_us,
                "binding_events": l.binding_events,
                "peak_util": l.peak_util,
            })
        })
        .collect();
    let congested_objs: Vec<Value> = congested
        .iter()
        .map(|(name, l)| json!({"link": name.as_str(), "peak_util": l.peak_util}))
        .collect();
    let json = json!({
        "links": link_objs,
        "rack_uplinks": {
            "count": uplinks.len() as u64,
            "peak_util": uplink_peak,
            "mean_peak_util": uplink_mean_peak,
            "bytes": uplink_bytes,
            "shuffle_bytes": uplink_shuffle_bytes,
        },
        "top_congested": congested_objs,
        "shuffle_split": {
            "node_local_bytes": node_local,
            "rack_local_bytes": rack_local,
            "cross_rack_bytes": cross_rack,
        },
        "consistency": {
            "link_rx_shuffle_bytes": link_rx_shuffle,
            "engine_cross_node_shuffle_bytes": engine_cross_node,
            "shuffle_rx_matches_engine": matches,
        },
    });

    let mut text = String::new();
    text.push_str(&format!(
        "\nnetwork — {} link(s) with traffic\n",
        links.len()
    ));
    text.push_str(&format!(
        "  rack uplinks ({}): peak util {:.2}, mean peak {:.2}, {} shuffle B of {} B total\n",
        uplinks.len(),
        uplink_peak,
        uplink_mean_peak,
        uplink_shuffle_bytes,
        uplink_bytes,
    ));
    let total_shuffle = node_local + rack_local + cross_rack;
    let cross_pct = if total_shuffle > 0 {
        100.0 * cross_rack as f64 / total_shuffle as f64
    } else {
        0.0
    };
    text.push_str(&format!(
        "  shuffle split: node-local {node_local} B / in-rack {rack_local} B / \
         cross-rack {cross_rack} B ({cross_pct:.0}% cross-rack)\n"
    ));
    if !congested.is_empty() {
        text.push_str("  top congested links:\n");
        for (name, l) in &congested {
            text.push_str(&format!(
                "    {:<14} peak {:.2}  busy {:>8.3}s  {:>14} B  binding {}\n",
                name,
                l.peak_util,
                l.busy_us as f64 / 1e6,
                l.bytes,
                l.binding_events,
            ));
        }
    }
    text.push_str(&format!(
        "  consistency: link node-rx shuffle {} B {} engine cross-node shuffle {} B\n",
        link_rx_shuffle,
        if matches { "==" } else { "!=" },
        engine_cross_node,
    ));
    (json, text)
}

/// The `--perf` self-profile summary: where the *simulator's* wall-clock
/// went (by `prof.phase.*`), fair-share solver effort, DES event volume,
/// and peak RSS. The exclusive breakdown tiles the total exactly by
/// construction: `serve` and `des_pop` are disjoint slices of
/// `cloudsim_run`, `mr_service` is the slice of `serve` inside the
/// MapReduce engine, and `other` is the remainder. A standalone
/// `simulate-job` run has no queue loop; its total is `mr_job`.
pub fn perf(metrics: &Value) -> Section {
    let snapshot = SnapshotView(metrics);
    let phase_wall = |name: &str| snapshot.counter(&format!("prof.phase.{name}.wall_us"));
    let phase_calls = |name: &str| snapshot.counter(&format!("prof.phase.{name}.calls"));

    let run_wall = phase_wall("cloudsim_run");
    let serve = phase_wall("serve");
    let mr_service = phase_wall("mr_service");
    let des_pop = phase_wall("des_pop");
    let standalone = phase_calls("cloudsim_run") == 0;
    let (total, total_phase) = if standalone {
        (phase_wall("mr_job"), "mr_job")
    } else {
        (run_wall, "cloudsim_run")
    };

    // Exclusive components. Saturating arithmetic keeps degenerate and
    // partially-profiled snapshots at exact zeros instead of underflowing.
    let breakdown: Vec<(&str, u64)> = if standalone {
        vec![("mapreduce", total), ("other", 0)]
    } else {
        vec![
            ("placement/queue", serve.saturating_sub(mr_service)),
            ("mapreduce", mr_service),
            ("des-pop", des_pop),
            ("other", total.saturating_sub(serve).saturating_sub(des_pop)),
        ]
    };

    let phases: Vec<Value> = crate::prof::PHASES
        .iter()
        .filter(|ph| phase_calls(ph.name) > 0)
        .map(|ph| {
            json!({
                "phase": ph.name,
                "calls": phase_calls(ph.name),
                "wall_us": phase_wall(ph.name),
            })
        })
        .collect();
    let num_phases = phases.len();

    let solves = snapshot.counter("prof.solver.solves");
    let flows = snapshot.counter("prof.solver.flows");
    let iterations = snapshot.counter("prof.solver.iterations");
    let links_touched = snapshot.counter("prof.solver.links_touched");
    let avg_flows = if solves > 0 {
        flows as f64 / solves as f64
    } else {
        0.0
    };
    let avg_iters = if solves > 0 {
        iterations as f64 / solves as f64
    } else {
        0.0
    };
    let peak_flows = snapshot.gauge("prof.solver.peak_flows").unwrap_or(0.0);
    let events = snapshot.counter("des.events_processed");
    let peak_rss_kb = snapshot.gauge("prof.rss_peak_kb");

    let pct = |us: u64| -> f64 {
        if total > 0 {
            100.0 * us as f64 / total as f64
        } else {
            0.0
        }
    };
    let breakdown_objs: Vec<Value> = breakdown
        .iter()
        .map(|(name, us)| json!({"component": *name, "wall_us": *us, "pct": pct(*us)}))
        .collect();
    let json = json!({
        "total_wall_us": total,
        "total_phase": total_phase,
        "breakdown": breakdown_objs,
        "phases": phases,
        "solver": {
            "solves": solves,
            "flows": flows,
            "iterations": iterations,
            "links_touched": links_touched,
            "completion_batches": snapshot.counter("prof.solver.completion_batches"),
            "batch_flows": snapshot.counter("prof.solver.batch_flows"),
            "flows_skipped": snapshot.counter("prof.solver.flows_skipped"),
            "wall_us": snapshot.counter("prof.solver.wall_us"),
            "avg_flows_per_solve": avg_flows,
            "avg_iterations_per_solve": avg_iters,
            "peak_flows": peak_flows,
            "peak_iterations": snapshot.gauge("prof.solver.peak_iterations").unwrap_or(0.0),
        },
        "des": { "events_processed": events },
        "peak_rss_kb": peak_rss_kb,
    });

    let mut text = String::new();
    text.push_str(&format!(
        "\nperf — simulator self-profile ({num_phases} phase(s) recorded)\n"
    ));
    text.push_str(&format!(
        "  total wall-clock: {:.3}s ({total_phase})\n",
        total as f64 / 1e6
    ));
    for (name, us) in &breakdown {
        text.push_str(&format!(
            "    {:<16} {:>9.3}s {:>5.1}%\n",
            name,
            *us as f64 / 1e6,
            pct(*us),
        ));
    }
    let flows_skipped = snapshot.counter("prof.solver.flows_skipped");
    text.push_str(&format!(
        "  solver: {solves} solve(s), {flows} flow(s) (avg {avg_flows:.1}/solve, peak {peak_flows:.0}), \
         {iterations} iteration(s), {links_touched} link(s) touched, {flows_skipped} flow(s) skipped\n"
    ));
    text.push_str(&format!("  des: {events} event(s) processed\n"));
    if let Some(kb) = peak_rss_kb {
        text.push_str(&format!("  peak RSS: {:.1} MB\n", kb / 1024.0));
    }
    (json, text)
}

/// The `--timeline` view of the windowed `ts.*` series.
pub fn timeline(set: &TimeSeriesSet) -> Section {
    let json = json!({
        "window_count": set.window_count() as u64,
        "series": set.to_json(),
    });
    (json, timeline_text(set))
}

/// The `--health` summary: the watchdog's `alert.*` events grouped by
/// rule, plus the offline attribution-tiling audit over `jobs`. With a
/// `gate`, any rule at or above that severity is an `Err` carrying the
/// failure message; otherwise the section records the pass.
pub fn health(
    dump: &TraceDump,
    jobs: &[JobAttribution],
    gate: Option<Severity>,
) -> Result<Section, String> {
    let rows = health_rows(dump, jobs);
    let total: u64 = rows.iter().map(|r| r.count).sum();
    let mut entries = vec![
        ("total".to_string(), Value::U64(total)),
        (
            "alerts".to_string(),
            Value::Array(rows.iter().map(HealthRow::to_json).collect()),
        ),
    ];
    let mut text = health_text(&rows);
    if let Some(threshold) = gate {
        let tripped: Vec<&HealthRow> = rows.iter().filter(|r| r.severity >= threshold).collect();
        if !tripped.is_empty() {
            let total: u64 = tripped.iter().map(|r| r.count).sum();
            let rules: Vec<String> = tripped
                .iter()
                .map(|r| format!("{} ({}, x{})", r.rule, r.severity, r.count))
                .collect();
            return Err(format!(
                "health gate: FAIL — {total} alert(s) at or above {threshold}: {}",
                rules.join(", ")
            ));
        }
        entries.push(("gate".to_string(), Value::Str("pass".to_string())));
        text.push_str(&format!(
            "health gate: PASS — no alerts at or above {threshold}\n"
        ));
    }
    Ok((Value::Object(entries), text))
}

/// One rule's aggregated alert history from a `--health` report: how
/// often it fired, when, and the worst window it pointed at.
struct HealthRow {
    rule: String,
    severity: Severity,
    subsystem: String,
    count: u64,
    first_us: u64,
    last_us: u64,
    /// `(value, window_edge_us)` of the highest-valued alert, when the
    /// rule attaches a numeric `value` (detector rules always do).
    worst: Option<(f64, u64)>,
}

impl HealthRow {
    fn to_json(&self) -> Value {
        let mut entries = vec![
            ("rule".to_string(), Value::Str(self.rule.clone())),
            (
                "severity".to_string(),
                Value::Str(self.severity.to_string()),
            ),
            ("subsystem".to_string(), Value::Str(self.subsystem.clone())),
            ("count".to_string(), Value::U64(self.count)),
            ("first_t_us".to_string(), Value::U64(self.first_us)),
            ("last_t_us".to_string(), Value::U64(self.last_us)),
        ];
        if let Some((value, edge)) = self.worst {
            entries.push(("worst_value".to_string(), Value::F64(value)));
            entries.push(("worst_window_edge_us".to_string(), Value::U64(edge)));
        }
        Value::Object(entries)
    }
}

/// Group the trace's `alert.*` events by rule and append the offline
/// attribution-tiling audit: each analysed job's critical path must
/// tile its makespan exactly (1 µs rounding tolerance), the one
/// invariant that can only be checked after analysis.
fn health_rows(dump: &TraceDump, jobs: &[JobAttribution]) -> Vec<HealthRow> {
    let mut rows: Vec<HealthRow> = Vec::new();
    for e in dump
        .events
        .iter()
        .filter(|e| e.name.starts_with(ALERT_PREFIX))
    {
        let attr_str = |key: &str| e.attr(key).and_then(AttrValue::as_str);
        let rule = match attr_str("rule") {
            Some(r) => r.to_string(),
            None => e
                .name
                .strip_prefix(ALERT_PREFIX)
                .unwrap_or(e.name)
                .to_string(),
        };
        let severity = attr_str("severity")
            .and_then(Severity::parse)
            .unwrap_or(Severity::Warn);
        let value = e.attr("value").and_then(AttrValue::as_f64);
        let edge = e
            .attr("window_edge_us")
            .and_then(AttrValue::as_u64)
            .unwrap_or(e.t_us);
        match rows.iter_mut().find(|r| r.rule == rule) {
            Some(row) => {
                row.count += 1;
                row.first_us = row.first_us.min(e.t_us);
                row.last_us = row.last_us.max(e.t_us);
                if let Some(v) = value {
                    let better = match row.worst {
                        Some((w, _)) => v > w,
                        None => true,
                    };
                    if better {
                        row.worst = Some((v, edge));
                    }
                }
            }
            None => rows.push(HealthRow {
                rule,
                severity,
                subsystem: attr_str("subsystem").unwrap_or("?").to_string(),
                count: 1,
                first_us: e.t_us,
                last_us: e.t_us,
                worst: value.map(|v| (v, edge)),
            }),
        }
    }

    let mut tiling: Option<HealthRow> = None;
    for job in jobs {
        let gap = job.makespan_us().abs_diff(job.attributed_us());
        if gap <= 1 {
            continue;
        }
        let row = tiling.get_or_insert_with(|| HealthRow {
            rule: "attribution_tiling".to_string(),
            severity: Severity::Critical,
            subsystem: "obs".to_string(),
            count: 0,
            first_us: job.start_us,
            last_us: job.start_us,
            worst: None,
        });
        row.count += 1;
        row.first_us = row.first_us.min(job.start_us);
        row.last_us = row.last_us.max(job.start_us);
        let better = match row.worst {
            Some((w, _)) => gap as f64 > w,
            None => true,
        };
        if better {
            row.worst = Some((gap as f64, job.end_us));
        }
    }
    rows.extend(tiling);

    // Severest and loudest first.
    rows.sort_by(|a, b| b.severity.cmp(&a.severity).then(b.count.cmp(&a.count)));
    rows
}

/// The `report --health` table: one row per alert rule, worst-window
/// pointer in the last column.
fn health_text(rows: &[HealthRow]) -> String {
    let mut out = String::new();
    let total: u64 = rows.iter().map(|r| r.count).sum();
    out.push_str(&format!(
        "\nhealth — {} alert(s) across {} rule(s)\n",
        total,
        rows.len()
    ));
    if rows.is_empty() {
        out.push_str("  no alerts; every audited invariant and detector stayed quiet\n");
        return out;
    }
    out.push_str(&format!(
        "{:>24} {:>8} {:>10} {:>6} {:>9} {:>9}  {}\n",
        "rule", "severity", "subsystem", "count", "first_s", "last_s", "worst"
    ));
    for r in rows {
        let worst = r
            .worst
            .map(|(v, edge)| format!("{} @ {:.2}s", fmt_ts_val(v), edge as f64 / 1e6))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:>24} {:>8} {:>10} {:>6} {:>9.2} {:>9.2}  {}\n",
            r.rule,
            r.severity,
            r.subsystem,
            r.count,
            r.first_us as f64 / 1e6,
            r.last_us as f64 / 1e6,
            worst,
        ));
    }
    out
}

/// One timeline cell: integers render bare, everything else at four
/// decimal places so fill/frag/util fractions stay readable.
pub fn fmt_ts_val(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// The `report --timeline` table: one row per window edge (shown in
/// seconds), one column per `ts.*` series with the prefix stripped,
/// `-` where a series has no sample at that edge.
fn timeline_text(set: &TimeSeriesSet) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\ntimeline — {} window(s), {} series\n",
        set.window_count(),
        set.series.len()
    ));
    if set.is_empty() {
        out.push_str("  (no ts.* samples; run simulate with --window-us <N>)\n");
        return out;
    }
    let edges = set.edges();
    let names: Vec<&String> = set.series.keys().collect();
    // Pre-render every cell so column widths can be computed.
    let headers: Vec<&str> = names
        .iter()
        .map(|n| n.strip_prefix(TS_PREFIX).unwrap_or(n))
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(edges.len());
    for &edge in &edges {
        let mut row = vec![format!("{:.2}", edge as f64 / 1e6)];
        for name in &names {
            let points = &set.series[*name];
            let cell = points
                .binary_search_by_key(&edge, |&(t, _)| t)
                .map(|pos| fmt_ts_val(points[pos].1))
                .unwrap_or_else(|_| "-".to_string());
            row.push(cell);
        }
        rows.push(row);
    }
    let mut widths: Vec<usize> = std::iter::once("t_s")
        .chain(headers.iter().copied())
        .map(str::len)
        .collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    out.push_str(&format!("  {:>w$}", "t_s", w = widths[0]));
    for (h, w) in headers.iter().zip(&widths[1..]) {
        out.push_str(&format!(" {h:>w$}", w = *w));
    }
    out.push('\n');
    for row in &rows {
        out.push_str("  ");
        for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{cell:>w$}", w = *w));
        }
        out.push('\n');
    }
    out
}
