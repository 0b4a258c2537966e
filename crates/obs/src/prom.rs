//! Prometheus text-exposition encoding of a [`MetricsSnapshot`].
//!
//! The simulator's dotted metric names are sanitized to the Prometheus
//! grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`) by mapping every other byte to
//! `_`, so `prof.phase.seed_scan.wall_us` becomes
//! `prof_phase_seed_scan_wall_us`. Counters and gauges export verbatim;
//! the power-of-two histograms export in the standard cumulative form —
//! one `_bucket{le="…"}` series per non-empty bucket (the `le` label is
//! the bucket's inclusive upper bound `2^i − 1`), a closing
//! `le="+Inf"`, plus `_sum` and `_count`.
//!
//! Output follows the text exposition format version 0.0.4: one
//! `# TYPE` line per family, `\n` separators, trailing newline.

use crate::metrics::MetricsSnapshot;

/// Sanitize a dotted metric name to a legal Prometheus metric name.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Inclusive upper bound of histogram bucket `i` (pairs with
/// [`bucket_lower_bound`]): bucket 0 holds only 0, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i − 1]`.
fn bucket_upper_bound(i: u32) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Encode a snapshot plus windowed `ts.*` time-series in the Prometheus
/// text exposition format. Each windowed
/// sample exports as `name{window="K",t_us="E"} v`, where `K` is the
/// window index for the edge `E` (see
/// [`WindowSampler::window_index`](crate::timeseries::WindowSampler::window_index)).
/// A plain gauge whose name also has a windowed series is skipped —
/// `counter_sample` mirrors every sample into a gauge, and exporting
/// both would collide on the same family with inconsistent labels.
pub fn to_prometheus_windowed(
    snap: &MetricsSnapshot,
    window_us: u64,
    series: &crate::timeseries::TimeSeriesSet,
) -> String {
    let mut out = String::new();
    // The watchdog's `alert.total.<severity>.<rule>` counters export as
    // one labelled `alert_total` family so dashboards can aggregate and
    // slice by either dimension; everything else exports verbatim.
    let mut alert_total_typed = false;
    for (name, v) in &snap.counters {
        if let Some(rest) = name.strip_prefix(crate::health::ALERT_TOTAL_PREFIX) {
            if let Some((severity, rule)) = rest.split_once('.') {
                if !alert_total_typed {
                    out.push_str("# TYPE alert_total counter\n");
                    alert_total_typed = true;
                }
                out.push_str(&format!(
                    "alert_total{{severity=\"{}\",rule=\"{}\"}} {v}\n",
                    sanitize_name(severity),
                    sanitize_name(rule)
                ));
                continue;
            }
        }
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        if series.series.contains_key(name.as_str()) {
            continue;
        }
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, points) in &series.series {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n"));
        for &(edge_us, value) in points {
            let window = if window_us > 0 {
                crate::timeseries::WindowSampler::window_index(window_us, edge_us)
            } else {
                0
            };
            out.push_str(&format!(
                "{n}{{window=\"{window}\",t_us=\"{edge_us}\"}} {value}\n"
            ));
        }
    }
    for (name, h) in &snap.histograms {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cum = 0u64;
        for &(idx, count) in &h.buckets {
            cum += count;
            out.push_str(&format!(
                "{n}_bucket{{le=\"{}\"}} {cum}\n",
                bucket_upper_bound(idx)
            ));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n", h.sum));
        out.push_str(&format!("{n}_count {}\n", h.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{bucket_lower_bound, MetricsRegistry};

    #[test]
    fn sanitizes_names() {
        assert_eq!(
            sanitize_name("prof.phase.seed_scan.calls"),
            "prof_phase_seed_scan_calls"
        );
        assert_eq!(
            sanitize_name("net.link.node0.rx.bytes"),
            "net_link_node0_rx_bytes"
        );
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(sanitize_name("a:b_c"), "a:b_c");
    }

    #[test]
    fn bucket_bounds_pair_up() {
        for i in 0..65u32 {
            assert!(bucket_upper_bound(i) >= bucket_lower_bound(i));
            if i > 0 && i < 64 {
                assert_eq!(bucket_upper_bound(i) + 1, bucket_lower_bound(i + 1));
            }
        }
    }

    #[test]
    fn encodes_all_kinds() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("des.events_processed", 42);
        reg.gauge_set("prof.rss_peak_kb", 1024.0);
        reg.histogram_record("mr.job_runtime_us", 0);
        reg.histogram_record("mr.job_runtime_us", 5);
        reg.histogram_record("mr.job_runtime_us", 5);
        let text = to_prometheus_windowed(&reg.snapshot(), 0, &Default::default());
        assert!(text.contains("# TYPE des_events_processed counter\ndes_events_processed 42\n"));
        assert!(text.contains("# TYPE prof_rss_peak_kb gauge\nprof_rss_peak_kb 1024\n"));
        assert!(text.contains("# TYPE mr_job_runtime_us histogram\n"));
        // value 0 → bucket 0 (le="0"), values 5 → bucket 3 ([4,7], le="7");
        // cumulative counts: 1 then 3.
        assert!(text.contains("mr_job_runtime_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("mr_job_runtime_us_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("mr_job_runtime_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("mr_job_runtime_us_sum 10\n"));
        assert!(text.contains("mr_job_runtime_us_count 3\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn alert_total_counters_export_as_labelled_family() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("alert.total.critical.capacity_accounting", 1);
        reg.counter_add("alert.total.warn.uplink_saturation", 3);
        reg.counter_add("des.events_processed", 7);
        let text = to_prometheus_windowed(&reg.snapshot(), 0, &Default::default());
        assert_eq!(
            text.matches("# TYPE alert_total counter\n").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("alert_total{severity=\"critical\",rule=\"capacity_accounting\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("alert_total{severity=\"warn\",rule=\"uplink_saturation\"} 3\n"),
            "{text}"
        );
        // The dotted spellings must not also export as plain families.
        assert!(!text.contains("alert_total_"), "{text}");
        assert!(text.contains("des_events_processed 7\n"), "{text}");
    }

    #[test]
    fn empty_snapshot_encodes_empty() {
        let reg = MetricsRegistry::default();
        assert_eq!(
            to_prometheus_windowed(&reg.snapshot(), 0, &Default::default()),
            ""
        );
    }

    #[test]
    fn windowed_series_export_with_labels() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("des.events_processed", 7);
        // counter_sample mirrors the last ts.* value into a plain gauge;
        // the windowed exporter must skip that gauge in favor of the
        // labeled series.
        reg.gauge_set("ts.cloud.fill", 0.5);
        reg.gauge_set("prof.rss_peak_kb", 64.0);
        let mut series = crate::timeseries::TimeSeriesSet::default();
        series
            .series
            .insert("ts.cloud.fill".to_string(), vec![(100, 0.25), (150, 0.5)]);
        let text = to_prometheus_windowed(&reg.snapshot(), 100, &series);
        assert!(text.contains("# TYPE ts_cloud_fill gauge\n"), "{text}");
        assert!(
            text.contains("ts_cloud_fill{window=\"0\",t_us=\"100\"} 0.25\n"),
            "{text}"
        );
        // Partial final edge 150 lands in window 1.
        assert!(
            text.contains("ts_cloud_fill{window=\"1\",t_us=\"150\"} 0.5\n"),
            "{text}"
        );
        // The colliding plain gauge is suppressed; others survive.
        assert!(!text.contains("ts_cloud_fill 0.5\n"), "{text}");
        assert!(text.contains("prof_rss_peak_kb 64\n"), "{text}");
        assert!(text.contains("des_events_processed 7\n"), "{text}");
    }
}
