//! Metrics registry: named counters, gauges, and log-bucketed histograms
//! with JSON and CSV snapshot export.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Power-of-two bucketed histogram for non-negative integer samples
/// (latencies in µs, byte counts, queue depths).
///
/// Bucket 0 holds the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. 65 buckets cover the full `u64` domain.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    /// Smallest sample, or 0 when empty — a never-sampled histogram must
    /// not serialize a `u64::MAX` sentinel in snapshots; [`Self::record`]
    /// seeds it from the first sample instead.
    pub min: u64,
    pub max: u64,
    /// Sparse non-empty buckets as `(index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
}

/// Number of distinct bucket indices (0 plus one per bit position).
pub const NUM_BUCKETS: u32 = 65;

/// Map a sample to its bucket index. Monotone non-decreasing in `v`.
pub fn bucket_index(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

/// Smallest value that lands in bucket `i`. Strictly increasing in `i`.
pub fn bucket_lower_bound(i: u32) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        let idx = bucket_index(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile from bucket lower bounds (`q` in `[0, 1]`).
    /// Exact for the min/max endpoints; within one power of two elsewhere.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

/// Mutable registry of named metrics. Owned by a recorder during a run.
#[derive(Clone, Debug, Default)]
pub(crate) struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Track the running maximum of a gauge (e.g. peak queue depth).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if value > *slot {
            *slot = value;
        }
    }

    pub fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// Immutable point-in-time copy of a recorder's metrics registry, exportable as
/// JSON (schema documented in `docs/metrics-schema.md`) or CSV.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Full-fidelity JSON document.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }

    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    pub fn parse(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Flat CSV with one row per scalar:
    /// `kind,name,field,value`. Histograms expand to summary rows plus one
    /// `bucket_<lower_bound>` row per non-empty bucket.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},value,{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{name},value,{v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("histogram,{name},count,{}\n", h.count));
            out.push_str(&format!("histogram,{name},sum,{}\n", h.sum));
            if h.count > 0 {
                out.push_str(&format!("histogram,{name},min,{}\n", h.min));
                out.push_str(&format!("histogram,{name},max,{}\n", h.max));
                out.push_str(&format!("histogram,{name},mean,{}\n", h.mean()));
                out.push_str(&format!("histogram,{name},p50,{}\n", h.quantile(0.5)));
                out.push_str(&format!("histogram,{name},p99,{}\n", h.quantile(0.99)));
            }
            for &(idx, n) in &h.buckets {
                out.push_str(&format!(
                    "histogram,{name},bucket_{},{n}\n",
                    bucket_lower_bound(idx)
                ));
            }
        }
        out
    }
}

/// Read-only view of a metrics snapshot as JSON: the document
/// [`MetricsSnapshot::to_json`] writes, or a run document extending it.
/// Missing sections and entries read as absent.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapshotView<'a>(pub &'a serde_json::Value);

/// One link's telemetry, reassembled from the `net.link.<link>.<field>`
/// counters and `net.link.<link>.peak_util` gauge. In queue runs the
/// counters sum (and `peak_util` maxes) over every job that crossed
/// the link.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct LinkTotals {
    pub bytes: u64,
    pub shuffle_bytes: u64,
    pub busy_us: u64,
    pub binding_events: u64,
    pub peak_util: f64,
}

impl<'a> SnapshotView<'a> {
    /// The `(name, value)` entries of `counters`, `gauges` or
    /// `histograms`.
    pub(crate) fn section(self, key: &str) -> &'a [(String, serde_json::Value)] {
        self.0
            .get(key)
            .and_then(serde_json::Value::as_object)
            .map_or(&[], Vec::as_slice)
    }

    fn find(self, key: &str, name: &str) -> Option<&'a serde_json::Value> {
        self.section(key)
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// One counter, 0 when absent.
    pub(crate) fn counter(self, name: &str) -> u64 {
        self.find("counters", name)
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
    }

    pub(crate) fn gauge(self, name: &str) -> Option<f64> {
        self.find("gauges", name)
            .and_then(serde_json::Value::as_f64)
    }

    /// Every link with `net.link.*` telemetry, keyed by link name.
    pub(crate) fn links(self) -> BTreeMap<String, LinkTotals> {
        let mut links: BTreeMap<String, LinkTotals> = BTreeMap::new();
        let split = |name: &'a str| name.strip_prefix("net.link.")?.rsplit_once('.');
        for (name, value) in self.section("counters") {
            let Some((link, field @ ("bytes" | "shuffle_bytes" | "busy_us" | "binding_events"))) =
                split(name)
            else {
                continue;
            };
            let totals = links.entry(link.to_string()).or_default();
            let v = value.as_u64().unwrap_or(0);
            match field {
                "bytes" => totals.bytes = v,
                "shuffle_bytes" => totals.shuffle_bytes = v,
                "busy_us" => totals.busy_us = v,
                _ => totals.binding_events = v,
            }
        }
        for (name, value) in self.section("gauges") {
            if let Some((link, "peak_util")) = split(name) {
                links.entry(link.to_string()).or_default().peak_util =
                    value.as_f64().unwrap_or(0.0);
            }
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
        }
    }

    #[test]
    fn histogram_aggregates() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 7, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1109);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);
    }

    #[test]
    fn empty_histogram_snapshot_has_zero_min() {
        // Regression: a never-sampled histogram used to serialize
        // `min: u64::MAX` in JSON/CSV snapshots.
        let h = Histogram::default();
        assert_eq!(h.min, 0);
        let mut reg = MetricsRegistry::default();
        reg.histograms.insert("empty".to_string(), h);
        let snap = reg.snapshot();
        assert!(!snap.to_json_string().contains(&u64::MAX.to_string()));
        assert!(!snap.to_csv().contains(&u64::MAX.to_string()));
        // And a first sample still seeds the minimum correctly.
        let mut h = Histogram::default();
        h.record(7);
        assert_eq!(h.min, 7);
        h.record(3);
        assert_eq!(h.min, 3);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("des.events", 42);
        reg.gauge_set("queue.depth", 3.5);
        reg.histogram_record("latency_us", 1234);
        reg.histogram_record("latency_us", 9);
        let snap = reg.snapshot();
        let text = snap.to_json_string();
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn csv_has_all_rows() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("a", 1);
        reg.gauge_set("b", 2.0);
        reg.histogram_record("c", 3);
        let csv = reg.snapshot().to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,a,value,1"));
        assert!(csv.contains("gauge,b,value,2"));
        assert!(csv.contains("histogram,c,count,1"));
        assert!(csv.contains("histogram,c,bucket_2,1"));
    }

    #[test]
    fn snapshot_view_reads_counters_gauges_and_links() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("net.link.rack0.up.bytes", 10);
        reg.counter_add("net.link.rack0.up.shuffle_bytes", 4);
        reg.counter_add("net.link.rack0.up.busy_us", 7);
        reg.counter_add("net.link.rack0.up.binding_events", 2);
        reg.counter_add("net.link.node1.rx.flows", 9); // unknown field
        reg.gauge_set("net.link.rack0.up.peak_util", 0.5);
        reg.gauge_set("net.link.rack0.up.util", 0.1); // sample mirror
        reg.counter_add("mr.jobs", 3);
        let doc = reg.snapshot().to_json();
        let view = SnapshotView(&doc);
        assert_eq!(view.counter("mr.jobs"), 3);
        assert_eq!(view.counter("absent"), 0);
        assert_eq!(view.gauge("net.link.rack0.up.peak_util"), Some(0.5));
        assert_eq!(view.gauge("absent"), None);
        let links = view.links();
        assert_eq!(links.len(), 1, "{links:?}");
        let want = LinkTotals {
            bytes: 10,
            shuffle_bytes: 4,
            busy_us: 7,
            binding_events: 2,
            peak_util: 0.5,
        };
        assert_eq!(links["rack0.up"], want);
        assert!(SnapshotView(&serde_json::Value::Null).links().is_empty());
    }
}
