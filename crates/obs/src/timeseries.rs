//! Sim-time windowed time-series.
//!
//! The simulator samples registered health gauges and per-window deltas
//! into fixed sim-time windows: window `k` covers `[k·w, (k+1)·w)` in
//! microseconds and is closed — all `ts.*` samples for it emitted — at
//! the first DES event whose timestamp reaches `(k+1)·w`, *before* that
//! event is processed. A final partial window is closed at the last
//! event time of the run so short tails are never silently dropped.
//! Window edges are pure functions of sim time, so sampling never
//! perturbs the simulation (traced/untraced bit-parity holds).
//!
//! Samples travel as ordinary [`Recorder::counter_sample`] series under
//! the `ts.` name prefix; [`TimeSeriesSet`] regroups a trace's counter
//! series — however the [`TraceDump`] was obtained — into a window-major
//! table ready for CSV/JSONL export and the `vc report --timeline` view.
//!
//! [`Recorder::counter_sample`]: crate::recorder::Recorder::counter_sample
//! [`TraceDump`]: crate::trace::TraceDump

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

/// Name prefix that marks a counter series as a windowed time-series.
pub(crate) const TS_PREFIX: &str = "ts.";

/// Deterministic fixed-width window clock over sim time.
///
/// `pop_due(now)` yields every window edge `<= now` that has not been
/// yielded yet, one per call — drive it to exhaustion before processing
/// the event at `now`. Edges are multiples of the window size, so two
/// runs over the same event stream close identical windows.
#[derive(Clone, Debug)]
pub struct WindowSampler {
    window_us: u64,
    next_edge: u64,
}

impl WindowSampler {
    /// A sampler with `window_us`-wide windows. Panics if zero.
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "window width must be positive");
        Self {
            window_us,
            next_edge: window_us,
        }
    }

    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The next full-window edge that is due at `now_us`, if any.
    /// Returns edges in increasing order; call repeatedly until `None`.
    pub fn pop_due(&mut self, now_us: u64) -> Option<u64> {
        if now_us >= self.next_edge {
            let edge = self.next_edge;
            self.next_edge += self.window_us;
            Some(edge)
        } else {
            None
        }
    }

    /// The final, partial window edge for a run ending at `last_us`:
    /// `Some(last_us)` when the tail past the last closed edge is
    /// non-empty, `None` when `last_us` sits exactly on a closed edge
    /// (or nothing happened at all).
    pub fn partial_edge(&self, last_us: u64) -> Option<u64> {
        let closed = self.next_edge - self.window_us;
        (last_us > closed).then_some(last_us)
    }

    /// Index of the window closed at `edge_us`: full edges map to
    /// `edge_us / w - 1`, a partial edge to the window it truncates.
    pub fn window_index(window_us: u64, edge_us: u64) -> u64 {
        debug_assert!(window_us > 0);
        edge_us.saturating_sub(1) / window_us
    }
}

/// A window-major view over `ts.*` counter series: per-name samples
/// `(edge_us, value)`, one sample per closed window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeriesSet {
    /// Series name (including the `ts.` prefix) → `(edge_us, value)`
    /// samples in emission order.
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl TimeSeriesSet {
    /// Extract every `ts.*` series from a recorder's counter series.
    pub fn from_counter_series(series: &BTreeMap<&'static str, Vec<(u64, f64)>>) -> Self {
        let series = series
            .iter()
            .filter(|(name, _)| name.starts_with(TS_PREFIX))
            .map(|(name, points)| (name.to_string(), points.clone()))
            .collect();
        Self { series }
    }

    /// `{"<name>": [[edge_us, value], ...], ...}`: the `series` object
    /// of a run document's `timeseries` entry and of `report --json`'s
    /// `timeline` entry.
    pub fn to_json(&self) -> Value {
        let series = self
            .series
            .iter()
            .map(|(name, points)| {
                let rows = points
                    .iter()
                    .map(|&(t, v)| Value::Array(vec![Value::U64(t), Value::F64(v)]))
                    .collect();
                (name.clone(), Value::Array(rows))
            })
            .collect();
        Value::Object(series)
    }

    /// Read [`Self::to_json`]'s shape back, skipping malformed points.
    pub(crate) fn from_json(doc: &Value) -> Self {
        let mut series = BTreeMap::new();
        for (name, points) in doc.as_object().into_iter().flatten() {
            let points = points
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(|p| Some((p[0].as_u64()?, p[1].as_f64()?)))
                .collect();
            series.insert(name.clone(), points);
        }
        Self { series }
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Sorted distinct window edges across every series.
    pub fn edges(&self) -> Vec<u64> {
        let mut edges: Vec<u64> = self
            .series
            .values()
            .flat_map(|points| points.iter().map(|&(t, _)| t))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Number of distinct closed windows.
    pub(crate) fn window_count(&self) -> usize {
        self.edges().len()
    }

    /// True when every series' timestamps are strictly increasing —
    /// the invariant for windowed samples (one sample per window, and
    /// windows close in sim-time order).
    pub fn is_monotone(&self) -> bool {
        self.series
            .values()
            .all(|points| points.windows(2).all(|w| w[0].0 < w[1].0))
    }

    /// Wide CSV: `t_us,<name>,...` header, one row per window edge,
    /// blank cells where a series has no sample at that edge.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for name in self.series.keys() {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        let edges = self.edges();
        // Per-series cursor: samples are in emission order, which is
        // sim-time order for windowed series.
        let mut cursors: Vec<(usize, &Vec<(u64, f64)>)> = self
            .series
            .values()
            .map(|points| (0usize, points))
            .collect();
        for edge in edges {
            let _ = write!(out, "{edge}");
            for (cursor, points) in cursors.iter_mut() {
                while *cursor < points.len() && points[*cursor].0 < edge {
                    *cursor += 1;
                }
                if *cursor < points.len() && points[*cursor].0 == edge {
                    let _ = write!(out, ",{}", points[*cursor].1);
                    *cursor += 1;
                } else {
                    out.push(',');
                }
            }
            out.push('\n');
        }
        out
    }

    /// JSONL: one object per window edge, `{"t_us":E,"<name>":V,...}`,
    /// omitting series with no sample at that edge.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for edge in self.edges() {
            let _ = write!(out, "{{\"t_us\":{edge}");
            for (name, points) in &self.series {
                if let Ok(pos) = points.binary_search_by_key(&edge, |&(t, _)| t) {
                    let _ = write!(out, ",\"{name}\":{}", points[pos].1);
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_pops_every_due_edge_once() {
        let mut s = WindowSampler::new(100);
        assert_eq!(s.pop_due(99), None);
        assert_eq!(s.pop_due(100), Some(100));
        assert_eq!(s.pop_due(100), None);
        // A jump over several windows drains them one by one.
        assert_eq!(s.pop_due(350), Some(200));
        assert_eq!(s.pop_due(350), Some(300));
        assert_eq!(s.pop_due(350), None);
        // Partial tail beyond the last closed edge.
        assert_eq!(s.partial_edge(350), Some(350));
        let mut aligned = WindowSampler::new(100);
        while aligned.pop_due(300).is_some() {}
        assert_eq!(aligned.partial_edge(300), None, "aligned end: no tail");
        assert_eq!(aligned.partial_edge(301), Some(301));
    }

    #[test]
    fn window_index_maps_full_and_partial_edges() {
        assert_eq!(WindowSampler::window_index(100, 100), 0);
        assert_eq!(WindowSampler::window_index(100, 200), 1);
        // Partial edges land in the window they truncate.
        assert_eq!(WindowSampler::window_index(100, 150), 1);
        assert_eq!(WindowSampler::window_index(100, 101), 1);
        assert_eq!(WindowSampler::window_index(100, 99), 0);
    }

    fn sample_set() -> TimeSeriesSet {
        let mut series = BTreeMap::new();
        series.insert("ts.a".to_string(), vec![(100, 1.0), (200, 2.0)]);
        series.insert("ts.b".to_string(), vec![(200, 0.5)]);
        TimeSeriesSet { series }
    }

    #[test]
    fn filters_non_ts_series() {
        let mut raw: BTreeMap<&'static str, Vec<(u64, f64)>> = BTreeMap::new();
        raw.insert("ts.cloud.fill", vec![(100, 0.25)]);
        raw.insert("cloudsim.queue_depth", vec![(5, 1.0)]);
        let set = TimeSeriesSet::from_counter_series(&raw);
        assert_eq!(set.series.len(), 1);
        assert!(set.series.contains_key("ts.cloud.fill"));
    }

    #[test]
    fn csv_is_wide_with_blank_gaps() {
        let csv = sample_set().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_us,ts.a,ts.b");
        assert_eq!(lines[1], "100,1,");
        assert_eq!(lines[2], "200,2,0.5");
    }

    #[test]
    fn jsonl_one_object_per_edge() {
        let jsonl = sample_set().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("t_us").and_then(|v| v.as_u64()), Some(100));
        assert_eq!(first.get("ts.a").and_then(|v| v.as_f64()), Some(1.0));
        assert!(first.get("ts.b").is_none());
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("ts.b").and_then(|v| v.as_f64()), Some(0.5));
    }

    #[test]
    fn monotonicity_and_counts() {
        let set = sample_set();
        assert_eq!(set.window_count(), 2);
        assert_eq!(set.edges(), vec![100, 200]);
        assert!(set.is_monotone());
        let mut bad = set;
        bad.series.get_mut("ts.a").unwrap().push((150, 9.0));
        assert!(!bad.is_monotone());
    }

    #[test]
    fn json_roundtrip() {
        let set = sample_set();
        let json = set.to_json();
        assert_eq!(
            json.to_string(),
            r#"{"ts.a":[[100,1.0],[200,2.0]],"ts.b":[[200,0.5]]}"#
        );
        assert_eq!(TimeSeriesSet::from_json(&json), set);
    }
}
