//! Critical-path analysis over a recorded simulation trace.
//!
//! Rebuilds the span DAG of each MapReduce job (job → map attempts →
//! shuffle → reduce → commit, linked by the track layout and span
//! attributes `vc-mapreduce` emits), walks the chain that actually
//! gated job completion backwards from the last commit, and attributes
//! every microsecond of the job's makespan to exactly one of six
//! categories:
//!
//! * `map` — useful map compute/read time on the gating chain;
//! * `straggler-slack` — the *extra* time the gating map attempts spent
//!   because of their straggler slowdown factor (the part speculation
//!   is supposed to recover);
//! * `shuffle-serialisation` — the unavoidable wire time of the gating
//!   reducer's final fetch at its isolated (uncontended) rate;
//! * `shuffle-network-wait` — the rest of the shuffle tail: contention,
//!   shared-link queueing and fetch scheduling. This is the
//!   affinity-attributable component — it shrinks as cluster distance
//!   DC(C) shrinks;
//! * `reduce` — reduce compute plus output commit on the gating chain;
//! * `scheduler-wait` — time the gating chain spent waiting for a slot
//!   (reducer waves, gaps between chained spans).
//!
//! The walk produces contiguous segments tiling `[job start, job end]`,
//! so the category sums equal the end-to-end makespan *exactly* — the
//! property the acceptance test asserts.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::recorder::{AttrValue, SpanRecord, TrackId};
use crate::trace::TraceDump;

/// A span's end, clamped to its start as the Chrome writer clamps it;
/// open spans never reach the analysis.
fn end_us(span: &SpanRecord) -> u64 {
    span.end_us
        .map_or(span.start_us, |end| end.max(span.start_us))
}

fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attr(key).and_then(AttrValue::as_u64)
}

/// The six attribution buckets. Order is the canonical reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    Map,
    StragglerSlack,
    ShuffleSerialisation,
    ShuffleNetworkWait,
    Reduce,
    SchedulerWait,
}

/// All categories in reporting order.
pub(crate) const CATEGORIES: [Category; 6] = [
    Category::Map,
    Category::StragglerSlack,
    Category::ShuffleSerialisation,
    Category::ShuffleNetworkWait,
    Category::Reduce,
    Category::SchedulerWait,
];

impl Category {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Category::Map => "map",
            Category::StragglerSlack => "straggler-slack",
            Category::ShuffleSerialisation => "shuffle-serialisation",
            Category::ShuffleNetworkWait => "shuffle-network-wait",
            Category::Reduce => "reduce",
            Category::SchedulerWait => "scheduler-wait",
        }
    }
}

/// One attributed slice of a job's critical path. Segments are emitted
/// in reverse-chronological discovery order but [`analyze`] returns
/// them sorted by start time; consecutive segments abut exactly.
#[derive(Clone, Debug)]
pub struct Segment {
    pub category: Category,
    pub start_us: u64,
    pub end_us: u64,
    /// Human-readable description of the gating span ("map 3 attempt 0",
    /// "reduce 1", …).
    pub what: String,
}

/// Critical-path attribution for one job.
#[derive(Clone, Debug)]
pub struct JobAttribution {
    /// Track the job span lives on (the request's block base + 1 lane
    /// in queue runs, 0 in standalone runs).
    pub track: u64,
    pub start_us: u64,
    pub end_us: u64,
    /// Cluster distance DC(C) of the placement, if recorded on the job span.
    pub distance: Option<u64>,
    /// Link class (`"rack-up"`, `"node-rx"`, …), `"rate-cap"`, or
    /// `"none"` that bottlenecked the gating reducer's *last* shuffle
    /// fetch, if the engine recorded it. Decomposes
    /// `shuffle-network-wait` by where the contention actually was:
    /// `"rack-up"`/`"cloud-up"` tails are the affinity-attributable
    /// ones, `"node-rx"` tails are incast at the reducer.
    pub gating_bottleneck: Option<String>,
    pub segments: Vec<Segment>,
}

impl JobAttribution {
    pub fn makespan_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Total time attributed to `cat` (sums segment lengths).
    pub fn total_us(&self, cat: Category) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.category == cat)
            .map(|s| s.end_us.saturating_sub(s.start_us))
            .sum()
    }

    /// Sum over all categories; equals [`Self::makespan_us`] by
    /// construction.
    pub fn attributed_us(&self) -> u64 {
        CATEGORIES.iter().map(|&c| self.total_us(c)).sum()
    }

    /// JSON object for `vc report --json` and the bench harness.
    pub fn to_json(&self) -> Value {
        let cats: Vec<(String, Value)> = CATEGORIES
            .iter()
            .map(|&c| (c.label().to_string(), json!(self.total_us(c))))
            .collect();
        json!({
            "track": self.track,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "makespan_us": self.makespan_us(),
            "distance": self.distance,
            "gating_bottleneck": self.gating_bottleneck,
            "categories_us": Value::Object(cats),
        })
    }
}

/// Internal: push a segment unless it is empty.
fn push_seg(segs: &mut Vec<Segment>, category: Category, start: u64, end: u64, what: &str) {
    if end > start {
        segs.push(Segment {
            category,
            start_us: start,
            end_us: end,
            what: what.to_string(),
        });
    }
}

/// Split a map attempt `[start, end]` into useful map time and
/// straggler slack, using the `slowdown` attribute the engine records
/// on straggling attempts: a factor `f > 1` means the attempt took
/// `f×` its clean duration, so `dur·(1 − 1/f)` of it is slack.
fn push_map_segments(segs: &mut Vec<Segment>, span: &SpanRecord) {
    let end = end_us(span);
    let dur = end - span.start_us;
    let slack = match span.attr("slowdown").and_then(AttrValue::as_f64) {
        Some(f) if f > 1.0 => ((dur as f64) * (1.0 - 1.0 / f)).round() as u64,
        _ => 0,
    };
    let slack = slack.min(dur);
    let what = format!(
        "map {} attempt {}",
        attr_u64(span, "task").unwrap_or(0),
        attr_u64(span, "attempt").unwrap_or(0)
    );
    push_seg(segs, Category::StragglerSlack, end - slack, end, &what);
    push_seg(segs, Category::Map, span.start_us, end - slack, &what);
}

/// Walk the map phase backwards from `from_t` down to the job start,
/// chaining through the latest-finishing map attempt at each point and
/// attributing inter-attempt gaps to the scheduler.
fn walk_map_chain(segs: &mut Vec<Segment>, maps: &[&SpanRecord], job_start: u64, from_t: u64) {
    let mut cur = from_t;
    loop {
        if cur <= job_start {
            return;
        }
        // The latest map attempt that finished at or before `cur` and
        // started strictly before it (so the walk always progresses).
        let gating = maps
            .iter()
            .filter(|m| end_us(m) <= cur && m.start_us < cur)
            .max_by_key(|m| (end_us(m), m.start_us));
        match gating {
            None => {
                push_seg(
                    segs,
                    Category::SchedulerWait,
                    job_start,
                    cur,
                    "map wave wait",
                );
                return;
            }
            Some(m) => {
                push_seg(
                    segs,
                    Category::SchedulerWait,
                    end_us(m),
                    cur,
                    "map slot wait",
                );
                push_map_segments(segs, m);
                cur = m.start_us;
            }
        }
    }
}

/// Attribute one job. `members` are the closed spans inside the job's
/// track block (map/shuffle/reduce/commit lanes).
fn analyze_job(job: &SpanRecord, members: &[&SpanRecord]) -> JobAttribution {
    let (j0, j1) = (job.start_us, end_us(job));
    let mut segs: Vec<Segment> = Vec::new();
    let mut gating_bottleneck: Option<String> = None;

    let maps: Vec<&SpanRecord> = members
        .iter()
        .copied()
        .filter(|s| s.name == "map")
        .collect();
    let by_reducer = |name: &str, r: u64| {
        members
            .iter()
            .copied()
            .find(|s| s.name == name && attr_u64(s, "reducer") == Some(r))
    };

    // The gating reducer is the one whose commit finished last.
    let last_commit = members
        .iter()
        .copied()
        .filter(|s| s.name == "commit")
        .max_by_key(|s| (end_us(s), attr_u64(s, "reducer").unwrap_or(0)));

    match last_commit {
        None => {
            // No reducers committed (degenerate/partial trace): attribute
            // through the map phase only.
            walk_map_chain(&mut segs, &maps, j0, j1);
        }
        Some(commit) => {
            let r = attr_u64(commit, "reducer").unwrap_or(0);
            // Anything after the last commit (should be empty).
            push_seg(
                &mut segs,
                Category::SchedulerWait,
                end_us(commit),
                j1,
                "job teardown",
            );
            push_seg(
                &mut segs,
                Category::Reduce,
                commit.start_us,
                end_us(commit),
                &format!("commit {r}"),
            );
            let mut cur = commit.start_us;

            if let Some(reduce) = by_reducer("reduce", r) {
                push_seg(
                    &mut segs,
                    Category::SchedulerWait,
                    end_us(reduce),
                    cur,
                    "commit wait",
                );
                push_seg(
                    &mut segs,
                    Category::Reduce,
                    reduce.start_us,
                    end_us(reduce),
                    &format!("reduce {r}"),
                );
                cur = reduce.start_us;
            }

            match by_reducer("shuffle", r) {
                Some(shuffle) => {
                    gating_bottleneck = shuffle
                        .attr("last_fetch_bottleneck")
                        .and_then(AttrValue::as_str)
                        .map(str::to_string);
                    push_seg(
                        &mut segs,
                        Category::SchedulerWait,
                        end_us(shuffle),
                        cur,
                        "reduce slot wait",
                    );
                    let (s0, s1) = (shuffle.start_us, end_us(shuffle).min(cur));
                    // All-maps-done time bounds the shuffle tail: before it
                    // the shuffle overlaps the map phase for free.
                    let gate = attr_u64(shuffle, "maps_done_us")
                        .unwrap_or(s0)
                        .clamp(s0, s1);
                    let tail = s1 - gate;
                    let ser = attr_u64(shuffle, "last_fetch_ideal_us")
                        .unwrap_or(0)
                        .min(tail);
                    push_seg(
                        &mut segs,
                        Category::ShuffleSerialisation,
                        s1 - ser,
                        s1,
                        &format!("shuffle {r} wire time"),
                    );
                    push_seg(
                        &mut segs,
                        Category::ShuffleNetworkWait,
                        gate,
                        s1 - ser,
                        &format!("shuffle {r} contention"),
                    );
                    if gate > s0 {
                        // Maps gated the shuffle: chain through the map phase.
                        walk_map_chain(&mut segs, &maps, j0, gate);
                    } else {
                        // Reducer itself started late (later wave).
                        push_seg(
                            &mut segs,
                            Category::SchedulerWait,
                            j0,
                            s0,
                            "reduce wave wait",
                        );
                    }
                }
                None => {
                    walk_map_chain(&mut segs, &maps, j0, cur);
                }
            }
        }
    }

    segs.sort_by_key(|s| (s.start_us, s.end_us));
    JobAttribution {
        track: job.track.0,
        start_us: j0,
        end_us: j1,
        distance: attr_u64(job, "cluster_distance"),
        gating_bottleneck,
        segments: segs,
    }
}

/// Analyze every job in the dump. Jobs are identified by their `job`
/// spans; member spans are assigned to the job with the greatest track
/// base at or below their own track (the per-request track blocks are
/// disjoint, so this is exact for both queue and standalone traces).
/// Open spans are ignored.
pub fn analyze(dump: &TraceDump) -> Vec<JobAttribution> {
    let closed = || dump.spans.iter().filter(|s| s.end_us.is_some());
    let mut jobs: Vec<&SpanRecord> = closed().filter(|s| s.name == "job").collect();
    jobs.sort_by_key(|s| s.track);
    if jobs.is_empty() {
        return Vec::new();
    }

    let mut members: BTreeMap<TrackId, Vec<&SpanRecord>> = BTreeMap::new();
    for span in closed() {
        if matches!(span.name, "map" | "shuffle" | "reduce" | "commit") {
            // Greatest job track <= span track.
            let owner = match jobs.binary_search_by_key(&span.track, |j| j.track) {
                Ok(i) => Some(i),
                Err(0) => None,
                Err(i) => Some(i - 1),
            };
            if let Some(i) = owner {
                members.entry(jobs[i].track).or_default().push(span);
            }
        }
    }

    jobs.iter()
        .map(|job| analyze_job(job, members.get(&job.track).map_or(&[][..], Vec::as_slice)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SpanId;

    fn span(
        track: u64,
        name: &'static str,
        start: u64,
        end: u64,
        attrs: &[(&'static str, AttrValue)],
    ) -> SpanRecord {
        SpanRecord {
            id: SpanId(0),
            track: TrackId(track),
            name,
            start_us: start,
            end_us: Some(end),
            attrs: attrs.to_vec(),
        }
    }

    /// Hand-built DAG with a known critical path through a straggling
    /// reduce-side chain: two maps (one straggler), a shuffle whose tail
    /// is partly wire time, a reduce, and a commit.
    #[test]
    fn straggler_fixture_exact_attribution() {
        // Timeline (µs):
        //   job [0, 1000]
        //   map0 [0, 100] clean; map1 [0, 400] with slowdown 2.0
        //   shuffle r0 [0, 600]: maps_done=400, last fetch ideal 50
        //   reduce r0 [600, 900]; commit r0 [900, 1000]
        let dump = TraceDump {
            spans: vec![
                span(
                    0,
                    "job",
                    0,
                    1000,
                    &[("cluster_distance", AttrValue::U64(7))],
                ),
                span(
                    2,
                    "map",
                    0,
                    100,
                    &[("task", AttrValue::U64(0)), ("attempt", AttrValue::U64(0))],
                ),
                span(
                    3,
                    "map",
                    0,
                    400,
                    &[
                        ("task", AttrValue::U64(1)),
                        ("attempt", AttrValue::U64(0)),
                        ("slowdown", AttrValue::F64(2.0)),
                    ],
                ),
                span(
                    2,
                    "shuffle",
                    0,
                    600,
                    &[
                        ("reducer", AttrValue::U64(0)),
                        ("maps_done_us", AttrValue::U64(400)),
                        ("last_fetch_ideal_us", AttrValue::U64(50)),
                        ("last_fetch_bottleneck", AttrValue::Str("rack-up")),
                    ],
                ),
                span(2, "reduce", 600, 900, &[("reducer", AttrValue::U64(0))]),
                span(2, "commit", 900, 1000, &[("reducer", AttrValue::U64(0))]),
            ],
            ..TraceDump::default()
        };

        let jobs = analyze(&dump);
        assert_eq!(jobs.len(), 1);
        let job = &jobs[0];
        assert_eq!(job.makespan_us(), 1000);
        assert_eq!(job.distance, Some(7));
        assert_eq!(job.gating_bottleneck.as_deref(), Some("rack-up"));

        // Chain: map1 [0,400] (200 map + 200 slack, f=2), shuffle tail
        // [400,600] (150 network-wait + 50 wire), reduce [600,900],
        // commit [900,1000].
        assert_eq!(job.total_us(Category::Map), 200);
        assert_eq!(job.total_us(Category::StragglerSlack), 200);
        assert_eq!(job.total_us(Category::ShuffleNetworkWait), 150);
        assert_eq!(job.total_us(Category::ShuffleSerialisation), 50);
        assert_eq!(job.total_us(Category::Reduce), 400);
        assert_eq!(job.total_us(Category::SchedulerWait), 0);
        assert_eq!(job.attributed_us(), job.makespan_us());

        // Segments tile the job interval contiguously.
        let segs = &job.segments;
        assert_eq!(segs.first().unwrap().start_us, 0);
        assert_eq!(segs.last().unwrap().end_us, 1000);
        for w in segs.windows(2) {
            assert_eq!(w[0].end_us, w[1].start_us);
        }
    }

    /// A second-wave reducer (shuffle starts after all maps are done)
    /// charges its pre-shuffle delay to the scheduler.
    #[test]
    fn second_wave_reducer_counts_scheduler_wait() {
        let dump = TraceDump {
            spans: vec![
                span(0, "job", 0, 500, &[]),
                span(
                    2,
                    "map",
                    0,
                    100,
                    &[("task", AttrValue::U64(0)), ("attempt", AttrValue::U64(0))],
                ),
                span(
                    2,
                    "shuffle",
                    200,
                    300,
                    &[
                        ("reducer", AttrValue::U64(1)),
                        ("maps_done_us", AttrValue::U64(100)),
                    ],
                ),
                span(2, "reduce", 300, 450, &[("reducer", AttrValue::U64(1))]),
                span(2, "commit", 450, 500, &[("reducer", AttrValue::U64(1))]),
            ],
            ..TraceDump::default()
        };
        let jobs = analyze(&dump);
        let job = &jobs[0];
        assert_eq!(job.attributed_us(), 500);
        // [0,200] wave wait, [200,300] network wait (no ideal attr),
        // [300,450] reduce, [450,500] commit.
        assert_eq!(job.total_us(Category::SchedulerWait), 200);
        assert_eq!(job.total_us(Category::ShuffleNetworkWait), 100);
        assert_eq!(job.total_us(Category::Reduce), 200);
    }

    #[test]
    fn chrome_roundtrip_preserves_analysis() {
        let rec = crate::recorder::MemRecorder::new();
        use crate::recorder::{Recorder, TrackId};
        let j = rec.span_begin(TrackId(0), "job", 0, &[]);
        let m = rec.span_begin(
            TrackId(2),
            "map",
            0,
            &[("task", AttrValue::U64(0)), ("attempt", AttrValue::U64(0))],
        );
        rec.span_end(m, 50);
        let s = rec.span_begin(TrackId(2), "shuffle", 0, &[("reducer", AttrValue::U64(0))]);
        rec.span_attr(s, "maps_done_us", AttrValue::U64(50));
        rec.span_end(s, 80);
        let rd = rec.span_begin(TrackId(2), "reduce", 80, &[("reducer", AttrValue::U64(0))]);
        rec.span_end(rd, 90);
        let c = rec.span_begin(TrackId(2), "commit", 90, &[("reducer", AttrValue::U64(0))]);
        rec.span_end(c, 100);
        rec.span_end(j, 100);

        let doc = crate::trace::chrome_trace(&rec);
        let direct = analyze(&rec.into_dump());
        let parsed = analyze(&TraceDump::from_chrome_value(&doc).unwrap());
        assert_eq!(direct.len(), parsed.len());
        for (a, b) in direct.iter().zip(&parsed) {
            assert_eq!(a.makespan_us(), b.makespan_us());
            for &cat in &CATEGORIES {
                assert_eq!(a.total_us(cat), b.total_us(cat), "{}", cat.label());
            }
            assert_eq!(a.attributed_us(), a.makespan_us());
        }
    }
}
