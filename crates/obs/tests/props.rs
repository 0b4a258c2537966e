//! Property tests for the observability layer: histogram bucketing
//! invariants, snapshot round-trips, and span bookkeeping.

use proptest::prelude::*;
use vc_obs::metrics::{bucket_index, bucket_lower_bound, Histogram, NUM_BUCKETS};
use vc_obs::{
    chrome_trace, replay_jsonl, AttrValue, MemRecorder, MetricsSnapshot, Recorder,
    StreamingRecorder, TraceDump, TrackId,
};

const CTR_NAMES: [&str; 4] = ["m.a", "m.b", "m.c", "m.d"];
const EVT_NAMES: [&str; 3] = ["ev.x", "ev.y", "ev.z"];

/// One recorder operation: `(kind, a, b)`. `kind` selects among
/// counter / histogram / event / span / track-name / gauge / series
/// sample; `a` and `b` feed names, timestamps and attribute payloads.
type RecOp = (usize, u64, u64);

/// Op applier covering the full recorder surface. Each op takes its
/// timestamp from `b`, so timestamps jump back and forth as they do when
/// overlapping jobs record into one recorder.
fn apply_ops(rec: &dyn Recorder, ops: &[RecOp]) {
    for &(kind, a, b) in ops {
        let now = b;
        let track = TrackId(a % 3);
        match kind {
            0 => rec.counter_add(CTR_NAMES[(a % 4) as usize], b % 1000 + 1),
            1 => rec.histogram_record(CTR_NAMES[(a % 4) as usize], b),
            2 => rec.event(
                EVT_NAMES[(a % 3) as usize],
                now,
                Some(track),
                &[("v", AttrValue::from(a))],
            ),
            3 => {
                let id = rec.span_begin(track, "work", now, &[("v", AttrValue::from(a))]);
                rec.span_attr(id, "extra", AttrValue::from(b));
                rec.span_end(id, now + a % 100);
            }
            4 => rec.track_name(track, &format!("track-{}", a % 3)),
            5 => rec.gauge_set(CTR_NAMES[(a % 4) as usize], b as f64 / 7.0),
            6 => rec.gauge_max(CTR_NAMES[(a % 4) as usize], b as f64 / 3.0),
            _ => rec.counter_sample("ts.prop.series", now, a as f64 / 11.0),
        }
    }
}

/// Floats a stream must carry bit for bit.
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    1.5,
    -2.25,
    1e15,
    -7.5e15,
    1e300,
    f64::MIN_POSITIVE,
    5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Strings a stream must escape and read back.
const TEXTS: [&str; 5] = [
    "plain",
    "quote\"back\\slash",
    "ctl\u{1}\u{1f}\n\t\r",
    "ünïcode ✓ 𝄞",
    "",
];

/// A float from the table, or any bit pattern at all.
fn wide_float(a: u64, b: u64) -> f64 {
    if b.is_multiple_of(3) {
        f64::from_bits(a)
    } else {
        FLOATS[(b % FLOATS.len() as u64) as usize]
    }
}

/// An attribute of every type, at its extremes.
fn wide_attr(a: u64, b: u64) -> AttrValue {
    let text = TEXTS[(a % TEXTS.len() as u64) as usize];
    match b % 9 {
        0 => AttrValue::U64(u64::MAX),
        1 => AttrValue::U64(a),
        2 => AttrValue::I64(i64::MIN),
        3 => AttrValue::I64(i64::MAX),
        4 => AttrValue::I64(a as i64),
        5 => AttrValue::F64(wide_float(a, b / 9)),
        6 => AttrValue::Bool(a.is_multiple_of(2)),
        7 => AttrValue::Str(text),
        _ => AttrValue::Owned(format!("{text}{a}")),
    }
}

/// Like [`apply_ops`], over values the Chrome export cannot carry but
/// the stream must.
fn apply_wide_ops(rec: &dyn Recorder, ops: &[RecOp]) {
    for &(kind, a, b) in ops {
        let track = TrackId(a % 3);
        let name = CTR_NAMES[(a % 4) as usize];
        match kind {
            0 => rec.counter_add(name, b + 1),
            1 => rec.histogram_record(name, b),
            2 => rec.event(
                EVT_NAMES[(a % 3) as usize],
                b,
                Some(track).filter(|_| !a.is_multiple_of(5)),
                &[("x", wide_attr(a, b)), ("y", wide_attr(b, a))],
            ),
            3 => {
                let id = rec.span_begin(track, "work", b, &[("v", wide_attr(a, b))]);
                rec.span_attr(id, "extra", wide_attr(a.rotate_left(7), b + 1));
                rec.span_end(id, b + a % 100);
            }
            4 => rec.track_name(track, &format!("{}{a}", TEXTS[(b % 5) as usize])),
            5 => rec.gauge_set(name, wide_float(a, b)),
            6 => rec.gauge_max(name, wide_float(a, b)),
            _ => rec.counter_sample("ts.prop.series", b, wide_float(a, b)),
        }
    }
}

/// The dump as text with every `f64` as its bit pattern: equal text is
/// a bitwise-equal dump, where `==` takes `-0.0` for `0.0` and NaN for
/// unequal to itself.
fn bitwise(dump: &TraceDump) -> String {
    use std::fmt::Write as _;
    let float = |x: f64| format!("{:#018x}", x.to_bits());
    let attrs = |attrs: &[(&str, AttrValue)]| {
        let text: Vec<String> = attrs
            .iter()
            .map(|(k, v)| match v {
                AttrValue::F64(x) => format!("{k}=F64({})", float(*x)),
                v => format!("{k}={v:?}"),
            })
            .collect();
        text.join(",")
    };
    let mut out = format!(
        "{:?}\n{:?}\n{:?}\nopen {}\n",
        dump.track_names, dump.metrics.counters, dump.metrics.histograms, dump.open_spans
    );
    for (k, v) in &dump.metrics.gauges {
        writeln!(out, "gauge {k} {}", float(*v)).unwrap();
    }
    for (k, series) in &dump.counter_series {
        for &(t, v) in series {
            writeln!(out, "sample {k} {t} {}", float(v)).unwrap();
        }
    }
    for s in &dump.spans {
        let (id, track, end) = (s.id, s.track, s.end_us);
        let head = format!("span {id:?} {track:?} {} {} {end:?}", s.name, s.start_us);
        writeln!(out, "{head} [{}]", attrs(&s.attrs)).unwrap();
    }
    for e in &dump.events {
        let head = format!("event {} {} {:?}", e.name, e.t_us, e.track);
        writeln!(out, "{head} [{}]", attrs(&e.attrs)).unwrap();
    }
    out
}

proptest! {
    /// Bucket assignment is monotone non-decreasing in the sample value,
    /// and every sample lands in the bucket whose range contains it.
    #[test]
    fn bucket_index_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        let i = bucket_index(hi);
        prop_assert!(i < NUM_BUCKETS);
        prop_assert!(bucket_lower_bound(i) <= hi);
        if i + 1 < NUM_BUCKETS {
            prop_assert!(hi < bucket_lower_bound(i + 1));
        }
    }

    /// Histogram aggregates are exact and bucket counts conserve samples;
    /// quantiles stay inside [min, max] and are monotone in `q`.
    #[test]
    fn histogram_conserves_samples(values in proptest::collection::vec(any::<u64>(), 1..128)) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count, values.len() as u64);
        prop_assert_eq!(h.min, *values.iter().min().unwrap());
        prop_assert_eq!(h.max, *values.iter().max().unwrap());
        let bucket_total: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, h.count);
        // Sparse representation is sorted and has no empty buckets.
        for w in h.buckets.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        prop_assert!(h.buckets.iter().all(|&(_, n)| n > 0));
        let mut last = 0;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= h.min && v <= h.max);
            prop_assert!(v >= last, "quantile not monotone in q");
            last = v;
        }
    }

    /// A snapshot survives the JSON text round-trip bit-for-bit.
    #[test]
    fn snapshot_json_roundtrip(
        counters in proptest::collection::vec((0usize..8, 1u64..1000), 0..16),
        samples in proptest::collection::vec((0usize..4, any::<u64>()), 0..64),
    ) {
        let rec = MemRecorder::new();
        let names = ["a.one", "b.two", "c.three", "d.four", "e", "f", "g", "h"];
        for (i, delta) in counters {
            rec.counter_add(names[i], delta);
        }
        for (i, v) in samples {
            rec.histogram_record(names[i], v);
        }
        let snap = rec.metrics();
        let back = MetricsSnapshot::parse(&snap.to_json_string()).unwrap();
        prop_assert_eq!(snap, back);
    }

    /// Every span that is begun and ended balances out: no span leaks
    /// open, ends never precede starts, and span count matches begins.
    #[test]
    fn spans_balance(durations in proptest::collection::vec((0u64..10_000, 0u64..10_000), 0..64)) {
        let rec = MemRecorder::new();
        let mut open = Vec::new();
        for (i, &(start, len)) in durations.iter().enumerate() {
            let track = TrackId((i % 5) as u64);
            open.push((rec.span_begin(track, "work", start, &[]), start, start + len));
        }
        prop_assert_eq!(rec.open_span_count(), durations.len());
        // Close in reverse order to exercise non-LIFO-independence.
        for &(id, _, end) in open.iter().rev() {
            rec.span_end(id, end);
        }
        prop_assert_eq!(rec.open_span_count(), 0);
        let spans = rec.spans();
        prop_assert_eq!(spans.len(), durations.len());
        for s in &spans {
            let end = s.end_us.expect("all spans closed");
            prop_assert!(end >= s.start_us);
        }
    }

    /// A [`StreamingRecorder`]'s JSONL, replayed, is the dump a
    /// [`MemRecorder`] finishes into for the same op sequence, whole and
    /// bit for bit, with out-of-order timestamps, every kind of float
    /// (`-0.0`, NaN and subnormals included), every attribute type at
    /// its extremes, and names that need escaping.
    #[test]
    fn streaming_replay_matches_mem_bitwise(
        ops in proptest::collection::vec(
            (0usize..9, any::<u64>(), 0u64..10_000),
            0..100,
        )
    ) {
        let mem = MemRecorder::new();
        apply_wide_ops(&mem, &ops);

        let stream = StreamingRecorder::new(Vec::new());
        apply_wide_ops(&stream, &ops);
        let bytes = stream.finish().expect("Vec sink cannot fail");
        let text = String::from_utf8(bytes).expect("stream is UTF-8 JSONL");
        let replayed = replay_jsonl(&text).expect("own stream replays");

        prop_assert_eq!(bitwise(&replayed), bitwise(&mem.into_dump()));
    }

    /// The Chrome writer and reader are inverses: a recording read back
    /// from its own Chrome document (through JSON text, as `report
    /// --trace` reads it) is the dump the recorder finishes into, and
    /// writing that again gives the same document. The generated ops
    /// avoid the lossy cases listed in `vc_obs::trace`; one span is left
    /// open to cover the `unterminated` flag.
    #[test]
    fn chrome_roundtrip_is_exact(
        ops in proptest::collection::vec(
            (0usize..8, any::<u64>(), 0u64..10_000),
            0..100,
        )
    ) {
        let rec = MemRecorder::new();
        apply_ops(&rec, &ops);
        rec.span_begin(TrackId(1), "open", 0, &[("v", AttrValue::U64(1))]);
        let doc = chrome_trace(&rec);
        let text = serde_json::to_string(&doc).expect("trace serialises");
        let read = TraceDump::from_chrome_value(&serde_json::from_str(&text).expect("parses"))
            .expect("own trace reads back");
        let dump = rec.into_dump();

        prop_assert_eq!(&read.spans, &dump.spans);
        prop_assert_eq!(&read.events, &dump.events);
        prop_assert_eq!(&read.track_names, &dump.track_names);
        prop_assert_eq!(&read.counter_series, &dump.counter_series);
        prop_assert_eq!((read.open_spans, dump.open_spans), (1, 1));
        let again = serde_json::to_string(&read.to_chrome_value()).expect("serialises");
        prop_assert_eq!(again, text);
    }
}
