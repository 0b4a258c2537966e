//! [`StreamingRecorder`]: a bounded-memory recorder that streams its op
//! log to a JSONL sink instead of buffering it.
//!
//! Million-event runs cannot hold a [`MemRecorder`] — its buffers grow
//! with the trace. The streaming recorder keeps only a small text buffer
//! (flushed to the sink past a threshold), so RSS stays flat no matter
//! how long the run is. Like every recorder it is single-threaded:
//! parallel code hands its results back to the recording thread.
//!
//! Every line carries the op's resolved timestamp (untimestamped ops
//! inherit the recorder's high-water mark) and a sequence number, so
//! [`replay_jsonl`] can sort by `(t_us, seq)` and replay the log into a
//! [`TraceDump`] that equals [`MemRecorder::into_dump`] of the same run
//! bit for bit (see `crates/obs/tests/props.rs`).
//!
//! Format: one JSON object per line. `t`/`q` are the stamp; `o` tags
//! the op (`c` counter_add, `g` gauge_set, `m` gauge_max, `h`
//! histogram_record, `s` counter_sample, `tn` track_name, `e` event,
//! `sb`/`se`/`sa` span begin/end/attr). Floats are written with Rust's
//! shortest-round-trip `{}` formatting; non-finite values fall back to
//! a `<key>b` bit-pattern field so replay is exact for every `f64`.
//!
//! [`MemRecorder`]: crate::recorder::MemRecorder
//! [`MemRecorder::into_dump`]: crate::recorder::MemRecorder::into_dump

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Mutex, OnceLock};

use crate::metrics::MetricsRegistry;
use crate::recorder::{Attr, AttrValue, EventRecord, Recorder, SpanId, SpanRecord, TrackId};
use crate::trace::TraceDump;

/// Default buffer size before a flush to the sink.
pub const DEFAULT_FLUSH_BYTES: usize = 64 * 1024;

#[derive(Debug, Default)]
struct StreamBuf {
    text: String,
    /// High-water timestamp, inherited by untimestamped ops.
    last_t: u64,
}

#[derive(Debug)]
struct Sink<W> {
    writer: W,
    /// First I/O error, surfaced by [`StreamingRecorder::finish`];
    /// later writes are dropped once set.
    error: Option<io::Error>,
}

/// Bounded-memory streaming recorder; see the module docs.
#[derive(Debug)]
pub struct StreamingRecorder<W> {
    flush_bytes: usize,
    next_span: Cell<u64>,
    next_seq: Cell<u64>,
    buf: RefCell<StreamBuf>,
    sink: RefCell<Sink<W>>,
}

impl<W: Write> StreamingRecorder<W> {
    pub fn new(writer: W) -> Self {
        Self::with_flush_bytes(writer, DEFAULT_FLUSH_BYTES)
    }

    /// A recorder flushing its buffer once it exceeds `flush_bytes`
    /// (small values force frequent flushes in tests).
    pub fn with_flush_bytes(writer: W, flush_bytes: usize) -> Self {
        Self {
            flush_bytes: flush_bytes.max(1),
            next_span: Cell::new(0),
            next_seq: Cell::new(0),
            buf: RefCell::new(StreamBuf::default()),
            sink: RefCell::new(Sink {
                writer,
                error: None,
            }),
        }
    }

    /// Append one op line. `t` is the op's own timestamp, if it has
    /// one; `body` writes the op fields after the `t`/`q` stamp.
    fn push(&self, t: Option<u64>, body: impl FnOnce(&mut String)) {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let mut buf = self.buf.borrow_mut();
        let t_us = match t {
            Some(t) => {
                buf.last_t = buf.last_t.max(t);
                t
            }
            None => buf.last_t,
        };
        let _ = write!(buf.text, "{{\"t\":{t_us},\"q\":{seq}");
        body(&mut buf.text);
        buf.text.push_str("}\n");
        if buf.text.len() >= self.flush_bytes {
            self.write_out(&buf.text);
            buf.text.clear();
        }
    }

    fn write_out(&self, text: &str) {
        let mut sink = self.sink.borrow_mut();
        if sink.error.is_some() {
            return;
        }
        if let Err(e) = sink.writer.write_all(text.as_bytes()) {
            sink.error = Some(e);
        }
    }

    /// Flush the remaining buffer and return the sink writer, or the
    /// first I/O error hit at any point during recording.
    pub fn finish(self) -> io::Result<W> {
        let mut sink = self.sink.into_inner();
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        sink.writer
            .write_all(self.buf.into_inner().text.as_bytes())?;
        sink.writer.flush()?;
        Ok(sink.writer)
    }
}

/// JSON-escape `s` into `out`, quotes included.
fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write `"<key>":<value>` for an `f64`: shortest-round-trip decimal
/// when finite, `"<key>b":<bits>` otherwise.
fn push_f64(out: &mut String, key: &str, v: f64) {
    if v.is_finite() {
        let _ = write!(out, ",\"{key}\":{v}");
    } else {
        let _ = write!(out, ",\"{key}b\":{}", v.to_bits());
    }
}

fn push_attrs(out: &mut String, attrs: &[Attr]) {
    out.push_str(",\"a\":[");
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        esc(out, key);
        out.push(',');
        out.push('{');
        match value {
            AttrValue::U64(n) => {
                let _ = write!(out, "\"u\":{n}");
            }
            AttrValue::I64(n) => {
                let _ = write!(out, "\"i\":{n}");
            }
            AttrValue::F64(f) => {
                if f.is_finite() {
                    let _ = write!(out, "\"f\":{f}");
                } else {
                    let _ = write!(out, "\"fb\":{}", f.to_bits());
                }
            }
            AttrValue::Bool(b) => {
                let _ = write!(out, "\"b\":{b}");
            }
            AttrValue::Str(s) => {
                out.push_str("\"s\":");
                esc(out, s);
            }
            AttrValue::Owned(s) => {
                out.push_str("\"w\":");
                esc(out, s);
            }
        }
        out.push('}');
        out.push(']');
    }
    out.push(']');
}

impl<W: Write> Recorder for StreamingRecorder<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.push(None, |out| {
            out.push_str(",\"o\":\"c\",\"n\":");
            esc(out, name);
            let _ = write!(out, ",\"d\":{delta}");
        });
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.push(None, |out| {
            out.push_str(",\"o\":\"g\",\"n\":");
            esc(out, name);
            push_f64(out, "v", value);
        });
    }

    fn gauge_max(&self, name: &'static str, value: f64) {
        self.push(None, |out| {
            out.push_str(",\"o\":\"m\",\"n\":");
            esc(out, name);
            push_f64(out, "v", value);
        });
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.push(None, |out| {
            out.push_str(",\"o\":\"h\",\"n\":");
            esc(out, name);
            let _ = write!(out, ",\"d\":{value}");
        });
    }

    fn counter_sample(&self, name: &'static str, t_us: u64, value: f64) {
        self.push(Some(t_us), |out| {
            out.push_str(",\"o\":\"s\",\"n\":");
            esc(out, name);
            push_f64(out, "v", value);
        });
    }

    fn track_name(&self, track: TrackId, name: &str) {
        self.push(None, |out| {
            let _ = write!(out, ",\"o\":\"tn\",\"k\":{}", track.0);
            out.push_str(",\"s\":");
            esc(out, name);
        });
    }

    fn event(&self, name: &'static str, t_us: u64, track: Option<TrackId>, attrs: &[Attr]) {
        self.push(Some(t_us), |out| {
            out.push_str(",\"o\":\"e\",\"n\":");
            esc(out, name);
            if let Some(track) = track {
                let _ = write!(out, ",\"k\":{}", track.0);
            }
            push_attrs(out, attrs);
        });
    }

    fn span_begin(&self, track: TrackId, name: &'static str, t_us: u64, attrs: &[Attr]) -> SpanId {
        let id = self.next_span.get() + 1;
        self.next_span.set(id);
        self.push(Some(t_us), |out| {
            let _ = write!(out, ",\"o\":\"sb\",\"i\":{id},\"k\":{}", track.0);
            out.push_str(",\"n\":");
            esc(out, name);
            push_attrs(out, attrs);
        });
        SpanId(id)
    }

    fn span_end(&self, span: SpanId, t_us: u64) {
        if span.is_null() {
            return;
        }
        self.push(Some(t_us), |out| {
            let _ = write!(out, ",\"o\":\"se\",\"i\":{}", span.0);
        });
    }

    fn span_attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        if span.is_null() {
            return;
        }
        self.push(None, |out| {
            let _ = write!(out, ",\"o\":\"sa\",\"i\":{}", span.0);
            out.push_str(",\"n\":");
            esc(out, key);
            push_attrs(out, &[("v", value)]);
        });
    }
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

/// One logged recorder call. Ops that carry no timestamp of their own
/// (counters, span attributes) inherit the recorder's most recent
/// timestamp so the `(t_us, seq)` sort keeps them adjacent to the
/// surrounding timeline activity.
#[derive(Debug)]
enum Op {
    CounterAdd {
        name: &'static str,
        delta: u64,
    },
    GaugeSet {
        name: &'static str,
        value: f64,
    },
    GaugeMax {
        name: &'static str,
        value: f64,
    },
    HistRecord {
        name: &'static str,
        value: u64,
    },
    CounterSample {
        name: &'static str,
        value: f64,
    },
    TrackName {
        track: u64,
        name: String,
    },
    Event {
        name: &'static str,
        track: Option<TrackId>,
        attrs: Vec<Attr>,
    },
    SpanBegin {
        id: u64,
        track: TrackId,
        name: &'static str,
        attrs: Vec<Attr>,
    },
    SpanEnd {
        id: u64,
    },
    SpanAttr {
        id: u64,
        key: &'static str,
        value: AttrValue,
    },
}

#[derive(Debug)]
struct StampedOp {
    t_us: u64,
    seq: u64,
    op: Op,
}

/// Sort an op log by `(t_us, seq)` and replay it into a [`TraceDump`].
///
/// A span attribute inherits the high-water timestamp, which can lie past
/// its span's end when an earlier op ended later in sim time, so it may
/// sort after that end. Whether it applies is therefore decided by
/// `seq` — recorded before the end, as [`MemRecorder`] sees it.
///
/// [`MemRecorder`]: crate::recorder::MemRecorder
fn replay_ops(mut ops: Vec<StampedOp>) -> TraceDump {
    // seq is unique, so this order is total and respects program order.
    ops.sort_by_key(|op| (op.t_us, op.seq));

    let mut out = TraceDump::default();
    let mut metrics = MetricsRegistry::default();
    // Span id → (index into `out.spans`, seq of its end once seen).
    let mut span_at: HashMap<u64, (usize, Option<u64>)> = HashMap::new();
    for StampedOp { t_us, seq, op } in ops {
        match op {
            Op::CounterAdd { name, delta } => metrics.counter_add(name, delta),
            Op::GaugeSet { name, value } => metrics.gauge_set(name, value),
            Op::GaugeMax { name, value } => metrics.gauge_max(name, value),
            Op::HistRecord { name, value } => metrics.histogram_record(name, value),
            Op::CounterSample { name, value } => {
                metrics.gauge_set(name, value);
                out.counter_series
                    .entry(name)
                    .or_default()
                    .push((t_us, value));
            }
            Op::TrackName { track, name } => {
                out.track_names.insert(track, name);
            }
            Op::Event { name, track, attrs } => out.events.push(EventRecord {
                name,
                t_us,
                track,
                attrs,
            }),
            Op::SpanBegin {
                id,
                track,
                name,
                attrs,
            } => {
                span_at.insert(id, (out.spans.len(), None));
                out.spans.push(SpanRecord {
                    id: SpanId(id),
                    track,
                    name,
                    start_us: t_us,
                    end_us: None,
                    attrs,
                });
            }
            Op::SpanEnd { id } => {
                if let Some((index, end @ None)) = span_at.get_mut(&id) {
                    *end = Some(seq);
                    out.spans[*index].end_us = Some(t_us);
                }
            }
            Op::SpanAttr { id, key, value } => {
                if let Some(&(index, end)) = span_at.get(&id) {
                    if end.is_none_or(|end| seq < end) {
                        out.spans[index].attrs.push((key, value));
                    }
                }
            }
        }
    }
    out.open_spans = span_at.values().filter(|(_, end)| end.is_none()).count();
    out.metrics = metrics.snapshot();
    out
}

/// Intern a dynamically built name (a replayed op-log name, a per-link
/// metric name) so it can live in the `&'static str` slots the
/// [`Recorder`](crate::Recorder) API requires. Leaks once per distinct
/// string — bounded by the metric / span-name vocabulary, not the stream
/// length.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(&interned) = pool.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), leaked);
    leaked
}

use serde_json::Value;

fn get_u64(obj: &Value, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("line {line}: missing integer field `{key}`"))
}

fn get_str<'a>(obj: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("line {line}: missing string field `{key}`"))
}

/// Read an `f64` written by [`push_f64`]: `<key>` or `<key>b` bits.
fn get_f64(obj: &Value, key: &str, line: usize) -> Result<f64, String> {
    if let Some(v) = obj.get(key).and_then(|v| v.as_f64()) {
        return Ok(v);
    }
    let bits_key = format!("{key}b");
    obj.get(bits_key.as_str())
        .and_then(|v| v.as_u64())
        .map(f64::from_bits)
        .ok_or_else(|| format!("line {line}: missing float field `{key}`"))
}

fn parse_attr_value(v: &Value, line: usize) -> Result<AttrValue, String> {
    if let Some(n) = v.get("u").and_then(|v| v.as_u64()) {
        Ok(AttrValue::U64(n))
    } else if let Some(n) = v.get("i").and_then(|v| v.as_i64()) {
        Ok(AttrValue::I64(n))
    } else if let Some(f) = v.get("f").and_then(|v| v.as_f64()) {
        Ok(AttrValue::F64(f))
    } else if let Some(bits) = v.get("fb").and_then(|v| v.as_u64()) {
        Ok(AttrValue::F64(f64::from_bits(bits)))
    } else if let Some(Value::Bool(b)) = v.get("b") {
        Ok(AttrValue::Bool(*b))
    } else if let Some(s) = v.get("s").and_then(|v| v.as_str()) {
        Ok(AttrValue::Str(intern(s)))
    } else if let Some(s) = v.get("w").and_then(|v| v.as_str()) {
        Ok(AttrValue::Owned(s.to_string()))
    } else {
        Err(format!("line {line}: unknown attr value shape"))
    }
}

fn parse_attrs(obj: &Value, line: usize) -> Result<Vec<Attr>, String> {
    let Some(list) = obj.get("a").and_then(|v| v.as_array()) else {
        return Err(format!("line {line}: missing attrs array `a`"));
    };
    let mut attrs = Vec::with_capacity(list.len());
    for entry in list {
        let pair = entry
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("line {line}: attr is not a [key, value] pair"))?;
        let key = pair[0]
            .as_str()
            .ok_or_else(|| format!("line {line}: attr key is not a string"))?;
        attrs.push((intern(key), parse_attr_value(&pair[1], line)?));
    }
    Ok(attrs)
}

/// Replay a JSONL op stream written by [`StreamingRecorder`] into a
/// deterministic [`TraceDump`]: ops sorted by `(t_us, seq)` and
/// applied in that order. Any malformed, truncated, or unrecognized
/// line is an error carrying its 1-based line number.
pub fn replay_jsonl(text: &str) -> Result<TraceDump, String> {
    let mut ops: Vec<StampedOp> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let obj: Value =
            serde_json::from_str(raw).map_err(|e| format!("line {line}: invalid JSON: {e}"))?;
        // A stream may open with a `{"manifest": {...}}` header line
        // (see `crate::manifest`); it carries no op and is skipped here.
        // `manifest_from_jsonl` reads it.
        if obj.get("o").is_none() && obj.get(crate::manifest::MANIFEST_KEY).is_some() {
            continue;
        }
        let t_us = get_u64(&obj, "t", line)?;
        let seq = get_u64(&obj, "q", line)?;
        let op = match get_str(&obj, "o", line)? {
            "c" => Op::CounterAdd {
                name: intern(get_str(&obj, "n", line)?),
                delta: get_u64(&obj, "d", line)?,
            },
            "g" => Op::GaugeSet {
                name: intern(get_str(&obj, "n", line)?),
                value: get_f64(&obj, "v", line)?,
            },
            "m" => Op::GaugeMax {
                name: intern(get_str(&obj, "n", line)?),
                value: get_f64(&obj, "v", line)?,
            },
            "h" => Op::HistRecord {
                name: intern(get_str(&obj, "n", line)?),
                value: get_u64(&obj, "d", line)?,
            },
            "s" => Op::CounterSample {
                name: intern(get_str(&obj, "n", line)?),
                value: get_f64(&obj, "v", line)?,
            },
            "tn" => Op::TrackName {
                track: get_u64(&obj, "k", line)?,
                name: get_str(&obj, "s", line)?.to_string(),
            },
            "e" => Op::Event {
                name: intern(get_str(&obj, "n", line)?),
                track: obj.get("k").and_then(|v| v.as_u64()).map(TrackId),
                attrs: parse_attrs(&obj, line)?,
            },
            "sb" => Op::SpanBegin {
                id: get_u64(&obj, "i", line)?,
                track: TrackId(get_u64(&obj, "k", line)?),
                name: intern(get_str(&obj, "n", line)?),
                attrs: parse_attrs(&obj, line)?,
            },
            "se" => Op::SpanEnd {
                id: get_u64(&obj, "i", line)?,
            },
            "sa" => {
                let id = get_u64(&obj, "i", line)?;
                let key = intern(get_str(&obj, "n", line)?);
                let attrs = parse_attrs(&obj, line)?;
                let (_, value) = attrs
                    .into_iter()
                    .next()
                    .ok_or_else(|| format!("line {line}: span attr has no value"))?;
                Op::SpanAttr { id, key, value }
            }
            other => return Err(format!("line {line}: unknown op tag `{other}`")),
        };
        ops.push(StampedOp { t_us, seq, op });
    }
    Ok(replay_ops(ops))
}

/// Extract the manifest JSON from a stream's header line, if the first
/// non-empty line is a `{"manifest": {...}}` header written by the CLI.
pub fn manifest_from_jsonl(text: &str) -> Option<Value> {
    let first = text.lines().find(|l| !l.trim().is_empty())?;
    let obj: Value = serde_json::from_str(first).ok()?;
    if obj.get("o").is_some() {
        return None;
    }
    obj.get(crate::manifest::MANIFEST_KEY).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MemRecorder;

    /// Drive the same call sequence into any recorder.
    fn drive<R: Recorder>(r: &R) {
        r.track_name(TrackId(3), "vm3@node1");
        let s = r.span_begin(TrackId(3), "map", 100, &[("task", AttrValue::U64(0))]);
        r.span_attr(s, "locality", AttrValue::Str("node_local"));
        r.counter_add("mr.maps", 1);
        r.gauge_set("util", 0.25);
        r.gauge_max("peak", 7.5);
        r.histogram_record("lat_us", 150);
        r.span_end(s, 250);
        r.event(
            "admit",
            300,
            Some(TrackId(1)),
            &[
                ("id", AttrValue::U64(7)),
                ("why", AttrValue::Owned("fits \"rack\"\n".to_string())),
                ("neg", AttrValue::I64(-4)),
                ("frac", AttrValue::F64(0.1)),
                ("ok", AttrValue::Bool(true)),
            ],
        );
        r.counter_sample("ts.q", 310, 2.0);
        r.counter_sample("ts.q", 400, 1.0);
    }

    fn record_stream() -> String {
        let rec = StreamingRecorder::new(Vec::new());
        drive(&rec);
        String::from_utf8(rec.finish().unwrap()).unwrap()
    }

    #[test]
    fn replay_matches_mem_recorder() {
        let mem = MemRecorder::new();
        drive(&mem);
        let merged = replay_jsonl(&record_stream()).unwrap();
        let mem = mem.into_dump();
        assert_eq!(merged.metrics, mem.metrics);
        assert_eq!(merged.track_names, mem.track_names);
        assert_eq!(merged.counter_series, mem.counter_series);
        assert_eq!(merged.open_spans, 0);
        assert_eq!(merged.spans, mem.spans);
        assert_eq!(merged.events, mem.events);
    }

    #[test]
    fn span_attr_survives_an_earlier_later_ending_span() {
        // Span `a` ends at 500, raising the high-water mark; span `b`
        // then opens and closes at 200, so its attr (stamped 500) sorts
        // after its own end. Replay must still attach it, as memory does.
        let rec = StreamingRecorder::new(Vec::new());
        let a = rec.span_begin(TrackId(0), "a", 100, &[]);
        rec.span_end(a, 500);
        let b = rec.span_begin(TrackId(1), "b", 200, &[]);
        rec.span_attr(b, "won", AttrValue::Bool(true));
        rec.span_end(b, 200);
        rec.span_attr(b, "late", AttrValue::Bool(true)); // after its end: dropped
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        let merged = replay_jsonl(&text).unwrap();
        assert_eq!(merged.open_spans, 0);
        assert_eq!(merged.spans[1].attrs, vec![("won", AttrValue::Bool(true))]);
    }

    #[test]
    fn tiny_flush_threshold_same_replay() {
        // Force a flush on nearly every op: the file contents must be
        // identical to the buffered-to-the-end recording.
        let rec = StreamingRecorder::with_flush_bytes(Vec::new(), 8);
        drive(&rec);
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        assert_eq!(text, record_stream());
    }

    #[test]
    fn nonfinite_floats_roundtrip_as_bits() {
        let rec = StreamingRecorder::new(Vec::new());
        rec.gauge_set("inf", f64::INFINITY);
        rec.gauge_set("ninf", f64::NEG_INFINITY);
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        assert!(text.contains("\"vb\":"), "{text}");
        let merged = replay_jsonl(&text).unwrap();
        assert_eq!(merged.metrics.gauges["inf"], f64::INFINITY);
        assert_eq!(merged.metrics.gauges["ninf"], f64::NEG_INFINITY);
    }

    #[test]
    fn corrupt_and_truncated_lines_error_with_line_number() {
        let good = record_stream();
        // Truncate the final line mid-object.
        let truncated = &good[..good.len() - 4];
        let err = replay_jsonl(truncated).unwrap_err();
        assert!(err.contains("line"), "{err}");

        let corrupt = format!("{good}this is not json\n");
        let err = replay_jsonl(&corrupt).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");

        let unknown = "{\"t\":0,\"q\":0,\"o\":\"zz\"}\n";
        let err = replay_jsonl(unknown).unwrap_err();
        assert!(err.contains("unknown op tag"), "{err}");
    }

    #[test]
    fn manifest_header_is_skipped_and_extractable() {
        let body = record_stream();
        let header = "{\"manifest\":{\"seed\":7,\"policy\":\"affinity\"}}\n";
        let with_header = format!("{header}{body}");

        // Replay ignores the header: identical merged trace.
        let plain = replay_jsonl(&body).unwrap();
        let headed = replay_jsonl(&with_header).unwrap();
        assert_eq!(plain.metrics, headed.metrics);
        assert_eq!(
            format!("{:?}", plain.events),
            format!("{:?}", headed.events)
        );

        // The header is extractable; a headerless stream yields None.
        let m = manifest_from_jsonl(&with_header).unwrap();
        assert_eq!(m.get("seed").and_then(|v| v.as_u64()), Some(7));
        assert!(manifest_from_jsonl(&body).is_none());
    }

    #[test]
    fn streaming_reports_io_errors() {
        #[derive(Debug)]
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rec = StreamingRecorder::with_flush_bytes(FailingWriter, 1);
        rec.counter_add("c", 1);
        let err = rec.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
