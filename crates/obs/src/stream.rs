//! [`StreamingRecorder`]: a recorder that writes its op log to a JSONL
//! sink as it happens instead of buffering it.
//!
//! The recorder holds one reused line of text, so recording costs no
//! memory that grows with the run; the sink (a `BufWriter<File>` in the
//! CLI) decides how lines reach the disk. Like every recorder it is
//! single-threaded: parallel code hands its results back to the
//! recording thread.
//!
//! The stream is the recording: [`replay_jsonl`] calls the same
//! [`Recorder`] methods on a fresh [`MemRecorder`], line by line in file
//! order, and returns its [`MemRecorder::into_dump`]. So a replayed
//! stream equals the in-memory recording of the same run exactly (see
//! `crates/obs/tests/props.rs`). A replay builds the whole dump from the
//! whole text, so a run that replays its stream needs more memory than
//! one recorded in memory: for 200 terasort requests (32 maps, 8
//! reducers) `simulate --stream-out` peaks at about 48 MB, the in-memory
//! run at about 20 MB.
//!
//! Format: one JSON object per line. `o` tags the op (`c` counter_add,
//! `g` gauge_set, `m` gauge_max, `h` histogram_record, `s`
//! counter_sample, `tn` track_name, `e` event, `sb`/`se`/`sa` span
//! begin/end/attr), and `t` is the sim time of the ops that take one
//! (`s`, `e`, `sb`, `se`). Floats are written with Rust's
//! shortest-round-trip `{}` formatting; non-finite values fall back to
//! a `<key>b` bit-pattern field so replay is exact for every `f64`.
//! The reader ignores fields it does not know, so older streams that
//! stamp every line with `t` and a sequence number `q` replay the same.
//!
//! [`MemRecorder`]: crate::recorder::MemRecorder
//! [`MemRecorder::into_dump`]: crate::recorder::MemRecorder::into_dump

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Mutex, OnceLock};

use crate::recorder::{Attr, AttrValue, MemRecorder, Recorder, SpanId, TrackId};
use crate::trace::TraceDump;

#[derive(Debug)]
struct Sink<W> {
    writer: W,
    /// The line being written, reused from op to op.
    line: String,
    /// First I/O error, surfaced by [`StreamingRecorder::finish`];
    /// later writes are dropped once set.
    error: Option<io::Error>,
}

/// Streaming recorder; see the module docs.
#[derive(Debug)]
pub struct StreamingRecorder<W> {
    next_span: Cell<u64>,
    sink: RefCell<Sink<W>>,
}

impl<W: Write> StreamingRecorder<W> {
    pub fn new(writer: W) -> Self {
        Self {
            next_span: Cell::new(0),
            sink: RefCell::new(Sink {
                writer,
                line: String::new(),
                error: None,
            }),
        }
    }

    /// Write one op line: `tag`, then `t` if the op takes a time, then
    /// the fields `body` writes.
    fn push(&self, tag: &str, t_us: Option<u64>, body: impl FnOnce(&mut String)) {
        let mut sink = self.sink.borrow_mut();
        let Sink {
            writer,
            line,
            error,
        } = &mut *sink;
        if error.is_some() {
            return;
        }
        line.clear();
        let _ = write!(line, "{{\"o\":\"{tag}\"");
        if let Some(t_us) = t_us {
            let _ = write!(line, ",\"t\":{t_us}");
        }
        body(line);
        line.push_str("}\n");
        if let Err(e) = writer.write_all(line.as_bytes()) {
            *error = Some(e);
        }
    }

    /// Flush the sink and return its writer, or the first I/O error hit
    /// at any point during recording.
    pub fn finish(self) -> io::Result<W> {
        let mut sink = self.sink.into_inner();
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
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

/// Write `,"<key>":"<s>"`, escaped.
fn push_name(out: &mut String, key: &str, s: &str) {
    let _ = write!(out, ",\"{key}\":");
    esc(out, s);
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
        self.push("c", None, |out| {
            push_name(out, "n", name);
            let _ = write!(out, ",\"d\":{delta}");
        });
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.push("g", None, |out| {
            push_name(out, "n", name);
            push_f64(out, "v", value);
        });
    }

    fn gauge_max(&self, name: &'static str, value: f64) {
        self.push("m", None, |out| {
            push_name(out, "n", name);
            push_f64(out, "v", value);
        });
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.push("h", None, |out| {
            push_name(out, "n", name);
            let _ = write!(out, ",\"d\":{value}");
        });
    }

    fn counter_sample(&self, name: &'static str, t_us: u64, value: f64) {
        self.push("s", Some(t_us), |out| {
            push_name(out, "n", name);
            push_f64(out, "v", value);
        });
    }

    fn track_name(&self, track: TrackId, name: &str) {
        self.push("tn", None, |out| {
            let _ = write!(out, ",\"k\":{}", track.0);
            push_name(out, "s", name);
        });
    }

    fn event(&self, name: &'static str, t_us: u64, track: Option<TrackId>, attrs: &[Attr]) {
        self.push("e", Some(t_us), |out| {
            push_name(out, "n", name);
            if let Some(track) = track {
                let _ = write!(out, ",\"k\":{}", track.0);
            }
            push_attrs(out, attrs);
        });
    }

    fn span_begin(&self, track: TrackId, name: &'static str, t_us: u64, attrs: &[Attr]) -> SpanId {
        let id = self.next_span.get() + 1;
        self.next_span.set(id);
        self.push("sb", Some(t_us), |out| {
            let _ = write!(out, ",\"i\":{id},\"k\":{}", track.0);
            push_name(out, "n", name);
            push_attrs(out, attrs);
        });
        SpanId(id)
    }

    fn span_end(&self, span: SpanId, t_us: u64) {
        if span.is_null() {
            return;
        }
        self.push("se", Some(t_us), |out| {
            let _ = write!(out, ",\"i\":{}", span.0);
        });
    }

    fn span_attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        if span.is_null() {
            return;
        }
        self.push("sa", None, |out| {
            let _ = write!(out, ",\"i\":{}", span.0);
            push_name(out, "n", key);
            push_attrs(out, &[("v", value)]);
        });
    }
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

/// Replay a JSONL op stream written by [`StreamingRecorder`]: each
/// line calls its [`Recorder`] method on a fresh [`MemRecorder`], in
/// file order, and the result is that recorder's dump. Any malformed,
/// truncated, or unrecognized line, and a span begin whose id is not
/// the next span id, is an error carrying its 1-based line number.
pub fn replay_jsonl(text: &str) -> Result<TraceDump, String> {
    let rec = MemRecorder::new();
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
        let u64_at = |key| get_u64(&obj, key, line);
        let name = || get_str(&obj, "n", line).map(intern);
        let value = || get_f64(&obj, "v", line);
        match get_str(&obj, "o", line)? {
            "c" => rec.counter_add(name()?, u64_at("d")?),
            "g" => rec.gauge_set(name()?, value()?),
            "m" => rec.gauge_max(name()?, value()?),
            "h" => rec.histogram_record(name()?, u64_at("d")?),
            "s" => rec.counter_sample(name()?, u64_at("t")?, value()?),
            "tn" => rec.track_name(TrackId(u64_at("k")?), get_str(&obj, "s", line)?),
            "e" => {
                let track = obj.get("k").and_then(|v| v.as_u64()).map(TrackId);
                rec.event(name()?, u64_at("t")?, track, &parse_attrs(&obj, line)?);
            }
            "sb" => {
                let id = u64_at("i")?;
                let attrs = parse_attrs(&obj, line)?;
                let next = rec.span_begin(TrackId(u64_at("k")?), name()?, u64_at("t")?, &attrs);
                if next.0 != id {
                    return Err(format!(
                        "line {line}: span begin has id {id}, but the next span id is {}",
                        next.0
                    ));
                }
            }
            "se" => rec.span_end(SpanId(u64_at("i")?), u64_at("t")?),
            "sa" => {
                let id = SpanId(u64_at("i")?);
                let (_, value) = parse_attrs(&obj, line)?
                    .into_iter()
                    .next()
                    .ok_or_else(|| format!("line {line}: span attr has no value"))?;
                rec.span_attr(id, name()?, value);
            }
            other => return Err(format!("line {line}: unknown op tag `{other}`")),
        }
    }
    Ok(rec.into_dump())
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
        assert_eq!(replay_jsonl(&record_stream()).unwrap(), mem.into_dump());
    }

    #[test]
    fn parent_format_stream_replays_in_file_order() {
        // Older streams stamp every line with `t` (the high-water time
        // on untimed ops) and a sequence number `q`. Replay ignores both
        // and applies lines in file order, so span `b` (begun at 200
        // after `a` ended at 500) and the late `util` sample at 300 stay
        // where they were emitted.
        let text = concat!(
            "{\"manifest\":{\"seed\":7}}\n",
            "{\"t\":0,\"q\":0,\"o\":\"tn\",\"k\":3,\"s\":\"vm3@node1\"}\n",
            "{\"t\":100,\"q\":1,\"o\":\"sb\",\"i\":1,\"k\":3,\"n\":\"map\",\"a\":[[\"task\",{\"u\":0}]]}\n",
            "{\"t\":100,\"q\":2,\"o\":\"sa\",\"i\":1,\"n\":\"locality\",\"a\":[[\"v\",{\"s\":\"node_local\"}]]}\n",
            "{\"t\":500,\"q\":3,\"o\":\"se\",\"i\":1}\n",
            "{\"t\":500,\"q\":4,\"o\":\"s\",\"n\":\"util\",\"v\":0.5}\n",
            "{\"t\":200,\"q\":5,\"o\":\"sb\",\"i\":2,\"k\":4,\"n\":\"b\",\"a\":[]}\n",
            "{\"t\":500,\"q\":6,\"o\":\"c\",\"n\":\"mr.maps\",\"d\":2}\n",
            "{\"t\":300,\"q\":7,\"o\":\"s\",\"n\":\"util\",\"v\":0.25}\n",
            "{\"t\":300,\"q\":8,\"o\":\"e\",\"n\":\"admit\",\"k\":1,\"a\":[[\"id\",{\"u\":7}]]}\n",
            "{\"t\":500,\"q\":9,\"o\":\"sa\",\"i\":2,\"n\":\"won\",\"a\":[[\"v\",{\"b\":true}]]}\n",
            "{\"t\":400,\"q\":10,\"o\":\"se\",\"i\":2}\n",
        );
        let mem = MemRecorder::new();
        mem.track_name(TrackId(3), "vm3@node1");
        let a = mem.span_begin(TrackId(3), "map", 100, &[("task", AttrValue::U64(0))]);
        mem.span_attr(a, "locality", AttrValue::Str("node_local"));
        mem.span_end(a, 500);
        mem.counter_sample("util", 500, 0.5);
        let b = mem.span_begin(TrackId(4), "b", 200, &[]);
        mem.counter_add("mr.maps", 2);
        mem.counter_sample("util", 300, 0.25);
        mem.event("admit", 300, Some(TrackId(1)), &[("id", AttrValue::U64(7))]);
        mem.span_attr(b, "won", AttrValue::Bool(true));
        mem.span_end(b, 400);
        let expected = mem.into_dump();

        let replayed = replay_jsonl(text).unwrap();
        assert_eq!(replayed, expected);
        assert_eq!(
            replayed.counter_series["util"],
            vec![(500, 0.5), (300, 0.25)]
        );
        assert_eq!(replayed.metrics.gauges["util"], 0.5);
        assert_eq!(
            replayed.spans[1].attrs,
            vec![("won", AttrValue::Bool(true))]
        );
    }

    #[test]
    fn span_attr_survives_an_earlier_later_ending_span() {
        // Span `a` ends at 500; span `b` then opens and closes at 200,
        // earlier in sim time. Its attr, emitted before its end, must
        // still attach on replay, as it does in memory.
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

        // A span begin must carry the id a recorder would assign next.
        let skipped = "{\"o\":\"sb\",\"t\":0,\"i\":3,\"k\":0,\"n\":\"x\",\"a\":[]}\n";
        let err = replay_jsonl(&format!("{good}{skipped}")).unwrap_err();
        let line = good.lines().count() + 1;
        assert!(err.starts_with(&format!("line {line}: ")), "{err}");
        assert!(err.contains("next span id is 2"), "{err}");
    }

    #[test]
    fn manifest_header_is_skipped() {
        let body = record_stream();
        let header = "{\"manifest\":{\"seed\":7,\"policy\":\"affinity\"}}\n";
        let with_header = format!("{header}{body}");

        // Replay ignores the header: identical dump.
        assert_eq!(
            replay_jsonl(&body).unwrap(),
            replay_jsonl(&with_header).unwrap()
        );
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
        let rec = StreamingRecorder::new(FailingWriter);
        rec.counter_add("c", 1);
        let err = rec.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
