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
//! `crates/obs/tests/props.rs`). [`replay_jsonl_from`] reads one line at
//! a time from a [`BufRead`] and decodes it in place, without a JSON tree
//! (the grammar is in `docs/metrics-schema.md`), so a replay holds the
//! dump and one line: for 200 terasort requests (32 maps, 8 reducers)
//! `simulate --stream-out` peaks at 17.8 MB, the `--metrics-out` run at
//! 19.0 MB.
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
//! Floats are read from their text, so a `-0` replays as `-0.0`.
//!
//! [`MemRecorder`]: crate::recorder::MemRecorder
//! [`MemRecorder::into_dump`]: crate::recorder::MemRecorder::into_dump

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::sync::{Mutex, OnceLock};

use crate::recorder::{Attr, AttrValue, MemRecorder, Recorder, SpanId, TrackId};
use crate::trace::TraceDump;

#[cfg(test)]
mod oracle;
mod scan;

use scan::{Cursor, Tok};

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
/// [`Recorder`] API requires. Leaks once per distinct
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

/// Replay a JSONL op stream written by [`StreamingRecorder`]; see
/// [`replay_jsonl_from`].
pub fn replay_jsonl(text: &str) -> Result<TraceDump, String> {
    replay_jsonl_from(text.as_bytes())
}

/// Replay a JSONL op stream written by [`StreamingRecorder`]: each
/// line calls its [`Recorder`] method on a fresh [`MemRecorder`], in
/// file order, and the result is that recorder's dump. Lines are read
/// one at a time into a reused buffer, split and numbered as
/// [`str::lines`] does; blank lines are skipped. Any malformed,
/// truncated, non-UTF-8 or unrecognized line, and a span begin whose id
/// is not the next span id, is an error carrying its 1-based line
/// number.
pub fn replay_jsonl_from(mut input: impl BufRead) -> Result<TraceDump, String> {
    let rec = MemRecorder::new();
    let mut replay = Replay::default();
    let mut buf = Vec::new();
    for line in 1.. {
        buf.clear();
        match input.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("line {line}: I/O error: {e}")),
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let text =
            std::str::from_utf8(&buf).map_err(|e| format!("line {line}: invalid UTF-8: {e}"))?;
        if text.trim().is_empty() {
            continue;
        }
        replay
            .line(&rec, text)
            .map_err(|e| format!("line {line}: {e}"))?;
    }
    Ok(rec.into_dump())
}

/// What a replay keeps from line to line.
#[derive(Default)]
struct Replay {
    /// Every name interned so far, so [`intern`]'s lock is taken once
    /// per distinct name rather than once per line.
    names: HashSet<&'static str>,
    /// The attributes of the line being replayed.
    attrs: Vec<Attr>,
}

/// The fields of one line that some op reads, each the first
/// occurrence of its key (as `serde_json::Value::get` finds it).
#[derive(Default)]
struct Fields<'a> {
    o: Option<Tok<'a>>,
    t: Option<Tok<'a>>,
    n: Option<Tok<'a>>,
    d: Option<Tok<'a>>,
    v: Option<Tok<'a>>,
    vb: Option<Tok<'a>>,
    k: Option<Tok<'a>>,
    i: Option<Tok<'a>>,
    s: Option<Tok<'a>>,
    /// `a`, read into [`Replay::attrs`], or why it is not a list of
    /// attributes. Only an op that reads `a` reports the reason.
    a: Option<Result<(), &'static str>>,
    /// Whether the line has a manifest key.
    manifest: bool,
}

impl<'a> Fields<'a> {
    fn slot(&mut self, key: &str) -> Option<&mut Option<Tok<'a>>> {
        Some(match key {
            "o" => &mut self.o,
            "t" => &mut self.t,
            "n" => &mut self.n,
            "d" => &mut self.d,
            "v" => &mut self.v,
            "vb" => &mut self.vb,
            "k" => &mut self.k,
            "i" => &mut self.i,
            "s" => &mut self.s,
            _ => return None,
        })
    }
}

fn missing(kind: &str, key: &str) -> String {
    format!("missing {kind} field `{key}`")
}

fn int(tok: &Option<Tok>, key: &str) -> Result<u64, String> {
    tok.as_ref()
        .and_then(Tok::as_u64)
        .ok_or_else(|| missing("integer", key))
}

fn string<'t>(tok: &'t Option<Tok>, key: &str) -> Result<&'t str, String> {
    tok.as_ref()
        .and_then(Tok::as_str)
        .ok_or_else(|| missing("string", key))
}

/// An `f64` written by [`push_f64`]: `v`, or its bits in `vb`.
fn float(v: &Option<Tok>, vb: &Option<Tok>) -> Result<f64, String> {
    v.as_ref()
        .and_then(Tok::as_f64)
        .or_else(|| vb.as_ref().and_then(Tok::as_u64).map(f64::from_bits))
        .ok_or_else(|| missing("float", "v"))
}

fn attrs(a: Option<Result<(), &'static str>>) -> Result<(), String> {
    a.unwrap_or(Err("missing attrs array `a`"))
        .map_err(str::to_string)
}

impl Replay {
    fn intern(&mut self, s: &str) -> &'static str {
        if let Some(&name) = self.names.get(s) {
            return name;
        }
        let name = intern(s);
        self.names.insert(name);
        name
    }

    fn name(&mut self, n: &Option<Tok>) -> Result<&'static str, String> {
        let name = string(n, "n")?;
        Ok(self.intern(name))
    }

    /// Apply one non-blank line to `rec`. The whole line is checked as
    /// JSON before any field is read, as `serde_json::from_str` would.
    fn line(&mut self, rec: &MemRecorder, line: &str) -> Result<(), String> {
        let mut f = Fields::default();
        let mut cur = Cursor::new(line);
        cur.ws();
        if cur.peek() == Some(b'{') {
            let mut more = cur.open()?;
            while more {
                match &*cur.key()? {
                    "a" if f.a.is_none() => f.a = Some(self.read_attrs(&mut cur)?),
                    key => {
                        let tok = cur.value()?;
                        f.manifest |= key == crate::manifest::MANIFEST_KEY;
                        if let Some(slot @ None) = f.slot(key) {
                            *slot = Some(tok);
                        }
                    }
                }
                more = cur.next(b'}')?;
            }
        } else {
            cur.value()?;
        }
        cur.ws();
        if !cur.at_end() {
            return Err(cur.bad("trailing characters"));
        }
        // A stream may open with a `{"manifest": {...}}` header line
        // (see `crate::manifest`); it carries no op and is skipped.
        if f.o.is_none() && f.manifest {
            return Ok(());
        }
        // Each op reads its fields in one fixed order, so a line that
        // lacks two of them always names the same one.
        match string(&f.o, "o")? {
            "c" => rec.counter_add(self.name(&f.n)?, int(&f.d, "d")?),
            "g" => rec.gauge_set(self.name(&f.n)?, float(&f.v, &f.vb)?),
            "m" => rec.gauge_max(self.name(&f.n)?, float(&f.v, &f.vb)?),
            "h" => rec.histogram_record(self.name(&f.n)?, int(&f.d, "d")?),
            "s" => rec.counter_sample(self.name(&f.n)?, int(&f.t, "t")?, float(&f.v, &f.vb)?),
            "tn" => rec.track_name(TrackId(int(&f.k, "k")?), string(&f.s, "s")?),
            "e" => {
                let track = f.k.as_ref().and_then(Tok::as_u64).map(TrackId);
                let name = self.name(&f.n)?;
                let t_us = int(&f.t, "t")?;
                attrs(f.a)?;
                rec.event(name, t_us, track, &self.attrs);
            }
            "sb" => {
                let id = int(&f.i, "i")?;
                attrs(f.a)?;
                let track = TrackId(int(&f.k, "k")?);
                let name = self.name(&f.n)?;
                let next = rec.span_begin(track, name, int(&f.t, "t")?, &self.attrs);
                if next.0 != id {
                    return Err(format!(
                        "span begin has id {id}, but the next span id is {}",
                        next.0
                    ));
                }
            }
            "se" => rec.span_end(SpanId(int(&f.i, "i")?), int(&f.t, "t")?),
            "sa" => {
                let id = SpanId(int(&f.i, "i")?);
                attrs(f.a)?;
                let (_, value) = self
                    .attrs
                    .drain(..)
                    .next()
                    .ok_or("span attr has no value")?;
                rec.span_attr(id, self.name(&f.n)?, value);
            }
            other => return Err(format!("unknown op tag `{other}`")),
        }
        Ok(())
    }

    /// Read an `a` value into `self.attrs`. The outer error is invalid
    /// JSON. The inner one is the first reason the value is not a list
    /// of attributes; the rest of the value is still checked after it.
    fn read_attrs(&mut self, cur: &mut Cursor) -> Result<Result<(), &'static str>, String> {
        self.attrs.clear();
        if cur.peek() != Some(b'[') {
            cur.value()?;
            return Ok(Err("missing attrs array `a`"));
        }
        let mut verdict = Ok(());
        let mut more = cur.open()?;
        while more {
            if verdict.is_ok() {
                match self.read_attr(cur)? {
                    Ok(attr) => self.attrs.push(attr),
                    Err(e) => verdict = Err(e),
                }
            } else {
                cur.value()?;
            }
            more = cur.next(b']')?;
        }
        Ok(verdict)
    }

    /// One `[key, value]` pair written by [`push_attrs`].
    fn read_attr(&mut self, cur: &mut Cursor) -> Result<Result<Attr, &'static str>, String> {
        const NOT_A_PAIR: &str = "attr is not a [key, value] pair";
        if cur.peek() != Some(b'[') {
            cur.value()?;
            return Ok(Err(NOT_A_PAIR));
        }
        let (mut key, mut value, mut len) = (None, None, 0);
        let mut more = cur.open()?;
        while more {
            match len {
                0 => key = Some(cur.value()?),
                1 => value = Some(self.read_attr_value(cur)?),
                _ => {
                    cur.value()?;
                }
            }
            len += 1;
            more = cur.next(b']')?;
        }
        let (Some(key), Some(value), 2) = (key, value, len) else {
            return Ok(Err(NOT_A_PAIR));
        };
        let Tok::Str(key) = key else {
            return Ok(Err("attr key is not a string"));
        };
        Ok(value.map(|value| (self.intern(&key), value)))
    }

    /// An attribute value written by [`push_attrs`]: the first of `u`,
    /// `i`, `f`, `fb`, `b`, `s`, `w` that holds its type.
    fn read_attr_value(
        &mut self,
        cur: &mut Cursor,
    ) -> Result<Result<AttrValue, &'static str>, String> {
        const UNKNOWN: &str = "unknown attr value shape";
        if cur.peek() != Some(b'{') {
            cur.value()?;
            return Ok(Err(UNKNOWN));
        }
        let [mut u, mut i, mut f, mut fb, mut b, mut s, mut w]: [Option<Tok>; 7] =
            Default::default();
        let mut more = cur.open()?;
        while more {
            let key = cur.key()?;
            let tok = cur.value()?;
            let slot = match &*key {
                "u" => &mut u,
                "i" => &mut i,
                "f" => &mut f,
                "fb" => &mut fb,
                "b" => &mut b,
                "s" => &mut s,
                "w" => &mut w,
                _ => &mut None,
            };
            if slot.is_none() {
                *slot = Some(tok);
            }
            more = cur.next(b'}')?;
        }
        let value = if let Some(n) = u.as_ref().and_then(Tok::as_u64) {
            AttrValue::U64(n)
        } else if let Some(n) = i.as_ref().and_then(Tok::as_i64) {
            AttrValue::I64(n)
        } else if let Some(x) = f.as_ref().and_then(Tok::as_f64) {
            AttrValue::F64(x)
        } else if let Some(bits) = fb.as_ref().and_then(Tok::as_u64) {
            AttrValue::F64(f64::from_bits(bits))
        } else if let Some(Tok::Bool(x)) = b {
            AttrValue::Bool(x)
        } else if let Some(Tok::Str(x)) = s {
            AttrValue::Str(self.intern(&x))
        } else if let Some(Tok::Str(x)) = w {
            AttrValue::Owned(x.into_owned())
        } else {
            return Ok(Err(UNKNOWN));
        };
        Ok(Ok(value))
    }
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

    #[test]
    fn negative_zero_keeps_its_sign() {
        let rec = StreamingRecorder::new(Vec::new());
        rec.gauge_set("g", -0.0);
        rec.counter_sample("ts.g", 1, -0.0);
        rec.event("e", 2, None, &[("x", AttrValue::F64(-0.0))]);
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        assert!(text.contains("\"v\":-0"), "{text}");
        let dump = replay_jsonl(&text).unwrap();
        let neg_zero = (-0.0f64).to_bits();
        assert_eq!(dump.metrics.gauges["g"].to_bits(), neg_zero);
        assert_eq!(dump.counter_series["ts.g"][0].1.to_bits(), neg_zero);
        let AttrValue::F64(x) = dump.events[0].attrs[0].1 else {
            panic!("not a float: {:?}", dump.events[0].attrs)
        };
        assert_eq!(x.to_bits(), neg_zero);
    }

    #[test]
    fn any_key_order_and_whitespace_first_duplicate_wins() {
        let text = concat!(
            " { \"d\" : 1 , \"n\":\"a\", \"o\":\"c\", \"d\":5 }\n",
            "{\"a\":[[\"k\",{\"w\":\"x\",\"u\":3}]],\"a\":7,\"t\":4,\"n\":\"ev\",\"o\":\"e\",\"k\":\"no\"}\n",
        );
        let dump = replay_jsonl(text).unwrap();
        assert_eq!(dump.metrics.counters["a"], 1);
        let ev = &dump.events[0];
        assert_eq!((ev.name, ev.t_us, ev.track), ("ev", 4, None));
        assert_eq!(ev.attrs, vec![("k", AttrValue::U64(3))]);
    }

    #[test]
    fn reader_splits_and_numbers_lines_like_str_lines() {
        let text = format!(
            "\r\n{}\r\n  \n{}",
            "{\"o\":\"c\",\"n\":\"a\",\"d\":1}",
            record_stream()
        );
        let expected = oracle::replay_jsonl(&text).unwrap();
        // A small buffer makes lines straddle refills.
        let reader = io::BufReader::with_capacity(7, text.as_bytes());
        assert_eq!(replay_jsonl_from(reader).unwrap(), expected);

        let mut bytes =
            b"{\"o\":\"c\",\"n\":\"a\",\"d\":1}\r\n\n{\"o\":\"c\",\"n\":\"b\",\"d\":1}\n".to_vec();
        bytes.extend_from_slice(b"{\"o\":\"c\",\"n\":\"\xff\",\"d\":1}\n");
        let err = replay_jsonl_from(&bytes[..]).unwrap_err();
        assert!(err.starts_with("line 4: invalid UTF-8"), "{err}");
    }

    /// A recorded stream: 298 lines of a two-request MapReduce run
    /// (`simulate --requests 2 --maps 2 --reducers 1 --seed 1`).
    const RECORDED: &str = include_str!("../tests/data/recorded.jsonl");

    /// The 1-based line an error names.
    fn err_line(err: &str) -> usize {
        err.strip_prefix("line ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("error names no line: {err}"))
    }

    /// The oracle's verdict on `bytes`. It reads only UTF-8 text, so a
    /// stream with an invalid byte is judged up to the start of that
    /// byte's line, and fails on that line if nothing earlier does.
    fn oracle_verdict(bytes: &[u8]) -> Result<TraceDump, String> {
        match std::str::from_utf8(bytes) {
            Ok(text) => oracle::replay_jsonl(text),
            Err(e) => {
                let valid = &bytes[..e.valid_up_to()];
                let start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let line = valid[..start].iter().filter(|&&b| b == b'\n').count() + 1;
                oracle::replay_jsonl(std::str::from_utf8(&bytes[..start]).unwrap())?;
                Err(format!("line {line}: invalid UTF-8"))
            }
        }
    }

    /// The dump as text, every zero made positive: the one place the
    /// oracle differs on purpose.
    fn unsigned(mut dump: TraceDump) -> String {
        let fix = |x: &mut f64| {
            if *x == 0.0 {
                *x = 0.0;
            }
        };
        dump.metrics.gauges.values_mut().for_each(fix);
        for series in dump.counter_series.values_mut() {
            series.iter_mut().for_each(|(_, x)| fix(x));
        }
        let spans = dump.spans.iter_mut().map(|s| &mut s.attrs);
        for attrs in spans.chain(dump.events.iter_mut().map(|e| &mut e.attrs)) {
            for (_, value) in attrs {
                if let AttrValue::F64(x) = value {
                    fix(x);
                }
            }
        }
        format!("{dump:?}")
    }

    /// The decoder accepts `bytes` exactly when the oracle does, fails
    /// on the same line, and otherwise returns the same dump.
    fn agree(bytes: &[u8]) -> Result<(), String> {
        let new = replay_jsonl_from(bytes).map(unsigned);
        match (new, oracle_verdict(bytes).map(unsigned)) {
            (Ok(new), Ok(old)) if new == old => Ok(()),
            (Err(new), Err(old)) if err_line(&new) == err_line(&old) => Ok(()),
            (new, old) => Err(format!(
                "decoder {:?}, oracle {:?}, on {:?}",
                new.map(|_| "a dump"),
                old.map(|_| "a dump"),
                String::from_utf8_lossy(bytes)
            )),
        }
    }

    /// Bytes a corruption writes: JSON structure, a digit, a sign, a
    /// letter, a line break and two bytes that break UTF-8.
    const CORRUPT: [u8; 13] = [
        b'"', b'\\', b'0', b'-', b'}', b']', b',', b':', b' ', b'u', b'\n', 0xff, 0xc3,
    ];

    #[test]
    fn every_truncation_and_corruption_agrees_with_the_oracle() {
        let rec = StreamingRecorder::new(Vec::new());
        drive(&rec);
        rec.gauge_set("ninf", f64::NEG_INFINITY);
        rec.track_name(TrackId(9), "\u{1f}ré\\\"");
        let i = rec.span_begin(TrackId(9), "s", 7, &[("n", AttrValue::F64(f64::NAN))]);
        rec.span_attr(i, "i", AttrValue::I64(i64::MIN));
        rec.span_end(i, 8);
        let body = String::from_utf8(rec.finish().unwrap()).unwrap();
        // A manifest header, a blank CRLF line, and an old `t`/`q`
        // stamped line with no final newline.
        let base = format!(
            "{{\"manifest\":{{\"seed\":7}}}}\r\n\r\n{body}{{\"t\":9,\"q\":3,\"o\":\"c\",\"n\":\"old\",\"d\":2}}"
        )
        .into_bytes();
        agree(&base).unwrap();
        for cut in 0..base.len() {
            agree(&base[..cut]).unwrap();
        }
        for pos in 0..base.len() {
            for b in CORRUPT {
                let mut bytes = base.clone();
                bytes[pos] = b;
                agree(&bytes).unwrap();
            }
        }
    }

    #[test]
    fn attr_shapes_read_like_the_oracle() {
        let shapes = [
            r#"[["k",{"u":7,"i":-1}]]"#,
            r#"[["k",{"i":-1,"u":7}]]"#,
            r#"[["k",{"u":-1,"i":-1}]]"#,
            r#"[["k",{"u":1.5,"f":2}]]"#,
            r#"[["k",{"f":"x","fb":4607182418800017408}]]"#,
            r#"[["k",{"b":1,"s":"x"}]]"#,
            r#"[["k",{"s":1,"w":"y"}]]"#,
            r#"[["k",{"w":"a","s":"b"}]]"#,
            r#"[["k",{"u":1,"u":2}]]"#,
            r#"[["k",{"i":9223372036854775808}]]"#,
            r#"[["k",{"fb":-1}]]"#,
            r#"[["k",{"b":null}]]"#,
            r#"[["k",{}]]"#,
            r#"[["k",[]]]"#,
            r#"[["k",3]]"#,
            r#"[["k"]]"#,
            r#"[["k",{"u":1},2]]"#,
            r#"[[1,{"u":1}]]"#,
            r#"[[1,{"u":1},2]]"#,
            r#"[["k",{"u":1}],5,["j",{}]]"#,
            r#"["k"]"#,
            r#"[]"#,
            r#"{}"#,
            r#"null"#,
        ];
        for shape in shapes {
            for op in ["e", "sb", "sa"] {
                let line =
                    format!("{{\"o\":\"{op}\",\"t\":1,\"i\":1,\"k\":0,\"n\":\"x\",\"a\":{shape}}}");
                agree(line.as_bytes()).unwrap();
            }
        }
    }

    /// Move line `at`'s keys: rotate them by `seed`, and reverse them
    /// on odd seeds.
    fn permute_keys(line: &mut String, seed: u64) {
        let serde_json::Value::Object(mut entries) = serde_json::from_str(line).unwrap() else {
            return;
        };
        let len = entries.len();
        entries.rotate_left(seed as usize % len);
        if seed % 2 == 1 {
            entries.reverse();
        }
        *line = serde_json::Value::Object(entries).to_string();
    }

    /// Put JSON whitespace around every structural character outside
    /// strings.
    fn spread_whitespace(line: &mut String, mut seed: u64) {
        const PADS: [&str; 5] = ["", " ", "\t", "  \t", "\r "];
        let mut pad = |out: &mut String| {
            seed = seed.rotate_left(5) ^ 0x9e37_79b9;
            out.push_str(PADS[seed as usize % PADS.len()]);
        };
        let mut out = String::new();
        let (mut in_str, mut escaped) = (false, false);
        pad(&mut out);
        for c in line.chars() {
            if in_str {
                out.push(c);
                (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
                continue;
            }
            if matches!(c, '}' | ']' | ',' | ':') {
                pad(&mut out);
            }
            out.push(c);
            if matches!(c, '{' | '[' | ',' | ':') {
                pad(&mut out);
            }
            in_str = c == '"';
        }
        pad(&mut out);
        *line = out;
    }

    /// Add a field no op reads, of every JSON type, first or last.
    fn add_unknown_field(line: &mut String, seed: u64) {
        const KEYS: [&str; 5] = ["zz", "q", "u", "manifest", "ké\\\"y"];
        const VALUES: [&str; 10] = [
            "null",
            "true",
            "false",
            "-12",
            "18446744073709551616",
            "-1.5e-3",
            "\"a\\u0041\\n\"",
            "[]",
            "[1,[2,{}],{\"o\":\"c\"}]",
            "{\"o\":\"zz\",\"a\":{}}",
        ];
        let key = KEYS[seed as usize % KEYS.len()];
        let value = VALUES[(seed / 8) as usize % VALUES.len()];
        let field = format!("\"{key}\":{value}");
        *line = if seed.is_multiple_of(2) {
            line.replacen('{', &format!("{{{field},"), 1)
        } else {
            format!("{},{field}}}", line.strip_suffix('}').unwrap())
        };
    }

    /// Stamp an op line the way older streams did: a sequence number
    /// `q`, and a `t` on the ops that take none.
    fn stamp_old(line: &mut String, seq: usize) {
        let obj: serde_json::Value = serde_json::from_str(line).unwrap();
        if obj.get("o").is_none() {
            return;
        }
        let stamp = match obj.get("t") {
            Some(_) => format!("\"q\":{seq},"),
            None => format!("\"t\":{},\"q\":{seq},", seq * 7),
        };
        *line = line.replacen('{', &format!("{{{stamp}"), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Edits of a recorded stream: the readable ones (key order,
        /// whitespace, unknown fields, old stamps) leave its dump as it
        /// was, and with truncations and byte corruptions on top the
        /// decoder never panics and agrees with the oracle.
        #[test]
        fn edits_of_a_recorded_stream_agree_with_the_oracle(
            edits in proptest::collection::vec((0usize..6, 0u64..u64::MAX, 0u64..u64::MAX), 1..6)
        ) {
            let mut lines: Vec<String> = RECORDED.lines().map(str::to_string).collect();
            for &(kind, a, b) in &edits {
                let at = a as usize % lines.len();
                match kind {
                    0 => permute_keys(&mut lines[at], b),
                    1 => spread_whitespace(&mut lines[at], b),
                    2 => add_unknown_field(&mut lines[at], b),
                    3 => stamp_old(&mut lines[at], at),
                    _ => {}
                }
            }
            let mut bytes = lines.join("\n").into_bytes();
            let readable = bytes.clone();
            for &(kind, a, b) in &edits {
                match kind {
                    4 => bytes.truncate(a as usize % (bytes.len() + 1)),
                    5 if !bytes.is_empty() => {
                        let at = a as usize % bytes.len();
                        bytes[at] = CORRUPT[b as usize % CORRUPT.len()];
                    }
                    _ => {}
                }
            }
            let same = replay_jsonl_from(&readable[..]).map(unsigned);
            proptest::prop_assert_eq!(same, Ok(unsigned(replay_jsonl(RECORDED).unwrap())));
            if let Err(e) = agree(&bytes) {
                return Err(proptest::TestCaseError::fail(e));
            }
        }
    }
}
