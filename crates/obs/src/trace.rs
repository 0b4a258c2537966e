//! [`TraceDump`], the one owned trace, and its Chrome trace-event edge
//! format: the JSON object format understood by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`.
//!
//! A dump comes from [`MemRecorder::into_dump`], from
//! [`crate::replay_jsonl`], or from [`TraceDump::from_chrome_value`],
//! which inverts [`TraceDump::to_chrome_value`]. Mapping:
//! * span           → `"X"` complete event (`ts`/`dur` in µs) on `tid` =
//!   track id, with attributes under `args`
//! * event          → `"i"` instant event (thread- or global-scoped)
//! * counter sample → `"C"` counter event, rendered as a filled area chart
//! * track name     → `"M"` `thread_name` metadata event
//!
//! Everything lives in a single process (`pid` 0, named after the
//! simulation) so the timeline reads as one VM per lane.
//!
//! The Chrome format drops what it cannot say, so reading it back is
//! exact except for: the metrics snapshot (absent); string attributes,
//! which read back as [`AttrValue::Owned`]; non-negative `I64` and
//! integral `F64` values of magnitude ≥ 1e15, which read back as `U64`;
//! non-finite floats (written as `null`), which read back as NaN; a span
//! ending before it starts, which reads back zero-length; and a closed
//! zero-length span whose last attribute is `unterminated: true`, which
//! reads back open.

use std::collections::{BTreeMap, HashMap};

use serde_json::{json, Value};

use crate::metrics::MetricsSnapshot;
use crate::recorder::{Attr, AttrValue, EventRecord, MemRecorder, SpanId, SpanRecord, TrackId};
use crate::stream::intern;

/// A finished recording: what a [`MemRecorder`] buffered, or what a
/// stream or a Chrome trace reads back as.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDump {
    /// In begin order; span ids are `1..=len`.
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
    pub track_names: BTreeMap<u64, String>,
    pub counter_series: BTreeMap<&'static str, Vec<(u64, f64)>>,
    pub metrics: MetricsSnapshot,
    /// Spans begun but never ended.
    pub open_spans: usize,
}

fn args_json(attrs: &[Attr]) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_json()))
            .collect(),
    )
}

/// The Chrome trace document of everything `rec` has recorded so far.
pub fn chrome_trace(rec: &MemRecorder) -> Value {
    rec.trace().to_chrome_value()
}

impl TraceDump {
    /// Build the Chrome trace document.
    ///
    /// Open spans (missing `span_end`, e.g. after a panic) are emitted as
    /// zero-duration events flagged with `"unterminated": true` rather
    /// than dropped, so partial traces remain inspectable.
    pub fn to_chrome_value(&self) -> Value {
        let mut events: Vec<Value> = Vec::new();

        events.push(json!({
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "affinity-vc simulation"},
        }));

        for (tid, name) in &self.track_names {
            events.push(json!({
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": name.as_str()},
            }));
        }

        for span in &self.spans {
            let (dur, unterminated) = match span.end_us {
                Some(end) => (end.saturating_sub(span.start_us), false),
                None => (0, true),
            };
            let mut args = args_json(&span.attrs);
            if unterminated {
                if let Value::Object(entries) = &mut args {
                    entries.push(("unterminated".to_string(), json!(true)));
                }
            }
            events.push(json!({
                "ph": "X",
                "name": span.name,
                "pid": 0,
                "tid": span.track.0,
                "ts": span.start_us,
                "dur": dur,
                "args": args,
            }));
        }

        for event in &self.events {
            let tid = event.track.map(|t| t.0).unwrap_or(0);
            let scope = if event.track.is_some() { "t" } else { "g" };
            events.push(json!({
                "ph": "i",
                "name": event.name,
                "pid": 0,
                "tid": tid,
                "ts": event.t_us,
                "s": scope,
                "args": args_json(&event.attrs),
            }));
        }

        for (name, series) in &self.counter_series {
            for &(t_us, value) in series {
                events.push(json!({
                    "ph": "C",
                    "name": name,
                    "pid": 0,
                    "tid": 0,
                    "ts": t_us,
                    "args": {"value": value},
                }));
            }
        }

        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
        })
    }

    /// Read a Chrome trace document (the `--trace-out` format) back into
    /// a dump; the inverse of [`Self::to_chrome_value`] up to the lossy
    /// cases in the module docs. `"X"`, `"i"`, `"C"` and `thread_name`
    /// records are read; other records carry nothing a dump holds and
    /// are skipped. A read record missing an integer `ts`, `dur` or
    /// `tid`, or whose `ts + dur` overflows, is an error naming its
    /// index in `traceEvents`.
    pub fn from_chrome_value(doc: &Value) -> Result<Self, String> {
        let records = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or_else(|| "trace file has no traceEvents array".to_string())?;
        let mut dump = TraceDump::default();
        // Names and keys repeat across records: intern each once.
        let mut names: HashMap<&str, &'static str> = HashMap::new();
        let mut name_of = |s| *names.entry(s).or_insert_with(|| intern(s));
        for (index, e) in records.iter().enumerate() {
            let err = |what: String| format!("traceEvents[{index}]: {what}");
            let int = |key: &str| {
                e.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| err(format!("missing or non-integer `{key}`")))
            };
            let ph = e.get("ph").and_then(Value::as_str);
            let name = e.get("name").and_then(Value::as_str);
            if !matches!(
                (ph, name),
                (Some("X" | "i" | "C"), _) | (Some("M"), Some("thread_name"))
            ) {
                continue;
            }
            let name = name.ok_or_else(|| err("missing string `name`".to_string()))?;
            let args: &[(String, Value)] = match e.get("args") {
                Some(Value::Object(entries)) => entries,
                _ => &[],
            };
            let arg = |key: &str| args.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            match ph {
                Some("X") => {
                    let (ts, dur, tid) = (int("ts")?, int("dur")?, int("tid")?);
                    let end = ts
                        .checked_add(dur)
                        .ok_or_else(|| err(format!("ts {ts} + dur {dur} overflows")))?;
                    let mut attrs = read_attrs(args, &mut name_of).map_err(err)?;
                    let open =
                        dur == 0 && attrs.last() == Some(&("unterminated", AttrValue::Bool(true)));
                    if open {
                        attrs.pop();
                    }
                    dump.spans.push(SpanRecord {
                        id: SpanId(dump.spans.len() as u64 + 1),
                        track: TrackId(tid),
                        name: name_of(name),
                        start_us: ts,
                        end_us: (!open).then_some(end),
                        attrs,
                    });
                }
                Some("i") => {
                    let (ts, tid) = (int("ts")?, int("tid")?);
                    let scoped = e.get("s").and_then(Value::as_str) == Some("t");
                    dump.events.push(EventRecord {
                        name: name_of(name),
                        t_us: ts,
                        track: scoped.then_some(TrackId(tid)),
                        attrs: read_attrs(args, &mut name_of).map_err(err)?,
                    });
                }
                Some("C") => {
                    let ts = int("ts")?;
                    let value = match arg("value") {
                        Some(Value::Null) => f64::NAN,
                        v => v
                            .and_then(Value::as_f64)
                            .ok_or_else(|| err("missing numeric `args.value`".to_string()))?,
                    };
                    dump.counter_series
                        .entry(name_of(name))
                        .or_default()
                        .push((ts, value));
                }
                _ => {
                    let track_name = arg("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| err("missing string `args.name`".to_string()))?;
                    dump.track_names.insert(int("tid")?, track_name.to_string());
                }
            }
        }
        dump.open_spans = dump.spans.iter().filter(|s| s.end_us.is_none()).count();
        Ok(dump)
    }
}

/// Read `args` back into attributes: integers as `U64` (negative ones as
/// `I64`), `null` as a NaN `F64`.
fn read_attrs<'a>(
    args: &'a [(String, Value)],
    name_of: &mut impl FnMut(&'a str) -> &'static str,
) -> Result<Vec<Attr>, String> {
    args.iter()
        .map(|(key, v)| {
            let value = match v {
                Value::Null => AttrValue::F64(f64::NAN),
                Value::Bool(b) => AttrValue::Bool(*b),
                Value::I64(n) => u64::try_from(*n).map_or(AttrValue::I64(*n), AttrValue::U64),
                Value::U64(n) => AttrValue::U64(*n),
                Value::F64(f) => AttrValue::F64(*f),
                Value::Str(s) => AttrValue::Owned(s.clone()),
                Value::Array(_) | Value::Object(_) => {
                    return Err(format!("attribute `{key}` is not a scalar"))
                }
            };
            Ok((name_of(key), value))
        })
        .collect()
}

/// Write an already-built trace document to `path`.
///
/// Serialisation failures are surfaced as `InvalidData` I/O errors
/// rather than panics, so callers (the CLI in particular) can report
/// them with context instead of aborting.
pub fn save_trace_value(doc: &Value, path: &str) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("trace does not serialize: {e}"),
        )
    })?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TrackId};

    #[test]
    fn trace_shape() {
        let rec = MemRecorder::new();
        rec.track_name(TrackId(1), "vm1@node0");
        let s = rec.span_begin(TrackId(1), "map", 10, &[("task", AttrValue::U64(4))]);
        rec.span_end(s, 60);
        let open = rec.span_begin(TrackId(1), "reduce", 70, &[]);
        let _ = open; // deliberately left unterminated
        rec.event("speculative_launch", 30, Some(TrackId(1)), &[]);
        rec.counter_sample("queue.depth", 5, 2.0);

        let doc = chrome_trace(&rec);
        let events = doc["traceEvents"].as_array().unwrap();
        // process_name + thread_name + 2 spans + 1 instant + 1 counter
        assert_eq!(events.len(), 6);

        let map_span = events
            .iter()
            .find(|e| e["ph"] == json!("X") && e["name"] == json!("map"))
            .unwrap();
        assert_eq!(map_span["ts"], json!(10));
        assert_eq!(map_span["dur"], json!(50));
        assert_eq!(map_span["args"]["task"], json!(4));

        let reduce_span = events
            .iter()
            .find(|e| e["ph"] == json!("X") && e["name"] == json!("reduce"))
            .unwrap();
        assert_eq!(reduce_span["args"]["unterminated"], json!(true));

        let counter = events.iter().find(|e| e["ph"] == json!("C")).unwrap();
        assert_eq!(counter["args"]["value"], json!(2.0));

        // The whole document survives a print/parse cycle, and reads
        // back into the dump it was written from.
        let text = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["traceEvents"].as_array().unwrap().len(), 6);
        let read = TraceDump::from_chrome_value(&back).unwrap();
        let dump = rec.into_dump();
        assert_eq!(read.spans, dump.spans);
        assert_eq!(read.events, dump.events);
        assert_eq!(read.track_names, dump.track_names);
        assert_eq!(read.counter_series, dump.counter_series);
        assert_eq!((read.open_spans, dump.open_spans), (1, 1));
    }

    #[test]
    fn reader_rejects_malformed_records_by_index() {
        let read = |record: &str| {
            let text =
                format!(r#"{{"traceEvents":[{{"ph":"M","name":"process_name"}},{record}]}}"#);
            TraceDump::from_chrome_value(&serde_json::from_str(&text).unwrap())
        };
        let cases = [
            (r#"{"ph":"X","name":"map","tid":1,"dur":10}"#, "`ts`"),
            (
                r#"{"ph":"X","name":"map","tid":1,"ts":1.5,"dur":10}"#,
                "`ts`",
            ),
            (r#"{"ph":"X","name":"map","ts":0,"dur":10}"#, "`tid`"),
            (r#"{"ph":"X","name":"map","tid":1,"ts":0}"#, "`dur`"),
            (
                r#"{"ph":"X","name":"map","tid":1,"ts":18446744073709551615,"dur":10}"#,
                "overflows",
            ),
            (r#"{"ph":"i","name":"e","tid":0}"#, "`ts`"),
            (r#"{"ph":"C","name":"q","ts":0,"args":{}}"#, "args.value"),
            (r#"{"ph":"X","tid":1,"ts":0,"dur":1}"#, "`name`"),
            (
                r#"{"ph":"i","name":"e","tid":0,"ts":0,"args":{"a":[1]}}"#,
                "scalar",
            ),
        ];
        for (record, what) in cases {
            let err = read(record).unwrap_err();
            assert!(err.starts_with("traceEvents[1]: "), "{record}: {err}");
            assert!(err.contains(what), "{record}: {err}");
        }
        // Records the dump does not hold are skipped, whatever their shape.
        let dump = read(r#"{"ph":"B","name":"x"}"#).unwrap();
        assert!(dump.spans.is_empty() && dump.events.is_empty());
        // A non-finite float the writer turned into `null` reads as NaN.
        let dump = read(r#"{"ph":"C","name":"q","ts":3,"args":{"value":null}}"#).unwrap();
        assert!(dump.counter_series["q"][0].1.is_nan());
    }
}
