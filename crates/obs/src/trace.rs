//! Chrome trace-event export: turn a [`MemRecorder`]'s buffers into the
//! JSON object format understood by Perfetto (<https://ui.perfetto.dev>)
//! and `chrome://tracing`.
//!
//! Mapping:
//! * span           → `"X"` complete event (`ts`/`dur` in µs) on `tid` =
//!   track id, with attributes under `args`
//! * event          → `"i"` instant event (thread- or global-scoped)
//! * counter sample → `"C"` counter event, rendered as a filled area chart
//! * track name     → `"M"` `thread_name` metadata event
//!
//! Everything lives in a single process (`pid` 0, named after the
//! simulation) so the timeline reads as one VM per lane.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::recorder::{AttrValue, EventRecord, MemRecorder, SpanRecord};

fn attr_value_json(v: &AttrValue) -> Value {
    match v {
        AttrValue::U64(x) => json!(*x),
        AttrValue::I64(x) => json!(*x),
        AttrValue::F64(x) => json!(*x),
        AttrValue::Bool(x) => json!(*x),
        AttrValue::Str(s) => json!(*s),
        AttrValue::Owned(s) => json!(s.as_str()),
    }
}

fn args_json(attrs: &[(&'static str, AttrValue)]) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), attr_value_json(v)))
            .collect(),
    )
}

/// Build the full trace document for one recorded run.
///
/// Open spans (missing `span_end`, e.g. after a panic) are emitted as
/// zero-duration events flagged with `"unterminated": true` rather than
/// dropped, so partial traces remain inspectable.
pub fn chrome_trace(rec: &MemRecorder) -> Value {
    chrome_trace_parts(
        &rec.spans(),
        &rec.events(),
        &rec.track_names(),
        &rec.counter_series(),
    )
}

/// Build the trace document from raw recorder buffers.
pub fn chrome_trace_parts(
    spans: &[SpanRecord],
    instants: &[EventRecord],
    track_names: &BTreeMap<u64, String>,
    counter_series: &BTreeMap<&'static str, Vec<(u64, f64)>>,
) -> Value {
    let mut events: Vec<Value> = Vec::new();

    events.push(json!({
        "ph": "M",
        "name": "process_name",
        "pid": 0,
        "tid": 0,
        "args": {"name": "affinity-vc simulation"},
    }));

    for (tid, name) in track_names {
        events.push(json!({
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": tid,
            "args": {"name": name.as_str()},
        }));
    }

    for span in spans {
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

    for event in instants {
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

    for (name, series) in counter_series {
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

/// Serialise the trace and write it to `path`.
pub fn save_chrome_trace(rec: &MemRecorder, path: &str) -> std::io::Result<()> {
    save_trace_value(&chrome_trace(rec), path)
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

        // The whole document survives a print/parse cycle.
        let text = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["traceEvents"].as_array().unwrap().len(), 6);
    }
}
