//! The stream reader as it was before [`super::replay_jsonl_from`]
//! decoded lines itself: each line parsed into a `serde_json::Value`.
//! Tests hold the decoder to it on hostile input. It differs in one
//! place: the shim reads a `-0` as the integer 0, so a `-0` float
//! replays as `+0.0` here.

use serde_json::Value;

use crate::recorder::{Attr, AttrValue, MemRecorder, Recorder, SpanId, TrackId};
use crate::stream::intern;
use crate::trace::TraceDump;

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

/// Read an `f64` written by `push_f64`: `<key>` or `<key>b` bits.
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

/// The replay through a `serde_json::Value` per line.
pub(super) fn replay_jsonl(text: &str) -> Result<TraceDump, String> {
    let rec = MemRecorder::new();
    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let obj: Value =
            serde_json::from_str(raw).map_err(|e| format!("line {line}: invalid JSON: {e}"))?;
        // A stream may open with a `{"manifest": {...}}` header line; it
        // carries no op and is skipped here.
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
