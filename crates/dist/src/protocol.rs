//! The NDJSON wire codec every protocol in the workspace shares.
//!
//! One message per line, each a single JSON object tagged by a `"type"`
//! field. The fleet's agent protocol and the serve daemon's policy
//! protocol both frame through [`write_message`] / [`read_message_capped`]
//! and build their tagged objects with the field helpers below, so
//! framing errors, the line cap, trace propagation and shipped spans
//! behave identically on every link.
//!
//! Paths travel as JSON strings, so non-UTF-8 file names (legal on
//! Linux) cannot cross the wire intact: the policy client refuses them,
//! and fleet units carry the file's bytes in band next to a lossy
//! display path.

use bside_obs::{SpanRecord, TraceContext};
use serde::{de, Value};
use std::io::{BufRead, Write};

/// Unwraps a tagged-message [`Value`] into its field list, naming `what`
/// in the error.
pub fn obj_fields(value: Value, what: &str) -> Result<Vec<(String, Value)>, de::ValueError> {
    match value {
        Value::Object(entries) => Ok(entries),
        other => Err(de::Error::custom(format!(
            "expected {what} object, found {other:?}"
        ))),
    }
}

/// Removes and returns a named field from a message's field list,
/// erroring when absent.
pub fn take_field(entries: &mut Vec<(String, Value)>, name: &str) -> Result<Value, de::ValueError> {
    let pos = entries
        .iter()
        .position(|(k, _)| k == name)
        .ok_or_else(|| de::Error::custom(format!("missing field `{name}`")))?;
    Ok(entries.remove(pos).1)
}

/// Removes a named unsigned-integer field.
pub fn take_u64(entries: &mut Vec<(String, Value)>, name: &str) -> Result<u64, de::ValueError> {
    match take_field(entries, name)? {
        Value::UInt(n) => Ok(n),
        other => Err(de::Error::custom(format!(
            "field `{name}` must be an unsigned integer, found {other:?}"
        ))),
    }
}

/// Removes a named string field.
pub fn take_string(
    entries: &mut Vec<(String, Value)>,
    name: &str,
) -> Result<String, de::ValueError> {
    match take_field(entries, name)? {
        Value::Str(s) => Ok(s),
        other => Err(de::Error::custom(format!(
            "field `{name}` must be a string, found {other:?}"
        ))),
    }
}

/// Appends a trace context's run/unit/span ids to a message's field
/// list; a no-op for `None`, so frames without telemetry are
/// byte-identical to the previous protocol revision (which is why no
/// version bump is needed).
pub fn push_trace(entries: &mut Vec<(String, Value)>, trace: &Option<TraceContext>) {
    if let Some(ctx) = trace {
        entries.push(("trace_run".to_string(), Value::UInt(ctx.run_id)));
        entries.push(("trace_unit".to_string(), Value::UInt(ctx.unit_id)));
        entries.push(("trace_span".to_string(), Value::UInt(ctx.span_id)));
    }
}

fn take_u64_lenient(entries: &mut Vec<(String, Value)>, name: &str) -> Option<u64> {
    let pos = entries.iter().position(|(k, _)| k == name)?;
    match entries.remove(pos).1 {
        Value::UInt(v) => Some(v),
        _ => None,
    }
}

/// Removes the trace-context fields from a message's field list.
/// Deliberately lenient, unlike every other field in these protocols:
/// absent, partial, malformed, or all-zero ids yield `None` — the
/// receiver's spans become orphans, but the frame still parses.
/// Telemetry corruption must never sever a working link.
pub fn take_trace(entries: &mut Vec<(String, Value)>) -> Option<TraceContext> {
    let run_id = take_u64_lenient(entries, "trace_run");
    let unit_id = take_u64_lenient(entries, "trace_unit");
    let span_id = take_u64_lenient(entries, "trace_span");
    let ctx = TraceContext {
        run_id: run_id?,
        unit_id: unit_id?,
        span_id: span_id?,
    };
    if ctx == TraceContext::default() {
        None
    } else {
        Some(ctx)
    }
}

/// Renders shipped spans as a JSON array for a result frame's `spans`
/// field — one object per span, field names matching [`take_spans`].
pub fn spans_to_value(spans: &[SpanRecord]) -> Value {
    Value::Seq(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("id".to_string(), Value::UInt(s.id)),
                    ("parent".to_string(), Value::UInt(s.parent)),
                    ("run_id".to_string(), Value::UInt(s.run_id)),
                    ("unit_id".to_string(), Value::UInt(s.unit_id)),
                    ("start_us".to_string(), Value::UInt(s.start_us)),
                    ("dur_us".to_string(), Value::UInt(s.dur_us)),
                    ("tid".to_string(), Value::UInt(s.tid)),
                ])
            })
            .collect(),
    )
}

/// Removes and parses a `spans` field shipped by [`spans_to_value`],
/// with the same leniency as [`take_trace`]: an absent field or a
/// malformed entry yields fewer spans, never a parse error.
pub fn take_spans(entries: &mut Vec<(String, Value)>) -> Vec<SpanRecord> {
    let pos = match entries.iter().position(|(k, _)| k == "spans") {
        Some(pos) => pos,
        None => return Vec::new(),
    };
    let items = match entries.remove(pos).1 {
        Value::Seq(items) => items,
        _ => return Vec::new(),
    };
    let mut spans = Vec::with_capacity(items.len());
    for item in items {
        let mut fields = match item {
            Value::Object(fields) => fields,
            _ => continue,
        };
        let name = match fields
            .iter()
            .position(|(k, _)| k == "name")
            .map(|pos| fields.remove(pos).1)
        {
            Some(Value::Str(name)) => name,
            _ => continue,
        };
        let mut num = |key: &str| take_u64_lenient(&mut fields, key);
        let (Some(id), Some(parent), Some(run_id), Some(unit_id)) =
            (num("id"), num("parent"), num("run_id"), num("unit_id"))
        else {
            continue;
        };
        spans.push(SpanRecord {
            name,
            id,
            parent,
            run_id,
            unit_id,
            start_us: num("start_us").unwrap_or(0),
            dur_us: num("dur_us").unwrap_or(0),
            tid: num("tid").unwrap_or(0),
        });
    }
    spans
}

/// Writes one message as a single JSON line and flushes — flushing per
/// message is what keeps a request/response protocol live across the
/// socket's buffering. The serialized string is handed over by value, so
/// the line (newline included) reaches the socket in one write with no
/// second copy of the frame. The actual byte write goes through the
/// fault-injection choke point ([`crate::fault::write_frame`]): a no-op
/// unless a chaos plan is installed, and the single place where every
/// NDJSON protocol in the workspace can be subjected to line noise.
pub fn write_message<T: serde::Serialize>(
    writer: &mut impl Write,
    message: &T,
) -> std::io::Result<()> {
    let json = serde_json::to_string(message)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    crate::fault::write_frame(writer, json)
}

/// Reads one message line with no length cap (trusted peers only).
/// `Ok(None)` is a clean EOF (peer closed the stream); empty lines are
/// skipped.
pub fn read_message<T: for<'de> serde::Deserialize<'de>>(
    reader: &mut impl BufRead,
) -> std::io::Result<Option<T>> {
    read_message_capped(reader, u64::MAX)
}

/// [`read_message`] with a line-length cap — the framing every
/// network-facing protocol in the workspace (`bside-serve` requests,
/// `bside-fleet` frames) shares, so an oversized line is refused
/// identically everywhere. A line longer than `cap` yields an
/// `InvalidData` error without buffering the whole line; the caller
/// answers in band (or drops the peer) exactly as for non-JSON garbage.
/// `Ok(None)` is a clean EOF; empty lines are skipped.
pub fn read_message_capped<T: for<'de> serde::Deserialize<'de>>(
    reader: &mut impl BufRead,
    cap: u64,
) -> std::io::Result<Option<T>> {
    let mut line = String::new();
    loop {
        line.clear();
        let mut limited = std::io::Read::take(&mut *reader, cap);
        let n = limited.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if n as u64 >= cap && !line.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("message line exceeds {cap} bytes"),
            ));
        }
        if line.trim().is_empty() {
            continue;
        }
        return serde_json::from_str(line.trim())
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(json: &str) -> Vec<(String, Value)> {
        obj_fields(serde_json::from_str(json).unwrap(), "test").unwrap()
    }

    #[test]
    fn absent_or_corrupted_trace_parses_as_none_never_an_error() {
        let ctx = TraceContext {
            run_id: 11,
            unit_id: 7,
            span_id: 13,
        };
        let mut entries = vec![("type".to_string(), Value::Str("error".to_string()))];
        push_trace(&mut entries, &Some(ctx));
        assert_eq!(take_trace(&mut entries), Some(ctx));
        assert_eq!(entries.len(), 1, "trace fields consumed");

        // A frame from a pre-telemetry peer: no trace fields.
        assert_eq!(take_trace(&mut fields(r#"{"type":"error","id":3}"#)), None);
        // Corrupted: the span id is a string. Only the context is
        // dropped (orphan span downstream); the frame's other fields
        // are untouched.
        let mut bad =
            fields(r#"{"type":"error","id":3,"trace_run":5,"trace_unit":3,"trace_span":"xx"}"#);
        assert_eq!(take_trace(&mut bad), None);
        assert!(take_field(&mut bad, "id").is_ok());
        // All-zero means "no context", same as absent.
        let mut zero = fields(r#"{"type":"error","trace_run":0,"trace_unit":0,"trace_span":0}"#);
        assert_eq!(take_trace(&mut zero), None);
    }

    #[test]
    fn shipped_spans_round_trip_and_degrade_per_entry() {
        let spans = vec![SpanRecord {
            name: "analyze".to_string(),
            id: 21,
            parent: 13,
            run_id: 11,
            unit_id: 7,
            start_us: 100,
            dur_us: 50,
            tid: 1,
        }];
        let mut fields = vec![("spans".to_string(), spans_to_value(&spans))];
        assert_eq!(take_spans(&mut fields), spans);
        assert!(fields.is_empty(), "field consumed");

        // One malformed entry in a shipped batch drops that entry, not
        // the batch — and an absent field is simply zero spans.
        let good = match spans_to_value(&spans) {
            Value::Seq(mut items) => items.remove(0),
            other => panic!("spans_to_value must yield a sequence: {other:?}"),
        };
        let mut fields = vec![(
            "spans".to_string(),
            Value::Seq(vec![Value::Str("garbage".to_string()), good]),
        )];
        let parsed = take_spans(&mut fields);
        assert_eq!(parsed, spans);
        assert!(take_spans(&mut Vec::new()).is_empty());
    }

    #[test]
    fn garbage_line_is_a_protocol_error() {
        let mut reader = std::io::BufReader::new(&b"not json\n"[..]);
        assert!(read_message::<Value>(&mut reader).is_err());
    }

    #[test]
    fn capped_reader_enforces_the_line_limit_without_buffering_it() {
        let shutdown = Value::Object(vec![(
            "type".to_string(),
            Value::Str("shutdown".to_string()),
        )]);
        let mut buf = Vec::new();
        write_message(&mut buf, &shutdown).unwrap();
        let mut reader = std::io::BufReader::new(buf.as_slice());
        assert_eq!(
            read_message_capped::<Value>(&mut reader, 1024).unwrap(),
            Some(shutdown)
        );
        assert!(read_message_capped::<Value>(&mut reader, 1024)
            .unwrap()
            .is_none());

        let endless = vec![b'x'; 64];
        let mut reader = std::io::BufReader::new(endless.as_slice());
        let err = read_message_capped::<Value>(&mut reader, 16).expect_err("over the cap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "got: {err}");
    }
}
