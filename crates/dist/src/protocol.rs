//! The NDJSON wire codec every protocol in the workspace shares.
//!
//! One message per line, each a single JSON object tagged by a `"type"`
//! field. The fleet's agent protocol and the serve daemon's policy
//! protocol both frame through [`write_message`] / [`read_message_capped`]
//! and declare their messages with `serde::impl_serde_tagged_enum!`; the
//! trace and span fields below are that macro's custom field codecs, so
//! framing errors, the line cap, trace propagation and shipped spans
//! behave identically on every link.
//!
//! Paths travel as JSON strings, so non-UTF-8 file names (legal on
//! Linux) cannot cross the wire intact: the policy client refuses them,
//! and fleet units carry the file's bytes in band next to a lossy
//! display path.

use bside_obs::{SpanRecord, TraceContext};
use serde::de::{self, FieldCodec, MapAccess, Visitor};
use serde::ser::SerializeMap;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::io::{BufRead, Write};

/// A value read leniently: anything that does not parse as a `T` reads
/// as `None`, never as an error. The deserializer has consumed the value
/// either way, and a syntax error still fails the whole frame.
struct Lenient<T>(Option<T>);

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Lenient<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Lenient(T::deserialize(deserializer).ok()))
    }
}

/// Reads the value of a just-read key into `slot` if the key is the
/// first of its name; a later duplicate is skipped.
fn read_first<'de, A, T>(slot: &mut Option<Lenient<T>>, map: &mut A) -> Result<(), A::Error>
where
    A: MapAccess<'de>,
    T: Deserialize<'de>,
{
    if slot.is_some() {
        return map.skip_value();
    }
    *slot = Some(map.next_value()?);
    Ok(())
}

/// A telemetry id: a non-negative integer literal (`-0` is not one).
struct Id(u64);

struct IdVisitor;

impl<'de> Visitor<'de> for IdVisitor {
    type Value = Id;

    fn expecting(&self) -> &str {
        "unsigned integer"
    }

    fn visit_u64<E: de::Error>(self, v: u64) -> Result<Id, E> {
        Ok(Id(v))
    }
}

impl<'de> Deserialize<'de> for Id {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(IdVisitor)
    }
}

/// The id a lenient slot holds, if its first entry was one.
fn id(slot: &Option<Lenient<Id>>) -> Option<u64> {
    slot.as_ref()?.0.as_ref().map(|id| id.0)
}

/// The field codec of a message's trace context: the run/unit/span ids
/// as three fields, none for `None`, so frames without telemetry are
/// byte-identical to the previous protocol revision (which is why no
/// version bump is needed).
///
/// Deliberately lenient on read, unlike every other field in these
/// protocols: absent, partial, malformed, or all-zero ids yield `None` —
/// the receiver's spans become orphans, but the frame still parses.
/// Telemetry corruption must never sever a working link, so this never
/// returns an error.
#[derive(Default)]
pub struct TraceCodec([Option<Lenient<Id>>; 3]);

const TRACE_KEYS: [&str; 3] = ["trace_run", "trace_unit", "trace_span"];

impl FieldCodec for TraceCodec {
    type Value = Option<TraceContext>;

    fn key_index(key: &str) -> Option<u8> {
        TRACE_KEYS.iter().position(|k| *k == key).map(|i| i as u8)
    }

    fn write<M: SerializeMap>(trace: &Option<TraceContext>, map: &mut M) -> Result<(), M::Error> {
        let Some(ctx) = trace else {
            return Ok(());
        };
        let ids = [ctx.run_id, ctx.unit_id, ctx.span_id];
        TRACE_KEYS
            .iter()
            .zip(ids)
            .try_for_each(|(key, id)| map.serialize_entry(key, &id))
    }

    fn read<'de, A: MapAccess<'de>>(&mut self, key: u8, map: &mut A) -> Result<(), A::Error> {
        read_first(&mut self.0[usize::from(key)], map)
    }

    fn finish<E: de::Error>(self) -> Result<Option<TraceContext>, E> {
        let [Some(run_id), Some(unit_id), Some(span_id)] = self.0.each_ref().map(id) else {
            return Ok(None);
        };
        let ctx = TraceContext {
            run_id,
            unit_id,
            span_id,
        };
        Ok((ctx != TraceContext::default()).then_some(ctx))
    }
}

/// The fields of a shipped span: `name`, then its numbers, the first four
/// of which it cannot do without.
const SPAN_FIELDS: [&str; 8] = [
    "name", "id", "parent", "run_id", "unit_id", "start_us", "dur_us", "tid",
];

/// One shipped span as a JSON object.
struct SpanOut<'a>(&'a SpanRecord);

impl Serialize for SpanOut<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let s = self.0;
        let nums = [
            s.id, s.parent, s.run_id, s.unit_id, s.start_us, s.dur_us, s.tid,
        ];
        let mut map = serializer.serialize_map(Some(SPAN_FIELDS.len()))?;
        map.serialize_entry(SPAN_FIELDS[0], &s.name)?;
        for (key, v) in SPAN_FIELDS[1..].iter().zip(nums) {
            map.serialize_entry(key, &v)?;
        }
        map.end()
    }
}

/// One shipped span read back. An entry that is not an object, or lacks
/// a string `name` or an id among `id`, `parent`, `run_id` and
/// `unit_id`, fails, and the span array drops it; a malformed timing
/// reads as 0. The first entry of each name counts.
struct ShippedSpan(SpanRecord);

struct SpanVisitor;

impl<'de> Visitor<'de> for SpanVisitor {
    type Value = ShippedSpan;

    fn expecting(&self) -> &str {
        "span object"
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<ShippedSpan, A::Error> {
        let mut name: Option<Lenient<String>> = None;
        let mut nums: [Option<Lenient<Id>>; 7] = Default::default();
        while let Some(field) = map.next_key_with(|k| SPAN_FIELDS.iter().position(|f| *f == k))? {
            match field {
                Some(0) => read_first(&mut name, &mut map)?,
                Some(i) => read_first(&mut nums[i - 1], &mut map)?,
                None => map.skip_value()?,
            }
        }
        let [id, parent, run_id, unit_id, start_us, dur_us, tid] = nums.each_ref().map(id);
        let name = name.and_then(|name| name.0);
        let (Some(name), Some(id), Some(parent), Some(run_id), Some(unit_id)) =
            (name, id, parent, run_id, unit_id)
        else {
            return Err(de::Error::custom("malformed span"));
        };
        Ok(ShippedSpan(SpanRecord {
            name,
            id,
            parent,
            run_id,
            unit_id,
            start_us: start_us.unwrap_or(0),
            dur_us: dur_us.unwrap_or(0),
            tid: tid.unwrap_or(0),
        }))
    }
}

impl<'de> Deserialize<'de> for ShippedSpan {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(SpanVisitor)
    }
}

/// The field codec of a result frame's shipped spans: a `spans` array
/// only when there is something to ship, so a telemetry-disabled peer's
/// frames stay byte-identical to pre-trace revisions. Read with the same
/// leniency as [`TraceCodec`]: an absent field or a malformed entry
/// yields fewer spans, never an error.
#[derive(Default)]
pub struct SpansCodec(Option<Lenient<Vec<Lenient<ShippedSpan>>>>);

impl FieldCodec for SpansCodec {
    type Value = Vec<SpanRecord>;

    fn key_index(key: &str) -> Option<u8> {
        (key == "spans").then_some(0)
    }

    fn write<M: SerializeMap>(spans: &Vec<SpanRecord>, map: &mut M) -> Result<(), M::Error> {
        if spans.is_empty() {
            return Ok(());
        }
        let spans: Vec<SpanOut<'_>> = spans.iter().map(SpanOut).collect();
        map.serialize_entry("spans", &spans)
    }

    fn read<'de, A: MapAccess<'de>>(&mut self, _: u8, map: &mut A) -> Result<(), A::Error> {
        read_first(&mut self.0, map)
    }

    fn finish<E: de::Error>(self) -> Result<Vec<SpanRecord>, E> {
        let entries = self.0.and_then(|spans| spans.0).unwrap_or_default();
        Ok(entries
            .into_iter()
            .filter_map(|entry| entry.0.map(|span| span.0))
            .collect())
    }
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
    use serde::Value;

    /// A message with both lenient codecs, as the fleet frames use them.
    #[derive(Debug, PartialEq)]
    enum Probe {
        Error {
            id: u64,
            trace: Option<TraceContext>,
            spans: Vec<SpanRecord>,
        },
    }

    serde::impl_serde_tagged_enum!(Probe, tag = "type" {
        Error = "error" { id, trace with TraceCodec, spans with SpansCodec },
    });

    fn probe(json: &str) -> (Option<TraceContext>, Vec<SpanRecord>) {
        match serde_json::from_str(json).expect("the frame parses") {
            Probe::Error { trace, spans, .. } => (trace, spans),
        }
    }

    #[test]
    fn absent_or_corrupted_trace_parses_as_none_never_an_error() {
        let ctx = TraceContext {
            run_id: 11,
            unit_id: 7,
            span_id: 13,
        };
        let msg = Probe::Error {
            id: 3,
            trace: Some(ctx),
            spans: Vec::new(),
        };
        let json = serde_json::to_string(&msg).unwrap();
        assert_eq!(
            json,
            r#"{"type":"error","id":3,"trace_run":11,"trace_unit":7,"trace_span":13}"#
        );
        assert_eq!(serde_json::from_str::<Probe>(&json).unwrap(), msg);

        // A frame from a pre-telemetry peer: no trace fields.
        assert_eq!(probe(r#"{"type":"error","id":3}"#).0, None);
        // Corrupted: the span id is a string. Only the context is
        // dropped (orphan span downstream); the frame's other fields
        // are untouched.
        let bad = r#"{"type":"error","id":3,"trace_run":5,"trace_unit":3,"trace_span":"xx"}"#;
        assert!(matches!(
            serde_json::from_str::<Probe>(bad),
            Ok(Probe::Error {
                id: 3,
                trace: None,
                ..
            })
        ));
        // All-zero means "no context", same as absent.
        let zero = r#"{"type":"error","id":3,"trace_run":0,"trace_unit":0,"trace_span":0}"#;
        assert_eq!(probe(zero).0, None);
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
        let msg = Probe::Error {
            id: 3,
            trace: None,
            spans: spans.clone(),
        };
        let json = serde_json::to_string(&msg).unwrap();
        assert_eq!(serde_json::from_str::<Probe>(&json).unwrap(), msg);

        // One malformed entry in a shipped batch drops that entry, not
        // the batch — and an absent field is simply zero spans.
        let good = &json[json.find("[{").unwrap() + 1..json.len() - 2];
        let mixed = format!(r#"{{"type":"error","id":3,"spans":["garbage",{good}]}}"#);
        assert_eq!(probe(&mixed).1, spans);
        assert_eq!(probe(r#"{"type":"error","id":3}"#).1, Vec::new());
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
