//! The coordinator ↔ agent wire protocol.
//!
//! Newline-delimited JSON over a [`bside_dist::net::Conn`] (TCP between
//! machines, a Unix socket for local agents), one message per line,
//! each a single JSON object tagged by a `"type"` field — the exact
//! framing the serve protocol uses, through the same shared codec
//! ([`read_message_capped`]/[`write_message`] re-exported from
//! `bside_dist::protocol`), so framing errors and the line cap behave
//! identically in both.
//!
//! ```text
//! coordinator → agent   {"type":"challenge","nonce":"9f2c…"}
//! agent → coordinator   {"type":"hello","version":2,"slots":2,"cache_format":1,
//!                        "auth":"b034…"}           (auth present only on secured fleets)
//! coordinator → agent   {"type":"welcome","version":2,"heartbeat_interval_ms":1000,
//!                        "sealed":true}            (sealed only on secured fleets)
//!                       {"type":"reject","message":"agent speaks protocol v3, expected v2"}
//! coordinator → agent   {"type":"unit","id":7,"name":"grep_3","path":"/corpus/0003_grep.elf",
//!                        "want":"Analysis","elf":"f0VMRg…","options":{…}}
//!                       {"type":"shutdown"}
//! agent → coordinator   {"type":"heartbeat"}
//!                       {"type":"result","id":7,"analysis":{…}}
//!                       {"type":"bundle","id":7,"bundle":{…}}
//!                       {"type":"error","id":7,"message":"analysis budget exhausted…"}
//!                       {"type":"sealed","seq":3,"mac":"5bdc…","body":"{\"type\":\"result\"…}"}
//! ```
//!
//! **The challenge opens every connection.** The coordinator's first
//! frame is a `challenge` carrying a fresh nonce, sent whether or not a
//! secret is configured — the handshake shape never depends on
//! deployment. On a secured fleet the agent's hello must carry
//! `auth = HMAC-SHA256(secret, nonce ‖ hello fields)` (see
//! [`crate::auth`]); a wrong or missing MAC is rejected in band.
//!
//! **The hello is the capability handshake.** An agent announces its
//! protocol version, its slot count (how many units it will analyze
//! concurrently — the coordinator never has more than that many
//! outstanding on the connection), and its [`CACHE_FORMAT_VERSION`]
//! (the result-semantics fingerprint every cache key folds in). The
//! coordinator rejects, in band, any agent whose version or cache format
//! differs: a heterogeneous fleet self-describes, and an agent built
//! from an older engine can never poison the content-addressed result
//! cache with semantically different analyses.
//!
//! **Sealed frames carry the session on secured fleets.** After an
//! authenticated hello, every agent frame travels wrapped in a `sealed`
//! envelope: the serialized inner frame as `body`, a strictly
//! increasing per-connection `seq`, and `mac = HMAC(session_key, seq ‖
//! body)` under a key derived from `(secret, nonce)`. The coordinator
//! severs on a bad MAC or an unsealed frame and silently drops
//! replayed/duplicated sequence numbers — a mid-session injector cannot
//! forge a result into the content-addressed cache, and a fault-injected
//! duplicate frame is absorbed without killing the link.
//!
//! **Binary payloads travel in band.** A unit carries the ELF bytes
//! themselves (base64 inside the JSON line), so agents need no shared
//! filesystem — the coordinator is the only process that ever touches
//! the corpus directory. The `path` field is display-only: it makes
//! agent-side error messages byte-identical to the in-process engine's.
//!
//! **Heartbeats are the liveness channel.** A dedicated agent thread
//! sends `heartbeat` at the cadence the `welcome` prescribes; the
//! coordinator reads with a socket timeout a few beats wide, so an agent
//! that goes silent (killed, partitioned, wedged) is detected without
//! any out-of-band probe and its in-flight units are requeued.

use bside_core::{AnalyzerOptions, BinaryAnalysis};
use bside_dist::PolicyBundle;
use bside_obs::{SpanRecord, TraceContext};
use serde::{de, to_value, Value};

use bside_dist::protocol::{
    obj_fields, push_trace, spans_to_value, take_field, take_spans, take_string, take_trace,
    take_u64,
};

pub use bside_dist::cache::CACHE_FORMAT_VERSION;
pub use bside_dist::protocol::{read_message_capped, write_message};

/// Protocol revision; bumped on any incompatible message change. The
/// coordinator rejects agents announcing a different version in band
/// rather than mis-parsing their frames. v2 added the challenge-first
/// handshake, the hello's `auth` MAC, and the sealed-frame envelope.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on one fleet frame. Unit frames carry whole binaries
/// (base64, ~4/3 of the ELF size) and result frames carry whole
/// analyses, so the cap is far above the serve request cap — but it is
/// enforced through the same shared codec, so an oversized line fails
/// identically: `InvalidData` without unbounded buffering.
pub const MAX_FLEET_LINE_BYTES: u64 = 64 * 1024 * 1024;

/// What the coordinator wants back for a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// A [`BinaryAnalysis`] in the `bside_core::wire` format — the
    /// corpus path.
    Analysis,
    /// A full [`PolicyBundle`] (policy + phases + lowered BPF) — the
    /// serve-daemon offload path, where the agent also runs phase
    /// detection and the BPF lowering so the daemon does none of it.
    Bundle,
}

serde::impl_serde_unit_enum!(Want { Analysis, Bundle });

/// Messages the coordinator sends to an agent.
#[derive(Debug, Clone)]
pub enum ToAgent {
    /// The coordinator's first frame on every connection: the
    /// authentication challenge the agent folds into its hello MAC.
    /// Always sent — secured and open fleets share one handshake shape.
    Challenge {
        /// Fresh per-connection nonce (hex).
        nonce: String,
    },
    /// The hello was accepted; the agent may expect units.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`], echoed for symmetry.
        version: u32,
        /// How often the agent must send heartbeats, in milliseconds.
        heartbeat_interval_ms: u64,
        /// Whether the coordinator requires sealed agent frames for the
        /// rest of the session (true exactly when a secret is
        /// configured). An agent holding a secret refuses an unsealed
        /// welcome — a downgrade must fail loudly, not silently.
        sealed: bool,
    },
    /// The hello was refused (version or cache-format mismatch); the
    /// coordinator closes the connection after this frame.
    Reject {
        /// Human-readable cause.
        message: String,
    },
    /// Analyze one binary, shipped in band.
    Unit {
        /// Coordinator-wide dispatch sequence number, echoed back.
        id: u64,
        /// Display name of the unit (the corpus naming convention).
        name: String,
        /// Display-only origin path — used in agent-side error messages
        /// so degraded units render byte-identically to in-process runs.
        path: String,
        /// What to send back.
        want: Want,
        /// The ELF image (base64 on the wire).
        elf: Vec<u8>,
        /// Analyzer configuration for this unit.
        options: AnalyzerOptions,
        /// The coordinator's dispatch-span trace context
        /// (`trace_run`/`trace_unit`/`trace_span` on the wire), absent
        /// when telemetry is off. Parsed leniently: a missing or
        /// corrupted context degrades to `None` — the agent's spans
        /// become orphans, the unit itself is never affected.
        trace: Option<TraceContext>,
    },
    /// Exit cleanly after finishing in-flight units.
    Shutdown,
    /// An authenticated envelope around a post-welcome coordinator frame
    /// — the only shape a secured agent accepts once welcomed. Symmetric
    /// with [`FromAgent::Sealed`] for a reason: without downlink seals,
    /// line noise inside a unit's base64 payload could hand the agent a
    /// *different valid binary*, and the agent would return a correctly
    /// sealed wrong answer the coordinator has no way to distrust.
    Sealed {
        /// Strictly increasing per-connection sequence number; the agent
        /// silently drops any number it has already seen (duplicate
        /// delivery), and severs on a MAC that does not verify.
        seq: u64,
        /// `HMAC-SHA256(session_key, seq ‖ body)`
        /// ([`crate::auth::frame_mac`]).
        mac: String,
        /// The serialized inner frame (one JSON object, no newline).
        body: String,
    },
}

/// Messages an agent sends to the coordinator.
#[derive(Debug)]
pub enum FromAgent {
    /// Sent once on connect, after the challenge: the capability hello.
    Hello {
        /// The agent's [`PROTOCOL_VERSION`].
        version: u32,
        /// Units the agent analyzes concurrently (its admission window).
        slots: usize,
        /// The agent's [`CACHE_FORMAT_VERSION`] — the result-semantics
        /// fingerprint; a mismatch means its analyses must not land in
        /// the coordinator's cache.
        cache_format: u32,
        /// `HMAC-SHA256(secret, nonce ‖ hello fields)` on secured
        /// fleets ([`crate::auth::hello_mac`]); absent on open fleets.
        auth: Option<String>,
    },
    /// Liveness beacon, sent at the welcome's cadence from a dedicated
    /// thread — it keeps flowing even while every slot is busy.
    Heartbeat,
    /// A unit analyzed successfully ([`Want::Analysis`]).
    Result {
        /// The unit's id, echoed back.
        id: u64,
        /// The analysis, in the `bside_core::wire` format.
        analysis: Box<BinaryAnalysis>,
        /// The unit's trace context, echoed back from the dispatch.
        trace: Option<TraceContext>,
        /// The agent-side spans for this unit (the `analyze` span and
        /// its per-phase children), shipped home so the coordinator can
        /// stitch one cross-machine trace. Empty when telemetry is off;
        /// malformed entries are skipped, never fatal.
        spans: Vec<SpanRecord>,
    },
    /// A unit derived successfully ([`Want::Bundle`]).
    Bundle {
        /// The unit's id, echoed back.
        id: u64,
        /// The policy bundle, in the `bside_filter::wire` format.
        bundle: Box<PolicyBundle>,
        /// The unit's trace context, echoed back from the dispatch.
        trace: Option<TraceContext>,
        /// The agent-side spans for this unit (see [`FromAgent::Result`]).
        spans: Vec<SpanRecord>,
    },
    /// A unit failed deterministically (unparseable ELF, analysis
    /// error); the connection stays healthy.
    Error {
        /// The unit's id, echoed back.
        id: u64,
        /// The error's `Display` rendering — the merged-report payload.
        message: String,
        /// The unit's trace context, echoed back from the dispatch.
        trace: Option<TraceContext>,
        /// The agent-side spans for this unit (see [`FromAgent::Result`]).
        spans: Vec<SpanRecord>,
    },
    /// An authenticated envelope around any other agent frame — the only
    /// frame shape a secured coordinator accepts after the hello.
    Sealed {
        /// Strictly increasing per-connection sequence number; the
        /// coordinator silently drops any number it has already seen.
        seq: u64,
        /// `HMAC-SHA256(session_key, seq ‖ body)`
        /// ([`crate::auth::frame_mac`]).
        mac: String,
        /// The serialized inner frame (one JSON object, no newline).
        body: String,
    },
}

impl serde::Serialize for ToAgent {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let value = match self {
            ToAgent::Challenge { nonce } => Value::Object(vec![
                ("type".to_string(), Value::Str("challenge".to_string())),
                ("nonce".to_string(), Value::Str(nonce.clone())),
            ]),
            ToAgent::Welcome {
                version,
                heartbeat_interval_ms,
                sealed,
            } => Value::Object(vec![
                ("type".to_string(), Value::Str("welcome".to_string())),
                ("version".to_string(), Value::UInt(*version as u64)),
                (
                    "heartbeat_interval_ms".to_string(),
                    Value::UInt(*heartbeat_interval_ms),
                ),
                ("sealed".to_string(), Value::Bool(*sealed)),
            ]),
            ToAgent::Reject { message } => Value::Object(vec![
                ("type".to_string(), Value::Str("reject".to_string())),
                ("message".to_string(), Value::Str(message.clone())),
            ]),
            ToAgent::Unit {
                id,
                name,
                path,
                want,
                elf,
                options,
                trace,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Value::Str("unit".to_string())),
                    ("id".to_string(), Value::UInt(*id)),
                    ("name".to_string(), Value::Str(name.clone())),
                    ("path".to_string(), Value::Str(path.clone())),
                    ("want".to_string(), to_value(want)),
                    ("elf".to_string(), Value::Str(base64_encode(elf))),
                    ("options".to_string(), to_value(options)),
                ];
                push_trace(&mut fields, trace);
                Value::Object(fields)
            }
            ToAgent::Shutdown => Value::Object(vec![(
                "type".to_string(),
                Value::Str("shutdown".to_string()),
            )]),
            ToAgent::Sealed { seq, mac, body } => Value::Object(vec![
                ("type".to_string(), Value::Str("sealed".to_string())),
                ("seq".to_string(), Value::UInt(*seq)),
                ("mac".to_string(), Value::Str(mac.clone())),
                ("body".to_string(), Value::Str(body.clone())),
            ]),
        };
        serializer.serialize_value(value)
    }
}

impl serde::Serialize for FromAgent {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let value = match self {
            FromAgent::Hello {
                version,
                slots,
                cache_format,
                auth,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Value::Str("hello".to_string())),
                    ("version".to_string(), Value::UInt(*version as u64)),
                    ("slots".to_string(), Value::UInt(*slots as u64)),
                    (
                        "cache_format".to_string(),
                        Value::UInt(*cache_format as u64),
                    ),
                ];
                if let Some(mac) = auth {
                    fields.push(("auth".to_string(), Value::Str(mac.clone())));
                }
                Value::Object(fields)
            }
            FromAgent::Heartbeat => Value::Object(vec![(
                "type".to_string(),
                Value::Str("heartbeat".to_string()),
            )]),
            FromAgent::Result {
                id,
                analysis,
                trace,
                spans,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Value::Str("result".to_string())),
                    ("id".to_string(), Value::UInt(*id)),
                    ("analysis".to_string(), to_value(analysis)),
                ];
                push_trace(&mut fields, trace);
                push_spans(&mut fields, spans);
                Value::Object(fields)
            }
            FromAgent::Bundle {
                id,
                bundle,
                trace,
                spans,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Value::Str("bundle".to_string())),
                    ("id".to_string(), Value::UInt(*id)),
                    ("bundle".to_string(), to_value(bundle)),
                ];
                push_trace(&mut fields, trace);
                push_spans(&mut fields, spans);
                Value::Object(fields)
            }
            FromAgent::Error {
                id,
                message,
                trace,
                spans,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Value::Str("error".to_string())),
                    ("id".to_string(), Value::UInt(*id)),
                    ("message".to_string(), Value::Str(message.clone())),
                ];
                push_trace(&mut fields, trace);
                push_spans(&mut fields, spans);
                Value::Object(fields)
            }
            FromAgent::Sealed { seq, mac, body } => Value::Object(vec![
                ("type".to_string(), Value::Str("sealed".to_string())),
                ("seq".to_string(), Value::UInt(*seq)),
                ("mac".to_string(), Value::Str(mac.clone())),
                ("body".to_string(), Value::Str(body.clone())),
            ]),
        };
        serializer.serialize_value(value)
    }
}

/// Appends the `spans` field only when there is something to ship, so a
/// telemetry-disabled agent's frames stay byte-identical to pre-trace
/// revisions.
fn push_spans(entries: &mut Vec<(String, Value)>, spans: &[SpanRecord]) {
    if !spans.is_empty() {
        entries.push(("spans".to_string(), spans_to_value(spans)));
    }
}

impl<'de> serde::Deserialize<'de> for ToAgent {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut entries =
            obj_fields(deserializer.into_value()?, "ToAgent").map_err(de::Error::custom)?;
        let tag = take_string(&mut entries, "type").map_err(de::Error::custom)?;
        match tag.as_str() {
            "challenge" => Ok(ToAgent::Challenge {
                nonce: take_string(&mut entries, "nonce").map_err(de::Error::custom)?,
            }),
            "welcome" => Ok(ToAgent::Welcome {
                version: take_u64(&mut entries, "version").map_err(de::Error::custom)? as u32,
                heartbeat_interval_ms: take_u64(&mut entries, "heartbeat_interval_ms")
                    .map_err(de::Error::custom)?,
                sealed: if entries.iter().any(|(name, _)| name == "sealed") {
                    match take_field(&mut entries, "sealed").map_err(de::Error::custom)? {
                        Value::Bool(b) => b,
                        other => {
                            return Err(de::Error::custom(format!(
                                "field `sealed` must be a boolean, found {other:?}"
                            )))
                        }
                    }
                } else {
                    false
                },
            }),
            "reject" => Ok(ToAgent::Reject {
                message: take_string(&mut entries, "message").map_err(de::Error::custom)?,
            }),
            "unit" => Ok(ToAgent::Unit {
                id: take_u64(&mut entries, "id").map_err(de::Error::custom)?,
                name: take_string(&mut entries, "name").map_err(de::Error::custom)?,
                path: take_string(&mut entries, "path").map_err(de::Error::custom)?,
                want: serde::from_value(
                    take_field(&mut entries, "want").map_err(de::Error::custom)?,
                )
                .map_err(de::Error::custom)?,
                elf: {
                    let encoded = take_string(&mut entries, "elf").map_err(de::Error::custom)?;
                    base64_decode(&encoded).map_err(de::Error::custom)?
                },
                options: serde::from_value(
                    take_field(&mut entries, "options").map_err(de::Error::custom)?,
                )
                .map_err(de::Error::custom)?,
                trace: take_trace(&mut entries),
            }),
            "shutdown" => Ok(ToAgent::Shutdown),
            "sealed" => Ok(ToAgent::Sealed {
                seq: take_u64(&mut entries, "seq").map_err(de::Error::custom)?,
                mac: take_string(&mut entries, "mac").map_err(de::Error::custom)?,
                body: take_string(&mut entries, "body").map_err(de::Error::custom)?,
            }),
            other => Err(de::Error::custom(format!(
                "unknown coordinator message type `{other}`"
            ))),
        }
    }
}

impl<'de> serde::Deserialize<'de> for FromAgent {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut entries =
            obj_fields(deserializer.into_value()?, "FromAgent").map_err(de::Error::custom)?;
        let tag = take_string(&mut entries, "type").map_err(de::Error::custom)?;
        match tag.as_str() {
            "hello" => Ok(FromAgent::Hello {
                version: take_u64(&mut entries, "version").map_err(de::Error::custom)? as u32,
                slots: take_u64(&mut entries, "slots").map_err(de::Error::custom)? as usize,
                cache_format: take_u64(&mut entries, "cache_format").map_err(de::Error::custom)?
                    as u32,
                auth: if entries.iter().any(|(name, _)| name == "auth") {
                    Some(take_string(&mut entries, "auth").map_err(de::Error::custom)?)
                } else {
                    None
                },
            }),
            "heartbeat" => Ok(FromAgent::Heartbeat),
            "result" => Ok(FromAgent::Result {
                id: take_u64(&mut entries, "id").map_err(de::Error::custom)?,
                analysis: serde::from_value(
                    take_field(&mut entries, "analysis").map_err(de::Error::custom)?,
                )
                .map_err(de::Error::custom)?,
                trace: take_trace(&mut entries),
                spans: take_spans(&mut entries),
            }),
            "bundle" => Ok(FromAgent::Bundle {
                id: take_u64(&mut entries, "id").map_err(de::Error::custom)?,
                bundle: serde::from_value(
                    take_field(&mut entries, "bundle").map_err(de::Error::custom)?,
                )
                .map_err(de::Error::custom)?,
                trace: take_trace(&mut entries),
                spans: take_spans(&mut entries),
            }),
            "error" => Ok(FromAgent::Error {
                id: take_u64(&mut entries, "id").map_err(de::Error::custom)?,
                message: take_string(&mut entries, "message").map_err(de::Error::custom)?,
                trace: take_trace(&mut entries),
                spans: take_spans(&mut entries),
            }),
            "sealed" => Ok(FromAgent::Sealed {
                seq: take_u64(&mut entries, "seq").map_err(de::Error::custom)?,
                mac: take_string(&mut entries, "mac").map_err(de::Error::custom)?,
                body: take_string(&mut entries, "body").map_err(de::Error::custom)?,
            }),
            other => Err(de::Error::custom(format!(
                "unknown agent message type `{other}`"
            ))),
        }
    }
}

/// Seals an agent frame for a secured session: serializes it, MACs the
/// serialization under the session key at `seq`, and wraps both in a
/// [`FromAgent::Sealed`] envelope.
pub fn seal(session_key: &[u8], seq: u64, frame: &FromAgent) -> std::io::Result<FromAgent> {
    let body = serde_json::to_string(frame)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mac = crate::auth::frame_mac(session_key, seq, &body);
    Ok(FromAgent::Sealed { seq, mac, body })
}

/// Verifies a sealed envelope's MAC and deserializes the inner frame.
/// The caller enforces the strictly-increasing sequence policy; this
/// only answers "was this body really sealed at this number under this
/// key".
pub fn unseal(session_key: &[u8], seq: u64, mac: &str, body: &str) -> Result<FromAgent, String> {
    let expected = crate::auth::frame_mac(session_key, seq, body);
    if expected != mac {
        return Err("sealed frame failed MAC verification".to_string());
    }
    serde_json::from_str(body).map_err(|e| format!("sealed frame body did not parse: {e}"))
}

/// [`seal`] for the downlink: wraps a coordinator frame in a
/// [`ToAgent::Sealed`] envelope. Both directions share one session key
/// and one MAC construction; reflecting a sealed frame back across the
/// link is inert because the two frame namespaces are disjoint — a
/// reflected body fails to parse as the other direction's type.
pub fn seal_down(session_key: &[u8], seq: u64, frame: &ToAgent) -> std::io::Result<ToAgent> {
    let body = serde_json::to_string(frame)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mac = crate::auth::frame_mac(session_key, seq, &body);
    Ok(ToAgent::Sealed { seq, mac, body })
}

/// [`unseal`] for the downlink: verifies and unwraps a
/// [`ToAgent::Sealed`] envelope.
pub fn unseal_down(session_key: &[u8], seq: u64, mac: &str, body: &str) -> Result<ToAgent, String> {
    let expected = crate::auth::frame_mac(session_key, seq, body);
    if expected != mac {
        return Err("sealed frame failed MAC verification".to_string());
    }
    serde_json::from_str(body).map_err(|e| format!("sealed frame body did not parse: {e}"))
}

// ---------------------------------------------------------------------------
// Base64 (RFC 4648, standard alphabet with padding). The build
// environment has no registry access; this is only used to carry binary
// payloads inside JSON lines.
// ---------------------------------------------------------------------------

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding.
pub fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        out.push(B64_ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(triple >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[triple as usize & 0x3f] as char
        } else {
            '='
        });
    }
    out
}

fn b64_value(c: u8) -> Result<u32, String> {
    match c {
        b'A'..=b'Z' => Ok((c - b'A') as u32),
        b'a'..=b'z' => Ok((c - b'a') as u32 + 26),
        b'0'..=b'9' => Ok((c - b'0') as u32 + 52),
        b'+' => Ok(62),
        b'/' => Ok(63),
        other => Err(format!("invalid base64 byte {other:#04x}")),
    }
}

/// Decodes standard padded base64; any malformed input is an error, never
/// a silent truncation.
pub fn base64_decode(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, quad) in bytes.chunks_exact(4).enumerate() {
        let last = i == bytes.len() / 4 - 1;
        let pad = quad.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || (!last && pad > 0) {
            return Err("misplaced base64 padding".to_string());
        }
        if quad[..4 - pad].contains(&b'=') {
            return Err("misplaced base64 padding".to_string());
        }
        let mut triple = 0u32;
        for &c in &quad[..4 - pad] {
            triple = (triple << 6) | b64_value(c)?;
        }
        triple <<= 6 * pad as u32;
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_round_trips_and_matches_known_vectors() {
        // RFC 4648 test vectors.
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        for len in [0usize, 1, 2, 3, 63, 64, 65, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(
                base64_decode(&base64_encode(&data)).expect("round trip"),
                data,
                "len {len}"
            );
        }
    }

    #[test]
    fn base64_rejects_malformed_input() {
        assert!(base64_decode("Zg=").is_err(), "bad length");
        assert!(base64_decode("Z!==").is_err(), "bad alphabet");
        assert!(base64_decode("Zg==Zg==").is_err(), "padding mid-stream");
        assert!(base64_decode("====").is_err(), "over-padded");
        assert!(base64_decode("Z=g=").is_err(), "padding before data");
    }

    #[test]
    fn hello_and_unit_round_trip() {
        let hello = FromAgent::Hello {
            version: PROTOCOL_VERSION,
            slots: 4,
            cache_format: CACHE_FORMAT_VERSION,
            auth: None,
        };
        let json = serde_json::to_string(&hello).unwrap();
        assert!(
            !json.contains("auth"),
            "an open-fleet hello carries no auth field: {json}"
        );
        match serde_json::from_str::<FromAgent>(&json).unwrap() {
            FromAgent::Hello {
                version,
                slots,
                cache_format,
                auth,
            } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(slots, 4);
                assert_eq!(cache_format, CACHE_FORMAT_VERSION);
                assert_eq!(auth, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let unit = ToAgent::Unit {
            id: 9,
            name: "nginx_9".to_string(),
            path: "/corpus/0009_nginx.elf".to_string(),
            want: Want::Analysis,
            elf: vec![0x7f, b'E', b'L', b'F', 0, 1, 2, 3],
            options: bside_core::AnalyzerOptions::default(),
            trace: Some(TraceContext {
                run_id: 21,
                unit_id: 9,
                span_id: 33,
            }),
        };
        let json = serde_json::to_string(&unit).unwrap();
        match serde_json::from_str::<ToAgent>(&json).unwrap() {
            ToAgent::Unit {
                id,
                name,
                path,
                want,
                elf,
                options,
                trace,
            } => {
                assert_eq!(id, 9);
                assert_eq!(name, "nginx_9");
                assert_eq!(path, "/corpus/0009_nginx.elf");
                assert_eq!(want, Want::Analysis);
                assert_eq!(elf, vec![0x7f, b'E', b'L', b'F', 0, 1, 2, 3]);
                assert_eq!(
                    options.limits,
                    bside_core::AnalyzerOptions::default().limits
                );
                assert_eq!(
                    trace,
                    Some(TraceContext {
                        run_id: 21,
                        unit_id: 9,
                        span_id: 33,
                    })
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unit_message_round_trips() {
        // An untraced bundle unit with non-default options, across the
        // line codec: no trace fields on the wire, everything else intact.
        let mut options = AnalyzerOptions::default();
        options.detect_wrappers = !options.detect_wrappers;
        options.conservative_fallback = !options.conservative_fallback;
        let unit = ToAgent::Unit {
            id: 7,
            name: "nginx_7".to_string(),
            path: "/corpus/007_nginx.elf".to_string(),
            want: Want::Bundle,
            elf: (0..=255u8).collect(),
            options: options.clone(),
            trace: None,
        };
        let json = serde_json::to_string(&unit).unwrap();
        assert!(
            !json.contains("trace_"),
            "an untraced unit carries no trace fields: {json}"
        );
        let mut buf = Vec::new();
        write_message(&mut buf, &unit).unwrap();
        let mut reader = std::io::BufReader::new(buf.as_slice());
        match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES)
            .unwrap()
            .expect("one frame")
        {
            ToAgent::Unit {
                id,
                name,
                path,
                want,
                elf,
                options: got,
                trace,
            } => {
                assert_eq!(id, 7);
                assert_eq!(name, "nginx_7");
                assert_eq!(path, "/corpus/007_nginx.elf");
                assert_eq!(want, Want::Bundle);
                assert_eq!(elf, (0..=255u8).collect::<Vec<u8>>());
                assert_eq!(got.detect_wrappers, options.detect_wrappers);
                assert_eq!(got.conservative_fallback, options.conservative_fallback);
                assert_eq!(got.limits, options.limits);
                assert_eq!(trace, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn control_messages_round_trip_via_line_codec() {
        let mut buf = Vec::new();
        write_message(
            &mut buf,
            &ToAgent::Welcome {
                version: PROTOCOL_VERSION,
                heartbeat_interval_ms: 500,
                sealed: false,
            },
        )
        .unwrap();
        write_message(&mut buf, &ToAgent::Shutdown).unwrap();
        write_message(&mut buf, &FromAgent::Heartbeat).unwrap();
        let mut reader = std::io::BufReader::new(buf.as_slice());
        assert!(matches!(
            read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES).unwrap(),
            Some(ToAgent::Welcome {
                version: PROTOCOL_VERSION,
                heartbeat_interval_ms: 500,
                sealed: false,
            })
        ));
        assert!(matches!(
            read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES).unwrap(),
            Some(ToAgent::Shutdown)
        ));
        assert!(matches!(
            read_message_capped::<FromAgent>(&mut reader, MAX_FLEET_LINE_BYTES).unwrap(),
            Some(FromAgent::Heartbeat)
        ));
        assert!(
            read_message_capped::<FromAgent>(&mut reader, MAX_FLEET_LINE_BYTES)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn challenge_and_authenticated_hello_round_trip() {
        let challenge = ToAgent::Challenge {
            nonce: "9f2c".repeat(16),
        };
        let json = serde_json::to_string(&challenge).unwrap();
        match serde_json::from_str::<ToAgent>(&json).unwrap() {
            ToAgent::Challenge { nonce } => assert_eq!(nonce, "9f2c".repeat(16)),
            other => panic!("wrong variant: {other:?}"),
        }

        let mac = crate::auth::hello_mac("s3cret", "nonce", PROTOCOL_VERSION, 4, 1);
        let hello = FromAgent::Hello {
            version: PROTOCOL_VERSION,
            slots: 4,
            cache_format: CACHE_FORMAT_VERSION,
            auth: Some(mac.clone()),
        };
        let json = serde_json::to_string(&hello).unwrap();
        match serde_json::from_str::<FromAgent>(&json).unwrap() {
            FromAgent::Hello { auth, .. } => assert_eq!(auth, Some(mac)),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn sealed_envelope_round_trips_and_unseal_verifies() {
        let key = crate::auth::session_key("s3cret", "nonce");
        let inner = FromAgent::Error {
            id: 7,
            message: "boom".to_string(),
            trace: None,
            spans: Vec::new(),
        };
        let sealed = seal(&key, 3, &inner).expect("seal");
        let json = serde_json::to_string(&sealed).unwrap();
        let (seq, mac, body) = match serde_json::from_str::<FromAgent>(&json).unwrap() {
            FromAgent::Sealed { seq, mac, body } => (seq, mac, body),
            other => panic!("wrong variant: {other:?}"),
        };
        assert_eq!(seq, 3);
        match unseal(&key, seq, &mac, &body).expect("unseal") {
            FromAgent::Error { id, message, .. } => {
                assert_eq!(id, 7);
                assert_eq!(message, "boom");
            }
            other => panic!("wrong inner frame: {other:?}"),
        }

        // A flipped body byte, a wrong sequence number, or a wrong key
        // all fail verification — the injector's three levers.
        let tampered = body.replace("boom", "reek");
        assert!(unseal(&key, seq, &mac, &tampered).is_err(), "tampered body");
        assert!(unseal(&key, seq + 1, &mac, &body).is_err(), "wrong seq");
        let other_key = crate::auth::session_key("s3cret", "other");
        assert!(unseal(&other_key, seq, &mac, &body).is_err(), "wrong key");
    }

    /// Downlink sealing mirrors the uplink, and a reflected envelope is
    /// inert: its MAC verifies (shared key and construction) but the
    /// body parses only as the direction it was sealed in.
    #[test]
    fn downlink_sealed_envelope_round_trips_and_reflection_is_inert() {
        let key = crate::auth::session_key("s3cret", "nonce");
        let sealed = seal_down(&key, 5, &ToAgent::Shutdown).expect("seal");
        let json = serde_json::to_string(&sealed).unwrap();
        let (seq, mac, body) = match serde_json::from_str::<ToAgent>(&json).unwrap() {
            ToAgent::Sealed { seq, mac, body } => (seq, mac, body),
            other => panic!("wrong variant: {other:?}"),
        };
        assert_eq!(seq, 5);
        assert!(matches!(
            unseal_down(&key, seq, &mac, &body).expect("unseal"),
            ToAgent::Shutdown
        ));
        let tampered = body.replace("shutdown", "shutdowm");
        assert!(unseal_down(&key, seq, &mac, &tampered).is_err());
        assert!(unseal_down(&key, seq + 1, &mac, &body).is_err());
        // Reflection: the envelope verifies as an uplink frame too, but
        // `shutdown` is not a FromAgent type, so the unseal still fails.
        assert!(unseal(&key, seq, &mac, &body).is_err(), "reflected frame");
    }

    /// A v1 welcome (no `sealed` field) still parses — the field
    /// defaults to false, keeping hand-rolled test peers simple.
    #[test]
    fn welcome_without_sealed_field_defaults_to_unsealed() {
        let json = "{\"type\":\"welcome\",\"version\":2,\"heartbeat_interval_ms\":250}";
        match serde_json::from_str::<ToAgent>(json).unwrap() {
            ToAgent::Welcome { sealed, .. } => assert!(!sealed),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_and_garbage_are_errors() {
        assert!(serde_json::from_str::<FromAgent>("{\"type\":\"gimme\"}").is_err());
        assert!(serde_json::from_str::<ToAgent>("{\"type\":\"nope\"}").is_err());
        assert!(serde_json::from_str::<FromAgent>("not json").is_err());
        assert!(serde_json::from_str::<ToAgent>(
            "{\"type\":\"unit\",\"id\":1,\"name\":\"x\",\"path\":\"p\",\"want\":\"Analysis\",\
             \"elf\":\"!!!!\",\"options\":{}}"
        )
        .is_err());
    }
}
