//! The coordinator ↔ agent wire protocol.
//!
//! Newline-delimited JSON over a [`bside_dist::net::Conn`] (TCP between
//! machines, a Unix socket for local agents), one message per line,
//! each a single JSON object tagged by a `"type"` field — the exact
//! framing the serve protocol uses, through the same shared codec
//! ([`read_message_capped`]/[`write_message`] re-exported from
//! `bside_dist::protocol`), so framing errors and the line cap behave
//! identically in both. Both frame enums are declared once with
//! `serde::impl_serde_tagged_enum!`; only the base64 `elf` field and the
//! lenient trace and span fields bring their own field codecs.
//!
//! ```text
//! coordinator → agent   {"type":"challenge","nonce":"9f2c…"}
//! agent → coordinator   {"type":"hello","version":2,"slots":2,"cache_format":2,
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
//! The in-band bytes cost codec time on both ends. A median static unit
//! is a ~12.8 KB sealed unit line plus a ~2.1 KB sealed result line; its
//! two frames took about 230 µs to encode and 165 µs to decode while the
//! JSON strings and the base64 went one byte at a time (median of four
//! traced `fleet_tcp` pairs, seed 1, one pinned CPU of a 2-vCPU VM). With
//! strings scanned eight bytes at a time, integers built in place and
//! table-driven base64 they take about 75 and 85 µs. Sealing, i.e. the
//! MAC of both bodies on each end, took about 2 × 110 µs on the portable
//! SHA-256 and was then the largest share; on the CPU's SHA extensions,
//! which the `sha2` shim uses where it finds them, it takes about
//! 2 × 15 µs (traced `fleet_tcp`, seed 1). Since the codec writes text
//! straight from the frame types and reads it straight into them, with
//! no `serde::Value` tree between, encode reads about 41–68 µs (was
//! 62–98 in the same runs) and decode about 46–73 µs (was 69–105; three
//! traced pairs, seed 1). Most of what is left is the base64 of the ELF
//! and the escaping of the sealed unit body. Raw-byte attachments would
//! drop the base64 and the escaping of the sealed body, but they wait
//! for a change to the benchmark: its fleet probe builds
//! `ToAgent::Sealed { body: String }` and calls `frame_mac(.., &str)`.
//!
//! **Heartbeats are the liveness channel.** A dedicated agent thread
//! sends `heartbeat` at the cadence the `welcome` prescribes; the
//! coordinator reads with a socket timeout a few beats wide, so an agent
//! that goes silent (killed, partitioned, wedged) is detected without
//! any out-of-band probe and its in-flight units are requeued.

use bside_core::{AnalyzerOptions, BinaryAnalysis};
use bside_dist::PolicyBundle;
use bside_obs::{SpanRecord, TraceContext};
use serde::de::{self, FieldCodec, MapAccess, Visitor};
use serde::ser::SerializeMap;

use bside_dist::protocol::{SpansCodec, TraceCodec};

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

serde::impl_serde_tagged_enum!(ToAgent, tag = "type" {
    Challenge = "challenge" { nonce },
    // `sealed` is absent from v1 welcomes: an unsealed session.
    Welcome = "welcome" { version, heartbeat_interval_ms, sealed = false },
    Reject = "reject" { message },
    Unit = "unit" {
        id,
        name,
        path,
        want,
        elf with ElfCodec,
        options,
        trace with TraceCodec,
    },
    Shutdown = "shutdown",
    Sealed = "sealed" { seq, mac, body },
});

serde::impl_serde_tagged_enum!(FromAgent, tag = "type" {
    // `auth` is left out on open fleets.
    Hello = "hello" { version, slots, cache_format, auth? },
    Heartbeat = "heartbeat",
    Result = "result" {
        id,
        analysis,
        trace with TraceCodec,
        spans with SpansCodec,
    },
    Bundle = "bundle" {
        id,
        bundle,
        trace with TraceCodec,
        spans with SpansCodec,
    },
    Error = "error" {
        id,
        message,
        trace with TraceCodec,
        spans with SpansCodec,
    },
    Sealed = "sealed" { seq, mac, body },
});

/// The field codec of a unit's ELF image: one base64 string, decoded
/// straight from the frame's text.
#[derive(Default)]
struct ElfCodec(Option<Result<Vec<u8>, String>>);

/// A base64 string as the bytes it encodes; a malformed one as the
/// decoder's message.
struct Base64Visitor;

impl<'de> Visitor<'de> for Base64Visitor {
    type Value = Result<Vec<u8>, String>;

    fn expecting(&self) -> &str {
        "string"
    }

    fn visit_str<E: de::Error>(self, v: &str) -> Result<Self::Value, E> {
        Ok(base64_decode(v))
    }
}

impl FieldCodec for ElfCodec {
    type Value = Vec<u8>;

    fn key_index(key: &str) -> Option<u8> {
        (key == "elf").then_some(0)
    }

    fn write<M: SerializeMap>(elf: &Vec<u8>, map: &mut M) -> Result<(), M::Error> {
        map.serialize_entry("elf", &base64_encode(elf))
    }

    fn read<'de, A: MapAccess<'de>>(&mut self, _: u8, map: &mut A) -> Result<(), A::Error> {
        if self.0.is_some() {
            return map.skip_value();
        }
        let elf = map.next_value_with(Base64Visitor);
        self.0 = Some(elf.unwrap_or_else(|e| Err(e.to_string())));
        Ok(())
    }

    fn finish<E: de::Error>(self) -> Result<Vec<u8>, E> {
        match self.0 {
            None => Err(E::custom("missing field `elf`")),
            Some(elf) => elf.map_err(|e| E::custom(format!("field `elf`: {e}"))),
        }
    }
}

/// Seals an agent frame for a secured session: serializes it, MACs the
/// serialization under the session key at `seq`, and wraps both in a
/// [`FromAgent::Sealed`] envelope.
pub fn seal(session_key: &[u8], seq: u64, frame: &FromAgent) -> std::io::Result<FromAgent> {
    let (mac, body) = seal_body(session_key, seq, frame)?;
    Ok(FromAgent::Sealed { seq, mac, body })
}

/// Verifies a sealed envelope's MAC and deserializes the inner frame.
/// The caller enforces the strictly-increasing sequence policy; this
/// only answers "was this body really sealed at this number under this
/// key".
pub fn unseal(session_key: &[u8], seq: u64, mac: &str, body: &str) -> Result<FromAgent, String> {
    unseal_body(session_key, seq, mac, body)
}

/// [`seal`] for the downlink: wraps a coordinator frame in a
/// [`ToAgent::Sealed`] envelope. Both directions share one session key
/// and one MAC construction; reflecting a sealed frame back across the
/// link is inert because the two frame namespaces are disjoint — a
/// reflected body fails to parse as the other direction's type.
pub fn seal_down(session_key: &[u8], seq: u64, frame: &ToAgent) -> std::io::Result<ToAgent> {
    let (mac, body) = seal_body(session_key, seq, frame)?;
    Ok(ToAgent::Sealed { seq, mac, body })
}

/// [`unseal`] for the downlink: verifies and unwraps a
/// [`ToAgent::Sealed`] envelope.
pub fn unseal_down(session_key: &[u8], seq: u64, mac: &str, body: &str) -> Result<ToAgent, String> {
    unseal_body(session_key, seq, mac, body)
}

/// A frame's serialization and its MAC at `seq` — the `(mac, body)` of
/// either direction's `Sealed` envelope.
fn seal_body<T: serde::Serialize>(
    session_key: &[u8],
    seq: u64,
    frame: &T,
) -> std::io::Result<(String, String)> {
    let body = serde_json::to_string(frame)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((crate::auth::frame_mac(session_key, seq, &body), body))
}

fn unseal_body<T: for<'de> serde::Deserialize<'de>>(
    session_key: &[u8],
    seq: u64,
    mac: &str,
    body: &str,
) -> Result<T, String> {
    if !crate::auth::mac_matches(&crate::auth::frame_mac(session_key, seq, body), mac) {
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

/// Marks a byte outside the alphabet in [`B64_VALUES`]; its top bit is
/// set, which no sextet's is.
const B64_INVALID: u8 = 0xff;

/// The alphabet reversed: each byte's sextet, or [`B64_INVALID`] (`=`
/// included).
const B64_VALUES: [u8; 256] = {
    let mut table = [B64_INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[B64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The four alphabet bytes of a 24-bit group.
fn b64_quad(group: u32) -> [u8; 4] {
    [18, 12, 6, 0].map(|shift| B64_ALPHABET[(group >> shift) as usize & 0x3f])
}

/// Standard base64 with padding.
pub fn base64_encode(bytes: &[u8]) -> String {
    let mut out = vec![b'='; bytes.len().div_ceil(3) * 4];
    let mut triples = bytes.chunks_exact(3);
    let mut quads = out.chunks_exact_mut(4);
    for (t, quad) in (&mut triples).zip(&mut quads) {
        let group = u32::from(t[0]) << 16 | u32::from(t[1]) << 8 | u32::from(t[2]);
        quad.copy_from_slice(&b64_quad(group));
    }
    if let Some(quad) = quads.next() {
        // One or two bytes left: two or three characters, then `=`.
        let tail = triples.remainder();
        let next = tail.get(1).map_or(0, |&b| u32::from(b) << 8);
        let group = u32::from(tail[0]) << 16 | next;
        quad[..=tail.len()].copy_from_slice(&b64_quad(group)[..=tail.len()]);
    }
    String::from_utf8(out).expect("base64 is ASCII")
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
    let quads = bytes.len() / 4;
    let mut out = vec![0; quads * 3];
    let mut len = out.len();
    for (i, (quad, triple)) in bytes
        .chunks_exact(4)
        .zip(out.chunks_exact_mut(3))
        .enumerate()
    {
        let sextets = [0, 1, 2, 3].map(|k| B64_VALUES[usize::from(quad[k])]);
        let group = if sextets.iter().fold(0, |any, &v| any | v) & 0x80 == 0 {
            sextets.iter().fold(0u32, |g, &v| g << 6 | u32::from(v))
        } else {
            let (group, pad) = decode_padded_quad(quad, i + 1 == quads)?;
            len -= pad;
            group
        };
        triple.copy_from_slice(&group.to_be_bytes()[1..]);
    }
    out.truncate(len);
    Ok(out)
}

/// A quad holding `=` or a byte outside the alphabet: padding is one or
/// two `=` at the end of the last quad, and anything else is an error.
/// Returns the 24-bit group and the number of padding bytes.
fn decode_padded_quad(quad: &[u8], last: bool) -> Result<(u32, usize), String> {
    let pad = quad.iter().filter(|&&c| c == b'=').count();
    if pad > 2 || (!last && pad > 0) || quad[..4 - pad].contains(&b'=') {
        return Err("misplaced base64 padding".to_string());
    }
    let mut group = 0u32;
    for &c in &quad[..4 - pad] {
        match B64_VALUES[usize::from(c)] {
            B64_INVALID => return Err(format!("invalid base64 byte {c:#04x}")),
            v => group = group << 6 | u32::from(v),
        }
    }
    Ok((group << (6 * pad), pad))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference decoder, one byte at a time: the expected result and
    /// error message of every input.
    fn decode_bytewise(s: &str) -> Result<Vec<u8>, String> {
        let value = |c: u8| match c {
            b'A'..=b'Z' => Ok((c - b'A') as u32),
            b'a'..=b'z' => Ok((c - b'a') as u32 + 26),
            b'0'..=b'9' => Ok((c - b'0') as u32 + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            other => Err(format!("invalid base64 byte {other:#04x}")),
        };
        let bytes = s.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(format!(
                "base64 length {} is not a multiple of 4",
                bytes.len()
            ));
        }
        let mut out = Vec::new();
        for (i, quad) in bytes.chunks_exact(4).enumerate() {
            let last = i == bytes.len() / 4 - 1;
            let pad = quad.iter().filter(|&&c| c == b'=').count();
            if pad > 2 || (!last && pad > 0) || quad[..4 - pad].contains(&b'=') {
                return Err("misplaced base64 padding".to_string());
            }
            let mut triple = 0u32;
            for &c in &quad[..4 - pad] {
                triple = (triple << 6) | value(c)?;
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
        for len in (0..=130usize).chain([4096]) {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let encoded = base64_encode(&data);
            assert_eq!(encoded.len(), len.div_ceil(3) * 4, "len {len}");
            assert_eq!(decode_bytewise(&encoded).as_ref(), Ok(&data), "len {len}");
            assert_eq!(base64_decode(&encoded), Ok(data), "len {len}");
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

    /// Twelve bytes of valid base64 with a byte or two changed: a bad byte
    /// or a stray `=` in the first, middle or last quad must fail exactly
    /// as in the bytewise decoder. Bytes from 0x80 up can only arrive inside a
    /// multi-byte character, which is put at every offset too.
    #[test]
    fn base64_rejects_every_invalid_byte_and_misplaced_pad_in_every_quad() {
        let valid = base64_encode(b"any 9 byte");
        assert_eq!(valid.len(), 16);
        let valid = &valid[..12];
        let check = |text: String, allowed: bool| {
            let got = base64_decode(&text);
            assert_eq!(got, decode_bytewise(&text), "{text:?}");
            assert_eq!(got.is_ok(), allowed, "{text:?}");
        };
        for at in 0..12 {
            for byte in (0..0x80u8).filter(|b| !B64_ALPHABET.contains(b)) {
                let mut text = valid.to_string();
                text.replace_range(at..=at, char::from(byte).encode_utf8(&mut [0; 4]));
                // `=` is padding only as the last byte of the last quad.
                check(text, byte == b'=' && at == 11);
            }
            for c in ['é', '中', '𝄞']
                .into_iter()
                .filter(|c| at + c.len_utf8() <= 12)
            {
                let mut text = valid.to_string();
                text.replace_range(at..at + c.len_utf8(), c.encode_utf8(&mut [0; 4]));
                check(text, false);
            }
            for second in at + 1..12 {
                let mut text = valid.as_bytes().to_vec();
                text[at] = b'=';
                text[second] = b'=';
                check(String::from_utf8(text).unwrap(), (at, second) == (10, 11));
            }
        }
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

    /// Analyzer options in their exact wire form.
    const OPTIONS: &str = concat!(
        r#"{"cfg":{"indirect":"ActiveAddressTaken"},"limits":{"max_backward_nodes":4096,"#,
        r#""max_forward_paths":4096,"max_path_blocks":512,"max_total_blocks":200000,"#,
        r#""undirected":false},"detect_wrappers":true,"conservative_fallback":true,"#,
        r#""parallelism":1}"#
    );

    /// A small analysis in its exact wire form: one site, one wrapper.
    const ANALYSIS: &str = concat!(
        r#"{"syscalls":[0,1],"sites":[{"site":4096,"function":"main","syscalls":[0,1],"#,
        r#""outcome":"ViaWrapper"}],"wrappers":[{"entry":8192,"name":"sc","sites":[8200],"#,
        r#""param":{"StackSlot":8}}],"precise":true,"stats":{"timings":{"#,
        r#""cfg_recovery":{"secs":0,"nanos":1},"wrapper_identification":{"secs":0,"nanos":2},"#,
        r#""syscall_identification":{"secs":0,"nanos":3},"total":{"secs":1,"nanos":4}},"#,
        r#""cfg":{"blocks":5,"instructions":6,"ataken_iterations":7,"addresses_taken":8},"#,
        r#""sites":1,"blocks_explored":9,"peak_rss_bytes":null}}"#
    );

    /// A minimal policy bundle in its exact wire form.
    const BUNDLE: &str = concat!(
        r#"{"binary":"demo","policy":{"binary":"demo","allowed":[0,1]},"#,
        r#""phases":{"binary":"demo","phases":[[0,1]],"transitions":[[]],"initial":0},"#,
        r#""bpf":{"insns":[{"code":6,"jt":0,"jf":0,"k":2147418112}]}}"#
    );

    const TRACE: &str = r#""trace_run":21,"trace_unit":9,"trace_span":33"#;

    const SPANS: &str = concat!(
        r#""spans":[{"name":"analyze","id":21,"parent":13,"run_id":11,"unit_id":7,"#,
        r#""start_us":100,"dur_us":50,"tid":1}]"#
    );

    /// Every frame's exact bytes, in both directions. The round-trip
    /// tests above would pass even if a codec reordered or renamed
    /// fields; these literals pin the wire itself. Neither frame type
    /// implements `PartialEq`, so each golden line is checked by
    /// encoding the value and by re-encoding what the line decodes to.
    #[test]
    fn every_variant_encodes_to_its_golden_bytes() {
        let trace = Some(TraceContext {
            run_id: 21,
            unit_id: 9,
            span_id: 33,
        });
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
        let options: AnalyzerOptions = serde_json::from_str(OPTIONS).unwrap();
        let unit = |trace| ToAgent::Unit {
            id: 9,
            name: "grep_9".to_string(),
            path: "/c/9.elf".to_string(),
            want: Want::Bundle,
            elf: b"\x7fELF".to_vec(),
            options: options.clone(),
            trace,
        };
        let down = [
            (
                ToAgent::Challenge {
                    nonce: "9f2c".to_string(),
                },
                r#"{"type":"challenge","nonce":"9f2c"}"#.to_string(),
            ),
            (
                ToAgent::Welcome {
                    version: 2,
                    heartbeat_interval_ms: 250,
                    sealed: true,
                },
                r#"{"type":"welcome","version":2,"heartbeat_interval_ms":250,"sealed":true}"#
                    .to_string(),
            ),
            (
                ToAgent::Reject {
                    message: "bad".to_string(),
                },
                r#"{"type":"reject","message":"bad"}"#.to_string(),
            ),
            (
                unit(None),
                format!(
                    r#"{{"type":"unit","id":9,"name":"grep_9","path":"/c/9.elf","want":"Bundle","elf":"f0VMRg==","options":{OPTIONS}}}"#
                ),
            ),
            (
                unit(trace),
                format!(
                    r#"{{"type":"unit","id":9,"name":"grep_9","path":"/c/9.elf","want":"Bundle","elf":"f0VMRg==","options":{OPTIONS},{TRACE}}}"#
                ),
            ),
            (ToAgent::Shutdown, r#"{"type":"shutdown"}"#.to_string()),
            (
                ToAgent::Sealed {
                    seq: 3,
                    mac: "5bdc".to_string(),
                    body: r#"{"type":"shutdown"}"#.to_string(),
                },
                r#"{"type":"sealed","seq":3,"mac":"5bdc","body":"{\"type\":\"shutdown\"}"}"#
                    .to_string(),
            ),
        ];
        for (msg, golden) in down {
            assert_eq!(serde_json::to_string(&msg).unwrap(), golden);
            let back: ToAgent = serde_json::from_str(&golden).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), golden);
        }

        let analysis = || Box::new(serde_json::from_str::<BinaryAnalysis>(ANALYSIS).unwrap());
        let bundle: PolicyBundle = serde_json::from_str(BUNDLE).unwrap();
        let up = [
            (
                FromAgent::Hello {
                    version: 2,
                    slots: 4,
                    cache_format: 2,
                    auth: None,
                },
                r#"{"type":"hello","version":2,"slots":4,"cache_format":2}"#.to_string(),
            ),
            (
                FromAgent::Hello {
                    version: 2,
                    slots: 4,
                    cache_format: 2,
                    auth: Some("b034".to_string()),
                },
                r#"{"type":"hello","version":2,"slots":4,"cache_format":2,"auth":"b034"}"#
                    .to_string(),
            ),
            (FromAgent::Heartbeat, r#"{"type":"heartbeat"}"#.to_string()),
            (
                FromAgent::Result {
                    id: 7,
                    analysis: analysis(),
                    trace: None,
                    spans: Vec::new(),
                },
                format!(r#"{{"type":"result","id":7,"analysis":{ANALYSIS}}}"#),
            ),
            (
                FromAgent::Result {
                    id: 7,
                    analysis: analysis(),
                    trace,
                    spans: spans.clone(),
                },
                format!(r#"{{"type":"result","id":7,"analysis":{ANALYSIS},{TRACE},{SPANS}}}"#),
            ),
            (
                FromAgent::Bundle {
                    id: 8,
                    bundle: Box::new(bundle),
                    trace,
                    spans: Vec::new(),
                },
                format!(r#"{{"type":"bundle","id":8,"bundle":{BUNDLE},{TRACE}}}"#),
            ),
            (
                FromAgent::Error {
                    id: 9,
                    message: "boom".to_string(),
                    trace: None,
                    spans,
                },
                format!(r#"{{"type":"error","id":9,"message":"boom",{SPANS}}}"#),
            ),
            (
                FromAgent::Sealed {
                    seq: 4,
                    mac: "5bdc".to_string(),
                    body: r#"{"type":"heartbeat"}"#.to_string(),
                },
                r#"{"type":"sealed","seq":4,"mac":"5bdc","body":"{\"type\":\"heartbeat\"}"}"#
                    .to_string(),
            ),
        ];
        for (msg, golden) in up {
            assert_eq!(serde_json::to_string(&msg).unwrap(), golden);
            let back: FromAgent = serde_json::from_str(&golden).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), golden);
        }

        // Legacy input: a welcome without `sealed` is an unsealed one.
        let old: ToAgent =
            serde_json::from_str(r#"{"type":"welcome","version":2,"heartbeat_interval_ms":250}"#)
                .unwrap();
        assert_eq!(
            serde_json::to_string(&old).unwrap(),
            r#"{"type":"welcome","version":2,"heartbeat_interval_ms":250,"sealed":false}"#
        );
    }

    /// 2^32 + 2 must not wrap to 2: a wrapped version and cache format
    /// would pass both handshake gates on an open fleet.
    #[test]
    fn out_of_range_handshake_integers_are_rejected_not_truncated() {
        let hello = r#"{"type":"hello","version":4294967298,"slots":1,"cache_format":4294967298}"#;
        assert!(serde_json::from_str::<FromAgent>(hello).is_err());
        let hello = r#"{"type":"hello","version":2,"slots":1,"cache_format":4294967298}"#;
        assert!(serde_json::from_str::<FromAgent>(hello).is_err());
        let welcome = r#"{"type":"welcome","version":4294967298,"heartbeat_interval_ms":250}"#;
        assert!(serde_json::from_str::<ToAgent>(welcome).is_err());
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
