//! The client ↔ server wire protocol.
//!
//! Newline-delimited JSON, one message per line, each a single JSON
//! object tagged by a `"type"` field — the framing the fleet's
//! coordinator/agent protocol uses too, through the same line codec
//! ([`read_message`]/[`write_message`] are re-exported from
//! `bside_dist::protocol`). Both message enums are declared once with
//! `serde::impl_serde_tagged_enum!`, which writes each variant's fields
//! in the listed order. The policy payloads are the `bside_filter::wire`
//! serde format, so what a client receives is exactly what a local
//! derivation would serialize.
//!
//! ```text
//! server → client   {"type":"hello","version":5,"generation":7}           (once, on connect)
//! client → server   {"type":"policy","path":"/corpus/000_redis.elf"}
//!                   {"type":"policy_by_key","key":"9f2c…"}
//!                   {"type":"invalidate","key":"9f2c…"}
//!                   {"type":"watch","generation":7}
//!                   {"type":"watch","generation":7,"key":"9f2c…"}
//!                   {"type":"stats"} | {"type":"metrics"} | {"type":"ping"} | {"type":"shutdown"}
//! server → client   {"type":"policy","key":"9f2c…","source":"Store","generation":7,"bundle":{…}}
//!                   {"type":"invalidated","key":"9f2c…","removed":true,"generation":8}
//!                   {"type":"generation","generation":9}                  (watch fires)
//!                   {"type":"stats","stats":{…}} | {"type":"metrics","text":"# TYPE …"}
//!                   {"type":"pong"} | {"type":"shutting_down"}
//!                   {"type":"error","message":"reading /x: No such file…"}
//! ```
//!
//! **Versioning.** The server opens every connection with a `hello`
//! carrying its [`PROTOCOL_VERSION`]; clients refuse a mismatched server
//! instead of mis-parsing replies, exactly as the fleet coordinator
//! refuses mismatched agents. v2 added the generation counter,
//! `invalidate`/`watch`, and the `Coalesced` source; v3 added the
//! degraded-mode fields (`degraded`, `breaker_state`) to the stats
//! snapshot; v4 the `metrics` pair; v5 the optional watch `key`.
//!
//! **Error replies.** A request that cannot be answered (unreadable
//! file, unknown key, analysis failure) produces a `{"type":"error"}`
//! reply on the same connection — the connection survives and the client
//! may keep issuing requests. Only a *malformed line* (non-JSON, unknown
//! `type`, or a request line past [`MAX_REQUEST_LINE_BYTES`]) ends the
//! connection, since framing can no longer be trusted.
//!
//! **Cache observability.** Every policy reply carries `"source"`:
//! `"Store"` when the bundle was served from the content-addressed store
//! without re-analysis, `"Analyzed"` when this request ran the pipeline,
//! `"Coalesced"` when this request blocked on (and shares) a concurrent
//! identical request's analysis — the metadata the round-trip tests (and
//! operators watching hit rates) key on.
//!
//! **Change notification.** Every mutation of the daemon's store bumps a
//! monotonic per-daemon *generation*, surfaced in `hello`, every policy
//! reply, the stats snapshot, and `invalidated` acks. A `watch` request
//! blocks until the store generation exceeds the client's value and then
//! answers `{"type":"generation"}` — push, not polling, for enforcement
//! agents that must learn when a binary was re-analyzed. v5 adds an
//! optional `key` to `watch`: with it the watch fires only when *that
//! store key* is mutated (insert, invalidate, or startup sweep), so an
//! agent enforcing one binary is not woken by every unrelated
//! re-analysis. Absent-field defaults keep both directions compatible:
//! a v5 client's keyless watch is exactly the v2 request, and a v4
//! server ignores the unknown `key` field, degrading a keyed watch to a
//! whole-store one (spurious wakes, never missed ones).

pub use bside_dist::protocol::{read_message, read_message_capped, write_message};
pub use bside_dist::PolicyBundle;

/// Protocol revision; bumped on any incompatible message change.
/// v2: generation counter, `invalidate`/`watch`, `Coalesced` source.
/// v3: degraded-mode accounting (`degraded`, `breaker_state`) in the
/// stats snapshot.
/// v4: the `metrics` request/reply pair — the full telemetry registry
/// in Prometheus text exposition format.
/// v5: optional `key` on `watch` — per-key change subscriptions. A
/// minor, absent-field-default revision: v4 clients speak to a v5
/// server unchanged (see [`OLDEST_COMPATIBLE_VERSION`]).
pub const PROTOCOL_VERSION: u32 = 5;

/// The oldest server protocol revision a current client accepts. v5 is
/// additive over v4 (one optional request field), so a v5 client can
/// speak to a v4 daemon — it just cannot scope its watches per key
/// there (the v4 daemon ignores the extra field and fires on any store
/// mutation: spurious wakes, never missed ones).
pub const OLDEST_COMPATIBLE_VERSION: u32 = 4;

/// Upper bound on one *request* line the server will read (enforced via
/// the workspace-shared [`read_message_capped`] codec, so the cap
/// semantics are identical to the dist and fleet protocols'). Requests
/// carry paths and hex keys — kilobytes at most — so anything past this
/// is a confused or hostile peer; the read fails like any other framing
/// error (in-band error reply, then disconnect) instead of buffering
/// without bound. Replies are not capped: policy bundles are legitimately
/// large.
pub const MAX_REQUEST_LINE_BYTES: u64 = 256 * 1024;

/// Where a policy reply came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the content-addressed store without re-analysis.
    Store,
    /// This request ran the analysis pipeline (and populated the store).
    Analyzed,
    /// This request arrived while an identical cold request was being
    /// analyzed; it blocked on that single flight and shares its result
    /// (no second analysis ran).
    Coalesced,
}

serde::impl_serde_unit_enum!(Source {
    Store,
    Analyzed,
    Coalesced
});

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Requests parsed.
    pub requests: u64,
    /// Policy requests answered from the store.
    pub store_hits: u64,
    /// Policy requests that ran the analysis pipeline.
    pub analyses: u64,
    /// Policy requests that blocked on and shared a concurrent identical
    /// analysis (single-flight followers).
    pub coalesced: u64,
    /// `invalidate` requests that removed an entry.
    pub invalidations: u64,
    /// Binary-file bytes read off disk for policy requests — flat across
    /// store hits for already-keyed paths (the hit path re-reads nothing).
    pub bytes_read: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Connections dropped by a panicking handler (fault isolation).
    pub panics: u64,
    /// Entries currently in the policy store.
    pub store_entries: u64,
    /// The store's generation at snapshot time.
    pub generation: u64,
    /// Policy requests answered by the **local** fallback because the
    /// remote offload failed or its circuit breaker was open — the
    /// degraded-mode gauge operators watch when a fleet goes away.
    pub degraded: u64,
    /// The offload circuit breaker's state at snapshot time: 0 closed,
    /// 1 open, 2 half-open (always 0 without a remote analyzer).
    pub breaker_state: u64,
}

serde::impl_serde_struct!(StatsSnapshot {
    connections,
    requests,
    store_hits,
    analyses,
    coalesced,
    invalidations,
    bytes_read,
    errors,
    panics,
    store_entries,
    generation,
    degraded,
    breaker_state
});

/// Messages a client sends to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The policy for the ELF at `path` (analyze on store miss).
    Policy {
        /// Path of the binary, resolved on the server's filesystem.
        path: String,
    },
    /// The stored policy under a content address (no analysis; an
    /// unknown key is an error reply).
    PolicyByKey {
        /// The `SHA-256(elf bytes ‖ options fingerprint)` store key.
        key: String,
    },
    /// Drop the stored policy under a content address so the next fetch
    /// re-analyzes (e.g. after a binary or library upgrade).
    Invalidate {
        /// The store key to drop.
        key: String,
    },
    /// Block until the store generation exceeds this value, then answer
    /// with the new generation — the push channel for long-lived
    /// enforcement agents.
    Watch {
        /// The generation the client has already observed.
        generation: u64,
        /// v5: scope the watch to one store key — it fires only when
        /// that key is inserted, invalidated, or swept. `None` keeps
        /// the v2 whole-store semantics (any mutation fires).
        key: Option<String>,
    },
    /// The server's counters.
    Stats,
    /// The server's full telemetry registry (counters, gauges, latency
    /// histograms) in Prometheus text exposition format. The legacy
    /// `stats` snapshot is derived from the same registry, so the two
    /// replies can never disagree on a shared counter.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
}

/// Messages the server sends to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Sent once per connection, before any request is answered.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// The store generation at connect time — the anchor for `watch`.
        generation: u64,
    },
    /// A policy lookup succeeded.
    Policy {
        /// The bundle's content address in the store.
        key: String,
        /// Whether the bundle came from the store, this request's
        /// analysis, or a coalesced concurrent analysis.
        source: Source,
        /// The store generation observed when the reply was built.
        generation: u64,
        /// The policy bundle (boxed: it dwarfs the other variants).
        bundle: Box<PolicyBundle>,
    },
    /// An `invalidate` request was processed.
    Invalidated {
        /// The key, echoed back.
        key: String,
        /// `true` when an entry existed and was removed (and the
        /// generation bumped); `false` for an unknown key (no bump).
        removed: bool,
        /// The store generation after the operation.
        generation: u64,
    },
    /// A `watch` fired: the store generation passed the client's value.
    Generation {
        /// The new generation.
        generation: u64,
    },
    /// The server's counters.
    Stats {
        /// The snapshot.
        stats: StatsSnapshot,
    },
    /// The telemetry registry snapshot.
    Metrics {
        /// Prometheus text exposition format, ready to write to a
        /// scrape endpoint or a file.
        text: String,
    },
    /// Liveness answer.
    Pong,
    /// Shutdown acknowledged; the daemon stops accepting connections.
    ShuttingDown,
    /// The request could not be answered; the connection stays open.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

serde::impl_serde_tagged_enum!(Request, tag = "type" {
    Policy = "policy" { path },
    PolicyByKey = "policy_by_key" { key },
    Invalidate = "invalidate" { key },
    // `key` is left out when `None`, so a keyless v5 watch is
    // byte-identical to the v2 request.
    Watch = "watch" { generation, key? },
    Stats = "stats",
    Metrics = "metrics",
    Ping = "ping",
    Shutdown = "shutdown",
});

serde::impl_serde_tagged_enum!(Reply, tag = "type" {
    // `generation` is absent from v1 hellos; defaulting only then lets
    // the client print its version-mismatch message to an old daemon.
    Hello = "hello" { version, generation = 0 },
    Policy = "policy" { key, source, generation, bundle },
    Invalidated = "invalidated" { key, removed, generation },
    Generation = "generation" { generation },
    Stats = "stats" { stats },
    Metrics = "metrics" { text },
    Pong = "pong",
    ShuttingDown = "shutting_down",
    Error = "error" { message },
});

#[cfg(test)]
mod tests {
    use super::*;
    use bside_filter::bpf::BpfProgram;
    use bside_filter::{FilterPolicy, PhasePolicy};
    use bside_syscalls::{SyscallSet, Sysno};

    fn bundle() -> PolicyBundle {
        let allowed: SyscallSet = ["read", "write", "exit_group"]
            .iter()
            .filter_map(|n| Sysno::from_name(n))
            .collect();
        let policy = FilterPolicy::allow_only("demo", allowed);
        let bpf = BpfProgram::from_policy(&policy);
        PolicyBundle {
            binary: "demo".to_string(),
            policy,
            phases: PhasePolicy {
                binary: "demo".to_string(),
                phases: vec![allowed],
                transitions: vec![vec![]],
                initial: 0,
            },
            bpf,
        }
    }

    fn round_trip_request(msg: Request) {
        let json = serde_json::to_string(&msg).expect("serializes");
        let back: Request = serde_json::from_str(&json).expect("parses");
        assert_eq!(msg, back, "{json}");
    }

    fn round_trip_reply(msg: Reply) {
        let json = serde_json::to_string(&msg).expect("serializes");
        let back: Reply = serde_json::from_str(&json).expect("parses");
        assert_eq!(msg, back, "{json}");
    }

    #[test]
    fn every_request_variant_round_trips() {
        round_trip_request(Request::Policy {
            path: "/corpus/000_redis.elf".to_string(),
        });
        round_trip_request(Request::PolicyByKey {
            key: "9f".repeat(32),
        });
        round_trip_request(Request::Invalidate {
            key: "9f".repeat(32),
        });
        round_trip_request(Request::Watch {
            generation: 41,
            key: None,
        });
        round_trip_request(Request::Watch {
            generation: 41,
            key: Some("9f".repeat(32)),
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Ping);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn every_reply_variant_round_trips() {
        round_trip_reply(Reply::Hello {
            version: PROTOCOL_VERSION,
            generation: 12,
        });
        for source in [Source::Store, Source::Analyzed, Source::Coalesced] {
            round_trip_reply(Reply::Policy {
                key: "ab".repeat(32),
                source,
                generation: 3,
                bundle: Box::new(bundle()),
            });
        }
        round_trip_reply(Reply::Invalidated {
            key: "cd".repeat(32),
            removed: true,
            generation: 4,
        });
        round_trip_reply(Reply::Generation { generation: 5 });
        round_trip_reply(Reply::Stats {
            stats: StatsSnapshot {
                connections: 3,
                requests: 14,
                store_hits: 11,
                analyses: 2,
                coalesced: 5,
                invalidations: 1,
                bytes_read: 4096,
                errors: 1,
                panics: 0,
                store_entries: 2,
                generation: 3,
                degraded: 6,
                breaker_state: 1,
            },
        });
        round_trip_reply(Reply::Metrics {
            text: "# TYPE bside_serve_requests_total counter\nbside_serve_requests_total 14\n"
                .to_string(),
        });
        round_trip_reply(Reply::Pong);
        round_trip_reply(Reply::ShuttingDown);
        round_trip_reply(Reply::Error {
            message: "reading /x: No such file or directory".to_string(),
        });
    }

    #[test]
    fn messages_cross_the_line_codec() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Ping).unwrap();
        write_message(&mut buf, &Request::Shutdown).unwrap();
        let mut reader = std::io::BufReader::new(buf.as_slice());
        assert_eq!(
            read_message::<Request>(&mut reader).unwrap(),
            Some(Request::Ping)
        );
        assert_eq!(
            read_message::<Request>(&mut reader).unwrap(),
            Some(Request::Shutdown)
        );
        assert!(read_message::<Request>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn unknown_tags_and_garbage_are_errors() {
        assert!(serde_json::from_str::<Request>("{\"type\":\"gimme\"}").is_err());
        assert!(serde_json::from_str::<Reply>("{\"type\":\"nope\"}").is_err());
        assert!(serde_json::from_str::<Request>("not json").is_err());
        assert!(serde_json::from_str::<Request>("{\"type\":\"policy\"}").is_err());
        assert!(
            serde_json::from_str::<Request>("{\"type\":\"watch\",\"generation\":\"x\"}").is_err()
        );
    }

    #[test]
    fn a_v1_hello_still_reports_its_version() {
        // The generation field is new in v2; a v1 hello must parse far
        // enough for the client to print the version mismatch.
        let hello: Reply = serde_json::from_str("{\"type\":\"hello\",\"version\":1}").unwrap();
        assert_eq!(
            hello,
            Reply::Hello {
                version: 1,
                generation: 0
            }
        );
        // But a *present* malformed generation is a protocol error, not
        // a silent zero a watcher would mis-anchor on.
        assert!(serde_json::from_str::<Reply>(
            "{\"type\":\"hello\",\"version\":2,\"generation\":\"oops\"}"
        )
        .is_err());
    }

    #[test]
    fn watch_key_is_absent_field_compatible_both_ways() {
        // A pre-v5 client's watch (no key field) parses as keyless —
        // whole-store v2 semantics, unchanged.
        let old: Request = serde_json::from_str("{\"type\":\"watch\",\"generation\":7}").unwrap();
        assert_eq!(
            old,
            Request::Watch {
                generation: 7,
                key: None
            }
        );
        // A keyless v5 watch serializes byte-identically to v2 (no
        // `key` field for a v4 server to trip on).
        let json = serde_json::to_string(&Request::Watch {
            generation: 7,
            key: None,
        })
        .unwrap();
        assert!(
            !json.contains("key"),
            "keyless watch must omit the field: {json}"
        );
        // A present-but-malformed key is a protocol error, not a silent
        // whole-store downgrade.
        assert!(
            serde_json::from_str::<Request>("{\"type\":\"watch\",\"generation\":7,\"key\":5}")
                .is_err()
        );
    }

    /// A minimal policy bundle in its exact wire form.
    const BUNDLE: &str = concat!(
        r#"{"binary":"demo","policy":{"binary":"demo","allowed":[0,1]},"#,
        r#""phases":{"binary":"demo","phases":[[0,1]],"transitions":[[]],"initial":0},"#,
        r#""bpf":{"insns":[{"code":6,"jt":0,"jf":0,"k":2147418112}]}}"#
    );

    /// Every message's exact bytes. The round-trip tests above would
    /// pass even if a codec reordered or renamed fields; this pins the
    /// wire itself, in both directions.
    #[test]
    fn every_variant_encodes_to_its_golden_bytes() {
        let bundle: PolicyBundle = serde_json::from_str(BUNDLE).expect("golden bundle parses");
        let requests = [
            (
                Request::Policy {
                    path: "/c/a.elf".to_string(),
                },
                r#"{"type":"policy","path":"/c/a.elf"}"#.to_string(),
            ),
            (
                Request::PolicyByKey {
                    key: "ab".to_string(),
                },
                r#"{"type":"policy_by_key","key":"ab"}"#.to_string(),
            ),
            (
                Request::Invalidate {
                    key: "ab".to_string(),
                },
                r#"{"type":"invalidate","key":"ab"}"#.to_string(),
            ),
            (
                Request::Watch {
                    generation: 7,
                    key: None,
                },
                r#"{"type":"watch","generation":7}"#.to_string(),
            ),
            (
                Request::Watch {
                    generation: 7,
                    key: Some("ab".to_string()),
                },
                r#"{"type":"watch","generation":7,"key":"ab"}"#.to_string(),
            ),
            (Request::Stats, r#"{"type":"stats"}"#.to_string()),
            (Request::Metrics, r#"{"type":"metrics"}"#.to_string()),
            (Request::Ping, r#"{"type":"ping"}"#.to_string()),
            (Request::Shutdown, r#"{"type":"shutdown"}"#.to_string()),
        ];
        for (msg, golden) in requests {
            assert_eq!(serde_json::to_string(&msg).unwrap(), golden);
            assert_eq!(serde_json::from_str::<Request>(&golden).unwrap(), msg);
        }

        let replies = [
            (
                Reply::Hello {
                    version: 5,
                    generation: 12,
                },
                r#"{"type":"hello","version":5,"generation":12}"#.to_string(),
            ),
            (
                Reply::Policy {
                    key: "ab".to_string(),
                    source: Source::Coalesced,
                    generation: 3,
                    bundle: Box::new(bundle),
                },
                format!(
                    r#"{{"type":"policy","key":"ab","source":"Coalesced","generation":3,"bundle":{BUNDLE}}}"#
                ),
            ),
            (
                Reply::Invalidated {
                    key: "ab".to_string(),
                    removed: true,
                    generation: 4,
                },
                r#"{"type":"invalidated","key":"ab","removed":true,"generation":4}"#.to_string(),
            ),
            (
                Reply::Generation { generation: 5 },
                r#"{"type":"generation","generation":5}"#.to_string(),
            ),
            (
                Reply::Stats {
                    stats: StatsSnapshot {
                        connections: 1,
                        requests: 2,
                        store_hits: 3,
                        analyses: 4,
                        coalesced: 5,
                        invalidations: 6,
                        bytes_read: 7,
                        errors: 8,
                        panics: 9,
                        store_entries: 10,
                        generation: 11,
                        degraded: 12,
                        breaker_state: 1,
                    },
                },
                concat!(
                    r#"{"type":"stats","stats":{"connections":1,"requests":2,"store_hits":3,"#,
                    r#""analyses":4,"coalesced":5,"invalidations":6,"bytes_read":7,"errors":8,"#,
                    r#""panics":9,"store_entries":10,"generation":11,"degraded":12,"#,
                    r#""breaker_state":1}}"#
                )
                .to_string(),
            ),
            (
                Reply::Metrics {
                    text: "up 1\n".to_string(),
                },
                r#"{"type":"metrics","text":"up 1\n"}"#.to_string(),
            ),
            (Reply::Pong, r#"{"type":"pong"}"#.to_string()),
            (
                Reply::ShuttingDown,
                r#"{"type":"shutting_down"}"#.to_string(),
            ),
            (
                Reply::Error {
                    message: "no such key".to_string(),
                },
                r#"{"type":"error","message":"no such key"}"#.to_string(),
            ),
        ];
        for (msg, golden) in replies {
            assert_eq!(serde_json::to_string(&msg).unwrap(), golden);
            assert_eq!(serde_json::from_str::<Reply>(&golden).unwrap(), msg);
        }

        // Legacy input: a v1 hello has no generation.
        assert_eq!(
            serde_json::from_str::<Reply>(r#"{"type":"hello","version":1}"#).unwrap(),
            Reply::Hello {
                version: 1,
                generation: 0
            }
        );
    }

    #[test]
    fn capped_reader_accepts_normal_lines_and_rejects_oversized_ones() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Ping).unwrap();
        let mut reader = std::io::BufReader::new(buf.as_slice());
        assert_eq!(
            read_message_capped::<Request>(&mut reader, MAX_REQUEST_LINE_BYTES).unwrap(),
            Some(Request::Ping)
        );
        assert!(
            read_message_capped::<Request>(&mut reader, MAX_REQUEST_LINE_BYTES)
                .unwrap()
                .is_none()
        );

        // A line that never ends within the cap is a framing error, and
        // the error arrives without buffering the whole line.
        let huge = vec![b'a'; 64];
        let mut reader = std::io::BufReader::new(huge.as_slice());
        let err = read_message_capped::<Request>(&mut reader, 16).expect_err("oversized");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "got: {err}");

        // Empty lines are still skipped, exactly like the uncapped codec.
        let mut reader = std::io::BufReader::new(&b"\n\n{\"type\":\"ping\"}\n"[..]);
        assert_eq!(
            read_message_capped::<Request>(&mut reader, MAX_REQUEST_LINE_BYTES).unwrap(),
            Some(Request::Ping)
        );
    }
}
