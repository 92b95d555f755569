//! # `bside-serve`: the policy-distribution service
//!
//! The paper's end product is a seccomp policy per binary; its
//! deployment story (§1, §4.7) assumes something hands that policy to
//! the enforcement point — exactly the middleware gap container runtimes
//! hit at pod launch. This crate turns the analyzer into that always-on
//! layer: a long-running daemon that answers *"give me the seccomp
//! policy for this binary"* over a socket.
//!
//! * a **content-addressed policy store** ([`store`]) keyed by the
//!   `bside_dist::cache` SHA-256 scheme (elf bytes ‖ options
//!   fingerprint, extended with a library-set fingerprint for dynamic
//!   binaries), holding [`PolicyBundle`]s — allow-list, phase policy
//!   and lowered classic-BPF program — in memory and optionally on
//!   disk, with a monotonic **generation counter** bumped by every
//!   mutation;
//! * a versioned **NDJSON request/response protocol** ([`protocol`])
//!   over Unix-domain or TCP sockets ([`net`], from `bside-dist`), with
//!   explicit framing, in-band error replies, and push-style `watch`
//!   notification — since v5 optionally **per key**: a keyed watch
//!   fires only when *its* store entry is mutated;
//! * a **readiness-loop server** ([`server`]): one event-loop thread
//!   multiplexes every connection over the vendored `poll(2)` shim
//!   (the `shims/poll` workspace crate), answers memory-resident store
//!   hits and `watch` itself from bytes the store encoded once, and
//!   dispatches the rest to a small worker pool — idle and
//!   watch-parked connections cost no thread, so a two-thread daemon
//!   holds thousands of open watches —
//!   with graceful shutdown, per-connection panic isolation, and
//!   **single-flight** analyze-on-miss (the `flight` table): N
//!   concurrent cold requests for the same binary run exactly one
//!   analysis, the rest block and share the result
//!   (`source: "Coalesced"`);
//! * **dynamic binaries**: with [`ServeOptions::library_dir`] pointing
//!   at a directory of `§4.5` shared-interface JSONs, `DT_NEEDED`
//!   binaries are derived through [`bside_core::LibraryStore`] instead
//!   of being refused;
//! * a **client library** ([`client`]) the `bside serve` / `bside
//!   policy` CLI subcommands and embedding enforcement agents use,
//!   including [`PolicyClient::wait_for_generation`] for watchers.
//!
//! # Example
//!
//! ```no_run
//! use bside_serve::{Endpoint, PolicyClient, PolicyServer, ServeOptions};
//!
//! let endpoint = Endpoint::parse("/run/bside.sock");
//! let server = PolicyServer::spawn(&endpoint, ServeOptions::default())?;
//! let mut client = PolicyClient::connect(server.endpoint())?;
//! let fetch = client.fetch_path("/usr/bin/redis-server").expect("policy");
//! println!("{} syscalls allowed", fetch.bundle.policy.allowed.len());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod client;
pub(crate) mod flight;
pub mod protocol;
pub(crate) mod readiness;
pub mod server;
pub mod store;

pub use breaker::{BreakerState, CircuitBreaker};
pub use bside_dist::net;
pub use bside_dist::{derive_bundle, derive_bundle_parsed, RemoteAnalyzer};
pub use client::{PolicyClient, PolicyFetch, ServeError};
pub use net::{Conn, Endpoint};
pub use protocol::{PolicyBundle, Reply, Request, Source, StatsSnapshot, PROTOCOL_VERSION};
pub use server::{PolicyServer, ServeOptions, ServerHandle};
pub use store::{library_fingerprint, PolicyStore};

/// The display name a path's policy is derived under: the file stem
/// (matching the corpus unit-naming convention), falling back to the
/// whole path when there is none.
pub fn binary_name(path: &std::path::Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_name_uses_the_file_stem() {
        assert_eq!(
            binary_name(std::path::Path::new("/corpus/0003_redis.elf")),
            "0003_redis"
        );
        assert_eq!(binary_name(std::path::Path::new("plain")), "plain");
    }
}
