//! The policy-distribution daemon: a readiness event loop, a worker
//! pool, request handlers, graceful shutdown.
//!
//! Concurrency model: **one event-loop thread** owns the (nonblocking)
//! listener and every accepted connection, multiplexing them through the
//! vendored `poll(2)` shim (`shims/poll`, wrapped by `readiness`). The
//! loop does all socket I/O — accepting, frame assembly into a per-
//! connection read buffer, and draining write buffers when a socket
//! backs up — and parses each complete NDJSON request line once. It
//! answers what memory alone can answer:
//!
//! * `policy_by_key` when the entry is in the store's memory;
//! * `policy` when the path hits the `(len, mtime)` memo (one `stat`,
//!   no read) and the memoized key's entry is in memory;
//! * `watch` — validation, subscription and parking.
//!
//! A store hit's reply is spliced from the bytes the store encoded once
//! at insert, so it costs neither a serialization nor a thread hand-off.
//! Everything else — reading a binary, promoting a disk entry, analysis,
//! invalidation, listing the store — goes to one of
//! [`ServeOptions::threads`] **worker threads**, so a slow analysis
//! never blocks accepting, reading, or any other connection's replies,
//! store hits included. The rule that keeps the loop fast is no disk
//! I/O on the loop beyond the memo's `stat`; it needs no size bound,
//! since the loop copies every worker's reply into the write buffer
//! anyway. Workers hand serialized reply bytes back through a completion
//! queue and ring a wake pipe; the loop writes them out. Per-connection
//! isolation mirrors the dist coordinator's per-process isolation one
//! level down: a panicking handler, on a worker or on the loop, is
//! caught, counted, and costs exactly its own connection — the daemon
//! and every other client keep going.
//!
//! A connection is therefore in one of three phases: **idle** (the loop
//! is assembling and answering its request lines; an idle connection
//! past [`ServeOptions::read_timeout`] with no progress is expired),
//! **busy** (exactly one request executing on a worker; pipelined bytes
//! accumulate in the read buffer, bounded by backpressure), or
//! **parked** (a `watch` waiting for a store mutation — see below). Both
//! directions are bounded: the loop stops answering a connection whose
//! unsent replies pass [`WBUF_HIGH_WATER`], and stops reading one whose
//! read buffer is full, so a client that pipelines without reading is
//! held by flow control instead of growing the daemon's buffers.
//! Idle and parked connections cost no worker thread and no syscalls
//! until their socket or subscription becomes ready, which is what lets
//! a two-thread daemon hold thousands of open watches.
//!
//! The analyze-on-miss path is **single-flight** (`flight`): concurrent
//! cold requests for one store key run exactly one analysis; followers
//! block on the leader and share its result (`Source::Coalesced`). A
//! panicking leader fails its followers with an in-band error instead of
//! hanging them. Repeat requests for an unchanged path skip even the
//! file read: a `(len, mtime) → key` memo resolves the store key without
//! touching the payload, so the hit path reads the binary exactly once
//! over its lifetime (observable via the `bytes_read` counter).
//!
//! `watch` is **event-driven and per-key** (protocol v5): a watch that
//! must wait becomes a [`PolicyStore::subscribe`] entry — keyed watches
//! fire only when *their* store key is mutated; keyless watches keep
//! the v2 whole-store semantics. The store's mutation path moves fired
//! subscriptions onto a list and rings the loop's wake pipe, and the
//! loop writes the `generation` reply on its next turn — wake-to-reply
//! latency is one loop iteration, not a polling slice (the pre-v5
//! watcher thread polled at 100 ms). A parked watch costs one map entry
//! and one fd; the cap is [`MAX_PARKED_WATCHES`], a memory bound, not a
//! pool bound. A client that sends bytes mid-watch is breaking the
//! protocol and is disconnected; a client that hangs up releases its
//! slot on the loop's next readiness pass (the kernel reports the
//! hangup — no probing).
//!
//! Shutdown is cooperative, deterministic, and complete: an in-band
//! `shutdown` request (or [`ServerHandle::shutdown`]) sets a flag and
//! rings the wake pipe. The loop closes the listener (unlinking a Unix
//! socket file), fails every parked watch in band, closes idle
//! connections, and drops the job channel; workers drain the queue and
//! exit while the loop finishes writing the replies of in-flight
//! requests. No sleeps anywhere — every hand-off is a channel, a wake
//! byte, or a join. [`ServerHandle::join`] returns only after every
//! thread has exited.

use crate::breaker::CircuitBreaker;
use crate::flight::{FlightTable, Ticket};
use crate::net::{cleanup, is_would_block, Conn, Endpoint, Listener};
use crate::protocol::{
    write_message, Reply, Request, Source, StatsSnapshot, MAX_REQUEST_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::readiness::{PollSet, WakePipe, Waker};
use crate::store::{library_fingerprint, PolicyStore, StoredBundle, Subscribed};
use crate::{binary_name, derive_bundle, derive_bundle_parsed, RemoteAnalyzer};
use bside_core::{AnalyzerOptions, LibraryStore};
use bside_obs as obs;
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Callback invoked (with the store key) every time the daemon is about
/// to run a cold analysis — the observability hook the single-flight
/// tests count invocations on. `None` in production.
pub type AnalysisHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Configuration of a policy server.
#[derive(Clone)]
pub struct ServeOptions {
    /// Directory of the content-addressed policy store; `None` keeps the
    /// store purely in memory (lost on shutdown).
    pub store_dir: Option<std::path::PathBuf>,
    /// Directory of `<name>.interface.json` shared interfaces (§4.5, as
    /// written by `bside interface` / `LibraryStore::save_to_dir`). With
    /// it, dynamically linked binaries are served via
    /// `Analyzer::analyze_dynamic`; without it they are refused in band.
    pub library_dir: Option<std::path::PathBuf>,
    /// Worker threads — the number of requests *executing* concurrently.
    /// Connections are not bound to workers: the event loop multiplexes
    /// every open socket, and idle or watch-parked connections cost no
    /// worker at all, so size the pool for analysis concurrency alone.
    pub threads: usize,
    /// Analyzer configuration for the analyze-on-miss path; also the
    /// options half of every store key.
    pub analyzer: AnalyzerOptions,
    /// Progress budget on an idle connection. A connection that neither
    /// delivers request bytes nor drains its pending replies for this
    /// long is closed (a connection mid-request, or parked in a `watch`,
    /// is exempt). Also bounds how long shutdown waits for stalled
    /// writers.
    pub read_timeout: Duration,
    /// Artificial delay inserted before every cold analysis — widens the
    /// single-flight race window so tests and CI smokes can assert
    /// coalescing deterministically (`BSIDE_SERVE_ANALYSIS_DELAY_MS` in
    /// the CLI). `None` in production.
    pub analysis_delay: Option<Duration>,
    /// Fault-injection hook for the isolation tests: a cold analysis for
    /// a path containing this substring panics mid-flight. `None` in
    /// production.
    pub panic_on_substr: Option<String>,
    /// Observability hook: called with the store key just before every
    /// cold analysis runs. `None` in production.
    pub analysis_hook: Option<AnalysisHook>,
    /// Remote offload for analyze-on-miss leaders: when set, cold
    /// derivations for static binaries are shipped through this hook
    /// (e.g. to a fleet coordinator) instead of running in-process.
    /// Dynamic binaries stay local — they need this daemon's
    /// shared-interface store.
    pub remote_analyzer: Option<RemoteAnalyzer>,
    /// Consecutive remote-offload failures that open the circuit
    /// breaker (every request then derives locally — degraded, but
    /// answered — until a half-open probe succeeds).
    pub breaker_threshold: u32,
    /// How long an open breaker waits before letting one probe through.
    pub breaker_cooldown: Duration,
    /// The metrics registry this daemon reports into. `None` (the
    /// default) gives the daemon a private registry, so embedders and
    /// tests running several daemons in one process can't bleed counts
    /// into each other; the `bside serve` binary passes
    /// [`obs::global`] so one `metrics` snapshot covers the process.
    pub registry: Option<Arc<obs::Registry>>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("store_dir", &self.store_dir)
            .field("library_dir", &self.library_dir)
            .field("threads", &self.threads)
            .field("analyzer", &self.analyzer)
            .field("read_timeout", &self.read_timeout)
            .field("analysis_delay", &self.analysis_delay)
            .field("panic_on_substr", &self.panic_on_substr)
            .field("analysis_hook", &self.analysis_hook.is_some())
            .field("remote_analyzer", &self.remote_analyzer.is_some())
            .field("breaker_threshold", &self.breaker_threshold)
            .field("breaker_cooldown", &self.breaker_cooldown)
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            store_dir: None,
            library_dir: None,
            threads: 4,
            analyzer: AnalyzerOptions::default(),
            read_timeout: Duration::from_secs(5),
            analysis_delay: None,
            panic_on_substr: None,
            analysis_hook: None,
            remote_analyzer: None,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
            registry: None,
        }
    }
}

/// Request-loop endpoints, in the order of
/// [`ServeMetrics::request_duration`]. The label on the per-endpoint
/// latency histogram.
const ENDPOINTS: [&str; 8] = [
    "policy",
    "policy_by_key",
    "invalidate",
    "watch",
    "stats",
    "metrics",
    "ping",
    "shutdown",
];

fn endpoint_index(request: &Request) -> usize {
    match request {
        Request::Policy { .. } => 0,
        Request::PolicyByKey { .. } => 1,
        Request::Invalidate { .. } => 2,
        Request::Watch { .. } => 3,
        Request::Stats => 4,
        Request::Metrics => 5,
        Request::Ping => 6,
        Request::Shutdown => 7,
    }
}

/// Where a policy answer's latency lands, in the order of
/// [`ServeMetrics::policy_duration`]. The first three mirror
/// [`Source`]; `degraded` times the local fallback derivation that runs
/// when the offload path fails or is skipped by an open breaker.
const POLICY_SOURCES: [&str; 4] = ["store", "analyzed", "coalesced", "degraded"];
const SOURCE_DEGRADED: usize = 3;

fn source_index(source: Source) -> usize {
    match source {
        Source::Store => 0,
        Source::Analyzed => 1,
        Source::Coalesced => 2,
    }
}

/// The daemon's counters, gauges, and latency histograms — handles into
/// the registry the daemon was given (or its private one). The legacy
/// [`StatsSnapshot`] is *derived* from these same cells
/// ([`Shared::snapshot`]), so the v3 `stats` reply and the v4 `metrics`
/// reply cannot disagree on a shared counter.
struct ServeMetrics {
    registry: Arc<obs::Registry>,
    connections: Arc<obs::Counter>,
    requests: Arc<obs::Counter>,
    store_hits: Arc<obs::Counter>,
    analyses: Arc<obs::Counter>,
    coalesced: Arc<obs::Counter>,
    invalidations: Arc<obs::Counter>,
    bytes_read: Arc<obs::Counter>,
    errors: Arc<obs::Counter>,
    panics: Arc<obs::Counter>,
    degraded: Arc<obs::Counter>,
    store_entries: Arc<obs::Gauge>,
    generation: Arc<obs::Gauge>,
    breaker_state: Arc<obs::Gauge>,
    request_duration: [Arc<obs::Histogram>; ENDPOINTS.len()],
    policy_duration: [Arc<obs::Histogram>; POLICY_SOURCES.len()],
    offload_duration: Arc<obs::Histogram>,
}

impl ServeMetrics {
    fn new(registry: Arc<obs::Registry>) -> ServeMetrics {
        let counter = |name: &str| registry.counter(name);
        let request_duration = ENDPOINTS.map(|endpoint| {
            registry.histogram_with("bside_serve_request_duration_us", &[("endpoint", endpoint)])
        });
        let policy_duration = POLICY_SOURCES.map(|source| {
            registry.histogram_with("bside_serve_policy_duration_us", &[("source", source)])
        });
        ServeMetrics {
            connections: counter("bside_serve_connections_total"),
            requests: counter("bside_serve_requests_total"),
            store_hits: counter("bside_serve_store_hits_total"),
            analyses: counter("bside_serve_analyses_total"),
            coalesced: counter("bside_serve_coalesced_total"),
            invalidations: counter("bside_serve_invalidations_total"),
            bytes_read: counter("bside_serve_bytes_read_total"),
            errors: counter("bside_serve_errors_total"),
            panics: counter("bside_serve_panics_total"),
            degraded: counter("bside_serve_degraded_total"),
            store_entries: registry.gauge("bside_serve_store_entries"),
            generation: registry.gauge("bside_serve_generation"),
            breaker_state: registry.gauge("bside_serve_breaker_state"),
            request_duration,
            policy_duration,
            offload_duration: registry.histogram("bside_serve_offload_duration_us"),
            registry,
        }
    }
}

/// One `(len, mtime) → store key` memo entry; lets a repeat request for
/// an unchanged path reach the store without re-reading (or re-hashing)
/// the binary.
#[derive(Clone)]
struct PathKey {
    len: u64,
    mtime: SystemTime,
    key: String,
}

/// What the event loop does with a connection after a worker's reply
/// bytes are written.
enum After {
    /// Back to idle: assemble the next request.
    Resume,
    /// Close once the reply drains (handler panic).
    Close,
    /// The reply acknowledged an in-band `shutdown`.
    Shutdown,
}

/// One parsed request the loop could not answer from memory, on its
/// way to the worker pool.
struct Job {
    conn_id: u64,
    request: Request,
}

/// A worker's result on its way back to the event loop.
struct Completion {
    conn_id: u64,
    bytes: Vec<u8>,
    after: After,
}

struct Shared {
    store: PolicyStore,
    /// Shared interfaces for dynamic binaries; empty without
    /// [`ServeOptions::library_dir`].
    libraries: LibraryStore,
    /// Content fingerprint of `libraries`; mixed into dynamic-binary
    /// store keys. `None` when no libraries are loaded.
    lib_fingerprint: Option<String>,
    flights: FlightTable,
    path_keys: Mutex<HashMap<String, PathKey>>,
    /// Watches currently parked on store subscriptions; bounded by
    /// [`MAX_PARKED_WATCHES`] so a watcher flood cannot grow connection
    /// state without limit. Only the event loop mutates it; atomic so
    /// [`ServerHandle::parked_watches`] can read it from outside.
    active_watches: AtomicU64,
    options: ServeOptions,
    endpoint: Endpoint,
    shutdown: AtomicBool,
    /// Rings the event loop's wake pipe — how shutdown (and anything
    /// else that happens off-loop) interrupts a blocked `poll`.
    waker: Waker,
    metrics: ServeMetrics,
    /// Gates the remote-offload path; permanently closed (and unused)
    /// without a [`ServeOptions::remote_analyzer`].
    breaker: CircuitBreaker,
}

/// Upper bound on concurrently parked watches. A parked watch costs one
/// fd, one connection entry, and one store-subscription entry — no
/// thread, no buffer beyond its (empty) read buffer — so this is a
/// memory/fd bound, not a pool bound; past it a watch is rejected in
/// band and the client retries. Raised from the thread-era 1024: the
/// event loop holds thousands of parked watches without a measurable
/// cost per iteration.
pub const MAX_PARKED_WATCHES: u64 = 4096;

/// Upper bound on the `(path → key)` memo. Deployments that fetch by
/// ever-fresh per-pod paths would otherwise grow it without bound over
/// a months-long daemon lifetime; the memo is a pure optimization, so
/// hitting the cap just resets it and lets the hot paths re-memoize.
const PATH_MEMO_CAP: usize = 8192;

/// `true` for the canonical store-key form: 64 lowercase hex digits
/// (SHA-256). Everything the daemon hands out matches; anything else
/// from a client is refused before it reaches a filesystem path.
fn is_store_key(key: &str) -> bool {
    key.len() == 64 && key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // One wake byte: the event loop notices the flag on its next
        // turn and runs the teardown sequence. No dialing, no sleeps.
        self.waker.wake();
    }

    /// The legacy v3 stats snapshot, derived from the same registry
    /// cells the `metrics` reply renders — shared counters cannot drift
    /// between the two replies because there is only one set of cells.
    fn snapshot(&self) -> StatsSnapshot {
        self.refresh_gauges();
        StatsSnapshot {
            connections: self.metrics.connections.get(),
            requests: self.metrics.requests.get(),
            store_hits: self.metrics.store_hits.get(),
            analyses: self.metrics.analyses.get(),
            coalesced: self.metrics.coalesced.get(),
            invalidations: self.metrics.invalidations.get(),
            bytes_read: self.metrics.bytes_read.get(),
            errors: self.metrics.errors.get(),
            panics: self.metrics.panics.get(),
            store_entries: self.metrics.store_entries.get(),
            generation: self.metrics.generation.get(),
            degraded: self.metrics.degraded.get(),
            breaker_state: self.metrics.breaker_state.get(),
        }
    }

    /// Copies the point-in-time gauges out of their authoritative
    /// sources (store, breaker) into the registry. Called at snapshot
    /// and render time, so both replies see the same instant — by
    /// construction, not by bookkeeping at every mutation site.
    fn refresh_gauges(&self) {
        self.metrics.store_entries.set(self.store.len() as u64);
        self.metrics.generation.set(self.store.generation());
        self.metrics.breaker_state.set(self.breaker.state().code());
    }

    /// The full registry in Prometheus text exposition format — the v4
    /// `metrics` reply.
    fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.metrics.registry.render_prometheus()
    }

    fn error_reply(&self, message: String) -> Reply {
        self.metrics.errors.inc();
        Reply::Error { message }
    }

    /// [`Shared::error_reply`], encoded.
    fn error_frame(&self, message: String) -> Vec<u8> {
        encode_reply(&self.error_reply(message))
    }

    /// The refusal of a client-supplied key that is not canonical hex.
    fn malformed_key(&self, key: &str) -> Reply {
        self.error_reply(format!(
            "malformed policy key {key:?} (expected 64 lowercase hex digits)"
        ))
    }

    /// Records an answered request's latency under its endpoint.
    fn record_request(&self, request: &Request, started: Instant) {
        self.metrics.request_duration[endpoint_index(request)]
            .record(started.elapsed().as_micros() as u64);
    }

    /// The one place a policy reply is built, on the loop or a worker:
    /// bumps the counter the source implies, so a future source variant
    /// cannot miss its accounting, and splices the entry's stored bytes
    /// into the frame. (`analyses` is counted where a derivation
    /// actually runs — an `Analyzed` reply follows at most one of
    /// those.) `generation` is the value to report: the landed
    /// generation for a fresh insert, the current one otherwise.
    fn policy_reply(
        &self,
        key: &str,
        source: Source,
        generation: u64,
        stored: &StoredBundle,
        started: Instant,
    ) -> Vec<u8> {
        match source {
            Source::Store => {
                self.metrics.store_hits.inc();
            }
            Source::Coalesced => {
                self.metrics.coalesced.inc();
            }
            Source::Analyzed => {}
        }
        self.metrics.policy_duration[source_index(source)]
            .record(started.elapsed().as_micros() as u64);
        policy_frame(key, source, generation, &stored.json)
    }

    /// A `Store`-sourced policy reply at the current generation.
    fn store_hit(&self, key: &str, stored: &StoredBundle, started: Instant) -> Vec<u8> {
        self.policy_reply(key, Source::Store, self.store.generation(), stored, started)
    }

    /// Answers a store hit from memory alone, or `None` when the request
    /// needs a worker. Runs on the event loop, so it does no disk I/O
    /// beyond the `stat` the path memo needs.
    fn answer_from_memory(&self, request: &Request) -> Option<Vec<u8>> {
        let started = Instant::now();
        let frame = match request {
            // A malformed key falls through to the worker, which refuses it.
            Request::PolicyByKey { key } if is_store_key(key) => {
                let stored = self.store.cached(key)?;
                self.store_hit(key, &stored, started)
            }
            Request::Policy { path } => {
                let meta = std::fs::metadata(path).ok()?;
                let key = self.memoized_key(path, meta.len(), meta.modified().ok()?)?;
                let stored = self.store.cached(&key)?;
                self.store_hit(&key, &stored, started)
            }
            _ => return None,
        };
        self.record_request(request, started);
        Some(frame)
    }

    /// Answers one request on a worker, as its encoded reply frame.
    /// Never panics on malformed input — only the test-only fault hook
    /// panics, deliberately.
    fn answer(&self, request: &Request) -> Vec<u8> {
        let reply = match request {
            Request::Ping => Reply::Pong,
            Request::Stats => Reply::Stats {
                stats: self.snapshot(),
            },
            Request::Metrics => Reply::Metrics {
                text: self.metrics_text(),
            },
            Request::Shutdown => Reply::ShuttingDown,
            Request::Watch { .. } => unreachable!("the event loop answers `watch` itself"),
            Request::PolicyByKey { key } => return self.answer_by_key(key),
            Request::Invalidate { key } => {
                if !is_store_key(key) {
                    return encode_reply(&self.malformed_key(key));
                }
                match self.store.invalidate(key) {
                    Some(generation) => {
                        self.metrics.invalidations.inc();
                        Reply::Invalidated {
                            key: key.clone(),
                            removed: true,
                            generation,
                        }
                    }
                    None => Reply::Invalidated {
                        key: key.clone(),
                        removed: false,
                        generation: self.store.generation(),
                    },
                }
            }
            Request::Policy { path } => return self.answer_policy(path),
        };
        encode_reply(&reply)
    }

    fn answer_by_key(&self, key: &str) -> Vec<u8> {
        let started = Instant::now();
        // Client-supplied keys reach the store's filesystem layer;
        // anything but the canonical SHA-256 hex form is refused before
        // it can traverse out of the store dir.
        if !is_store_key(key) {
            return encode_reply(&self.malformed_key(key));
        }
        match self.store.load_stored(key) {
            Some(stored) => self.store_hit(key, &stored, started),
            None => self.error_frame(format!("no stored policy under key {key}")),
        }
    }

    /// The `(len, mtime) → key` memo: the store key of an unchanged path
    /// without re-reading the file. Same staleness caveat as the dist
    /// cache — a rewrite preserving both length and mtime is invisible.
    fn memoized_key(&self, path: &str, len: u64, mtime: SystemTime) -> Option<String> {
        let memo = self.path_keys.lock().expect("path memo lock");
        memo.get(path)
            .filter(|m| m.len == len && m.mtime == mtime)
            .map(|m| m.key.clone())
    }

    fn memoize_key(&self, path: &str, len: u64, mtime: SystemTime, key: &str) {
        let mut memo = self.path_keys.lock().expect("path memo lock");
        if memo.len() >= PATH_MEMO_CAP && !memo.contains_key(path) {
            memo.clear();
        }
        memo.insert(
            path.to_string(),
            PathKey {
                len,
                mtime,
                key: key.to_string(),
            },
        );
    }

    fn answer_policy(&self, path: &str) -> Vec<u8> {
        let started = Instant::now();
        // Store-key resolution before payload read: stat the file, and
        // if an unchanged `(len, mtime)` already has a memoized key that
        // hits the store, answer without reading the binary at all — the
        // hit path costs zero payload bytes. The loop already tried this
        // from memory; here the entry may still be promoted from disk.
        let meta = match std::fs::metadata(path) {
            Ok(meta) => meta,
            Err(e) => return self.error_frame(format!("reading {path}: {e}")),
        };
        let stamp = meta.modified().ok();
        if let Some(mtime) = stamp {
            if let Some(key) = self.memoized_key(path, meta.len(), mtime) {
                if let Some(stored) = self.store.load_stored(&key) {
                    return self.store_hit(&key, &stored, started);
                }
            }
        }

        // Cold (or invalidated) path: read the payload once. The ELF is
        // parsed here only when libraries are loaded — then `DT_NEEDED`
        // decides whether the library-set fingerprint joins the key (so
        // re-analyzed interfaces never serve stale bundles). Without
        // libraries the key is a pure function of the bytes, and parsing
        // is deferred into the analysis leader: a first-per-path fetch
        // against a pre-populated store stays parse-free.
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => return self.error_frame(format!("reading {path}: {e}")),
        };
        self.metrics.bytes_read.add(bytes.len() as u64);
        let name = binary_name(std::path::Path::new(path));
        let parsed = match self.lib_fingerprint.as_deref() {
            None => None,
            Some(fp) => match bside_elf::Elf::parse(&bytes) {
                Ok(elf) => {
                    let dynamic = !elf.needed_libraries().is_empty();
                    Some((elf, dynamic.then_some(fp)))
                }
                Err(e) => return self.error_frame(format!("parsing {name}: {e}")),
            },
        };
        let lib_fp = parsed.as_ref().and_then(|(_, fp)| *fp);
        let key = PolicyStore::key_with_libs(&bytes, &self.options.analyzer, lib_fp);
        // Memoize only when the pre-read and post-read stamps agree
        // (and match what was read): requiring both closes *both*
        // swap-race directions — a pre-read stamp bound to post-swap
        // content (a later rollback restoring the original file+mtime
        // would memo-hit the wrong key), and a post-read stamp bound to
        // pre-swap content (a same-length swap during the read would
        // bind the new mtime to the old bytes' key and serve the old
        // policy forever). Disagreement just skips the memo; the next
        // fetch re-reads.
        if let (Some(before), Ok(after)) = (stamp, std::fs::metadata(path)) {
            if after.len() == bytes.len() as u64 && after.modified().ok() == Some(before) {
                self.memoize_key(path, after.len(), before, &key);
            }
        }
        if let Some(stored) = self.store.load_stored(&key) {
            return self.store_hit(&key, &stored, started);
        }

        // Store miss: join the single flight for this key.
        match self.flights.join(&key) {
            Ticket::Follower(Ok(stored)) => {
                let generation = self.store.generation();
                self.policy_reply(&key, Source::Coalesced, generation, &stored, started)
            }
            Ticket::Follower(Err(message)) => self.error_frame(message),
            Ticket::Leader(guard) => {
                // Double-check the store under leadership: a previous
                // flight may have landed between our store miss and the
                // join — serve it instead of re-analyzing.
                if let Some(stored) = self.store.load_stored(&key) {
                    guard.complete(Ok(stored.clone()));
                    return self.store_hit(&key, &stored, started);
                }
                if let Some(delay) = self.options.analysis_delay {
                    std::thread::sleep(delay);
                }
                if let Some(needle) = &self.options.panic_on_substr {
                    if path.contains(needle.as_str()) {
                        // Deliberate mid-flight panic: the guard's Drop
                        // fails every follower in band on the way out.
                        panic!("fault hook: policy request for {path}");
                    }
                }
                if let Some(hook) = &self.options.analysis_hook {
                    hook(&key);
                }
                let derive_locally = || {
                    let libs = (!self.libraries.is_empty()).then_some(&self.libraries);
                    match &parsed {
                        Some((elf, _)) => {
                            derive_bundle_parsed(&name, elf, &self.options.analyzer, libs)
                        }
                        None => derive_bundle(&name, &bytes, &self.options.analyzer, libs),
                    }
                };
                let derive_degraded = || {
                    self.metrics.degraded.inc();
                    let degraded_start = Instant::now();
                    let result = derive_locally();
                    self.metrics.policy_duration[SOURCE_DEGRADED]
                        .record(degraded_start.elapsed().as_micros() as u64);
                    result
                };
                let derived = match (&self.options.remote_analyzer, lib_fp) {
                    // Offload only what the fleet can actually derive: a
                    // dynamic binary needs this daemon's shared-interface
                    // store, so it stays local even under --fleet. The
                    // circuit breaker turns a dead fleet into graceful
                    // degradation: failures fall back to the local
                    // pipeline (counted in `degraded`), and once the
                    // breaker opens, requests skip the doomed remote
                    // call — and its wait budget — entirely.
                    (Some(remote), None) => {
                        if self.breaker.try_acquire(std::time::Instant::now()) {
                            // The offload span is live across the remote
                            // call, so a trace-aware remote analyzer (the
                            // fleet offload) reads it via
                            // `obs::current_context()` and parents its
                            // dispatch span here.
                            let offload = match obs::current_context() {
                                Some(_) => obs::span("offload"),
                                None => obs::span_root("offload", obs::new_run_id(), 0),
                            };
                            let result = remote(&name, path, &bytes);
                            self.metrics
                                .offload_duration
                                .record(offload.finish().as_micros() as u64);
                            match result {
                                Ok(bundle) => {
                                    self.breaker.record_success();
                                    Ok(bundle)
                                }
                                Err(message) => {
                                    self.breaker.record_failure(std::time::Instant::now());
                                    eprintln!(
                                        "bside-serve: fleet offload failed ({message}); \
                                         deriving {name} locally"
                                    );
                                    derive_degraded()
                                }
                            }
                        } else {
                            derive_degraded()
                        }
                    }
                    _ => derive_locally(),
                };
                // The bundle is encoded once, here: the store writes these
                // bytes to disk and keeps them, and this reply, every
                // follower's and every later hit splice them.
                let encoded = derived
                    .and_then(|bundle| StoredBundle::encode(bundle).map_err(|e| e.to_string()));
                match encoded {
                    Ok(stored) => {
                        self.metrics.analyses.inc();
                        let generation =
                            match self.store.insert_stored(&key, stored.clone(), lib_fp) {
                                Ok(generation) => generation,
                                Err(e) => {
                                    // A store write failure degrades durability,
                                    // not service: the freshly derived bundle
                                    // still answers this request and its
                                    // followers.
                                    eprintln!("bside-serve: storing policy {key}: {e}");
                                    self.store.generation()
                                }
                            };
                        guard.complete(Ok(stored.clone()));
                        self.policy_reply(&key, Source::Analyzed, generation, &stored, started)
                    }
                    Err(message) => {
                        guard.complete(Err(message.clone()));
                        self.error_frame(message)
                    }
                }
            }
        }
    }
}

/// Serializes `reply` exactly as it would go over the wire (through the
/// workspace's fault-injection choke point, like every NDJSON frame).
fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = write_message(&mut bytes, reply);
    bytes
}

/// A policy reply's wire frame, spliced from the entry's encoded bundle:
/// byte for byte what [`encode_reply`] writes for the same
/// [`Reply::Policy`], without serializing the bundle again. It goes out
/// through the same fault-injection choke point.
fn policy_frame(key: &str, source: Source, generation: u64, bundle_json: &str) -> Vec<u8> {
    let key = serde_json::to_string(key).expect("a string serializes");
    let source = serde_json::to_string(&source).expect("a unit variant serializes");
    let mut body = format!(
        "{{\"type\":\"policy\",\"key\":{key},\"source\":{source},\"generation\":{generation},\"bundle\":"
    );
    // The bundle, the closing brace, and the newline `write_frame` adds.
    body.reserve_exact(bundle_json.len() + 2);
    body.push_str(bundle_json);
    body.push('}');
    let mut frame = Vec::new();
    let _ = bside_dist::fault::write_frame(&mut frame, body);
    frame
}

/// Executes one request the loop could not answer from memory. Runs on
/// a worker thread; everything socket-shaped already happened on the
/// event loop.
fn process_job(shared: &Shared, request: &Request) -> (Vec<u8>, After) {
    let started = Instant::now();
    let frame = shared.answer(request);
    shared.record_request(request, started);
    let after = if matches!(request, Request::Shutdown) {
        After::Shutdown
    } else {
        After::Resume
    };
    (frame, after)
}

fn worker_loop(
    shared: &Shared,
    jobs: &Mutex<Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
) {
    loop {
        let job = match jobs.lock().expect("job queue lock").recv() {
            Ok(job) => job,
            Err(_) => return, // loop dropped the sender; queue drained
        };
        // Per-connection isolation: a panicking handler (a bug in
        // analysis or a deliberate fault injection) loses its own
        // connection only — the empty-bytes Close makes the event loop
        // drop the socket, so the client sees EOF.
        let result = catch_unwind(AssertUnwindSafe(|| process_job(shared, &job.request)));
        let (bytes, after) = result.unwrap_or_else(|_| {
            shared.metrics.panics.inc();
            (Vec::new(), After::Close)
        });
        completions
            .lock()
            .expect("completion queue lock")
            .push(Completion {
                conn_id: job.conn_id,
                bytes,
                after,
            });
        waker.wake();
    }
}

/// What the event loop is doing with a connection right now.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Assembling the next request line; subject to idle expiry.
    Idle,
    /// Exactly one request executing on a worker; pipelined bytes
    /// accumulate in `rbuf` under backpressure.
    Busy,
    /// A `watch` subscribed in the store; any inbound byte is a
    /// protocol breach, EOF releases the slot.
    Parked,
}

/// One connection owned by the event loop.
struct Connection {
    conn: Conn,
    /// Inbound bytes not yet consumed as request lines.
    rbuf: Vec<u8>,
    /// Outbound bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written.
    wpos: usize,
    phase: Phase,
    /// Close as soon as `wbuf` drains (framing error, shutdown, EOF).
    close_after_write: bool,
    /// The peer closed its write half; drain what we have, then close.
    eof: bool,
    /// Last time this connection moved bytes in either direction —
    /// the idle-expiry anchor.
    last_progress: Instant,
}

impl Connection {
    /// Reply bytes queued but not yet accepted by the socket.
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// A full read buffer stops reading until its lines are consumed — by
    /// the busy worker's completion, or by the loop once the connection's
    /// output drains below [`WBUF_HIGH_WATER`]. A parked watch keeps
    /// reading: its only inbound bytes are a hangup or a breach.
    fn read_backpressured(&self) -> bool {
        self.phase != Phase::Parked && self.rbuf.len() >= RBUF_HIGH_WATER
    }
}

/// How much the loop reads per `read` call while draining a socket.
const READ_CHUNK: usize = 16 * 1024;

/// The per-line framing cap, as enforced loop-side: a newline-less
/// residual at least this large can never become a valid line.
const LINE_CAP: usize = MAX_REQUEST_LINE_BYTES as usize;

/// Backpressure bound on a connection's read buffer: two maximal
/// pipelined lines. Past it the loop simply stops reading until lines
/// are consumed — TCP/Unix flow control pushes back on the client.
const RBUF_HIGH_WATER: usize = 2 * LINE_CAP;

/// Backpressure bound on a connection's unsent replies. Past it the loop
/// stops answering the connection's pipelined requests until
/// [`EventLoop::drain_write`] sees the socket take the excess, so a
/// client that pipelines without reading holds at most this much (plus
/// one reply, queued whole) instead of growing `wbuf` without bound. A
/// client that reads its replies never reaches it.
const WBUF_HIGH_WATER: usize = 64 * 1024;

/// How long the loop backs off accepting after a failed `accept` (EMFILE,
/// aborted handshake) — applied as a poll deadline, never a sleep, so
/// wakes and I/O on live connections proceed during the backoff.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Housekeeping cadence while connections exist: cold (parked, fully
/// drained) connections are polled for hangup/breach and idle expiry is
/// enforced once per tick, instead of on every loop turn. This keeps the
/// per-request poll set at O(active connections) — the C10k property —
/// at the cost of detecting a dead parked watcher up to one tick late
/// (its slot was open-ended anyway). Wake latency for *fired* watches is
/// unaffected: firing goes through the wake pipe, not the tick.
const TICK: Duration = Duration::from_millis(100);

/// The readiness event loop: owns the listener, every connection, the
/// wake pipe, and the job/completion plumbing to the worker pool.
struct EventLoop {
    shared: Arc<Shared>,
    listener: Option<Listener>,
    pipe: WakePipe,
    conns: HashMap<u64, Connection>,
    next_conn_id: u64,
    jobs_tx: Option<Sender<Job>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    poll: PollSet,
    /// Registration scratch: `(poll slot, conn id)` pairs per iteration.
    slots: Vec<(usize, u64)>,
    /// Connections polled every iteration. The complement (conns not in
    /// here) is the cold set: parked watches with nothing left to write,
    /// which only the periodic [`TICK`] registers — so a thousand parked
    /// watchers add nothing to the active request path's poll set.
    hot: std::collections::HashSet<u64>,
    /// Next housekeeping pass (cold-connection poll + idle expiry).
    tick_due: Instant,
    accept_backoff_until: Option<Instant>,
    draining: bool,
}

impl EventLoop {
    fn run(&mut self) {
        loop {
            for completion in self.take_completions() {
                self.apply_completion(completion);
            }
            for (token, generation) in self.shared.store.take_fired() {
                self.fire_watch(token, generation);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.start_drain();
            }
            if self.draining && self.conns.is_empty() {
                return;
            }
            self.poll_and_dispatch();
        }
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completion queue lock"))
    }

    /// One poll cycle: register interest, wait until something is ready
    /// or the nearest deadline, then service every ready descriptor.
    fn poll_and_dispatch(&mut self) {
        let now = Instant::now();
        let tick = now >= self.tick_due && !self.conns.is_empty();
        if tick {
            self.tick_due = now + TICK;
            self.expire_stalled();
        }
        self.poll.clear();
        self.slots.clear();
        let wake_slot = self.poll.push(self.pipe.fd(), true, false);
        let mut listener_slot = None;
        if let Some(listener) = &self.listener {
            if self.accept_backoff_until.is_none_or(|until| now >= until) {
                self.accept_backoff_until = None;
                listener_slot = Some(self.poll.push(listener.as_raw_fd(), true, false));
            }
        }
        for &id in &self.hot {
            let Some(conn) = self.conns.get(&id) else {
                continue;
            };
            let want_read = !conn.eof && !conn.read_backpressured();
            let want_write = conn.unsent() > 0;
            if !want_read && !want_write {
                continue; // a completion or fire will wake us for it
            }
            let slot = self.poll.push(conn.conn.as_raw_fd(), want_read, want_write);
            self.slots.push((slot, id));
        }
        if tick {
            // Cold sweep: parked, fully drained connections — readable
            // only ever means hangup or a protocol breach here.
            for (&id, conn) in &self.conns {
                if !self.hot.contains(&id) {
                    let slot = self.poll.push(conn.conn.as_raw_fd(), true, false);
                    self.slots.push((slot, id));
                }
            }
        }
        let timeout = self.next_deadline(now);
        if self.poll.wait(timeout).is_err() {
            return; // transient poll failure: re-derive state next turn
        }
        if self.poll.readable(wake_slot) {
            self.pipe.drain();
        }
        if listener_slot.is_some_and(|slot| self.poll.readable(slot)) {
            self.accept_ready();
        }
        let ready = std::mem::take(&mut self.slots);
        for (slot, id) in &ready {
            if self.poll.invalid(*slot) {
                self.close(*id);
                continue;
            }
            if self.poll.writable(*slot) {
                self.drain_write(*id);
            }
            if self.poll.readable(*slot) {
                self.drain_read(*id);
            }
        }
        self.slots = ready;
    }

    /// The nearest wake-by deadline: the housekeeping tick (which
    /// enforces idle expiry, so it must fire while connections exist)
    /// and the accept backoff. With no connections and no backoff the
    /// loop blocks indefinitely — only I/O or a wake byte moves it.
    fn next_deadline(&self, now: Instant) -> Option<Duration> {
        let mut nearest: Option<Instant> = self.accept_backoff_until;
        if !self.conns.is_empty() {
            nearest = Some(nearest.map_or(self.tick_due, |n| n.min(self.tick_due)));
        }
        nearest.map(|deadline| deadline.saturating_duration_since(now))
    }

    /// Idle expiry covers connections waiting for request bytes and
    /// connections that stopped draining their replies — not requests
    /// mid-execution (a cold analysis may legitimately exceed the
    /// budget) and not parked watches (open-ended by design).
    fn expiry_applies(&self, conn: &Connection) -> bool {
        let stalled_write = conn.wpos < conn.wbuf.len();
        conn.phase == Phase::Idle || stalled_write
    }

    fn expire_stalled(&mut self) {
        let timeout = self.shared.options.read_timeout;
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                self.expiry_applies(conn) && now.duration_since(conn.last_progress) >= timeout
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.close(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok(conn) => {
                    if conn.set_nonblocking(true).is_err() {
                        continue; // dying socket; drop it
                    }
                    self.shared.metrics.connections.inc();
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let hello = encode_reply(&Reply::Hello {
                        version: PROTOCOL_VERSION,
                        generation: self.shared.store.generation(),
                    });
                    self.conns.insert(
                        id,
                        Connection {
                            conn,
                            rbuf: Vec::new(),
                            wbuf: hello,
                            wpos: 0,
                            phase: Phase::Idle,
                            close_after_write: false,
                            eof: false,
                            last_progress: Instant::now(),
                        },
                    );
                    self.hot.insert(id);
                    self.write_out(id);
                }
                Err(e) if is_would_block(&e) => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (EMFILE, aborted
                    // handshake): stop *registering* the listener for a
                    // beat so this loop keeps serving — the very clients
                    // whose departures free descriptors — instead of
                    // spinning on accept. A deadline, never a sleep.
                    self.accept_backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Writes what the socket accepts, then resumes framing: a
    /// connection held back by [`WBUF_HIGH_WATER`] continues as its
    /// output drains.
    fn drain_write(&mut self, id: u64) {
        self.write_out(id);
        self.pump(id);
    }

    /// Writes as much pending output as the socket accepts right now.
    fn write_out(&mut self, id: u64) {
        let mut dead = false;
        let mut drained_to_close = false;
        if let Some(conn) = self.conns.get_mut(&id) {
            while conn.wpos < conn.wbuf.len() {
                match conn.conn.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_progress = Instant::now();
                    }
                    Err(e) if is_would_block(&e) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.wpos >= conn.wbuf.len() && !conn.wbuf.is_empty() {
                conn.wbuf.clear();
                conn.wpos = 0;
                drained_to_close = conn.close_after_write;
            }
            if !dead && !drained_to_close && conn.phase == Phase::Parked && conn.wbuf.is_empty() {
                // A parked watch with nothing left to write goes cold:
                // only the housekeeping tick polls it from here on.
                self.hot.remove(&id);
            }
        } else {
            return;
        }
        if dead || drained_to_close {
            self.close(id);
        }
    }

    /// Reads everything the socket has right now, then advances framing.
    fn drain_read(&mut self, id: u64) {
        let mut dead = false;
        let mut breach = false;
        if let Some(conn) = self.conns.get_mut(&id) {
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                if conn.read_backpressured() {
                    break; // resume reading once lines are consumed
                }
                match conn.conn.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_progress = Instant::now();
                        if conn.phase == Phase::Parked {
                            // Nothing may be in flight from a client
                            // whose watch is pending: framing can no
                            // longer be trusted.
                            breach = true;
                            break;
                        }
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) if is_would_block(&e) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.phase == Phase::Parked && conn.eof {
                dead = true; // watcher hung up: release the slot now
            }
        } else {
            return;
        }
        if dead || breach {
            self.close(id);
            return;
        }
        self.pump(id);
    }

    /// Advances an idle connection's framing: parse each complete
    /// request line and answer it — on the loop when memory suffices,
    /// else by dispatching it to a worker — enforce the line cap on
    /// newline-less residue, and finish off an exhausted (EOF)
    /// connection. Holds off while the connection's unsent output is
    /// above [`WBUF_HIGH_WATER`].
    fn pump(&mut self, id: u64) {
        enum Step {
            Request(Request),
            Malformed(String),
            Exhausted,
            Wait,
        }
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.phase != Phase::Idle
                    || conn.close_after_write
                    || conn.unsent() > WBUF_HIGH_WATER
                {
                    return;
                }
                match conn.rbuf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        let step = match std::str::from_utf8(&conn.rbuf[..pos]).map(str::trim) {
                            // Blank lines are skipped, per the codec.
                            Ok("") => None,
                            Ok(line) => Some(match serde_json::from_str(line) {
                                Ok(request) => Step::Request(request),
                                Err(e) => Step::Malformed(e.to_string()),
                            }),
                            // Mirrors the blocking codec: read_line would
                            // have failed with InvalidData before JSON
                            // parsing.
                            Err(_) => Some(Step::Malformed(
                                "stream did not contain valid UTF-8".to_string(),
                            )),
                        };
                        conn.rbuf.drain(..=pos);
                        match step {
                            Some(step) => step,
                            None => continue,
                        }
                    }
                    None if conn.rbuf.len() >= LINE_CAP => Step::Malformed(format!(
                        "message line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
                    )),
                    None if conn.eof => Step::Exhausted,
                    None => Step::Wait,
                }
            };
            match step {
                Step::Request(request) => self.dispatch(id, request),
                Step::Malformed(cause) => {
                    // Framing is no longer trustworthy: answer once, close.
                    let reply = self
                        .shared
                        .error_reply(format!("malformed request: {cause}"));
                    self.queue_reply_and_finish(id, &reply);
                    return;
                }
                Step::Exhausted => {
                    // EOF with no (complete) line left: a partial
                    // truncated line is dropped, matching a blocking
                    // reader that sees EOF mid-line.
                    self.finish(id);
                    return;
                }
                Step::Wait => return,
            }
        }
    }

    /// Answers one parsed request: `watch` and memory-resident store hits
    /// here on the loop, everything else by handing it to a worker (the
    /// connection is busy until the completion arrives).
    fn dispatch(&mut self, id: u64, request: Request) {
        self.shared.metrics.requests.inc();
        if let Request::Watch { generation, key } = &request {
            let started = Instant::now();
            match key.as_deref().filter(|key| !is_store_key(key)) {
                // Keyed watches share the store-key namespace with
                // fetches; refuse anything but canonical hex before it
                // becomes a subscription entry.
                Some(bad) => {
                    let reply = self.shared.malformed_key(bad);
                    self.shared.record_request(&request, started);
                    self.push(id, &encode_reply(&reply));
                }
                None => self.watch(id, *generation, key.clone()),
            }
            return;
        }
        // The same isolation a worker gives its requests: a panic costs
        // this connection only.
        let shared = &self.shared;
        match catch_unwind(AssertUnwindSafe(|| shared.answer_from_memory(&request))) {
            Ok(Some(frame)) => self.push(id, &frame),
            Ok(None) => {
                let Some(tx) = &self.jobs_tx else {
                    self.close(id);
                    return;
                };
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.phase = Phase::Busy;
                }
                if tx
                    .send(Job {
                        conn_id: id,
                        request,
                    })
                    .is_err()
                {
                    self.close(id);
                }
            }
            Err(_) => {
                self.shared.metrics.panics.inc();
                self.finish(id);
            }
        }
    }

    /// Queues reply bytes and writes what the socket takes, leaving the
    /// framing to the caller.
    fn push(&mut self, id: u64, bytes: &[u8]) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.wbuf.extend_from_slice(bytes);
        }
        self.write_out(id);
    }

    /// Queues a reply and returns the connection to idle framing.
    fn queue_reply(&mut self, id: u64, reply: &Reply) {
        let bytes = encode_reply(reply);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.wbuf.extend_from_slice(&bytes);
            conn.phase = Phase::Idle;
        }
        self.drain_write(id);
    }

    /// Queues a reply, then closes once it drains.
    fn queue_reply_and_finish(&mut self, id: u64, reply: &Reply) {
        let bytes = encode_reply(reply);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.wbuf.extend_from_slice(&bytes);
        }
        self.finish(id);
    }

    /// Close as soon as pending output drains (now, if nothing pends).
    fn finish(&mut self, id: u64) {
        let close_now = match self.conns.get_mut(&id) {
            Some(conn) => {
                conn.close_after_write = true;
                conn.wpos >= conn.wbuf.len()
            }
            None => return,
        };
        if close_now {
            self.close(id);
        } else {
            self.write_out(id);
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        let Completion {
            conn_id: id,
            bytes,
            after,
        } = completion;
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // the connection died while its request executed
        };
        conn.wbuf.extend_from_slice(&bytes);
        conn.phase = Phase::Idle;
        match after {
            After::Resume => self.drain_write(id),
            After::Close => self.finish(id),
            After::Shutdown => {
                self.finish(id);
                self.shared.begin_shutdown();
            }
        }
    }

    /// A validated `watch`: admission, the ahead/ready fast paths, and
    /// parking — all on the loop thread, so a subscription can only fire
    /// after the connection is actually in `Parked` phase (no
    /// fired-before-parked race is possible). A parked watch's latency
    /// would only measure the park, so it is not recorded.
    fn watch(&mut self, id: u64, seen: u64, key: Option<String>) {
        {
            let Some(conn) = self.conns.get(&id) else {
                return;
            };
            // A client with bytes already in flight behind its watch is
            // breaking the protocol (nothing may be pipelined behind a
            // pending watch); one that hung up gets no subscription.
            if conn.eof || !conn.rbuf.is_empty() {
                self.close(id);
                return;
            }
        }
        match self.shared.store.subscribe(id, key.as_deref(), seen) {
            Subscribed::Ahead { current } => {
                // Only this process issues generations, so an anchor
                // ahead of the store is always a client error (typically
                // a pre-restart anchor replayed after the counter
                // reset).
                let reply = self.shared.error_reply(format!(
                    "watch generation {seen} is ahead of the store (current {current}); \
                     re-anchor from a fresh hello or fetch"
                ));
                self.push(id, &encode_reply(&reply));
            }
            Subscribed::Ready { current } => {
                // Already satisfied: push semantics degrade gracefully
                // to an immediate answer, no parking round-trip.
                let reply = Reply::Generation {
                    generation: current,
                };
                self.push(id, &encode_reply(&reply));
            }
            Subscribed::Parked => {
                let admitted = self
                    .shared
                    .active_watches
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        (n < MAX_PARKED_WATCHES).then_some(n + 1)
                    })
                    .is_ok();
                if admitted {
                    let mut cold = false;
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.phase = Phase::Parked;
                        cold = conn.wpos >= conn.wbuf.len();
                    }
                    if cold {
                        self.hot.remove(&id);
                    }
                } else {
                    self.shared.store.unsubscribe(id);
                    let reply = self.shared.error_reply(format!(
                        "too many concurrent watch requests (limit {MAX_PARKED_WATCHES}); \
                         retry later"
                    ));
                    self.push(id, &encode_reply(&reply));
                }
            }
        }
    }

    /// A store subscription fired: answer the parked watch and return
    /// the connection to its request loop.
    fn fire_watch(&mut self, token: u64, generation: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // closed (and unsubscribed) before we got here
        };
        if conn.phase != Phase::Parked {
            return;
        }
        conn.last_progress = Instant::now();
        self.shared.active_watches.fetch_sub(1, Ordering::SeqCst);
        self.hot.insert(token);
        self.queue_reply(token, &Reply::Generation { generation });
    }

    /// The teardown sequence, run once when the shutdown flag is seen:
    /// stop accepting, fail parked watches in band, close idle
    /// connections, and let in-flight requests finish (their replies
    /// still get written; the job channel closing drains the workers).
    fn start_drain(&mut self) {
        self.draining = true;
        if self.listener.take().is_some() {
            cleanup(&self.shared.endpoint);
        }
        self.jobs_tx = None;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let phase = match self.conns.get(&id) {
                Some(conn) => conn.phase,
                None => continue,
            };
            match phase {
                Phase::Parked => {
                    self.shared.store.unsubscribe(id);
                    self.shared.active_watches.fetch_sub(1, Ordering::SeqCst);
                    self.hot.insert(id);
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.phase = Phase::Idle;
                    }
                    let reply = self
                        .shared
                        .error_reply("server shutting down; watch aborted".to_string());
                    self.queue_reply_and_finish(id, &reply);
                }
                Phase::Idle => self.finish(id),
                // In flight: its completion writes the reply, and the
                // close-after-write set here takes it from there.
                Phase::Busy => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.close_after_write = true;
                    }
                }
            }
        }
    }

    fn close(&mut self, id: u64) {
        self.hot.remove(&id);
        if let Some(conn) = self.conns.remove(&id) {
            if conn.phase == Phase::Parked {
                self.shared.store.unsubscribe(id);
                self.shared.active_watches.fetch_sub(1, Ordering::SeqCst);
            }
            // Dropping `conn` closes the descriptor.
        }
    }
}

/// The policy-distribution server. [`PolicyServer::spawn`] binds and
/// returns a handle; the daemon runs on background threads until
/// shutdown.
pub struct PolicyServer;

impl PolicyServer {
    /// Binds `endpoint` and starts the event loop and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates bind/store errors, and `InvalidData` when
    /// [`ServeOptions::library_dir`] exists but holds a malformed
    /// interface file (a half-loaded library set would silently change
    /// every dynamic store key, so it is refused up front).
    pub fn spawn(endpoint: &Endpoint, options: ServeOptions) -> std::io::Result<ServerHandle> {
        let (listener, resolved) = Listener::bind(endpoint)?;
        listener.set_nonblocking(true)?;
        let store = PolicyStore::open(options.store_dir.as_deref())?;
        let libraries = match &options.library_dir {
            Some(dir) => LibraryStore::load_from_dir(dir)?,
            None => LibraryStore::new(),
        };
        let lib_fingerprint = library_fingerprint(&libraries);
        // Startup auto-invalidation: entries fingerprinted under a
        // *different* library set can never be addressed by this daemon
        // (their keys fold in the old fingerprint), so sweep them now
        // instead of letting them linger on disk until eviction.
        if let Some(fp) = lib_fingerprint.as_deref() {
            let swept = store.sweep_stale_lib_entries(fp);
            if swept > 0 {
                eprintln!(
                    "bside-serve: swept {swept} store entr{} derived against a previous \
                     library set",
                    if swept == 1 { "y" } else { "ies" }
                );
            }
        }
        let threads = options.threads.max(1);
        let registry = options
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(obs::Registry::new()));
        let metrics = ServeMetrics::new(Arc::clone(&registry));
        let mut breaker = CircuitBreaker::new(options.breaker_threshold, options.breaker_cooldown);
        {
            // One pre-registered counter per target state: the observer
            // runs under the breaker lock, so it must not re-enter the
            // registry's registration lock.
            let transitions = [
                registry.counter_with("bside_serve_breaker_transitions_total", &[("to", "closed")]),
                registry.counter_with("bside_serve_breaker_transitions_total", &[("to", "open")]),
                registry.counter_with(
                    "bside_serve_breaker_transitions_total",
                    &[("to", "half_open")],
                ),
            ];
            breaker.set_observer(Box::new(move |to| {
                transitions[to.code() as usize].inc();
            }));
        }
        let pipe = WakePipe::new()?;
        let waker = pipe.waker();
        let shared = Arc::new(Shared {
            store,
            libraries,
            lib_fingerprint,
            flights: FlightTable::default(),
            path_keys: Mutex::new(HashMap::new()),
            active_watches: AtomicU64::new(0),
            options,
            endpoint: resolved,
            shutdown: AtomicBool::new(false),
            waker: waker.clone(),
            metrics,
            breaker,
        });
        // Store mutations that fire a subscription ring the loop.
        {
            let waker = waker.clone();
            shared.store.set_waker(Arc::new(move || waker.wake()));
        }

        let (jobs_tx, jobs_rx) = channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let jobs_rx = Arc::clone(&jobs_rx);
                let completions = Arc::clone(&completions);
                let waker = waker.clone();
                std::thread::spawn(move || worker_loop(&shared, &jobs_rx, &completions, &waker))
            })
            .collect();
        let event_loop = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                EventLoop {
                    shared,
                    listener: Some(listener),
                    pipe,
                    conns: HashMap::new(),
                    next_conn_id: 0,
                    jobs_tx: Some(jobs_tx),
                    completions,
                    poll: PollSet::new(),
                    slots: Vec::new(),
                    hot: std::collections::HashSet::new(),
                    tick_due: Instant::now(),
                    accept_backoff_until: None,
                    draining: false,
                }
                .run()
            })
        };
        Ok(ServerHandle {
            shared,
            event_loop: Some(event_loop),
            workers,
        })
    }
}

/// A handle on a running policy server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The endpoint the server actually listens on (for `tcp:…:0`, the
    /// resolved ephemeral port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// A point-in-time copy of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// The daemon's telemetry registry in Prometheus text exposition
    /// format — the same text the in-band v4 `metrics` request returns.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Watches currently parked on store subscriptions — an API-side
    /// gauge (not on the wire) for embedders and the tests that prove
    /// dead watchers release their slots.
    pub fn parked_watches(&self) -> u64 {
        self.shared.active_watches.load(Ordering::SeqCst)
    }

    /// Initiates shutdown and waits for every thread to exit.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    /// Waits for the server to stop — i.e. for an in-band `shutdown`
    /// request (or a concurrent [`Self::shutdown`] via a clone of the
    /// handle's threads). This is what the `bside serve` daemon blocks on.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        // The event loop exits once every connection is drained; it
        // drops the job sender on the way, which is what releases the
        // workers from their queue.
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    /// Dropping the handle stops the server (RAII for tests and
    /// embedders); a handle consumed by [`Self::join`]/[`Self::shutdown`]
    /// has nothing left to do.
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PolicyBundle;
    use bside_filter::bpf::BpfProgram;
    use bside_filter::{FilterPolicy, PhasePolicy};
    use bside_syscalls::{SyscallSet, Sysno};

    fn bundle(name: &str) -> PolicyBundle {
        let allowed: SyscallSet = ["read", "write", "openat", "exit_group"]
            .iter()
            .filter_map(|n| Sysno::from_name(n))
            .collect();
        let policy = FilterPolicy::allow_only(name, allowed);
        let bpf = BpfProgram::from_policy(&policy);
        PolicyBundle {
            // Quotes and a backslash: escaping must survive the splice.
            binary: name.to_string(),
            policy,
            phases: PhasePolicy {
                binary: name.to_string(),
                phases: vec![allowed, SyscallSet::new()],
                transitions: vec![
                    vec![(Sysno::from_name("execve").expect("execve"), 1)],
                    vec![],
                ],
                initial: 0,
            },
            bpf,
        }
    }

    /// The spliced frame against the canonical encoder, for one entry.
    fn assert_wire_equal(key: &str, source: Source, generation: u64, stored: &StoredBundle) {
        let canonical = encode_reply(&Reply::Policy {
            key: key.to_string(),
            source,
            generation,
            bundle: Box::new((*stored.bundle).clone()),
        });
        let spliced = policy_frame(key, source, generation, &stored.json);
        assert_eq!(
            String::from_utf8_lossy(&spliced),
            String::from_utf8_lossy(&canonical),
            "{source:?} at generation {generation}"
        );
    }

    #[test]
    fn spliced_frames_match_the_encoder_for_every_source_and_generation() {
        let stored = StoredBundle::encode(bundle("we\"ird\\name")).expect("encodes");
        let key = "ab".repeat(32);
        for source in [Source::Store, Source::Analyzed, Source::Coalesced] {
            for generation in [0, 1, 7, 4096, u64::MAX] {
                assert_wire_equal(&key, source, generation, &stored);
            }
        }
    }

    #[test]
    fn a_promoted_pretty_disk_entry_is_spliced_as_compact_json() {
        let dir = std::env::temp_dir().join(format!("bside_frame_pretty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = "cd".repeat(32);
        {
            let store = PolicyStore::open(Some(&dir)).expect("open");
            store.insert(&key, bundle("pretty")).expect("insert");
        }
        // Rewrite the entry by hand, pretty-printed; a fresh store
        // promotes it from disk.
        let pretty = serde_json::to_string_pretty(&bundle("pretty")).expect("pretty");
        std::fs::write(dir.join(format!("{key}.policy.json")), &pretty).expect("rewrite");
        let store = PolicyStore::open(Some(&dir)).expect("reopen");
        assert!(
            store.cached(&key).is_none(),
            "not in memory before promotion"
        );
        let stored = store.load_stored(&key).expect("promoted");
        assert!(
            !stored.json.contains('\n'),
            "the disk formatting never reaches the wire"
        );
        assert_wire_equal(&key, Source::Store, 3, &stored);
        assert!(
            Arc::ptr_eq(
                &store.cached(&key).expect("now in memory").json,
                &stored.json
            ),
            "promotion encodes once; later hits share the bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
