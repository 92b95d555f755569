//! End-to-end tests of the policy-distribution service: daemon + store +
//! protocol + client over real sockets, against a materialized synthetic
//! corpus.
//!
//! The acceptance bar for the serve layer:
//!
//! * 8 concurrent clients × 50 requests against one daemon complete;
//! * fetched policies are **byte-identical** to locally derived ones;
//! * the second fetch of a binary is served from the store without
//!   re-analysis, observable via the reply's `source` metadata;
//! * a panicking handler costs exactly its own connection;
//! * shutdown is graceful and removes the Unix socket file.

use bside_core::AnalyzerOptions;
use bside_gen::corpus::{corpus_with_size, DEFAULT_SEED};
use bside_serve::{
    derive_bundle, Endpoint, PolicyClient, PolicyServer, ServeError, ServeOptions, Source,
};
use std::path::PathBuf;
use std::time::Duration;

/// A per-test scratch directory (pid + tag keeps parallel tests apart).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bside_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Materializes a small static corpus and returns its `(name, path)`
/// units.
fn corpus_units(dir: &std::path::Path, n: usize) -> Vec<(String, PathBuf)> {
    corpus_with_size(DEFAULT_SEED, n, 0, 0)
        .materialize_static(dir)
        .expect("materialize corpus")
}

fn options_with(store_dir: Option<PathBuf>, read_timeout: Duration) -> ServeOptions {
    ServeOptions {
        store_dir,
        threads: 4,
        read_timeout,
        ..ServeOptions::default()
    }
}

#[test]
fn miss_then_hit_with_byte_identical_bundles() {
    let dir = scratch("miss_hit");
    let units = corpus_units(&dir.join("corpus"), 3);
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));
    let server = PolicyServer::spawn(
        &endpoint,
        options_with(Some(dir.join("store")), Duration::from_secs(2)),
    )
    .expect("spawn");

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let (name, path) = &units[0];
    let path_str = path.to_str().expect("utf8 path");

    let first = client.fetch_path(path_str).expect("first fetch");
    assert_eq!(first.source, Source::Analyzed, "store starts cold");
    let second = client.fetch_path(path_str).expect("second fetch");
    assert_eq!(
        second.source,
        Source::Store,
        "second fetch must not re-analyze"
    );
    assert_eq!(first.key, second.key);

    // Byte-identical to a local derivation, through the wire format.
    let bytes = std::fs::read(path).expect("read unit");
    let local =
        derive_bundle(name, &bytes, &AnalyzerOptions::default(), None).expect("derive locally");
    let fetched_json = serde_json::to_string(&second.bundle).expect("serializes");
    let local_json = serde_json::to_string(&local).expect("serializes");
    assert_eq!(fetched_json, local_json, "wire bundle != local derivation");

    // And fetch-by-key returns the very same bytes.
    let by_key = client.fetch_key(&first.key).expect("fetch by key");
    assert_eq!(serde_json::to_string(&by_key.bundle).unwrap(), fetched_json);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.analyses, 1, "one cold analysis total");
    assert!(stats.store_hits >= 2, "hit + by-key hit");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one sample's value out of a Prometheus text exposition body.
/// `sample` is the full series name including any label set, e.g.
/// `bside_serve_requests_total` or
/// `bside_serve_request_duration_us_count{endpoint="policy"}`.
fn prom_value(text: &str, sample: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| {
            l.strip_prefix(sample)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("no sample `{sample}` in:\n{text}"));
    line[sample.len() + 1..]
        .trim()
        .parse()
        .expect("numeric sample value")
}

/// Satellite regression: the legacy v3 `stats` reply and the v4
/// `metrics` reply must agree on every shared counter — both are
/// derived from one registry, and this test pins that contract.
#[test]
fn stats_and_metrics_replies_cannot_drift() {
    let dir = scratch("no_drift");
    let units = corpus_units(&dir.join("corpus"), 3);
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));
    let server = PolicyServer::spawn(
        &endpoint,
        options_with(Some(dir.join("store")), Duration::from_secs(2)),
    )
    .expect("spawn");

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    for (_, path) in &units {
        let path_str = path.to_str().expect("utf8 path");
        client.fetch_path(path_str).expect("cold fetch");
        client.fetch_path(path_str).expect("warm fetch");
    }
    let err = client.fetch_key(&"0".repeat(64)).expect_err("unknown key");
    assert!(matches!(err, ServeError::Server(_)));

    // The wire path works and carries latency distributions the stats
    // snapshot cannot: every request above landed in a histogram.
    let wire_text = client.metrics().expect("metrics over the wire");
    assert!(
        prom_value(
            &wire_text,
            "bside_serve_request_duration_us_count{endpoint=\"policy\"}"
        ) == 6,
        "six policy requests histogrammed"
    );
    assert_eq!(
        prom_value(
            &wire_text,
            "bside_serve_policy_duration_us_count{source=\"store\"}"
        ),
        3,
        "three warm fetches landed in the store-hit histogram"
    );

    // Quiesce (no requests in flight), then read both renderings via
    // the handle and compare every shared counter.
    let stats = server.stats();
    let text = server.metrics_text();
    let shared = [
        ("bside_serve_connections_total", stats.connections),
        ("bside_serve_requests_total", stats.requests),
        ("bside_serve_store_hits_total", stats.store_hits),
        ("bside_serve_analyses_total", stats.analyses),
        ("bside_serve_coalesced_total", stats.coalesced),
        ("bside_serve_invalidations_total", stats.invalidations),
        ("bside_serve_bytes_read_total", stats.bytes_read),
        ("bside_serve_errors_total", stats.errors),
        ("bside_serve_panics_total", stats.panics),
        ("bside_serve_degraded_total", stats.degraded),
        ("bside_serve_store_entries", stats.store_entries),
        ("bside_serve_generation", stats.generation),
        ("bside_serve_breaker_state", stats.breaker_state),
    ];
    for (name, stats_value) in shared {
        assert_eq!(
            prom_value(&text, name),
            stats_value,
            "stats and metrics disagree on {name}"
        );
    }
    // Sanity on absolute values so "both zero forever" can't pass.
    assert_eq!(stats.analyses, 3);
    assert_eq!(stats.store_hits, 3);
    assert_eq!(stats.errors, 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eight_concurrent_clients_times_fifty_requests() {
    let dir = scratch("concurrent");
    let units = corpus_units(&dir.join("corpus"), 5);
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));
    let server = PolicyServer::spawn(
        &endpoint,
        options_with(Some(dir.join("store")), Duration::from_secs(5)),
    )
    .expect("spawn");

    // Expected bundles, derived locally once (also warms the store so
    // the concurrent phase can assert pure store service).
    let mut expected_json: Vec<String> = Vec::new();
    {
        let mut warm = PolicyClient::connect(server.endpoint()).expect("connect");
        for (name, path) in &units {
            let fetch = warm
                .fetch_path(path.to_str().expect("utf8"))
                .expect("warm fetch");
            assert_eq!(fetch.source, Source::Analyzed);
            let bytes = std::fs::read(path).expect("read unit");
            let local = derive_bundle(name, &bytes, &AnalyzerOptions::default(), None)
                .expect("derive locally");
            let local_json = serde_json::to_string(&local).expect("serializes");
            assert_eq!(
                serde_json::to_string(&fetch.bundle).unwrap(),
                local_json,
                "{name}: fetched != derived"
            );
            expected_json.push(local_json);
        }
    }

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 50;
    std::thread::scope(|scope| {
        let units = &units;
        let expected_json = &expected_json;
        let server = &server;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        PolicyClient::connect(server.endpoint()).expect("client connects");
                    for r in 0..REQUESTS {
                        let i = (c + r) % units.len();
                        let (name, path) = &units[i];
                        let fetch = client
                            .fetch_path(path.to_str().expect("utf8"))
                            .unwrap_or_else(|e| panic!("client {c} request {r}: {e}"));
                        assert_eq!(
                            fetch.source,
                            Source::Store,
                            "client {c} request {r} ({name}): store was warm"
                        );
                        assert_eq!(
                            &serde_json::to_string(&fetch.bundle).unwrap(),
                            &expected_json[i],
                            "client {c} request {r} ({name}): bundle diverged"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    let stats = server.stats();
    assert_eq!(
        stats.analyses,
        units.len() as u64,
        "the concurrent phase must be analysis-free"
    );
    assert_eq!(
        stats.requests,
        (CLIENTS * REQUESTS + units.len()) as u64,
        "every request was counted"
    );
    assert_eq!(stats.panics, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_handler_costs_only_its_connection() {
    let dir = scratch("panic");
    let units = corpus_units(&dir.join("corpus"), 2);
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));
    let mut options = options_with(None, Duration::from_secs(2));
    options.panic_on_substr = Some("poison-pill".to_string());
    let server = PolicyServer::spawn(&endpoint, options).expect("spawn");

    // The fault hook fires mid-analysis, so the poisoned path must be a
    // real readable binary (the panic is the cold-analysis fault model).
    let poison = dir.join("poison-pill.elf");
    std::fs::copy(&units[1].1, &poison).expect("copy poison unit");

    // The poisoned request kills its own connection: the client sees EOF.
    let mut victim = PolicyClient::connect(server.endpoint()).expect("connect");
    let err = victim
        .fetch_path(poison.to_str().expect("utf8"))
        .expect_err("handler panicked");
    assert!(
        matches!(err, ServeError::Io(_)),
        "expected dropped connection, got {err}"
    );

    // The daemon (and a fresh connection) keep working.
    let mut survivor = PolicyClient::connect(server.endpoint()).expect("reconnect");
    survivor.ping().expect("server alive");
    let fetch = survivor
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("normal request still served");
    assert_eq!(fetch.source, Source::Analyzed);
    // The victim saw EOF mid-unwind, before the worker's catch_unwind
    // returned and bumped the counter — wait for it to land instead of
    // racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().panics < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.stats().panics, 1, "the panic was counted");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    let dir = scratch("tcp");
    let units = corpus_units(&dir.join("corpus"), 2);
    let server = PolicyServer::spawn(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        options_with(None, Duration::from_secs(2)),
    )
    .expect("spawn on ephemeral port");
    let Endpoint::Tcp(addr) = server.endpoint() else {
        panic!("resolved endpoint must be tcp");
    };
    assert!(!addr.ends_with(":0"), "port resolved: {addr}");

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let fetch = client
        .fetch_path(units[1].1.to_str().expect("utf8"))
        .expect("fetch over tcp");
    assert_eq!(fetch.source, Source::Analyzed);
    let again = client.fetch_key(&fetch.key).expect("by key over tcp");
    assert_eq!(
        serde_json::to_string(&again.bundle).unwrap(),
        serde_json::to_string(&fetch.bundle).unwrap()
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A TCP policy client's round trip must not wait on a delayed ACK: a
/// request written in pieces behind Nagle's algorithm costs ~40 ms a
/// ping on Linux, against well under a millisecond when each frame is
/// one write on a `TCP_NODELAY` socket. Median, so one scheduler hiccup
/// cannot fail the run.
#[test]
fn tcp_ping_median_is_under_5ms() {
    let server = PolicyServer::spawn(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        options_with(None, Duration::from_secs(2)),
    )
    .expect("spawn on ephemeral port");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let mut samples: Vec<Duration> = (0..60)
        .map(|_| {
            let start = std::time::Instant::now();
            client.ping().expect("ping over tcp");
            start.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median tcp ping {median:?} (a frame is waiting on a delayed ACK)"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn in_band_shutdown_is_graceful_and_cleans_the_socket() {
    let dir = scratch("shutdown");
    let socket = dir.join("bside.sock");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(socket.clone()),
        options_with(None, Duration::from_millis(300)),
    )
    .expect("spawn");
    assert!(socket.exists(), "socket bound");

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    client.shutdown_server().expect("acknowledged");
    // join returns because the in-band request triggered shutdown.
    server.join();
    assert!(!socket.exists(), "socket file removed on shutdown");
    // New connections are refused now.
    assert!(
        PolicyClient::connect(&Endpoint::Unix(socket)).is_err(),
        "daemon is gone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_a_daemon_restart() {
    let dir = scratch("restart");
    let units = corpus_units(&dir.join("corpus"), 2);
    let store_dir = dir.join("store");
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));
    let path_str = units[0].1.to_str().expect("utf8").to_string();

    let first_key;
    {
        let server = PolicyServer::spawn(
            &endpoint,
            options_with(Some(store_dir.clone()), Duration::from_secs(2)),
        )
        .expect("first daemon");
        let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
        let fetch = client.fetch_path(&path_str).expect("cold fetch");
        assert_eq!(fetch.source, Source::Analyzed);
        first_key = fetch.key;
        server.shutdown();
    }

    let server = PolicyServer::spawn(
        &endpoint,
        options_with(Some(store_dir), Duration::from_secs(2)),
    )
    .expect("second daemon");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let fetch = client.fetch_path(&path_str).expect("warm fetch");
    assert_eq!(
        fetch.source,
        Source::Store,
        "restart must not lose the store"
    );
    assert_eq!(fetch.key, first_key, "stable content address");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_replies_keep_the_connection_alive() {
    let dir = scratch("errors");
    let units = corpus_units(&dir.join("corpus"), 1);
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        options_with(None, Duration::from_secs(2)),
    )
    .expect("spawn");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");

    let err = client
        .fetch_path("/nonexistent/binary.elf")
        .expect_err("unreadable file");
    assert!(
        matches!(&err, ServeError::Server(m) if m.contains("reading")),
        "got {err}"
    );
    let err = client.fetch_key(&"fe".repeat(32)).expect_err("unknown key");
    assert!(
        matches!(&err, ServeError::Server(m) if m.contains("no stored policy")),
        "got {err}"
    );
    // Client-supplied keys that are not canonical SHA-256 hex never
    // reach the filesystem layer — including path-traversal attempts.
    for bad in ["feed", "../../../etc/passwd", &"FE".repeat(32)] {
        let err = client.fetch_key(bad).expect_err("malformed key");
        assert!(
            matches!(&err, ServeError::Server(m) if m.contains("malformed policy key")),
            "{bad}: got {err}"
        );
        let err = client.invalidate(bad).expect_err("malformed key");
        assert!(
            matches!(&err, ServeError::Server(m) if m.contains("malformed policy key")),
            "{bad}: got {err}"
        );
    }
    // Garbage on disk is an error reply, not a crash.
    let junk = dir.join("junk.elf");
    std::fs::write(&junk, b"definitely not an elf").unwrap();
    let err = client
        .fetch_path(junk.to_str().unwrap())
        .expect_err("junk bytes");
    assert!(
        matches!(&err, ServeError::Server(m) if m.contains("parsing")),
        "got {err}"
    );

    // After all those error replies, the same connection still serves.
    let fetch = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("connection survived the errors");
    assert_eq!(fetch.source, Source::Analyzed);
    assert_eq!(server.stats().errors, 9);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hit path reads the request payload exactly once over its
/// lifetime: the first fetch reads (and hashes) the file, every repeat
/// fetch resolves the store key through the `(len, mtime)` memo and the
/// `bytes_read` counter stays flat. A changed file re-reads.
#[test]
fn store_hits_do_not_reread_the_binary() {
    let dir = scratch("bytes");
    let units = corpus_units(&dir.join("corpus"), 2);
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        options_with(None, Duration::from_secs(2)),
    )
    .expect("spawn");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");

    let (_, path) = &units[0];
    let path_str = path.to_str().expect("utf8");
    let len = std::fs::metadata(path).expect("unit metadata").len();

    let first = client.fetch_path(path_str).expect("cold fetch");
    assert_eq!(first.source, Source::Analyzed);
    assert_eq!(
        server.stats().bytes_read,
        len,
        "the cold path reads the file once"
    );

    for _ in 0..3 {
        let hit = client.fetch_path(path_str).expect("warm fetch");
        assert_eq!(hit.source, Source::Store);
        assert_eq!(hit.key, first.key);
    }
    let stats = server.stats();
    assert_eq!(
        stats.bytes_read, len,
        "hit-path fetches must not re-read the payload"
    );
    assert_eq!(stats.store_hits, 3);

    // Rewriting the file (different bytes, hence different length)
    // invalidates the memo: the next fetch re-reads and re-analyzes.
    let other = std::fs::read(&units[1].1).expect("other unit");
    assert_ne!(other.len() as u64, len, "distinct corpus binaries differ");
    std::fs::write(path, &other).expect("rewrite unit");
    let refreshed = client.fetch_path(path_str).expect("refetch");
    assert_eq!(
        refreshed.source,
        Source::Analyzed,
        "changed file re-analyzes"
    );
    assert_ne!(refreshed.key, first.key, "changed bytes change the key");
    assert_eq!(
        server.stats().bytes_read,
        len + other.len() as u64,
        "exactly one more read"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dynamically linked binary (non-empty `DT_NEEDED`) is served through
/// the daemon's `LibraryStore` and the wire bundle is byte-identical to
/// a local `analyze_dynamic`-based derivation; its store key differs
/// from the static scheme (the library-set fingerprint is mixed in).
#[test]
fn dynamic_binary_bundle_matches_local_derivation() {
    use bside_core::Analyzer;
    let dir = scratch("dynamic");
    let corpus = corpus_with_size(DEFAULT_SEED, 0, 2, 3);
    let (units, _libs) = corpus
        .materialize(&dir.join("corpus"))
        .expect("materialize");

    // The §4.5 once-per-library phase: analyze the pool into interfaces
    // on disk — exactly what `bside interface` produces for the daemon.
    let analyzer = Analyzer::new(AnalyzerOptions::default());
    let lib_refs: Vec<(&str, &bside_elf::Elf)> = corpus
        .libraries
        .iter()
        .map(|l| (l.spec.name.as_str(), &l.elf))
        .collect();
    let store = analyzer.analyze_libraries(&lib_refs).expect("libraries");
    let iface_dir = dir.join("ifaces");
    store.save_to_dir(&iface_dir).expect("save interfaces");

    let mut options = options_with(Some(dir.join("store")), Duration::from_secs(5));
    options.library_dir = Some(iface_dir);
    let server =
        PolicyServer::spawn(&Endpoint::Unix(dir.join("bside.sock")), options).expect("spawn");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");

    let (name, path) = &units[0];
    assert!(
        !corpus.binaries[0].program.elf.needed_libraries().is_empty(),
        "unit 0 must be dynamic"
    );
    let first = client
        .fetch_path(path.to_str().expect("utf8"))
        .expect("dynamic fetch");
    assert_eq!(first.source, Source::Analyzed);

    // Byte-stable: a second fetch (store path) returns identical JSON.
    let second = client
        .fetch_path(path.to_str().expect("utf8"))
        .expect("warm dynamic fetch");
    assert_eq!(second.source, Source::Store);
    assert_eq!(
        serde_json::to_string(&first.bundle).unwrap(),
        serde_json::to_string(&second.bundle).unwrap()
    );

    // Matches the local analyze_dynamic-based derivation byte for byte.
    let bytes = std::fs::read(path).expect("read unit");
    let local = derive_bundle(name, &bytes, &AnalyzerOptions::default(), Some(&store))
        .expect("derive locally");
    assert_eq!(
        serde_json::to_string(&first.bundle).unwrap(),
        serde_json::to_string(&local).unwrap(),
        "wire bundle != local dynamic derivation"
    );

    // The key covers the library set: it is not the static-scheme key.
    use bside_serve::{library_fingerprint, PolicyStore};
    let fp = library_fingerprint(&store).expect("non-empty store");
    assert_eq!(
        first.key,
        PolicyStore::key_with_libs(&bytes, &AnalyzerOptions::default(), Some(&fp))
    );
    assert_ne!(
        first.key,
        PolicyStore::key(&bytes, &AnalyzerOptions::default())
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `--lib-dir`, a dynamic binary is refused in band (connection
/// survives) with a message pointing at the fix.
#[test]
fn dynamic_binary_without_library_dir_is_an_in_band_error() {
    let dir = scratch("dynamic_refused");
    let corpus = corpus_with_size(DEFAULT_SEED, 0, 1, 2);
    let (units, _) = corpus
        .materialize(&dir.join("corpus"))
        .expect("materialize");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        options_with(None, Duration::from_secs(2)),
    )
    .expect("spawn");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let err = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect_err("dynamic without libs");
    assert!(
        matches!(&err, ServeError::Server(m) if m.contains("--lib-dir")),
        "got {err}"
    );
    client.ping().expect("connection survived");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The generation/watch contract: every mutation bumps a monotonic
/// counter surfaced in replies, `invalidate` forces a re-analysis, and a
/// `watch` blocked on the old generation is woken by the re-analysis —
/// push, not polling.
#[test]
fn watch_observes_invalidation_and_reanalysis_without_polling() {
    let dir = scratch("watch");
    let units = corpus_units(&dir.join("corpus"), 1);
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        options_with(Some(dir.join("store")), Duration::from_secs(5)),
    )
    .expect("spawn");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    assert_eq!(client.generation_at_connect(), 0, "fresh store");
    let path_str = units[0].1.to_str().expect("utf8");

    let first = client.fetch_path(path_str).expect("cold fetch");
    assert_eq!(first.source, Source::Analyzed);
    assert_eq!(first.generation, 1, "the insert was the first mutation");

    // Unknown (but well-formed) keys do not bump the generation.
    let (removed, generation) = client
        .invalidate(&"feedbeef".repeat(8))
        .expect("invalidate miss");
    assert!(!removed);
    assert_eq!(generation, 1);

    // A real invalidation bumps it and empties the store entry.
    let (removed, g_invalidated) = client.invalidate(&first.key).expect("invalidate hit");
    assert!(removed);
    assert_eq!(g_invalidated, 2);
    let err = client.fetch_key(&first.key).expect_err("entry gone");
    assert!(matches!(&err, ServeError::Server(m) if m.contains("no stored policy")));

    // A watcher anchored on the post-invalidation generation blocks until
    // the re-analysis lands, then reports the new generation.
    let watcher = {
        let endpoint = server.endpoint().clone();
        std::thread::spawn(move || {
            let mut watcher = PolicyClient::connect(&endpoint).expect("watcher connects");
            assert_eq!(watcher.generation_at_connect(), g_invalidated);
            watcher
                .wait_for_generation(g_invalidated)
                .expect("watch fires")
        })
    };
    // Give the watcher time to actually block inside the server.
    std::thread::sleep(Duration::from_millis(200));
    let refetched = client.fetch_path(path_str).expect("re-fetch");
    assert_eq!(
        refetched.source,
        Source::Analyzed,
        "invalidation forced re-analysis"
    );
    assert_eq!(refetched.key, first.key, "same bytes, same address");
    assert_eq!(refetched.generation, 3);
    assert_eq!(
        watcher.join().expect("watcher thread"),
        3,
        "watch woke on the re-analysis generation"
    );
    assert_eq!(
        serde_json::to_string(&refetched.bundle).unwrap(),
        serde_json::to_string(&first.bundle).unwrap(),
        "re-analysis reproduces the bundle"
    );
    let stats = server.stats();
    assert_eq!(stats.invalidations, 1);
    assert_eq!(stats.generation, 3);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A blocked watch parks on the watcher thread instead of occupying a
/// pool worker: even a **single-threaded** daemon serves a watch plus
/// the very mutation that wakes it — the configuration that used to be
/// rejected as a self-deadlock. After the watch fires, the watcher's
/// connection resumes in the pool and keeps serving requests.
#[test]
fn blocked_watch_frees_its_pool_worker_even_on_a_single_thread_daemon() {
    let dir = scratch("watch_park");
    let units = corpus_units(&dir.join("corpus"), 1);
    let mut options = options_with(None, Duration::from_secs(5));
    options.threads = 1; // the lone worker must stay available
    let server =
        PolicyServer::spawn(&Endpoint::Unix(dir.join("bside.sock")), options).expect("spawn");

    // The watcher blocks server-side — parked, not holding the worker.
    let blocked = {
        let endpoint = server.endpoint().clone();
        std::thread::spawn(move || {
            let mut watcher = PolicyClient::connect(&endpoint).expect("watcher connects");
            let generation = watcher.wait_for_generation(0).expect("eventually fires");
            // The resumed connection is fully alive: it serves more
            // requests from the pool after un-parking.
            watcher.ping().expect("resumed connection still serves");
            let stats = watcher.stats().expect("and richer requests too");
            (generation, stats.generation)
        })
    };
    std::thread::sleep(Duration::from_millis(300));

    // The single worker serves the mutation while the watch waits.
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let fetch = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("mutation served by the lone worker");
    assert_eq!(fetch.source, Source::Analyzed);
    let (woke_at, stats_generation) = blocked.join().expect("watcher thread");
    assert_eq!(woke_at, fetch.generation, "watch woke on the mutation");
    assert_eq!(stats_generation, fetch.generation);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Many more concurrent watchers than pool workers, all parked at once,
/// all woken by one mutation — the old `threads - 1` admission cap is
/// gone because watches no longer consume what they were capped against.
#[test]
fn watchers_can_outnumber_pool_workers() {
    let dir = scratch("watch_many");
    let units = corpus_units(&dir.join("corpus"), 1);
    let mut options = options_with(None, Duration::from_secs(10));
    options.threads = 2; // old cap would have admitted exactly 1 watch
    let server =
        PolicyServer::spawn(&Endpoint::Unix(dir.join("bside.sock")), options).expect("spawn");

    const WATCHERS: usize = 6;
    let handles: Vec<_> = (0..WATCHERS)
        .map(|_| {
            let endpoint = server.endpoint().clone();
            std::thread::spawn(move || {
                let mut watcher = PolicyClient::connect(&endpoint).expect("watcher connects");
                watcher.wait_for_generation(0).expect("fires")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(400));

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let fetch = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("mutation served while 6 watches wait");
    for handle in handles {
        assert_eq!(
            handle.join().expect("watcher thread"),
            fetch.generation,
            "every parked watcher woke on the one mutation"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Startup auto-invalidation: a daemon that loads a `--lib-dir` whose
/// fingerprint differs from what on-disk entries were derived against
/// sweeps those entries at spawn — re-analyzed interfaces would never
/// address them again, so they must not linger. Static entries (and
/// entries under the current set) survive untouched.
#[test]
fn restart_with_changed_interfaces_sweeps_stale_lib_entries() {
    use bside_core::{Analyzer, SharedInterface};
    let dir = scratch("lib_sweep");
    let corpus = corpus_with_size(DEFAULT_SEED, 1, 1, 2);
    let (units, _libs) = corpus
        .materialize(&dir.join("corpus"))
        .expect("materialize");
    let store_dir = dir.join("store");
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));

    // The original §4.5 interface set.
    let analyzer = Analyzer::new(AnalyzerOptions::default());
    let lib_refs: Vec<(&str, &bside_elf::Elf)> = corpus
        .libraries
        .iter()
        .map(|l| (l.spec.name.as_str(), &l.elf))
        .collect();
    let interfaces = analyzer.analyze_libraries(&lib_refs).expect("libraries");
    let iface_a = dir.join("ifaces_a");
    interfaces.save_to_dir(&iface_a).expect("save set A");

    // Locate the corpus units by linkage.
    let is_dynamic: Vec<bool> = corpus
        .binaries
        .iter()
        .map(|b| !b.program.elf.needed_libraries().is_empty())
        .collect();
    let dyn_unit = units
        .iter()
        .zip(&is_dynamic)
        .find(|(_, d)| **d)
        .expect("a dynamic unit")
        .0;
    let static_unit = units
        .iter()
        .zip(&is_dynamic)
        .find(|(_, d)| !**d)
        .expect("a static unit")
        .0;

    // Daemon 1: populate one dynamic (lib-fingerprinted, sidecar'd) and
    // one static entry.
    let (dyn_key, static_key) = {
        let mut options = options_with(Some(store_dir.clone()), Duration::from_secs(5));
        options.library_dir = Some(iface_a);
        let server = PolicyServer::spawn(&endpoint, options).expect("daemon 1");
        let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
        let dyn_fetch = client
            .fetch_path(dyn_unit.1.to_str().expect("utf8"))
            .expect("dynamic fetch");
        let static_fetch = client
            .fetch_path(static_unit.1.to_str().expect("utf8"))
            .expect("static fetch");
        server.shutdown();
        (dyn_fetch.key, static_fetch.key)
    };
    assert!(store_dir.join(format!("{dyn_key}.policy.json")).exists());
    assert!(
        store_dir.join(format!("{dyn_key}.libfp")).exists(),
        "dynamic entry records its library-set fingerprint"
    );
    assert!(store_dir.join(format!("{static_key}.policy.json")).exists());
    assert!(
        !store_dir.join(format!("{static_key}.libfp")).exists(),
        "static entries carry no fingerprint"
    );

    // Interface set B: the same libraries plus one more — a different
    // fingerprint, as after a library upgrade and re-analysis.
    let mut changed = bside_core::LibraryStore::new();
    for iface in interfaces.interfaces() {
        changed.insert(iface.clone());
    }
    changed.insert(SharedInterface {
        library: "libextra.so".to_string(),
        exports: Default::default(),
        wrappers: vec![],
        addresses_taken: vec![],
        function_cfg: Default::default(),
    });
    let iface_b = dir.join("ifaces_b");
    changed.save_to_dir(&iface_b).expect("save set B");

    // Daemon 2 sweeps the stale dynamic entry at spawn; the static one
    // survives and still serves from the store.
    let mut options = options_with(Some(store_dir.clone()), Duration::from_secs(5));
    options.library_dir = Some(iface_b);
    let server = PolicyServer::spawn(&endpoint, options).expect("daemon 2");
    assert!(
        !store_dir.join(format!("{dyn_key}.policy.json")).exists(),
        "stale lib-fingerprinted entry swept at startup"
    );
    assert!(
        !store_dir.join(format!("{dyn_key}.libfp")).exists(),
        "its sidecar went with it"
    );
    assert!(
        store_dir.join(format!("{static_key}.policy.json")).exists(),
        "static entry untouched by the sweep"
    );
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let static_again = client
        .fetch_path(static_unit.1.to_str().expect("utf8"))
        .expect("static fetch");
    assert_eq!(static_again.source, Source::Store, "static entry survived");
    let dyn_again = client
        .fetch_path(dyn_unit.1.to_str().expect("utf8"))
        .expect("dynamic re-fetch");
    assert_eq!(
        dyn_again.source,
        Source::Analyzed,
        "dynamic binary re-analyzed under the new set"
    );
    assert_ne!(dyn_again.key, dyn_key, "new set, new address");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watcher whose client hangs up is detected by the watcher thread's
/// liveness probe and its parked slot is released — 1024 connect-watch-
/// disconnect cycles must not exhaust the parked-watch capacity on a
/// store that never mutates.
#[test]
fn dead_watchers_release_their_parked_slots() {
    let dir = scratch("watch_gone");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        options_with(None, Duration::from_secs(5)),
    )
    .expect("spawn");

    for round in 0..3 {
        let mut raw = bside_serve::Conn::connect(server.endpoint()).expect("raw dial");
        {
            use std::io::{BufRead, Read, Write};
            // Consume the hello line, then send a watch and hang up.
            let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
            let mut hello = String::new();
            reader.read_line(&mut hello).expect("hello line");
            raw.write_all(b"{\"type\":\"watch\",\"generation\":0}\n")
                .expect("watch request");
            raw.flush().expect("flush");
            // Wait until the server parked it.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while server.parked_watches() == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(server.parked_watches(), 1, "round {round}: watch parked");
            let _ = raw.shutdown_both();
            let _ = Read::read(&mut reader, &mut [0u8; 1]);
        }
        drop(raw); // client gone; the probe must notice without any mutation
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.parked_watches() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.parked_watches(),
            0,
            "round {round}: dead watcher released its slot without a store mutation"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
