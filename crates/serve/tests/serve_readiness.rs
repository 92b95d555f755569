//! Regression tests for the readiness-loop serve core: per-key watch
//! isolation on the wire and wake-to-reply latency bounded by the event
//! loop (not a polling slice). Spawn/shutdown cycling lives in
//! `serve_fd_cycles.rs`, its own test binary, because it counts the
//! whole process's descriptors.

use bside_serve::{Endpoint, PolicyClient, PolicyServer, ServeOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bside_serve_rd_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn corpus_units(dir: &std::path::Path, n: usize) -> Vec<(String, PathBuf)> {
    bside_gen::corpus::corpus_with_size(bside_gen::corpus::DEFAULT_SEED, n, 0, 0)
        .materialize_static(dir)
        .expect("materialize corpus")
}

fn options(read_timeout: Duration) -> ServeOptions {
    ServeOptions {
        threads: 2,
        read_timeout,
        ..ServeOptions::default()
    }
}

/// Blocks (bounded) until the server reports exactly `n` parked watches.
fn await_parked(server: &bside_serve::ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.parked_watches() != n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.parked_watches(), n, "parked watches settled");
}

/// The per-key contract over real sockets: a watcher subscribed to key A
/// sleeps through arbitrarily many mutations of key B, and fires only
/// when A itself is mutated.
#[test]
fn keyed_watch_ignores_mutations_of_other_keys() {
    let dir = scratch("keyed_isolation");
    let units = corpus_units(&dir.join("corpus"), 2);
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));
    let server = PolicyServer::spawn(&endpoint, options(Duration::from_secs(10))).expect("spawn");

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let a = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("insert A");
    let b = client
        .fetch_path(units[1].1.to_str().expect("utf8"))
        .expect("insert B");
    assert_ne!(a.key, b.key);

    let (tx, rx) = std::sync::mpsc::channel();
    let watcher = {
        let endpoint = server.endpoint().clone();
        let key = a.key.clone();
        let seen = b.generation; // current store generation
        std::thread::spawn(move || {
            let mut watcher = PolicyClient::connect(&endpoint).expect("watcher connects");
            let generation = watcher.wait_for_key(&key, seen).expect("keyed watch fires");
            tx.send(generation).expect("report wake");
        })
    };
    await_parked(&server, 1);

    // Mutations of B (invalidate, then re-insert) must not wake A's
    // watcher — it stays parked through both.
    let (removed, g_b_gone) = client.invalidate(&b.key).expect("invalidate B");
    assert!(removed);
    let b2 = client
        .fetch_path(units[1].1.to_str().expect("utf8"))
        .expect("re-insert B");
    assert!(b2.generation > g_b_gone);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(300)),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "watcher on A must sleep through B's mutations"
    );
    assert_eq!(server.parked_watches(), 1, "still parked");

    // Mutating A itself fires the watch with the landed generation.
    let (removed, g_a_gone) = client.invalidate(&a.key).expect("invalidate A");
    assert!(removed);
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5))
            .expect("wake arrives"),
        g_a_gone
    );
    watcher.join().expect("watcher thread");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wake-to-reply latency is one event-loop turn, not a polling slice:
/// the pre-v5 watcher thread rescanned parked watches every 100 ms, so
/// a wake could sit for a full slice before its reply moved. The
/// subscription path must beat that slice comfortably, every time.
#[test]
fn wake_latency_is_loop_bound_not_a_polling_slice() {
    let dir = scratch("wake_latency");
    let units = corpus_units(&dir.join("corpus"), 1);
    let endpoint = Endpoint::Unix(dir.join("bside.sock"));
    let server = PolicyServer::spawn(&endpoint, options(Duration::from_secs(10))).expect("spawn");

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let first = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("insert");

    let mut worst = Duration::ZERO;
    for round in 0..5 {
        let (tx, rx) = std::sync::mpsc::channel();
        let watcher = {
            let endpoint = server.endpoint().clone();
            let key = first.key.clone();
            std::thread::spawn(move || {
                let mut watcher = PolicyClient::connect(&endpoint).expect("watcher connects");
                let seen = watcher.generation_at_connect();
                let generation = watcher.wait_for_key(&key, seen).expect("fires");
                tx.send(Instant::now()).expect("stamp");
                generation
            })
        };
        await_parked(&server, 1);
        let fired_at = Instant::now();
        // Alternate invalidate / re-insert so every round mutates the key.
        if round % 2 == 0 {
            client.invalidate(&first.key).expect("invalidate");
        } else {
            client
                .fetch_path(units[0].1.to_str().expect("utf8"))
                .expect("re-insert");
        }
        let woke_at = rx.recv_timeout(Duration::from_secs(5)).expect("wake");
        watcher.join().expect("watcher thread");
        worst = worst.max(woke_at.duration_since(fired_at));
    }
    assert!(
        worst < Duration::from_millis(75),
        "worst wake-to-reply latency {worst:?} is polling-slice territory (old slice: 100ms)"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
