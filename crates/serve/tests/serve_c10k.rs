//! The C10k acceptance suite: a two-thread daemon holding a thousand-plus
//! parked keyed watches while active clients hammer the store-hit path.
//!
//! The readiness loop's whole reason to exist: parked connections cost a
//! map entry and an fd — no thread, no worker slot — so idle mass must
//! not tax active throughput, and a targeted invalidate must wake
//! exactly its subscribers (one loop turn, no broadcast scan storms).
//!
//! Watchers here speak the raw NDJSON protocol over plain sockets (no
//! client thread per watcher), which is also how a real enforcement
//! agent fleet looks to the daemon: thousands of sockets, almost all of
//! them silent.

use bside_serve::{Endpoint, PolicyClient, PolicyServer, ServeOptions, Source};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two tests each park a thousand-plus sockets and load both CPUs;
/// run concurrently, one skews the other's throughput measurement.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bside_serve_c10k_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn corpus_units(dir: &std::path::Path, n: usize) -> Vec<(String, PathBuf)> {
    bside_gen::corpus::corpus_with_size(bside_gen::corpus::DEFAULT_SEED, n, 0, 0)
        .materialize_static(dir)
        .expect("materialize corpus")
}

/// A raw protocol watcher: hello consumed, keyed `watch` sent, reply not
/// yet read — i.e. parked server-side, costing the daemon one fd.
struct RawWatcher {
    reader: BufReader<UnixStream>,
}

impl RawWatcher {
    fn park(socket: &std::path::Path, key: &str, seen: u64) -> RawWatcher {
        let stream = UnixStream::connect(socket).expect("watcher connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream);
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello");
        assert!(hello.contains("\"hello\""), "got: {hello}");
        let frame = format!("{{\"type\":\"watch\",\"generation\":{seen},\"key\":\"{key}\"}}\n");
        reader
            .get_mut()
            .write_all(frame.as_bytes())
            .expect("send watch");
        RawWatcher { reader }
    }

    /// Blocks (up to the socket's read timeout) for the wake reply.
    fn wake(&mut self) -> u64 {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("wake reply");
        assert!(line.contains("\"generation\""), "got: {line}");
        let tail = line
            .split("\"generation\":")
            .nth(1)
            .expect("generation field");
        tail.trim_end_matches(|c: char| !c.is_ascii_digit())
            .trim()
            .trim_end_matches('}')
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .expect("digits")
            .parse()
            .expect("numeric generation")
    }

    /// True when no reply has arrived (a nonblocking probe).
    fn silent(&mut self) -> bool {
        let stream = self.reader.get_mut();
        stream.set_nonblocking(true).expect("nonblocking");
        let mut probe = [0u8; 1];
        let silent = match std::io::Read::read(stream, &mut probe) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
            other => panic!("expected a silent socket, got {other:?}"),
        };
        stream.set_nonblocking(false).expect("blocking again");
        silent
    }
}

/// Runs `threads × rounds` store-hit fetches against the daemon and
/// returns the wall time for the whole batch.
fn hammer(endpoint: &Endpoint, path: &str, threads: usize, rounds: usize) -> Duration {
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let endpoint = endpoint.clone();
            let path = path.to_string();
            std::thread::spawn(move || {
                let mut client = PolicyClient::connect(&endpoint).expect("client connects");
                for _ in 0..rounds {
                    let fetch = client.fetch_path(&path).expect("store hit");
                    assert_eq!(fetch.source, Source::Store);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    started.elapsed()
}

fn await_parked(server: &bside_serve::ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.parked_watches() != n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.parked_watches(), n, "parked watches settled");
}

/// The headline number: ≥1000 parked keyed watches on a `--threads 2`
/// daemon, and the active store-hit path keeps ≥90% of its idle-free
/// throughput. Then one targeted invalidate wakes all thousand.
#[test]
fn thousand_parked_keyed_watches_keep_active_throughput() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("throughput");
    let units = corpus_units(&dir.join("corpus"), 1);
    let socket = dir.join("bside.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let options = ServeOptions {
        threads: 2,
        read_timeout: Duration::from_secs(10),
        ..ServeOptions::default()
    };
    let server = PolicyServer::spawn(&endpoint, options.clone()).expect("spawn");
    // An identical daemon that never gets a watcher: the reference the
    // watched daemon's throughput is compared against.
    let reference =
        PolicyServer::spawn(&Endpoint::Unix(dir.join("reference.sock")), options).expect("spawn");
    let path = units[0].1.to_str().expect("utf8");

    // Populate both stores and warm every cache layer.
    let first = PolicyClient::connect(server.endpoint())
        .and_then(|mut c| c.fetch_path(path))
        .expect("cold fetch");
    PolicyClient::connect(reference.endpoint())
        .and_then(|mut c| c.fetch_path(path))
        .expect("reference cold fetch");
    for daemon in [&server, &reference] {
        let _ = hammer(daemon.endpoint(), path, 2, 25);
    }

    // Park 1100 keyed watchers — each one fd on the daemon, zero threads.
    const IDLERS: usize = 1100;
    let seen = first.generation;
    let mut watchers: Vec<RawWatcher> = (0..IDLERS)
        .map(|_| RawWatcher::park(&socket, &first.key, seen))
        .collect();
    await_parked(&server, IDLERS as u64);

    // Many short batches, paired back to back (the pair's order
    // alternates), so machine load that drifts over the run hits both
    // sides of a pair alike. On a shared machine one batch's wall time
    // swings by tens of percent, so a single batch — or the best of a
    // few — is mostly noise; the median of the per-pair throughput
    // ratios is what is compared.
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 100;
    const PAIRS: usize = 80;
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut baseline = Duration::ZERO;
    let mut with_idlers = Duration::ZERO;
    for pair in 0..PAIRS {
        let (reference_time, watched_time) = if pair % 2 == 0 {
            let r = hammer(reference.endpoint(), path, CLIENTS, ROUNDS);
            (r, hammer(server.endpoint(), path, CLIENTS, ROUNDS))
        } else {
            let w = hammer(server.endpoint(), path, CLIENTS, ROUNDS);
            (hammer(reference.endpoint(), path, CLIENTS, ROUNDS), w)
        };
        ratios.push(reference_time.as_secs_f64() / watched_time.as_secs_f64());
        baseline += reference_time;
        with_idlers += watched_time;
    }
    reference.shutdown();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[PAIRS / 2];
    eprintln!(
        "parked-watch throughput ratio over {PAIRS} pairs: p10 {:.3} p25 {:.3} median {ratio:.3} \
         p75 {:.3} p90 {:.3}",
        ratios[PAIRS / 10],
        ratios[PAIRS / 4],
        ratios[PAIRS * 3 / 4],
        ratios[PAIRS * 9 / 10]
    );
    assert!(
        ratio >= 0.90,
        "active throughput with {IDLERS} parked watches fell to {:.1}% of the idle-free \
         baseline (median of {PAIRS} paired batches; totals: baseline {baseline:?}, \
         with idlers {with_idlers:?})",
        ratio * 100.0
    );

    // One targeted invalidate wakes all eleven hundred. A fresh
    // connection: one left idle through the measurement would have been
    // expired by the daemon's read timeout.
    let (removed, generation) = PolicyClient::connect(server.endpoint())
        .and_then(|mut c| c.invalidate(&first.key))
        .expect("invalidate");
    assert!(removed);
    for watcher in &mut watchers {
        assert_eq!(watcher.wake(), generation);
    }
    await_parked(&server, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Key isolation at fleet scale: two subscriber populations, one
/// invalidate — exactly one population wakes, the other thousand-odd
/// sockets stay byte-silent until their own key moves.
#[test]
fn targeted_invalidate_wakes_exactly_its_subscribers() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("isolation");
    let units = corpus_units(&dir.join("corpus"), 2);
    let socket = dir.join("bside.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let options = ServeOptions {
        threads: 2,
        read_timeout: Duration::from_secs(10),
        ..ServeOptions::default()
    };
    let server = PolicyServer::spawn(&endpoint, options).expect("spawn");

    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let a = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("insert A");
    let b = client
        .fetch_path(units[1].1.to_str().expect("utf8"))
        .expect("insert B");
    assert_ne!(a.key, b.key);

    const PER_KEY: usize = 150;
    let seen = b.generation;
    let mut on_a: Vec<RawWatcher> = (0..PER_KEY)
        .map(|_| RawWatcher::park(&socket, &a.key, seen))
        .collect();
    let mut on_b: Vec<RawWatcher> = (0..PER_KEY)
        .map(|_| RawWatcher::park(&socket, &b.key, seen))
        .collect();
    await_parked(&server, 2 * PER_KEY as u64);

    let (removed, g_a) = client.invalidate(&a.key).expect("invalidate A");
    assert!(removed);
    for watcher in &mut on_a {
        assert_eq!(watcher.wake(), g_a, "every A subscriber wakes");
    }
    await_parked(&server, PER_KEY as u64);
    for watcher in &mut on_b {
        assert!(watcher.silent(), "B subscribers must not hear about A");
    }

    let (removed, g_b) = client.invalidate(&b.key).expect("invalidate B");
    assert!(removed);
    for watcher in &mut on_b {
        assert_eq!(
            watcher.wake(),
            g_b,
            "every B subscriber wakes on its own key"
        );
    }
    await_parked(&server, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
