//! The event loop's own answers: memory-resident store hits served
//! without a worker, the bytes they put on the wire, and the output
//! bound that holds a client which pipelines requests but never reads.

use bside_serve::protocol::write_message;
use bside_serve::server::AnalysisHook;
use bside_serve::{Endpoint, PolicyClient, PolicyServer, Reply, ServeOptions, Source};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bside_serve_loop_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn corpus_units(dir: &Path, n: usize) -> Vec<(String, PathBuf)> {
    bside_gen::corpus::corpus_with_size(bside_gen::corpus::DEFAULT_SEED, n, 0, 0)
        .materialize_static(dir)
        .expect("materialize corpus")
}

fn path_of(unit: &(String, PathBuf)) -> &str {
    unit.1.to_str().expect("utf8 path")
}

/// Counts the cold analyses the daemon enters and holds each one inside
/// its flight, so a test acts while the analysis is known to be running.
#[derive(Default)]
struct Analyses(Arc<AtomicU64>);

impl Analyses {
    /// An analysis hook that counts the analysis, then holds it `hold`.
    fn hook(&self, hold: Duration) -> AnalysisHook {
        let entered = Arc::clone(&self.0);
        Arc::new(move |_key: &str| {
            entered.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(hold);
        })
    }

    /// Blocks (bounded) until `n` analyses have entered the hook.
    fn await_count(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.0.load(Ordering::SeqCst) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(self.0.load(Ordering::SeqCst) >= n, "{n} analyses entered");
    }
}

/// A connection that speaks raw lines, past its hello.
struct Raw {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Raw {
    fn connect(socket: &Path) -> Raw {
        let writer = UnixStream::connect(socket).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut reader = BufReader::new(writer.try_clone().expect("clone"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello");
        assert!(hello.contains("\"hello\""), "got {hello}");
        Raw { writer, reader }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
    }

    /// The next reply line, exactly as it came off the socket.
    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply line");
        line
    }
}

/// Decodes a raw policy reply and requires the raw bytes to be exactly
/// what the protocol's encoder writes for that reply.
fn canonical_policy(raw: &str) -> (Source, String) {
    let reply: Reply = serde_json::from_str(raw.trim_end()).expect("parses");
    let mut encoded = Vec::new();
    write_message(&mut encoded, &reply).expect("encodes");
    assert_eq!(raw, String::from_utf8(encoded).expect("utf8"), "wire bytes");
    match reply {
        Reply::Policy { source, key, .. } => (source, key),
        other => panic!("expected a policy reply, got {other:?}"),
    }
}

#[test]
fn a_store_hit_does_not_wait_for_a_busy_worker() {
    let dir = scratch("busy");
    let units = corpus_units(&dir.join("corpus"), 2);
    let analyses = Analyses::default();
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        ServeOptions {
            threads: 1,
            analysis_hook: Some(analyses.hook(Duration::from_secs(2))),
            read_timeout: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("spawn");
    let mut warm = PolicyClient::connect(server.endpoint()).expect("connect");
    let a = warm.fetch_path(path_of(&units[0])).expect("warm A");
    assert_eq!(a.source, Source::Analyzed);

    // The only worker goes into B's cold analysis.
    let cold = {
        let endpoint = server.endpoint().clone();
        let path = path_of(&units[1]).to_string();
        std::thread::spawn(move || {
            let mut client = PolicyClient::connect(&endpoint).expect("connect");
            client.fetch_path(&path).expect("cold B").source
        })
    };
    analyses.await_count(2);

    let started = Instant::now();
    let mut hot = PolicyClient::connect(server.endpoint()).expect("connect");
    let by_path = hot.fetch_path(path_of(&units[0])).expect("hit A by path");
    let by_key = hot.fetch_key(&a.key).expect("hit A by key");
    let elapsed = started.elapsed();
    assert_eq!(by_path.source, Source::Store);
    assert_eq!(by_key.source, Source::Store);
    assert_eq!(by_path.bundle, a.bundle);
    assert!(
        elapsed < Duration::from_secs(1),
        "two hits took {elapsed:?} behind a 2 s analysis"
    );
    assert_eq!(cold.join().expect("cold fetch"), Source::Analyzed);
    let stats = server.stats();
    assert_eq!(
        stats.store_hits, 2,
        "loop hits are counted like worker hits"
    );
    assert_eq!(stats.analyses, 2);
    let metrics = server.metrics_text();
    assert!(
        metrics.contains("bside_serve_policy_duration_us_count{source=\"store\"} 2"),
        "loop hits land in the latency histogram:\n{metrics}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn policy_replies_on_the_wire_are_canonically_encoded() {
    let dir = scratch("wire");
    let units = corpus_units(&dir.join("corpus"), 1);
    let analyses = Analyses::default();
    let socket = dir.join("bside.sock");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(socket.clone()),
        ServeOptions {
            store_dir: Some(dir.join("store")),
            threads: 2,
            analysis_hook: Some(analyses.hook(Duration::from_millis(500))),
            read_timeout: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("spawn");
    let request = format!(
        "{{\"type\":\"policy\",\"path\":{}}}",
        serde_json::to_string(path_of(&units[0])).expect("path")
    );

    // A leader and a follower of one flight.
    let mut leader = Raw::connect(&socket);
    let mut follower = Raw::connect(&socket);
    leader.send(&request);
    analyses.await_count(1);
    follower.send(&request);
    let (source, key) = canonical_policy(&leader.recv());
    assert_eq!(source, Source::Analyzed);
    assert_eq!(canonical_policy(&follower.recv()).0, Source::Coalesced);

    // Hits, by path and by key, answered on the loop.
    leader.send(&request);
    assert_eq!(canonical_policy(&leader.recv()).0, Source::Store);
    follower.send(&format!("{{\"type\":\"policy_by_key\",\"key\":\"{key}\"}}"));
    assert_eq!(canonical_policy(&follower.recv()).0, Source::Store);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_that_never_reads_stops_being_answered() {
    let dir = scratch("unread");
    let units = corpus_units(&dir.join("corpus"), 1);
    let socket = dir.join("bside.sock");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(socket.clone()),
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("spawn");
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let key = client.fetch_path(path_of(&units[0])).expect("warm").key;
    drop(client);
    let before = server.stats().requests;

    // 20k pipelined hits, about 1.8 MB of requests and 35 MB of replies,
    // written without ever reading a reply.
    const LINES: u64 = 20_000;
    let line = format!("{{\"type\":\"policy_by_key\",\"key\":\"{key}\"}}\n");
    let payload = line.repeat(LINES as usize).into_bytes();
    let mut conn = UnixStream::connect(&socket).expect("connect");
    conn.set_nonblocking(true).expect("nonblocking");
    let mut written = 0;
    let deadline = Instant::now() + Duration::from_secs(3);
    while written < payload.len() && Instant::now() < deadline {
        match conn.write(&payload[written..]) {
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("write: {e}"),
        }
    }

    // The daemon settles at a bound and stays there.
    let mut settled = server.stats().requests;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = server.stats().requests;
        if now == settled {
            break;
        }
        settled = now;
    }
    let answered = settled - before;
    assert!(
        answered < 1_000,
        "answered {answered} of {LINES} requests nobody reads"
    );
    assert!(
        written < payload.len(),
        "flow control pushed back on the writer"
    );
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(server.stats().requests, settled, "no growth once held");
    drop(conn);

    // Everyone else is still served.
    let mut other = PolicyClient::connect(server.endpoint()).expect("connect");
    assert_eq!(other.fetch_key(&key).expect("hit").source, Source::Store);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
