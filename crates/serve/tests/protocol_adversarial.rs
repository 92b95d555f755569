//! Adversarial protocol tests: seeded-random mutations of valid NDJSON
//! frames thrown at a live daemon.
//!
//! The contract under attack traffic: every malformed input — truncated
//! frames, garbage bytes (including invalid UTF-8), oversized lines,
//! unknown message types, wrong field types — produces an in-band error
//! reply or a clean disconnect. The server never panics, and the worker
//! pool never wedges: after the whole barrage, a fresh client's
//! requests are still served promptly.

use bside_gen::corpus::{corpus_with_size, DEFAULT_SEED};
use bside_serve::protocol::MAX_REQUEST_LINE_BYTES;
use bside_serve::{Endpoint, PolicyClient, PolicyServer, ServeOptions, Source};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bside_serve_adv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Valid request lines to mutate (all variants of the v2 protocol).
fn valid_frames() -> Vec<String> {
    vec![
        "{\"type\":\"policy\",\"path\":\"/corpus/000_redis.elf\"}".to_string(),
        format!(
            "{{\"type\":\"policy_by_key\",\"key\":\"{}\"}}",
            "9f".repeat(32)
        ),
        format!(
            "{{\"type\":\"invalidate\",\"key\":\"{}\"}}",
            "ab".repeat(32)
        ),
        "{\"type\":\"watch\",\"generation\":3}".to_string(),
        "{\"type\":\"stats\"}".to_string(),
        "{\"type\":\"ping\"}".to_string(),
    ]
}

/// One seeded mutation of a valid frame.
fn mutate(rng: &mut SmallRng, frame: &str) -> Vec<u8> {
    let bytes = frame.as_bytes().to_vec();
    match rng.gen_range(0..7u32) {
        // Truncation at a random byte (then EOF mid-line).
        0 => {
            let cut = rng.gen_range(0..bytes.len());
            bytes[..cut].to_vec()
        }
        // Random garbage bytes spliced into the middle (often invalid
        // UTF-8 or broken JSON).
        1 => {
            let mut out = bytes.clone();
            let at = rng.gen_range(0..out.len());
            for _ in 0..rng.gen_range(1..16usize) {
                out.insert(at, rng.gen_range(0..=255u8));
            }
            out.push(b'\n');
            out
        }
        // Unknown message type.
        2 => {
            let tag: String = (0..rng.gen_range(1..12usize))
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect();
            format!("{{\"type\":\"{tag}\"}}\n").into_bytes()
        }
        // Wrong field types (e.g. numeric path, string generation).
        3 => "{\"type\":\"policy\",\"path\":12345}\n".as_bytes().to_vec(),
        4 => "{\"type\":\"watch\",\"generation\":\"vX\"}\n"
            .as_bytes()
            .to_vec(),
        // Oversized line: a "request" past the server's line cap.
        5 => {
            let mut out = Vec::with_capacity(MAX_REQUEST_LINE_BYTES as usize + 4096);
            out.extend_from_slice(b"{\"type\":\"policy\",\"path\":\"");
            out.resize(MAX_REQUEST_LINE_BYTES as usize + 4096, b'a');
            out.extend_from_slice(b"\"}\n");
            out
        }
        // Pure binary noise.
        _ => {
            let mut out: Vec<u8> = (0..rng.gen_range(1..512usize))
                .map(|_| rng.gen_range(0..=255u8))
                .collect();
            out.push(b'\n');
            out
        }
    }
}

/// `true` when a mutated payload accidentally reassembled into valid
/// protocol traffic (every line parses as a `Request` and fits the line
/// cap) — such a payload is *entitled* to a normal reply (or a blocking
/// `watch`), so the malformed-input contract does not apply and the
/// round is skipped. Deterministic, like the seeded mutations.
fn accidentally_valid(payload: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(payload) else {
        return false; // invalid UTF-8 can never be a valid frame
    };
    text.split('\n')
        .filter(|line| !line.trim().is_empty())
        .all(|line| {
            (line.len() as u64) < MAX_REQUEST_LINE_BYTES
                && serde_json::from_str::<bside_serve::Request>(line.trim()).is_ok()
        })
}

/// Connects raw, consumes the hello, writes `payload`, and requires the
/// connection to resolve — an in-band error reply or a clean disconnect
/// — within the read timeout. Panics on a hang or on a non-error reply.
fn fire(socket: &std::path::Path, payload: &[u8], case: &str) {
    let mut conn = UnixStream::connect(socket).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut hello = String::new();
    reader.read_line(&mut hello).expect("hello line");
    assert!(
        hello.contains("\"hello\""),
        "{case}: expected hello, got {hello}"
    );

    // The write itself may fail once the server has already hung up
    // (oversized lines are rejected mid-read): that IS the clean
    // disconnect this test accepts.
    if conn.write_all(payload).is_err() {
        return;
    }
    let _ = conn.flush();
    // For truncation cases the frame has no newline: close our write half
    // by shutting down, so the server sees EOF rather than waiting.
    let _ = conn.shutdown(std::net::Shutdown::Write);

    // Drain whatever the server says until EOF; every line it does send
    // must be an in-band error reply (never a panic, never silence past
    // the timeout).
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // clean disconnect
            Ok(_) => {
                if line.trim().is_empty() {
                    continue;
                }
                assert!(
                    line.contains("\"error\""),
                    "{case}: non-error reply to garbage: {line}"
                );
            }
            // A reset mid-read is a disconnect too.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return,
            Err(e) => panic!("{case}: server went silent or broke: {e}"),
        }
    }
}

#[test]
fn mutated_frames_never_wedge_or_kill_the_daemon() {
    let dir = scratch("fuzz");
    let units = corpus_with_size(DEFAULT_SEED, 1, 0, 0)
        .materialize_static(&dir.join("corpus"))
        .expect("materialize");
    let socket = dir.join("bside.sock");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(socket.clone()),
        ServeOptions {
            threads: 2, // a small pool makes wedging observable
            read_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("spawn");

    let frames = valid_frames();
    let mut rng = SmallRng::seed_from_u64(0xAD5E_55ED);
    for round in 0..60 {
        let frame = &frames[rng.gen_range(0..frames.len())];
        let payload = mutate(&mut rng, frame);
        if accidentally_valid(&payload) {
            continue;
        }
        fire(&socket, &payload, &format!("round {round}"));
    }

    // Multiple garbage lines on one connection: the first malformed line
    // draws the error and the disconnect.
    fire(
        &socket,
        b"not json at all\n{\"type\":\"ping\"}\n",
        "garbage-then-valid",
    );

    // A raw connection that sends nothing times out and is reclaimed
    // rather than pinning a worker forever.
    {
        let idle = UnixStream::connect(&socket).expect("idle connect");
        let mut reader = BufReader::new(idle.try_clone().expect("clone"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello");
        std::thread::sleep(Duration::from_millis(2500)); // > read_timeout
        let mut rest = String::new();
        let n = reader.read_to_string(&mut rest).expect("eof after timeout");
        assert_eq!(n, 0, "idle connection must be closed by the server");
    }

    // The pool survives the whole barrage: a real client is served
    // promptly on every worker.
    for _ in 0..4 {
        let mut client = PolicyClient::connect_with(
            &Endpoint::Unix(socket.clone()),
            Some(Duration::from_secs(30)),
        )
        .expect("healthy client connects");
        client.ping().expect("pool not wedged");
    }
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    let fetch = client
        .fetch_path(units[0].1.to_str().expect("utf8"))
        .expect("real work still served");
    assert!(matches!(fetch.source, Source::Analyzed | Source::Store));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.panics, 0, "no handler panicked on malformed input");
    assert!(stats.errors > 0, "the barrage drew in-band errors");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same barrage over TCP: the transport must not change the
/// malformed-input contract.
#[test]
fn tcp_transport_handles_garbage_identically() {
    let dir = scratch("fuzz_tcp");
    let server = PolicyServer::spawn(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("spawn");
    let Endpoint::Tcp(addr) = server.endpoint().clone() else {
        panic!("tcp endpoint");
    };

    let mut rng = SmallRng::seed_from_u64(0x7C9);
    for round in 0..20 {
        let payload = mutate(&mut rng, &valid_frames()[round % valid_frames().len()]);
        if accidentally_valid(&payload) {
            continue;
        }
        let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello");
        if conn.write_all(&payload).is_err() {
            continue;
        }
        let _ = conn.shutdown(std::net::Shutdown::Write);
        let mut rest = String::new();
        match reader.read_to_string(&mut rest) {
            Ok(_) => {
                for line in rest.lines().filter(|l| !l.trim().is_empty()) {
                    assert!(line.contains("\"error\""), "round {round}: {line}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("round {round}: {e}"),
        }
    }
    let mut client = PolicyClient::connect(server.endpoint()).expect("connect");
    client.ping().expect("alive after tcp garbage");
    assert_eq!(client.stats().expect("stats").panics, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line of 200k `[`s is 200 KB — under the line cap — and deep enough
/// to overflow the stack of a parser that recurses without limit, which
/// aborts the whole process where no `catch_unwind` can help. The daemon
/// must answer it in band and go on serving the next connection.
#[test]
fn a_deeply_nested_line_draws_an_error_not_an_abort() {
    let dir = scratch("deep");
    let socket = dir.join("bside.sock");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(socket.clone()),
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(5),
            ..ServeOptions::default()
        },
    )
    .expect("spawn");
    let payload = "[".repeat(200_000) + "\n";
    assert!((payload.len() as u64) < MAX_REQUEST_LINE_BYTES);

    let mut conn = UnixStream::connect(&socket).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    conn.write_all(payload.as_bytes())
        .expect("write the deep line");
    line.clear();
    reader.read_line(&mut line).expect("an in-band reply");
    assert!(
        line.contains("\"error\"") && line.contains("nesting"),
        "got: {line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "then a close");

    let mut client = PolicyClient::connect(server.endpoint()).expect("next connection");
    client.ping().expect("still serving");
    assert_eq!(client.stats().expect("stats").panics, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one request line on a fresh connection and returns the daemon's
/// reply, which must be an in-band error followed by a close.
fn error_reply(socket: &std::path::Path, payload: &str) -> String {
    assert!((payload.len() as u64) < MAX_REQUEST_LINE_BYTES);
    let mut conn = UnixStream::connect(socket).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    conn.write_all(payload.as_bytes()).expect("write the line");
    line.clear();
    reader.read_line(&mut line).expect("an in-band reply");
    assert!(line.contains("\"error\""), "got: {line}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "then a close");
    line
}

/// The decoder reads requests straight into their types, so it skips
/// unknown fields and buffers objects whose tag is not first without
/// building them as requests. The nesting cap must bound both, and a
/// syntax error must still win over a type error earlier in the line.
#[test]
fn skipped_and_buffered_values_keep_the_nesting_cap_and_syntax_errors_first() {
    let dir = scratch("pull");
    let socket = dir.join("bside.sock");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(socket.clone()),
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(5),
            ..ServeOptions::default()
        },
    )
    .expect("spawn");

    // A valid policy request whose unknown field opens 200k arrays.
    let skipped = format!(
        "{{\"type\":\"policy\",\"path\":\"/c/a.elf\",\"junk\":{}}}\n",
        "[".repeat(200_000)
    );
    let reply = error_reply(&socket, &skipped);
    assert!(reply.contains("nesting"), "got: {reply}");

    // A request whose tag comes last, with a field nested past the cap.
    let buffered = format!(
        "{{\"path\":\"/c/a.elf\",\"junk\":{}{},\"type\":\"policy\"}}\n",
        "[".repeat(200),
        "]".repeat(200)
    );
    let reply = error_reply(&socket, &buffered);
    assert!(reply.contains("nesting"), "got: {reply}");
    // The same request within the cap is a request like any other.
    let within = "{\"path\":12,\"junk\":[[1]],\"type\":\"policy\"}\n";
    let reply = error_reply(&socket, within);
    assert!(reply.contains("field `path`"), "got: {reply}");

    // A type error (a numeric path), then a syntax error later in the
    // line: the syntax error is the one reported.
    let both = "{\"type\":\"policy\",\"path\":12345,\"junk\":[1,2,}\n";
    let reply = error_reply(&socket, both);
    assert!(
        reply.contains("unexpected character") && !reply.contains("path"),
        "got: {reply}"
    );
    // Trailing characters after a complete request with a type error.
    let trailing = "{\"type\":\"policy\",\"path\":12345} ]\n";
    let reply = error_reply(&socket, trailing);
    assert!(
        reply.contains("trailing characters") && !reply.contains("path"),
        "got: {reply}"
    );

    let mut client = PolicyClient::connect(server.endpoint()).expect("next connection");
    client.ping().expect("still serving");
    assert_eq!(client.stats().expect("stats").panics, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
