//! Spawn/shutdown cycling without sleeps or descriptor leaks.
//!
//! This test counts `/proc/self/fd` across the whole process, so it
//! lives alone in its own test binary: a sibling test opening sockets
//! on another thread would show up as a leak.

use bside_serve::{Endpoint, PolicyClient, PolicyServer, ServeOptions};
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("fd dir").count()
}

/// One hundred spawn → serve → shutdown cycles, back to back. The old
/// core could eat a 50 ms `sleep` per accept hiccup and dialed itself to
/// unblock its accept thread on shutdown; the readiness loop does
/// neither, so the whole run is fast, deterministic, and — checked via
/// `/proc/self/fd` — leaks not a single descriptor.
#[test]
fn a_hundred_spawn_shutdown_cycles_run_clean() {
    let dir = std::env::temp_dir().join(format!("bside_serve_fd_cycle100_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("bside.sock");
    let fds_before = open_fds();
    let started = Instant::now();
    for cycle in 0..100 {
        let endpoint = Endpoint::Unix(socket.clone());
        let server = PolicyServer::spawn(
            &endpoint,
            ServeOptions {
                threads: 2,
                read_timeout: Duration::from_secs(2),
                ..ServeOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("cycle {cycle}: spawn: {e}"));
        let mut client = PolicyClient::connect(server.endpoint())
            .unwrap_or_else(|e| panic!("cycle {cycle}: connect: {e}"));
        client
            .ping()
            .unwrap_or_else(|e| panic!("cycle {cycle}: ping: {e}"));
        // In-band shutdown (the daemon path), not handle-side teardown:
        // exercises listener unlink + drain every cycle.
        client
            .shutdown_server()
            .unwrap_or_else(|e| panic!("cycle {cycle}: shutdown: {e}"));
        server.join();
        assert!(
            !socket.exists(),
            "cycle {cycle}: socket file must be unlinked on shutdown"
        );
    }
    let elapsed = started.elapsed();
    let fds_after = open_fds();
    assert!(
        elapsed < Duration::from_secs(30),
        "100 cycles took {elapsed:?}; shutdown is sleeping somewhere"
    );
    assert!(
        fds_after <= fds_before + 3,
        "descriptor leak across cycles: {fds_before} fds before, {fds_after} after"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
