//! Request/reply latency of the shared NDJSON codec over loopback TCP.
//!
//! A frame written in two pieces (body, then newline) waits for the
//! peer's delayed ACK behind Nagle's algorithm: ~40 ms per round trip on
//! Linux, against tens of microseconds when each frame is one write on a
//! `TCP_NODELAY` socket. The bar sits far between the two, and a median
//! keeps one scheduler hiccup from failing the run.

use bside_dist::net::{Conn, Endpoint, Listener};
use bside_dist::protocol::{read_message_capped, write_message};
use serde::Value;
use std::io::BufReader;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 100;
const MEDIAN_BAR: Duration = Duration::from_millis(5);
const CAP: u64 = 1 << 20;

#[test]
fn tcp_request_reply_round_trip_median_is_under_5ms() {
    let (listener, endpoint) =
        Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let echo = std::thread::spawn(move || {
        let conn = listener.accept().expect("accept");
        let mut writer = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(conn);
        while let Some(request) = read_message_capped::<Value>(&mut reader, CAP).expect("read") {
            write_message(&mut writer, &request).expect("reply");
        }
    });

    let conn = Conn::connect(&endpoint).expect("dial");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    let mut samples = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS {
        let request = Value::Str(format!("ping {i}"));
        let start = Instant::now();
        write_message(&mut writer, &request).expect("request");
        let reply: Value = read_message_capped(&mut reader, CAP)
            .expect("read reply")
            .expect("echo stays up");
        samples.push(start.elapsed());
        assert_eq!(reply, request, "echoed frame");
    }
    writer.shutdown_both().expect("close");
    echo.join().expect("echo thread");

    samples.sort();
    let median = samples[ROUND_TRIPS / 2];
    assert!(
        median < MEDIAN_BAR,
        "median round trip {median:?} >= {MEDIAN_BAR:?} (a frame is waiting on a delayed ACK)"
    );
}
