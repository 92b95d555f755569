//! End-to-end fleet tests: coordinator + live TCP agents against a
//! materialized synthetic corpus.
//!
//! The acceptance bar for the fleet layer:
//!
//! * a run over ≥2 TCP agents produces a merged corpus report
//!   **byte-identical** to the in-process `analyze_corpus`;
//! * the capability hello gates admission: wrong protocol version or
//!   cache format is rejected in band;
//! * the content-addressed result cache answers re-runs without
//!   dispatching a single unit;
//! * a corpus whose units degrade (unreadable file) degrades exactly
//!   like the in-process engine, message for message.

mod common;

use bside_dist::{Conn, Endpoint};
use bside_fleet::protocol::{
    read_message_capped, write_message, FromAgent, ToAgent, MAX_FLEET_LINE_BYTES, PROTOCOL_VERSION,
};
use bside_fleet::{analyze_corpus_fleet, AgentOptions, FleetCoordinator, FleetOptions};
use common::{in_process_report, materialize, temp_dir, thread_agent};
use std::io::BufReader;
use std::time::Duration;

fn tcp0() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// Every connection opens with the coordinator's challenge; hand-crafted
/// peers must consume it before the reply they actually care about.
fn expect_challenge(reader: &mut BufReader<Conn>) {
    match read_message_capped::<ToAgent>(reader, MAX_FLEET_LINE_BYTES).expect("challenge") {
        Some(ToAgent::Challenge { nonce }) => assert!(!nonce.is_empty()),
        other => panic!("expected challenge, got {other:?}"),
    }
}

#[test]
fn two_tcp_agents_reproduce_the_in_process_report() {
    let (corpus_dir, units) = materialize("two_agents", 10);
    let reference = in_process_report(&units);

    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");
    let a1 = thread_agent(handle.endpoint(), 1);
    let a2 = thread_agent(handle.endpoint(), 2);
    assert!(
        handle.wait_for_agents(2, Duration::from_secs(10)),
        "both agents register"
    );

    let run = analyze_corpus_fleet(&units, &handle).expect("fleet run");
    assert_eq!(run.stats.units, units.len());
    assert_eq!(run.stats.failures, 0, "{:?}", run.stats);
    assert_eq!(run.stats.cache_hits, 0, "no cache configured");
    assert_eq!(
        reference,
        bside_dist::report_of_run(&run),
        "fleet merge must be byte-identical to in-process"
    );

    let stats = handle.stats();
    assert_eq!(stats.agents_joined, 2);
    assert_eq!(stats.agents_lost, 0);
    assert_eq!(stats.completed, units.len() as u64);
    // Both agents did real work: the corpus dwarfs any one slot window.
    let snapshots = handle.agents();
    assert_eq!(snapshots.len(), 2);
    assert!(
        snapshots.iter().all(|a| a.completed > 0),
        "work spread across the fleet: {snapshots:?}"
    );

    handle.shutdown();
    let r1 = a1.join().expect("agent thread").expect("clean goodbye");
    let r2 = a2.join().expect("agent thread").expect("clean goodbye");
    assert_eq!(r1.units + r2.units, units.len() as u64);
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

#[test]
fn capability_hello_gates_admission() {
    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");

    // Wrong protocol version.
    let conn = Conn::connect(handle.endpoint()).expect("dial");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    expect_challenge(&mut reader);
    write_message(
        &mut writer,
        &FromAgent::Hello {
            version: PROTOCOL_VERSION + 1,
            slots: 1,
            cache_format: bside_fleet::protocol::CACHE_FORMAT_VERSION,
            auth: None,
        },
    )
    .expect("hello");
    match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES).expect("reply") {
        Some(ToAgent::Reject { message }) => {
            assert!(message.contains("protocol"), "got: {message}")
        }
        other => panic!("expected reject, got {other:?}"),
    }

    // Wrong cache format: the agent's analyses would not be comparable.
    let conn = Conn::connect(handle.endpoint()).expect("dial");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    expect_challenge(&mut reader);
    write_message(
        &mut writer,
        &FromAgent::Hello {
            version: PROTOCOL_VERSION,
            slots: 1,
            cache_format: bside_fleet::protocol::CACHE_FORMAT_VERSION + 7,
            auth: None,
        },
    )
    .expect("hello");
    match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES).expect("reply") {
        Some(ToAgent::Reject { message }) => {
            assert!(message.contains("cache format"), "got: {message}")
        }
        other => panic!("expected reject, got {other:?}"),
    }

    // Not a hello at all.
    let conn = Conn::connect(handle.endpoint()).expect("dial");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    expect_challenge(&mut reader);
    write_message(&mut writer, &FromAgent::Heartbeat).expect("frame");
    match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES).expect("reply") {
        Some(ToAgent::Reject { message }) => {
            assert!(message.contains("hello"), "got: {message}")
        }
        other => panic!("expected reject, got {other:?}"),
    }

    assert_eq!(handle.stats().agents_joined, 0, "nobody was admitted");
    handle.shutdown();
}

#[test]
fn result_cache_answers_reruns_without_dispatching() {
    let (corpus_dir, units) = materialize("fleet_cache", 5);
    let cache_dir = temp_dir("fleet_cache_store");
    let options = FleetOptions {
        cache_dir: Some(cache_dir.clone()),
        ..FleetOptions::default()
    };

    let reference = in_process_report(&units);
    let handle = FleetCoordinator::bind(&tcp0(), options.clone()).expect("bind");
    let agent = thread_agent(handle.endpoint(), 2);
    assert!(handle.wait_for_agents(1, Duration::from_secs(10)));
    let first = analyze_corpus_fleet(&units, &handle).expect("cold run");
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(first.stats.failures, 0);
    assert_eq!(reference, bside_dist::report_of_run(&first));
    let dispatched_after_first = handle.stats().dispatched;
    assert!(dispatched_after_first >= units.len() as u64);

    // Re-run on the same coordinator: every unit answered from the
    // cache, nothing crosses the wire.
    let second = analyze_corpus_fleet(&units, &handle).expect("warm run");
    assert_eq!(second.stats.cache_hits, units.len());
    assert_eq!(
        handle.stats().dispatched,
        dispatched_after_first,
        "warm run dispatched nothing"
    );
    assert_eq!(
        reference,
        bside_dist::report_of_run(&second),
        "cache-served merge is still byte-identical"
    );
    for unit in &second.results {
        assert!(unit.from_cache);
        assert_eq!(unit.attempts, 0);
    }

    handle.shutdown();
    agent.join().expect("agent thread").expect("clean goodbye");
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A peer that completes the hello and then never sends another byte —
/// no heartbeat, no results — is declared dead by the silence deadline
/// and everything dispatched to it is requeued onto a live agent. This
/// is the heartbeat contract: "busy" keeps beating, "gone" goes quiet.
#[test]
fn silent_agent_is_declared_dead_and_its_units_requeued() {
    let (corpus_dir, units) = materialize("mute_agent", 6);
    let reference = in_process_report(&units);
    let options = FleetOptions {
        heartbeat_interval: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_millis(600),
        ..FleetOptions::default()
    };
    let handle = FleetCoordinator::bind(&tcp0(), options).expect("bind");

    // The mute peer: a perfectly valid hello, then eternal silence. Its
    // connection must be kept alive by the test (dropping it would be
    // an honest EOF, which is the *other* failure mode).
    let mute = Conn::connect(handle.endpoint()).expect("dial");
    let mut mute_writer = mute.try_clone().expect("clone");
    let mut mute_reader = BufReader::new(mute.try_clone().expect("clone"));
    expect_challenge(&mut mute_reader);
    write_message(
        &mut mute_writer,
        &FromAgent::Hello {
            version: PROTOCOL_VERSION,
            slots: 2,
            cache_format: bside_fleet::protocol::CACHE_FORMAT_VERSION,
            auth: None,
        },
    )
    .expect("hello");
    assert!(
        matches!(
            read_message_capped::<ToAgent>(&mut mute_reader, MAX_FLEET_LINE_BYTES)
                .expect("welcome"),
            Some(ToAgent::Welcome { .. })
        ),
        "the mute peer is admitted before it goes quiet"
    );
    let live = thread_agent(handle.endpoint(), 1);
    assert!(handle.wait_for_agents(2, Duration::from_secs(10)));

    let run = analyze_corpus_fleet(&units, &handle).expect("run completes despite the mute agent");
    assert_eq!(run.stats.failures, 0, "{:?}", run.stats);
    assert!(
        run.stats.worker_crashes >= 1,
        "silence must be detected as a death: {:?}",
        run.stats
    );
    assert!(
        run.stats.retries >= 1,
        "units held by the mute agent must be requeued: {:?}",
        run.stats
    );
    assert_eq!(
        reference,
        bside_dist::report_of_run(&run),
        "silence recovery changed the merged report"
    );

    handle.shutdown();
    live.join().expect("agent thread").expect("clean goodbye");
    drop(mute);
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

#[test]
fn degraded_units_render_exactly_like_the_in_process_engine() {
    let (corpus_dir, mut units) = materialize("fleet_degraded", 4);
    // A non-ELF file in the corpus: the agent reports the same parse
    // error the in-process reference renders.
    let junk = corpus_dir.join("0990_junk.elf");
    std::fs::write(&junk, b"definitely not an elf").expect("junk");
    units.push(("0990_junk".to_string(), junk));
    units.sort();

    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");
    let agent = thread_agent(handle.endpoint(), 1);
    assert!(handle.wait_for_agents(1, Duration::from_secs(10)));
    let run = analyze_corpus_fleet(&units, &handle).expect("run completes");
    assert_eq!(run.stats.failures, 1, "exactly the junk unit fails");

    // The in-process reference path (what `bside corpus --in-process`
    // renders): read, parse, analyze, same degradation messages.
    let mut rows: Vec<(String, Result<bside_core::BinaryAnalysis, String>)> = Vec::new();
    for (name, path) in &units {
        let display = path.to_string_lossy();
        let bytes = std::fs::read(path).expect("readable");
        match bside_elf::Elf::parse(&bytes) {
            Ok(elf) => {
                let result = bside_core::Analyzer::new(bside_core::AnalyzerOptions::default())
                    .analyze_static(&elf)
                    .map_err(|e| e.to_string());
                rows.push((name.clone(), result));
            }
            Err(e) => rows.push((
                name.clone(),
                Err(bside_dist::parse_error_message(&display, &e)),
            )),
        }
    }
    let reference = bside_dist::report::render_units(
        rows.iter()
            .map(|(name, r)| (name.as_str(), r.as_ref().map_err(Clone::clone))),
    );
    assert_eq!(
        reference,
        bside_dist::report_of_run(&run),
        "degraded merge must render byte-identically"
    );

    handle.shutdown();
    agent.join().expect("agent thread").expect("clean goodbye");
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

/// A refused hello is an operational event: the reconnect loop counts
/// each refusal it retries through the `bside-obs` event log (and prints
/// it only in a binary, which turns stderr printing on).
#[test]
fn an_agent_refused_at_hello_bumps_its_event_counter() {
    let handle = FleetCoordinator::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        FleetOptions {
            secret: Some("the-secret".to_string()),
            ..FleetOptions::default()
        },
    )
    .expect("bind");
    let before = bside_obs::event_count("agent_refused");
    let err = bside_fleet::run_agent_loop(
        handle.endpoint(),
        &AgentOptions {
            secret: Some("not-the-secret".to_string()),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            backoff_seed: Some(1),
            ..AgentOptions::default()
        },
    )
    .expect_err("a wrong-secret agent is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    // The loop retries twice before the third refusal ends it.
    assert!(
        bside_obs::event_count("agent_refused") >= before + 2,
        "each retried refusal is counted"
    );
    handle.shutdown();
}
