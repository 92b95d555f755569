//! Chaos suites: the trustable-fleet acceptance tests.
//!
//! Three storylines, all seed-deterministic and socket-real:
//!
//! 1. **Authentication holds the line** — unauthenticated and
//!    wrong-secret agents are rejected in band; a mid-session injector
//!    forging a result frame (valid body, wrong MAC) is severed and
//!    lands **nothing** in the content-addressed result cache.
//! 2. **Line noise cannot change answers** — under a seeded
//!    [`bside_dist::fault::FaultPlan`] (corruption, truncation, resets,
//!    duplicates, delays at the shared codec), a secured fleet of
//!    reconnecting agents still converges to a merged report
//!    byte-identical to the in-process engine.
//! 3. **A bounced coordinator is survivable** — agents ride out a
//!    coordinator that dies without a goodbye, re-dial under backoff,
//!    and the rerun on the reborn coordinator reproduces the reference
//!    report; the eventual in-band goodbye ends them cleanly.
//!
//! The fault plan is process-global state, so every test here takes one
//! shared lock — chaos must never leak into a neighboring test.

mod common;

use bside_dist::fault::{faults_injected, set_plan, FaultPlan};
use bside_dist::{Conn, Endpoint};
use bside_fleet::protocol::{
    read_message_capped, seal, unseal_down, write_message, FromAgent, ToAgent, Want,
    CACHE_FORMAT_VERSION, MAX_FLEET_LINE_BYTES, PROTOCOL_VERSION,
};
use bside_fleet::{
    analyze_corpus_fleet, auth, run_agent, run_agent_loop, AgentOptions, AgentReport,
    FleetCoordinator, FleetOptions,
};
use common::{in_process_report, materialize, temp_dir};
use std::io::BufReader;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the whole suite: the fault plan is process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII fault-plan installation: a panicking test clears its chaos.
struct PlanGuard;
impl PlanGuard {
    fn install(plan: FaultPlan) -> PlanGuard {
        set_plan(Some(plan));
        PlanGuard
    }
}
impl Drop for PlanGuard {
    fn drop(&mut self) {
        set_plan(None);
    }
}

fn tcp0() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

const SECRET: &str = "chaos-suite-secret";

fn secured_options() -> FleetOptions {
    FleetOptions {
        secret: Some(SECRET.to_string()),
        ..FleetOptions::default()
    }
}

/// An in-thread agent running the given options under the reconnect
/// supervisor.
fn loop_agent(
    endpoint: &Endpoint,
    options: AgentOptions,
) -> std::thread::JoinHandle<std::io::Result<AgentReport>> {
    let endpoint = endpoint.clone();
    std::thread::spawn(move || run_agent_loop(&endpoint, &options))
}

fn secured_agent(slots: usize, seed: u64) -> AgentOptions {
    AgentOptions {
        slots,
        secret: Some(SECRET.to_string()),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        backoff_seed: Some(seed),
        ..AgentOptions::default()
    }
}

#[test]
fn unauthenticated_and_wrong_secret_agents_are_rejected_in_band() {
    let _chaos = chaos_guard();
    let handle = FleetCoordinator::bind(&tcp0(), secured_options()).expect("bind");

    // No secret at all.
    let err = run_agent(handle.endpoint(), &AgentOptions::default())
        .expect_err("a secretless agent must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    assert!(
        err.to_string().contains("requires authentication"),
        "got: {err}"
    );

    // The wrong secret.
    let err = run_agent(
        handle.endpoint(),
        &AgentOptions {
            secret: Some("not-the-secret".to_string()),
            ..AgentOptions::default()
        },
    )
    .expect_err("a wrong-secret agent must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);

    // Rejection ends the reconnect supervisor too — after a few
    // consecutive tries (one reject could be a corrupted challenge
    // nonce, not a wrong secret), the loop surfaces the verdict instead
    // of hammering the coordinator forever.
    let err = run_agent_loop(
        handle.endpoint(),
        &AgentOptions {
            secret: Some("still-wrong".to_string()),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            backoff_seed: Some(1),
            ..AgentOptions::default()
        },
    )
    .expect_err("the reconnect loop must surface the reject");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);

    let stats = handle.stats();
    // Two direct rejects plus the loop's three consecutive tries.
    assert_eq!(stats.agents_rejected, 5, "{stats:?}");
    assert_eq!(stats.agents_joined, 0, "nobody was admitted");
    handle.shutdown();
}

/// The injector storyline: a session whose hello was legitimate (the
/// wire belongs to a real agent) but whose result frame arrives with a
/// wrong MAC — what an on-path attacker without the session key can
/// best produce. The body is a perfectly valid, cache-ready result;
/// only the seal stands between it and the content-addressed cache.
#[test]
fn forged_result_frames_are_severed_and_land_nothing_in_the_cache() {
    let _chaos = chaos_guard();
    let (corpus_dir, units) = materialize("chaos_forge", 1);
    let reference = in_process_report(&units);
    let cache_dir = temp_dir("chaos_forge_cache");
    let handle = FleetCoordinator::bind(
        &tcp0(),
        FleetOptions {
            cache_dir: Some(cache_dir.clone()),
            max_attempts: 1, // one forged attempt is the whole story
            ..secured_options()
        },
    )
    .expect("bind");

    // The forger: a hand-driven peer that completes the authenticated
    // hello, pulls the unit, analyzes it for real — and sends the
    // result with a forged MAC.
    let forger = {
        let endpoint = handle.endpoint().clone();
        std::thread::spawn(move || {
            let conn = Conn::connect(&endpoint).expect("dial");
            let mut writer = conn.try_clone().expect("clone");
            let mut reader = BufReader::new(conn);
            let nonce = match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES)
                .expect("challenge")
            {
                Some(ToAgent::Challenge { nonce }) => nonce,
                other => panic!("expected challenge, got {other:?}"),
            };
            write_message(
                &mut writer,
                &FromAgent::Hello {
                    version: PROTOCOL_VERSION,
                    slots: 1,
                    cache_format: CACHE_FORMAT_VERSION,
                    auth: Some(auth::hello_mac(
                        SECRET,
                        &nonce,
                        PROTOCOL_VERSION,
                        1,
                        CACHE_FORMAT_VERSION,
                    )),
                },
            )
            .expect("hello");
            match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES)
                .expect("welcome")
            {
                Some(ToAgent::Welcome { sealed: true, .. }) => {}
                other => panic!("expected sealed welcome, got {other:?}"),
            }
            // Post-welcome frames arrive sealed on a secured fleet; this
            // peer holds the real secret, so it can unseal the unit.
            let key = auth::session_key(SECRET, &nonce);
            let (id, elf, options) =
                match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES)
                    .expect("unit")
                {
                    Some(ToAgent::Sealed { seq, mac, body }) => {
                        match unseal_down(&key, seq, &mac, &body).expect("sealed unit") {
                            ToAgent::Unit {
                                id,
                                want: Want::Analysis,
                                elf,
                                options,
                                ..
                            } => (id, elf, options),
                            other => panic!("expected a unit, got {other:?}"),
                        }
                    }
                    other => panic!("expected a sealed unit, got {other:?}"),
                };
            let parsed = bside_elf::Elf::parse(&elf).expect("unit parses");
            let analysis = bside_core::Analyzer::new(options)
                .analyze_static(&parsed)
                .expect("unit analyzes");
            // A structurally perfect sealed frame with a forged MAC:
            // exactly what an injector without the session key can
            // produce at best.
            let genuine = seal(
                &[0u8; 32], // not the session key
                1,
                &FromAgent::Result {
                    id,
                    analysis: Box::new(analysis),
                    trace: None,
                    spans: Vec::new(),
                },
            )
            .expect("seal under the wrong key");
            write_message(&mut writer, &genuine).expect("forged frame sent");
            // The coordinator must sever us — wait for the EOF.
            while let Ok(Some(_)) =
                read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES)
            {}
        })
    };

    let run = analyze_corpus_fleet(&units, &handle).expect("run completes");
    forger.join().expect("forger thread");
    assert_eq!(
        run.stats.failures, 1,
        "the forged unit must fail, not succeed: {:?}",
        run.stats
    );
    assert_eq!(
        handle.stats().completed,
        0,
        "a forged result must never count as completed"
    );

    // The forged analysis must not be in the cache: a rerun with an
    // honest agent sees zero cache hits and reproduces the reference.
    let honest = loop_agent(handle.endpoint(), secured_agent(1, 7));
    assert!(handle.wait_for_agents(1, Duration::from_secs(10)));
    let rerun = analyze_corpus_fleet(&units, &handle).expect("honest rerun");
    assert_eq!(
        rerun.stats.cache_hits, 0,
        "the forger must have landed nothing in the cache"
    );
    assert_eq!(rerun.stats.failures, 0);
    assert_eq!(reference, bside_dist::report_of_run(&rerun));

    handle.shutdown();
    let report = honest.join().expect("agent thread").expect("clean goodbye");
    assert_eq!(report.units, 1);
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// An agent holding a secret must refuse an unsealing coordinator: the
/// downgrade (silently dropping frame integrity) fails loudly instead.
#[test]
fn secret_holding_agent_refuses_an_unsealed_coordinator() {
    let _chaos = chaos_guard();
    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");
    let err = run_agent(
        handle.endpoint(),
        &AgentOptions {
            secret: Some(SECRET.to_string()),
            ..AgentOptions::default()
        },
    )
    .expect_err("running unsealed with a secret configured is a downgrade");
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    assert!(err.to_string().contains("seal"), "got: {err}");
    handle.shutdown();
}

/// The headline chaos theorem: under seeded line noise on every codec
/// write — corruption, truncation, resets, duplicates, delays, on both
/// directions of every link — a secured fleet of reconnecting agents
/// still converges, and the merged report is byte-identical to the
/// in-process engine. The MACs turn every corruption into a detected
/// sever; the retry budget and the reconnect loops absorb the rest.
#[test]
fn seeded_line_noise_still_converges_byte_identically() {
    let _chaos = chaos_guard();
    let (corpus_dir, units) = materialize("chaos_noise", 8);
    let reference = in_process_report(&units);
    let handle = FleetCoordinator::bind(
        &tcp0(),
        FleetOptions {
            // Generous budgets: the dice *will* burn attempts.
            max_attempts: 64,
            unit_timeout: Duration::from_secs(20),
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(3),
            ..secured_options()
        },
    )
    .expect("bind");

    let plan = FaultPlan {
        corrupt: 40,
        truncate: 20,
        reset: 20,
        dup: 40,
        delay: 30,
        delay_ms: 1,
        ..FaultPlan::quiet(7)
    };
    let chaos = PlanGuard::install(plan);
    let injected_before = faults_injected();
    let a1 = loop_agent(handle.endpoint(), secured_agent(1, 21));
    let a2 = loop_agent(handle.endpoint(), secured_agent(2, 22));
    assert!(
        handle.wait_for_agents(2, Duration::from_secs(30)),
        "agents join even under line noise"
    );

    let run = analyze_corpus_fleet(&units, &handle).expect("chaos run completes");
    assert!(
        faults_injected() > injected_before,
        "the dice never fired — this run proved nothing"
    );
    assert_eq!(
        run.stats.failures, 0,
        "every unit must converge within the budget: {:?}",
        run.stats
    );
    assert_eq!(
        reference,
        bside_dist::report_of_run(&run),
        "line noise changed the merged report"
    );

    // Calm the wire before saying goodbye: with the plan still armed,
    // the shutdown frames themselves could be eaten, and a severed
    // agent would re-dial a dead endpoint forever.
    drop(chaos);
    assert!(
        handle.wait_for_agents(2, Duration::from_secs(10)),
        "both agents settle back into healthy sessions"
    );
    handle.shutdown();
    let r1 = a1.join().expect("agent thread").expect("clean goodbye");
    let r2 = a2.join().expect("agent thread").expect("clean goodbye");
    // Exact per-agent unit counts are dice-dependent (duplicated frames
    // and severed-then-retried units both shift them), but together the
    // agents must have served at least every unit once.
    assert!(
        r1.units + r2.units >= run.stats.units as u64,
        "agents under-report their work: {r1:?} + {r2:?} vs {:?}",
        run.stats
    );
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

/// The bounced-coordinator storyline: the coordinator dies without a
/// goodbye (crash model), is reborn on the same port, and the
/// reconnecting agent serves it — the rerun reproduces the reference
/// report, and only the in-band goodbye ends the agent.
#[test]
fn a_bounced_coordinator_is_rejoined_and_the_rerun_is_byte_identical() {
    let _chaos = chaos_guard();
    let (corpus_dir, units) = materialize("chaos_bounce", 5);
    let reference = in_process_report(&units);

    let first = FleetCoordinator::bind(&tcp0(), secured_options()).expect("bind");
    let endpoint = first.endpoint().clone();
    let agent = loop_agent(
        &endpoint,
        AgentOptions {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            ..secured_agent(2, 33)
        },
    );
    assert!(first.wait_for_agents(1, Duration::from_secs(10)));
    let before = analyze_corpus_fleet(&units, &first).expect("first run");
    assert_eq!(reference, bside_dist::report_of_run(&before));

    // Crash: no goodbye frames, just severed links.
    first.abort();

    // Rebirth on the very same port (the OS may need a moment).
    let reborn = {
        let mut attempt = 0;
        loop {
            match FleetCoordinator::bind(&endpoint, secured_options()) {
                Ok(handle) => break handle,
                Err(e) if attempt < 50 => {
                    attempt += 1;
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => panic!("rebinding {endpoint:?}: {e}"),
            }
        }
    };
    assert!(
        reborn.wait_for_agents(1, Duration::from_secs(15)),
        "the agent must re-dial the reborn coordinator on its own"
    );
    let after = analyze_corpus_fleet(&units, &reborn).expect("rerun");
    assert_eq!(after.stats.failures, 0);
    assert_eq!(
        reference,
        bside_dist::report_of_run(&after),
        "the bounce changed the merged report"
    );

    reborn.shutdown();
    let report = agent.join().expect("agent thread").expect("clean goodbye");
    assert!(
        report.sessions >= 2,
        "the agent must have served both coordinator incarnations: {report:?}"
    );
    assert_eq!(report.units, (units.len() * 2) as u64);
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

/// A failed write severs the agent's session. The fault model's `reset`
/// and `truncate` fail an agent's write of a result or a heartbeat; the
/// agent must then drop the link and redial. An agent that instead
/// loses the writing thread but keeps reading units leaves those units
/// to the coordinator's deadline, and the run stalls for tens of
/// seconds. This is the bench snapshot's chaos shape, over five seeds,
/// each run under a bound far below the unit deadline.
#[test]
fn a_failed_agent_write_severs_the_session_instead_of_stalling_units() {
    let _chaos = chaos_guard();
    let (corpus_dir, units) = materialize("chaos_write_fail", 48);
    let reference = in_process_report(&units);
    for seed in 11..16 {
        let handle = FleetCoordinator::bind(
            &tcp0(),
            FleetOptions {
                max_attempts: 64,
                unit_timeout: Duration::from_secs(30),
                ..secured_options()
            },
        )
        .expect("bind");
        let a1 = loop_agent(handle.endpoint(), secured_agent(1, 21));
        let a2 = loop_agent(handle.endpoint(), secured_agent(1, 22));
        assert!(handle.wait_for_agents(2, Duration::from_secs(10)));
        let chaos = PlanGuard::install(FaultPlan {
            corrupt: 30,
            truncate: 10,
            reset: 10,
            dup: 30,
            delay: 20,
            delay_ms: 1,
            ..FaultPlan::quiet(seed)
        });
        let started = std::time::Instant::now();
        let run = analyze_corpus_fleet(&units, &handle).expect("chaos run completes");
        let elapsed = started.elapsed();
        drop(chaos);
        assert!(
            elapsed < Duration::from_secs(5),
            "seed {seed}: the run stalled for {elapsed:?}: {:?}",
            run.stats
        );
        assert_eq!(run.stats.timeouts, 0, "seed {seed}: {:?}", run.stats);
        assert_eq!(reference, bside_dist::report_of_run(&run), "seed {seed}");
        assert!(handle.wait_for_agents(2, Duration::from_secs(10)));
        handle.shutdown();
        a1.join().expect("agent thread").expect("clean goodbye");
        a2.join().expect("agent thread").expect("clean goodbye");
    }
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

/// Line noise can forge a downgrade: the welcome travels before frames
/// are sealed, so one corrupted byte in its `sealed` key reads as an
/// unsealed coordinator. The reconnect loop must treat that verdict
/// like a reject, believing it only when three handshakes in a row end
/// that way, instead of leaving the fleet an agent short for good.
#[test]
fn a_downgrade_verdict_is_retried_before_it_is_believed() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let _chaos = chaos_guard();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    let handshakes = Arc::new(AtomicUsize::new(0));
    // A coordinator that always welcomes unsealed. The thread is left
    // blocked in `accept` when the test ends.
    {
        let handshakes = Arc::clone(&handshakes);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut writer = stream.expect("accept");
                let mut reader = BufReader::new(writer.try_clone().expect("clone"));
                let nonce = "ab".repeat(32);
                write_message(&mut writer, &ToAgent::Challenge { nonce }).expect("challenge");
                let hello = read_message_capped::<FromAgent>(&mut reader, MAX_FLEET_LINE_BYTES);
                assert!(
                    matches!(hello, Ok(Some(FromAgent::Hello { .. }))),
                    "{hello:?}"
                );
                // Counted before the welcome leaves, so the agent cannot
                // act on it before the count is visible.
                handshakes.fetch_add(1, Ordering::SeqCst);
                let welcome = ToAgent::Welcome {
                    version: PROTOCOL_VERSION,
                    heartbeat_interval_ms: 1000,
                    sealed: false,
                };
                write_message(&mut writer, &welcome).expect("welcome");
            }
        });
    }
    let err = run_agent_loop(&endpoint, &secured_agent(1, 5))
        .expect_err("a downgrade that keeps repeating is believed");
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
    assert_eq!(handshakes.load(Ordering::SeqCst), 3);
}
