//! Machine-level fault isolation: an agent that dies mid-unit, severs
//! its connection mid-result-frame, or keeps crashing loses only what
//! it held — the corpus run completes via requeue onto surviving
//! agents, and the merged report still matches the in-process engine
//! byte-for-byte.
//!
//! The faults are injected through the `bside-agent` process hooks
//! (`BSIDE_AGENT_CRASH_UNIT` / `BSIDE_AGENT_SEVER_UNIT` /
//! `BSIDE_AGENT_FAULT_MARKER`), so these tests drive real agent
//! processes over real TCP sockets — the same machinery a fleet
//! operator runs.

mod common;

use bside_dist::Endpoint;
use bside_fleet::{analyze_corpus_fleet, FleetCoordinator, FleetOptions};
use common::{in_process_report, materialize, process_agent, temp_dir};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tcp0() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// Reaps an agent process without failing the test if it already exited.
fn reap(mut child: std::process::Child) {
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn killed_agent_loses_only_its_units_and_survivors_finish_the_corpus() {
    let (corpus_dir, units) = materialize("agent_crash", 8);
    let reference = in_process_report(&units);
    let marker = temp_dir("agent_crash_marker").with_extension("flag");
    let victim = units[3].0.clone();

    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");
    // Both agents carry the crash hook with a shared one-shot marker:
    // whichever pulls the victim dies (a SIGABRT is a fair model of a
    // machine going away mid-unit), and the retry lands on the survivor,
    // which by then sees the marker and behaves.
    let fault_env = vec![
        ("BSIDE_AGENT_CRASH_UNIT".to_string(), victim.clone()),
        (
            "BSIDE_AGENT_FAULT_MARKER".to_string(),
            marker.display().to_string(),
        ),
    ];
    let a1 = process_agent(handle.endpoint(), 1, &fault_env);
    let a2 = process_agent(handle.endpoint(), 1, &fault_env);
    assert!(
        handle.wait_for_agents(2, Duration::from_secs(20)),
        "both agent processes register"
    );

    let run = analyze_corpus_fleet(&units, &handle).expect("run completes despite the crash");
    assert!(
        run.stats.worker_crashes >= 1,
        "the killed agent must be observed: {:?}",
        run.stats
    );
    assert!(run.stats.retries >= 1, "the lost unit must be requeued");
    assert_eq!(run.stats.failures, 0, "the requeue must recover the unit");
    let recovered = run
        .results
        .iter()
        .find(|r| r.name == victim)
        .expect("victim present in merged results");
    assert!(recovered.result.is_ok());
    assert_eq!(
        recovered.attempts, 2,
        "first attempt died with its agent, second succeeded elsewhere"
    );
    assert_eq!(
        reference,
        bside_dist::report_of_run(&run),
        "fault recovery changed the merged report"
    );
    let stats = handle.stats();
    assert!(stats.agents_lost >= 1, "{stats:?}");

    handle.shutdown();
    reap(a1);
    reap(a2);
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn connection_severed_mid_result_frame_is_requeued_on_a_survivor() {
    let (corpus_dir, units) = materialize("agent_sever", 8);
    let reference = in_process_report(&units);
    let marker = temp_dir("agent_sever_marker").with_extension("flag");
    let victim = units[2].0.clone();

    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");
    // The sever hook flushes *half* the victim's result frame onto the
    // wire and aborts: the coordinator reads a torn line + EOF — framing
    // gone, unit requeued.
    let fault_env = vec![
        ("BSIDE_AGENT_SEVER_UNIT".to_string(), victim.clone()),
        (
            "BSIDE_AGENT_FAULT_MARKER".to_string(),
            marker.display().to_string(),
        ),
    ];
    let a1 = process_agent(handle.endpoint(), 1, &fault_env);
    let a2 = process_agent(handle.endpoint(), 1, &fault_env);
    assert!(
        handle.wait_for_agents(2, Duration::from_secs(20)),
        "both agent processes register"
    );

    let run = analyze_corpus_fleet(&units, &handle).expect("run completes despite the sever");
    assert!(run.stats.retries >= 1, "the torn unit must be requeued");
    assert_eq!(run.stats.failures, 0, "{:?}", run.stats);
    let recovered = run
        .results
        .iter()
        .find(|r| r.name == victim)
        .expect("victim present in merged results");
    assert!(recovered.result.is_ok());
    assert_eq!(recovered.attempts, 2, "torn frame spent one attempt");
    assert_eq!(
        reference,
        bside_dist::report_of_run(&run),
        "mid-frame sever changed the merged report"
    );

    handle.shutdown();
    reap(a1);
    reap(a2);
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn poison_unit_with_a_respawning_fleet_becomes_a_per_unit_failure() {
    let (corpus_dir, units) = materialize("agent_poison", 6);
    let victim = units[1].0.clone();

    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");
    // No marker: every agent that pulls the victim dies. Unlike the dist
    // coordinator, a fleet cannot respawn remote machines — an operator's
    // supervisor (systemd, a k8s ReplicaSet) does. Model it: keep one
    // fresh agent process coming until the run completes. The victim
    // burns its attempt budget across two agent generations and is
    // recorded as a per-unit failure; every other unit completes.
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = {
        let stop = Arc::clone(&stop);
        let endpoint = handle.endpoint().clone();
        let fault_env = vec![("BSIDE_AGENT_CRASH_UNIT".to_string(), victim.clone())];
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let mut child = process_agent(&endpoint, 1, &fault_env);
                loop {
                    if stop.load(Ordering::SeqCst) {
                        let _ = child.kill();
                        let _ = child.wait();
                        return;
                    }
                    match child.try_wait() {
                        Ok(Some(_)) => break, // died (the poison): respawn
                        Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                        Err(_) => break,
                    }
                }
            }
        })
    };

    let run = analyze_corpus_fleet(&units, &handle).expect("run completes despite a poison unit");
    stop.store(true, Ordering::SeqCst);

    assert_eq!(run.stats.units, units.len());
    assert_eq!(run.stats.failures, 1, "exactly the poison unit fails");
    let poisoned = run
        .results
        .iter()
        .find(|r| r.name == victim)
        .expect("victim present in merged results");
    let failure = poisoned.result.as_ref().expect_err("victim must fail");
    assert_eq!(failure.attempts, 2, "one retry, then terminal");
    for report in run.results.iter().filter(|r| r.name != victim) {
        assert!(
            report.result.is_ok(),
            "{} must be isolated from the poison unit",
            report.name
        );
    }
    assert!(
        handle.stats().agents_lost >= 2,
        "each poison attempt took an agent generation with it: {:?}",
        handle.stats()
    );

    handle.shutdown();
    supervisor.join().expect("supervisor thread");
    let _ = std::fs::remove_dir_all(&corpus_dir);
}
