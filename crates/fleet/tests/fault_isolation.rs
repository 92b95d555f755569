//! Process-level fault isolation on a local run: an agent process that
//! crashes, hangs, or keeps failing loses only its current unit — the
//! corpus run always completes, the lost unit is retried on another
//! process (the supervisor replaces the dead or killed one), and the
//! merged report still matches the in-process engine byte-for-byte.
//!
//! The faults are injected through the `bside-agent` test hooks
//! (`BSIDE_AGENT_CRASH_UNIT` / `BSIDE_AGENT_HANG_UNIT` /
//! `BSIDE_AGENT_FAULT_MARKER`), passed via `LocalAgents::env` so only the
//! agents of one run see them.

mod common;

use bside_dist::{report_of_run, FailureKind};
use bside_fleet::{analyze_corpus_local, FleetOptions, LocalAgents};
use common::{agent_bin, in_process_report, materialize, temp_dir};
use std::time::Duration;

fn agents(env: Vec<(String, String)>) -> LocalAgents {
    LocalAgents {
        workers: 2,
        agent_bin: Some(agent_bin()),
        env,
    }
}

#[test]
fn crashed_worker_loses_only_its_unit_and_the_retry_recovers_it() {
    let (corpus_dir, units) = materialize("crash_once", 8);
    let reference = in_process_report(&units);
    let marker = temp_dir("crash_once_marker").with_extension("flag");
    let victim = units[3].0.clone();

    let run = analyze_corpus_local(
        &units,
        FleetOptions::default(),
        &agents(vec![
            ("BSIDE_AGENT_CRASH_UNIT".to_string(), victim.clone()),
            (
                "BSIDE_AGENT_FAULT_MARKER".to_string(),
                marker.display().to_string(),
            ),
        ]),
    )
    .expect("run completes despite the crash");

    assert!(
        run.stats.worker_crashes >= 1,
        "the injected crash must be observed: {:?}",
        run.stats
    );
    assert!(run.stats.retries >= 1, "the lost unit must be retried");
    assert_eq!(run.stats.failures, 0, "the retry must recover the unit");
    let recovered = run
        .results
        .iter()
        .find(|r| r.name == victim)
        .expect("victim present in merged results");
    assert!(recovered.result.is_ok());
    assert_eq!(recovered.attempts, 2, "first attempt died with the agent");
    assert_eq!(
        reference,
        report_of_run(&run),
        "fault recovery changed the merged report"
    );

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn hung_worker_is_killed_at_the_deadline_and_the_unit_recovers() {
    let (corpus_dir, units) = materialize("hang_once", 6);
    let reference = in_process_report(&units);
    let marker = temp_dir("hang_once_marker").with_extension("flag");
    let victim = units[2].0.clone();

    let run = analyze_corpus_local(
        &units,
        FleetOptions {
            unit_timeout: Duration::from_secs(2),
            ..FleetOptions::default()
        },
        &agents(vec![
            ("BSIDE_AGENT_HANG_UNIT".to_string(), victim.clone()),
            (
                "BSIDE_AGENT_FAULT_MARKER".to_string(),
                marker.display().to_string(),
            ),
        ]),
    )
    .expect("run completes despite the hang");

    assert!(
        run.stats.timeouts >= 1,
        "the hang must be cut at the deadline: {:?}",
        run.stats
    );
    assert_eq!(run.stats.failures, 0);
    assert_eq!(reference, report_of_run(&run));

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn persistently_crashing_unit_becomes_a_per_unit_failure_not_an_aborted_run() {
    let (corpus_dir, units) = materialize("crash_always", 6);
    let victim = units[1].0.clone();

    // No fault marker: every attempt at the victim aborts its agent.
    let run = analyze_corpus_local(
        &units,
        FleetOptions::default(),
        &agents(vec![("BSIDE_AGENT_CRASH_UNIT".to_string(), victim.clone())]),
    )
    .expect("run completes despite a poison unit");

    assert_eq!(run.stats.units, units.len());
    assert_eq!(run.stats.failures, 1, "exactly the poison unit fails");
    let poisoned = run
        .results
        .iter()
        .find(|r| r.name == victim)
        .expect("victim present in merged results");
    let failure = poisoned.result.as_ref().expect_err("victim must fail");
    assert_eq!(failure.kind, FailureKind::WorkerCrash);
    assert_eq!(failure.attempts, 2, "one retry, then terminal");
    for report in run.results.iter().filter(|r| r.name != victim) {
        assert!(
            report.result.is_ok(),
            "{} must be isolated from the poison unit",
            report.name
        );
    }

    let _ = std::fs::remove_dir_all(&corpus_dir);
}

#[test]
fn agents_that_never_say_hello_fail_the_run_instead_of_hanging_it() {
    let (corpus_dir, units) = materialize("no_hello", 2);
    // An "agent" that exits at once: no unit can ever be dispatched, so
    // the supervisor must give up and end the run with an error.
    let err = analyze_corpus_local(
        &units,
        FleetOptions::default(),
        &LocalAgents {
            workers: 1,
            agent_bin: Some("/bin/false".into()),
            env: Vec::new(),
        },
    )
    .expect_err("a run without agents must fail, not hang");
    assert!(
        err.to_string().contains("no local agent could be started"),
        "got: {err}"
    );

    let _ = std::fs::remove_dir_all(&corpus_dir);
}
