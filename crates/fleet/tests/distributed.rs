//! The determinism contract across deployment modes: for the default
//! synthetic corpus, a local run with N agent processes produces a
//! merged report **byte-identical** to the in-process
//! `Analyzer::analyze_corpus`, for N ∈ {1, 4} — and the
//! content-addressed cache answers re-runs without changing a byte.

mod common;

use bside_dist::report_of_run;
use bside_fleet::{analyze_corpus_local, FleetOptions, LocalAgents};
use bside_gen::corpus::{corpus_with_size, DEFAULT_SEED};
use common::{agent_bin, in_process_report, temp_dir};

fn agents(workers: usize) -> LocalAgents {
    LocalAgents {
        workers,
        agent_bin: Some(agent_bin()),
        env: Vec::new(),
    }
}

#[test]
fn distributed_report_is_byte_identical_to_in_process_for_1_and_4_workers() {
    let corpus_dir = temp_dir("determinism_corpus");
    let units = corpus_with_size(DEFAULT_SEED, 10, 0, 0)
        .materialize_static(&corpus_dir)
        .expect("corpus materializes");
    let reference = in_process_report(&units);

    for workers in [1, 4] {
        let run = analyze_corpus_local(&units, FleetOptions::default(), &agents(workers))
            .expect("local run completes");
        assert_eq!(run.stats.units, units.len());
        assert_eq!(run.stats.failures, 0, "default corpus analyzes cleanly");
        assert_eq!(
            reference,
            report_of_run(&run),
            "workers={workers}: local report diverged from in-process"
        );
    }
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

#[test]
fn degraded_units_fail_per_unit_with_the_shared_message_format() {
    use bside_dist::{parse_error_message, read_error_message};

    let corpus_dir = temp_dir("degraded_corpus");
    let mut units = corpus_with_size(DEFAULT_SEED, 4, 0, 0)
        .materialize_static(&corpus_dir)
        .expect("corpus materializes");
    // One non-ELF unit and one dangling path, mid-corpus.
    let garbage = corpus_dir.join("0001_garbage.elf");
    std::fs::write(&garbage, b"not an elf").unwrap();
    units[1] = ("0001_garbage".to_string(), garbage.clone());
    let missing = corpus_dir.join("0002_missing.elf");
    let old = std::mem::replace(&mut units[2], ("0002_missing".to_string(), missing.clone()));
    std::fs::remove_file(&old.1).ok();

    let run = analyze_corpus_local(&units, FleetOptions::default(), &agents(2))
        .expect("run completes despite degraded units");
    assert_eq!(run.stats.failures, 2, "exactly the degraded units fail");

    // The failure messages are the shared helpers' output verbatim —
    // the same strings the CLI's in-process path emits, which is what
    // keeps degraded reports byte-identical across deployment modes.
    let parse_failure = run.results[1].result.as_ref().expect_err("garbage fails");
    let expected = {
        let bytes = std::fs::read(&garbage).unwrap();
        let err = bside_elf::Elf::parse(&bytes).expect_err("not an ELF");
        parse_error_message(garbage.to_str().unwrap(), &err)
    };
    assert_eq!(parse_failure.message, expected);

    let read_failure = run.results[2].result.as_ref().expect_err("missing fails");
    let expected = {
        let err = std::fs::read(&missing).expect_err("file is gone");
        read_error_message(missing.to_str().unwrap(), &err)
    };
    assert_eq!(read_failure.message, expected);

    // The healthy units are untouched by their neighbours' failures.
    assert!(run.results[0].result.is_ok());
    assert!(run.results[3].result.is_ok());

    let _ = std::fs::remove_dir_all(&corpus_dir);
}

#[test]
fn cache_answers_rerun_without_changing_the_report() {
    let corpus_dir = temp_dir("cache_corpus");
    let cache_dir = temp_dir("cache_store");
    let units = corpus_with_size(DEFAULT_SEED ^ 0xCAC4E, 6, 0, 0)
        .materialize_static(&corpus_dir)
        .expect("corpus materializes");

    let options = || FleetOptions {
        cache_dir: Some(cache_dir.clone()),
        ..FleetOptions::default()
    };
    let cold = analyze_corpus_local(&units, options(), &agents(2)).expect("cold run completes");
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(cold.stats.failures, 0);

    let warm = analyze_corpus_local(&units, options(), &agents(2)).expect("warm run completes");
    assert_eq!(
        warm.stats.cache_hits,
        units.len(),
        "every unchanged unit must be answered from the cache"
    );
    assert!(warm.results.iter().all(|r| r.from_cache));
    assert_eq!(
        report_of_run(&cold),
        report_of_run(&warm),
        "cache round-trip changed the report"
    );

    // A changed binary misses; the rest still hit.
    let (_, first_path) = &units[0];
    let mut bytes = std::fs::read(first_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(first_path, &bytes).unwrap();
    let mixed = analyze_corpus_local(&units, options(), &agents(2)).expect("mixed run completes");
    assert_eq!(mixed.stats.cache_hits, units.len() - 1);

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
