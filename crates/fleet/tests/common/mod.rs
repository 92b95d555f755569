//! Helpers shared by the fleet integration tests.

// Each integration-test binary compiles this module separately and uses
// a different subset of the helpers.
#![allow(dead_code)]

use bside_core::{Analyzer, AnalyzerOptions};
use bside_dist::report_of_in_process;
use bside_gen::corpus::{corpus_with_size, DEFAULT_SEED};
use std::path::PathBuf;

/// The `bside-agent` binary Cargo built alongside these tests.
pub fn agent_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_bside-agent"))
}

/// A per-test, per-process scratch path (removed first if it exists).
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bside_fleet_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Materializes `n` static default-seed corpus binaries under a fresh
/// scratch directory.
pub fn materialize(tag: &str, n: usize) -> (PathBuf, Vec<(String, PathBuf)>) {
    let dir = temp_dir(tag);
    let units = corpus_with_size(DEFAULT_SEED, n, 0, 0)
        .materialize_static(&dir)
        .expect("corpus materializes");
    (dir, units)
}

/// The in-process reference report over materialized units — what every
/// fleet run must reproduce byte-for-byte.
pub fn in_process_report(units: &[(String, PathBuf)]) -> String {
    let images: Vec<(String, Vec<u8>)> = units
        .iter()
        .map(|(name, path)| (name.clone(), std::fs::read(path).expect("unit file reads")))
        .collect();
    let elfs: Vec<(String, bside_elf::Elf)> = images
        .iter()
        .map(|(name, bytes)| {
            (
                name.clone(),
                bside_elf::Elf::parse(bytes).expect("unit parses"),
            )
        })
        .collect();
    let refs: Vec<(&str, &bside_elf::Elf)> = elfs.iter().map(|(n, e)| (n.as_str(), e)).collect();
    let results = Analyzer::new(AnalyzerOptions::default()).analyze_corpus(&refs);
    report_of_in_process(&results)
}

/// Spawns an in-thread agent against `endpoint` (for tests that need
/// live agents but no process-level faults).
pub fn thread_agent(
    endpoint: &bside_dist::Endpoint,
    slots: usize,
) -> std::thread::JoinHandle<std::io::Result<bside_fleet::AgentReport>> {
    let endpoint = endpoint.clone();
    std::thread::spawn(move || {
        bside_fleet::run_agent(
            &endpoint,
            &bside_fleet::AgentOptions {
                slots,
                dial_timeout: Some(std::time::Duration::from_secs(10)),
                ..bside_fleet::AgentOptions::default()
            },
        )
    })
}

/// Spawns a real `bside-agent` process against `endpoint` with extra
/// environment variables (the fault hooks).
pub fn process_agent(
    endpoint: &bside_dist::Endpoint,
    slots: usize,
    env: &[(String, String)],
) -> std::process::Child {
    let addr = match endpoint {
        bside_dist::Endpoint::Tcp(addr) => addr.clone(),
        bside_dist::Endpoint::Unix(path) => format!("unix:{}", path.display()),
    };
    let mut command = std::process::Command::new(agent_bin());
    command
        .arg("--connect")
        .arg(&addr)
        .arg("--slots")
        .arg(slots.to_string())
        .stderr(std::process::Stdio::null());
    for (key, value) in env {
        command.env(key, value);
    }
    command.spawn().expect("agent process spawns")
}
