//! Corpus run results and the merged corpus report.
//!
//! One renderer serves every deployment mode: in-process
//! [`Analyzer::analyze_corpus`](bside_core::Analyzer::analyze_corpus)
//! batches and agent-backed [`CorpusRun`]s both reduce to
//! `(name, Result<analysis, error-string>)` rows in input order, so a
//! run at any agent count is **byte-identical** to the in-process
//! report — the determinism contract the `distributed` integration test
//! enforces.

use crate::errors::UnitFailure;
use bside_core::{AnalysisError, BinaryAnalysis};
use std::fmt::Write as _;

/// The outcome of one corpus unit, in input order.
#[derive(Debug)]
pub struct UnitReport {
    /// The unit's display name.
    pub name: String,
    /// The analysis, or the terminal failure after the retry budget.
    pub result: Result<BinaryAnalysis, UnitFailure>,
    /// Dispatch attempts spent (0 for a cache hit).
    pub attempts: u32,
    /// `true` when the result came from the cache without dispatching.
    pub from_cache: bool,
}

/// Aggregate counters of a corpus run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total corpus units.
    pub units: usize,
    /// Agents that took part in the run.
    pub workers: usize,
    /// Units answered from the result cache.
    pub cache_hits: usize,
    /// Units requeued after a lost attempt.
    pub retries: usize,
    /// Agents lost mid-run (crashed, severed, or killed).
    pub worker_crashes: usize,
    /// Unit attempts that expired at the deadline.
    pub timeouts: usize,
    /// Units that ended in a permanent failure.
    pub failures: usize,
}

/// A completed corpus run.
#[derive(Debug)]
pub struct CorpusRun {
    /// Per-unit outcomes, in input order.
    pub results: Vec<UnitReport>,
    /// Run counters.
    pub stats: RunStats,
}

/// Renders the canonical, timing-free merged report for an ordered
/// sequence of per-binary outcomes.
pub fn render_units<'a, I>(rows: I) -> String
where
    I: IntoIterator<Item = (&'a str, Result<&'a BinaryAnalysis, String>)>,
{
    let mut out = String::new();
    for (name, outcome) in rows {
        let _ = writeln!(out, "=== {name} ===");
        match outcome {
            Ok(analysis) => out.push_str(&analysis.canonical_report()),
            Err(message) => {
                let _ = writeln!(out, "error: {message}");
            }
        }
    }
    out
}

/// The merged report of an agent-backed [`CorpusRun`].
pub fn report_of_run(run: &CorpusRun) -> String {
    render_units(run.results.iter().map(|unit| {
        (
            unit.name.as_str(),
            unit.result.as_ref().map_err(|f| f.message.clone()),
        )
    }))
}

/// The merged report of an in-process
/// [`Analyzer::analyze_corpus`](bside_core::Analyzer::analyze_corpus)
/// batch — the reference every agent-backed run must match byte-for-byte.
pub fn report_of_in_process(results: &[(String, Result<BinaryAnalysis, AnalysisError>)]) -> String {
    render_units(
        results
            .iter()
            .map(|(name, result)| (name.as_str(), result.as_ref().map_err(|e| e.to_string()))),
    )
}
