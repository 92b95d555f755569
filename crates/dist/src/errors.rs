//! Error types and failure messages shared by every corpus engine.
//!
//! Two layers are deliberately kept apart: [`DistError`] aborts a whole
//! corpus run (agent binary unlocatable, cache directory unusable, no
//! agent could be started), while [`UnitFailure`] is scoped to one work
//! unit and **never** aborts the run — the fault-isolation contract.

use std::fmt;
use std::path::PathBuf;

/// The unit-failure message for an unreadable file. Shared (with
/// [`parse_error_message`]) by the coordinator and the CLI's in-process
/// reference path, so degraded reports are byte-identical across
/// deployment modes — one definition, every engine.
pub fn read_error_message(path: &str, e: &std::io::Error) -> String {
    format!("reading {path}: {e}")
}

/// The unit-failure message for a file that is not a parseable ELF.
pub fn parse_error_message(path: &str, e: &bside_elf::ElfError) -> String {
    format!("parsing {path}: {e}")
}

/// A run-level failure: the coordinator could not do its job at all.
#[derive(Debug)]
#[non_exhaustive]
pub enum DistError {
    /// The `bside-agent` binary for local agents could not be located.
    AgentBinNotFound {
        /// The locations that were tried, in order.
        tried: Vec<PathBuf>,
    },
    /// The local coordinator could not be set up, or no local agent
    /// could be started.
    Local(std::io::Error),
    /// The result cache directory could not be created or accessed.
    Cache(std::io::Error),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::AgentBinNotFound { tried } => {
                write!(
                    f,
                    "bside-agent binary not found (tried: {}); build it with \
                     `cargo build -p bside-fleet`",
                    tried
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            DistError::Local(e) => write!(f, "local agents unavailable: {e}"),
            DistError::Cache(e) => write!(f, "result cache unavailable: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

/// Why one work unit failed. Ordered roughly by how the coordinator
/// learns about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The agent reported an analysis error (budget exhaustion, missing
    /// `.text`, unreadable file …) — deterministic, the in-model analogue
    /// of the paper's per-binary timeouts (§5.2).
    Analysis,
    /// The agent died mid-unit (crash, panic, OOM kill, lost link).
    WorkerCrash,
    /// The unit exceeded the per-unit wall-clock budget and its agent
    /// was severed (and, when local, killed).
    Timeout,
    /// The agent produced bytes that do not parse as protocol messages.
    Protocol,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Analysis => "analysis error",
            FailureKind::WorkerCrash => "worker crash",
            FailureKind::Timeout => "timeout",
            FailureKind::Protocol => "protocol error",
        })
    }
}

/// The terminal failure record of one work unit, written into the merged
/// report after the retry budget is spent.
#[derive(Debug, Clone)]
pub struct UnitFailure {
    /// What went wrong on the last attempt.
    pub kind: FailureKind,
    /// Human-readable detail (the analysis error's `Display` for
    /// [`FailureKind::Analysis`], so the merged report renders exactly
    /// like the in-process run's).
    pub message: String,
    /// Total attempts spent on the unit (including the failing one).
    pub attempts: u32,
}

impl fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}
