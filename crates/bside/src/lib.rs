//! # B-Side: binary-level static system call identification
//!
//! A complete Rust implementation of
//! *B-Side: Binary-Level Static System Call Identification*
//! (Thévenon et al., MIDDLEWARE 2024): a static binary-analysis framework
//! that identifies a precise superset of the system calls an x86-64 ELF
//! executable can invoke — with no access to source code — and derives
//! seccomp-style (optionally phase-based) filtering policies from it.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`syscalls`] | `bside-syscalls` | syscall table, [`SyscallSet`], CVE database |
//! | [`elf`] | `bside-elf` | ELF64 reader/writer |
//! | [`x86`] | `bside-x86` | decoder, assembler, concrete interpreter |
//! | [`mod@cfg`] | `bside-cfg` | CFG recovery, active address-taken heuristic |
//! | [`symex`] | `bside-symex` | backward-BFS + directed symbolic execution |
//! | [`core`] | `bside-core` | the analysis pipeline, wrappers, shared interfaces, phases |
//! | [`dist`] | `bside-dist` | shared wire/cache/report plumbing: sockets, NDJSON codec, fault injection, result cache, report renderer, policy bundles |
//! | [`fleet`] | `bside-fleet` | the corpus engine: local agent processes or a TCP fleet, heartbeat scheduling, serve offload |
//! | [`serve`] | `bside-serve` | policy-distribution daemon, content-addressed policy store, client |
//! | [`baselines`] | `bside-baselines` | Chestnut / SysFilter reimplementations |
//! | [`gen`] | `bside-gen` | synthetic ground-truth corpus generator |
//! | [`filter`] | `bside-filter` | policies, metrics, replay, CVE evaluation |
//!
//! # Quickstart
//!
//! ```
//! use bside::{Analyzer, AnalyzerOptions, FilterPolicy};
//!
//! // Generate a demo binary (in real use: read any x86-64 ELF from disk).
//! let program = bside::gen::profiles::lighttpd().program;
//!
//! // Identify its system calls.
//! let analysis = Analyzer::new(AnalyzerOptions::default())
//!     .analyze_static(&program.elf)?;
//!
//! // Derive a seccomp-style allow-list.
//! let policy = FilterPolicy::allow_only("lighttpd", analysis.syscalls);
//! assert!(policy.permits(bside::syscalls::well_known::READ));
//! assert!(!policy.permits(bside::syscalls::well_known::EXECVE));
//! # Ok::<(), bside::core::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use bside_baselines as baselines;
pub use bside_cfg as cfg;
pub use bside_core as core;
pub use bside_dist as dist;
pub use bside_elf as elf;
pub use bside_filter as filter;
pub use bside_fleet as fleet;
pub use bside_gen as gen;
pub use bside_serve as serve;
pub use bside_symex as symex;
pub use bside_syscalls as syscalls;
pub use bside_x86 as x86;

pub use bside_core::{Analyzer, AnalyzerOptions, BinaryAnalysis, LibraryStore, SharedInterface};
pub use bside_filter::{FilterPolicy, PhasePolicy};
pub use bside_syscalls::{SyscallSet, Sysno};

/// Parses a positive worker count from an environment variable; `None`
/// when the variable is unset, empty, non-numeric, or zero.
fn positive_env(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Default analyzer options honoring the `BSIDE_PARALLELISM` worker-count
/// override — the one code path every CLI subcommand (and any embedder
/// wanting CLI-compatible behavior) goes through. Identical results at
/// any value: worker count is unobservable by the engine's determinism
/// contract.
pub fn analyzer_options_from_env() -> AnalyzerOptions {
    let mut options = AnalyzerOptions::default();
    if let Some(n) = positive_env("BSIDE_PARALLELISM") {
        options.parallelism = n;
    }
    options
}

/// The default agent-process count for `bside corpus --workers`:
/// `BSIDE_PARALLELISM` when set, otherwise all cores.
pub fn default_worker_count() -> usize {
    positive_env("BSIDE_PARALLELISM").unwrap_or_else(bside_core::default_parallelism)
}
