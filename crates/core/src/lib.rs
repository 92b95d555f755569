//! The B-Side analysis pipeline (Fig. 3 of the paper).
//!
//! B-Side takes a static executable, a dynamically compiled executable
//! with its shared library dependencies, or a shared object, and produces
//! a superset of the system calls the program can invoke at runtime:
//!
//! 1. **Disassembly** — decode, recover the CFG, resolve indirect branches
//!    with the *active addresses taken* heuristic (delegated to
//!    `bside-cfg`);
//! 2. **System call identification** — locate reachable `syscall` sites,
//!    detect *system call wrappers* with a two-phase heuristic
//!    ([`wrapper`]), and run the backward-BFS + directed-forward symbolic
//!    search (`bside-symex`) for each site ([`identify`]);
//! 3. **Shared calls analysis** — analyze each library once into a JSON
//!    *shared interface*, then resolve a dynamic executable's imports
//!    through those interfaces ([`shared`]);
//! 4. **Phase detection** — build the NFA → DFA phase automaton whose
//!    states are program phases and transitions are system calls
//!    ([`phase`]).
//!
//! # Examples
//!
//! ```
//! use bside_core::{Analyzer, AnalyzerOptions};
//! use bside_x86::{Assembler, Reg};
//! use bside_elf::{ElfBuilder, ElfKind, SymbolSpec};
//!
//! // A static binary: _start { write(…); exit(…) }.
//! let mut asm = Assembler::new(0x401000);
//! asm.mov_reg_imm32(Reg::Rax, 1);
//! asm.syscall();
//! asm.mov_reg_imm32(Reg::Rax, 60);
//! asm.syscall();
//! let code = asm.finish().unwrap();
//! let len = code.len() as u64;
//! let image = ElfBuilder::new(ElfKind::Executable)
//!     .text(code, 0x401000)
//!     .entry(0x401000)
//!     .symbol(SymbolSpec::function("_start", 0x401000, len))
//!     .build()
//!     .unwrap();
//!
//! let elf = bside_elf::Elf::parse(&image).unwrap();
//! let analysis = Analyzer::new(AnalyzerOptions::default()).analyze_static(&elf).unwrap();
//! let names: Vec<String> = analysis.syscalls.iter().map(|s| s.to_string()).collect();
//! assert_eq!(names, vec!["write", "exit"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod identify;
mod par;
pub mod phase;
pub mod report;
pub mod shared;
pub mod wire;
pub mod wrapper;

use bside_cfg::{Cfg, CfgOptions, FunctionSym};
use bside_elf::Elf;
use bside_obs as obs;
use bside_symex::Limits;
use bside_syscalls::SyscallSet;
use std::fmt;

pub use identify::{SiteOutcome, SiteReport};
pub use par::default_parallelism;
pub use report::{AnalysisStats, PhaseTimings, PipelineTimings};
pub use shared::{LibraryStore, SharedInterface};
pub use wrapper::{WrapperInfo, WrapperParam};

/// Errors produced by the analyzer.
#[derive(Debug)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The ELF image could not provide the pieces the analysis needs.
    Elf(bside_elf::ElfError),
    /// The image has no `.text` section.
    NoText,
    /// The image has no usable entry point or exposed functions.
    NoEntry,
    /// A search budget was exhausted — the in-model analogue of the
    /// paper's per-binary analysis timeout (§5.2 reports these as
    /// failures).
    Timeout {
        /// Which pipeline step exhausted its budget.
        step: &'static str,
    },
    /// A needed shared library was not present in the [`LibraryStore`].
    MissingLibrary(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Elf(e) => write!(f, "ELF error: {e}"),
            AnalysisError::NoText => f.write_str("image has no .text section"),
            AnalysisError::NoEntry => f.write_str("image has no entry point or exposed functions"),
            AnalysisError::Timeout { step } => write!(f, "analysis budget exhausted during {step}"),
            AnalysisError::MissingLibrary(name) => {
                write!(f, "shared library {name} not available for analysis")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<bside_elf::ElfError> for AnalysisError {
    fn from(e: bside_elf::ElfError) -> Self {
        AnalysisError::Elf(e)
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzerOptions {
    /// CFG recovery options (indirect-branch resolution strategy).
    pub cfg: CfgOptions,
    /// Symbolic-search budgets.
    pub limits: Limits,
    /// Enable the wrapper-detection heuristic (§4.4). Disabling it is the
    /// ablation that reproduces the over-estimation of Fig. 2 B.
    pub detect_wrappers: bool,
    /// When a site cannot be bounded (symbolic at a program boundary),
    /// fall back to "all known system calls" for that site. This keeps
    /// the no-false-negative guarantee at the cost of precision.
    pub conservative_fallback: bool,
    /// Worker threads for the embarrassingly-parallel pipeline stages:
    /// per-site identification, per-export attribution, and the batch
    /// APIs ([`Analyzer::analyze_corpus`], [`Analyzer::analyze_libraries`]).
    /// `1` runs everything inline on the calling thread. Results are
    /// byte-identical for every value — the fan-out preserves input order
    /// and each unit is a pure function of shared read-only state.
    ///
    /// Defaults to the machine's available hardware parallelism.
    pub parallelism: usize,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            cfg: CfgOptions::default(),
            limits: Limits::default(),
            detect_wrappers: true,
            conservative_fallback: true,
            parallelism: par::default_parallelism(),
        }
    }
}

/// The result of analyzing one binary.
#[derive(Debug)]
pub struct BinaryAnalysis {
    /// The identified superset of invocable system calls.
    pub syscalls: SyscallSet,
    /// Per-site detail.
    pub sites: Vec<SiteReport>,
    /// Detected system call wrappers.
    pub wrappers: Vec<WrapperInfo>,
    /// `false` if any site needed the conservative fallback.
    pub precise: bool,
    /// Cost counters and step timings (Table 3).
    pub stats: AnalysisStats,
    /// The recovered CFG (input to phase detection).
    pub cfg: Cfg,
}

impl BinaryAnalysis {
    /// A canonical, timing-free rendering of the analysis result.
    ///
    /// Two analyses of the same binary under the same options produce
    /// byte-identical canonical reports **regardless of
    /// [`AnalyzerOptions::parallelism`]** — the determinism contract of
    /// the parallel engine, checked by the `determinism` integration
    /// test. Wall-clock timings and peak RSS are deliberately excluded;
    /// every other observable (sites, sets, wrappers, cost counters) is
    /// included.
    pub fn canonical_report(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        let _ = writeln!(out, "syscalls: {}", self.syscalls);
        let _ = writeln!(out, "precise: {}", self.precise);
        let _ = writeln!(out, "sites: {}", self.sites.len());
        for site in &self.sites {
            let _ = writeln!(
                out,
                "  site {:#x} fn={} outcome={:?} set={}",
                site.site,
                site.function.as_deref().unwrap_or("?"),
                site.outcome,
                site.syscalls
            );
        }
        let _ = writeln!(out, "wrappers: {}", self.wrappers.len());
        for w in &self.wrappers {
            let _ = writeln!(
                out,
                "  wrapper {} entry={:#x} param={:?} sites={:?}",
                w.name, w.entry, w.param, w.sites
            );
        }
        let _ = writeln!(
            out,
            "cfg: blocks={} instructions={} ataken_iterations={} addresses_taken={}",
            self.stats.cfg.blocks,
            self.stats.cfg.instructions,
            self.stats.cfg.ataken_iterations,
            self.stats.cfg.addresses_taken
        );
        let _ = writeln!(out, "blocks_explored: {}", self.stats.blocks_explored);
        out
    }
}

/// The B-Side analyzer. See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    options: AnalyzerOptions,
}

impl Analyzer {
    /// Creates an analyzer with the given options.
    pub fn new(options: AnalyzerOptions) -> Self {
        Analyzer { options }
    }

    /// The analyzer's options.
    pub fn options(&self) -> &AnalyzerOptions {
        &self.options
    }

    fn functions_of(elf: &Elf) -> Vec<FunctionSym> {
        elf.function_symbols()
            .into_iter()
            .map(|s| FunctionSym {
                name: s.name.clone(),
                entry: s.value,
                size: s.size,
            })
            .collect()
    }

    /// Analyzes a static (or self-contained) executable: steps 1 and 2 of
    /// Fig. 3, rooted at the ELF entry point.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the image is missing `.text` or an
    /// entry point, or when a search budget is exhausted (the paper's
    /// timeout case).
    pub fn analyze_static(&self, elf: &Elf) -> Result<BinaryAnalysis, AnalysisError> {
        let (_, _) = elf.text().ok_or(AnalysisError::NoText)?;
        let entry = elf.entry_point();
        if entry == 0 {
            return Err(AnalysisError::NoEntry);
        }
        self.analyze_with_entries(elf, &[entry], None)
    }

    /// Analyzes a dynamically compiled executable against its library
    /// dependencies (step 3 of Fig. 3): system calls made directly by the
    /// binary plus those reachable through imported library functions,
    /// resolved via each library's shared interface.
    ///
    /// `modules` are shared objects loaded at runtime through
    /// `dlopen`-style mechanisms; per §4.5 the user names them explicitly
    /// and they are processed alongside the main binary.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Analyzer::analyze_static`], plus
    /// [`AnalysisError::MissingLibrary`] when a `DT_NEEDED` dependency is
    /// absent from `libs`.
    pub fn analyze_dynamic(
        &self,
        elf: &Elf,
        libs: &LibraryStore,
        modules: &[&SharedInterface],
    ) -> Result<BinaryAnalysis, AnalysisError> {
        for needed in elf.needed_libraries() {
            if !libs.contains(needed) {
                return Err(AnalysisError::MissingLibrary(needed.clone()));
            }
        }
        let mut analysis = self.analyze_with_entries(elf, &[elf.entry_point()], Some(libs))?;
        // dlopen modules: every exported function may be invoked.
        for module in modules {
            for export in module.exports.values() {
                analysis
                    .syscalls
                    .extend_from(&libs.resolve_export_set(module, export));
                if !export.complete {
                    analysis.precise = false;
                }
            }
        }
        Ok(analysis)
    }

    /// Analyzes a shared library into its [`SharedInterface`] (steps D–H
    /// of Fig. 3 run once per library, §4.5).
    ///
    /// `exposed` optionally restricts the analysis to the exported
    /// functions a particular program actually reaches; by default every
    /// exported function is analyzed.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the image is missing `.text` or
    /// exports nothing.
    pub fn analyze_library(
        &self,
        elf: &Elf,
        name: &str,
        exposed: Option<&[String]>,
    ) -> Result<SharedInterface, AnalysisError> {
        shared::analyze_library(self, elf, name, exposed)
    }

    /// A copy of this analyzer with a different worker count — used by
    /// the batch APIs to avoid nesting thread pools.
    fn with_parallelism(&self, parallelism: usize) -> Analyzer {
        let mut options = self.options.clone();
        options.parallelism = parallelism;
        Analyzer { options }
    }

    /// Analyzes a batch of self-contained binaries, fanning out across
    /// [`AnalyzerOptions::parallelism`] worker threads with one binary
    /// per work unit (inner per-site parallelism is disabled to avoid
    /// oversubscription). Results come back in input order, each binary's
    /// outcome independent of its neighbours' — exactly what a
    /// `gen::profiles` corpus run or a Debian-scale sweep needs.
    pub fn analyze_corpus(
        &self,
        binaries: &[(&str, &Elf)],
    ) -> Vec<(String, Result<BinaryAnalysis, AnalysisError>)> {
        let inner = self.with_parallelism(1);
        par::run_indexed(self.options.parallelism, binaries, |_, &(name, elf)| {
            (name.to_string(), inner.analyze_static(elf))
        })
    }

    /// Analyzes a batch of shared libraries into a [`LibraryStore`], one
    /// library per work unit across [`AnalyzerOptions::parallelism`]
    /// workers (§4.5's per-module analyses are mutually independent).
    ///
    /// Interfaces are inserted in input order, preserving the
    /// link-order "first export wins" resolution the store implements.
    ///
    /// # Errors
    ///
    /// Returns the first failing library's error, in input order.
    pub fn analyze_libraries(
        &self,
        libraries: &[(&str, &Elf)],
    ) -> Result<LibraryStore, AnalysisError> {
        let inner = self.with_parallelism(1);
        let interfaces = par::run_indexed_ctx_fallible(
            self.options.parallelism,
            libraries,
            || (),
            |(), _, &(name, elf)| inner.analyze_library(elf, name, None),
        )?;
        let mut store = LibraryStore::new();
        for interface in interfaces {
            store.insert(interface);
        }
        Ok(store)
    }

    /// Shared implementation: CFG recovery + site identification rooted at
    /// `entries`.
    pub(crate) fn analyze_with_entries(
        &self,
        elf: &Elf,
        entries: &[u64],
        libs: Option<&LibraryStore>,
    ) -> Result<BinaryAnalysis, AnalysisError> {
        let (text, text_vaddr) = elf.text().ok_or(AnalysisError::NoText)?;
        if entries.is_empty() || entries.iter().all(|&e| e == 0) {
            return Err(AnalysisError::NoEntry);
        }
        let functions = Self::functions_of(elf);

        // Each phase is one obs span; the span's own wall-clock is also
        // what fills `PhaseTimings`, so phase times are measured once
        // and reported two ways (report JSON and the trace) without
        // ever disagreeing. Under a fleet/dist trace context the whole
        // subtree parents to the dispatching machine's span.
        let analyze_span = obs::span("analyze");

        let phase = obs::span("cfg_recovery");
        let cfg = Cfg::build(text, text_vaddr, entries, &functions, &self.options.cfg);
        let cfg_time = phase.finish();

        let phase = obs::span("wrapper_identification");
        let wrappers = if self.options.detect_wrappers {
            wrapper::detect_wrappers(&cfg, &self.options.limits)
        } else {
            Vec::new()
        };
        let wrapper_time = phase.finish();

        let phase = obs::span("syscall_identification");
        let outcome = match identify::identify_sites(&cfg, &wrappers, &self.options) {
            Ok(outcome) => outcome,
            Err(e) => {
                phase.finish();
                analyze_span.finish();
                return Err(e);
            }
        };
        let identify_time = phase.finish();

        let mut syscalls = SyscallSet::new();
        let mut precise = true;
        for site in &outcome.sites {
            syscalls.extend_from(&site.syscalls);
            if matches!(site.outcome, SiteOutcome::ConservativeFallback) {
                precise = false;
            }
        }

        // Shared-library calls (step 3 of Fig. 3): resolve reachable PLT
        // stubs through the shared interfaces.
        if let Some(libs) = libs {
            let external = shared::resolve_external_calls(elf, &cfg, libs)?;
            syscalls.extend_from(&external.syscalls);
            if !external.complete {
                precise = false;
            }
        }

        let stats = AnalysisStats {
            timings: PhaseTimings {
                cfg_recovery: cfg_time,
                wrapper_identification: wrapper_time,
                syscall_identification: identify_time,
                total: analyze_span.finish(),
            },
            cfg: cfg.stats(),
            sites: outcome.sites.len(),
            blocks_explored: outcome.blocks_explored,
            peak_rss_bytes: None,
        };

        Ok(BinaryAnalysis {
            syscalls,
            sites: outcome.sites,
            wrappers,
            precise,
            stats,
            cfg,
        })
    }
}
