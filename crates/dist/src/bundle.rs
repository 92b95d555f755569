//! The policy bundle: everything an enforcement point needs for one
//! binary, and the one derivation that produces it.
//!
//! Both the serve daemon (analyze-on-miss) and fleet agents (offloaded
//! derivations) call [`derive_bundle`], so a bundle derived remotely is
//! byte-identical to one derived in the daemon.

use bside_core::phase::{detect_phases, PhaseOptions};
use bside_core::{Analyzer, AnalyzerOptions, LibraryStore};
use bside_filter::bpf::BpfProgram;
use bside_filter::{FilterPolicy, PhasePolicy};
use bside_syscalls::SyscallSet;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything the enforcement point needs for one binary: the
/// whole-program allow-list, the per-phase refinement, and the lowered
/// seccomp-BPF program ready to install.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyBundle {
    /// Display name of the binary the bundle was derived for.
    pub binary: String,
    /// The whole-program allow-list.
    pub policy: FilterPolicy,
    /// The temporal (phase-based) refinement (§4.7).
    pub phases: PhasePolicy,
    /// The classic-BPF lowering of `policy`.
    pub bpf: BpfProgram,
}

serde::impl_serde_struct!(PolicyBundle {
    binary,
    policy,
    phases,
    bpf
});

/// A remote bundle derivation: `(name, path, elf bytes)` in, a
/// [`PolicyBundle`] (or the in-band error message) out. Installed by
/// `bside serve --fleet`, where it ships the serve daemon's
/// analyze-on-miss work to a `bside-fleet` coordinator instead of
/// running it in-process; the daemon's single-flight table still
/// guarantees one storm = one invocation. The remote side must run the
/// same analyzer options as the daemon (store keys fingerprint them).
pub type RemoteAnalyzer =
    Arc<dyn Fn(&str, &str, &[u8]) -> Result<PolicyBundle, String> + Send + Sync>;

/// Derives the full policy bundle for one ELF: whole-program allow-list,
/// phase refinement, and the classic-BPF lowering.
///
/// A static binary needs no `libs`; a dynamically linked one (non-empty
/// `DT_NEEDED`) is resolved through the given [`LibraryStore`] of §4.5
/// shared interfaces via `Analyzer::analyze_dynamic`, and is refused
/// with an explanatory message when `libs` is `None`.
///
/// # Errors
///
/// A human-readable message (the error-reply payload) when the bytes are
/// not a parseable ELF, a needed library is missing, or the analysis
/// fails.
pub fn derive_bundle(
    name: &str,
    elf_bytes: &[u8],
    options: &AnalyzerOptions,
    libs: Option<&LibraryStore>,
) -> Result<PolicyBundle, String> {
    let elf = bside_elf::Elf::parse(elf_bytes).map_err(|e| format!("parsing {name}: {e}"))?;
    derive_bundle_parsed(name, &elf, options, libs)
}

/// [`derive_bundle`] over an already-parsed ELF — the server's path,
/// which parses once to detect `DT_NEEDED` and compute the store key
/// before deciding to analyze.
pub fn derive_bundle_parsed(
    name: &str,
    elf: &bside_elf::Elf,
    options: &AnalyzerOptions,
    libs: Option<&LibraryStore>,
) -> Result<PolicyBundle, String> {
    let analyzer = Analyzer::new(options.clone());
    let analysis = if elf.needed_libraries().is_empty() {
        analyzer.analyze_static(elf).map_err(|e| e.to_string())?
    } else {
        let Some(libs) = libs else {
            return Err(format!(
                "{name} is dynamically linked; the policy service needs a shared-interface \
                 directory to resolve it (start the daemon with --lib-dir, or analyze it \
                 locally via `bside analyze --lib`)"
            ));
        };
        analyzer
            .analyze_dynamic(elf, libs, &[])
            .map_err(|e| e.to_string())?
    };
    let site_sets: HashMap<u64, SyscallSet> = analysis
        .sites
        .iter()
        .map(|s| (s.site, s.syscalls))
        .collect();
    let automaton = detect_phases(&analysis.cfg, &site_sets, &PhaseOptions::default());
    let policy = FilterPolicy::allow_only(name, analysis.syscalls);
    let phases = PhasePolicy::from_automaton(name, &automaton);
    // The optimized lowering, gated by the exhaustive equivalence check
    // against the naive program; falls back to naive if the gate cannot
    // prove them identical. CACHE_FORMAT_VERSION was bumped with this
    // change so stores never mix naive and optimized artifacts.
    let bpf = bside_filter::compile::compile(&policy).program;
    Ok(PolicyBundle {
        binary: name.to_string(),
        policy,
        phases,
        bpf,
    })
}
