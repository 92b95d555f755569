//! Golden pins of everything CFG recovery and phase detection produce,
//! over the seed-1 Table 2 corpus (557 binaries, 59 libraries) and the
//! six application profiles.
//!
//! Each line of `golden/analysis_seed1.txt` is `kind name digest`:
//!
//! * `cfg.none`, `cfg.at`, `cfg.aat` — an FNV-1a digest of the `Cfg`
//!   under each `IndirectResolution` mode: blocks with their instruction
//!   addresses, succs, preds, reachable, addresses taken, PLT stubs and
//!   stats;
//! * `automaton` — an FNV-1a digest of `detect_phases` under the default
//!   options: initial phase, DFA state count, truncation, and each phase's
//!   blocks, transitions and code bytes;
//! * `bundle` — the SHA-256 of the `derive_bundle` compact JSON, the
//!   bytes the policy store writes under `CACHE_FORMAT_VERSION`.
//!
//! A representation change in either subsystem must leave every line
//! identical. The computed lines are also written to
//! `$CARGO_TARGET_TMPDIR/analysis_seed1.actual` so a failure can be
//! diffed line by line.

use bside_cfg::{Cfg, CfgOptions, FunctionSym, IndirectResolution};
use bside_core::phase::{detect_phases, PhaseOptions};
use bside_core::{Analyzer, AnalyzerOptions, LibraryStore};
use bside_dist::bundle::derive_bundle;
use bside_dist::cache::{sha256_hex, CACHE_FORMAT_VERSION};
use bside_elf::Elf;
use bside_gen::corpus::corpus_with_size;
use bside_gen::profiles::all_profiles;
use bside_syscalls::SyscallSet;
use std::collections::HashMap;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/analysis_seed1.txt");

/// 64-bit FNV-1a over a stream of integers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn all(&mut self, vs: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for v in vs {
            self.u64(v);
            n += 1;
        }
        // Length-terminate every list so adjacent lists cannot alias.
        self.u64(n);
    }
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

fn cfg_digest(cfg: &Cfg) -> u64 {
    let mut h = Fnv::new();
    for block in cfg.blocks() {
        let start = block.start;
        h.u64(start);
        h.all(block.insns.iter().map(|i| i.addr));
        h.all(
            cfg.succs(start)
                .iter()
                .map(|&(to, kind)| to ^ ((kind as u64) << 60)),
        );
        h.all(
            cfg.preds(start)
                .iter()
                .map(|&(from, kind)| from ^ ((kind as u64) << 60)),
        );
    }
    h.all(cfg.reachable().iter().copied());
    h.all(cfg.addresses_taken().iter().copied());
    let mut stubs: Vec<(u64, u64)> = cfg.plt_stubs().iter().map(|(&b, &s)| (b, s)).collect();
    stubs.sort_unstable();
    h.all(stubs.iter().flat_map(|&(b, s)| [b, s]));
    let s = cfg.stats();
    h.all(
        [
            s.blocks,
            s.instructions,
            s.ataken_iterations,
            s.addresses_taken,
        ]
        .map(|v| v as u64),
    );
    h.0
}

fn cfg_lines(out: &mut String, name: &str, elf: &Elf, entries: &[u64]) {
    let (text, base) = elf.text().expect(".text");
    let functions = functions_of(elf);
    for (kind, indirect) in [
        ("cfg.none", IndirectResolution::None),
        ("cfg.at", IndirectResolution::AddressTaken),
        ("cfg.aat", IndirectResolution::ActiveAddressTaken),
    ] {
        let cfg = Cfg::build(text, base, entries, &functions, &CfgOptions { indirect });
        writeln!(out, "{kind} {name} {:016x}", cfg_digest(&cfg)).unwrap();
    }
}

fn automaton_line(out: &mut String, name: &str, elf: &Elf, libs: &LibraryStore) {
    let analyzer = Analyzer::new(options());
    let analysis = if elf.needed_libraries().is_empty() {
        analyzer.analyze_static(elf)
    } else {
        analyzer.analyze_dynamic(elf, libs, &[])
    }
    .expect("analyzes");
    let site_sets: HashMap<u64, SyscallSet> = analysis
        .sites
        .iter()
        .map(|s| (s.site, s.syscalls))
        .collect();
    let automaton = detect_phases(&analysis.cfg, &site_sets, &PhaseOptions::default());
    let mut h = Fnv::new();
    h.all([
        automaton.initial as u64,
        automaton.dfa_states as u64,
        u64::from(automaton.truncated),
    ]);
    for phase in &automaton.phases {
        h.u64(phase.id as u64);
        h.all(phase.blocks.iter().copied());
        for (&to, labels) in &phase.transitions {
            h.u64(to as u64);
            h.all(labels.iter().map(|s| u64::from(s.raw())));
        }
        h.u64(phase.transitions.len() as u64);
        h.u64(phase.code_bytes);
    }
    writeln!(out, "automaton {name} {:016x}", h.0).unwrap();
}

fn bundle_line(out: &mut String, name: &str, image: &[u8], libs: &LibraryStore) {
    let bundle = derive_bundle(name, image, &options(), Some(libs)).expect("derives");
    let json = serde_json::to_string(&bundle).expect("encodes");
    writeln!(out, "bundle {name} {}", sha256_hex(&[json.as_bytes()])).unwrap();
}

/// One analysis thread per derivation, as the perfbench workloads run.
fn options() -> AnalyzerOptions {
    AnalyzerOptions {
        parallelism: 1,
        ..AnalyzerOptions::default()
    }
}

fn golden_lines() -> String {
    let corpus = corpus_with_size(1, 231, 326, 59);
    let libraries: Vec<(&str, &Elf)> = corpus
        .libraries
        .iter()
        .map(|l| (l.spec.name.as_str(), &l.elf))
        .collect();
    let libs = Analyzer::new(options())
        .analyze_libraries(&libraries)
        .expect("library store");

    let mut out = String::new();
    for library in &corpus.libraries {
        let mut entries: Vec<(String, u64)> = library
            .elf
            .exported_functions()
            .into_iter()
            .map(|s| (s.name.clone(), s.value))
            .collect();
        entries.sort();
        let entries: Vec<u64> = entries.into_iter().map(|(_, a)| a).collect();
        cfg_lines(&mut out, &library.spec.name, &library.elf, &entries);
    }
    let binaries = corpus.binaries.iter().enumerate().map(|(i, b)| {
        (
            format!("{i:04}_{}", b.program.spec.name),
            &b.program.elf,
            &b.program.image,
        )
    });
    let profiles = all_profiles();
    let apps = profiles
        .iter()
        .map(|p| (p.name.to_string(), &p.program.elf, &p.program.image));
    for (name, elf, image) in binaries.chain(apps) {
        cfg_lines(&mut out, &name, elf, &[elf.entry_point()]);
        automaton_line(&mut out, &name, elf, &libs);
        bundle_line(&mut out, &name, image, &libs);
    }
    out
}

#[test]
fn cfg_automaton_and_bundle_digests_match_the_golden_pins() {
    assert_eq!(CACHE_FORMAT_VERSION, 2, "bundle pins are for format 2");
    let actual = golden_lines();
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("analysis_seed1.actual");
    std::fs::write(&dump, &actual).expect("writes the actual lines");
    assert_eq!(
        actual.lines().count(),
        59 * 3 + (557 + 6) * 5,
        "one line per pinned artifact"
    );
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "golden file and corpus disagree on the artifact count"
    );
    let mismatches: Vec<(&str, &str)> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} pins differ (full output in {}); first: {:?}",
        mismatches.len(),
        actual.lines().count(),
        dump.display(),
        mismatches.first()
    );
}
