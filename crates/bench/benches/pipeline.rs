//! Criterion benchmarks over the analysis pipeline, including the
//! ablations DESIGN.md calls out:
//!
//! * `disasm` — raw decoder throughput;
//! * `cfg_recovery` — plain vs. *active* address-taken (the §4.3
//!   refinement), on two app profiles and on the static and the dynamic
//!   binary of the seed-1 Table 2 corpus whose `.text` is closest to the
//!   corpus median (the shape `derive_debian` spends its time on);
//! * `identification` — full pipeline with the wrapper heuristic on vs.
//!   off (the §4.4 heuristic; "off" explores more and over-approximates);
//! * `phase_methods` — automaton-based phase detection vs. the naive
//!   CFG-navigation method (the §4.7 cost comparison: 41 s vs 700 s in
//!   the paper's setting), on the same inputs;
//! * `end_to_end` — whole-binary analysis across the app profiles.

use bside::cfg::{Cfg, CfgOptions, FunctionSym, IndirectResolution};
use bside::core::phase::{detect_phases, detect_phases_naive, PhaseOptions};
use bside::core::{Analyzer, AnalyzerOptions, BinaryAnalysis, LibraryStore};
use bside::elf::Elf;
use bside::gen::corpus::corpus_with_size;
use bside::gen::profiles::{all_profiles, hello_world, nginx};
use bside::x86::decode_all;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;

/// A named benchmark input: the ELF and, for a dynamic binary, the
/// library store it resolves against.
struct Input {
    name: String,
    elf: Elf,
    libs: Option<LibraryStore>,
}

impl Input {
    fn analyze(&self) -> BinaryAnalysis {
        let analyzer = Analyzer::new(AnalyzerOptions::default());
        match &self.libs {
            None => analyzer.analyze_static(&self.elf),
            Some(libs) => analyzer.analyze_dynamic(&self.elf, libs, &[]),
        }
        .expect("analyzes")
    }
}

/// `hello_world`, `nginx`, and the static and the dynamic binary of the
/// seed-1 Table 2 corpus whose `.text` is closest to the corpus median.
fn inputs() -> Vec<Input> {
    let corpus = corpus_with_size(1, 231, 326, 59);
    let text_len = |elf: &Elf| elf.text().map_or(0, |(t, _)| t.len());
    let mut lens: Vec<usize> = corpus
        .binaries
        .iter()
        .map(|b| text_len(&b.program.elf))
        .collect();
    lens.sort_unstable();
    let median = lens[lens.len() / 2];
    let libraries: Vec<(&str, &Elf)> = corpus
        .libraries
        .iter()
        .map(|l| (l.spec.name.as_str(), &l.elf))
        .collect();
    let libs = Analyzer::new(AnalyzerOptions::default())
        .analyze_libraries(&libraries)
        .expect("library store");
    let mut out: Vec<Input> = [hello_world(), nginx()]
        .into_iter()
        .map(|p| Input {
            name: p.name.to_string(),
            elf: p.program.elf,
            libs: None,
        })
        .collect();
    for is_static in [true, false] {
        let binary = corpus
            .binaries
            .iter()
            .filter(|b| b.is_static == is_static)
            .min_by_key(|b| text_len(&b.program.elf).abs_diff(median))
            .expect("corpus has both kinds");
        out.push(Input {
            name: format!("median_{}", if is_static { "static" } else { "dynamic" }),
            elf: binary.program.elf.clone(),
            libs: (!is_static).then(|| libs.clone()),
        });
    }
    out
}

fn functions_of(elf: &bside::elf::Elf) -> Vec<FunctionSym> {
    elf.function_symbols()
        .into_iter()
        .map(|s| FunctionSym {
            name: s.name.clone(),
            entry: s.value,
            size: s.size,
        })
        .collect()
}

fn bench_disasm(c: &mut Criterion) {
    let profile = nginx();
    let (text, vaddr) = profile.program.elf.text().expect(".text");
    let mut group = c.benchmark_group("disasm");
    group.throughput(criterion::Throughput::Bytes(text.len() as u64));
    group.bench_function("decode_all/nginx", |b| {
        b.iter(|| decode_all(std::hint::black_box(text), vaddr))
    });
    group.finish();
}

fn bench_cfg_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("cfg_recovery");
    group.sample_size(200);
    for input in inputs() {
        let elf = &input.elf;
        let (text, vaddr) = elf.text().expect(".text");
        let funcs = functions_of(elf);
        let entry = elf.entry_point();
        for (label, indirect) in [
            ("active_ataken", IndirectResolution::ActiveAddressTaken),
            ("plain_ataken", IndirectResolution::AddressTaken),
            ("none", IndirectResolution::None),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, &input.name),
                &indirect,
                |b, &indirect| {
                    b.iter(|| Cfg::build(text, vaddr, &[entry], &funcs, &CfgOptions { indirect }))
                },
            );
        }
    }
    group.finish();
}

fn bench_identification(c: &mut Criterion) {
    let mut group = c.benchmark_group("identification");
    group.sample_size(20);
    let profile = nginx();
    for (label, detect_wrappers) in [("wrappers_on", true), ("wrappers_off", false)] {
        group.bench_function(label, |b| {
            let analyzer = Analyzer::new(AnalyzerOptions {
                detect_wrappers,
                ..AnalyzerOptions::default()
            });
            b.iter(|| {
                analyzer
                    .analyze_static(&profile.program.elf)
                    .expect("analyzes")
            })
        });
    }
    // Directed vs undirected forward search (the §4.4 optimization).
    // Undirected may exhaust its budget (the paper's timeout case) — the
    // measured cost of reaching that verdict is exactly the comparison.
    for (label, undirected) in [("directed", false), ("undirected", true)] {
        group.bench_function(label, |b| {
            let analyzer = Analyzer::new(AnalyzerOptions {
                limits: bside::symex::Limits {
                    undirected,
                    ..bside::symex::Limits::default()
                },
                ..AnalyzerOptions::default()
            });
            b.iter(|| {
                let _ = std::hint::black_box(analyzer.analyze_static(&profile.program.elf));
            })
        });
    }
    group.finish();
}

fn bench_phase_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase_methods");
    group.sample_size(20);
    for input in inputs() {
        let analysis = input.analyze();
        let site_sets: HashMap<u64, bside::SyscallSet> = analysis
            .sites
            .iter()
            .map(|s| (s.site, s.syscalls))
            .collect();
        group.bench_with_input(BenchmarkId::new("automaton", &input.name), &(), |b, ()| {
            b.iter(|| detect_phases(&analysis.cfg, &site_sets, &PhaseOptions::default()))
        });
        group.bench_with_input(
            BenchmarkId::new("naive_navigation", &input.name),
            &(),
            |b, ()| b.iter(|| detect_phases_naive(&analysis.cfg, &site_sets)),
        );
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let analyzer = Analyzer::new(AnalyzerOptions::default());
    for profile in all_profiles() {
        group.bench_with_input(
            BenchmarkId::new("analyze_static", profile.name),
            &profile,
            |b, profile| b.iter(|| analyzer.analyze_static(&profile.program.elf).expect("ok")),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_disasm,
    bench_cfg_recovery,
    bench_identification,
    bench_phase_methods,
    bench_end_to_end
);
criterion_main!(benches);
