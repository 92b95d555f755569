//! What the three workloads share: run configuration, CPU pinning, the
//! scratch directory, the seeded corpus, the gates and metrics on the
//! policies a workload shipped, and the traced decomposition of a policy
//! derivation.

use crate::stats::{median, Metrics};
use crate::trace::SpanLog;
use bside::cfg::{Cfg, FunctionSym};
use bside::core::phase::{detect_phases, PhaseOptions};
use bside::core::wrapper::detect_wrappers;
use bside::core::{Analyzer, AnalyzerOptions, BinaryAnalysis, LibraryStore, SiteOutcome};
use bside::elf::Elf;
use bside::filter::bpf::{execute, BpfProgram, SeccompData, AUDIT_ARCH_X86_64};
use bside::filter::replay::synthesize_flat_trace;
use bside::filter::{FilterPolicy, PhasePolicy};
use bside::gen::corpus::{corpus_with_size, Corpus};
use bside::serve::PolicyBundle;
use bside::syscalls::{SyscallSet, Sysno};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How many times each workload builds its set-up; `setup_s` is the
/// median and the last set-up is the one measured.
pub const SETUP_REPS: usize = 5;

/// Events per program in the `bpf_eval_ns` replay.
const EVAL_EVENTS: usize = 2048;
/// How long the `bpf_eval_ns` replay repeats its timed passes: the CPU's
/// speed drifts within a second, a median over a few seconds less so.
const EVAL_BUDGET: Duration = Duration::from_secs(3);

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured op window.
    pub window: Duration,
    pub trace: bool,
    /// Corpus size in percent of the Table 2 composition.
    pub scale: usize,
    /// Corrupts one reference so the correctness gates must fire.
    pub corrupt_reference: bool,
    /// This run's private scratch directory.
    pub work: PathBuf,
}

/// The seeded corpus at the configured scale (100 = 231 static + 326
/// dynamic binaries over 59 libraries).
pub fn corpus(config: &Config) -> Corpus {
    let s = config.scale;
    corpus_with_size(
        config.seed,
        (231 * s / 100).max(2),
        (326 * s / 100).max(2),
        (59 * s / 100).max(2),
    )
}

/// Analyzer options of every workload: one thread per derivation.
pub fn options() -> AnalyzerOptions {
    AnalyzerOptions {
        parallelism: 1,
        ..AnalyzerOptions::default()
    }
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the lowest CPU it may run on; returns that CPU, or `None` when the
/// affinity calls fail (the run then goes on unpinned).
///
/// On a small VM a daemon and its clients spread over two vCPUs hand
/// every request across them, and where the scheduler happens to place
/// the threads decides throughput and tail: across runs of unchanged code
/// `serve_mixed` read 3.5k or 5.5k ops/s and a p90 of 0.6 or 1.0 ms. On
/// one CPU the same handoffs are context switches whose cost follows the
/// code, and every workload measures the same single core.
pub fn pin_to_one_cpu() -> Option<usize> {
    /// glibc's `cpu_set_t`: 1024 bits.
    const SET_BYTES: usize = 128;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    }
    let mut allowed = [0u8; SET_BYTES];
    // SAFETY: `allowed` is a writable buffer of exactly the `SET_BYTES`
    // bytes passed as its size, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, SET_BYTES, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..SET_BYTES * 8).find(|&c| allowed[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the `SET_BYTES` bytes
    // passed as its size, and pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

/// The scratch directory of one run, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> std::io::Result<WorkDir> {
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `setup` [`SETUP_REPS`] times, dropping all but the last result,
/// and returns it with the median set-up time in seconds.
pub fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// A syscall outside `allowed` — what a corrupted reference adds to a
/// truth set so the soundness gate must fire.
pub fn syscall_outside(allowed: &SyscallSet) -> Sysno {
    SyscallSet::all_known()
        .difference(allowed)
        .iter()
        .next()
        .expect("no allow-list holds every known syscall")
}

/// A shipped program and the policy it enforces.
pub struct Shipped {
    pub policy: FilterPolicy,
    pub program: BpfProgram,
}

/// Adds the metrics of the policies a workload shipped — in `Metrics`
/// order `allowlist_precision`, `bpf_insns_mean`, `bpf_eval_ns` — and a
/// failure for every allow-list that misses its truth and every program
/// whose verdicts differ from the naive lowering.
pub fn policy_metrics(
    e2e: &mut Metrics,
    shipped: &[Shipped],
    truths: &[&SyscallSet],
    seed: u64,
    failures: &mut Vec<String>,
) {
    for (s, truth) in shipped.iter().zip(truths) {
        if !truth.is_subset(&s.policy.allowed) {
            failures.push(format!("{}: allow-list misses truth", s.policy.binary));
        }
    }
    let (eval_ns, mismatched) = replay(shipped, seed);
    for s in mismatched {
        failures.push(format!(
            "{}: optimized verdicts differ from the naive lowering",
            s.policy.binary
        ));
    }
    let n = shipped.len();
    let precision = shipped
        .iter()
        .zip(truths)
        .map(|(s, truth)| precision(&s.policy.allowed, truth))
        .sum::<f64>()
        / n as f64;
    let insns = shipped.iter().map(|s| s.program.insns.len()).sum::<usize>() as f64 / n as f64;
    e2e.put_n("allowlist_precision", precision, "ratio", n);
    e2e.put_n("bpf_insns_mean", insns, "count", n);
    e2e.put_n("bpf_eval_ns", eval_ns, "ns", n);
}

/// `|truth ∩ allowed| / |allowed|`: the share of the allow-list the
/// binary really uses.
fn precision(allowed: &SyscallSet, truth: &SyscallSet) -> f64 {
    if allowed.is_empty() {
        return 1.0;
    }
    allowed.intersection(truth).len() as f64 / allowed.len() as f64
}

/// The replay of every shipped program: `bpf_eval_ns` (median over the
/// passes made in [`EVAL_BUDGET`] of ns per `bpf::execute`, over a seeded
/// flat trace per program) and the programs whose verdicts differ from
/// the naive `BpfProgram::from_policy` lowering on that trace or on a
/// sweep of syscall numbers 0..512.
fn replay(shipped: &[Shipped], seed: u64) -> (f64, Vec<&Shipped>) {
    let traces: Vec<Vec<SeccompData>> = shipped
        .iter()
        .enumerate()
        .map(|(i, s)| {
            synthesize_flat_trace(&s.policy, EVAL_EVENTS, seed ^ i as u64)
                .into_iter()
                .map(|nr| SeccompData::new(AUDIT_ARCH_X86_64, nr.raw()))
                .collect()
        })
        .collect();

    let mismatched = shipped
        .iter()
        .zip(&traces)
        .filter(|(s, trace)| {
            let naive = BpfProgram::from_policy(&s.policy);
            let sweep = (0..512u32).map(|nr| SeccompData::new(AUDIT_ARCH_X86_64, nr));
            trace
                .iter()
                .cloned()
                .chain(sweep)
                .any(|data| execute(&s.program.insns, &data) != execute(&naive.insns, &data))
        })
        .map(|(s, _)| s)
        .collect();

    let events: usize = traces.iter().map(Vec::len).sum();
    let mut per_eval = Vec::new();
    let start = Instant::now();
    while per_eval.len() < 5 || start.elapsed() < EVAL_BUDGET {
        let t0 = Instant::now();
        for (s, trace) in shipped.iter().zip(&traces) {
            for data in trace {
                let _ = black_box(execute(black_box(&s.program.insns), black_box(data)));
            }
        }
        per_eval.push(t0.elapsed().as_nanos() as f64 / events.max(1) as f64);
    }
    (median(&per_eval), mismatched)
}

/// Counters of the traced derivations, summed over ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeriveCounters {
    pub analyses: u64,
    pub blocks: u64,
    pub instructions: u64,
    pub ataken_iterations: u64,
    pub sites: u64,
    pub fallback_sites: u64,
    pub blocks_explored: u64,
    pub compiles: u64,
    pub phase_states: u64,
    pub gate_fallbacks: u64,
    pub insns_naive: u64,
    pub insns_opt: u64,
}

impl DeriveCounters {
    fn record_analysis(&mut self, analysis: &BinaryAnalysis) {
        self.analyses += 1;
        self.blocks += analysis.stats.cfg.blocks as u64;
        self.instructions += analysis.stats.cfg.instructions as u64;
        self.ataken_iterations += analysis.stats.cfg.ataken_iterations as u64;
        self.sites += analysis.sites.len() as u64;
        self.fallback_sites += analysis
            .sites
            .iter()
            .filter(|s| matches!(s.outcome, SiteOutcome::ConservativeFallback))
            .count() as u64;
        self.blocks_explored += analysis.stats.blocks_explored as u64;
    }

    pub fn merge(&mut self, other: &DeriveCounters) {
        self.analyses += other.analyses;
        self.blocks += other.blocks;
        self.instructions += other.instructions;
        self.ataken_iterations += other.ataken_iterations;
        self.sites += other.sites;
        self.fallback_sites += other.fallback_sites;
        self.blocks_explored += other.blocks_explored;
        self.compiles += other.compiles;
        self.phase_states += other.phase_states;
        self.gate_fallbacks += other.gate_fallbacks;
        self.insns_naive += other.insns_naive;
        self.insns_opt += other.insns_opt;
    }

    pub fn per_analysis(&self, total: u64) -> f64 {
        total as f64 / self.analyses.max(1) as f64
    }

    pub fn per_compile(&self, total: u64) -> f64 {
        total as f64 / self.compiles.max(1) as f64
    }
}

/// `Analyzer::analyze_static`/`analyze_dynamic` in a span on the op
/// path. Returns the analysis and the span, for [`probe_analysis`].
pub fn analyze_on_path(
    log: &mut SpanLog,
    op: u64,
    parent: Option<usize>,
    elf: &Elf,
    libs: Option<&LibraryStore>,
    counters: &mut DeriveCounters,
) -> Result<(BinaryAnalysis, usize), String> {
    let analyzer = Analyzer::new(options());
    let (id, result) = if elf.needed_libraries().is_empty() {
        let id = log.open("core.analyze_static", op, parent);
        let result = analyzer.analyze_static(elf);
        log.close(id);
        (id, result)
    } else {
        let libs = libs.ok_or("dynamic binary without a library store")?;
        let id = log.open("core.analyze_dynamic", op, parent);
        let result = analyzer.analyze_dynamic(elf, libs, &[]);
        log.close(id);
        (id, result)
    };
    let analysis = result.map_err(|e| e.to_string())?;
    counters.record_analysis(&analysis);
    Ok((analysis, id))
}

/// Probes the steps inside an analysis that are not public, on the same
/// input, under its span `id`: `Cfg::build`, `detect_wrappers` and, for
/// a dynamic binary, `LibraryStore::closure`.
pub fn probe_analysis(
    log: &mut SpanLog,
    op: u64,
    id: usize,
    elf: &Elf,
    analysis: &BinaryAnalysis,
    libs: Option<&LibraryStore>,
) {
    let options = options();
    let Some((text, base)) = elf.text() else {
        return;
    };
    let functions: Vec<FunctionSym> = elf
        .function_symbols()
        .into_iter()
        .map(|s| FunctionSym {
            name: s.name.clone(),
            entry: s.value,
            size: s.size,
        })
        .collect();
    let entries = [elf.entry_point()];
    log.probe("cfg.build", op, id, || {
        black_box(Cfg::build(text, base, &entries, &functions, &options.cfg))
    });
    log.probe("core.wrappers", op, id, || {
        black_box(detect_wrappers(&analysis.cfg, &options.limits))
    });
    if let (false, Some(libs)) = (elf.needed_libraries().is_empty(), libs) {
        log.probe("core.closure", op, id, || black_box(libs.closure()));
    }
}

/// `serve::derive_bundle` decomposed into its public steps, each in a
/// span under `parent` (parse, analyze, phases, policy, compile). The
/// bundle is the one `derive_bundle` returns; [`TracedDerivation::probe`]
/// then probes the steps inside them.
pub fn derive_on_path(
    log: &mut SpanLog,
    op: u64,
    parent: Option<usize>,
    name: &str,
    bytes: &[u8],
    libs: Option<&LibraryStore>,
    counters: &mut DeriveCounters,
) -> Result<TracedDerivation, String> {
    let elf = log
        .span("elf.parse", op, parent, || Elf::parse(bytes))
        .map_err(|e| format!("parsing {name}: {e}"))?;
    let (analysis, analyze_id) = analyze_on_path(log, op, parent, &elf, libs, counters)?;
    let automaton = log.span("core.phases", op, parent, || {
        let site_sets: HashMap<u64, SyscallSet> = analysis
            .sites
            .iter()
            .map(|s| (s.site, s.syscalls))
            .collect();
        detect_phases(&analysis.cfg, &site_sets, &PhaseOptions::default())
    });
    let (policy, phases) = log.span("filter.policy", op, parent, || {
        (
            FilterPolicy::allow_only(name, analysis.syscalls),
            PhasePolicy::from_automaton(name, &automaton),
        )
    });
    let compile_id = log.open("filter.compile", op, parent);
    let compiled = bside::filter::compile::compile(&policy);
    log.close(compile_id);

    counters.compiles += 1;
    counters.phase_states += automaton.phases.len() as u64;
    counters.gate_fallbacks += u64::from(!compiled.report.used_optimized);
    counters.insns_naive += compiled.report.naive_len as u64;
    counters.insns_opt += compiled.report.optimized_len as u64;
    Ok(TracedDerivation {
        bundle: PolicyBundle {
            binary: name.to_string(),
            policy,
            phases,
            bpf: compiled.program,
        },
        elf,
        analysis,
        analyze_id,
        compile_id,
    })
}

/// A derivation made by [`derive_on_path`], kept for its probes.
pub struct TracedDerivation {
    pub bundle: PolicyBundle,
    elf: Elf,
    analysis: BinaryAnalysis,
    analyze_id: usize,
    compile_id: usize,
}

impl TracedDerivation {
    /// Probes the analysis steps and `equiv::check_equivalent` (the gate
    /// inside `filter::compile`) on this derivation's inputs.
    pub fn probe(&self, log: &mut SpanLog, op: u64, libs: Option<&LibraryStore>) {
        probe_analysis(log, op, self.analyze_id, &self.elf, &self.analysis, libs);
        let naive = BpfProgram::from_policy(&self.bundle.policy);
        log.probe("filter.equiv", op, self.compile_id, || {
            let _ = black_box(bside::filter::equiv::check_equivalent(
                &naive.insns,
                &self.bundle.bpf.insns,
            ));
        });
    }
}
