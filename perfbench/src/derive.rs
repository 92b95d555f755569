//! `derive_debian`: the paper's Debian sweep. One thread derives the
//! policy bundle of every binary of the seeded corpus, in whole passes,
//! through `serve::derive_bundle` against the corpus's library store.
//! The window ends on a whole pass: the corpus lists its static
//! binaries first, so a cut pass would skew the mix.

use crate::common::{
    self, derive_on_path, policy_metrics, repeated_setup, syscall_outside, Config, DeriveCounters,
    Shipped,
};
use crate::layers::{per_layer, Extras};
use crate::stats::{median, overhead_pct, peak_rss_mb, Metrics, Samples};
use crate::trace::SpanLog;
use crate::Outcome;
use bside::core::{Analyzer, LibraryStore};
use bside::gen::corpus::Corpus;
use bside::serve::{derive_bundle, PolicyBundle};
use bside::syscalls::SyscallSet;
use std::time::Instant;

struct Setup {
    corpus: Corpus,
    names: Vec<String>,
    libs: LibraryStore,
    /// Runtime truth per binary, against the libraries it links.
    truths: Vec<SyscallSet>,
    /// The warm pass: every binary's bundle, derived once.
    references: Vec<PolicyBundle>,
}

/// Corpus generation, the §4.5 library store, the truth sets and a warm
/// pass that derives every binary once.
fn setup(config: &Config) -> Result<Setup, String> {
    let corpus = common::corpus(config);
    let libraries: Vec<(&str, &bside::elf::Elf)> = corpus
        .libraries
        .iter()
        .map(|l| (l.spec.name.as_str(), &l.elf))
        .collect();
    let libs = Analyzer::new(common::options())
        .analyze_libraries(&libraries)
        .map_err(|e| format!("library store: {e}"))?;
    let truths = corpus
        .binaries
        .iter()
        .map(|b| {
            let linked: Vec<_> = corpus.libs_of(b).into_iter().cloned().collect();
            b.truth(&linked)
        })
        .collect();
    let names: Vec<String> = corpus
        .binaries
        .iter()
        .enumerate()
        .map(|(i, b)| format!("{i:04}_{}", b.program.spec.name))
        .collect();
    let options = common::options();
    let references = corpus
        .binaries
        .iter()
        .zip(&names)
        .map(|(b, name)| derive_bundle(name, &b.program.image, &options, Some(&libs)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        corpus,
        names,
        libs,
        truths,
        references,
    })
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let (mut s, setup_s) = repeated_setup(|_| setup(config))?;
    if config.corrupt_reference {
        let extra = syscall_outside(&s.references[0].policy.allowed);
        s.truths[0].insert(extra);
    }
    let options = common::options();
    let n = s.names.len();

    let mut failures = Vec::new();
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut counters = DeriveCounters::default();
    let mut attempted = 0u64;
    let start = Instant::now();
    let mut pass = 0usize;
    // Per pass: mean and p90 of the untraced ops, in ms.
    let (mut means_ms, mut p90s_ms) = (Vec::new(), Vec::new());
    while pass == 0 || start.elapsed() < config.window {
        let mut pass_ops = Samples::default();
        for i in 0..n {
            let op = attempted;
            attempted += 1;
            let name = &s.names[i];
            let bytes = &s.corpus.binaries[i].program.image;
            let result = if config.trace && (i + pass) % 2 == 1 {
                let root = log.open("derive_bundle", op, None);
                let result = derive_on_path(
                    &mut log,
                    op,
                    Some(root),
                    name,
                    bytes,
                    Some(&s.libs),
                    &mut counters,
                );
                log.close(root);
                let dt = log.dur(root);
                traced.push(dt);
                result.map(|d| {
                    d.probe(&mut log, op, Some(&s.libs));
                    d.bundle
                })
            } else {
                let t0 = Instant::now();
                let result = derive_bundle(name, bytes, &options, Some(&s.libs));
                pass_ops.push(t0.elapsed());
                result
            };
            match result {
                Err(e) => failures.push(format!("{name}: {e}")),
                Ok(bundle) if !s.truths[i].is_subset(&bundle.policy.allowed) => {
                    failures.push(format!("{name}: allow-list misses truth"))
                }
                Ok(bundle) if bundle != s.references[i] => {
                    failures.push(format!("{name}: bundle differs from the warm pass"))
                }
                Ok(_) => {}
            }
        }
        if let (Some(mean), Some(p90)) = (pass_ops.mean_ms(), pass_ops.quantile_ms(0.9)) {
            means_ms.push(mean);
            p90s_ms.push(p90);
        }
        untraced.extend(pass_ops);
        pass += 1;
    }

    let mut e2e = Metrics::default();
    e2e.put_n("setup_s", setup_s, "s", common::SETUP_REPS);
    // A pass derives the whole corpus once, so each pass repeats the
    // same measurement; the time metrics are medians over passes, which
    // a burst of host noise within the window does not move. The ops are
    // a fixed two-mode population (static binaries well under, dynamic
    // ones well over a millisecond): their median falls on the cliff
    // between the modes, where it follows the seed's corpus, not the
    // code, so the typical op is the pass's mean instead.
    let passes = means_ms.len();
    let (mean, p90) = if passes == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (median(&means_ms), median(&p90s_ms))
    };
    // Binaries per second of the derivations' own time (one thread).
    e2e.put_n("ops_per_s", 1e3 / mean, "1/s", passes);
    e2e.put_n("op_p50_ms", mean, "ms", passes);
    e2e.put_n("op_p90_ms", p90, "ms", passes);
    // Every derivation starts from nothing: each op is a miss.
    e2e.put_n("miss_p50_ms", mean, "ms", passes);
    let shipped: Vec<Shipped> = s
        .references
        .iter()
        .map(|b| Shipped {
            policy: b.policy.clone(),
            program: b.bpf.clone(),
        })
        .collect();
    let truths: Vec<&SyscallSet> = s.truths.iter().collect();
    policy_metrics(&mut e2e, &shipped, &truths, config.seed, &mut failures);
    e2e.put("peak_rss_mb", peak_rss_mb(), "MiB");

    let extras = Extras {
        trace_overhead_pct: overhead_pct(&traced, &untraced),
        ..Extras::default()
    };
    Ok(Outcome::new(
        attempted,
        failures,
        e2e,
        per_layer(std::slice::from_ref(&log), &counters, &extras),
        config.trace,
        vec![log],
    ))
}
