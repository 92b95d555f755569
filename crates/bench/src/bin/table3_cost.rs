//! Table 3: per-application analysis cost — wall-clock time of each
//! pipeline step, peak RSS, and basic blocks explored symbolically during
//! the identification phase.
//!
//! Absolute numbers are incomparable with the paper's (their substrate is
//! angr on a server testbed; ours is a purpose-built Rust stack), but the
//! claimed *shape* reproduces: CFG recovery dominates the pipeline, and
//! identification cost tracks the number of symbolically explored blocks.

use bside::core::{Analyzer, AnalyzerOptions};
use bside::gen::profiles::all_profiles;
use bside_bench::print_table;

fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let analyzer = Analyzer::new(AnalyzerOptions::default());
    let mut rows = Vec::new();

    println!("Table 3 — analysis execution time, memory, and symbolic exploration\n");

    for profile in all_profiles() {
        let analysis = analyzer
            .analyze_static(&profile.program.elf)
            .unwrap_or_else(|e| panic!("{} failed: {e}", profile.name));
        let s = &analysis.stats;
        let peak_rss = bside::core::report::peak_rss_bytes();
        rows.push(vec![
            profile.name.to_string(),
            fmt_ms(s.timings.cfg_recovery),
            fmt_ms(s.timings.wrapper_identification),
            fmt_ms(s.timings.syscall_identification),
            fmt_ms(s.timings.total),
            peak_rss
                .map(|b| format!("{:.1} MB", b as f64 / 1e6))
                .unwrap_or_else(|| "n/a".into()),
            s.cfg.blocks.to_string(),
            s.sites.to_string(),
            s.blocks_explored.to_string(),
        ]);
    }

    print_table(
        &[
            "app",
            "CFG recovery",
            "wrappers id.",
            "syscalls id.",
            "total",
            "peak RSS",
            "#blocks",
            "#sites",
            "BBs explored",
        ],
        &rows,
    );

    println!();
    println!("paper (angr substrate): totals 7-26 min, RSS 2.4-11.9 GB, BBs explored 21-1105;");
    println!("shape to check: CFG recovery dominates; identification time tracks BBs explored.");
}
