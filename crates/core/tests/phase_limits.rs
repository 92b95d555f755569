//! Pins of the phase automaton's limits on two application profiles:
//! call-string context depth, and node and DFA-state caps small enough
//! to truncate. Each case asserts `truncated`, `dfa_states` and the
//! phase count, so a change to the expansion or the powerset
//! construction cannot move where (or whether) either limit bites.

use bside_core::phase::{detect_phases, PhaseAutomaton, PhaseOptions};
use bside_core::{Analyzer, AnalyzerOptions};
use bside_gen::profiles::{nginx, redis, AppProfile};
use bside_syscalls::SyscallSet;
use std::collections::HashMap;

fn automaton(profile: &AppProfile, options: &PhaseOptions) -> PhaseAutomaton {
    let analysis = Analyzer::new(AnalyzerOptions::default())
        .analyze_static(&profile.program.elf)
        .expect("analyzes");
    let site_sets: HashMap<u64, SyscallSet> = analysis
        .sites
        .iter()
        .map(|s| (s.site, s.syscalls))
        .collect();
    detect_phases(&analysis.cfg, &site_sets, options)
}

/// `(context_depth, max_expanded_nodes, max_dfa_states)` →
/// `(truncated, dfa_states, phases)`.
type Case = ((usize, usize, usize), (bool, usize, usize));

fn check(profile: AppProfile, cases: &[Case]) {
    for &((context_depth, max_expanded_nodes, max_dfa_states), want) in cases {
        let options = PhaseOptions {
            max_dfa_states,
            context_depth,
            max_expanded_nodes,
        };
        let a = automaton(&profile, &options);
        assert_eq!(
            (a.truncated, a.dfa_states, a.phases.len()),
            want,
            "{} under {options:?}",
            profile.name
        );
    }
}

#[test]
fn nginx_phase_limits_are_pinned() {
    check(
        nginx(),
        &[
            ((0, 500_000, 50_000), (false, 3, 3)),
            ((1, 500_000, 50_000), (false, 56, 24)),
            ((4, 500_000, 50_000), (false, 99, 40)),
            ((0, 20, 50_000), (true, 1, 1)),
            ((1, 20, 50_000), (true, 11, 11)),
            ((4, 50, 50_000), (true, 25, 25)),
            ((4, 200, 50_000), (true, 86, 86)),
            ((0, 500_000, 2), (true, 3, 3)),
            ((1, 500_000, 3), (true, 4, 4)),
            ((4, 500_000, 10), (true, 11, 11)),
            ((4, 100, 5), (true, 6, 6)),
        ],
    );
}

#[test]
fn redis_phase_limits_are_pinned() {
    check(
        redis(),
        &[
            ((0, 500_000, 50_000), (false, 3, 3)),
            ((1, 500_000, 50_000), (false, 52, 10)),
            ((4, 500_000, 50_000), (false, 99, 15)),
            ((0, 20, 50_000), (true, 1, 1)),
            ((1, 20, 50_000), (true, 8, 8)),
            ((4, 50, 50_000), (true, 26, 26)),
            ((4, 200, 50_000), (true, 85, 85)),
            ((0, 500_000, 2), (true, 3, 3)),
            ((1, 500_000, 3), (true, 4, 4)),
            ((4, 500_000, 10), (true, 11, 11)),
            ((4, 100, 5), (true, 6, 6)),
        ],
    );
}
