//! The analysis breakdown reads stage spans: CFG recovery's stages nest
//! under its `cfg_recovery` span, and phase detection records one span
//! per stage.

use bside_core::phase::{detect_phases, PhaseOptions};
use bside_core::{Analyzer, AnalyzerOptions};
use bside_gen::profiles::nginx;
use bside_obs::SpanRecord;
use bside_syscalls::SyscallSet;
use std::collections::HashMap;

fn named<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

#[test]
fn cfg_and_phase_stages_are_spans() {
    let profile = nginx();
    let (analysis, spans) = bside_obs::collect(|| {
        Analyzer::new(AnalyzerOptions::default())
            .analyze_static(&profile.program.elf)
            .expect("analyzes")
    });
    let recovery = named(&spans, "cfg_recovery");
    assert_eq!(recovery.len(), 1, "one CFG recovery per analysis");
    for stage in ["cfg.disassemble", "cfg.fixpoint", "cfg.edges"] {
        let stage_spans = named(&spans, stage);
        assert_eq!(stage_spans.len(), 1, "{stage}");
        assert_eq!(stage_spans[0].parent, recovery[0].id, "{stage} nests");
    }

    let site_sets: HashMap<u64, SyscallSet> = analysis
        .sites
        .iter()
        .map(|s| (s.site, s.syscalls))
        .collect();
    let (_, spans) =
        bside_obs::collect(|| detect_phases(&analysis.cfg, &site_sets, &PhaseOptions::default()));
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["phases.expand", "phases.powerset", "phases.merge"]);
}
