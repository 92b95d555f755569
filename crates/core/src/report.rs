//! Analysis cost reporting (the measurements behind Table 3).

use bside_cfg::CfgStats;
use std::time::Duration;

/// Wall-clock time of each pipeline step (the columns of Table 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Step 1: disassembly + CFG recovery.
    pub cfg_recovery: Duration,
    /// Step 2a: wrapper identification.
    pub wrapper_identification: Duration,
    /// Step 2b: per-site system call identification.
    pub syscall_identification: Duration,
    /// Whole analysis (slightly more than the sum: loading etc.).
    pub total: Duration,
}

/// Cost counters for one analysis run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Step timings.
    pub timings: PhaseTimings,
    /// CFG construction counters.
    pub cfg: CfgStats,
    /// Number of reachable `syscall` sites identified.
    pub sites: usize,
    /// Basic blocks executed symbolically during identification — the
    /// "BBs explored in identification phase" column of Table 3.
    pub blocks_explored: usize,
    /// Peak resident set size of the process. The analyzer leaves it
    /// `None`, because reading it costs a `/proc` read per analysis; a
    /// caller that wants it fills it from [`peak_rss_bytes`].
    pub peak_rss_bytes: Option<u64>,
}

/// Aggregated per-phase wall-clock across a batch of analyses — the
/// corpus-level counterpart of [`PhaseTimings`], and the payload of the
/// `bench_snapshot` perf-trajectory harness (`BENCH_pipeline.json`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimings {
    /// Number of analyses folded in.
    pub binaries: usize,
    /// Σ step 1: disassembly + CFG recovery.
    pub cfg_recovery: Duration,
    /// Σ step 2a: wrapper identification.
    pub wrapper_identification: Duration,
    /// Σ step 2b: per-site system call identification.
    pub syscall_identification: Duration,
    /// Σ whole-analysis wall clock.
    pub total: Duration,
}

impl PipelineTimings {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one analysis' phase timings into the aggregate.
    pub fn record(&mut self, timings: &PhaseTimings) {
        self.binaries += 1;
        self.cfg_recovery += timings.cfg_recovery;
        self.wrapper_identification += timings.wrapper_identification;
        self.syscall_identification += timings.syscall_identification;
        self.total += timings.total;
    }

    /// Per-phase `(name, duration)` rows, in pipeline order — the
    /// iteration surface report renderers (text tables, JSON emitters)
    /// build on.
    pub fn phases(&self) -> [(&'static str, Duration); 4] {
        [
            ("cfg_recovery", self.cfg_recovery),
            ("wrapper_identification", self.wrapper_identification),
            ("syscall_identification", self.syscall_identification),
            ("total", self.total),
        ]
    }
}

impl std::fmt::Display for PipelineTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} binaries:", self.binaries)?;
        for (name, d) in self.phases() {
            write!(f, " {name}={:.3}ms", d.as_secs_f64() * 1e3)?;
        }
        Ok(())
    }
}

/// Reads the process's peak resident set size (`VmHWM`, falling back to
/// the current `VmRSS`) from `/proc/self/status`. Returns `None` when the
/// platform does not expose either (non-Linux, or restricted containers).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut vmrss = None;
    for line in status.lines() {
        let parse = |rest: &str| -> Option<u64> {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
                .map(|kb| kb * 1024)
        };
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return parse(rest);
        }
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            vmrss = parse(rest);
        }
    }
    vmrss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_without_panicking() {
        // VmHWM may be absent in containers; the call must stay graceful.
        let _ = peak_rss_bytes();
    }

    #[test]
    fn default_stats_are_zero() {
        let s = AnalysisStats::default();
        assert_eq!(s.sites, 0);
        assert_eq!(s.blocks_explored, 0);
        assert_eq!(s.timings.total, Duration::ZERO);
    }

    #[test]
    fn pipeline_timings_accumulate() {
        let mut agg = PipelineTimings::new();
        let one = PhaseTimings {
            cfg_recovery: Duration::from_millis(2),
            wrapper_identification: Duration::from_millis(3),
            syscall_identification: Duration::from_millis(5),
            total: Duration::from_millis(11),
        };
        agg.record(&one);
        agg.record(&one);
        assert_eq!(agg.binaries, 2);
        assert_eq!(agg.cfg_recovery, Duration::from_millis(4));
        assert_eq!(agg.syscall_identification, Duration::from_millis(10));
        assert_eq!(agg.total, Duration::from_millis(22));
        let rows = agg.phases();
        assert_eq!(rows[0].0, "cfg_recovery");
        assert_eq!(rows[3], ("total", Duration::from_millis(22)));
        assert!(agg.to_string().contains("2 binaries"));
    }
}
