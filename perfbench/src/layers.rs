//! The per-layer metric list of a traced run.
//!
//! Every workload prints every per-layer metric. A time or count that
//! reads 0 belongs to a layer the workload's op path never reaches; that
//! is the measured form of the "no change" predictions in `README.md`.

use crate::common::DeriveCounters;
use crate::stats::Metrics;
use crate::trace::{layers, root_coverage_pct, Layer, SpanLog};
use std::collections::BTreeMap;

/// Per-layer figures that do not come from spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Extras {
    /// Deltas of `ServerHandle::stats()` over the op window.
    pub serve_store_hits: u64,
    pub serve_analyses: u64,
    pub serve_coalesced: u64,
    pub serve_bytes_read: u64,
    pub serve_errors: u64,
    pub serve_panics: u64,
    /// Mean encoded `Reply::Policy` size.
    pub reply_bytes: f64,
    /// Mean wire size of one unit's two sealed frames.
    pub frame_bytes: f64,
    /// Deltas of `FleetStats` over the op window.
    pub fleet_retries: u64,
    pub fleet_timeouts: u64,
    pub fleet_failures: u64,
    /// Traced op p50 over untraced op p50, minus one, in percent.
    pub trace_overhead_pct: f64,
}

/// Builds the per-layer metrics and the self-time table of a traced run.
pub fn per_layer(logs: &[SpanLog], d: &DeriveCounters, x: &Extras) -> (Metrics, Vec<String>) {
    let by_name = layers(logs);
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let mut analyze = get("core.analyze_static");
    let dynamic = get("core.analyze_dynamic");
    analyze.count += dynamic.count;
    analyze.total_ns += dynamic.total_ns;
    analyze.self_ns += dynamic.self_ns;

    let mut m = Metrics::default();
    m.put("elf.parse_us", get("elf.parse").mean_us(), "us");
    m.put("cfg.build_us", get("cfg.build").mean_us(), "us");
    m.put("cfg.blocks", d.per_analysis(d.blocks), "count");
    m.put("cfg.instructions", d.per_analysis(d.instructions), "count");
    m.put(
        "cfg.ataken_iterations",
        d.per_analysis(d.ataken_iterations),
        "count",
    );
    m.put("core.wrappers_us", get("core.wrappers").mean_us(), "us");
    m.put("core.closure_us", get("core.closure").mean_us(), "us");
    m.put("core.analyze_self_us", analyze.mean_self_us(), "us");
    m.put("core.phases_us", get("core.phases").mean_us(), "us");
    m.put("core.phase_states", d.per_compile(d.phase_states), "count");
    m.put("filter.compile_us", get("filter.compile").mean_us(), "us");
    m.put("filter.equiv_us", get("filter.equiv").mean_us(), "us");
    m.put("filter.gate_fallbacks", d.gate_fallbacks as f64, "count");
    m.put("filter.insns_naive", d.per_compile(d.insns_naive), "count");
    m.put("filter.insns_opt", d.per_compile(d.insns_opt), "count");
    m.put("core.sites", d.per_analysis(d.sites), "count");
    m.put(
        "core.fallback_sites",
        d.per_analysis(d.fallback_sites),
        "count",
    );
    m.put(
        "symex.blocks_explored",
        d.per_analysis(d.blocks_explored),
        "count",
    );
    m.put("serve.encode_us", get("serve.encode").mean_us(), "us");
    m.put("serve.decode_us", get("serve.decode").mean_us(), "us");
    m.put(
        "serve.store_load_us",
        get("serve.store_load").mean_us(),
        "us",
    );
    m.put("serve.reply_bytes", x.reply_bytes, "bytes");
    m.put(
        "serve.residual_us",
        get("serve.request").mean_self_us(),
        "us",
    );
    m.put("serve.derive_us", get("serve.derive").mean_us(), "us");
    m.put(
        "serve.store_insert_us",
        get("serve.store_insert").mean_us(),
        "us",
    );
    m.put(
        "serve.invalidate_us",
        get("serve.invalidate").mean_us(),
        "us",
    );
    m.put("serve.store_hits", x.serve_store_hits as f64, "count");
    m.put("serve.analyses", x.serve_analyses as f64, "count");
    m.put("serve.coalesced", x.serve_coalesced as f64, "count");
    m.put("serve.bytes_read", x.serve_bytes_read as f64, "bytes");
    m.put("serve.errors", x.serve_errors as f64, "count");
    m.put("serve.panics", x.serve_panics as f64, "count");
    m.put("fleet.analyze_us", get("fleet.analyze").mean_us(), "us");
    m.put("fleet.frame_bytes", x.frame_bytes, "bytes");
    m.put("dist.encode_us", get("dist.encode").mean_us(), "us");
    m.put("dist.decode_us", get("dist.decode").mean_us(), "us");
    m.put("fleet.seal_us", get("fleet.seal").mean_us(), "us");
    m.put("fleet.residual_us", get("fleet.unit").mean_self_us(), "us");
    m.put("fleet.retries", x.fleet_retries as f64, "count");
    m.put("fleet.timeouts", x.fleet_timeouts as f64, "count");
    m.put("fleet.failures", x.fleet_failures as f64, "count");
    m.put("obs.trace_overhead_pct", x.trace_overhead_pct, "%");

    (m, self_time_table(logs, &by_name))
}

/// One line per span name: occurrences, mean and self time, and the
/// share of all root-span time spent in that layer's own code.
fn self_time_table(logs: &[SpanLog], by_name: &BTreeMap<&'static str, Layer>) -> Vec<String> {
    let root_total: f64 = logs
        .iter()
        .flat_map(|log| log.roots())
        .map(|dur| dur.as_nanos() as f64)
        .sum();
    let mut lines = vec![format!(
        "{:<24} {:>8} {:>12} {:>12} {:>8}",
        "span", "count", "mean_us", "self_us", "share%"
    )];
    let mut rows: Vec<_> = by_name.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.total_cmp(&a.1.self_ns));
    for (name, layer) in rows {
        lines.push(format!(
            "{:<24} {:>8} {:>12.2} {:>12.2} {:>8.2}",
            name,
            layer.count,
            layer.mean_us(),
            layer.mean_self_us(),
            100.0 * layer.self_ns / root_total.max(1.0)
        ));
    }
    if let Some(coverage) = root_coverage_pct(logs) {
        lines.push(format!(
            "op-path spans cover {coverage:.2}% of their op span"
        ));
    }
    lines
}
