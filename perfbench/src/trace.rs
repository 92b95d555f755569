//! In-memory spans for the traced run.
//!
//! Every span records its name, start, duration, parent and the op it
//! belongs to. A *probe* is a span around a public function called out of
//! band on the same input as a step that is not itself public (for
//! example `Cfg::build` under `Analyzer::analyze_static`): it runs after
//! its parent closed, so it is placed in the tree by its parent link and
//! counted against the parent's self time by duration, not by interval.
//! The workloads with several threads run their probes after the op
//! window, when nothing else runs, so a probe's wall-clock time is the
//! cost of its step alone.

use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
    probe: bool,
}

/// The spans of one thread, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, thread: u32) -> SpanLog {
        SpanLog {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, op: u64, parent: Option<usize>, probe: bool) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
            probe,
        });
        self.spans.len() - 1
    }

    /// Opens a span on the op path; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        self.push(name, op, parent, false)
    }

    /// Opens a probe span (out of band, see the module docs).
    pub fn open_probe(&mut self, name: &'static str, op: u64, parent: usize) -> usize {
        self.push(name, op, Some(parent), true)
    }

    pub fn close(&mut self, id: usize) {
        let span = &mut self.spans[id];
        span.dur = self.epoch.elapsed().saturating_sub(span.start);
    }

    /// Runs `f` inside a span on the op path.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` as a probe under `parent`.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open_probe(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn dur(&self, id: usize) -> Duration {
        self.spans[id].dur
    }

    /// Durations of the root (op) spans.
    pub fn roots(&self) -> impl Iterator<Item = Duration> + '_ {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur)
    }
}

/// Time and share of one span name across a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

impl Layer {
    /// Mean duration per occurrence, in µs (0 when the layer never ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64 / 1e3
        }
    }

    /// Mean self time per occurrence, in µs (0 when the layer never ran).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns / self.count as f64 / 1e3
        }
    }
}

/// Per-name totals and self times over every log.
pub fn layers(logs: &[SpanLog]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for log in logs {
        let mut children_ns = vec![0f64; log.spans.len()];
        for span in &log.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.dur.as_nanos() as f64;
            }
        }
        for (span, child) in log.spans.iter().zip(&children_ns) {
            let layer = out.entry(span.name).or_default();
            layer.count += 1;
            let dur = span.dur.as_nanos() as f64;
            layer.total_ns += dur;
            layer.self_ns += dur - child;
        }
    }
    out
}

/// Mean share (%) of each root span that its direct on-path children
/// cover, over the roots that have such children; `None` when none do.
pub fn root_coverage_pct(logs: &[SpanLog]) -> Option<f64> {
    let mut shares = Vec::new();
    for log in logs {
        let mut covered = vec![0f64; log.spans.len()];
        let mut has_child = vec![false; log.spans.len()];
        for span in log.spans.iter().filter(|s| !s.probe) {
            if let Some(parent) = span.parent {
                covered[parent] += span.dur.as_nanos() as f64;
                has_child[parent] = true;
            }
        }
        for (i, span) in log.spans.iter().enumerate() {
            if span.parent.is_none() && has_child[i] && !span.dur.is_zero() {
                shares.push(100.0 * covered[i] / span.dur.as_nanos() as f64);
            }
        }
    }
    (!shares.is_empty()).then(|| shares.iter().sum::<f64>() / shares.len() as f64)
}

/// Writes every span as a Chrome trace-event JSON array.
pub fn write_chrome_trace(path: &std::path::Path, logs: &[SpanLog]) -> std::io::Result<()> {
    let us = |d: Duration| Value::Float(d.as_nanos() as f64 / 1e3);
    let mut events = Vec::new();
    for log in logs {
        for span in &log.spans {
            let mut args = vec![("op".to_string(), Value::UInt(span.op))];
            if let Some(parent) = span.parent {
                args.push((
                    "parent".to_string(),
                    Value::Str(log.spans[parent].name.to_string()),
                ));
            }
            events.push(Value::Object(vec![
                ("name".to_string(), Value::Str(span.name.to_string())),
                (
                    "cat".to_string(),
                    Value::Str(if span.probe { "probe" } else { "op" }.to_string()),
                ),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), us(span.start)),
                ("dur".to_string(), us(span.dur)),
                ("pid".to_string(), Value::UInt(1)),
                ("tid".to_string(), Value::UInt(u64::from(log.thread))),
                ("args".to_string(), Value::Object(args)),
            ]));
        }
    }
    let json = serde_json::to_string(&Value::Seq(events))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_probes() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 0);
        let root = log.open("op", 1, None);
        let child = log.open("child", 1, Some(root));
        std::thread::sleep(Duration::from_millis(2));
        log.close(child);
        log.close(root);
        log.probe("probe", 1, child, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let logs = [log];
        let layers = layers(&logs);
        let root_l = layers["op"];
        let child_l = layers["child"];
        let probe_l = layers["probe"];
        assert!((root_l.self_ns - (root_l.total_ns - child_l.total_ns)).abs() < 1.0);
        assert!((child_l.self_ns - (child_l.total_ns - probe_l.total_ns)).abs() < 1.0);
        let coverage = root_coverage_pct(&logs).expect("root has a child");
        assert!(coverage > 50.0 && coverage <= 100.0, "{coverage}");
    }
}
