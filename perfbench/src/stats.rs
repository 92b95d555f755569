//! Sample sets, percentiles and the metric list a run reports.

use std::time::Duration;

/// Latency samples of one kind of operation, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The mean in milliseconds; `None` when empty.
    pub fn mean_ms(&self) -> Option<f64> {
        let n = self.ns.len();
        (n > 0).then(|| self.ns.iter().map(|&ns| ns as f64).sum::<f64>() / n as f64 / 1e6)
    }

    /// The `p`-quantile (0..=1) in milliseconds, by the nearest-rank
    /// rule over the sorted samples; `None` when empty.
    pub fn quantile_ms(&self, p: f64) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1] as f64 / 1e6)
    }
}

/// How much slower the traced ops' median is than the untraced ops', in
/// percent.
pub fn overhead_pct(traced: &Samples, untraced: &Samples) -> f64 {
    match (traced.quantile_ms(0.5), untraced.quantile_ms(0.5)) {
        (Some(t), Some(u)) if u > 0.0 => 100.0 * (t / u - 1.0),
        _ => f64::NAN,
    }
}

/// The median of a non-empty list of values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, for percentiles and means (printed in
    /// the human-readable summary).
    pub samples: Option<usize>,
}

/// An ordered list of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    pub fn put_n(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples: Some(samples),
        });
    }

    /// A percentile of `samples` in ms, with its sample count.
    pub fn put_quantile(&mut self, name: &'static str, samples: &Samples, p: f64) {
        let value = samples.quantile_ms(p).unwrap_or(f64::NAN);
        self.put_n(name, value, "ms", samples.len());
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for ms in 1..=10u64 {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.quantile_ms(0.5), Some(5.0));
        assert_eq!(s.quantile_ms(0.9), Some(9.0));
        assert_eq!(s.quantile_ms(1.0), Some(10.0));
        assert_eq!(Samples::default().quantile_ms(0.5), None);
        assert_eq!(s.mean_ms(), Some(5.5));
        assert_eq!(Samples::default().mean_ms(), None);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
