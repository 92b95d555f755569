//! The B-Side benchmark: three seeded workloads, each run in-process next
//! to its generator, timed from outside through the public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload derive_debian --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads:
//! * `derive_debian` — `serve::derive_bundle` over the Debian-like corpus
//!   on one thread (the paper's §5 sweep);
//! * `serve_mixed` — a policy daemon on a Unix socket, two client
//!   connections, 49 store hits to every invalidate + re-fetch;
//! * `fleet_tcp` — an authenticated fleet coordinator on loopback TCP
//!   with two in-process agents, two units in flight.
//!
//! With `--trace 0` the last stdout line is the JSON result with every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric,
//! read from in-memory spans that are also written as a Chrome trace to
//! `.bench_work/traces/`. The lines before it are a human-readable
//! summary (every percentile with its sample count; per-layer self time
//! and share). The exit code is 0 only when every correctness gate held.
//! The process pins itself to one CPU before it starts any thread (see
//! [`common::pin_to_one_cpu`]).
//!
//! Extra flags for the benchmark's own tests: `--scale PCT` shrinks the
//! corpus, `--corrupt-reference` corrupts one reference so the gates must
//! count failures.

mod common;
mod derive;
mod fleet;
mod layers;
mod serve;
mod stats;
mod trace;

use common::Config;
use serde::Value;
use stats::Metrics;
use std::path::PathBuf;
use std::time::Duration;

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (from the untraced ops).
    pub e2e: Metrics,
    /// The per-layer metrics (meaningful in a traced run).
    pub per_layer: Metrics,
    /// Human-readable lines for the summary (failures, coverage).
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub logs: Vec<trace::SpanLog>,
}

impl Outcome {
    /// Counts every failure but keeps only the first few as notes, then,
    /// in a traced run, the per-layer self-time table.
    pub fn new(
        attempted: u64,
        mut failures: Vec<String>,
        e2e: Metrics,
        (per_layer, table): (Metrics, Vec<String>),
        trace: bool,
        logs: Vec<trace::SpanLog>,
    ) -> Outcome {
        let failed = failures.len() as u64;
        failures.truncate(5);
        if trace {
            failures.extend(table);
        }
        Outcome {
            attempted,
            failed,
            e2e,
            per_layer,
            notes: failures,
            logs,
        }
    }
}

struct Args {
    workload: String,
    config: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = 100;
    let mut corrupt_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = value("--scale")?
                    .parse::<usize>()
                    .ok()
                    .filter(|s| (1..=100).contains(s))
                    .ok_or("--scale takes a percentage in 1..=100")?
            }
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let window = Duration::from_secs_f64(seconds.ok_or("--seconds is required")?);
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        config: Config {
            seed,
            window,
            trace,
            scale,
            corrupt_reference,
            work,
        },
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let _work = common::WorkDir::create(args.config.work.clone())
        .map_err(|e| format!("creating {}: {e}", args.config.work.display()))?;
    match args.workload.as_str() {
        "derive_debian" => derive::run(&args.config),
        "serve_mixed" => serve::run(&args.config),
        "fleet_tcp" => fleet::run(&args.config),
        other => Err(format!(
            "unknown workload {other} (derive_debian, serve_mixed, fleet_tcp)"
        )),
    }
}

fn summary_line(metric: &stats::Metric) -> String {
    let line = format!(
        "  {:<28} {:>14.4} {:<6}",
        metric.name, metric.value, metric.unit
    );
    match metric.samples {
        Some(n) => format!("{line} (n={n})"),
        None => line.trim_end().to_string(),
    }
}

fn result_json(outcome: &Outcome, metrics: &Metrics) -> String {
    let metrics = metrics
        .0
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.failed == 0)),
        ("attempted".to_string(), Value::UInt(outcome.attempted)),
        ("failed".to_string(), Value::UInt(outcome.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&result).expect("a JSON value always renders")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pinned = common::pin_to_one_cpu();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };

    let metrics = if args.config.trace {
        &outcome.per_layer
    } else {
        &outcome.e2e
    };
    if let Some(bad) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: {}: {} was not measured",
            args.workload, bad.name
        );
        std::process::exit(2);
    }
    let cpu = pinned.map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"));
    println!(
        "{} seed={} {cpu} ops={} ops_failed={}",
        args.workload, args.config.seed, outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for metric in &metrics.0 {
        println!("{}", summary_line(metric));
    }
    if args.config.trace {
        let path = PathBuf::from(".bench_work")
            .join("traces")
            .join(format!("{}-seed{}.json", args.workload, args.config.seed));
        match trace::write_chrome_trace(&path, &outcome.logs) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome, metrics));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
