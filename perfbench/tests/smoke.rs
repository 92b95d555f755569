//! The benchmark's own checks: every workload, at minimal size, prints
//! every metric `BENCHMARK.json` names with its unit, and a corrupted
//! reference makes the correctness gates count failed ops.

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {name}")),
        other => panic!("expected an object holding {name}, got {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn list(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        other => panic!("expected a list, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Float(v) => *v,
        Value::UInt(v) => *v as f64,
        Value::Int(v) => *v as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn metric_names(spec: &Value, list_name: &str) -> Vec<(String, String)> {
    list(field(spec, list_name))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn workloads(spec: &Value) -> Vec<String> {
    list(field(spec, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "2"])
        .args(extra)
        .output()
        .expect("perfbench runs")
}

/// The last stdout line, parsed.
fn result(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn assert_metrics(result: &Value, expected: &[(String, String)], context: &str) {
    let Value::Object(metrics) = field(result, "metrics") else {
        panic!("{context}: metrics is not an object");
    };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(printed, wanted, "{context}: metric names");
    for ((name, unit), (_, metric)) in expected.iter().zip(metrics) {
        assert_eq!(
            text(field(metric, "unit")),
            unit,
            "{context}: unit of {name}"
        );
        assert!(
            number(field(metric, "value")).is_finite(),
            "{context}: {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    for workload in workloads(&spec) {
        for (trace, list_name) in [(false, "end_to_end"), (true, "per_layer")] {
            let context = format!("{workload} --trace {}", u8::from(trace));
            let output = run(&workload, trace, &[]);
            assert!(output.status.success(), "{context}: {output:?}");
            let result = result(&output);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{context}");
            assert_eq!(number(field(&result, "failed")), 0.0, "{context}");
            assert!(number(field(&result, "attempted")) >= 1.0, "{context}");
            assert_metrics(&result, &metric_names(&spec, list_name), &context);

            let stdout = String::from_utf8_lossy(&output.stdout);
            if !trace {
                for percentile in ["op_p50_ms", "op_p90_ms", "miss_p50_ms"] {
                    let line = stdout
                        .lines()
                        .find(|l| l.trim_start().starts_with(percentile))
                        .unwrap_or_else(|| panic!("{context}: no summary line for {percentile}"));
                    assert!(line.contains("(n="), "{context}: {line}");
                }
            }
            if trace && workload == "derive_debian" {
                let coverage: f64 = stdout
                    .lines()
                    .find_map(|l| l.trim().strip_prefix("op-path spans cover "))
                    .and_then(|rest| rest.split('%').next())
                    .and_then(|v| v.parse().ok())
                    .expect("a coverage line");
                assert!(coverage >= 90.0, "{context}: spans cover {coverage}%");
            }
        }
    }
}

#[test]
fn a_corrupted_reference_is_counted_as_failed() {
    for workload in workloads(&spec()) {
        let output = run(&workload, false, &["--corrupt-reference"]);
        assert_eq!(output.status.code(), Some(1), "{workload}: {output:?}");
        let result = result(&output);
        assert_eq!(field(&result, "correct"), &Value::Bool(false), "{workload}");
        assert!(number(field(&result, "failed")) >= 1.0, "{workload}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let output = run("no_such_workload", false, &[]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
