//! Runs every workload named in `BENCHMARK.json` with `--smoke 1`, traced
//! and untraced, and holds the printed metric names and units to the file's
//! — so neither the names in `src/names.rs` nor the workload names can
//! drift from what the driver is told.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Every string value that follows `"key": "` in `text`, in order.
fn values_of(text: &str, key: &str) -> Vec<String> {
    let marker = format!("\"{key}\": \"");
    text.match_indices(&marker)
        .map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// The text of one top-level array of `BENCHMARK.json`.
fn section(key: &str) -> &'static str {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let rest = &BENCHMARK_JSON[start..];
    &rest[..rest.find(']').expect("array closes")]
}

/// `(name, unit)` of every metric in a result line, in order.
fn printed_metrics(result: &str) -> Vec<(String, String)> {
    let names = result.match_indices("\": {\"value\"").map(|(at, _)| {
        let head = &result[..at];
        head[head.rfind('"').expect("opening quote") + 1..].to_string()
    });
    names.zip(values_of(result, "unit")).collect()
}

fn declared_metrics(key: &str) -> Vec<(String, String)> {
    let text = section(key);
    values_of(text, "name")
        .into_iter()
        .zip(values_of(text, "unit"))
        .collect()
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics() {
    let workloads = values_of(section("workloads"), "name");
    assert_eq!(workloads.len(), 3, "three workloads are declared");
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_aiql-benchmark"))
                .args(["--workload", workload, "--smoke", "1", "--trace", trace])
                .args(["--seed", "7", "--work-dir", env!("CARGO_TARGET_TMPDIR")])
                .output()
                .expect("run the benchmark binary");
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let result = stdout.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(result.contains("\"failed\": 0, "));
            assert_eq!(
                printed_metrics(result),
                declared_metrics(key),
                "{workload} --trace {trace} and BENCHMARK.json `{key}` disagree"
            );
        }
    }
}
