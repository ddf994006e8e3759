//! The benchmark's own checks: inputs are a pure function of the seed,
//! and a run on a seed other than the tuning seed reports every metric
//! with no failures.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the end-to-end test runs the benchmark binary briefly on every
//! workload.

use minijson::Value;
use perfbench::inputs::Stream;
use perfbench::trees::Population;
use perfbench::Workload;
use std::process::Command;

const SERVED: [Workload; 3] = [Workload::SolveHot, Workload::SolveCold, Workload::FtRun];

/// The first `n` request lines of a workload's stream, as sent.
fn stream_bytes(w: Workload, seed: u64, n: u64) -> Vec<u8> {
    let stream = Stream::build(w, seed);
    let mut out = Vec::new();
    for id in 0..n {
        stream.write_line(id, &mut out);
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_request_streams() {
    for w in SERVED {
        assert_eq!(
            stream_bytes(w, 7, 3_000),
            stream_bytes(w, 7, 3_000),
            "{w:?}"
        );
    }
}

#[test]
fn different_seed_gives_different_request_streams() {
    for w in SERVED {
        assert_ne!(
            stream_bytes(w, 7, 3_000),
            stream_bytes(w, 8, 3_000),
            "{w:?}"
        );
    }
}

/// The `Debug` rendering of a population: every tree, rate, crash and
/// search setting it holds.
fn population_text(seed: u64) -> String {
    format!("{:?}", Population::build(seed))
}

#[test]
fn same_seed_gives_byte_identical_tree_populations() {
    assert_eq!(population_text(7), population_text(7));
    assert_ne!(population_text(7), population_text(8));
}

#[test]
fn cold_stream_outgrows_the_cache_and_hot_stream_fits_it() {
    let cold = Stream::build(Workload::SolveCold, 7);
    assert!(cold.pool_len() > 16 * 512);
    let hot = Stream::build(Workload::SolveHot, 7);
    assert_eq!(hot.pool_len(), 32);
}

/// Metric names a mode must report, read from `BENCHMARK.json`.
fn declared(mode: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = Value::parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = spec
        .get(mode)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    names.sort();
    names
}

/// Run the benchmark binary and return its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).expect("the result line is JSON")
}

fn metric_names(result: &Value) -> Vec<String> {
    let mut names: Vec<String> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    names.sort();
    names
}

#[test]
fn second_seed_reports_every_metric_without_failures() {
    let end_to_end = declared("end_to_end");
    for w in Workload::ALL {
        let result = run(w.name(), 2, false);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            result.get("failed").and_then(Value::as_u64),
            Some(0),
            "{w:?}"
        );
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(metric_names(&result), end_to_end, "{w:?}");
        let ok_ratio = result
            .get("metrics")
            .and_then(|m| m.get("ok_ratio"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(ok_ratio, Some(1.0), "{w:?}");
    }
    let traced = run("solve_hot", 2, true);
    assert_eq!(traced.get("failed").and_then(Value::as_u64), Some(0));
    assert_eq!(metric_names(&traced), declared("per_layer"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
