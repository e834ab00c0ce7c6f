//! End-to-end checks of `serve-bench` against the real `slotsel` daemon:
//! a smoke run emits exactly the metrics `BENCHMARK.json` lists, and two
//! traced runs of one seed agree on every exact count.
//!
//! The daemon is built from the repository root first (a no-op when it
//! is up to date), into `$CARGO_TARGET_DIR` or the root's `target`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use slotsel_obs::chrome::{parse, Value};

/// The repository root: this package's parent directory.
fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository")
}

/// The `slotsel` binary, built once per test process.
fn slotsel() -> &'static Path {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    BUILT.get_or_init(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| repo().join("target"), |dir| repo().join(dir));
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "slotsel",
            ])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(repo())
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the daemon failed");
        target.join("release").join("slotsel")
    })
}

/// Runs the bench with `args`; returns each workload's result line.
fn bench(args: &[&str]) -> Vec<Value> {
    let output = Command::new(env!("CARGO_BIN_EXE_serve-bench"))
        .args(args)
        .arg("--slotsel")
        .arg(slotsel())
        .current_dir(repo())
        .output()
        .expect("serve-bench runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "serve-bench failed:\n{stderr}");
    String::from_utf8(output.stdout)
        .expect("UTF-8 output")
        .lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("bad result line {line:?}: {e}")))
        .collect()
}

/// `(name, unit)` of every metric in a result line, in order.
fn metrics(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            let unit = metric.get("unit").and_then(Value::as_str).expect("a unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let document = parse(&text).expect("BENCHMARK.json parses");
    document
        .get(section)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Value::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

#[test]
fn a_smoke_run_emits_exactly_the_listed_end_to_end_metrics() {
    let results = bench(&["--smoke", "--seed", "3"]);
    assert_eq!(results.len(), 4, "one result line per workload");
    let listed = listed("end_to_end");
    for result in &results {
        assert_eq!(metrics(result), listed);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        let attempted = result.get("attempted").and_then(Value::as_f64).unwrap();
        assert!(attempted >= 1.0);
    }
}

#[test]
fn traced_smoke_runs_repeat_their_exact_counts() {
    let first = bench(&["--smoke", "--traced", "--seed", "5"]);
    let second = bench(&["--smoke", "--traced", "--seed", "5"]);
    assert_eq!(first.len(), 4);
    let listed = listed("per_layer");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(metrics(a), listed);
        // Counts, bytes and ratios come from the single-threaded replay
        // of identical inputs; only times may differ.
        for (name, unit) in &listed {
            if ["count", "bytes", "ratio"].contains(&unit.as_str()) {
                let value = |r: &Value| r.get("metrics").and_then(|m| m.get(name)).cloned();
                assert_eq!(value(a), value(b), "{name} differs between runs");
            }
        }
    }
}
