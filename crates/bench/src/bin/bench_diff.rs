//! `bench-diff` — the scan-benchmark regression gate.
//!
//! Compares a freshly produced `bench` report against a committed baseline
//! (normally the repo's `BENCH_SCAN.json`) and exits non-zero when any
//! overlapping `(policy, fixture)` row's **speedup** — the pool scan's
//! advantage over the reference scan on the *same host and run* — fell by
//! more than the tolerance. Comparing the hardware-normalised speedup
//! ratio rather than raw milliseconds keeps the gate meaningful across
//! machines: CI runners are slower than the box that produced the
//! baseline, but the reference scan slows down with them.
//!
//! ```text
//! bench-diff --baseline BENCH_SCAN.json --current bench-ci.json
//! bench-diff --baseline BENCH_SCAN.json --current bench-ci.json --tolerance 30
//! ```
//!
//! Two further gates ride along when both reports carry the columns:
//! **allocations per pool scan** (deterministic and hardware-independent,
//! so compared exactly: the baseline count is the ceiling, with no
//! tolerance) and the
//! **slot-store cutting rows** (the tree store's speedup over the `Vec`
//! oracle, gated like the scan speedups).
//!
//! Rows present in only one report are listed but do not gate; at least
//! one overlapping row is required, so comparing disjoint reports fails
//! loudly instead of passing vacuously.

use std::process::ExitCode;

use serde::Deserialize;

/// The subset of the `bench` report this gate reads. Unknown fields are
/// ignored so the schema can grow without breaking older gates.
#[derive(Debug, Deserialize)]
struct BenchReport {
    schema: String,
    scan: Vec<ScanRow>,
    /// Slot-store scaling rows; absent in reports from older `bench`
    /// builds, in which case the store gate is skipped.
    #[serde(default)]
    cutting: Vec<CuttingRow>,
    /// CSA repeated-search rows; absent in older reports, in which case
    /// the pruned-scan gate is skipped.
    #[serde(default)]
    csa: Vec<CsaRow>,
}

#[derive(Debug, Deserialize)]
struct ScanRow {
    policy: String,
    fixture: String,
    reference_median_ms: f64,
    pool_median_ms: f64,
    speedup: f64,
    /// Allocations per pool scan; 0 in reports from older `bench` builds,
    /// in which case the allocation gate is skipped for the row.
    #[serde(default)]
    pool_allocs: u64,
}

#[derive(Debug, Deserialize)]
struct CuttingRow {
    operation: String,
    nodes: u64,
    vec_median_ms: f64,
    tree_median_ms: f64,
    speedup: f64,
}

#[derive(Debug, Deserialize)]
struct CsaRow {
    nodes: u64,
    alternatives: u64,
    vec_median_ms: f64,
    tree_median_ms: f64,
    speedup: f64,
}

fn load(path: &str) -> Result<BenchReport, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report: BenchReport = serde_json::from_str(&raw).map_err(|e| format!("{path}: {e}"))?;
    if report.schema != "slotsel-bench-scan/1" {
        return Err(format!(
            "{path}: unexpected schema {:?} (expected slotsel-bench-scan/1)",
            report.schema
        ));
    }
    Ok(report)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = flag(&args, "--baseline").unwrap_or("BENCH_SCAN.json");
    let current_path = flag(&args, "--current").ok_or(
        "usage: bench-diff --current NEW.json [--baseline BENCH_SCAN.json] [--tolerance PCT]",
    )?;
    let tolerance_pct: f64 = match flag(&args, "--tolerance") {
        None => 20.0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--tolerance: cannot parse {v:?}"))?,
    };
    if !(0.0..100.0).contains(&tolerance_pct) {
        return Err(format!("--tolerance: {tolerance_pct} must be in [0, 100)"));
    }

    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let floor = 1.0 - tolerance_pct / 100.0;

    let mut overlapping = 0usize;
    let mut regressions = 0usize;
    for row in &current.scan {
        let Some(base) = baseline
            .scan
            .iter()
            .find(|b| b.policy == row.policy && b.fixture == row.fixture)
        else {
            println!(
                "  new   {:<12} {:<6} {:>6.2}x (no baseline row, not gated)",
                row.policy, row.fixture, row.speedup
            );
            continue;
        };
        overlapping += 1;
        let ratio = row.speedup / base.speedup.max(1e-9);
        let regressed = ratio < floor;
        if regressed {
            regressions += 1;
        }
        println!(
            "  {} {:<12} {:<6} baseline {:>6.2}x -> current {:>6.2}x ({:>6.1}% of baseline; ref {:.3} ms, pool {:.3} ms)",
            if regressed { "FAIL " } else { "ok   " },
            row.policy,
            row.fixture,
            base.speedup,
            row.speedup,
            ratio * 100.0,
            row.reference_median_ms,
            row.pool_median_ms,
        );
        // Allocation counts are deterministic and hardware-independent, so
        // unlike the wall-clock columns they gate exactly: the pool scan may
        // not allocate more than the baseline did.
        if base.pool_allocs > 0 && row.pool_allocs > 0 {
            let alloc_regressed = row.pool_allocs > base.pool_allocs;
            if alloc_regressed {
                regressions += 1;
            }
            println!(
                "  {} {:<12} {:<6} pool allocs baseline {} -> current {}",
                if alloc_regressed { "FAIL " } else { "ok   " },
                row.policy,
                row.fixture,
                base.pool_allocs,
                row.pool_allocs,
            );
        }
    }
    for base in &baseline.scan {
        if !current
            .scan
            .iter()
            .any(|r| r.policy == base.policy && r.fixture == base.fixture)
        {
            println!(
                "  gone  {:<12} {:<6} (baseline row not re-measured, not gated)",
                base.policy, base.fixture
            );
        }
    }

    // The store-scaling rows gate like the scan rows: the tree store's
    // speedup over the `Vec` oracle on the same host must not fall by more
    // than the tolerance. Rows present on only one side are informational.
    for row in &current.cutting {
        let Some(base) = baseline
            .cutting
            .iter()
            .find(|b| b.operation == row.operation && b.nodes == row.nodes)
        else {
            println!(
                "  new   {:<12} {:>7}n {:>6.1}x (no baseline cutting row, not gated)",
                row.operation, row.nodes, row.speedup
            );
            continue;
        };
        overlapping += 1;
        let ratio = row.speedup / base.speedup.max(1e-9);
        let regressed = ratio < floor;
        if regressed {
            regressions += 1;
        }
        println!(
            "  {} {:<12} {:>7}n baseline {:>6.1}x -> current {:>6.1}x ({:>6.1}% of baseline; vec {:.3} ms, tree {:.3} ms)",
            if regressed { "FAIL " } else { "ok   " },
            row.operation,
            row.nodes,
            base.speedup,
            row.speedup,
            ratio * 100.0,
            row.vec_median_ms,
            row.tree_median_ms,
        );
    }

    // The CSA repeated-search rows gate the aggregate-pruned scan the
    // same way: the tree-backed search's speedup over the `Vec` oracle
    // must hold, and the alternative count — a hardware-independent
    // result, not a timing — must not change at all.
    for row in &current.csa {
        let Some(base) = baseline.csa.iter().find(|b| b.nodes == row.nodes) else {
            println!(
                "  new   csa          {:>7}n {:>6.1}x (no baseline csa row, not gated)",
                row.nodes, row.speedup
            );
            continue;
        };
        overlapping += 1;
        let ratio = row.speedup / base.speedup.max(1e-9);
        let regressed = ratio < floor || row.alternatives != base.alternatives;
        if regressed {
            regressions += 1;
        }
        println!(
            "  {} csa          {:>7}n baseline {:>6.1}x -> current {:>6.1}x ({:>6.1}% of baseline; {} -> {} alts; vec {:.3} ms, tree {:.3} ms)",
            if regressed { "FAIL " } else { "ok   " },
            row.nodes,
            base.speedup,
            row.speedup,
            ratio * 100.0,
            base.alternatives,
            row.alternatives,
            row.vec_median_ms,
            row.tree_median_ms,
        );
    }

    if overlapping == 0 {
        return Err(format!(
            "no overlapping (policy, fixture) rows between {baseline_path} and {current_path}"
        ));
    }
    println!(
        "{overlapping} rows compared, {regressions} regressed beyond {tolerance_pct}% tolerance"
    );
    Ok(regressions == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
