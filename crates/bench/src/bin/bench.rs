//! `bench` — before/after benchmarks for the incremental-pool scan and the
//! slot stores, written to `BENCH_SCAN.json`.
//!
//! The first family, **scan micro-benchmarks**, runs every policy's full
//! AEP scan over a fixed generated environment, timing the historical
//! sort-per-step scan ([`slotsel_core::reference`]) against the
//! incremental [`CandidatePool`](slotsel_core::pool::CandidatePool) scan
//! and reporting the median of the repeats.
//!
//! ```text
//! cargo run --release --bin bench            # full fixtures, repo medians
//! cargo run --release --bin bench -- --smoke # tiny fixture for CI
//! ```
//!
//! A second family, **cutting scaling**, times the slot-store mutation
//! rounds (cut + release, per-node refresh, the live clock advance) on
//! the `Vec` store against the interval-tree store at 1k/10k/100k nodes
//! (the largest ≈ one million slots) — see `docs/PERFORMANCE.md` for the
//! store design.
//!
//! A third family, **CSA repeated search**, runs the full multi-
//! alternative search (scan, cut, rescan) over the same cutting fixture on
//! a `Vec`-backed versus a tree-backed working list. The tree side scans
//! through the aggregate-pruned cursor and cuts in `O(log m)`; both sides
//! must return identical alternatives, so the row doubles as a
//! differential check of the pruned scan under repeated mutation.
//!
//! Flags: `--smoke` (tiny fixture, few repeats), `--repeats N`,
//! `--fixture small|large|all` (restrict the full-mode scan fixtures),
//! `--no-cutting` (skip the store-scaling rows), `--cutting-cap N` (drop cutting sizes above N
//! nodes — CI uses this to stay fast), `--out PATH` (default
//! `BENCH_SCAN.json` in the working directory). The report is validated by
//! parsing it back before the process exits. `bench-diff` compares two
//! such reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_bench::{cutting, numeric_flag};
use slotsel_core::aep::{scan_with, ScanOptions, SelectionPolicy};
use slotsel_core::algorithms::{Amp, MinCost, MinFinish, MinProcTime, MinRunTime};
use slotsel_core::csa::Csa;
use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::reference::reference_scan_with;
use slotsel_core::request::ResourceRequest;
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_env::EnvironmentConfig;
use slotsel_sim::config::RequestConfig;

/// Counts every heap allocation the process makes. The scan rows report
/// allocations per scan — a hardware-independent signal `bench-diff` can
/// gate directly, unlike wall-clock times.
struct CountingAlloc;

/// Allocations (`alloc` + `realloc`) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to the system allocator unchanged; the
// only addition is a relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed. The
/// process is single-threaded while benchmarking, so the delta is `f`'s.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// Seed of every generated benchmark environment.
const ENV_SEED: u64 = 0xF1C5_2013;
/// Seed of the MinProcTime draws (fresh generator per scan repeat).
const PROC_SEED: u64 = 0x0510_57E1;

/// The report written to `BENCH_SCAN.json`.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    /// Report format tag.
    schema: String,
    /// `full` or `smoke`.
    mode: String,
    /// Scan repeats behind each median.
    repeats: u64,
    /// Before/after medians per (policy, fixture).
    scan: Vec<ScanRow>,
    /// Slot-store scaling medians per (operation, size): `Vec` vs tree.
    cutting: Vec<CuttingRow>,
    /// CSA repeated-search medians per size: `Vec`-backed vs tree-backed
    /// working list. Absent in reports from older `bench` builds.
    #[serde(default)]
    csa: Vec<CsaRow>,
}

/// One scan micro-benchmark: a policy on a fixture, before vs after.
#[derive(Debug, Serialize, Deserialize)]
struct ScanRow {
    policy: String,
    fixture: String,
    nodes: u64,
    slots: u64,
    reference_median_ms: f64,
    pool_median_ms: f64,
    speedup: f64,
    /// Heap allocations in one reference scan.
    reference_allocs: u64,
    /// Heap allocations in one pool scan.
    pool_allocs: u64,
}

/// One slot-store scaling benchmark: the same deterministic mutation
/// rounds (see [`slotsel_bench::cutting`]) on a `Vec`-backed and a
/// tree-backed list of the same size.
#[derive(Debug, Serialize, Deserialize)]
struct CuttingRow {
    /// `cut_release`, `node_refresh` or `advance`.
    operation: String,
    nodes: u64,
    slots: u64,
    /// Mutation rounds in each timed sample.
    rounds: u64,
    vec_median_ms: f64,
    tree_median_ms: f64,
    /// `Vec` median over tree median — how much the tree store wins.
    speedup: f64,
}

/// One CSA repeated-search benchmark: the full disjoint-alternative
/// search on the cutting fixture, `Vec`-backed vs tree-backed. Both
/// sides must return identical alternatives.
#[derive(Debug, Serialize, Deserialize, Default)]
#[serde(default)]
struct CsaRow {
    nodes: u64,
    slots: u64,
    /// Alternatives found per search (identical on both stores).
    alternatives: u64,
    vec_median_ms: f64,
    tree_median_ms: f64,
    /// `Vec` median over tree median — the pruned-scan + tree-cut win.
    speedup: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// Times one policy's reference and pool scans over `repeats` alternating
/// runs and returns the row. Both paths must select the same window — a
/// speedup against a scan that picks differently would be meaningless.
///
/// `scan` runs one scan with a **freshly constructed** policy: the
/// reference path when the argument is true, the pool path otherwise,
/// returning the best window's total cost as the agreement check.
///
/// Scans faster than ~1 ms (AMP's first-fit path finishes in well under a
/// microsecond) are pure timer noise one call at a time, so each timed
/// sample batches enough inner iterations to span about a millisecond of
/// work and reports the per-iteration mean.
fn scan_row(
    policy_name: &str,
    fixture: &str,
    nodes: u64,
    slots: u64,
    repeats: u64,
    scan: &mut dyn FnMut(bool) -> Option<f64>,
) -> ScanRow {
    let (reference_allocs, _) = count_allocs(|| scan(true));
    let (pool_allocs, _) = count_allocs(|| scan(false));
    let (probe_ms, _) = time_ms(|| scan(true));
    let inner = if probe_ms >= 1.0 {
        1
    } else {
        ((1.0 / probe_ms.max(1e-6)).ceil() as u64).min(8_192)
    };
    let mut batched = |reference: bool| -> (f64, Option<f64>) {
        let t = Instant::now();
        let mut best = None;
        for _ in 0..inner {
            best = scan(reference);
        }
        #[allow(clippy::cast_precision_loss)]
        (t.elapsed().as_secs_f64() * 1e3 / inner as f64, best)
    };
    let mut reference_ms = Vec::with_capacity(repeats as usize);
    let mut pool_ms = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let (ms, reference_best) = batched(true);
        reference_ms.push(ms);
        let (ms, pool_best) = batched(false);
        pool_ms.push(ms);
        assert_eq!(
            reference_best, pool_best,
            "{policy_name} on {fixture}: reference and pool scans disagree"
        );
    }
    let reference_median_ms = median(&mut reference_ms);
    let pool_median_ms = median(&mut pool_ms);
    ScanRow {
        policy: policy_name.to_owned(),
        fixture: fixture.to_owned(),
        nodes,
        slots,
        reference_median_ms,
        pool_median_ms,
        speedup: reference_median_ms / pool_median_ms.max(1e-9),
        reference_allocs,
        pool_allocs,
    }
}

/// A named scan runner: true runs the reference path, false the pool path;
/// returns the best window's total cost.
type Runner<'a> = (&'a str, Box<dyn FnMut(bool) -> Option<f64> + 'a>);

fn scan_benchmarks(fixtures: &[(&str, usize)], repeats: u64) -> Vec<ScanRow> {
    let request: ResourceRequest = RequestConfig::paper_default().to_request();
    let mut rows = Vec::new();
    for &(fixture, nodes) in fixtures {
        let env = EnvironmentConfig::with_node_count(nodes)
            .generate(&mut StdRng::seed_from_u64(ENV_SEED));
        let run = |policy: &mut dyn SelectionPolicy, reference: bool| -> Option<f64> {
            let outcome = if reference {
                reference_scan_with(
                    env.platform(),
                    env.slots(),
                    &request,
                    policy,
                    ScanOptions::default(),
                )
            } else {
                scan_with(
                    env.platform(),
                    env.slots(),
                    &request,
                    policy,
                    ScanOptions::default(),
                )
            };
            outcome.best.map(|w| w.total_cost().as_f64())
        };
        // Each runner constructs its policy per scan, so MinProcTime's
        // generator restarts identically for every repeat and both paths.
        let mut runners: Vec<Runner> = vec![
            ("AMP", Box::new(|r| run(&mut Amp.policy(), r))),
            ("MinCost", Box::new(|r| run(&mut MinCost.policy(), r))),
            (
                "MinRunTime",
                Box::new(|r| run(&mut MinRunTime::new().policy(), r)),
            ),
            (
                "MinFinish",
                Box::new(|r| run(&mut MinFinish::new().policy(), r)),
            ),
            (
                "MinProcTime",
                Box::new(|r| {
                    let mut algo = MinProcTime::with_seed(PROC_SEED);
                    let mut policy = algo.policy();
                    run(&mut policy, r)
                }),
            ),
        ];
        for (name, scan) in &mut runners {
            let row = scan_row(
                name,
                fixture,
                env.platform().len() as u64,
                env.slots().len() as u64,
                repeats,
                scan,
            );
            println!(
                "scan  {:<12} {:<6} {:>4} nodes  reference {:>8.3} ms  pool {:>8.3} ms  {:>5.2}x",
                row.policy,
                row.fixture,
                row.nodes,
                row.reference_median_ms,
                row.pool_median_ms,
                row.speedup
            );
            rows.push(row);
        }
    }
    rows
}

/// Times the slot-store mutation rounds on a `Vec`-backed and a
/// tree-backed list at each size. Both copies evolve under the identical
/// deterministic op stream, so they are asserted equal after every
/// operation family — each benchmark run doubles as a differential check.
fn cutting_benchmarks(sizes: &[u64], repeats: u64) -> Vec<CuttingRow> {
    let mut rows = Vec::new();
    for &nodes in sizes {
        let mut vec_list = cutting::fixture(nodes, SlotStoreKind::Vec);
        let mut tree_list = cutting::fixture(nodes, SlotStoreKind::Tree);
        let slots = vec_list.len() as u64;
        let platform = cutting::platform(nodes);
        // The advance runs last: it reshapes every node's schedule, which
        // the refresh rounds expect whole.
        for operation in ["cut_release", "node_refresh", "advance"] {
            let rounds = match operation {
                "advance" => cutting::advance_rounds_for(vec_list.len()),
                _ => cutting::rounds_for(vec_list.len()),
            };
            let run = |list: &mut SlotList| match operation {
                "cut_release" => cutting::cut_release_round(list, rounds),
                "node_refresh" => cutting::node_refresh_round(list, nodes, rounds),
                _ => cutting::advance_round(list, &platform, rounds),
            };
            let mut vec_ms = Vec::with_capacity(repeats as usize);
            let mut tree_ms = Vec::with_capacity(repeats as usize);
            for _ in 0..repeats {
                let (ms, ()) = time_ms(|| run(&mut vec_list));
                vec_ms.push(ms);
                let (ms, ()) = time_ms(|| run(&mut tree_list));
                tree_ms.push(ms);
            }
            assert_eq!(
                vec_list, tree_list,
                "{operation} at {nodes} nodes: stores diverged"
            );
            let vec_median_ms = median(&mut vec_ms);
            let tree_median_ms = median(&mut tree_ms);
            let row = CuttingRow {
                operation: operation.to_owned(),
                nodes,
                slots,
                rounds,
                vec_median_ms,
                tree_median_ms,
                speedup: vec_median_ms / tree_median_ms.max(1e-9),
            };
            println!(
                "cut   {:<12} {:>7} nodes {:>8} slots  vec {:>9.3} ms  tree {:>9.3} ms  {:>7.1}x",
                row.operation,
                row.nodes,
                row.slots,
                row.vec_median_ms,
                row.tree_median_ms,
                row.speedup
            );
            rows.push(row);
        }
    }
    rows
}

/// Caps the alternatives per CSA search so the `Vec` side's `O(m)` cuts
/// stay tractable at the million-slot tier.
const CSA_MAX_ALTERNATIVES: usize = 32;

/// Times the full CSA multi-alternative search (repeated AMP scan plus
/// cut) on a `Vec`-backed and a tree-backed copy of the cutting fixture.
/// The alternatives must match window-for-window — each run is also a
/// differential check of the aggregate-pruned scan under mutation.
fn csa_benchmarks(sizes: &[u64], repeats: u64) -> Vec<CsaRow> {
    let mut rows = Vec::new();
    for &nodes in sizes {
        let platform = cutting::platform(nodes);
        let vec_list = cutting::fixture(nodes, SlotStoreKind::Vec);
        let mut tree_list = vec_list.clone();
        tree_list.convert(SlotStoreKind::Tree);
        // A volume the fixture's fast nodes fit easily and its slow nodes
        // mostly cannot: feasibility is mixed, so the pruned cursor has
        // dominated subtrees to skip on every rescan.
        let request = ResourceRequest::builder()
            .node_count(5)
            .volume(Volume::new(300))
            .budget(Money::from_units(100_000_000))
            .build()
            .expect("benchmark request is valid");
        let csa = Csa::new().max_alternatives(CSA_MAX_ALTERNATIVES);
        let mut vec_ms = Vec::with_capacity(repeats as usize);
        let mut tree_ms = Vec::with_capacity(repeats as usize);
        let mut alternatives = 0u64;
        for _ in 0..repeats {
            let (ms, on_vec) = time_ms(|| csa.find_alternatives(&platform, &vec_list, &request));
            vec_ms.push(ms);
            let (ms, on_tree) = time_ms(|| csa.find_alternatives(&platform, &tree_list, &request));
            tree_ms.push(ms);
            assert_eq!(
                on_vec, on_tree,
                "CSA at {nodes} nodes: stores found different alternatives"
            );
            alternatives = on_vec.len() as u64;
        }
        let vec_median_ms = median(&mut vec_ms);
        let tree_median_ms = median(&mut tree_ms);
        let row = CsaRow {
            nodes,
            slots: vec_list.len() as u64,
            alternatives,
            vec_median_ms,
            tree_median_ms,
            speedup: vec_median_ms / tree_median_ms.max(1e-9),
        };
        println!(
            "csa   {:>7} nodes {:>8} slots  {:>3} alts  vec {:>9.3} ms  tree {:>9.3} ms  {:>6.1}x",
            row.nodes,
            row.slots,
            row.alternatives,
            row.vec_median_ms,
            row.tree_median_ms,
            row.speedup
        );
        rows.push(row);
    }
    rows
}

/// Parses the written report back and checks its shape — the same check the
/// CI smoke job relies on.
fn validate(path: &str) {
    let raw = std::fs::read_to_string(path).expect("report must be readable");
    let report: BenchReport = serde_json::from_str(&raw).expect("report must parse");
    assert_eq!(report.schema, "slotsel-bench-scan/1");
    assert!(!report.scan.is_empty(), "scan rows present");
    for row in &report.scan {
        assert!(
            row.reference_median_ms > 0.0 && row.pool_median_ms > 0.0,
            "{}: medians must be positive",
            row.policy
        );
    }
    for row in &report.cutting {
        assert!(
            row.vec_median_ms > 0.0 && row.tree_median_ms > 0.0,
            "cutting {} at {} nodes: medians must be positive",
            row.operation,
            row.nodes
        );
    }
    for row in &report.csa {
        assert!(
            row.vec_median_ms > 0.0 && row.tree_median_ms > 0.0,
            "csa at {} nodes: medians must be positive",
            row.nodes
        );
        assert!(
            row.alternatives > 0,
            "csa at {} nodes: the search must find alternatives",
            row.nodes
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let no_cutting = args.iter().any(|a| a == "--no-cutting");
    let repeats = numeric_flag(&args, "--repeats", if smoke { 3 } else { 15 });
    let cutting_cap = numeric_flag(&args, "--cutting-cap", u64::MAX);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_SCAN.json".to_owned());
    let fixture_filter = args
        .iter()
        .position(|a| a == "--fixture")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "all".to_owned());

    let all_fixtures: &[(&str, usize)] = if smoke {
        &[("smoke", 24)]
    } else {
        &[("small", 100), ("large", 400)]
    };
    let fixtures: Vec<(&str, usize)> = all_fixtures
        .iter()
        .filter(|(name, _)| fixture_filter == "all" || *name == fixture_filter)
        .copied()
        .collect();
    assert!(
        !fixtures.is_empty(),
        "--fixture {fixture_filter}: no such fixture in {} mode (expected {})",
        if smoke { "smoke" } else { "full" },
        all_fixtures
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("|")
    );

    let cutting_sizes: Vec<u64> = if smoke {
        vec![500]
    } else {
        vec![1_000, 10_000, 100_000]
    }
    .into_iter()
    .filter(|&n| n <= cutting_cap)
    .collect();

    let scan_rows = scan_benchmarks(&fixtures, repeats);
    // CSA before cutting: the million-slot cutting rounds leave the
    // allocator in a different state than a capped CI run would, which
    // would bias the CSA medians between baseline and re-measure.
    let csa_rows = if no_cutting {
        Vec::new()
    } else {
        csa_benchmarks(&cutting_sizes, repeats.min(5))
    };
    let report = BenchReport {
        schema: "slotsel-bench-scan/1".to_owned(),
        mode: if smoke { "smoke" } else { "full" }.to_owned(),
        repeats,
        scan: scan_rows,
        cutting: if no_cutting {
            Vec::new()
        } else {
            // The million-slot `Vec` rounds are slow by design; cap the
            // repeats so the full run stays tractable.
            cutting_benchmarks(&cutting_sizes, repeats.min(5))
        },
        csa: csa_rows,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("report must be writable");
    validate(&out);
    println!("wrote {out}");
}
