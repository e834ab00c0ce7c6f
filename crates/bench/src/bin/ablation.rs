//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p slotsel-bench --bin ablation -- [--cycles N]
//! ```
//!
//! 1. **Inner min-runtime selection**: the paper's greedy substitution vs
//!    the exact threshold scan — how often and by how much the greedy is
//!    suboptimal, and the speed difference.
//! 2. **Scan pruning**: the start-bounded early exit (an extension the
//!    paper does not use) — identical results, fraction of the scan saved.
//! 3. **CSA cut policy**: alternatives found and search time under the
//!    three reservation semantics.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use slotsel_bench::numeric_flag;
use slotsel_core::aep::{scan_with, ScanOptions};
use slotsel_core::algorithms::RuntimeSelection;
use slotsel_core::{
    Csa, CutPolicy, MinFinish, MinRunTime, Money, ResourceRequest, SlotSelector, TimeDelta, Volume,
};
use slotsel_env::{Environment, EnvironmentConfig};

fn environments(cycles: u64) -> Vec<Environment> {
    (0..cycles)
        .map(|seed| EnvironmentConfig::paper_default().generate(&mut StdRng::seed_from_u64(seed)))
        .collect()
}

fn paper_request() -> ResourceRequest {
    ResourceRequest::builder()
        .node_count(5)
        .volume(Volume::new(300))
        .budget(Money::from_units(1500))
        .reference_span(TimeDelta::new(150))
        .build()
        .expect("valid request")
}

fn ablate_runtime_selection(envs: &[Environment], request: &ResourceRequest) {
    println!("== inner min-runtime selection: greedy (paper) vs exact threshold scan ==");
    let mut greedy_worse = 0u64;
    let mut gap_sum = 0.0;
    let mut greedy_time = 0.0;
    let mut exact_time = 0.0;
    for env in envs {
        let t = Instant::now();
        let greedy = MinRunTime::new().select(env.platform(), env.slots(), request);
        greedy_time += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let exact = MinRunTime::with_selection(RuntimeSelection::Exact).select(
            env.platform(),
            env.slots(),
            request,
        );
        exact_time += t.elapsed().as_secs_f64();
        if let (Some(g), Some(e)) = (greedy, exact) {
            if e.runtime() < g.runtime() {
                greedy_worse += 1;
                gap_sum += (g.runtime().ticks() - e.runtime().ticks()) as f64;
            }
        }
    }
    let n = envs.len() as f64;
    println!(
        "  greedy suboptimal in {greedy_worse}/{} cycles",
        envs.len()
    );
    if greedy_worse > 0 {
        println!(
            "  mean gap when suboptimal: {:.2} time units",
            gap_sum / greedy_worse as f64
        );
    }
    println!(
        "  mean time: greedy {:.3} ms, exact {:.3} ms\n",
        greedy_time / n * 1e3,
        exact_time / n * 1e3
    );
}

fn ablate_scan_pruning(envs: &[Environment], request: &ResourceRequest) {
    println!("== scan pruning: start-bounded early exit for MinFinish (extension) ==");
    let mut plain_admitted = 0u64;
    let mut pruned_admitted = 0u64;
    let mut mismatches = 0u64;
    let mut plain_time = 0.0;
    let mut pruned_time = 0.0;
    for env in envs {
        struct FinishPolicy;
        impl slotsel_core::SelectionPolicy for FinishPolicy {
            fn name(&self) -> &str {
                "finish"
            }
            fn pick(
                &mut self,
                _start: slotsel_core::TimePoint,
                alive: &[slotsel_core::selectors::Candidate],
                request: &ResourceRequest,
                picked: &mut Vec<usize>,
            ) -> bool {
                slotsel_core::selectors::min_runtime_greedy(
                    alive,
                    request.node_count(),
                    request.budget(),
                )
                .map(|ids| *picked = ids)
                .is_some()
            }
            fn score(&self, w: &slotsel_core::Window) -> f64 {
                w.finish().ticks() as f64
            }
        }
        let t = Instant::now();
        let plain = scan_with(
            env.platform(),
            env.slots(),
            request,
            &mut FinishPolicy,
            ScanOptions::default(),
        );
        plain_time += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let pruned = scan_with(
            env.platform(),
            env.slots(),
            request,
            &mut FinishPolicy,
            ScanOptions {
                prune_start_bounded: true,
            },
        );
        pruned_time += t.elapsed().as_secs_f64();
        plain_admitted += plain.stats.slots_admitted as u64;
        pruned_admitted += pruned.stats.slots_admitted as u64;
        if plain.best.map(|w| w.finish()) != pruned.best.map(|w| w.finish()) {
            mismatches += 1;
        }
    }
    let n = envs.len() as f64;
    println!("  result mismatches: {mismatches} (must be 0)");
    println!(
        "  slots admitted: {:.1} plain vs {:.1} pruned ({:.0}% of the scan saved)",
        plain_admitted as f64 / n,
        pruned_admitted as f64 / n,
        100.0 * (1.0 - pruned_admitted as f64 / plain_admitted as f64)
    );
    println!(
        "  mean time: plain {:.3} ms, pruned {:.3} ms\n",
        plain_time / n * 1e3,
        pruned_time / n * 1e3
    );
    // Keep MinFinish linked so the policy stays honest if the algorithm
    // changes shape.
    let _ = MinFinish::new();
}

fn ablate_cut_policy(envs: &[Environment], request: &ResourceRequest) {
    println!("== CSA cut policy: what an alternative reserves ==");
    for (label, policy) in [
        ("reservation-span (paper)", CutPolicy::ReservationSpan),
        ("window-runtime", CutPolicy::WindowRuntime),
        ("task-length", CutPolicy::TaskLength),
    ] {
        let mut alternatives = 0u64;
        let mut time = 0.0;
        for env in envs {
            let t = Instant::now();
            let found = Csa::new().cut_policy(policy).find_alternatives(
                env.platform(),
                env.slots(),
                request,
            );
            time += t.elapsed().as_secs_f64();
            alternatives += found.len() as u64;
        }
        let n = envs.len() as f64;
        println!(
            "  {label:<26} {:6.1} alternatives, {:7.2} ms per search",
            alternatives as f64 / n,
            time / n * 1e3
        );
    }
    println!();
}

fn ablate_csa_base(envs: &[Environment], request: &ResourceRequest) {
    use slotsel_core::criteria::{best_by, Criterion, WindowCriterion};
    println!("== generalised multi-alternative search: CSA base algorithm ==");
    println!("  (cost of the cost-extreme alternative among the first 16 found)");
    for (label, make) in [("base=AMP (paper CSA)", 0u8), ("base=MinCost", 1u8)] {
        let mut cost_sum = 0.0;
        let mut time = 0.0;
        for env in envs {
            let t = Instant::now();
            let csa = Csa::new()
                .cut_policy(CutPolicy::ReservationSpan)
                .max_alternatives(16);
            let alternatives = match make {
                0 => csa.find_alternatives(env.platform(), env.slots(), request),
                _ => csa.find_alternatives_with(
                    env.platform(),
                    env.slots(),
                    request,
                    &mut slotsel_core::MinCost,
                ),
            };
            time += t.elapsed().as_secs_f64();
            if let Some(best) = best_by(&Criterion::MinTotalCost, &alternatives) {
                cost_sum += Criterion::MinTotalCost.score(best);
            }
        }
        let n = envs.len() as f64;
        println!(
            "  {label:<22} cheapest-of-16 cost {:7.1}, {:6.2} ms per search",
            cost_sum / n,
            time / n * 1e3
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cycles = numeric_flag(&args, "--cycles", 300);
    eprintln!("generating {cycles} environments …");
    let envs = environments(cycles);
    let request = paper_request();

    ablate_runtime_selection(&envs, &request);
    ablate_scan_pruning(&envs, &request);
    ablate_cut_policy(&envs, &request);
    ablate_csa_base(&envs, &request);
}
