//! The paper's evaluation as six studies, each rendered once.
//!
//! Each of the [`STUDIES`] returns its [`Artifact`]s: its rendered `.txt`
//! file and, for the quality figures and the two timing tables, the raw
//! results as JSON. The `reproduce` binary writes them under an artifacts
//! directory; EXPERIMENTS.md lists the files and records the measured
//! values.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use slotsel_core::aep::{scan_with, ScanOptions};
use slotsel_core::algorithms::RuntimeSelection;
use slotsel_core::criteria::{best_by, Criterion, WindowCriterion};
use slotsel_core::{
    Csa, CutPolicy, MinCost, MinFinish, MinRunTime, Money, ResourceRequest, SlotSelector,
    TimeDelta, Volume,
};
use slotsel_env::{Environment, EnvironmentConfig};
use slotsel_sim::batch_experiment::{self, BatchExperimentConfig};
use slotsel_sim::config::{paper, QualityConfig};
use slotsel_sim::metrics::MetricsAccumulator;
use slotsel_sim::report::{
    quality_series, render_bars, render_scaling_series, render_scaling_table, render_table,
};
use slotsel_sim::scaling::{sweep_interval, sweep_nodes, ScalingConfig};
use slotsel_sim::{quality, sensitivity};

/// One file a study writes.
#[derive(Debug)]
pub struct Artifact {
    /// File name under the artifacts directory, e.g. `figures.txt`.
    pub name: &'static str,
    /// The file's contents.
    pub contents: String,
}

impl Artifact {
    fn text(name: &'static str, contents: String) -> Self {
        Artifact { name, contents }
    }

    fn json(name: &'static str, value: &impl Serialize) -> Self {
        let contents = serde_json::to_string_pretty(value).expect("study results serialize");
        Artifact { name, contents }
    }

    /// Writes the artifact into `dir` and returns its path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.name);
        std::fs::write(&path, &self.contents)?;
        Ok(path)
    }
}

/// How many cycles or runs each study averages over.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Environments behind the quality figures (Figs 2–4, §3.3).
    pub quality_cycles: u64,
    /// Runs per sweep point (Tables 1–2, Figs 5–6).
    pub sweep_runs: u64,
    /// Environments per ablation.
    pub ablation_cycles: u64,
    /// Cycles per batch objective.
    pub batch_cycles: u64,
    /// Cycles per request shape of the sensitivity grid.
    pub sensitivity_cycles: u64,
}

impl Scale {
    /// The scale EXPERIMENTS.md documents.
    pub const PAPER: Scale = Scale {
        quality_cycles: 5_000,
        sweep_runs: 1_000,
        ablation_cycles: 1_000,
        batch_cycles: 300,
        sensitivity_cycles: 300,
    };
    /// Statistical depth traded for a run of a few seconds.
    pub const FAST: Scale = Scale {
        quality_cycles: 300,
        sweep_runs: 30,
        ablation_cycles: 30,
        batch_cycles: 30,
        sensitivity_cycles: 30,
    };
}

/// One study of the evaluation: runs it at a [`Scale`] and renders its
/// artifacts.
pub type Study = fn(&Scale) -> Vec<Artifact>;

/// Every study by its name on the `reproduce` command line, in the order
/// `reproduce` runs them: Figs 2(a)–4 with the paper's values and §3.3 AEP
/// vs AMP; Table 1 / Fig. 5 (working time vs node count); Table 2 / Fig. 6
/// (working time vs interval length); the design choices DESIGN.md calls
/// out, each against its alternative; and two extensions, the two-phase
/// batch cycle under each batch objective and the comparison's sensitivity
/// to the request's shape.
pub const STUDIES: [(&str, Study); 6] = [
    ("figures", figures),
    ("table1", table1),
    ("table2", table2),
    ("ablation", ablation),
    ("batch", batch),
    ("sensitivity", sensitivity),
];

type MetricFn = fn(&MetricsAccumulator) -> f64;

/// The statistic `criterion` minimises, and the paper's values of it.
fn metric(criterion: Criterion) -> (MetricFn, &'static [(&'static str, f64)]) {
    match criterion {
        Criterion::EarliestStart => (|a| a.start.mean(), &paper::START),
        Criterion::EarliestFinish => (|a| a.finish.mean(), &paper::FINISH),
        Criterion::MinTotalCost => (|a| a.cost.mean(), &paper::COST),
        Criterion::MinRuntime => (|a| a.runtime.mean(), &paper::RUNTIME),
        Criterion::MinProcTime => (|a| a.proc_time.mean(), &paper::PROC_TIME),
    }
}

/// A table header from its comma-separated column names.
fn cells(header: &str) -> Vec<String> {
    header.split(',').map(str::to_owned).collect()
}

fn figures(scale: &Scale) -> Vec<Artifact> {
    let mut config = QualityConfig::quick(scale.quality_cycles);
    config.include_baselines = true;
    let results = quality::run(&config);
    let mut out = format!(
        "CSA alternatives per cycle: {:.1}  (paper: {:.0})\n\n",
        results.csa_alternatives.mean(),
        paper::CSA_ALTERNATIVES
    );
    for (criterion, title) in [
        (Criterion::EarliestStart, "Fig. 2(a): average start time"),
        (Criterion::MinRuntime, "Fig. 2(b): average runtime"),
        (Criterion::EarliestFinish, "Fig. 3(a): average finish time"),
        (Criterion::MinProcTime, "Fig. 3(b): average CPU usage time"),
        (
            Criterion::MinTotalCost,
            "Fig. 4: average job execution cost",
        ),
    ] {
        let (metric, refs) = metric(criterion);
        let annotated: Vec<(String, f64)> = quality_series(&results, metric, criterion)
            .into_iter()
            .map(
                |(name, value)| match refs.iter().find(|(n, _)| *n == name) {
                    Some((_, paper)) => (format!("{name}  (paper: {paper:.1})"), value),
                    None => (name, value),
                },
            )
            .collect();
        let _ = writeln!(out, "{}", render_bars(title, &annotated));
    }

    out.push_str("§3.3: advantage of a single AEP run over AMP by its own criterion\n");
    let amp = results.algorithm("AMP").expect("AMP always runs");
    for (name, label, criterion) in [
        ("MinFinish", "finish", Criterion::EarliestFinish),
        ("MinCost", "cost", Criterion::MinTotalCost),
        ("MinRunTime", "runtime", Criterion::MinRuntime),
        ("MinProcTime", "proctime", Criterion::MinProcTime),
    ] {
        let metric = metric(criterion).0;
        let aep = metric(results.algorithm(name).expect("every AEP algorithm runs"));
        let amp = metric(amp);
        let advantage = 100.0 * (amp - aep) / amp.max(f64::EPSILON);
        let _ = writeln!(
            out,
            "  {:<22} AMP {amp:8.1}  AEP {aep:8.1}  advantage {advantage:5.1}%",
            format!("{name} ({label})")
        );
    }
    vec![
        Artifact::text("figures.txt", out),
        Artifact::json("quality.json", &results),
    ]
}

fn table1(scale: &Scale) -> Vec<Artifact> {
    let points = sweep_nodes(
        &ScalingConfig::quick(scale.sweep_runs),
        &paper::TABLE1_NODES,
    );
    let paper_rows: String = paper::TABLE1_NODES
        .iter()
        .zip(paper::TABLE1_CSA_ALTS)
        .map(|(nodes, alts)| format!("  {nodes:>4} nodes: paper {alts:6.1} alternatives\n"))
        .collect();
    let text = format!(
        "Table 1. Actual algorithms execution time in ms ({} runs per point)\n\n{}\n\
         Paper's CSA alternative counts for comparison:\n{paper_rows}\n\
         Fig. 5: working time vs available CPU nodes\n\n{}",
        scale.sweep_runs,
        render_scaling_table("CPU nodes number", &points, false),
        render_scaling_series("nodes", &points)
    );
    vec![
        Artifact::text("table1.txt", text),
        Artifact::json("table1.json", &points),
    ]
}

fn table2(scale: &Scale) -> Vec<Artifact> {
    let points = sweep_interval(
        &ScalingConfig::quick(scale.sweep_runs),
        &paper::TABLE2_INTERVALS,
    );
    let paper_rows: String = paper::TABLE2_INTERVALS
        .iter()
        .zip(paper::TABLE2_SLOTS)
        .zip(paper::TABLE2_CSA_ALTS)
        .map(|((len, slots), alts)| {
            format!("  interval {len:>4}: paper {slots:7.1} slots, {alts:6.1} alternatives\n")
        })
        .collect();
    let text = format!(
        "Table 2. Algorithms working time (ms) vs scheduling interval length \
         ({} runs per point)\n\n{}\nPaper's slot and alternative counts for comparison:\n\
         {paper_rows}\nFig. 6: working time vs scheduling interval length\n\n{}",
        scale.sweep_runs,
        render_scaling_table("Scheduling interval length", &points, true),
        render_scaling_series("interval", &points)
    );
    vec![
        Artifact::text("table2.txt", text),
        Artifact::json("table2.json", &points),
    ]
}

/// Runs `f`, adding its wall-clock seconds to `total`.
fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *total += start.elapsed().as_secs_f64();
    value
}

/// `time` seconds spent over `envs`, as milliseconds per environment.
fn mean_ms(time: f64, envs: &[Environment]) -> f64 {
    time / envs.len() as f64 * 1e3
}

fn ablation(scale: &Scale) -> Vec<Artifact> {
    let envs: Vec<Environment> = (0..scale.ablation_cycles)
        .map(|seed| EnvironmentConfig::paper_default().generate(&mut StdRng::seed_from_u64(seed)))
        .collect();
    let request = ResourceRequest::builder()
        .node_count(5)
        .volume(Volume::new(300))
        .budget(Money::from_units(1500))
        .reference_span(TimeDelta::new(150))
        .build()
        .expect("valid request");
    let mut out = format!("Ablations over {} environments\n\n", envs.len());
    ablate_runtime_selection(&mut out, &envs, &request);
    ablate_scan_pruning(&mut out, &envs, &request);
    ablate_cut_policy(&mut out, &envs, &request);
    ablate_csa_base(&mut out, &envs, &request);
    vec![Artifact::text("ablation.txt", out)]
}

/// The paper's greedy min-runtime substitution against the exact
/// threshold scan: how often and by how much the greedy is suboptimal.
fn ablate_runtime_selection(out: &mut String, envs: &[Environment], request: &ResourceRequest) {
    out.push_str("== inner min-runtime selection: greedy (paper) vs exact threshold scan ==\n");
    let (mut greedy_worse, mut gap_sum, mut greedy_time, mut exact_time) = (0u64, 0.0, 0.0, 0.0);
    for env in envs {
        let greedy = timed(&mut greedy_time, || {
            MinRunTime::new().select(env.platform(), env.slots(), request)
        });
        let exact = timed(&mut exact_time, || {
            MinRunTime::with_selection(RuntimeSelection::Exact).select(
                env.platform(),
                env.slots(),
                request,
            )
        });
        if let (Some(g), Some(e)) = (greedy, exact) {
            if e.runtime() < g.runtime() {
                greedy_worse += 1;
                gap_sum += (g.runtime().ticks() - e.runtime().ticks()) as f64;
            }
        }
    }
    let _ = writeln!(
        out,
        "  greedy suboptimal in {greedy_worse}/{} cycles",
        envs.len()
    );
    if greedy_worse > 0 {
        let _ = writeln!(
            out,
            "  mean gap when suboptimal: {:.2} time units",
            gap_sum / greedy_worse as f64
        );
    }
    let _ = writeln!(
        out,
        "  mean time: greedy {:.3} ms, exact {:.3} ms\n",
        mean_ms(greedy_time, envs),
        mean_ms(exact_time, envs)
    );
}

/// MinFinish with and without the start-bounded early exit, an extension
/// the paper does not use: the results must agree.
fn ablate_scan_pruning(out: &mut String, envs: &[Environment], request: &ResourceRequest) {
    out.push_str("== scan pruning: start-bounded early exit for MinFinish (extension) ==\n");
    let mut admitted = [0u64; 2];
    let mut time = [0.0; 2];
    let mut mismatches = 0u64;
    for env in envs {
        let mut finish = [None; 2];
        for (i, prune_start_bounded) in [false, true].into_iter().enumerate() {
            let options = ScanOptions {
                prune_start_bounded,
            };
            let mut policy = MinFinish::new().policy();
            let outcome = timed(&mut time[i], || {
                scan_with(env.platform(), env.slots(), request, &mut policy, options)
            });
            admitted[i] += outcome.stats.slots_admitted as u64;
            finish[i] = outcome.best.map(|w| w.finish());
        }
        if finish[0] != finish[1] {
            mismatches += 1;
        }
    }
    let n = envs.len() as f64;
    let _ = writeln!(out, "  result mismatches: {mismatches} (must be 0)");
    let _ = writeln!(
        out,
        "  slots admitted: {:.1} plain vs {:.1} pruned ({:.0}% of the scan saved)",
        admitted[0] as f64 / n,
        admitted[1] as f64 / n,
        100.0 * (1.0 - admitted[1] as f64 / admitted[0] as f64)
    );
    let _ = writeln!(
        out,
        "  mean time: plain {:.3} ms, pruned {:.3} ms\n",
        mean_ms(time[0], envs),
        mean_ms(time[1], envs)
    );
}

/// Alternatives found and search time under CSA's three reservation
/// semantics.
fn ablate_cut_policy(out: &mut String, envs: &[Environment], request: &ResourceRequest) {
    out.push_str("== CSA cut policy: what an alternative reserves ==\n");
    for (label, policy) in [
        ("reservation-span (paper)", CutPolicy::ReservationSpan),
        ("window-runtime", CutPolicy::WindowRuntime),
        ("task-length", CutPolicy::TaskLength),
    ] {
        let (mut alternatives, mut time) = (0u64, 0.0);
        for env in envs {
            let csa = Csa::new().cut_policy(policy);
            let found = timed(&mut time, || {
                csa.find_alternatives(env.platform(), env.slots(), request)
            });
            alternatives += found.len() as u64;
        }
        let _ = writeln!(
            out,
            "  {label:<26} {:6.1} alternatives, {:7.2} ms per search",
            alternatives as f64 / envs.len() as f64,
            mean_ms(time, envs)
        );
    }
    out.push('\n');
}

/// CSA carving its alternatives with repeated AMP (the paper) or repeated
/// MinCost.
fn ablate_csa_base(out: &mut String, envs: &[Environment], request: &ResourceRequest) {
    out.push_str("== generalised multi-alternative search: CSA base algorithm ==\n");
    out.push_str("  (cost of the cost-extreme alternative among the first 16 found)\n");
    for (label, min_cost_base) in [("base=AMP (paper CSA)", false), ("base=MinCost", true)] {
        let (mut cost_sum, mut time) = (0.0, 0.0);
        for env in envs {
            let csa = Csa::new()
                .cut_policy(CutPolicy::ReservationSpan)
                .max_alternatives(16);
            let alternatives = timed(&mut time, || match min_cost_base {
                true => {
                    csa.find_alternatives_with(env.platform(), env.slots(), request, &mut MinCost)
                }
                false => csa.find_alternatives(env.platform(), env.slots(), request),
            });
            if let Some(best) = best_by(&Criterion::MinTotalCost, &alternatives) {
                cost_sum += Criterion::MinTotalCost.score(best);
            }
        }
        let _ = writeln!(
            out,
            "  {label:<22} cheapest-of-16 cost {:7.1}, {:6.2} ms per search",
            cost_sum / envs.len() as f64,
            mean_ms(time, envs)
        );
    }
}

fn batch(scale: &Scale) -> Vec<Artifact> {
    let cycles = scale.batch_cycles;
    let outcomes = batch_experiment::run(&BatchExperimentConfig {
        cycles,
        ..BatchExperimentConfig::standard()
    });
    let header = cells("objective,scheduled/6,total cost,makespan,mean finish");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.objective.name().to_owned(),
                format!("{:.2}", o.scheduled.mean()),
                format!("{:.0}", o.total_cost.mean()),
                format!("{:.1}", o.makespan.mean()),
                format!("{:.1}", o.mean_finish.mean()),
            ]
        })
        .collect();
    let text = format!(
        "Batch objectives over {cycles} cycles (same environments per objective)\n\n{}",
        render_table(&header, &rows)
    );
    vec![Artifact::text("batch.txt", text)]
}

fn sensitivity(scale: &Scale) -> Vec<Artifact> {
    let cycles = scale.sensitivity_cycles;
    let results = sensitivity::sweep(
        &EnvironmentConfig::paper_default(),
        &sensitivity::default_grid(),
        cycles,
        5_150,
    );
    let header = cells("request (n x volume @ budget),algorithm,found,start,runtime,finish,cost");
    let mut rows = Vec::new();
    for point in &results {
        let label = format!(
            "{} x {} @ {:.0}",
            point.point.node_count, point.point.volume, point.point.budget
        );
        for (i, (name, acc)) in point.algorithms.iter().enumerate() {
            rows.push(vec![
                if i == 0 { label.clone() } else { String::new() },
                name.clone(),
                format!("{}/{}", acc.hits(), acc.hits() + acc.misses),
                format!("{:.1}", acc.start.mean()),
                format!("{:.1}", acc.runtime.mean()),
                format!("{:.1}", acc.finish.mean()),
                format!("{:.1}", acc.cost.mean()),
            ]);
        }
    }
    let text = format!(
        "Sensitivity of the comparison to the request shape ({cycles} cycles per point)\n\n{}\n\
         The paper's base job is the `5 x 300 @ 1500` block; the rankings per\n\
         criterion (MinX wins column X) hold at every feasible point.\n",
        render_table(&header, &rows)
    );
    vec![Artifact::text("sensitivity.txt", text)]
}
