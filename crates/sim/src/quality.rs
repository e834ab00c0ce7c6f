//! The quality experiment: Figures 2–4 of the paper.
//!
//! For every simulated scheduling cycle a fresh environment is generated and
//! all algorithms search for the same predefined base job. The averages of
//! the found windows' start, runtime, finish, processor time and cost over
//! all cycles are exactly the bars of Figures 2(a)–4; the CSA column per
//! figure is the alternative extreme by that figure's criterion among the
//! set CSA allocated in the cycle.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_baselines::{Alp, Backfill, FirstFit};
use slotsel_core::algorithms::{Amp, MinCost, MinFinish, MinProcTime, MinRunTime, SlotSelector};
use slotsel_core::criteria::{best_by, Criterion, WindowCriterion};
use slotsel_core::csa::{Csa, CutPolicy};
use slotsel_core::request::ResourceRequest;

use crate::config::QualityConfig;
use crate::metrics::{MetricsAccumulator, RunningStats, WindowMetrics};
use crate::parallel;

/// Names of the five single-window algorithms, in the paper's order.
pub const SINGLE_ALGORITHMS: [&str; 5] =
    ["AMP", "MinFinish", "MinCost", "MinRunTime", "MinProcTime"];

/// Names of the optional baseline algorithms (extension columns).
pub const BASELINE_ALGORITHMS: [&str; 3] = ["FirstFit", "ALP", "Backfill"];

/// Accumulated results of a quality experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QualityResults {
    /// Per-algorithm accumulated window metrics, keyed like
    /// [`SINGLE_ALGORITHMS`].
    pub algorithms: Vec<(String, MetricsAccumulator)>,
    /// Number of alternatives CSA finds per cycle.
    pub csa_alternatives: RunningStats,
    /// CSA's criterion-extreme alternative metrics, one accumulator per
    /// [`Criterion`] in [`Criterion::ALL`] order.
    pub csa_by_criterion: Vec<(String, MetricsAccumulator)>,
    /// Cycles simulated.
    pub cycles: u64,
}

impl QualityResults {
    fn empty(include_baselines: bool) -> Self {
        let names = SINGLE_ALGORITHMS.iter().chain(
            include_baselines
                .then_some(BASELINE_ALGORITHMS.iter())
                .into_iter()
                .flatten(),
        );
        QualityResults {
            algorithms: names
                .map(|&n| (n.to_owned(), MetricsAccumulator::new()))
                .collect(),
            csa_alternatives: RunningStats::new(),
            csa_by_criterion: Criterion::ALL
                .iter()
                .map(|c| (c.name().to_owned(), MetricsAccumulator::new()))
                .collect(),
            cycles: 0,
        }
    }

    /// The accumulator of a single-window algorithm by name.
    #[must_use]
    pub fn algorithm(&self, name: &str) -> Option<&MetricsAccumulator> {
        self.algorithms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| a)
    }

    /// CSA's accumulator for the alternative extreme by `criterion`.
    #[must_use]
    pub fn csa(&self, criterion: Criterion) -> Option<&MetricsAccumulator> {
        self.csa_by_criterion
            .iter()
            .find(|(n, _)| n == criterion.name())
            .map(|(_, a)| a)
    }
}

/// One cycle's found windows: the single-window algorithms' (ordered
/// like [`QualityResults::algorithms`]), CSA's alternative count, and
/// CSA's extreme by each [`Criterion`] in [`Criterion::ALL`] order.
struct CycleRecord {
    windows: Vec<Option<WindowMetrics>>,
    alternatives: usize,
    csa_extremes: Vec<Option<WindowMetrics>>,
}

/// Runs one scheduling cycle against a fresh environment seeded with
/// `seed` and returns every algorithm's result.
fn run_cycle(config: &QualityConfig, request: &ResourceRequest, seed: u64) -> CycleRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let env = config.env.generate(&mut rng);
    let (platform, slots) = (env.platform(), env.slots());

    let mut windows = vec![
        Amp.select(platform, slots, request),
        MinFinish::new().select(platform, slots, request),
        MinCost.select(platform, slots, request),
        MinRunTime::new().select(platform, slots, request),
        MinProcTime::with_seed(seed ^ 0xA5A5_A5A5).select(platform, slots, request),
    ];
    if config.include_baselines {
        windows.push(FirstFit.select(platform, slots, request));
        windows.push(Alp.select(platform, slots, request));
        windows.push(Backfill.select(platform, slots, request));
    }

    let alternatives = Csa::new()
        .cut_policy(CutPolicy::ReservationSpan)
        .find_alternatives(platform, slots, request);
    CycleRecord {
        windows: windows
            .iter()
            .map(|w| w.as_ref().map(WindowMetrics::of))
            .collect(),
        alternatives: alternatives.len(),
        csa_extremes: Criterion::ALL
            .iter()
            .map(|criterion| best_by(criterion, &alternatives).map(WindowMetrics::of))
            .collect(),
    }
}

/// Runs the full quality experiment, its cycles fanned out over
/// [`parallel::map`].
///
/// Cycle `i` runs with seed `config.seed + i`, and the cycles' records are
/// folded in cycle order, so the results are the same on any core count.
#[must_use]
pub fn run(config: &QualityConfig) -> QualityResults {
    let request = config.request.to_request();
    let cycles: Vec<u64> = (0..config.cycles).collect();
    let records = parallel::map(&cycles, |_, &cycle| {
        run_cycle(config, &request, config.seed + cycle)
    });

    let mut total = QualityResults::empty(config.include_baselines);
    for record in records {
        for ((_, acc), metrics) in total.algorithms.iter_mut().zip(record.windows) {
            acc.record(metrics);
        }
        total.csa_alternatives.push(record.alternatives as f64);
        for ((_, acc), metrics) in total.csa_by_criterion.iter_mut().zip(record.csa_extremes) {
            acc.record(metrics);
        }
        total.cycles += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(cycles: u64) -> QualityConfig {
        QualityConfig::quick(cycles)
    }

    #[test]
    fn runs_all_algorithms_every_cycle() {
        let results = run(&quick_config(8));
        assert_eq!(results.cycles, 8);
        for (name, acc) in &results.algorithms {
            assert_eq!(acc.hits() + acc.misses, 8, "{name}");
        }
        assert_eq!(results.csa_alternatives.count(), 8);
    }

    #[test]
    fn hundred_idle_ish_nodes_always_host_the_base_job() {
        let results = run(&quick_config(12));
        for (name, acc) in &results.algorithms {
            assert_eq!(acc.misses, 0, "{name} missed on a 100-node environment");
        }
    }

    #[test]
    fn csa_extremes_dominate_per_criterion() {
        // The CSA start-extreme must start no later than the CSA
        // cost-extreme on average, and symmetrically for cost.
        let results = run(&quick_config(10));
        let by_start = results.csa(Criterion::EarliestStart).unwrap();
        let by_cost = results.csa(Criterion::MinTotalCost).unwrap();
        assert!(by_start.start.mean() <= by_cost.start.mean() + 1e-9);
        assert!(by_cost.cost.mean() <= by_start.cost.mean() + 1e-9);
    }

    #[test]
    fn baselines_included_on_request() {
        let mut config = quick_config(5);
        config.include_baselines = true;
        let results = run(&config);
        assert_eq!(results.algorithms.len(), 8);
        let ff = results.algorithm("FirstFit").expect("baseline present");
        assert_eq!(ff.hits() + ff.misses, 5);
        let bf = results.algorithm("Backfill").expect("baseline present");
        assert_eq!(
            bf.misses, 0,
            "backfilling ignores the budget, always finds a window"
        );
        // Plain config omits them.
        let plain = run(&quick_config(2));
        assert!(plain.algorithm("FirstFit").is_none());
    }

    #[test]
    fn lookup_by_name() {
        let results = run(&quick_config(2));
        assert!(results.algorithm("AMP").is_some());
        assert!(results.algorithm("NoSuch").is_none());
        assert!(results.csa(Criterion::MinRuntime).is_some());
    }
}
