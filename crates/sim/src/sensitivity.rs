//! Sensitivity study — how the algorithm comparison shifts with the
//! request's shape.
//!
//! The paper evaluates one base job (5 × 300 work, budget 1500). This
//! extension sweeps the request dimensions — parallelism `n`, task volume,
//! and budget — and records each algorithm's mean criterion values, showing
//! where the paper's conclusions hold and where they bend (e.g. a tight
//! budget collapses every algorithm onto the cheap slow nodes; high
//! parallelism makes windows scarce and the start times drift).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_core::algorithms::{Amp, MinCost, MinFinish, MinProcTime, MinRunTime, SlotSelector};
use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::ResourceRequest;
use slotsel_env::EnvironmentConfig;

use crate::metrics::{MetricsAccumulator, WindowMetrics};
use crate::parallel;
use crate::quality::SINGLE_ALGORITHMS;

/// One point of the sweep: a request shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestPoint {
    /// Parallel tasks.
    pub node_count: usize,
    /// Work volume per task.
    pub volume: u64,
    /// Budget.
    pub budget: f64,
}

impl RequestPoint {
    /// The paper's base job.
    #[must_use]
    pub fn paper() -> Self {
        RequestPoint {
            node_count: 5,
            volume: 300,
            budget: 1500.0,
        }
    }

    fn to_request(self) -> Option<ResourceRequest> {
        ResourceRequest::builder()
            .node_count(self.node_count)
            .volume(Volume::new(self.volume))
            .budget(Money::from_f64(self.budget))
            .build()
            .ok()
    }
}

/// Results at one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// The request shape measured.
    pub point: RequestPoint,
    /// Per-algorithm accumulated metrics, named like
    /// [`SINGLE_ALGORITHMS`].
    pub algorithms: Vec<(String, MetricsAccumulator)>,
}

impl SensitivityPoint {
    /// Accumulator of one algorithm by name.
    #[must_use]
    pub fn algorithm(&self, name: &str) -> Option<&MetricsAccumulator> {
        self.algorithms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| a)
    }
}

/// Sweeps the given request points, `cycles` environments per point, the
/// (point, cycle) cells fanned out over [`parallel::map`].
///
/// The same environment seeds are reused across points so differences are
/// attributable to the request shape alone. Every cell derives its
/// environment from `seed + cycle` and its MinProcTime generator from
/// `seed ^ cycle`, independent of every other cell; the per-point
/// accumulators are folded in cycle order afterwards, so the result is the
/// same on any core count (see [`crate::parallel`]).
#[must_use]
pub fn sweep(
    env: &EnvironmentConfig,
    points: &[RequestPoint],
    cycles: u64,
    seed: u64,
) -> Vec<SensitivityPoint> {
    let cells: Vec<(usize, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(i, point)| {
            // Infeasible request shapes contribute no cells.
            let feasible = point.to_request().is_some();
            (0..if feasible { cycles } else { 0 }).map(move |cycle| (i, cycle))
        })
        .collect();

    let measured: Vec<[Option<WindowMetrics>; SINGLE_ALGORITHMS.len()]> =
        parallel::map(&cells, |_, &(point_index, cycle)| {
            let request = points[point_index]
                .to_request()
                .expect("only feasible points produce cells");
            let environment = env.generate(&mut StdRng::seed_from_u64(seed + cycle));
            let (platform, slots) = (environment.platform(), environment.slots());
            [
                Amp.select(platform, slots, &request),
                MinFinish::new().select(platform, slots, &request),
                MinCost.select(platform, slots, &request),
                MinRunTime::new().select(platform, slots, &request),
                MinProcTime::with_seed(seed ^ cycle).select(platform, slots, &request),
            ]
            .map(|window| window.as_ref().map(WindowMetrics::of))
        });

    let mut results: Vec<SensitivityPoint> = points
        .iter()
        .map(|&point| SensitivityPoint {
            point,
            algorithms: SINGLE_ALGORITHMS
                .iter()
                .map(|&n| (n.to_owned(), MetricsAccumulator::new()))
                .collect(),
        })
        .collect();
    for (&(point_index, _), row) in cells.iter().zip(measured) {
        for ((_, acc), metrics) in results[point_index].algorithms.iter_mut().zip(row) {
            acc.record(metrics);
        }
    }
    results
}

/// The default sweep grid: parallelism, volume and budget each varied
/// around the paper's base job. The budget scales with `n · volume` on the
/// parallelism and volume sweeps (the paper's own `S = F · t · n` does the
/// same), so those points stay feasible and the comparison stays visible;
/// the budget sweep then varies the budget alone.
#[must_use]
pub fn default_grid() -> Vec<RequestPoint> {
    let base = RequestPoint::paper();
    let scaled = |node_count: usize, volume: u64| RequestPoint {
        node_count,
        volume,
        budget: node_count as f64 * volume as f64,
    };
    vec![
        // Parallelism sweep (budget = n * volume, i.e. F = 2, t = volume/2).
        scaled(2, 300),
        base,
        scaled(10, 300),
        scaled(20, 300),
        // Volume sweep.
        scaled(5, 100),
        scaled(5, 600),
        // Budget sweep around the base job.
        RequestPoint {
            budget: 1_100.0,
            ..base
        },
        RequestPoint {
            budget: 3_000.0,
            ..base
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep(points: &[RequestPoint]) -> Vec<SensitivityPoint> {
        sweep(&EnvironmentConfig::paper_default(), points, 6, 99)
    }

    #[test]
    fn sweep_covers_all_points_and_algorithms() {
        let results = quick_sweep(&default_grid());
        assert_eq!(results.len(), default_grid().len());
        for result in &results {
            assert_eq!(result.algorithms.len(), SINGLE_ALGORITHMS.len());
            for (name, acc) in &result.algorithms {
                assert_eq!(acc.hits() + acc.misses, 6, "{name} at {:?}", result.point);
            }
        }
    }

    #[test]
    fn higher_parallelism_never_lowers_miss_rate() {
        let points = [
            RequestPoint {
                node_count: 5,
                ..RequestPoint::paper()
            },
            RequestPoint {
                node_count: 60,
                ..RequestPoint::paper()
            },
        ];
        let results = quick_sweep(&points);
        let misses = |r: &SensitivityPoint| r.algorithm("AMP").unwrap().misses;
        assert!(misses(&results[1]) >= misses(&results[0]));
    }

    #[test]
    fn bigger_budget_never_raises_min_cost() {
        let points = [
            RequestPoint {
                budget: 900.0,
                ..RequestPoint::paper()
            },
            RequestPoint {
                budget: 3000.0,
                ..RequestPoint::paper()
            },
        ];
        let results = quick_sweep(&points);
        let cost = |r: &SensitivityPoint| r.algorithm("MinCost").unwrap().cost.mean();
        // Comparable only if both budgets were feasible every cycle.
        if results
            .iter()
            .all(|r| r.algorithm("MinCost").unwrap().misses == 0)
        {
            assert!(cost(&results[1]) <= cost(&results[0]) + 1e-9);
        }
    }

    #[test]
    fn infeasible_point_reports_all_misses() {
        let points = [RequestPoint {
            node_count: 0,
            ..RequestPoint::paper()
        }];
        let results = quick_sweep(&points);
        for (_, acc) in &results[0].algorithms {
            assert_eq!(acc.hits(), 0);
        }
    }
}
