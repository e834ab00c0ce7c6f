//! The scaling studies: Tables 1–2 and Figures 5–6 of the paper.
//!
//! Table 1 measures each algorithm's wall-clock working time against the
//! number of CPU nodes {50, 100, 200, 300, 400}; Table 2 against the
//! scheduling interval length {600, …, 3600} (i.e. against the number of
//! available slots). Both also report the average number of alternatives
//! CSA finds, and CSA's working time per alternative. Absolute milliseconds
//! differ from the paper's 2013 Java testbed, but the complexity trends —
//! AMP near-linear, the AEP family at most quadratic in nodes, CSA's
//! near-cubic growth, and everything linear in the interval length — are
//! the reproduced claims.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_core::algorithms::{Amp, MinCost, MinFinish, MinProcTime, MinRunTime, SlotSelector};
use slotsel_core::csa::{Csa, CutPolicy};
use slotsel_core::request::ResourceRequest;
use slotsel_env::EnvironmentConfig;

use crate::config::RequestConfig;
use crate::metrics::RunningStats;

/// Algorithm order of the timing tables, matching the paper's rows.
pub const TIMED_ALGORITHMS: [&str; 6] = [
    "CSA",
    "AMP",
    "MinRunTime",
    "MinFinishTime",
    "MinProcTime",
    "MinCost",
];

/// Configuration of one scaling sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingConfig {
    /// The base job searched in every experiment.
    pub request: RequestConfig,
    /// Experiments per sweep point (paper: 1000).
    pub runs: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ScalingConfig {
    /// The paper's setup: 1000 runs per point.
    #[must_use]
    pub fn paper_default() -> Self {
        ScalingConfig {
            request: RequestConfig::paper_default(),
            runs: 1_000,
            seed: 4_2013,
        }
    }

    /// A reduced-run variant for quick regeneration and tests.
    #[must_use]
    pub fn quick(runs: u64) -> Self {
        ScalingConfig {
            runs,
            ..Self::paper_default()
        }
    }
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig::paper_default()
    }
}

/// Measurements at one sweep point (one node count or interval length).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// The varied parameter's value (node count or interval length).
    pub parameter: i64,
    /// Number of slots per generated environment.
    pub slots: RunningStats,
    /// Alternatives found by CSA per experiment.
    pub csa_alternatives: RunningStats,
    /// Wall-clock per algorithm, milliseconds, ordered like
    /// [`TIMED_ALGORITHMS`].
    pub timings_ms: Vec<(String, RunningStats)>,
    /// CSA working time divided by alternatives found, milliseconds.
    pub csa_per_alternative_ms: f64,
}

impl ScalingPoint {
    /// Mean working time of an algorithm by its table-row name.
    #[must_use]
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        self.timings_ms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.mean())
    }
}

/// One experiment's raw measurements: slots generated, CSA alternatives,
/// and the wall-clock of every timed algorithm.
struct RunMeasurement {
    slots: f64,
    alternatives: f64,
    timings_ms: [f64; TIMED_ALGORITHMS.len()],
}

fn measure_run(
    env_config: &EnvironmentConfig,
    config: &ScalingConfig,
    parameter: i64,
    run: u64,
) -> RunMeasurement {
    let request: ResourceRequest = config.request.to_request();
    let mut rng = StdRng::seed_from_u64(config.seed + run + parameter as u64 * 0x1000_0000);
    let env = env_config.generate(&mut rng);
    let (platform, slots) = (env.platform(), env.slots());
    let mut timings_ms = [0.0; TIMED_ALGORITHMS.len()];

    let t = Instant::now();
    let alternatives = Csa::new()
        .cut_policy(CutPolicy::ReservationSpan)
        .find_alternatives(platform, slots, &request);
    timings_ms[0] = t.elapsed().as_secs_f64() * 1e3;

    let mut amp = Amp;
    let mut min_runtime = MinRunTime::new();
    let mut min_finish = MinFinish::new();
    let mut min_proc = MinProcTime::with_seed(config.seed ^ run);
    let mut min_cost = MinCost;
    let timed: [(usize, &mut dyn SlotSelector); 5] = [
        (1, &mut amp),
        (2, &mut min_runtime),
        (3, &mut min_finish),
        (4, &mut min_proc),
        (5, &mut min_cost),
    ];
    for (index, algorithm) in timed {
        let t = Instant::now();
        let window = algorithm.select(platform, slots, &request);
        timings_ms[index] = t.elapsed().as_secs_f64() * 1e3;
        // Keep the optimiser from discarding the work.
        std::hint::black_box(&window);
    }

    RunMeasurement {
        slots: env.slots().len() as f64,
        alternatives: alternatives.len() as f64,
        timings_ms,
    }
}

fn measure_point(
    env_config: &EnvironmentConfig,
    config: &ScalingConfig,
    parameter: i64,
) -> ScalingPoint {
    let mut slots_stats = RunningStats::new();
    let mut alt_stats = RunningStats::new();
    let mut timings: Vec<(String, RunningStats)> = TIMED_ALGORITHMS
        .iter()
        .map(|&n| (n.to_owned(), RunningStats::new()))
        .collect();
    let mut csa_total_ms = 0.0;
    let mut csa_total_alts = 0.0;
    // The runs are timed, so they run one after another on this thread:
    // no measurement shares a core with another.
    for run in 0..config.runs {
        let m = measure_run(env_config, config, parameter, run);
        slots_stats.push(m.slots);
        alt_stats.push(m.alternatives);
        for (slot, &ms) in timings.iter_mut().zip(&m.timings_ms) {
            slot.1.push(ms);
        }
        csa_total_ms += m.timings_ms[0];
        csa_total_alts += m.alternatives;
    }

    ScalingPoint {
        parameter,
        slots: slots_stats,
        csa_alternatives: alt_stats,
        timings_ms: timings,
        csa_per_alternative_ms: if csa_total_alts > 0.0 {
            csa_total_ms / csa_total_alts
        } else {
            0.0
        },
    }
}

/// Table 1 / Figure 5: sweep over CPU-node counts at interval length 600.
#[must_use]
pub fn sweep_nodes(config: &ScalingConfig, node_counts: &[usize]) -> Vec<ScalingPoint> {
    node_counts
        .iter()
        .map(|&count| {
            let env = EnvironmentConfig::with_node_count(count);
            measure_point(&env, config, count as i64)
        })
        .collect()
}

/// Table 2 / Figure 6: sweep over interval lengths at 100 nodes.
#[must_use]
pub fn sweep_interval(config: &ScalingConfig, lengths: &[i64]) -> Vec<ScalingPoint> {
    lengths
        .iter()
        .map(|&length| {
            let env = EnvironmentConfig::with_interval_length(length);
            measure_point(&env, config, length)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_sweep_produces_all_rows() {
        let config = ScalingConfig::quick(3);
        let points = sweep_nodes(&config, &[20, 50]);
        assert_eq!(points.len(), 2);
        for point in &points {
            assert_eq!(point.timings_ms.len(), TIMED_ALGORITHMS.len());
            for (name, stats) in &point.timings_ms {
                assert_eq!(stats.count(), 3, "{name}");
                assert!(stats.mean() >= 0.0);
            }
        }
    }

    #[test]
    fn more_nodes_mean_more_alternatives() {
        let config = ScalingConfig::quick(4);
        let points = sweep_nodes(&config, &[25, 100]);
        assert!(
            points[1].csa_alternatives.mean() > points[0].csa_alternatives.mean(),
            "alternatives at 100 nodes ({}) should exceed 25 nodes ({})",
            points[1].csa_alternatives.mean(),
            points[0].csa_alternatives.mean()
        );
    }

    #[test]
    fn longer_interval_means_more_slots() {
        let config = ScalingConfig::quick(4);
        let points = sweep_interval(&config, &[600, 1800]);
        assert!(points[1].slots.mean() > 2.0 * points[0].slots.mean());
        assert_eq!(points[0].parameter, 600);
        assert_eq!(points[1].parameter, 1800);
    }

    #[test]
    fn per_alternative_time_is_consistent() {
        let config = ScalingConfig::quick(3);
        let points = sweep_nodes(&config, &[50]);
        let point = &points[0];
        let approx = point.mean_ms("CSA").unwrap() / point.csa_alternatives.mean();
        assert!(
            (point.csa_per_alternative_ms - approx).abs() / approx.max(1e-9) < 0.5,
            "per-alt {} vs ratio of means {}",
            point.csa_per_alternative_ms,
            approx
        );
    }

    #[test]
    fn mean_ms_lookup() {
        let config = ScalingConfig::quick(2);
        let points = sweep_nodes(&config, &[30]);
        assert!(points[0].mean_ms("AMP").is_some());
        assert!(points[0].mean_ms("Nope").is_none());
    }
}
