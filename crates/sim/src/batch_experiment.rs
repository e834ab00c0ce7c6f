//! Batch-scheduling experiment — an extension study over the paper.
//!
//! The paper evaluates the alternative-search phase in isolation; this
//! module closes the loop and measures the *whole* two-phase cycle of
//! refs [6, 7]: a batch of heterogeneous jobs is scheduled on freshly
//! generated environments under each batch objective, recording scheduled
//! fraction, total spend, makespan and mean finish. It quantifies the
//! trade-off the paper's §3.3 discussion predicts: criterion-directed
//! alternative selection shifts the batch outcome toward the chosen
//! criterion at a measurable price on the others.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_batch::{BatchObjective, BatchScheduler, BatchSchedulerConfig};
use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_env::EnvironmentConfig;

use crate::metrics::RunningStats;
use crate::parallel;

/// One job template of the standard batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobTemplate {
    /// Scheduling priority (higher first).
    pub priority: u32,
    /// Parallel tasks.
    pub node_count: usize,
    /// Work volume per task.
    pub volume: u64,
    /// Job budget.
    pub budget: f64,
}

/// Configuration of the batch experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchExperimentConfig {
    /// Environment generator settings.
    pub env: EnvironmentConfig,
    /// The job mix submitted every cycle.
    pub jobs: Vec<JobTemplate>,
    /// Scheduling cycles per objective.
    pub cycles: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Cap on alternatives per job in phase 1.
    pub max_alternatives_per_job: usize,
}

impl BatchExperimentConfig {
    /// A six-job mixed batch on a 60-node environment, 200 cycles.
    #[must_use]
    pub fn standard() -> Self {
        BatchExperimentConfig {
            env: EnvironmentConfig {
                nodes: slotsel_env::NodeGenConfig::with_count(60),
                ..EnvironmentConfig::paper_default()
            },
            jobs: vec![
                JobTemplate {
                    priority: 9,
                    node_count: 5,
                    volume: 300,
                    budget: 1_500.0,
                },
                JobTemplate {
                    priority: 7,
                    node_count: 3,
                    volume: 200,
                    budget: 700.0,
                },
                JobTemplate {
                    priority: 5,
                    node_count: 4,
                    volume: 150,
                    budget: 700.0,
                },
                JobTemplate {
                    priority: 4,
                    node_count: 2,
                    volume: 250,
                    budget: 550.0,
                },
                JobTemplate {
                    priority: 2,
                    node_count: 6,
                    volume: 100,
                    budget: 800.0,
                },
                JobTemplate {
                    priority: 1,
                    node_count: 3,
                    volume: 300,
                    budget: 950.0,
                },
            ],
            cycles: 200,
            seed: 77_001,
            max_alternatives_per_job: 16,
        }
    }

    fn build_jobs(&self) -> Vec<Job> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Job::new(
                    JobId(i as u32),
                    t.priority,
                    ResourceRequest::builder()
                        .node_count(t.node_count)
                        .volume(Volume::new(t.volume))
                        .budget(Money::from_f64(t.budget))
                        .build()
                        .expect("job template must be valid"),
                )
            })
            .collect()
    }
}

impl Default for BatchExperimentConfig {
    fn default() -> Self {
        BatchExperimentConfig::standard()
    }
}

/// Accumulated outcome for one batch objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveOutcome {
    /// The objective measured.
    pub objective: BatchObjective,
    /// Jobs scheduled per cycle.
    pub scheduled: RunningStats,
    /// Total allocation cost per cycle.
    pub total_cost: RunningStats,
    /// Makespan per cycle (only cycles that scheduled something).
    pub makespan: RunningStats,
    /// Mean finish per cycle (only cycles that scheduled something).
    pub mean_finish: RunningStats,
}

/// One cycle's raw measurements, one row per objective.
type CycleRow = (f64, f64, Option<f64>, Option<f64>);

/// Runs the experiment: every objective over `config.cycles` environments,
/// the cycles fanned out over [`parallel::map`].
///
/// Cycle `i` uses the same environment, generated from `seed + i`, for
/// every objective, so outcomes are directly comparable. Cycles share no
/// state, and the per-objective statistics are folded in cycle order
/// afterwards, so the result is the same on any core count (see
/// [`crate::parallel`] for the contract).
#[must_use]
pub fn run(config: &BatchExperimentConfig) -> Vec<ObjectiveOutcome> {
    let jobs = config.build_jobs();
    let cycles: Vec<u64> = (0..config.cycles).collect();
    let per_cycle: Vec<Vec<CycleRow>> = parallel::map(&cycles, |_, &cycle| {
        let env = config
            .env
            .generate(&mut StdRng::seed_from_u64(config.seed + cycle));
        BatchObjective::ALL
            .iter()
            .map(|&objective| {
                let scheduler = BatchScheduler::new(BatchSchedulerConfig {
                    objective,
                    max_alternatives_per_job: config.max_alternatives_per_job,
                    vo_budget: None,
                    ..Default::default()
                });
                let schedule = scheduler.schedule(env.platform(), env.slots(), &jobs);
                (
                    schedule.scheduled() as f64,
                    schedule.total_cost().as_f64(),
                    schedule.makespan().map(|m| m.ticks() as f64),
                    schedule.mean_finish(),
                )
            })
            .collect()
    });

    let mut outcomes: Vec<ObjectiveOutcome> = BatchObjective::ALL
        .iter()
        .map(|&objective| ObjectiveOutcome {
            objective,
            scheduled: RunningStats::new(),
            total_cost: RunningStats::new(),
            makespan: RunningStats::new(),
            mean_finish: RunningStats::new(),
        })
        .collect();
    for rows in per_cycle {
        for (outcome, (scheduled, total_cost, makespan, mean_finish)) in
            outcomes.iter_mut().zip(rows)
        {
            outcome.scheduled.push(scheduled);
            outcome.total_cost.push(total_cost);
            if let Some(makespan) = makespan {
                outcome.makespan.push(makespan);
            }
            if let Some(finish) = mean_finish {
                outcome.mean_finish.push(finish);
            }
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BatchExperimentConfig {
        BatchExperimentConfig {
            cycles: 6,
            ..BatchExperimentConfig::standard()
        }
    }

    #[test]
    fn runs_every_objective() {
        let outcomes = run(&quick());
        assert_eq!(outcomes.len(), BatchObjective::ALL.len());
        for outcome in &outcomes {
            assert_eq!(outcome.scheduled.count(), 6);
            assert!(outcome.scheduled.mean() > 0.0, "{}", outcome.objective);
        }
    }

    #[test]
    fn cost_objective_spends_least() {
        let outcomes = run(&BatchExperimentConfig {
            cycles: 12,
            ..BatchExperimentConfig::standard()
        });
        let cost_of = |objective: BatchObjective| {
            outcomes
                .iter()
                .find(|o| o.objective == objective)
                .map(|o| o.total_cost.mean() / o.scheduled.mean().max(1e-9))
                .expect("objective present")
        };
        let min_cost = cost_of(BatchObjective::MinTotalCost);
        let min_finish = cost_of(BatchObjective::MinSumFinish);
        assert!(
            min_cost <= min_finish * 1.001,
            "cost objective per-job spend {min_cost} vs finish objective {min_finish}"
        );
    }

    #[test]
    fn finish_objective_finishes_earliest() {
        let outcomes = run(&BatchExperimentConfig {
            cycles: 12,
            ..BatchExperimentConfig::standard()
        });
        let finish_of = |objective: BatchObjective| {
            outcomes
                .iter()
                .find(|o| o.objective == objective)
                .map(|o| o.mean_finish.mean())
                .expect("objective present")
        };
        assert!(
            finish_of(BatchObjective::MinSumFinish)
                <= finish_of(BatchObjective::MinTotalCost) + 1e-9
        );
    }
}
