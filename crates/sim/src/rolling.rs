//! Rolling-horizon batch simulation.
//!
//! The VO metascheduler runs cycle after cycle: each cycle sees a fresh
//! scheduling interval (local load changes, new slots appear), schedules
//! the pending batch with the two-phase scheme, and carries deferred jobs
//! into the next cycle — with optional priority aging so nothing starves.
//! The paper evaluates a single cycle in isolation; this module simulates
//! the loop its scheme is designed to live in.
//!
//! With a [`DisruptionConfig`] attached, every cycle additionally injects
//! faults *after* the scheduler commits its windows (see
//! [`crate::disruption`]), detects the victims by replaying the commit
//! through the [`crate::execution`] audit, and applies the configured
//! [`RecoveryPolicy`] ([`crate::recovery`]). Without one, the simulation
//! is bit-identical to the disruption-free implementation — no extra RNG
//! is drawn and no schedule is altered.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_obs::journal::{Journal, NoopJournal};
use slotsel_obs::{Obs, TraceEvent};

use slotsel_batch::{BatchScheduler, BatchSchedulerConfig};
use slotsel_core::money::Money;
use slotsel_core::request::{Job, JobId};
use slotsel_core::window::Window;
use slotsel_env::EnvironmentConfig;

use crate::disruption::{DisruptionConfig, DisruptionEvent, DisruptionModel};
use crate::journal::{JournalRecord, ParkedEntry, RecoveredRun, RollingState};
use crate::metrics::SurvivalMetrics;
use crate::recovery::{self, RecoveryPolicy};

/// Configuration of a rolling-horizon simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingConfig {
    /// Environment generator for each cycle's horizon.
    pub env: EnvironmentConfig,
    /// The per-cycle scheduler settings.
    pub scheduler: BatchSchedulerConfig,
    /// Maximum number of cycles to simulate.
    pub max_cycles: u32,
    /// Priority increase applied to every deferred job per cycle (aging).
    pub aging: u32,
    /// Base RNG seed; cycle `i` generates its environment from `seed + i`.
    pub seed: u64,
    /// Fault injection between commit and execution; `None` (the default)
    /// reproduces the disruption-free simulation exactly.
    #[serde(default)]
    pub disruption: Option<DisruptionConfig>,
    /// What to do with jobs whose committed windows a disruption destroys.
    /// Ignored without a disruption model.
    #[serde(default)]
    pub recovery: RecoveryPolicy,
}

impl Default for RollingConfig {
    fn default() -> Self {
        RollingConfig {
            env: EnvironmentConfig::paper_default(),
            scheduler: BatchSchedulerConfig::default(),
            max_cycles: 20,
            aging: 1,
            seed: 31_337,
            disruption: None,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Per-cycle record of a rolling simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Cycle index, starting at 0.
    pub cycle: u32,
    /// Jobs pending at the start of the cycle.
    pub pending: usize,
    /// Jobs scheduled in this cycle.
    pub scheduled: usize,
    /// Money spent in this cycle.
    pub spent: f64,
}

/// Outcome of a rolling simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingOutcome {
    /// `(job, cycle scheduled in)` for every completed job.
    pub completions: Vec<(JobId, u32)>,
    /// Jobs still pending when the simulation stopped.
    pub starved: Vec<JobId>,
    /// Per-cycle records.
    pub cycles: Vec<CycleRecord>,
}

impl RollingOutcome {
    /// Number of cycles a job waited before being scheduled, if it was.
    #[must_use]
    pub fn wait_of(&self, job: JobId) -> Option<u32> {
        self.completions
            .iter()
            .find(|(id, _)| *id == job)
            .map(|&(_, c)| c)
    }

    /// Total money spent over all cycles.
    #[must_use]
    pub fn total_spent(&self) -> f64 {
        self.cycles.iter().map(|c| c.spent).sum()
    }
}

/// Outcome of a fault-injected rolling simulation: the schedule history
/// plus the survival bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingReport {
    /// The schedule history (completions, starvations, per-cycle records).
    pub outcome: RollingOutcome,
    /// What was injected and how recovery fared. All-zero without a
    /// disruption model.
    pub survival: SurvivalMetrics,
}

/// Runs the rolling simulation until the batch drains or `max_cycles` pass.
///
/// Jobs keep their identity across cycles; deferred jobs gain
/// `config.aging` priority per cycle waited, so long-waiting jobs
/// eventually outrank fresh high-priority work. Equivalent to
/// [`simulate_with_recovery`] with the survival report dropped.
#[must_use]
pub fn simulate(config: &RollingConfig, jobs: Vec<Job>) -> RollingOutcome {
    simulate_with_recovery(config, jobs).outcome
}

/// Runs the rolling simulation with fault injection and recovery, when
/// `config.disruption` is set.
///
/// Each cycle: commit the batch, inject disruptions into the committed-on
/// environment, replay every committed window through the execution audit
/// to find the victims, then apply `config.recovery` — abandon the victim
/// jobs, park them for a later cycle (priority-aged re-admission), or
/// migrate them onto the surviving slots right away. Survivors and
/// successful migrations complete in the cycle; everything that completes
/// has passed the replay audit against the *perturbed* environment.
///
/// Equivalent to [`simulate_with_recovery_observed`] with [`Obs::dark`]
/// and a [`NoopJournal`].
#[must_use]
pub fn simulate_with_recovery(config: &RollingConfig, jobs: Vec<Job>) -> RollingReport {
    simulate_with_recovery_observed(config, jobs, &mut Obs::dark(), &mut NoopJournal)
}

/// Runs the fault-injected rolling simulation, reporting to `obs` and
/// journaling to `journal`.
///
/// Every job-level decision of a cycle — re-admission, commit, deferral,
/// injected disruption, rescue, parking, loss — is one [`JournalRecord`]:
/// the **journal** appends it, the **recorder** receives the
/// [`TraceEvent`] derived from it (`docs/OBSERVABILITY.md` lists which
/// record each event comes from), and the **metrics** sink counts each
/// disruption in `slotsel_disruption_events_total{kind}`. Around them the
/// recorder gets [`TraceEvent::CycleStarted`] / [`TraceEvent::CycleFinished`],
/// a `"rolling.cycle"` timing and the batch scheduler's events; the
/// metrics sink gets the per-cycle `slotsel_rolling_*` series and, at run
/// end, the survival tallies; the **span** sink gets one
/// `"rolling.cycle"` root per executed cycle. With a deterministic
/// recorder ([`slotsel_obs::TraceRecorder::deterministic`]) the trace is a
/// pure function of `(config, jobs)`.
///
/// The journal stream (see `docs/DURABILITY.md`) opens with
/// [`JournalRecord::RunStarted`], ends each cycle with a
/// [`JournalRecord::CycleCommitted`] barrier carrying the loop's
/// [`RollingState`] and a [`Journal::commit`], and closes with
/// [`JournalRecord::RunFinished`]. A run killed at *any* point recovers
/// through [`crate::journal::recover`] + [`resume_with_recovery_observed`]
/// to the bit-identical report of the uninterrupted run.
///
/// No sink changes the report: a dark context and a [`NoopJournal`] give
/// the same report as any lit ones.
#[must_use]
pub fn simulate_with_recovery_observed<J: Journal>(
    config: &RollingConfig,
    jobs: Vec<Job>,
    obs: &mut Obs<'_>,
    journal: &mut J,
) -> RollingReport {
    if journal.enabled() {
        journal.append(
            &JournalRecord::RunStarted {
                config: config.clone(),
                jobs: jobs.clone(),
            }
            .encode(),
        );
        journal.commit();
    }
    let report = run(config, RollingState::initial(jobs), obs, journal);
    finish(report, journal)
}

/// Resumes a recovered journaled run from its last intact barrier and
/// drives it to completion, continuing the same record stream.
///
/// When the journal already ends in [`JournalRecord::RunFinished`], the
/// recovered report is returned directly — nothing re-executes and
/// nothing is appended. Otherwise the loop re-enters at the recovered
/// [`RollingState::next_cycle`] with the disruption model restored from
/// its checkpoint, which reproduces the uninterrupted run bit for bit
/// (the crash-at-any-event property tests pin this).
#[must_use]
pub fn resume_with_recovery_observed<J: Journal>(
    recovered: RecoveredRun,
    obs: &mut Obs<'_>,
    journal: &mut J,
) -> RollingReport {
    if let Some(report) = recovered.finished {
        return report;
    }
    let report = run(&recovered.config, recovered.state, obs, journal);
    finish(report, journal)
}

/// Appends and commits the [`JournalRecord::RunFinished`] record.
fn finish<J: Journal>(report: RollingReport, journal: &mut J) -> RollingReport {
    if journal.enabled() {
        journal.append(
            &JournalRecord::RunFinished {
                report: report.clone(),
            }
            .encode(),
        );
        journal.commit();
    }
    report
}

/// The one recording path of a job-level decision: builds the record only
/// when a sink is lit, appends it to a lit journal, emits the trace event
/// derived from it to a lit recorder and counts a disruption in lit
/// metrics. With every sink dark nothing is built.
fn record<J: Journal>(obs: &mut Obs<'_>, journal: &mut J, make: impl FnOnce() -> JournalRecord) {
    let (tracing, metered) = (obs.recorder.enabled(), obs.metrics.enabled());
    if !(tracing || metered || journal.enabled()) {
        return;
    }
    let record = make();
    if let (true, JournalRecord::Disrupted { event, .. }) = (metered, &record) {
        obs.metrics.counter_add(
            "slotsel_disruption_events_total",
            &[("kind", disruption_kind(event))],
            1,
        );
    }
    if journal.enabled() {
        journal.append(&record.encode());
    }
    if tracing {
        if let Some(event) = record.into_trace_event() {
            obs.recorder.emit(event);
        }
    }
}

/// Loses a disruption victim for good: abandoned, out of retries, or with
/// no window to migrate to.
fn lose<J: Journal>(
    state: &mut RollingState,
    obs: &mut Obs<'_>,
    journal: &mut J,
    cycle: u32,
    job: JobId,
) {
    state.survival.jobs_lost += 1;
    state.victim_since.retain(|(id, _)| *id != job);
    record(obs, journal, || JournalRecord::Lost { cycle, job: job.0 });
}

/// Counts a disruption victim completing in `cycle`, `cycle - since`
/// cycles after its first hit, rescued `via` `"retry"` or `"migrate"`,
/// and records it.
fn rescue<J: Journal>(
    state: &mut RollingState,
    obs: &mut Obs<'_>,
    journal: &mut J,
    cycle: u32,
    job: JobId,
    via: &'static str,
    since: u32,
) {
    let survival = &mut state.survival;
    match via {
        "retry" => survival.rescued_by_retry += 1,
        _ => survival.rescued_by_migration += 1,
    }
    survival
        .recovery_latency_cycles
        .push(f64::from(cycle - since));
    record(obs, journal, || JournalRecord::Rescued {
        cycle,
        job: job.0,
        via: via.to_owned(),
    });
}

/// `job` with its priority raised by `aging`.
fn aged(job: &Job, aging: u32) -> Job {
    Job::new(job.id(), job.priority() + aging, job.request().clone())
}

/// The rolling loop proper, from cycle `state.next_cycle` up to
/// `config.max_cycles`. The loop keeps its cross-cycle state in `state`
/// and clones it for each barrier; every decision goes through
/// [`record`], so with dark sinks and [`NoopJournal`] nothing is recorded.
#[allow(clippy::too_many_lines)]
fn run<J: Journal>(
    config: &RollingConfig,
    mut state: RollingState,
    obs: &mut Obs<'_>,
    journal: &mut J,
) -> RollingReport {
    let metered = obs.metrics.enabled();
    let scheduler = BatchScheduler::new(config.scheduler.clone());
    // A mid-run state restores the model at its checkpointed RNG
    // position; a fresh run starts it from the configured seed. The
    // state's own `model` stays empty until a barrier checkpoints it.
    let checkpoint = state.model.take();
    let mut model = config
        .disruption
        .clone()
        .map(|disruption| match checkpoint {
            Some(checkpoint) => DisruptionModel::restore(disruption, &checkpoint),
            None => DisruptionModel::new(disruption),
        });

    for cycle in state.next_cycle..config.max_cycles {
        // Re-admit parked victims whose backoff elapsed (stable order).
        for parked in state.parked.extract_if(.., |p| p.eligible_at <= cycle) {
            let job = parked.job.id().0;
            record(obs, journal, || JournalRecord::Readmitted { cycle, job });
            scheduler.readmit(&mut state.pending, [parked.job], 0);
        }
        if state.pending.is_empty() && state.parked.is_empty() {
            break;
        }
        let cycle_phase = obs.timed_phase("rolling.cycle");
        obs.spans.attr_u64("cycle", u64::from(cycle));
        obs.spans.attr_u64("pending", state.pending.len() as u64);
        if obs.recorder.enabled() {
            obs.recorder.emit(TraceEvent::CycleStarted {
                cycle: u64::from(cycle),
                pending: state.pending.len() as u64,
            });
        }
        let mut env = config
            .env
            .generate(&mut StdRng::seed_from_u64(config.seed + u64::from(cycle)));
        let schedule =
            scheduler.schedule_observed(env.platform(), env.slots(), &state.pending, obs);

        let mut committed: Vec<(Job, Window)> = Vec::new();
        let mut still_pending = Vec::new();
        for assignment in schedule.assignments {
            let job = assignment.job;
            if let Some(window) = assignment.window {
                record(obs, journal, || JournalRecord::Committed {
                    cycle,
                    job: job.id().0,
                    window: window.clone(),
                });
                committed.push((job, window));
            } else {
                // Age the deferred job so it cannot starve.
                let job = aged(&job, config.aging);
                record(obs, journal, || JournalRecord::Deferred {
                    cycle,
                    job: job.id().0,
                    priority: job.priority(),
                });
                still_pending.push(job);
            }
        }

        let completed_before = state.completions.len();
        let mut spent = Money::ZERO;
        match &mut model {
            None => {
                // Disruption-free: every committed window executes.
                for (job, window) in &committed {
                    spent += window.total_cost();
                    state.completions.push((job.id(), cycle));
                }
            }
            Some(model) => {
                let disruption = obs.phase("rolling.disruption");
                let window_refs: Vec<&Window> = committed.iter().map(|(_, w)| w).collect();
                let events = model.inject(&mut env, cycle, &window_refs);
                obs.spans.attr_u64("events", events.len() as u64);
                disruption.end(obs, None);
                for event in events {
                    state.survival.record_event(&event);
                    record(obs, journal, || JournalRecord::Disrupted { cycle, event });
                }

                let pairs: Vec<(&Job, &Window)> = committed.iter().map(|(j, w)| (j, w)).collect();
                let mut detection = recovery::detect_victims_observed(&env, &pairs, obs);
                state.survival.windows_disrupted += detection.victim_indices.len() as u64;
                let recovery = obs.phase("rolling.recovery");

                // Survivors execute; a survivor that was some earlier
                // cycle's victim is a retry rescue completing now.
                for &index in &detection.survivor_indices {
                    let (job, window) = &committed[index];
                    let id = job.id();
                    spent += window.total_cost();
                    state.completions.push((id, cycle));
                    if let Some(pos) = state.victim_since.iter().position(|(v, _)| *v == id) {
                        let (_, since) = state.victim_since.swap_remove(pos);
                        rescue(&mut state, obs, journal, cycle, id, "retry", since);
                    }
                }

                // Victims go through the recovery policy.
                for &index in &detection.victim_indices {
                    let (job, window) = &committed[index];
                    let id = job.id();
                    match config.recovery {
                        RecoveryPolicy::Abandon => lose(&mut state, obs, journal, cycle, id),
                        RecoveryPolicy::RetryNextCycle {
                            backoff,
                            max_attempts,
                        } => {
                            if !state.victim_since.iter().any(|(v, _)| *v == id) {
                                state.victim_since.push((id, cycle));
                            }
                            let attempts =
                                match state.attempts_of.iter_mut().find(|(a, _)| *a == id) {
                                    Some((_, n)) => {
                                        *n += 1;
                                        *n
                                    }
                                    None => {
                                        state.attempts_of.push((id, 1));
                                        1
                                    }
                                };
                            if attempts > max_attempts {
                                lose(&mut state, obs, journal, cycle, id);
                            } else {
                                let eligible_at = cycle + 1 + backoff;
                                record(obs, journal, || JournalRecord::Parked {
                                    cycle,
                                    job: id.0,
                                    eligible_at,
                                });
                                state.parked.push(ParkedEntry {
                                    job: aged(job, config.aging),
                                    eligible_at,
                                });
                            }
                        }
                        RecoveryPolicy::Migrate => {
                            let remaining = config
                                .scheduler
                                .vo_budget
                                .map(|budget| Money::from_f64(budget) - spent);
                            let survivors = &detection.survivor_windows;
                            match recovery::migrate_window(&env, survivors, job, remaining) {
                                Some(migrated) => {
                                    state.survival.migration_overrun.push(
                                        migrated.total_cost().as_f64()
                                            - window.total_cost().as_f64(),
                                    );
                                    spent += migrated.total_cost();
                                    state.completions.push((id, cycle));
                                    detection.survivor_windows.push(migrated);
                                    rescue(&mut state, obs, journal, cycle, id, "migrate", cycle);
                                }
                                None => lose(&mut state, obs, journal, cycle, id),
                            }
                        }
                    }
                }

                obs.spans
                    .attr_u64("victims", detection.victim_indices.len() as u64);
                recovery.end(obs, None);

                // The repaired schedule (survivors + migrations) must
                // replay cleanly against the perturbed environment; the
                // recovery paths maintain this, the audit enforces it.
                let audit = obs.phase("rolling.audit");
                let repaired: Vec<&Window> = detection.survivor_windows.iter().collect();
                if crate::execution::verify(&env, &repaired).is_err() {
                    state.survival.audit_failures += 1;
                }
                obs.spans.attr_u64("windows", repaired.len() as u64);
                audit.end(obs, None);
            }
        }
        let completed_now = state.completions.len() - completed_before;

        if obs.recorder.enabled() {
            obs.recorder.emit(TraceEvent::CycleFinished {
                cycle: u64::from(cycle),
                scheduled: completed_now as u64,
                spent: spent.as_f64(),
            });
        }
        state.cycles.push(CycleRecord {
            cycle,
            pending: state.pending.len(),
            scheduled: completed_now,
            spent: spent.as_f64(),
        });
        state.pending = still_pending;
        state.next_cycle = cycle + 1;
        if metered {
            obs.metrics
                .counter_add("slotsel_rolling_cycles_total", &[], 1);
            obs.metrics.counter_add(
                "slotsel_rolling_jobs_completed_total",
                &[],
                completed_now as u64,
            );
            obs.metrics.gauge_set(
                "slotsel_rolling_pending_jobs",
                &[],
                state.pending.len() as f64,
            );
            obs.metrics.gauge_set(
                "slotsel_rolling_parked_jobs",
                &[],
                state.parked.len() as f64,
            );
            obs.metrics
                .gauge_set("slotsel_rolling_cycle_spent_credits", &[], spent.as_f64());
        }
        if journal.enabled() {
            // The cycle barrier: the loop's state, made durable by the
            // commit. Everything before it this cycle is audit trail;
            // recovery replays only the barrier.
            let barrier = RollingState {
                model: model.as_ref().map(DisruptionModel::checkpoint),
                ..state.clone()
            };
            let payload = JournalRecord::CycleCommitted { state: barrier }.encode();
            journal.append(&payload);
            journal.commit();
            journal.checkpoint(&|| payload.clone());
        }
        obs.spans.attr_u64("scheduled", completed_now as u64);
        cycle_phase.end(obs, Some(("slotsel_rolling_cycle_seconds", &[])));
    }

    // Victims still waiting (parked or re-pending) when the run ended
    // never recovered: each is lost in the last cycle, after its barrier
    // and before `RunFinished`.
    let last_cycle = state.cycles.last().map_or(0, |c| c.cycle);
    for (job, _) in std::mem::take(&mut state.victim_since) {
        lose(&mut state, obs, journal, last_cycle, job);
    }

    let report = RollingReport {
        outcome: RollingOutcome {
            starved: state
                .pending
                .iter()
                .map(Job::id)
                .chain(state.parked.iter().map(|p| p.job.id()))
                .collect(),
            completions: state.completions,
            cycles: state.cycles,
        },
        survival: state.survival,
    };
    if metered {
        let survival = &report.survival;
        obs.metrics.counter_add(
            "slotsel_windows_disrupted_total",
            &[],
            survival.windows_disrupted,
        );
        obs.metrics
            .counter_add("slotsel_jobs_lost_total", &[], survival.jobs_lost);
        obs.metrics.counter_add(
            "slotsel_jobs_rescued_total",
            &[("via", "retry")],
            survival.rescued_by_retry,
        );
        obs.metrics.counter_add(
            "slotsel_jobs_rescued_total",
            &[("via", "migrate")],
            survival.rescued_by_migration,
        );
        obs.metrics
            .counter_add("slotsel_audit_failures_total", &[], survival.audit_failures);
        obs.metrics
            .gauge_set("slotsel_survival_rate", &[], survival.survival_rate());
        obs.metrics.gauge_set(
            "slotsel_rolling_starved_jobs",
            &[],
            report.outcome.starved.len() as f64,
        );
    }
    report
}

/// The `kind` label of a [`DisruptionEvent`] in
/// `slotsel_disruption_events_total`.
fn disruption_kind(event: &DisruptionEvent) -> &'static str {
    match event {
        DisruptionEvent::SlotRevoked { .. } => "slot_revoked",
        DisruptionEvent::NodeFailed { .. } => "node_failed",
        DisruptionEvent::NodeRestored { .. } => "node_restored",
        DisruptionEvent::NodeDegraded { .. } => "node_degraded",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slotsel_core::node::Volume;
    use slotsel_core::request::ResourceRequest;
    use slotsel_env::NodeGenConfig;

    fn job(id: u32, priority: u32, n: usize, volume: u64, budget: i64) -> Job {
        Job::new(
            JobId(id),
            priority,
            ResourceRequest::builder()
                .node_count(n)
                .volume(Volume::new(volume))
                .budget(Money::from_units(budget))
                .build()
                .unwrap(),
        )
    }

    fn small_env_config() -> RollingConfig {
        RollingConfig {
            env: EnvironmentConfig {
                nodes: NodeGenConfig::with_count(8),
                ..EnvironmentConfig::paper_default()
            },
            ..RollingConfig::default()
        }
    }

    #[test]
    fn drains_a_feasible_batch() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, 1, 2, 150, 2_000)).collect();
        let outcome = simulate(&config, jobs);
        assert!(outcome.starved.is_empty(), "{outcome:?}");
        assert_eq!(outcome.completions.len(), 4);
        assert!(outcome.total_spent() > 0.0);
    }

    #[test]
    fn oversubscription_spills_into_later_cycles() {
        let config = small_env_config();
        // 10 jobs each needing most of the 8-node platform.
        let jobs: Vec<Job> = (0..10).map(|i| job(i, 1, 6, 300, 20_000)).collect();
        let outcome = simulate(&config, jobs);
        let max_cycle = outcome
            .completions
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        assert!(max_cycle > 0, "all 10 jobs cannot fit one cycle");
        assert_eq!(
            outcome.completions.len() + outcome.starved.len(),
            10,
            "every job is accounted for"
        );
    }

    #[test]
    fn aging_prevents_starvation_of_low_priority_jobs() {
        let mut config = small_env_config();
        config.aging = 3;
        config.max_cycles = 30;
        // One low-priority whale among high-priority minnows.
        let mut jobs: Vec<Job> = (1..8).map(|i| job(i, 9, 5, 300, 20_000)).collect();
        jobs.push(job(0, 1, 5, 300, 20_000));
        let outcome = simulate(&config, jobs);
        assert!(
            outcome.wait_of(JobId(0)).is_some(),
            "aged job must eventually be scheduled: {outcome:?}"
        );
    }

    #[test]
    fn impossible_job_is_reported_starved() {
        let mut config = small_env_config();
        config.max_cycles = 3;
        let jobs = vec![job(0, 5, 100, 300, 100_000)]; // 100 nodes on an 8-node platform
        let outcome = simulate(&config, jobs);
        assert_eq!(outcome.starved, vec![JobId(0)]);
        assert_eq!(outcome.cycles.len(), 3);
    }

    #[test]
    fn empty_batch_takes_no_cycles() {
        let outcome = simulate(&small_env_config(), Vec::new());
        assert!(outcome.cycles.is_empty());
        assert!(outcome.completions.is_empty());
    }

    fn disrupted_config(recovery: RecoveryPolicy) -> RollingConfig {
        RollingConfig {
            max_cycles: 30,
            disruption: Some(DisruptionConfig::adversarial(99)),
            recovery,
            ..small_env_config()
        }
    }

    #[test]
    fn no_disruption_model_reports_zero_survival_metrics() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, 1, 2, 150, 2_000)).collect();
        let report = simulate_with_recovery(&config, jobs);
        assert_eq!(report.survival, SurvivalMetrics::new());
        assert_eq!(report.outcome.completions.len(), 4);
    }

    #[test]
    fn simulate_equals_simulate_with_recovery_without_disruptions() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..6).map(|i| job(i, i, 3, 200, 3_000)).collect();
        let plain = simulate(&config, jobs.clone());
        let report = simulate_with_recovery(&config, jobs);
        assert_eq!(plain, report.outcome);
    }

    #[test]
    fn adversarial_disruptions_hit_committed_windows() {
        let jobs: Vec<Job> = (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect();
        let report = simulate_with_recovery(&disrupted_config(RecoveryPolicy::Abandon), jobs);
        assert!(report.survival.revocations > 0, "{:?}", report.survival);
        assert!(
            report.survival.windows_disrupted > 0,
            "targeted revocations must destroy some committed windows: {:?}",
            report.survival
        );
        assert_eq!(
            report.survival.jobs_lost, report.survival.windows_disrupted,
            "Abandon loses every victim exactly once"
        );
        assert_eq!(report.survival.rescued(), 0);
        assert_eq!(report.survival.audit_failures, 0);
    }

    #[test]
    fn retry_rescues_jobs_abandon_loses() {
        let jobs = |()| -> Vec<Job> { (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect() };
        let abandon = simulate_with_recovery(&disrupted_config(RecoveryPolicy::Abandon), jobs(()));
        let retry = simulate_with_recovery(
            &disrupted_config(RecoveryPolicy::RetryNextCycle {
                backoff: 0,
                max_attempts: 5,
            }),
            jobs(()),
        );
        assert!(abandon.survival.windows_disrupted > 0);
        assert!(
            retry.survival.rescued_by_retry > 0,
            "retry must rescue at least one victim: {:?}",
            retry.survival
        );
        assert!(retry.outcome.completions.len() > abandon.outcome.completions.len());
        assert_eq!(retry.survival.audit_failures, 0);
        // Retry rescues take at least one cycle each.
        assert!(retry.survival.recovery_latency_cycles.min().unwrap() >= 1.0);
    }

    #[test]
    fn migrate_rescues_within_the_same_cycle() {
        let jobs: Vec<Job> = (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect();
        let report = simulate_with_recovery(&disrupted_config(RecoveryPolicy::Migrate), jobs);
        assert!(report.survival.windows_disrupted > 0);
        assert!(
            report.survival.rescued_by_migration > 0,
            "an 8-node, lightly loaded platform leaves room to migrate: {:?}",
            report.survival
        );
        assert_eq!(report.survival.audit_failures, 0);
        if report.survival.rescued_by_migration > 0 {
            assert_eq!(
                report.survival.recovery_latency_cycles.max().unwrap(),
                0.0,
                "migrations recover in-cycle"
            );
        }
        assert_eq!(
            report.survival.migration_overrun.count(),
            report.survival.rescued_by_migration
        );
    }

    #[test]
    fn disrupted_runs_are_deterministic() {
        let jobs = |()| -> Vec<Job> { (0..5).map(|i| job(i, 1, 3, 200, 5_000)).collect() };
        let config = disrupted_config(RecoveryPolicy::Migrate);
        let a = simulate_with_recovery(&config, jobs(()));
        let b = simulate_with_recovery(&config, jobs(()));
        assert_eq!(a, b);
    }

    #[test]
    fn rolling_config_with_disruption_roundtrips_through_serde() {
        let config = disrupted_config(RecoveryPolicy::RetryNextCycle {
            backoff: 1,
            max_attempts: 3,
        });
        let json = serde_json::to_string(&config).unwrap();
        let back: RollingConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
        // Legacy configs without the new fields still deserialize.
        let legacy = serde_json::to_string(&small_env_config()).unwrap();
        let legacy_back: RollingConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(legacy_back.disruption, small_env_config().disruption);
    }

    #[test]
    fn records_are_internally_consistent() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..6).map(|i| job(i, i, 3, 200, 3_000)).collect();
        let outcome = simulate(&config, jobs);
        for pair in outcome.cycles.windows(2) {
            assert_eq!(
                pair[1].pending,
                pair[0].pending - pair[0].scheduled,
                "pending counts must chain"
            );
        }
        let scheduled_total: usize = outcome.cycles.iter().map(|c| c.scheduled).sum();
        assert_eq!(scheduled_total, outcome.completions.len());
    }
}
