//! # slotsel-sim
//!
//! Simulation harness reproducing the evaluation of the PaCT 2013
//! slot-selection paper:
//!
//! - [`quality`] — Figures 2–4: average start / runtime / finish /
//!   processor time / cost of the windows each algorithm selects over
//!   thousands of freshly generated environments;
//! - [`scaling`] — Tables 1–2 and Figures 5–6: wall-clock working time
//!   against the number of CPU nodes and the scheduling-interval length;
//! - [`parallel`] — the one scoped-thread fan-out: the seed-derived
//!   experiments ([`quality`], [`batch_experiment`], [`sensitivity`])
//!   fan their cycles out and fold them in cycle order, while timed work
//!   ([`scaling`], the live cycle) runs in order on the calling thread;
//! - [`report`] — plain-text table and bar-chart rendering of the above;
//! - [`config`] — the §3.1 parameters and the paper's reference numbers;
//! - [`disruption`] / [`recovery`] — seeded fault injection between
//!   rolling-horizon cycles (revocations, node failures, degradations)
//!   and the policies that rescue the affected jobs, audited by
//!   [`execution`] replay;
//! - [`journal`] — typed write-ahead records, periodic state snapshots
//!   and the crash-at-any-event recovery path for journaled rolling runs
//!   (see `docs/DURABILITY.md`);
//! - [`serve`] — the live multi-tenant metascheduler behind
//!   `slotsel serve --live`: sharded persistent platform state, per-tenant
//!   admission quotas, and the continuous accumulate → schedule → commit
//!   cycle (see `docs/SERVING.md`);
//! - [`daemon`] — the daemon around it: the journal it opens or
//!   recovers, its HTTP routes, one journaled cycle per step, and the
//!   final snapshot at shutdown.
//!
//! ```no_run
//! use slotsel_sim::config::QualityConfig;
//! use slotsel_sim::quality;
//!
//! let results = quality::run(&QualityConfig::quick(100));
//! let amp = results.algorithm("AMP").unwrap();
//! println!("AMP average start time: {:.1}", amp.start.mean());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod batch_experiment;
pub mod config;
pub mod daemon;
pub mod disruption;
pub mod execution;
pub mod gantt;
pub mod journal;
pub mod metrics;
pub mod parallel;
pub mod quality;
pub mod recovery;
pub mod report;
pub mod rolling;
pub mod scaling;
pub mod sensitivity;
pub mod serve;

pub use batch_experiment::{BatchExperimentConfig, ObjectiveOutcome};
pub use config::{QualityConfig, RequestConfig};
pub use daemon::LiveDaemon;
pub use disruption::{DisruptionConfig, DisruptionEvent, DisruptionModel, DisruptionModelState};
pub use journal::{
    recover, replay, DurableJournal, JournalRecord, RecoverError, RecoveredRun, RollingState,
};
pub use metrics::{MetricsAccumulator, RunningStats, SurvivalMetrics, WindowMetrics};
pub use parallel::Parallelism;
pub use quality::QualityResults;
pub use recovery::RecoveryPolicy;
pub use rolling::{
    resume_with_recovery_observed, simulate, simulate_with_recovery,
    simulate_with_recovery_observed, RollingConfig, RollingOutcome, RollingReport,
};
pub use scaling::{ScalingConfig, ScalingPoint};
pub use serve::{
    recover_live, CycleOutcome, JobEntry, JobPhase, LiveConfig, LiveRecord, LiveService, LiveState,
    QuotaTable, RecoveredService, ShardState, Submission,
};
