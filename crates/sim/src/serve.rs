//! The live multi-tenant metascheduler behind `slotsel serve --live`.
//!
//! The paper's cycle scheduling scheme (§1) assumes a metascheduler that
//! repeatedly collects user requests, scans the non-dedicated resources
//! for alternatives, and commits an MCKP-optimal batch. The rolling
//! simulation replays that loop against seeded synthetic batches; this
//! module runs it **live**: requests arrive one at a time (over HTTP, via
//! the `slotsel` binary), pass per-tenant admission control, accumulate
//! into a batch, and each [`LiveService::run_cycle`] schedules the batch
//! and commits the winning windows into *persistent* platform state.
//!
//! ## Shards
//!
//! Platform state is split into [`LiveConfig::shards`] independent node
//! groups, each with its own platform and free-slot list. A request
//! names its shard (or is auto-assigned to the least-queued one) and a
//! window never spans shards, so the per-shard phase-1/phase-2 scheduling
//! is a pure function of that shard's state ([`ShardState`], whose steps
//! are the only code here that touches a platform, its slots or its
//! clock). [`LiveService::run_cycle`] schedules the shards one after
//! another on the calling thread and commits the results in shard order.
//!
//! ## Admission
//!
//! Each tenant's in-flight footprint ([`TenantUsage`]: queued + committed
//! but unfinished) is capped by its [`TenantQuota`] from the
//! [`QuotaTable`]. Quotas are checked once, at [`LiveService::submit`] (a
//! breach is a typed [`AdmitError`] the HTTP layer turns into an error
//! body). The table is part of the [`LiveConfig`], fixed for the service's
//! lifetime and recovered from the journal header, and a tenant's
//! footprint only falls once its job is admitted, so batch formation
//! batches every queued job.
//!
//! ## Time
//!
//! The service keeps a per-shard virtual clock. A cycle schedules on the
//! current free slots, commits (cutting the won windows out), then
//! advances the clock by [`LiveConfig::cycle_advance`]: the horizon grows
//! by the same amount (nodes are free beyond the generated non-dedicated
//! interval), free time that has slipped into the past is trimmed, and
//! committed jobs whose windows have finished release their tenants'
//! quota.
//!
//! ## Durability
//!
//! The serving loop journals through the
//! [`DurableJournal`](crate::journal::DurableJournal) in its own record
//! schema, [`LiveRecord`]: a header holding the config, one fsync'd
//! `Submitted` record per admitted request, each cycle's decisions and a
//! barrier of digests. [`recover_live`] replays a journal directory into a
//! resumable service through the live cycle's own steps. Requests accepted
//! after the last committed cycle come back queued, which is what makes an
//! accepted-but-uncommitted request survive a crash (see
//! `docs/SERVING.md`).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Writer};

use slotsel_batch::{BatchScheduler, BatchSchedulerConfig};
use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, NodeRequirements, ResourceRequest};
use slotsel_core::tenant::{AdmitError, TenantId, TenantQuota, TenantUsage};
use slotsel_core::time::{TimeDelta, TimePoint};
use slotsel_core::window::Window;
use slotsel_obs::journal::{Journal, NoopJournal};
use slotsel_obs::metrics::{Metrics, NoopMetrics};
use slotsel_obs::{NoopSpanSink, Obs, SpanSink};

use crate::parallel::Parallelism;

mod record;
mod shard;

pub use record::{recover_live, LiveRecord, RecoveredService};
pub use shard::ShardState;

/// Per-tenant quota assignments, normally loaded from a `--quota-file`
/// JSON document:
///
/// ```json
/// {
///   "tenants": { "alice": { "max_nodes": 8, "max_budget": 500.0 } },
///   "default": { "max_pending": 16 }
/// }
/// ```
///
/// Lookup order: an explicit entry in `tenants`, else `default`, else —
/// when the table names no tenants at all — unlimited. A table that
/// names tenants but has no `default` is **closed**: unknown tenants are
/// refused with [`AdmitError::UnknownTenant`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QuotaTable {
    /// Explicit per-tenant quotas.
    #[serde(default)]
    pub tenants: BTreeMap<String, TenantQuota>,
    /// Fallback quota for tenants not listed; `None` closes the table.
    #[serde(default)]
    pub default: Option<TenantQuota>,
}

impl QuotaTable {
    /// A table that admits every tenant without limits.
    #[must_use]
    pub fn open() -> Self {
        QuotaTable::default()
    }

    /// Parses a quota file's JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse failure as a string, or names a `max_budget`
    /// that [`Money`] cannot hold (admission would panic on it).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let table: QuotaTable = serde_json::from_str(text).map_err(|error| error.to_string())?;
        let quotas = table.tenants.values().chain(&table.default);
        match quotas
            .filter_map(|quota| quota.max_budget)
            .find(|&max| Money::checked_from_f64(max).is_none())
        {
            Some(max) => Err(format!("max_budget {max:e} is out of range")),
            None => Ok(table),
        }
    }

    /// The quota governing `tenant`.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError::UnknownTenant`] when the table is closed and
    /// the tenant is not listed.
    pub fn quota_for(&self, tenant: &str) -> Result<TenantQuota, AdmitError> {
        if let Some(quota) = self.tenants.get(tenant) {
            return Ok(*quota);
        }
        if let Some(default) = self.default {
            return Ok(default);
        }
        if self.tenants.is_empty() {
            return Ok(TenantQuota::unlimited());
        }
        Err(AdmitError::UnknownTenant {
            tenant: tenant.to_owned(),
        })
    }
}

/// Configuration of a live service — fixed for its lifetime and recorded
/// in the journal header, so recovery is self-contained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Number of independent platform shards (node groups).
    pub shards: u32,
    /// Nodes generated per shard.
    pub nodes_per_shard: usize,
    /// Length of each shard's generated non-dedicated interval (the
    /// paper's scheduling interval; local load fragments it).
    pub interval_length: i64,
    /// Virtual time the clock advances per cycle.
    pub cycle_advance: i64,
    /// Environment-generation seed (shard `s` uses `seed + s`).
    pub seed: u64,
    /// Per-tenant admission quotas.
    pub quotas: QuotaTable,
    /// The two-phase batch scheduler's configuration.
    pub scheduler: BatchSchedulerConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            shards: 1,
            nodes_per_shard: 20,
            interval_length: 600,
            cycle_advance: 60,
            seed: 0x51_07_5e_17,
            quotas: QuotaTable::open(),
            scheduler: BatchSchedulerConfig::default(),
        }
    }
}

impl LiveConfig {
    /// Checks that a service can run on this config: at least one shard
    /// of at least one node, a non-empty interval, and a cycle advance of
    /// at least 1, since every cycle must move the clock forward.
    ///
    /// # Errors
    ///
    /// Returns `"<field> must be at least 1, got <value>"` for the first
    /// field that is not.
    pub fn check(&self) -> Result<(), String> {
        let fields = [
            ("shards", i64::from(self.shards)),
            (
                "nodes_per_shard",
                i64::try_from(self.nodes_per_shard).unwrap_or(i64::MAX),
            ),
            ("interval_length", self.interval_length),
            ("cycle_advance", self.cycle_advance),
        ];
        match fields.into_iter().find(|&(_, value)| value < 1) {
            Some((field, value)) => Err(format!("{field} must be at least 1, got {value}")),
            None => Ok(()),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Accepted, waiting for a cycle to schedule it.
    Queued,
    /// A cycle committed a window for it; the window is executing.
    Scheduled {
        /// The committed co-allocation window.
        window: Window,
        /// The cycle that committed it.
        committed_cycle: u64,
    },
    /// Its committed window's finish time has passed.
    Finished {
        /// The window it ran in.
        window: Window,
        /// The cycle that committed it.
        committed_cycle: u64,
        /// The cycle whose clock advance retired it.
        finished_cycle: u64,
    },
}

impl JobPhase {
    /// The phase as the stable lowercase string the HTTP API reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Scheduled { .. } => "scheduled",
            JobPhase::Finished { .. } => "finished",
        }
    }

    /// The committed window, if any.
    #[must_use]
    pub fn window(&self) -> Option<&Window> {
        match self {
            JobPhase::Queued => None,
            JobPhase::Scheduled { window, .. } | JobPhase::Finished { window, .. } => Some(window),
        }
    }
}

/// One accepted request and everything known about it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEntry {
    /// The service-assigned job id.
    pub id: JobId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The shard it is bound to.
    pub shard: u32,
    /// Its current priority (aged on every deferral).
    pub priority: u32,
    /// The resource request.
    pub request: ResourceRequest,
    /// The cycle counter when it was accepted.
    pub submitted_cycle: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
}

/// The live mutable state of a service — what a snapshot holds in full.
///
/// A [`LiveRecord::CycleCommitted`] barrier decodes into this type too,
/// with only the counters and digests set: `shards`, `jobs` and `usage`
/// are empty there, because recovery replays them. A snapshot's shards
/// are rows that only [`recover_live`] decodes (see [`ShardState`]).
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub struct LiveState {
    /// Cycles executed so far.
    pub cycle: u64,
    /// Next job id to assign.
    pub next_job: u32,
    /// Per-shard platform state.
    #[serde(default)]
    pub shards: Vec<ShardState>,
    /// Queued and scheduled jobs, in id order. Finished jobs are retired
    /// out of the table into the service's archive.
    #[serde(default)]
    pub jobs: Vec<JobEntry>,
    /// Per-tenant in-flight footprints, derived from `jobs`.
    #[serde(default)]
    pub usage: BTreeMap<String, TenantUsage>,
    /// The [`SlotList::digest`](slotsel_core::slotlist::SlotList::digest)
    /// of each shard's free slots, set only in a barrier: recovery checks
    /// its replayed slot lists against them. Empty in memory and in
    /// snapshots.
    #[serde(default)]
    pub slot_digests: Vec<u64>,
    /// [`job_digest`] of the live jobs, set only in a barrier: recovery
    /// checks its replayed job table against it, and refuses a barrier
    /// without one. `None` in memory and in snapshots.
    #[serde(default)]
    pub job_digest: Option<u64>,
    /// Digest of the service's retired jobs: the wrapping sum of each
    /// retired entry's [`job_digest`], so it does not depend on the order
    /// jobs retire in, and each retirement updates it in O(1). Recovery
    /// checks the archive it has replayed by the snapshot's barrier
    /// against the snapshot's. Barriers leave it out (it reads 0 there).
    #[serde(default)]
    pub archive_digest: u64,
}

impl Serialize for LiveState {
    /// The derived field order, shards in their row shape, with
    /// `job_digest` written only when set.
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.field("cycle", &self.cycle);
        out.field("next_job", &self.next_job);
        out.field("shards", &self.shards);
        out.field("jobs", &self.jobs);
        out.field("usage", &self.usage);
        out.field("archive_digest", &self.archive_digest);
        out.field("slot_digests", &self.slot_digests);
        if let Some(digest) = &self.job_digest {
            out.field("job_digest", digest);
        }
        out.end_object();
    }
}

/// FNV-1a over every field of a job table, a word at a time as
/// [`SlotList::digest`](slotsel_core::slotlist::SlotList::digest)
/// hashes slots: what a barrier carries in place of the live jobs. A request's node requirements, which a live submission
/// cannot set, contribute only whether they are the default.
#[must_use]
pub fn job_digest(jobs: &[JobEntry]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| hash = (hash ^ word).wrapping_mul(PRIME);
    feed(jobs.len() as u64);
    for entry in jobs {
        feed(u64::from(entry.id.0));
        let tenant = entry.tenant.as_str().as_bytes();
        feed(tenant.len() as u64);
        for chunk in tenant.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            feed(u64::from_le_bytes(word));
        }
        feed(u64::from(entry.shard));
        feed(u64::from(entry.priority));
        let request = &entry.request;
        feed(request.node_count() as u64);
        feed(request.volume().work());
        feed(request.budget().millis() as u64);
        for optional in [
            request.deadline().map(TimePoint::ticks),
            request.reference_span().map(TimeDelta::ticks),
        ] {
            feed(u64::from(optional.is_some()));
            feed(optional.unwrap_or(0) as u64);
        }
        feed(u64::from(
            *request.requirements() == NodeRequirements::any(),
        ));
        feed(entry.submitted_cycle);
        let (tag, window, cycles) = match &entry.phase {
            JobPhase::Queued => (0, None, [0, 0]),
            JobPhase::Scheduled {
                window,
                committed_cycle,
            } => (1, Some(window), [*committed_cycle, 0]),
            JobPhase::Finished {
                window,
                committed_cycle,
                finished_cycle,
            } => (2, Some(window), [*committed_cycle, *finished_cycle]),
        };
        feed(tag);
        if let Some(window) = window {
            feed(window.start().ticks() as u64);
            feed(window.size() as u64);
            for slot in window.slots() {
                feed(slot.slot().0);
                feed(u64::from(slot.node().0));
                feed(slot.length().ticks() as u64);
                feed(slot.cost().millis() as u64);
            }
        }
        feed(cycles[0]);
        feed(cycles[1]);
    }
    hash
}

/// Moves `entry` into `retired`, keeping `digest` the wrapping sum of the
/// [`job_digest`] of each retired entry (see [`LiveState::archive_digest`];
/// an entry it replaces leaves the sum).
fn archive(retired: &mut BTreeMap<u32, JobEntry>, digest: &mut u64, entry: JobEntry) {
    *digest = digest.wrapping_add(job_digest(std::slice::from_ref(&entry)));
    if let Some(replaced) = retired.insert(entry.id.0, entry) {
        *digest = digest.wrapping_sub(job_digest(std::slice::from_ref(&replaced)));
    }
}

/// A raw submission, as decoded from the HTTP API's `POST /submit` body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Submission {
    /// The submitting tenant's name.
    pub tenant: String,
    /// Number of concurrent slots (`n`).
    pub nodes: usize,
    /// Work volume of each task.
    pub volume: u64,
    /// Budget `S` in credits.
    pub budget: f64,
    /// Scheduling priority (higher first); 0 is valid.
    pub priority: u32,
    /// Optional completion deadline on the virtual clock.
    pub deadline: Option<i64>,
    /// Explicit shard, or `None` for least-queued auto-assignment.
    pub shard: Option<u32>,
}

/// What one [`LiveService::run_cycle`] did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CycleOutcome {
    /// The cycle that ran (pre-increment counter).
    pub cycle: u64,
    /// `(job, shard)` of every window committed this cycle.
    pub committed: Vec<(JobId, u32)>,
    /// Jobs that entered the batch but won no window (priority-aged).
    pub deferred: Vec<JobId>,
    /// Jobs whose windows finished as the clock advanced.
    pub finished: Vec<JobId>,
}

/// The live metascheduler: persistent sharded platform state, tenant
/// accounting, and the accumulate → schedule → commit cycle.
///
/// The service is a pure state machine — no I/O, no clocks — so the
/// daemon around it owns the journal, the HTTP endpoint and the pacing,
/// and tests drive it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveService {
    config: LiveConfig,
    state: LiveState,
    /// Finished jobs by id. Not part of the barrier or the snapshot:
    /// replay retires each entry as the cycle did.
    retired: BTreeMap<u32, JobEntry>,
}

impl LiveService {
    /// Creates a fresh service, each shard generated from its seed (see
    /// [`ShardState`]).
    ///
    /// # Panics
    ///
    /// Panics with the reason if [`LiveConfig::check`] refuses `config`.
    #[must_use]
    pub fn new(config: LiveConfig) -> Self {
        if let Err(reason) = config.check() {
            panic!("invalid live config: {reason}");
        }
        let shards = (0..config.shards)
            .map(|index| ShardState::generate(&config, index))
            .collect();
        let usage = (config.quotas.tenants.keys())
            .map(|tenant| (tenant.clone(), TenantUsage::default()))
            .collect();
        LiveService {
            config,
            state: LiveState {
                cycle: 0,
                next_job: 0,
                shards,
                jobs: Vec::new(),
                usage,
                slot_digests: Vec::new(),
                job_digest: None,
                archive_digest: 0,
            },
            retired: BTreeMap::new(),
        }
    }

    /// The serving configuration.
    #[must_use]
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// The live state (what a barrier would checkpoint).
    #[must_use]
    pub fn state(&self) -> &LiveState {
        &self.state
    }

    /// Finished jobs, by id.
    #[must_use]
    pub fn retired(&self) -> &BTreeMap<u32, JobEntry> {
        &self.retired
    }

    /// Cycles executed so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// How many jobs were ever accepted, live and retired.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.retired.len() + self.state.jobs.len()
    }

    /// Looks up one job by id: a binary search of the id-ordered live
    /// table, then the archive.
    #[must_use]
    pub fn job(&self, id: JobId) -> Option<&JobEntry> {
        match self.state.jobs.binary_search_by_key(&id, |entry| entry.id) {
            Ok(index) => Some(&self.state.jobs[index]),
            Err(_) => self.retired.get(&id.0),
        }
    }

    /// Every known tenant with its usage and governing quota, in name
    /// order — the `GET /tenants` view.
    #[must_use]
    pub fn tenants(&self) -> Vec<(String, TenantUsage, TenantQuota)> {
        self.state
            .usage
            .iter()
            .map(|(tenant, usage)| {
                let quota = self
                    .config
                    .quotas
                    .quota_for(tenant)
                    .unwrap_or_else(|_| TenantQuota::unlimited());
                (tenant.clone(), *usage, quota)
            })
            .collect()
    }

    /// Admits one submission: validates the request, resolves its shard,
    /// checks the tenant's quota and — on success — queues the job and
    /// charges the tenant's in-flight footprint.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AdmitError`] (malformed request, closed-table
    /// unknown tenant, unknown shard, a request for more nodes than its
    /// shard has, or the first breached quota dimension). State is
    /// untouched on error.
    pub fn submit(&mut self, submission: &Submission) -> Result<JobEntry, AdmitError> {
        if submission.tenant.trim().is_empty() {
            return Err(AdmitError::InvalidRequest {
                reason: "tenant name is empty".to_owned(),
            });
        }
        let shard = match submission.shard {
            Some(shard) if shard >= self.config.shards => {
                return Err(AdmitError::UnknownShard {
                    shard,
                    shards: self.config.shards,
                });
            }
            Some(shard) => shard,
            // Least-queued shard, lowest index on ties — deterministic.
            None => (0..self.config.shards)
                .min_by_key(|&shard| {
                    let queued = (self.state.jobs.iter())
                        .filter(|entry| entry.shard == shard && entry.phase == JobPhase::Queued);
                    (queued.count(), shard)
                })
                .expect("at least one shard"),
        };
        let budget = Money::checked_from_f64(submission.budget).ok_or_else(|| {
            AdmitError::InvalidRequest {
                reason: format!(
                    "budget {:e} is not a finite amount below {:e} credits",
                    submission.budget,
                    Money::MAX.as_f64()
                ),
            }
        })?;
        let mut builder = ResourceRequest::builder()
            .node_count(submission.nodes)
            .volume(Volume::new(submission.volume))
            .budget(budget);
        if let Some(deadline) = submission.deadline {
            builder = builder.deadline(TimePoint::new(deadline));
        }
        let request = builder.build()?;

        let quota = self.config.quotas.quota_for(&submission.tenant)?;
        let available = self.state.shards[shard as usize].platform.len();
        if request.node_count() > available {
            return Err(AdmitError::Unplaceable {
                requested: request.node_count(),
                available,
            });
        }
        let usage = self
            .state
            .usage
            .get(&submission.tenant)
            .copied()
            .unwrap_or_default();
        quota.admit(&usage, request.node_count(), request.budget())?;

        let entry = JobEntry {
            id: JobId(self.state.next_job),
            tenant: TenantId::new(submission.tenant.clone()),
            shard,
            priority: submission.priority,
            request,
            submitted_cycle: self.state.cycle,
            phase: JobPhase::Queued,
        };
        self.state.next_job += 1;
        self.state.jobs.push(entry.clone());
        self.recompute_usage();
        Ok(entry)
    }

    /// Rebuilds the per-tenant usage table from the live jobs table — the
    /// single source of truth, so charge/release can never drift.
    fn recompute_usage(&mut self) {
        for usage in self.state.usage.values_mut() {
            *usage = TenantUsage::default();
        }
        for entry in &self.state.jobs {
            let tenant = entry.tenant.as_str();
            // Allocate the key only for a tenant seen for the first time.
            let usage = match self.state.usage.get_mut(tenant) {
                Some(usage) => usage,
                None => self.state.usage.entry(tenant.to_owned()).or_default(),
            };
            if !matches!(entry.phase, JobPhase::Finished { .. }) {
                usage.charge(&entry.request, matches!(entry.phase, JobPhase::Queued));
            }
        }
    }

    /// Runs one scheduling cycle without observability — the plain twin
    /// of [`run_cycle_observed`](Self::run_cycle_observed).
    pub fn run_cycle(&mut self) -> CycleOutcome {
        self.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut NoopJournal)
    }

    /// Runs one scheduling cycle: batches every queued job on its shard,
    /// schedules the shards one after another, commits the won windows
    /// into the persistent slot lists, then advances the clocks, retires
    /// finished jobs and counts the cycle. `Parallelism` has one value,
    /// [`Parallelism::Serial`].
    ///
    /// Audit records and the `CycleCommitted` barrier go to `journal`
    /// (one `commit` at the barrier); per-tenant gauges and cycle
    /// counters go to `metrics`. Pass [`NoopMetrics`]/[`NoopJournal`] to
    /// run dark — the outcome and state evolution are identical.
    pub fn run_cycle_observed<J: Journal>(
        &mut self,
        _parallelism: Parallelism,
        metrics: &dyn Metrics,
        journal: &mut J,
    ) -> CycleOutcome {
        self.run_cycle_spanned(metrics, journal, &mut NoopSpanSink)
    }

    /// Like [`run_cycle_observed`](Self::run_cycle_observed), additionally
    /// recording a span tree on `spans`: a `"serve.cycle"` root with
    /// `"serve.batch_formation"` / `"serve.commit"` / `"serve.advance"` /
    /// `"serve.retire"` phase children, plus one `"serve.shard"` subtree
    /// per shard, on track `shard + 1`. With a disabled sink this is
    /// `run_cycle_observed`, bit for bit.
    pub fn run_cycle_spanned<J: Journal, S: SpanSink>(
        &mut self,
        metrics: &dyn Metrics,
        journal: &mut J,
        spans: &mut S,
    ) -> CycleOutcome {
        let journaling = journal.enabled();
        let cycle = self.state.cycle;
        let mut obs = Obs::dark().with_metrics(metrics).with_spans(spans);
        let root = obs.phase("serve.cycle");
        obs.spans.attr_u64("cycle", cycle);
        let mut outcome = CycleOutcome {
            cycle,
            ..CycleOutcome::default()
        };

        // --- Batch formation -------------------------------------------
        // Every queued job joins its shard's batch: admission checked its
        // quota, and its tenant's footprint has only fallen since. The
        // scheduler orders each batch by priority, then id.
        let formation = obs.phase("serve.batch_formation");
        let mut batches: Vec<Vec<Job>> = vec![Vec::new(); self.config.shards as usize];
        for entry in &self.state.jobs {
            if entry.phase == JobPhase::Queued {
                let job = Job::new(entry.id, entry.priority, entry.request.clone());
                batches[entry.shard as usize].push(job);
            }
        }
        let batched = batches.iter().map(Vec::len).sum();
        obs.spans.attr_u64("batched", batched as u64);
        formation.end(&mut obs, None);

        // --- Per-shard scheduling, one after another on this thread ----
        let scheduler = BatchScheduler::new(self.config.scheduler.clone());
        let mut schedules = Vec::with_capacity(batches.len());
        for (index, (shard, jobs)) in (0..).zip(self.state.shards.iter().zip(&batches)) {
            obs.spans.set_track(index + 1);
            schedules.push(shard.schedule(index, &scheduler, jobs, &mut *obs.spans));
        }
        obs.spans.set_track(0);

        // --- Serial commit, shard order --------------------------------
        let commit = obs.phase("serve.commit");
        let mut decisions = Vec::with_capacity(batched);
        for ((index, shard), schedule) in (0..).zip(&mut self.state.shards).zip(&schedules) {
            for assignment in &schedule.assignments {
                let job = assignment.job.id();
                let window = (assignment.window.as_ref()).filter(|window| shard.reserve(window));
                if journaling {
                    journal.append(&LiveRecord::encode_decision(cycle, job.0, index, window));
                }
                match window {
                    Some(_) => outcome.committed.push((job, index)),
                    None => outcome.deferred.push(job),
                }
                decisions.push((index, job.0, window.cloned()));
            }
        }
        apply_decisions(&mut self.state.jobs, cycle, decisions);
        obs.spans
            .attr_u64("committed", outcome.committed.len() as u64);
        obs.spans
            .attr_u64("deferred", outcome.deferred.len() as u64);
        commit.end(&mut obs, None);

        self.settle(true, &mut obs, |job| {
            outcome.finished.push(job);
            if journaling {
                journal.append(&LiveRecord::Finished { cycle, job: job.0 }.encode());
            }
        });

        if journaling {
            journal.append(&LiveRecord::encode_barrier(&self.state));
        }
        journal.commit();
        if journaling {
            // Encoded only when the journal's snapshot cadence is due.
            journal.checkpoint(&|| LiveRecord::encode_checkpoint(&self.state));
        }

        root.end(&mut obs, None);
        self.export_metrics(metrics, &outcome);
        outcome
    }

    /// Publishes the service-level gauges and counters.
    fn export_metrics(&self, metrics: &dyn Metrics, outcome: &CycleOutcome) {
        if !metrics.enabled() {
            return;
        }
        for (name, count) in [
            ("slotsel_serve_cycles_total", 1),
            ("slotsel_serve_commits_total", outcome.committed.len()),
            ("slotsel_serve_deferrals_total", outcome.deferred.len()),
            ("slotsel_serve_finished_total", outcome.finished.len()),
        ] {
            metrics.counter_add(name, &[], count as u64);
        }
        for (tenant, usage) in &self.state.usage {
            let labels = [("tenant", tenant.as_str())];
            for (name, value) in [
                ("slotsel_serve_tenant_pending", usage.pending as f64),
                (
                    "slotsel_serve_tenant_nodes_in_flight",
                    usage.nodes_in_flight as f64,
                ),
                (
                    "slotsel_serve_tenant_budget_in_flight",
                    usage.budget_in_flight.as_f64(),
                ),
            ] {
                metrics.gauge_set(name, &labels, value);
            }
        }
        for (shard, state) in self.state.shards.iter().enumerate() {
            let shard = shard.to_string();
            let labels = [("shard", shard.as_str())];
            metrics.gauge_set(
                "slotsel_serve_shard_free_slots",
                &labels,
                state.slots.len() as f64,
            );
        }
    }

    /// Closes a cycle, in `"serve.advance"` and `"serve.retire"` phases on
    /// `obs`: advances every shard's clock by one cycle and, with `slots`,
    /// its free slots (replay of a cycle the snapshot covers advances the
    /// clocks only); retires every scheduled job whose window has finished
    /// by its shard's clock into the archive, in id order, calling
    /// `finished` with its id; then counts the cycle and recomputes usage.
    /// The live cycle and replay both close through it.
    fn settle(&mut self, slots: bool, obs: &mut Obs<'_>, mut finished: impl FnMut(JobId)) {
        let cycle = self.state.cycle;
        let advance = obs.phase("serve.advance");
        let by = TimeDelta::new(self.config.cycle_advance);
        for shard in &mut self.state.shards {
            shard.advance(by, slots);
        }
        obs.spans.attr_u64("shards", self.state.shards.len() as u64);
        advance.end(obs, None);

        let retire = obs.phase("serve.retire");
        for entry in &mut self.state.jobs {
            if let JobPhase::Scheduled {
                window,
                committed_cycle,
            } = &entry.phase
            {
                if window.finish() <= self.state.shards[entry.shard as usize].now {
                    entry.phase = JobPhase::Finished {
                        window: window.clone(),
                        committed_cycle: *committed_cycle,
                        finished_cycle: cycle,
                    };
                }
            }
        }
        let retiring = (self.state.jobs)
            .extract_if(.., |entry| matches!(entry.phase, JobPhase::Finished { .. }));
        let mut count = 0;
        for entry in retiring {
            finished(entry.id);
            count += 1;
            archive(&mut self.retired, &mut self.state.archive_digest, entry);
        }
        obs.spans.attr_u64("finished", count);
        retire.end(obs, None);

        self.state.cycle += 1;
        self.recompute_usage();
    }
}

/// Applies a cycle's decisions to an id-ordered job table: a committed
/// job is scheduled in its window, a deferred one ages by one priority
/// step so it cannot starve behind a stream of fresh work (the rolling
/// loop's rule). The live cycle and replay share it. A decision naming no
/// job of the table changes nothing; in replay the barrier's job digest
/// then refuses the chain.
fn apply_decisions(jobs: &mut [JobEntry], cycle: u64, decisions: Vec<Decision>) {
    for (_, job, window) in decisions {
        let Ok(index) = jobs.binary_search_by_key(&JobId(job), |entry| entry.id) else {
            continue;
        };
        let entry = &mut jobs[index];
        match window {
            Some(window) => {
                entry.phase = JobPhase::Scheduled {
                    window,
                    committed_cycle: cycle,
                };
            }
            None => entry.priority = entry.priority.saturating_add(1),
        }
    }
}

/// One scheduling decision of a cycle: `(shard, job, window)`, the window
/// `None` for a deferral.
type Decision = (u32, u32, Option<Window>);

#[cfg(test)]
mod tests {
    use super::record::SnapshotRecord;
    use super::*;
    use crate::journal::{DurableJournal, RecoverError};
    use slotsel_obs::journal::MemoryJournal;
    use slotsel_obs::MemorySpanSink;
    use std::path::PathBuf;

    fn tiny_config(shards: u32) -> LiveConfig {
        LiveConfig {
            shards,
            nodes_per_shard: 8,
            interval_length: 600,
            cycle_advance: 100,
            seed: 42,
            ..LiveConfig::default()
        }
    }

    fn submission(tenant: &str, nodes: usize, budget: f64) -> Submission {
        Submission {
            tenant: tenant.to_owned(),
            nodes,
            volume: 50,
            budget,
            priority: 1,
            deadline: None,
            shard: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slotsel-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_assigns_ids_shards_and_charges_usage() {
        let mut service = LiveService::new(tiny_config(2));
        let a = service.submit(&submission("alice", 2, 1_000.0)).unwrap();
        let b = service.submit(&submission("alice", 1, 500.0)).unwrap();
        assert_eq!((a.id, b.id), (JobId(0), JobId(1)));
        // Auto-assignment balances: second submit goes to the other shard.
        assert_ne!(a.shard, b.shard);
        let usage = service.state().usage["alice"];
        assert_eq!(usage.pending, 2);
        assert_eq!(usage.nodes_in_flight, 3);
        assert_eq!(usage.budget_in_flight, Money::from_f64(1_500.0));
    }

    #[test]
    fn quotas_reject_with_typed_errors_and_closed_tables_refuse_strangers() {
        let mut config = tiny_config(1);
        config.quotas.tenants.insert(
            "alice".to_owned(),
            TenantQuota {
                max_nodes: Some(2),
                max_budget: Some(100.0),
                max_pending: None,
            },
        );
        let mut service = LiveService::new(config);
        assert!(service.submit(&submission("alice", 2, 100.0)).is_ok());
        let over = service.submit(&submission("alice", 1, 1.0)).unwrap_err();
        assert_eq!(over.code(), "quota_exceeded");
        let stranger = service.submit(&submission("mallory", 1, 1.0)).unwrap_err();
        assert!(matches!(stranger, AdmitError::UnknownTenant { .. }));
        let bad_shard = service
            .submit(&Submission {
                shard: Some(9),
                ..submission("alice", 1, 1.0)
            })
            .unwrap_err();
        assert!(matches!(
            bad_shard,
            AdmitError::UnknownShard { shards: 1, .. }
        ));
        // A malformed request is typed too, and charges nothing beyond
        // the one job already admitted.
        let invalid = service.submit(&submission("alice", 0, 1.0)).unwrap_err();
        assert_eq!(invalid.code(), "bad_request");
        assert_eq!(service.state().usage["alice"].pending, 1);
    }

    #[test]
    fn a_request_for_more_nodes_than_its_shard_has_is_refused_at_admission() {
        let mut service = LiveService::new(tiny_config(2));
        for shard in [None, Some(1)] {
            let refused = service
                .submit(&Submission {
                    shard,
                    ..submission("alice", 9, 1.0)
                })
                .unwrap_err();
            assert_eq!(
                refused,
                AdmitError::Unplaceable {
                    requested: 9,
                    available: 8
                }
            );
            assert_eq!(refused.code(), "unplaceable");
        }
        assert!(service.state().jobs.is_empty());
        assert!(!service.state().usage.contains_key("alice"));
        // A request for the whole shard still fits.
        assert!(service.submit(&submission("alice", 8, 1.0)).is_ok());
    }

    #[test]
    fn a_budget_money_cannot_hold_is_refused_at_admission() {
        let mut service = LiveService::new(tiny_config(1));
        for budget in [1e300, f64::INFINITY, -1e300, 1e16] {
            let refused = service.submit(&submission("alice", 1, budget)).unwrap_err();
            assert!(
                matches!(refused, AdmitError::InvalidRequest { .. }),
                "{budget}: {refused}"
            );
            assert_eq!(refused.code(), "bad_request");
        }
        assert!(service.state().jobs.is_empty());
        assert!(!service.state().usage.contains_key("alice"));
        // A budget just inside Money's range is still admitted.
        assert!(service.submit(&submission("alice", 1, 9e15)).is_ok());
    }

    #[test]
    fn cycles_schedule_commit_and_finish_releasing_quota() {
        // Advance the clock slowly so the committed window (a few ticks
        // long on this tiny platform) outlives at least one cycle.
        let mut service = LiveService::new(LiveConfig {
            cycle_advance: 2,
            ..tiny_config(1)
        });
        let entry = service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        let outcome = service.run_cycle();
        assert_eq!(outcome.committed, vec![(entry.id, 0)]);
        let job = service.job(entry.id).unwrap();
        let window = job.phase.window().expect("committed").clone();
        assert_eq!(window.size(), 2);
        assert_eq!(job.phase.name(), "scheduled");
        // Quota stays charged while the window executes…
        assert_eq!(service.state().usage["alice"].nodes_in_flight, 2);
        assert_eq!(service.state().usage["alice"].pending, 0);
        // …and releases once the clock passes its finish.
        let mut finished = false;
        for _ in 0..20 {
            let outcome = service.run_cycle();
            if outcome.finished.contains(&entry.id) {
                finished = true;
                break;
            }
        }
        assert!(finished, "window {window:?} never finished");
        assert_eq!(service.job(entry.id).unwrap().phase.name(), "finished");
        // Retired out of the live table, still answered from the archive.
        assert!(service.state().jobs.is_empty());
        assert!(service.retired().contains_key(&entry.id.0));
        assert_eq!(service.state().usage["alice"].nodes_in_flight, 0);
    }

    #[test]
    fn committed_windows_occupy_the_slots_they_won() {
        // On a single shard, two committed windows can never overlap the
        // same node-time: the second cycle's commits must respect cuts
        // made by the first.
        let mut service = LiveService::new(tiny_config(1));
        for _ in 0..6 {
            service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        }
        for _ in 0..4 {
            service.run_cycle();
        }
        let windows: Vec<&Window> = (service.retired().values())
            .chain(&service.state().jobs)
            .filter_map(|entry| entry.phase.window())
            .collect();
        assert!(windows.len() >= 2, "expected several commits");
        for (i, a) in windows.iter().enumerate() {
            for b in &windows[i + 1..] {
                assert!(
                    !slotsel_batch::windows_conflict(a, b),
                    "overlapping commits: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn journal_replays_to_the_same_state_and_preserves_trailing_submits() {
        let dir = temp_dir("recover");
        let mut journal = DurableJournal::create(&dir, 2).unwrap();
        let config = tiny_config(2);
        let mut service = LiveService::new(config.clone());
        journal.append(
            &LiveRecord::ServiceStarted {
                config: config.clone(),
            }
            .encode(),
        );
        journal.commit();

        let entry = service.submit(&submission("alice", 1, 9_000.0)).unwrap();
        journal.append(&LiveRecord::Submitted { entry }.encode());
        journal.commit();
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);

        // Accepted after the barrier — must survive the crash.
        let late = service.submit(&submission("bob", 1, 7_000.0)).unwrap();
        journal.append(
            &LiveRecord::Submitted {
                entry: late.clone(),
            }
            .encode(),
        );
        journal.commit();
        // Crash: drop the journal without finish().
        drop(journal);

        let recovered = recover_live(&dir).unwrap();
        assert_eq!(recovered.barriers, 1);
        assert_eq!(recovered.resubmitted, 1);
        assert_eq!(recovered.service, service);
        assert_eq!(
            recovered.service.job(late.id).unwrap().phase.name(),
            "queued"
        );

        // The resumed journal continues the stream: another cycle, then a
        // second recovery sees two barriers and no trailing submits.
        let mut resumed = DurableJournal::resume_at(&dir, recovered.resume_len, 1, 2).unwrap();
        let mut service = recovered.service;
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut resumed);
        resumed.finish().unwrap();
        let again = recover_live(&dir).unwrap();
        assert_eq!(again.barriers, 2);
        assert_eq!(again.resubmitted, 0);
        assert_eq!(again.service, service);
    }

    #[test]
    fn recovery_refuses_a_rolling_journal_and_empty_directories() {
        let dir = temp_dir("foreign");
        assert!(matches!(
            recover_live(&dir),
            Err(RecoverError::EmptyJournal)
        ));
        let mut journal = DurableJournal::create(&dir, 2).unwrap();
        journal.append(
            &crate::journal::JournalRecord::RunStarted {
                config: crate::rolling::RollingConfig::default(),
                jobs: Vec::new(),
            }
            .encode(),
        );
        journal.finish().unwrap();
        assert!(matches!(
            recover_live(&dir),
            Err(RecoverError::MissingHeader)
        ));
    }

    #[test]
    #[should_panic(expected = "cycle_advance must be at least 1")]
    fn a_service_refuses_a_cycle_advance_below_one() {
        // A zero advance would add a zero-length slot per node per cycle
        // that nothing prunes; a negative one would run the clock back.
        let _ = LiveService::new(LiveConfig {
            cycle_advance: 0,
            ..tiny_config(1)
        });
    }

    #[test]
    fn live_records_round_trip_and_checkpoints_bind_back_to_the_state() {
        let config = tiny_config(2);
        let mut service = LiveService::new(config.clone());
        let entry = service.submit(&submission("alice", 1, 9_000.0)).unwrap();
        service.run_cycle();
        let window = service
            .job(entry.id)
            .and_then(|job| job.phase.window())
            .expect("a committed window")
            .clone();
        let mut constrained = entry.clone();
        constrained.request = entry
            .request
            .clone()
            .into_builder()
            .requirements(NodeRequirements::any().min_ram_mb(512))
            .deadline(TimePoint::new(600))
            .build()
            .unwrap();
        let records = [
            LiveRecord::ServiceStarted { config },
            LiveRecord::Submitted {
                entry: entry.clone(),
            },
            LiveRecord::Submitted { entry: constrained },
            LiveRecord::Committed {
                cycle: 0,
                job: entry.id.0,
                shard: 0,
                window: window.clone(),
            },
            LiveRecord::decode(&LiveRecord::encode_barrier(service.state())).unwrap(),
            LiveRecord::Finished { cycle: 3, job: 7 },
        ];
        for record in &records {
            let line = record.encode();
            assert_eq!(&LiveRecord::decode(&line).unwrap(), record);
            // The full shape every field is written in decodes alike.
            let full = serde_json::to_string(record).unwrap();
            assert_eq!(&LiveRecord::decode(&full).unwrap(), record);
        }
        assert!(records[0]
            .encode()
            .starts_with("{\"ServiceStarted\":{\"format\":2,\"config\":{\"shards\":2,"));
        // A format-1 `Finished` record's entry is ignored.
        assert_eq!(
            LiveRecord::decode("{\"Finished\":{\"cycle\":3,\"job\":7,\"entry\":{\"id\":7}}}"),
            Ok(records[5].clone())
        );
        assert_eq!(
            records[1].encode(),
            "{\"Submitted\":{\"entry\":{\"id\":0,\"tenant\":\"alice\",\"shard\":0,\
             \"priority\":1,\"request\":{\"node_count\":1,\"volume\":50,\"budget\":9000000},\
             \"submitted_cycle\":0,\"phase\":\"Queued\"}}}"
        );
        let constrained = records[2].encode();
        assert!(
            constrained.contains("\"requirements\":{\"min_performance\":null")
                && constrained.contains("\"min_ram_mb\":512")
                && constrained.contains("\"deadline\":600}")
                && !constrained.contains("reference_span"),
            "{constrained}"
        );
        let slot = window.slots()[0];
        assert_eq!(
            records[3].encode(),
            format!(
                "{{\"Committed\":{{\"cycle\":0,\"job\":0,\"shard\":0,\"window\":{{\
                 \"start\":{},\"slots\":[[{},{},{},{}]]}}}}}}",
                window.start().ticks(),
                slot.slot().0,
                slot.node().0,
                slot.length().ticks(),
                slot.cost().millis()
            )
        );
        assert_eq!(
            records[5].encode(),
            "{\"Finished\":{\"cycle\":3,\"job\":7}}"
        );
        // A snapshot payload is the barrier record with the state in full,
        // its shards as rows that bind back to the platform.
        let checkpoint = LiveRecord::encode_checkpoint(service.state());
        let state = service.state().clone();
        assert_eq!(
            checkpoint,
            LiveRecord::CycleCommitted {
                state: state.clone()
            }
            .encode()
        );
        assert!(!checkpoint.contains("platform\"") && !checkpoint.contains("price"));
        // The rows bind only to a platform, which a record does not hold:
        // recovery decodes them.
        assert!(LiveRecord::decode(&checkpoint).is_err());
        let SnapshotRecord::CycleCommitted { state: image } =
            serde_json::from_str(&checkpoint).unwrap();
        let bound = LiveService::new(service.config.clone())
            .bind(image)
            .unwrap();
        assert_eq!(
            (bound.cycle, bound.shards, bound.archive_digest),
            (state.cycle, state.shards, state.archive_digest)
        );
    }

    #[test]
    fn quota_table_lookup_order_and_json() {
        let table = QuotaTable::from_json(
            r#"{"tenants":{"alice":{"max_nodes":4}},"default":{"max_pending":2}}"#,
        )
        .unwrap();
        assert_eq!(table.quota_for("alice").unwrap().max_nodes, Some(4));
        assert_eq!(table.quota_for("bob").unwrap().max_pending, Some(2));
        let closed = QuotaTable::from_json(r#"{"tenants":{"alice":{}}}"#).unwrap();
        assert!(closed.quota_for("bob").is_err());
        assert!(QuotaTable::open().quota_for("anyone").is_ok());
        assert!(QuotaTable::from_json("not json").is_err());
        for text in [
            r#"{"tenants":{"alice":{"max_budget":1e300}}}"#,
            r#"{"default":{"max_budget":-1e300}}"#,
        ] {
            assert!(QuotaTable::from_json(text)
                .unwrap_err()
                .contains("max_budget"));
        }
    }

    #[test]
    fn audit_records_name_the_shards_they_committed_on() {
        let mut service = LiveService::new(tiny_config(2));
        for shard in 0..2u32 {
            service
                .submit(&Submission {
                    shard: Some(shard),
                    ..submission("alice", 1, 100_000.0)
                })
                .unwrap();
        }
        let mut journal = MemoryJournal::new();
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
        let shards: Vec<u32> = journal
            .records()
            .iter()
            .filter_map(|line| match LiveRecord::decode(line) {
                Ok(LiveRecord::Committed { shard, .. }) => Some(shard),
                _ => None,
            })
            .collect();
        assert_eq!(shards, vec![0, 1], "one commit per disjoint shard");
    }

    #[test]
    fn spanned_cycle_matches_observed_and_nests_shard_subtrees() {
        let seed_service = || {
            let mut service = LiveService::new(tiny_config(2));
            for shard in 0..2u32 {
                service
                    .submit(&Submission {
                        shard: Some(shard),
                        ..submission("alice", 1, 100_000.0)
                    })
                    .unwrap();
            }
            service
        };

        let mut plain = seed_service();
        let plain_outcome = plain.run_cycle();

        let mut spanned = seed_service();
        let mut sink = MemorySpanSink::new();
        let outcome = spanned.run_cycle_spanned(&NoopMetrics, &mut NoopJournal, &mut sink);
        assert_eq!(outcome, plain_outcome);
        assert_eq!(spanned.state(), plain.state());

        let records = sink.take_records();
        let root = records
            .iter()
            .find(|r| r.name == "serve.cycle")
            .expect("cycle root");
        for phase in [
            "serve.batch_formation",
            "serve.commit",
            "serve.advance",
            "serve.retire",
        ] {
            assert!(
                records
                    .iter()
                    .any(|r| r.name == phase && r.parent == root.id),
                "missing {phase}"
            );
        }
        // One shard subtree per shard under the cycle root, each on its
        // own track (shard s runs on track s + 1; the coordinator stays on
        // 0, before and after the shards).
        let shards: Vec<(u32, u64)> = records
            .iter()
            .filter(|r| r.name == "serve.shard")
            .map(|r| (r.track, r.parent.0))
            .collect();
        assert_eq!(shards, vec![(1, root.id.0), (2, root.id.0)]);
        for record in &records {
            let on_shard_track = record.track >= 1;
            let in_shard = record.name == "serve.shard" || !record.name.starts_with("serve.");
            assert_eq!(
                on_shard_track, in_shard,
                "{} on track {}",
                record.name, record.track
            );
        }
    }
}
