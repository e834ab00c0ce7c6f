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
//! groups, each with its own [`Platform`] and free-[`SlotList`]. A request
//! names its shard (or is auto-assigned to the least-queued one) and a
//! window never spans shards, so the per-shard phase-1/phase-2 scheduling
//! is a pure function of that shard's state. [`LiveService::run_cycle`]
//! schedules the shards one after another on the calling thread and
//! commits the results in shard order.
//!
//! ## Admission
//!
//! Each tenant's in-flight footprint ([`TenantUsage`]: queued + committed
//! but unfinished) is capped by its [`TenantQuota`] from the
//! [`QuotaTable`]. Quotas are checked twice: at [`LiveService::submit`]
//! (a breach is a typed [`AdmitError`] the HTTP layer turns into an error
//! body) and again at batch formation, so a quota tightened between
//! restarts defers — never schedules — work that no longer fits.
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
//! [`DurableJournal`](crate::journal::DurableJournal) with its
//! own record schema, [`LiveRecord`]: a `ServiceStarted` header naming the
//! journal format, one
//! durable (fsync'd) `Submitted` record per admitted request (without the
//! request fields that hold their defaults), per-cycle
//! `Committed`/`Deferred` audit events (a committed window's slots as
//! `[slot, node, length, cost]` rows), a `Finished` record naming each
//! retired job (`{cycle, job}`), and a `CycleCommitted` barrier. A finished
//! job leaves `LiveState::jobs` for the service's retired archive in the
//! cycle that finishes it; its entry is never journaled whole, as its
//! `Submitted`, `Committed` and `Deferred` records already say everything
//! about it.
//!
//! Barriers carry only what cannot be derived. The platform is regenerated
//! from the `ServiceStarted` config; a shard's free slots change only by
//! the windows its `Committed` records cut and by the clock advance; and
//! the job table changes only by `Submitted` records, by the cycle's
//! `Committed`/`Deferred` decisions and by the clock advance retiring
//! finished windows. So a barrier holds the cycle counter, the next job
//! id, a per-shard digest of the free-slot list and one digest of the job
//! table ([`job_digest`]): about 150 bytes, whatever the platform and the
//! load. The rest of the state goes only into the periodic snapshot,
//! handed to the journal lazily through [`Journal::checkpoint`]; it too
//! leaves the platform out, each free slot is an `[id, node, start,
//! end]` row (see [`ShardState`]), and it carries a digest of the
//! retired jobs ([`LiveState::archive_digest`]). [`recover_live`] regenerates the
//! platform from the header, binds the newest intact snapshot's rows to
//! it (if there is one), and walks the journal from record 1 in one replay
//! walk: it re-applies each `Submitted` record, replays every cycle through
//! the same transition functions the live cycle runs, and checks every
//! barrier's job digest. A cycle the snapshot covers skips only the slot
//! work; at the snapshot's barrier its slot lists take over, checked
//! against that barrier's slot digests and its archive digest against the
//! replayed archive. Later cycles cut and advance the slots and check the
//! slot digests too. `Finished` records are audit only. A journal whose
//! header names no format (format 1, written before the number) is
//! replayed without its snapshots. Requests
//! accepted after the last committed cycle come back queued, which is
//! what makes an accepted-but-uncommitted request survive a crash (see
//! `docs/SERVING.md`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Writer};

use slotsel_batch::{BatchScheduler, BatchSchedulerConfig};
use slotsel_core::money::Money;
use slotsel_core::node::{NodeId, Platform, Volume};
use slotsel_core::request::{Job, JobId, NodeRequirements, ResourceRequest};
use slotsel_core::slot::{Slot, SlotId};
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_core::tenant::{AdmitError, TenantId, TenantQuota, TenantUsage};
use slotsel_core::time::{Interval, TimeDelta, TimePoint};
use slotsel_core::window::Window;
use slotsel_env::EnvironmentConfig;
use slotsel_obs::journal::{read_journal, Journal, NoopJournal, SnapshotStore};
use slotsel_obs::metrics::{Metrics, NoopMetrics};
use slotsel_obs::{NoopSpanSink, Obs, SpanSink};

use crate::journal::{journal_path, snapshot_dir, RecoverError};
use crate::parallel::Parallelism;

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

/// One shard's persistent platform state.
///
/// It serializes without its platform, which the journal header's config
/// regenerates, and with each free slot as an `[id, node, start, end]`
/// row, its performance and price being its node's:
/// `{"slots":[[id,node,start,end],…],"next_id":N,"now":T,"horizon":H,
/// "platform_digest":D}`, `D` the [`Platform::digest`] the rows belong to.
/// Only [`recover_live`] reads that shape back, binding the rows to the
/// platform it regenerates.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ShardState {
    /// The shard's nodes.
    pub platform: Platform,
    /// Its current free slots.
    pub slots: SlotList,
    /// Its virtual clock.
    pub now: TimePoint,
    /// How far free time has been generated/extended.
    pub horizon: TimePoint,
}

impl Serialize for ShardState {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.key("slots");
        out.begin_array();
        for slot in self.slots.iter() {
            out.begin_array();
            out.u64(slot.id().0);
            out.u64(u64::from(slot.node().0));
            out.i64(slot.start().ticks());
            out.i64(slot.end().ticks());
            out.end_array();
        }
        out.end_array();
        out.field("next_id", &self.slots.next_id());
        out.field("now", &self.now);
        out.field("horizon", &self.horizon);
        out.field("platform_digest", &self.platform.digest());
        out.end_object();
    }
}

/// A snapshot shard's free slots as `(id, node, start, end)` rows, with
/// the counters they need and the [`Platform::digest`] of the platform
/// they were written against.
#[derive(Deserialize)]
struct ShardRows {
    slots: Vec<(SlotId, NodeId, TimePoint, TimePoint)>,
    next_id: SlotId,
    now: TimePoint,
    horizon: TimePoint,
    platform_digest: u64,
}

impl ShardRows {
    /// The shard `index` of a recovered service whose regenerated platform
    /// is `platform`, on the tree store the live cycle runs on. The rows
    /// must have been written against this platform (equal digests); each
    /// takes its performance and price from its node.
    fn bind(self, index: u32, platform: Platform) -> Result<ShardState, RecoverError> {
        let regenerated = platform.digest();
        if self.platform_digest != regenerated {
            return Err(RecoverError::PlatformMismatch {
                shard: index,
                snapshot: self.platform_digest,
                regenerated,
            });
        }
        let mut slots = Vec::with_capacity(self.slots.len());
        for (id, node, start, end) in self.slots {
            let Some(spec) = platform.get(node) else {
                return Err(RecoverError::UnknownNode {
                    shard: index,
                    slot: id.0,
                    node: node.0,
                });
            };
            let sorted = slots
                .last()
                .is_none_or(|last: &Slot| (last.start(), last.id()) < (start, id));
            if end < start || id >= self.next_id || !sorted {
                return Err(RecoverError::SnapshotDecode {
                    message: format!(
                        "shard {index}: slot {id} is out of order, ends before it \
                         starts or is not below next id {}",
                        self.next_id
                    ),
                });
            }
            slots.push(Slot::new(
                id,
                node,
                Interval::new(start, end),
                spec.performance(),
                spec.price_per_unit(),
            ));
        }
        Ok(ShardState {
            platform,
            slots: SlotList::from_parts(SlotStoreKind::Tree, slots, self.next_id),
            now: self.now,
            horizon: self.horizon,
        })
    }
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
    /// [`SlotList::digest`] of each shard's free slots, set only in a
    /// barrier: recovery checks its replayed slot lists against them.
    /// Empty in memory and in snapshots.
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

/// A snapshot payload as [`recover_live`] decodes it: the
/// `CycleCommitted` record [`LiveRecord::encode_checkpoint`] writes.
#[derive(Deserialize)]
enum SnapshotRecord {
    CycleCommitted { state: StateImage },
}

/// A journal header as [`recover_live`] decodes it: the `ServiceStarted`
/// record with its format number, `None` in format 1.
#[derive(Deserialize)]
enum Header {
    ServiceStarted {
        config: LiveConfig,
        format: Option<u64>,
    },
}

/// What recovery reads of a snapshot's state: its cycle, its shards not
/// yet bound to the platform, and its archive digest. Its jobs and usage
/// are replayed from the journal instead.
#[derive(Deserialize)]
struct StateImage {
    cycle: u64,
    shards: Vec<ShardRows>,
    archive_digest: u64,
}

/// The newest snapshot as replay uses it: its shards bound to the
/// regenerated platforms, whose slot lists replay takes over at the
/// snapshot's own barrier.
struct Snapshot {
    cycle: u64,
    shards: Vec<ShardState>,
    archive_digest: u64,
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
/// [`SlotList::digest`] hashes slots: what a barrier carries in place of
/// the live jobs. A request's node requirements, which a live submission
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
    /// Queued jobs held back because their tenant no longer fits its
    /// quota (re-enforcement at batch formation).
    pub over_quota: Vec<JobId>,
    /// Jobs whose windows finished as the clock advanced.
    pub finished: Vec<JobId>,
}

/// The live journal format [`LiveRecord::encode`] writes into the header,
/// and the newest [`recover_live`] reads. Format 1 is every journal
/// written before the number.
const FORMAT: u64 = 2;

/// One write-ahead record of a live service journal.
///
/// Same framing and [`crate::journal::DurableJournal`] mechanics as the
/// rolling schema; the schemas are distinguished by their header record
/// (`ServiceStarted` here vs `RunStarted` there).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LiveRecord {
    /// The service's configuration; always the first record. [`encode`]
    /// writes the journal format ahead of it, `{"ServiceStarted":
    /// {"format":2,"config":…}}`, which [`recover_live`] reads and the
    /// decoder ignores; a header without the number is format 1.
    ///
    /// [`encode`]: LiveRecord::encode
    ServiceStarted {
        /// The full serving configuration.
        config: LiveConfig,
    },
    /// A request passed admission. Committed (fsync'd) immediately, so an
    /// accepted request survives any later crash. The request leaves out
    /// each field that holds its default (`None`, or the default
    /// requirements): `{"Submitted":{"entry":{"id":0,"tenant":"t",
    /// "shard":0,"priority":1,"request":{"node_count":4,"volume":200,
    /// "budget":1500000},"submitted_cycle":0,"phase":"Queued"}}}`. Records
    /// that write every field decode alike.
    Submitted {
        /// The accepted job entry, phase `Queued`.
        entry: JobEntry,
    },
    /// A cycle committed a window (audit event). The window's slots are
    /// `[slot, node, length, cost]` rows: `{"Committed":{"cycle":C,
    /// "job":J,"shard":S,"window":{"start":T,"slots":[[24,6,67,134938],…]}}}`.
    /// Records that write each slot as an object decode alike.
    Committed {
        /// The committing cycle.
        cycle: u64,
        /// The job.
        job: u32,
        /// The shard the window was cut from.
        shard: u32,
        /// The committed window.
        window: Window,
    },
    /// A cycle deferred a batched job (audit event).
    Deferred {
        /// The cycle.
        cycle: u64,
        /// The deferred job.
        job: u32,
        /// Its shard.
        shard: u32,
    },
    /// A job's window finished as the clock advanced, and the job left
    /// the live table: `{"Finished":{"cycle":C,"job":J}}`. An audit record:
    /// replay retires the job by the clock, as the cycle did, and reads
    /// none of these. The decoder ignores the `entry` that format-1
    /// records may carry.
    Finished {
        /// The cycle.
        cycle: u64,
        /// The finished job.
        job: u32,
    },
    /// The cycle barrier. In the journal it holds only what replay cannot
    /// derive or must check — the cycle, `next_job`, the per-shard
    /// `slot_digests` and the `job_digest` — as written by
    /// [`LiveRecord::encode_barrier`]; a snapshot holds the same record
    /// with the full post-cycle state, its shards in the row shape only
    /// [`recover_live`] decodes (see [`ShardState`]).
    CycleCommitted {
        /// The service's state after this cycle.
        state: LiveState,
    },
}

impl LiveRecord {
    /// Serializes the record as one JSON line. The header carries the
    /// journal format, and `Submitted` and `Committed` records are written
    /// in the slim shapes their variants describe; the derived decoder
    /// reads those and the full shapes alike.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            LiveRecord::ServiceStarted { config } => encode_variant("ServiceStarted", |out| {
                out.field("format", &FORMAT);
                out.field("config", config);
            }),
            LiveRecord::Submitted { entry } => encode_variant("Submitted", |out| {
                out.key("entry");
                write_slim_entry(out, entry);
            }),
            LiveRecord::Committed {
                cycle,
                job,
                shard,
                window,
            } => encode_variant("Committed", |out| {
                out.field("cycle", cycle);
                out.field("job", job);
                out.field("shard", shard);
                out.key("window");
                window.serialize_rows(out);
            }),
            _ => encode_with(|out| self.serialize(out)),
        }
    }

    /// Parses a record from its JSON line.
    pub fn decode(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|error| error.to_string())
    }

    /// Encodes `CycleCommitted { state }` with the state in full — a
    /// snapshot payload — without cloning the state. Each shard is written
    /// in [`ShardState`]'s row shape: no platform, and no performance or
    /// price per slot, as the journal header fixes both.
    #[must_use]
    pub fn encode_checkpoint(state: &LiveState) -> String {
        encode_cycle_committed(|writer| state.serialize(writer))
    }

    /// Encodes the journal barrier of `state`: its cycle and next job id,
    /// one [`SlotList::digest`] per shard and the [`job_digest`] of its
    /// jobs. Its size does not depend on the platform or the jobs.
    #[must_use]
    pub fn encode_barrier(state: &LiveState) -> String {
        let slot_digests: Vec<u64> = state
            .shards
            .iter()
            .map(|shard| shard.slots.digest())
            .collect();
        encode_cycle_committed(|writer| {
            writer.begin_object();
            writer.field("cycle", &state.cycle);
            writer.field("next_job", &state.next_job);
            writer.field("slot_digests", &slot_digests);
            writer.field("job_digest", &job_digest(&state.jobs));
            writer.end_object();
        })
    }
}

/// `{"CycleCommitted":{"state":…}}`, with the state written by `state`.
fn encode_cycle_committed(state: impl FnOnce(&mut Writer<'_>)) -> String {
    encode_variant("CycleCommitted", |out| {
        out.key("state");
        state(out);
    })
}

/// `{"<variant>":{…}}`, with the members written by `members`.
fn encode_variant(variant: &str, members: impl FnOnce(&mut Writer<'_>)) -> String {
    encode_with(|out| {
        out.begin_object();
        out.key(variant);
        out.begin_object();
        members(out);
        out.end_object();
        out.end_object();
    })
}

/// The compact JSON `write` writes.
fn encode_with(write: impl FnOnce(&mut Writer<'_>)) -> String {
    // One allocation holds a record of the 64-node workloads; a longer
    // one, or a snapshot, grows from there.
    let mut out = String::with_capacity(256);
    write(&mut Writer::compact(&mut out));
    out
}

/// Writes `entry` in the derived field order, its request without the
/// fields that hold their defaults.
fn write_slim_entry(out: &mut Writer<'_>, entry: &JobEntry) {
    let request = &entry.request;
    out.begin_object();
    out.field("id", &entry.id);
    out.field("tenant", &entry.tenant);
    out.field("shard", &entry.shard);
    out.field("priority", &entry.priority);
    out.key("request");
    out.begin_object();
    out.field("node_count", &request.node_count());
    out.field("volume", &request.volume());
    out.field("budget", &request.budget());
    if *request.requirements() != NodeRequirements::default() {
        out.field("requirements", request.requirements());
    }
    if let Some(deadline) = request.deadline() {
        out.field("deadline", &deadline);
    }
    if let Some(span) = request.reference_span() {
        out.field("reference_span", &span);
    }
    out.end_object();
    out.field("submitted_cycle", &entry.submitted_cycle);
    out.field("phase", &entry.phase);
    out.end_object();
}

/// A live journal directory replayed back into a resumable service.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredService {
    /// The service, state as of the last barrier plus any trailing
    /// accepted-but-uncommitted submissions.
    pub service: LiveService,
    /// Byte length of the trusted journal prefix (everything that read
    /// back intact — unlike the rolling schema, trailing `Submitted`
    /// records are state, so nothing intact is discarded).
    pub resume_len: u64,
    /// Barriers in the trusted prefix — resumes the snapshot cadence.
    pub barriers: u64,
    /// Whether a torn tail was truncated.
    pub discarded_tail: bool,
    /// Trailing `Submitted` records re-applied on top of the last
    /// barrier.
    pub resubmitted: usize,
    /// The cycle of the snapshot whose slot lists replay took over at that
    /// cycle's barrier; `None` when replay cut and advanced every cycle's
    /// slots from the platform generated from the header's config.
    pub snapshot_cycle: Option<u64>,
    /// The journal format the header names: 1 (no number) or 2.
    /// Recovery of a format-1 journal reads none of its snapshots.
    pub format: u64,
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
    /// Creates a fresh service: each shard's platform and initial
    /// non-dedicated slot fragmentation are generated from
    /// `config.seed + shard`, exactly as the paper's environment model.
    ///
    /// # Panics
    ///
    /// Panics with the reason if [`LiveConfig::check`] refuses `config`.
    #[must_use]
    pub fn new(config: LiveConfig) -> Self {
        if let Err(reason) = config.check() {
            panic!("invalid live config: {reason}");
        }
        let env_config = EnvironmentConfig {
            interval_length: config.interval_length,
            ..EnvironmentConfig::with_node_count(config.nodes_per_shard)
        };
        let shards = (0..config.shards)
            .map(|shard| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(u64::from(shard)));
                let (platform, slots) = env_config.generate(&mut rng).into_platform_and_slots();
                ShardState {
                    platform,
                    slots,
                    now: TimePoint::ZERO,
                    horizon: TimePoint::new(config.interval_length),
                }
            })
            .collect();
        let mut usage = BTreeMap::new();
        for tenant in config.quotas.tenants.keys() {
            usage.insert(tenant.clone(), TenantUsage::default());
        }
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

    /// Every accepted job: the retired ones in id order, then the live
    /// ones in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobEntry> {
        self.retired.values().chain(&self.state.jobs)
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
        match self.job_index(id) {
            Ok(index) => Some(&self.state.jobs[index]),
            Err(_) => self.retired.get(&id.0),
        }
    }

    /// Where `id` is, or would be inserted, in the id-ordered live table.
    fn job_index(&self, id: JobId) -> Result<usize, usize> {
        self.state.jobs.binary_search_by_key(&id, |entry| entry.id)
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

    /// Jobs currently queued on `shard`.
    fn queued_on(&self, shard: u32) -> usize {
        self.state
            .jobs
            .iter()
            .filter(|entry| entry.shard == shard && matches!(entry.phase, JobPhase::Queued))
            .count()
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
                .min_by_key(|&shard| (self.queued_on(shard), shard))
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

    /// Runs one scheduling cycle: forms per-shard batches from the queue
    /// (re-enforcing quotas), schedules the shards one after another,
    /// commits the won windows into the persistent slot lists, advances
    /// the virtual clock, and retires finished jobs. `Parallelism` has
    /// one value, [`Parallelism::Serial`].
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
    #[allow(clippy::too_many_lines)]
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

        // --- Batch formation, quotas re-enforced -----------------------
        let formation = obs.phase("serve.batch_formation");
        // Walk the queue in scheduling order (priority desc, id asc) and
        // re-run admission against a tally that starts from committed
        // work only: if the quota table tightened since these jobs were
        // accepted, the ones that no longer fit sit out this cycle.
        let mut order: Vec<usize> = (0..self.state.jobs.len())
            .filter(|&i| matches!(self.state.jobs[i].phase, JobPhase::Queued))
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.state.jobs[i].priority), i));

        let mut tally: BTreeMap<&str, TenantUsage> = BTreeMap::new();
        for entry in &self.state.jobs {
            if matches!(entry.phase, JobPhase::Scheduled { .. }) {
                tally
                    .entry(entry.tenant.as_str())
                    .or_default()
                    .charge(&entry.request, false);
            }
        }
        let mut batches: Vec<Vec<Job>> = vec![Vec::new(); self.config.shards as usize];
        let mut batched = 0;
        for index in order {
            let entry = &self.state.jobs[index];
            let admitted = self
                .config
                .quotas
                .quota_for(entry.tenant.as_str())
                .and_then(|quota| {
                    let usage = tally.entry(entry.tenant.as_str()).or_default();
                    quota.admit(usage, entry.request.node_count(), entry.request.budget())
                });
            match admitted {
                Ok(()) => {
                    tally
                        .entry(entry.tenant.as_str())
                        .or_default()
                        .charge(&entry.request, true);
                    batches[entry.shard as usize].push(Job::new(
                        entry.id,
                        entry.priority,
                        entry.request.clone(),
                    ));
                    batched += 1;
                }
                Err(_) => outcome.over_quota.push(entry.id),
            }
        }
        obs.spans.attr_u64("batched", batched as u64);
        obs.spans
            .attr_u64("over_quota", outcome.over_quota.len() as u64);
        formation.end(&mut obs, None);

        // --- Per-shard scheduling -------------------------------------
        // Each shard's two-phase schedule is a pure function of its own
        // (platform, slots, batch); the shards run one after another on
        // this thread, each subtree on track `shard + 1` under the cycle
        // root. The scheduler reports to no recorder or metrics sink.
        let scheduler = BatchScheduler::new(self.config.scheduler.clone());
        let mut schedules = Vec::with_capacity(batches.len());
        for (shard, jobs) in batches.iter().enumerate() {
            let state = &self.state.shards[shard];
            obs.spans.set_track(shard as u32 + 1);
            let mut scheduling = Obs::dark().with_spans(&mut *obs.spans);
            let phase = scheduling.phase("serve.shard");
            scheduling.spans.attr_u64("shard", shard as u64);
            scheduling.spans.attr_u64("jobs", jobs.len() as u64);
            schedules.push(scheduler.schedule_observed(
                &state.platform,
                &state.slots,
                jobs,
                &mut scheduling,
            ));
            phase.end(&mut scheduling, None);
        }
        obs.spans.set_track(0);

        // --- Serial commit, shard order --------------------------------
        let commit = obs.phase("serve.commit");
        let mut decisions = Vec::with_capacity(batched);
        for (shard, schedule) in schedules.iter().enumerate() {
            let slots = &mut self.state.shards[shard].slots;
            for assignment in &schedule.assignments {
                let job = assignment.job.id();
                let window = assignment
                    .window
                    .as_ref()
                    .filter(|window| reserve_window(slots, window));
                if journaling {
                    let record = match window {
                        Some(window) => LiveRecord::Committed {
                            cycle,
                            job: job.0,
                            shard: shard as u32,
                            window: window.clone(),
                        },
                        None => LiveRecord::Deferred {
                            cycle,
                            job: job.0,
                            shard: shard as u32,
                        },
                    };
                    journal.append(&record.encode());
                }
                match window {
                    Some(_) => outcome.committed.push((job, shard as u32)),
                    None => outcome.deferred.push(job),
                }
                decisions.push((shard as u32, job.0, window.cloned()));
            }
        }
        apply_decisions(&mut self.state.jobs, cycle, decisions);
        obs.spans
            .attr_u64("committed", outcome.committed.len() as u64);
        obs.spans
            .attr_u64("deferred", outcome.deferred.len() as u64);
        commit.end(&mut obs, None);

        // --- Advance the virtual clock ---------------------------------
        let advance = obs.phase("serve.advance");
        self.advance_clock(true);
        obs.spans.attr_u64("shards", self.state.shards.len() as u64);
        advance.end(&mut obs, None);

        // --- Retire finished windows, releasing quota ------------------
        let retire = obs.phase("serve.retire");
        self.retire_finished(cycle, |job| {
            outcome.finished.push(job);
            if journaling {
                journal.append(&LiveRecord::Finished { cycle, job: job.0 }.encode());
            }
        });

        obs.spans
            .attr_u64("finished", outcome.finished.len() as u64);
        retire.end(&mut obs, None);

        self.close_cycle();

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
            (
                "slotsel_serve_quota_deferrals_total",
                outcome.over_quota.len(),
            ),
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

    /// Advances every shard's virtual clock by one cycle and, with
    /// `slots`, its free slots: replay of a cycle the snapshot covers
    /// advances the clocks only.
    fn advance_clock(&mut self, slots: bool) {
        let advance = TimeDelta::new(self.config.cycle_advance);
        for shard in &mut self.state.shards {
            // Nodes are free beyond the generated non-dedicated interval:
            // each node's free time grows by one cycle's worth past the
            // horizon, and free time that slipped into the past is
            // trimmed, in one pass.
            let grown = Interval::new(shard.horizon, shard.horizon + advance);
            shard.horizon += advance;
            shard.now += advance;
            if slots {
                shard
                    .slots
                    .advance_horizon(&shard.platform, grown, shard.now);
            }
        }
    }

    /// Marks every scheduled job whose window has finished by its shard's
    /// clock as finished in `cycle`, then moves every `Finished` job out of
    /// the live table into the archive, in id order, calling `each` with
    /// its id. The cycle's retire step and replay share it.
    fn retire_finished(&mut self, cycle: u64, mut each: impl FnMut(JobId)) {
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
        let finished = self
            .state
            .jobs
            .extract_if(.., |entry| matches!(entry.phase, JobPhase::Finished { .. }));
        for entry in finished {
            each(entry.id);
            archive(&mut self.retired, &mut self.state.archive_digest, entry);
        }
    }

    /// Counts a finished cycle and recomputes usage from the settled jobs.
    fn close_cycle(&mut self) {
        self.state.cycle += 1;
        self.recompute_usage();
    }

    /// Applies a journaled `Submitted` record: the request was durably
    /// accepted, so it enters the queue exactly as admitted, and its
    /// tenant gets a usage entry as at admission. Usage is recomputed at
    /// the next barrier, or once recovery has read the whole journal.
    fn reapply(&mut self, entry: JobEntry) {
        self.state.next_job = self.state.next_job.max(entry.id.0 + 1);
        if !self.state.usage.contains_key(entry.tenant.as_str()) {
            self.state
                .usage
                .insert(entry.tenant.as_str().to_owned(), TenantUsage::default());
        }
        self.state.jobs.push(entry);
    }

    /// Binds a decoded snapshot's shards to the platforms this service
    /// generated for the same shards (see [`ShardRows::bind`]).
    fn bind(&self, image: StateImage) -> Result<Snapshot, RecoverError> {
        if image.shards.len() != self.state.shards.len() {
            return Err(RecoverError::SnapshotDecode {
                message: format!(
                    "snapshot holds {} shards, the service has {}",
                    image.shards.len(),
                    self.state.shards.len()
                ),
            });
        }
        let shards = image
            .shards
            .into_iter()
            .zip(&self.state.shards)
            .zip(0..)
            .map(|((rows, fresh), index)| rows.bind(index, fresh.platform.clone()))
            .collect::<Result<_, _>>()?;
        Ok(Snapshot {
            cycle: image.cycle,
            shards,
            archive_digest: image.archive_digest,
        })
    }

    /// Refuses a `Committed`/`Deferred` record of a cycle the journal has
    /// not reached.
    fn check_cycle(&self, cycle: u64, record_no: u64) -> Result<(), RecoverError> {
        if cycle <= self.state.cycle {
            return Ok(());
        }
        Err(RecoverError::ChainBroken {
            detail: format!(
                "record {record_no} belongs to cycle {cycle} but the journal is at cycle {}",
                self.state.cycle
            ),
        })
    }

    /// Replays the cycle `barrier` closes through the live cycle's steps:
    /// its `decisions`, in record order, cut their windows out of the
    /// slots and settle the jobs, the clock advances and retires finished
    /// windows, and the result must match the barrier's slot digests and
    /// `job_digest`. A cycle the `snapshot` covers skips the slot work
    /// (the cuts, the horizon growth and the slot digests); at the
    /// snapshot's own barrier its slot lists take over (see
    /// [`take_over`](Self::take_over)) and meet the slot digests.
    fn replay_cycle(
        &mut self,
        barrier: &LiveState,
        job_digest: u64,
        decisions: Vec<Decision>,
        snapshot: &mut Option<Snapshot>,
    ) -> Result<(), String> {
        let cycle = self.state.cycle;
        if barrier.cycle != cycle + 1 {
            return Err(format!(
                "cycle {} follows a replay at cycle {cycle}",
                barrier.cycle
            ));
        }
        let covered = snapshot
            .as_ref()
            .is_some_and(|snapshot| barrier.cycle <= snapshot.cycle);
        let shards = self.state.shards.len();
        // A covered cycle cuts nothing: the snapshot's slot lists hold its
        // windows' cuts.
        let cuts = if covered { &[][..] } else { &decisions[..] };
        for (shard, _, window) in cuts {
            let Some(window) = window else { continue };
            let Some(state) = self.state.shards.get_mut(*shard as usize) else {
                return Err(format!("a commit names shard {shard} of {shards}"));
            };
            if !reserve_window(&mut state.slots, window) {
                return Err(format!(
                    "the window committed on shard {shard} at {} is not free",
                    window.start()
                ));
            }
        }
        apply_decisions(&mut self.state.jobs, cycle, decisions);
        self.advance_clock(!covered);
        self.retire_finished(cycle, |_| {});
        self.close_cycle();
        let slots_replayed = match snapshot.take_if(|snapshot| snapshot.cycle == barrier.cycle) {
            Some(snapshot) => {
                self.take_over(snapshot)?;
                true
            }
            None => !covered,
        };
        if slots_replayed {
            check_digests(&self.state.shards, &barrier.slot_digests)?;
        }
        self.state.next_job = barrier.next_job;
        check_job_digest(&self.state.jobs, job_digest)
    }

    /// Hands the slot lists over to the snapshot's at its own barrier. Its
    /// clocks must be the replayed ones, and its archive digest the
    /// replayed archive's.
    fn take_over(&mut self, snapshot: Snapshot) -> Result<(), String> {
        if snapshot.archive_digest != self.state.archive_digest {
            return Err(format!(
                "the replayed archive digests to {:#018x}, the snapshot says {:#018x}",
                self.state.archive_digest, snapshot.archive_digest
            ));
        }
        for (index, (shard, taken)) in self
            .state
            .shards
            .iter_mut()
            .zip(snapshot.shards)
            .enumerate()
        {
            if (taken.now, taken.horizon) != (shard.now, shard.horizon) {
                return Err(format!(
                    "the snapshot's shard {index} is at {} with horizon {}, the replay at {} \
                     with horizon {}",
                    taken.now, taken.horizon, shard.now, shard.horizon
                ));
            }
            shard.slots = taken.slots;
        }
        Ok(())
    }
}

/// Checks a replayed job table against a barrier's job digest.
fn check_job_digest(jobs: &[JobEntry], want: u64) -> Result<(), String> {
    let got = job_digest(jobs);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "the replayed jobs digest to {got:#018x}, the barrier says {want:#018x}"
        ))
    }
}

/// Checks replayed slot lists against a barrier's per-shard digests.
fn check_digests(shards: &[ShardState], digests: &[u64]) -> Result<(), String> {
    if digests.len() != shards.len() {
        return Err(format!(
            "{} slot digests for {} shards",
            digests.len(),
            shards.len()
        ));
    }
    for (index, (shard, &want)) in shards.iter().zip(digests).enumerate() {
        let got = shard.slots.digest();
        if got != want {
            return Err(format!(
                "shard {index}'s replayed free slots digest to {got:#018x}, \
                 the barrier says {want:#018x}"
            ));
        }
    }
    Ok(())
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

/// The cycle in progress during replay: its decisions so far, in record
/// order, and every job it has decided.
#[derive(Debug, Default)]
struct PendingCycle {
    decisions: Vec<Decision>,
    decided: BTreeSet<u32>,
}

impl PendingCycle {
    /// Notes a `Committed`/`Deferred` decision for `job`. A cycle decides
    /// each batched job once, so a second decision means the earlier ones
    /// came from a run of this cycle lost to a crash: they are dropped.
    fn decide(&mut self, shard: u32, job: u32, window: Option<Window>) {
        if !self.decided.insert(job) {
            self.clear();
            self.decided.insert(job);
        }
        self.decisions.push((shard, job, window));
    }

    fn clear(&mut self) {
        self.decisions.clear();
        self.decided.clear();
    }
}

/// Cuts a committed window's reservations out of a shard's free slots.
///
/// The window was found on this same list (possibly after earlier commits
/// this cycle split some slots under fresh ids), so reservations are
/// re-resolved **by node and time**, not by the window's recorded slot
/// ids: for each window slot, the free slot currently covering the task's
/// span on that node hosts the cut, clamped to the slot's end exactly as
/// `csa::apply_cut` clamps rectangular reservations. Returns `false` —
/// leaving the list unchanged — when any span is no longer free (the
/// caller then defers the job instead of committing it).
fn reserve_window(slots: &mut SlotList, window: &Window) -> bool {
    let runtime = window.runtime();
    let mut reservations = Vec::with_capacity(window.size());
    for task in window.slots() {
        let task_span = Interval::with_length(window.start(), task.length());
        // An indexed lookup on the tree store; a linear scan on the Vec.
        let Some(slot) = slots.find_covering(task.node(), task_span) else {
            return false;
        };
        let end = (window.start() + runtime).earliest(slot.end());
        reservations.push((slot.id(), Interval::new(window.start(), end)));
    }
    slots.cut(&reservations, TimeDelta::ZERO).is_ok()
}

/// Replays a live journal directory back into a resumable service.
///
/// The platform always comes from the header: replay starts from the
/// service [`LiveService::new`] generates from the `ServiceStarted` config
/// and walks the journal from record 1. Each `Submitted` record queues its
/// job (they were fsync'd at admission — losing them would drop accepted
/// work). Each cycle's `Committed` and `Deferred` decisions are buffered,
/// and at that cycle's barrier replay runs the live cycle's steps: the
/// windows are cut out of the slot lists, the decisions settle the jobs,
/// the clock advance runs and retires finished windows, and the result is
/// checked against the barrier's slot and job digests. `Finished` records
/// are audit only: replay retires jobs by the clock, as the cycle did.
///
/// The newest intact snapshot, if any, saves the slot work of the cycles
/// it covers. Its shards' rows are bound to the regenerated platform when
/// it is read: the snapshot's platform digest must equal the platform's,
/// every row must name one of its nodes, and each slot takes its node's
/// performance and price. A covered cycle skips the cuts, the horizon
/// growth and the slot digests, while its jobs, clocks and job digest are
/// replayed in full; at the snapshot's own barrier its slot lists take
/// over, checked against that barrier's slot digests, and the replayed
/// clocks and archive must match the snapshot's.
///
/// The header's format number says how much of that applies. Format 2,
/// what [`LiveRecord::encode`] writes, is read in full. A header without
/// the number is format 1: its snapshots are not read, as they may be in
/// shapes this reader does not know.
///
/// Records after the last barrier belong to the interrupted cycle, which
/// re-runs, so its decisions are dropped; so are a torn cycle's that a
/// later record shows were superseded (a `Submitted` record, or a second
/// decision for the same job — the re-run of that cycle). A torn final
/// line is truncated, exactly as the rolling recovery does. A snapshot
/// claiming more cycles than the journal means the files are not from the
/// same run, and recovery refuses rather than guesses.
///
/// # Errors
///
/// Returns a [`RecoverError`] for an unreadable/corrupt journal, a
/// missing or foreign (`RunStarted`) header, a header whose config
/// [`LiveConfig::check`] refuses ([`RecoverError::Decode`] of record 1), a
/// format above 2 or a barrier without a job digest, as written before
/// barriers carried one ([`RecoverError::UnsupportedFormat`]), an
/// unparsable record or snapshot, a snapshot shard written against
/// another platform ([`RecoverError::PlatformMismatch`]) or holding a slot
/// on a node its platform does not have ([`RecoverError::UnknownNode`]), or
/// an inconsistent record chain — including a `Submitted` record below the
/// next job id, a commit whose window is no longer free, a replay that
/// disagrees with a barrier's slot or job digest, and a snapshot whose
/// clocks or archive digest disagree with the replay at its barrier. A
/// `Committed` window with no slots, two slots on one node or a slot of no
/// positive length does not decode ([`RecoverError::Decode`]).
pub fn recover_live(dir: &Path) -> Result<RecoveredService, RecoverError> {
    let tail = read_journal(&journal_path(dir))?;
    if tail.records.is_empty() {
        return Err(RecoverError::EmptyJournal);
    }
    let mut records = tail.records.iter();
    let first = records.next().expect("checked non-empty");
    // A first record that is not a ServiceStarted — including one from
    // the rolling schema, which does not parse as a header at all — means
    // this is not a live journal.
    let Ok(Header::ServiceStarted { config, format }) = serde_json::from_str(first) else {
        return Err(RecoverError::MissingHeader);
    };
    let format = format.unwrap_or(1);
    if !(1..=FORMAT).contains(&format) {
        return Err(RecoverError::UnsupportedFormat {
            record: 1,
            detail: format!("format {format}; this build reads formats 1 and {FORMAT}"),
        });
    }
    config
        .check()
        .map_err(|message| RecoverError::Decode { record: 1, message })?;

    let mut service = LiveService::new(config);
    let mut snapshot = match format {
        1 => None,
        _ => latest_snapshot(dir)?
            .map(|image| service.bind(image))
            .transpose()?,
    };
    let snapshot_cycle = snapshot.as_ref().map(|snapshot| snapshot.cycle);

    let mut barriers = 0u64;
    let mut resubmitted = 0;
    let mut pending = PendingCycle::default();
    for (index, payload) in records.enumerate() {
        let record_no = index as u64 + 2;
        let record = LiveRecord::decode(payload).map_err(|message| RecoverError::Decode {
            record: record_no,
            message,
        })?;
        match record {
            LiveRecord::ServiceStarted { .. } => {
                return Err(RecoverError::ChainBroken {
                    detail: format!("second ServiceStarted at record {record_no}"),
                });
            }
            LiveRecord::CycleCommitted { state } => {
                let Some(job_digest) = state.job_digest else {
                    return Err(RecoverError::UnsupportedFormat {
                        record: record_no,
                        detail: "a barrier without a job digest, as written before \
                                 barriers carried one"
                            .to_owned(),
                    });
                };
                let decisions = std::mem::take(&mut pending).decisions;
                service
                    .replay_cycle(&state, job_digest, decisions, &mut snapshot)
                    .map_err(|detail| RecoverError::ChainBroken {
                        detail: format!("barrier at record {record_no}: {detail}"),
                    })?;
                barriers += 1;
                resubmitted = 0;
            }
            LiveRecord::Submitted { entry } => {
                if entry.id.0 < service.state.next_job {
                    return Err(RecoverError::ChainBroken {
                        detail: format!(
                            "Submitted record {record_no} holds job {}, below the next job id {}",
                            entry.id.0, service.state.next_job
                        ),
                    });
                }
                // No cycle's records straddle an admission: decisions
                // before it belong to a cycle lost to a crash.
                pending.clear();
                service.reapply(entry);
                resubmitted += 1;
            }
            LiveRecord::Committed {
                cycle,
                job,
                shard,
                window,
            } => {
                service.check_cycle(cycle, record_no)?;
                pending.decide(shard, job, Some(window));
            }
            LiveRecord::Deferred { cycle, job, shard } => {
                service.check_cycle(cycle, record_no)?;
                pending.decide(shard, job, None);
            }
            LiveRecord::Finished { .. } => {}
        }
    }
    if let Some(snapshot) = snapshot {
        return Err(RecoverError::SnapshotNewerThanJournal {
            snapshot_cycle: snapshot.cycle.min(u64::from(u32::MAX)) as u32,
            journal_cycle: service.state.cycle.min(u64::from(u32::MAX)) as u32,
        });
    }
    service.recompute_usage();

    Ok(RecoveredService {
        service,
        resume_len: tail.valid_len,
        barriers,
        discarded_tail: tail.torn,
        resubmitted,
        snapshot_cycle,
        format,
    })
}

/// The state in the newest intact snapshot of `dir`, if any.
fn latest_snapshot(dir: &Path) -> Result<Option<StateImage>, RecoverError> {
    let snapshots = snapshot_dir(dir);
    if !snapshots.is_dir() {
        return Ok(None);
    }
    let Some((_, payload)) = SnapshotStore::open(&snapshots)?.latest()? else {
        return Ok(None);
    };
    match serde_json::from_str(&payload) {
        Ok(SnapshotRecord::CycleCommitted { state }) => Ok(Some(state)),
        Err(error) => Err(RecoverError::SnapshotDecode {
            message: error.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::DurableJournal;
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
        let windows: Vec<&Window> = service
            .jobs()
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
    fn batch_formation_reenforces_a_tightened_quota() {
        let mut service = LiveService::new(tiny_config(1));
        service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        // Tighten after admission — as if the quota file shrank between
        // restarts: only one job's worth of nodes fits now.
        service.config.quotas.tenants.insert(
            "alice".to_owned(),
            TenantQuota {
                max_nodes: Some(2),
                ..TenantQuota::unlimited()
            },
        );
        let outcome = service.run_cycle();
        assert_eq!(outcome.committed.len(), 1);
        assert_eq!(outcome.over_quota.len(), 1);
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
