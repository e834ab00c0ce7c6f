//! The live journal protocol: the [`LiveRecord`] schema and its encoders,
//! the snapshot and header shapes recovery decodes, and the replay walk,
//! [`recover_live`].
//!
//! A journal holds a `ServiceStarted` header naming the journal format,
//! one durable (fsync'd) `Submitted` record per admitted request, each
//! cycle's `Committed`/`Deferred` decisions, a `Finished` record naming
//! each retired job and a `CycleCommitted` barrier. Barriers carry only
//! what cannot be derived: the platform is regenerated from the header, a
//! shard's free slots change only by the windows its `Committed` records
//! cut and by the clock advance, and the job table only by `Submitted`
//! records, the decisions and the clock. So a barrier holds the cycle, the
//! next job id, a digest of each shard's free slots and one [`job_digest`]
//! of the live jobs: about 150 bytes, whatever the platform and the load.
//! The rest of the state goes only into the periodic snapshot, handed to
//! the journal lazily through
//! [`Journal::checkpoint`](slotsel_obs::journal::Journal::checkpoint),
//! its shards in [`ShardState`]'s row shape, with the retired jobs'
//! [`LiveState::archive_digest`].

use std::collections::BTreeSet;
use std::path::Path;

use serde::{Deserialize, Serialize, Writer};

use slotsel_core::request::NodeRequirements;
use slotsel_core::tenant::TenantUsage;
use slotsel_core::window::Window;
use slotsel_obs::journal::{read_journal, SnapshotStore};
use slotsel_obs::Obs;

use super::shard::ShardRows;
use super::{
    apply_decisions, job_digest, Decision, JobEntry, LiveConfig, LiveService, LiveState, ShardState,
};
use crate::journal::{journal_path, snapshot_dir, RecoverError};

/// A snapshot payload as [`recover_live`] decodes it: the
/// `CycleCommitted` record [`LiveRecord::encode_checkpoint`] writes.
#[derive(Deserialize)]
pub(super) enum SnapshotRecord {
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
pub(super) struct StateImage {
    cycle: u64,
    shards: Vec<ShardRows>,
    archive_digest: u64,
}

/// The newest snapshot as replay uses it: its shards bound to the
/// regenerated platforms, whose slot lists replay takes over at the
/// snapshot's own barrier.
pub(super) struct Snapshot {
    pub(super) cycle: u64,
    pub(super) shards: Vec<ShardState>,
    pub(super) archive_digest: u64,
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
            } => Self::encode_decision(*cycle, *job, *shard, Some(window)),
            LiveRecord::Deferred { cycle, job, shard } => {
                Self::encode_decision(*cycle, *job, *shard, None)
            }
            _ => encode_with(|out| self.serialize(out)),
        }
    }

    /// Encodes the `Committed` record of `job`'s `window` on `shard` in
    /// `cycle`, or without a window its `Deferred` record, as
    /// [`encode`](Self::encode) does, without cloning the window into a
    /// record.
    #[must_use]
    pub(super) fn encode_decision(
        cycle: u64,
        job: u32,
        shard: u32,
        window: Option<&Window>,
    ) -> String {
        let variant = if window.is_some() {
            "Committed"
        } else {
            "Deferred"
        };
        encode_variant(variant, |out| {
            out.field("cycle", &cycle);
            out.field("job", &job);
            out.field("shard", &shard);
            if let Some(window) = window {
                out.key("window");
                window.serialize_rows(out);
            }
        })
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
    /// one [`SlotList::digest`](slotsel_core::slotlist::SlotList::digest)
    /// per shard and the [`job_digest`] of its jobs. Its size does not
    /// depend on the platform or the jobs.
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

impl LiveService {
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
    pub(super) fn bind(&self, image: StateImage) -> Result<Snapshot, RecoverError> {
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
    /// slots and settle the jobs, the cycle closes through
    /// [`settle`](Self::settle), and the result must match the barrier's
    /// slot digests and `jobs_digest`. A cycle the `snapshot` covers skips
    /// the slot work (the cuts, the horizon growth and the slot digests);
    /// at the snapshot's own barrier its slot lists take over (see
    /// [`take_over`](Self::take_over)) and meet the slot digests.
    fn replay_cycle(
        &mut self,
        barrier: &LiveState,
        jobs_digest: u64,
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
            if !state.reserve(window) {
                return Err(format!(
                    "the window committed on shard {shard} at {} is not free",
                    window.start()
                ));
            }
        }
        apply_decisions(&mut self.state.jobs, cycle, decisions);
        self.settle(!covered, &mut Obs::dark(), |_| {});
        let slots_replayed = match snapshot.take_if(|snapshot| snapshot.cycle == barrier.cycle) {
            Some(snapshot) => {
                self.take_over(snapshot)?;
                true
            }
            None => !covered,
        };
        if slots_replayed {
            let digests = &barrier.slot_digests;
            if digests.len() != shards {
                return Err(format!(
                    "{} slot digests for {shards} shards",
                    digests.len()
                ));
            }
            for (index, (shard, &want)) in self.state.shards.iter().zip(digests).enumerate() {
                shard.check_digest(index, want)?;
            }
        }
        self.state.next_job = barrier.next_job;
        let got = job_digest(&self.state.jobs);
        if got != jobs_digest {
            return Err(format!(
                "the replayed jobs digest to {got:#018x}, the barrier says {jobs_digest:#018x}"
            ));
        }
        Ok(())
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
        let shards = self.state.shards.iter_mut().zip(snapshot.shards);
        for (index, (shard, taken)) in shards.enumerate() {
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
                let Some(jobs_digest) = state.job_digest else {
                    return Err(RecoverError::UnsupportedFormat {
                        record: record_no,
                        detail: "a barrier without a job digest, as written before \
                                 barriers carried one"
                            .to_owned(),
                    });
                };
                let decisions = std::mem::take(&mut pending).decisions;
                service
                    .replay_cycle(&state, jobs_digest, decisions, &mut snapshot)
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
