//! Typed write-ahead records and crash recovery for the rolling
//! simulation.
//!
//! [`slotsel_obs::journal`] provides the payload-agnostic mechanics —
//! CRC framing, fsync'd commit batches, torn-tail detection, snapshot
//! files. This module owns what the payloads *mean*: the
//! [`JournalRecord`] schema a journaled rolling run
//! ([`crate::rolling::simulate_with_recovery_observed`]) appends, the
//! serializable [`RollingState`] those records checkpoint, and the
//! [`recover`] path that turns a journal directory back into a resumable
//! simulation.
//!
//! ## Record stream shape
//!
//! ```text
//! RunStarted { config, jobs }                    — committed immediately
//! ┌ per executed cycle ─────────────────────────────────────────────┐
//! │ Readmitted / Committed / Deferred / Disrupted / Rescued /       │
//! │ Parked / Lost …                               (the audit trail) │
//! │ CycleCommitted { state }                      — the barrier;    │
//! │                                                 commit + fsync  │
//! └─────────────────────────────────────────────────────────────────┘
//! Lost …                  (victims still waiting when the run ends,
//!                          in the last cycle, after its barrier)
//! RunFinished { report }                         — committed
//! ```
//!
//! The barrier record carries the complete cross-cycle
//! [`RollingState`], so replay is mechanical: the last barrier wins and
//! nothing is re-derived from the event records (which exist for audit
//! and tooling, not reconstruction). A crash mid-cycle leaves events
//! without their barrier; recovery discards them and the resumed run
//! re-executes that cycle deterministically — same per-cycle environment
//! seed, same checkpointed disruption-RNG position — reproducing the
//! uninterrupted run bit for bit. That equivalence is pinned by the
//! crash-at-any-event property tests (see `docs/DURABILITY.md`).

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use slotsel_core::request::{Job, JobId};
use slotsel_core::window::Window;
use slotsel_obs::journal::{read_journal, Journal, JournalReadError, SnapshotStore, WalJournal};
use slotsel_obs::TraceEvent;

use crate::disruption::{DisruptionEvent, DisruptionModelState};
use crate::metrics::SurvivalMetrics;
use crate::rolling::{CycleRecord, RollingConfig, RollingReport};

/// A parked disruption victim waiting out its retry backoff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParkedEntry {
    /// The job, already priority-aged for its re-admission.
    pub job: Job,
    /// First cycle at which it may re-enter the batch.
    pub eligible_at: u32,
}

/// The complete cross-cycle mutable state of a rolling simulation, as of
/// a cycle-commit barrier.
///
/// The loop in `sim/rolling.rs` keeps everything it carries between
/// cycles in one value of this type and clones it for each barrier —
/// restoring it and re-entering the loop at
/// [`next_cycle`](RollingState::next_cycle) continues the run exactly.
/// The per-cycle environment is *not* part of the state: it is
/// regenerated from `config.seed + cycle` each iteration, crashed run
/// and resumed run alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingState {
    /// The next cycle the loop would execute.
    pub next_cycle: u32,
    /// Jobs pending admission, priority-aged as of the barrier.
    pub pending: Vec<Job>,
    /// Disruption victims waiting out a retry backoff.
    pub parked: Vec<ParkedEntry>,
    /// `(job, cycle)` of each victim's first disruption, for latency
    /// accounting when it eventually completes.
    pub victim_since: Vec<(JobId, u32)>,
    /// Disruption retry counts per job.
    pub attempts_of: Vec<(JobId, u32)>,
    /// `(job, cycle)` for every completed job so far.
    pub completions: Vec<(JobId, u32)>,
    /// Per-cycle records so far.
    pub cycles: Vec<CycleRecord>,
    /// Survival bookkeeping so far.
    pub survival: SurvivalMetrics,
    /// The disruption model's RNG position and standing outages; `None`
    /// for disruption-free runs (and before the first barrier).
    pub model: Option<DisruptionModelState>,
}

impl RollingState {
    /// The state of a run that has not executed any cycle yet.
    #[must_use]
    pub fn initial(jobs: Vec<Job>) -> Self {
        RollingState {
            next_cycle: 0,
            pending: jobs,
            parked: Vec::new(),
            victim_since: Vec::new(),
            attempts_of: Vec::new(),
            completions: Vec::new(),
            cycles: Vec::new(),
            survival: SurvivalMetrics::new(),
            model: None,
        }
    }
}

/// One write-ahead record of a journaled rolling run.
///
/// Event variants are the durable audit trail — every admission, window
/// commit, disruption and recovery action, in execution order. The
/// [`CycleCommitted`](JournalRecord::CycleCommitted) barrier carries the
/// full [`RollingState`] and is what recovery actually replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The run's full inputs; always the first record, committed before
    /// the first cycle so recovery is self-contained.
    RunStarted {
        /// The simulation configuration.
        config: RollingConfig,
        /// The initial batch.
        jobs: Vec<Job>,
    },
    /// A parked victim re-entered the pending batch.
    Readmitted {
        /// Cycle of the re-admission.
        cycle: u32,
        /// The job re-admitted.
        job: u32,
    },
    /// The scheduler committed a window for a job (the scan commit).
    Committed {
        /// Cycle of the commit.
        cycle: u32,
        /// The job committed.
        job: u32,
        /// The committed window.
        window: Window,
    },
    /// The scheduler deferred a job to the next cycle, priority-aged.
    Deferred {
        /// Cycle of the deferral.
        cycle: u32,
        /// The deferred job.
        job: u32,
        /// Its aged priority going forward.
        priority: u32,
    },
    /// A disruption was injected after commit.
    Disrupted {
        /// Cycle of the injection.
        cycle: u32,
        /// The injected event.
        event: DisruptionEvent,
    },
    /// A recovery policy rescued a disruption victim.
    Rescued {
        /// Cycle of the rescue.
        cycle: u32,
        /// The rescued job.
        job: u32,
        /// `"retry"` or `"migrate"`.
        via: String,
    },
    /// A victim was parked for a later cycle.
    Parked {
        /// Cycle of the parking decision.
        cycle: u32,
        /// The parked job.
        job: u32,
        /// First cycle at which it may return.
        eligible_at: u32,
    },
    /// A victim was lost for good.
    Lost {
        /// Cycle of the loss.
        cycle: u32,
        /// The lost job.
        job: u32,
    },
    /// The cycle barrier: the complete post-cycle state. Written last in
    /// its cycle's batch and made durable by the commit that follows.
    CycleCommitted {
        /// The full cross-cycle state after this cycle.
        state: RollingState,
    },
    /// The run completed; carries the final report so recovering a
    /// finished journal needs no re-execution.
    RunFinished {
        /// The run's final report.
        report: RollingReport,
    },
}

impl JournalRecord {
    /// Serializes the record as one JSON line (no embedded newlines).
    #[must_use]
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("journal records always serialize")
    }

    /// Parses a record from its JSON line.
    pub fn decode(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|error| error.to_string())
    }

    /// The trace event the rolling loop emits for this record: one per
    /// re-admission, disruption, rescue, parking and loss. Commits,
    /// deferrals, barriers and the run's header and footer have none.
    pub(crate) fn into_trace_event(self) -> Option<TraceEvent> {
        Some(match self {
            JournalRecord::Readmitted { cycle, job } => TraceEvent::JobReadmitted {
                cycle: u64::from(cycle),
                job: u64::from(job),
            },
            JournalRecord::Disrupted { cycle, event } => {
                let cycle = u64::from(cycle);
                match event {
                    DisruptionEvent::SlotRevoked { node, span } => TraceEvent::SlotRevoked {
                        cycle,
                        node: u64::from(node.0),
                        span_start: span.start().ticks(),
                        span_end: span.end().ticks(),
                    },
                    DisruptionEvent::NodeFailed {
                        node,
                        repair_cycles,
                    } => TraceEvent::NodeFailed {
                        cycle,
                        node: u64::from(node.0),
                        repair_cycles: u64::from(repair_cycles),
                    },
                    DisruptionEvent::NodeRestored { node } => TraceEvent::NodeRestored {
                        cycle,
                        node: u64::from(node.0),
                    },
                    DisruptionEvent::NodeDegraded { node, from, to } => TraceEvent::NodeDegraded {
                        cycle,
                        node: u64::from(node.0),
                        from_rate: u64::from(from.rate()),
                        to_rate: u64::from(to.rate()),
                    },
                }
            }
            JournalRecord::Rescued { cycle, job, via } => TraceEvent::JobRescued {
                cycle: u64::from(cycle),
                job: u64::from(job),
                via,
            },
            JournalRecord::Parked {
                cycle,
                job,
                eligible_at,
            } => TraceEvent::JobParked {
                cycle: u64::from(cycle),
                job: u64::from(job),
                eligible_at: u64::from(eligible_at),
            },
            JournalRecord::Lost { cycle, job } => TraceEvent::JobLost {
                cycle: u64::from(cycle),
                job: u64::from(job),
            },
            JournalRecord::RunStarted { .. }
            | JournalRecord::Committed { .. }
            | JournalRecord::Deferred { .. }
            | JournalRecord::CycleCommitted { .. }
            | JournalRecord::RunFinished { .. } => return None,
        })
    }
}

/// Why a journal directory could not be recovered.
#[derive(Debug)]
pub enum RecoverError {
    /// The journal file itself was unreadable or corrupt mid-file.
    Journal(JournalReadError),
    /// Snapshot-store I/O failed.
    Io(std::io::Error),
    /// A record's frame verified but its payload did not parse.
    Decode {
        /// 1-based record number within the journal.
        record: u64,
        /// The parse failure.
        message: String,
    },
    /// The journal holds no records at all — nothing to recover.
    EmptyJournal,
    /// The journal does not begin with its schema's header:
    /// [`JournalRecord::RunStarted`] for a rolling run,
    /// [`LiveRecord::ServiceStarted`](crate::serve::LiveRecord::ServiceStarted)
    /// for a live service.
    MissingHeader,
    /// A live journal record is in a format this build does not read: a
    /// header whose format number is above the newest, or a barrier
    /// without a job digest, as written before barriers carried one.
    UnsupportedFormat {
        /// 1-based number of the record.
        record: u64,
        /// What about it this build does not read.
        detail: String,
    },
    /// The record stream violates the journaling protocol (barrier
    /// cycles out of order, events outside their cycle, …).
    ChainBroken {
        /// What was inconsistent.
        detail: String,
    },
    /// The latest snapshot claims more progress than the journal — the
    /// files cannot be from the same run. Refuse rather than guess.
    SnapshotNewerThanJournal {
        /// `next_cycle` of the snapshot state.
        snapshot_cycle: u32,
        /// `next_cycle` the journal actually reaches.
        journal_cycle: u32,
    },
    /// The latest intact snapshot payload is not a barrier record.
    SnapshotDecode {
        /// The parse failure.
        message: String,
    },
    /// A live snapshot shard was written against another platform than
    /// the one the header's config regenerates.
    PlatformMismatch {
        /// The shard's index.
        shard: u32,
        /// The platform digest the shard was written with.
        snapshot: u64,
        /// The digest of the regenerated platform.
        regenerated: u64,
    },
    /// A live snapshot shard holds a free slot on a node its platform does
    /// not have.
    UnknownNode {
        /// The shard's index.
        shard: u32,
        /// The slot's id.
        slot: u64,
        /// The node it names.
        node: u32,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Journal(error) => write!(f, "{error}"),
            RecoverError::Io(error) => write!(f, "snapshot store I/O failed: {error}"),
            RecoverError::Decode { record, message } => {
                write!(f, "journal record {record} does not parse: {message}")
            }
            RecoverError::EmptyJournal => write!(f, "journal holds no records"),
            RecoverError::MissingHeader => {
                write!(f, "journal does not begin with its header record")
            }
            RecoverError::UnsupportedFormat { record, detail } => {
                write!(
                    f,
                    "journal record {record} is in a format this build does not read: {detail}"
                )
            }
            RecoverError::ChainBroken { detail } => {
                write!(f, "journal record chain is inconsistent: {detail}")
            }
            RecoverError::SnapshotNewerThanJournal {
                snapshot_cycle,
                journal_cycle,
            } => write!(
                f,
                "snapshot is ahead of the journal (snapshot at cycle \
                 {snapshot_cycle}, journal at cycle {journal_cycle}): \
                 the files cannot be from the same run"
            ),
            RecoverError::SnapshotDecode { message } => {
                write!(f, "snapshot payload does not parse: {message}")
            }
            RecoverError::PlatformMismatch {
                shard,
                snapshot,
                regenerated,
            } => write!(
                f,
                "snapshot shard {shard} was written against platform digest \
                 {snapshot:#018x}, the journal header's config generates \
                 {regenerated:#018x}"
            ),
            RecoverError::UnknownNode { shard, slot, node } => write!(
                f,
                "snapshot shard {shard} holds slot {slot} on node {node}, which \
                 its platform does not have"
            ),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Journal(error) => Some(error),
            RecoverError::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<JournalReadError> for RecoverError {
    fn from(error: JournalReadError) -> Self {
        RecoverError::Journal(error)
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(error: std::io::Error) -> Self {
        RecoverError::Io(error)
    }
}

/// A journal replayed back into a resumable run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun {
    /// The run's configuration, from its `RunStarted` header.
    pub config: RollingConfig,
    /// The original batch, from the header.
    pub jobs: Vec<Job>,
    /// The state as of the last intact barrier (the initial state when
    /// the run crashed before its first barrier).
    pub state: RollingState,
    /// The final report, when the journal ends in `RunFinished` — the
    /// run needs no re-execution.
    pub finished: Option<RollingReport>,
    /// Byte length of the journal prefix recovery trusts: through the
    /// last barrier (or header). Resuming truncates the file here, which
    /// amputates both torn tails and orphan events of the interrupted
    /// cycle before re-executing it.
    pub resume_len: u64,
    /// Whether anything after `resume_len` was discarded (torn tail or
    /// uncommitted cycle events).
    pub discarded_tail: bool,
}

/// Framed on-disk length of one record line: CRC (8) + space + payload +
/// newline.
fn framed_len(payload: &str) -> u64 {
    payload.len() as u64 + 10
}

/// Replays raw journal record payloads into a [`RecoveredRun`].
///
/// `config`/`jobs` come from the leading `RunStarted`, the state from
/// the last `CycleCommitted` barrier; event records are validated to sit
/// inside the cycle the next barrier would commit (or, for the `Lost`
/// records of victims still waiting when the run ends, in the cycle the
/// last barrier committed), but contribute nothing to the state (the
/// barrier is self-sufficient).
pub fn replay(records: &[String]) -> Result<RecoveredRun, RecoverError> {
    let mut iter = records.iter();
    let Some(first) = iter.next() else {
        return Err(RecoverError::EmptyJournal);
    };
    let header = JournalRecord::decode(first)
        .map_err(|message| RecoverError::Decode { record: 1, message })?;
    let JournalRecord::RunStarted { config, jobs } = header else {
        return Err(RecoverError::MissingHeader);
    };

    let mut state = RollingState::initial(jobs.clone());
    let mut finished = None;
    let mut resume_len = framed_len(first);
    let mut offset = resume_len;
    let mut discarded_tail = false;

    for (index, payload) in iter.enumerate() {
        let record_no = index as u64 + 2;
        let record = JournalRecord::decode(payload).map_err(|message| RecoverError::Decode {
            record: record_no,
            message,
        })?;
        offset += framed_len(payload);
        match record {
            JournalRecord::RunStarted { .. } => {
                return Err(RecoverError::ChainBroken {
                    detail: format!("second RunStarted at record {record_no}"),
                });
            }
            JournalRecord::CycleCommitted { state: barrier } => {
                if barrier.next_cycle <= state.next_cycle {
                    return Err(RecoverError::ChainBroken {
                        detail: format!(
                            "barrier at record {record_no} goes back to cycle \
                             {} after cycle {}",
                            barrier.next_cycle, state.next_cycle
                        ),
                    });
                }
                state = barrier;
                resume_len = offset;
                discarded_tail = false;
            }
            JournalRecord::RunFinished { report } => {
                finished = Some(report);
                resume_len = offset;
                discarded_tail = false;
            }
            JournalRecord::Readmitted { cycle, .. }
            | JournalRecord::Committed { cycle, .. }
            | JournalRecord::Deferred { cycle, .. }
            | JournalRecord::Disrupted { cycle, .. }
            | JournalRecord::Rescued { cycle, .. }
            | JournalRecord::Parked { cycle, .. }
            | JournalRecord::Lost { cycle, .. } => {
                if finished.is_some() {
                    return Err(RecoverError::ChainBroken {
                        detail: format!("event record {record_no} after RunFinished"),
                    });
                }
                let end_of_run = matches!(record, JournalRecord::Lost { .. })
                    && cycle.checked_add(1) == Some(state.next_cycle);
                if cycle != state.next_cycle && !end_of_run {
                    return Err(RecoverError::ChainBroken {
                        detail: format!(
                            "event record {record_no} belongs to cycle {cycle} \
                             but the journal is at cycle {}",
                            state.next_cycle
                        ),
                    });
                }
                // Events of the in-progress cycle, or losses at the end of
                // the run: superseded by their barrier (above), by
                // `RunFinished` or by the deterministic re-run.
                discarded_tail = true;
            }
        }
    }

    Ok(RecoveredRun {
        config,
        jobs,
        state,
        finished,
        resume_len,
        discarded_tail,
    })
}

/// The journal file inside a run directory.
#[must_use]
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.wal")
}

/// The snapshot directory inside a run directory.
#[must_use]
pub fn snapshot_dir(dir: &Path) -> PathBuf {
    dir.join("snapshots")
}

/// Recovers a run directory: reads the journal (truncating a torn tail),
/// replays it, and cross-checks the snapshot store.
///
/// The journal is authoritative — every barrier is a full checkpoint —
/// and the snapshots are its safety net: recovery verifies the latest
/// intact snapshot is *not ahead* of the journal (it cannot be, for
/// files from the same run: the journal commit precedes the snapshot
/// write) and refuses with
/// [`RecoverError::SnapshotNewerThanJournal`] otherwise.
pub fn recover(dir: &Path) -> Result<RecoveredRun, RecoverError> {
    let tail = read_journal(&journal_path(dir))?;
    if tail.records.is_empty() {
        return Err(RecoverError::EmptyJournal);
    }
    let mut run = replay(&tail.records)?;
    run.discarded_tail |= tail.torn;

    let snapshots = snapshot_dir(dir);
    if snapshots.is_dir() {
        let store = SnapshotStore::open(&snapshots)?;
        if let Some((_, payload)) = store.latest()? {
            let record = JournalRecord::decode(&payload)
                .map_err(|message| RecoverError::SnapshotDecode { message })?;
            let JournalRecord::CycleCommitted { state } = record else {
                return Err(RecoverError::SnapshotDecode {
                    message: "snapshot payload is not a CycleCommitted barrier".to_string(),
                });
            };
            let journal_cycle = run
                .finished
                .as_ref()
                .map_or(run.state.next_cycle, |_| u32::MAX);
            if state.next_cycle > journal_cycle {
                return Err(RecoverError::SnapshotNewerThanJournal {
                    snapshot_cycle: state.next_cycle,
                    journal_cycle: run.state.next_cycle,
                });
            }
        }
    }
    Ok(run)
}

/// A [`Journal`] that persists to a run directory: a CRC-framed WAL plus
/// a periodic snapshot of every Nth cycle barrier.
///
/// Barriers are counted by [`checkpoint`](Journal::checkpoint) calls, one
/// per committed barrier. When the count hits the cadence, the caller's
/// full-state encoding is requested and saved to the [`SnapshotStore`] —
/// after the WAL commit that made the barrier durable, so a snapshot can
/// never be newer than the journal, and off every other cycle, so no
/// commit waits on a full encode. After each save only the newest two
/// generations stay on disk, so [`SnapshotStore::latest`] still has a
/// fallback past a damaged one.
#[derive(Debug)]
pub struct DurableJournal {
    wal: WalJournal,
    snapshots: SnapshotStore,
    /// The snapshot cadence; `None` after
    /// [`without_snapshots`](Self::without_snapshots).
    snapshot_every: Option<u32>,
    barriers: u64,
    saved_generation: u64,
    snapshot_error: Option<std::io::Error>,
}

/// Snapshot generations a [`DurableJournal`] keeps on disk.
const SNAPSHOTS_KEPT: usize = 2;

impl DurableJournal {
    /// Creates a fresh journal (truncating any previous one) in `dir`,
    /// snapshotting every `snapshot_every` cycle barriers.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot_every` is zero.
    pub fn create(dir: &Path, snapshot_every: u32) -> std::io::Result<Self> {
        assert!(snapshot_every > 0, "snapshot cadence must be at least 1");
        std::fs::create_dir_all(dir)?;
        let wal = WalJournal::create(&journal_path(dir))?;
        let snapshots = SnapshotStore::open(&snapshot_dir(dir))?;
        Ok(DurableJournal {
            wal,
            snapshots,
            snapshot_every: Some(snapshot_every),
            barriers: 0,
            saved_generation: 0,
            snapshot_error: None,
        })
    }

    /// Reopens a recovered run's journal for resuming, keeping the
    /// snapshot cadence counted from the recovered barrier.
    pub fn resume(dir: &Path, run: &RecoveredRun, snapshot_every: u32) -> std::io::Result<Self> {
        Self::resume_at(
            dir,
            run.resume_len,
            u64::from(run.state.next_cycle),
            snapshot_every,
        )
    }

    /// Reopens any barrier-structured journal for appending, truncated to
    /// the `valid_len`-byte verified prefix, with the barrier counter (and
    /// hence the snapshot cadence) resumed at `barriers`. This is the
    /// schema-agnostic core [`resume`](Self::resume) delegates to — the
    /// live serving journal (`crate::serve`) recovers with its own replay
    /// and resumes through here.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot_every` is zero.
    pub fn resume_at(
        dir: &Path,
        valid_len: u64,
        barriers: u64,
        snapshot_every: u32,
    ) -> std::io::Result<Self> {
        assert!(snapshot_every > 0, "snapshot cadence must be at least 1");
        let wal = WalJournal::resume(&journal_path(dir), valid_len)?;
        let snapshots = SnapshotStore::open(&snapshot_dir(dir))?;
        Ok(DurableJournal {
            wal,
            snapshots,
            snapshot_every: Some(snapshot_every),
            barriers,
            saved_generation: barriers,
            snapshot_error: None,
        })
    }

    /// Stops every snapshot, the cadence's and the final one of
    /// [`finish_with_snapshot`](Self::finish_with_snapshot), for a journal
    /// whose recovery reads none. The snapshots already on disk stay.
    #[must_use]
    pub fn without_snapshots(mut self) -> Self {
        self.snapshot_every = None;
        self
    }

    /// Flushes and fsyncs the tail and surfaces the first error (WAL or
    /// snapshot store).
    pub fn finish(mut self) -> std::io::Result<()> {
        self.commit();
        self.wal.finish()?;
        match self.snapshot_error.take() {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// [`finish`](Self::finish), first saving `full` — the state as of
    /// the last barrier — as a final snapshot when the cadence has not
    /// already saved that barrier and snapshots are on: the
    /// graceful-shutdown contract.
    pub fn finish_with_snapshot(mut self, full: &dyn Fn() -> String) -> std::io::Result<()> {
        self.commit();
        if self.snapshot_every.is_some() && self.barriers > self.saved_generation {
            self.save_snapshot(full);
        }
        self.finish()
    }

    /// Saves `full()` as the snapshot of the current barrier. Only state
    /// the WAL has durably committed may be snapshotted, so the WAL is
    /// committed first (a no-op when the caller already did).
    fn save_snapshot(&mut self, full: &dyn Fn() -> String) {
        self.wal.commit();
        if self.wal.io_error().is_some() || self.snapshot_error.is_some() {
            return;
        }
        match self.snapshots.save(self.barriers, &full()) {
            Ok(()) => {
                self.saved_generation = self.barriers;
                if let Err(error) = self.prune_snapshots() {
                    self.snapshot_error = Some(error);
                }
            }
            Err(error) => self.snapshot_error = Some(error),
        }
    }

    /// Deletes every snapshot generation but the newest [`SNAPSHOTS_KEPT`].
    fn prune_snapshots(&self) -> std::io::Result<()> {
        let generations = self.snapshots.generations()?;
        match generations.iter().rev().nth(SNAPSHOTS_KEPT - 1) {
            Some(&oldest_kept) => self.snapshots.prune_below(oldest_kept),
            None => Ok(()),
        }
    }
}

impl Journal for DurableJournal {
    fn append(&mut self, payload: &str) {
        self.wal.append(payload);
    }

    fn commit(&mut self) {
        self.wal.commit();
    }

    fn checkpoint(&mut self, full: &dyn Fn() -> String) {
        self.barriers += 1;
        if self
            .snapshot_every
            .is_some_and(|every| self.barriers.is_multiple_of(u64::from(every)))
        {
            self.save_snapshot(full);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("slotsel-sim-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> String {
        JournalRecord::RunStarted {
            config: RollingConfig::default(),
            jobs: Vec::new(),
        }
        .encode()
    }

    fn barrier(next_cycle: u32) -> String {
        let mut state = RollingState::initial(Vec::new());
        state.next_cycle = next_cycle;
        JournalRecord::CycleCommitted { state }.encode()
    }

    fn event(cycle: u32) -> String {
        JournalRecord::Lost { cycle, job: 7 }.encode()
    }

    #[test]
    fn journal_records_round_trip_through_encode_decode() {
        let records = [header(), event(0), barrier(1)];
        for line in &records {
            let decoded = JournalRecord::decode(line).unwrap();
            assert_eq!(decoded.encode(), *line);
        }
        assert!(JournalRecord::decode("{\"NotARecord\":{}}").is_err());
    }

    #[test]
    fn replay_requires_a_run_started_header() {
        assert!(matches!(replay(&[]), Err(RecoverError::EmptyJournal)));
        assert!(matches!(
            replay(&[event(0)]),
            Err(RecoverError::MissingHeader)
        ));
        assert!(matches!(
            replay(&[header(), header()]),
            Err(RecoverError::ChainBroken { .. })
        ));
    }

    #[test]
    fn replay_validates_the_record_chain() {
        // An event of a cycle the journal is not in.
        let readmitted = JournalRecord::Readmitted { cycle: 0, job: 7 }.encode();
        for foreign in [
            vec![header(), barrier(1), readmitted],
            vec![header(), barrier(2), event(0)],
        ] {
            assert!(matches!(
                replay(&foreign),
                Err(RecoverError::ChainBroken { .. })
            ));
        }
        // A loss of the last committed cycle is a victim lost as the run
        // ended.
        assert!(
            replay(&[header(), barrier(1), event(0)])
                .unwrap()
                .discarded_tail
        );
        // A barrier going backwards.
        let rewind = replay(&[header(), barrier(2), barrier(1)]);
        assert!(matches!(rewind, Err(RecoverError::ChainBroken { .. })));
        // A record that frames correctly but does not parse.
        let garbled = replay(&[header(), "not json".to_owned()]);
        assert!(matches!(
            garbled,
            Err(RecoverError::Decode { record: 2, .. })
        ));
    }

    #[test]
    fn replay_trusts_the_last_barrier_and_discards_orphan_events() {
        let records = [header(), event(0), barrier(1), event(1), event(1)];
        let run = replay(&records).unwrap();
        assert_eq!(run.state.next_cycle, 1);
        assert!(run.finished.is_none());
        assert!(run.discarded_tail, "orphan cycle-1 events are discarded");
        let kept: u64 = records[..3].iter().map(|r| framed_len(r)).sum();
        assert_eq!(run.resume_len, kept);
    }

    #[test]
    fn recover_reports_an_empty_directory_as_empty_journal() {
        let dir = temp_dir("empty");
        assert!(matches!(recover(&dir), Err(RecoverError::EmptyJournal)));
    }

    #[test]
    fn recover_refuses_a_snapshot_ahead_of_the_journal() {
        let dir = temp_dir("snapshot-ahead");
        let mut wal = WalJournal::create(&journal_path(&dir)).unwrap();
        wal.append(&header());
        wal.append(&barrier(1));
        wal.finish().unwrap();
        let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
        store.save(5, &barrier(5)).unwrap();
        match recover(&dir) {
            Err(RecoverError::SnapshotNewerThanJournal {
                snapshot_cycle,
                journal_cycle,
            }) => {
                assert_eq!(snapshot_cycle, 5);
                assert_eq!(journal_cycle, 1);
            }
            other => panic!("expected SnapshotNewerThanJournal, got {other:?}"),
        }
    }

    #[test]
    fn recover_rejects_a_snapshot_that_is_not_a_barrier() {
        let dir = temp_dir("snapshot-garbage");
        let mut wal = WalJournal::create(&journal_path(&dir)).unwrap();
        wal.append(&header());
        wal.finish().unwrap();
        let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
        store.save(1, &event(0)).unwrap();
        assert!(matches!(
            recover(&dir),
            Err(RecoverError::SnapshotDecode { .. })
        ));
    }

    #[test]
    fn durable_journal_snapshots_every_nth_barrier() {
        let dir = temp_dir("durable");
        let mut journal = DurableJournal::create(&dir, 2).unwrap();
        journal.append(&header());
        journal.commit();
        let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
        let encoded = std::cell::Cell::new(0);
        for cycle in 0..9 {
            journal.append(&event(cycle));
            journal.append(&barrier(cycle + 1));
            journal.commit();
            journal.checkpoint(&|| {
                encoded.set(encoded.get() + 1);
                barrier(cycle + 1)
            });
            if cycle + 1 == 4 {
                assert_eq!(store.generations().unwrap(), vec![2, 4]);
            }
        }
        // The full state is encoded only for the barriers that were due.
        assert_eq!(encoded.get(), 4);
        journal.finish_with_snapshot(&|| barrier(9)).unwrap();

        // Only the newest two generations survive: the cadence's 8 and the
        // final snapshot of barrier 9 that finish_with_snapshot() writes.
        assert_eq!(store.generations().unwrap(), vec![8, 9]);
        let (generation, payload) = store.latest().unwrap().unwrap();
        assert_eq!(generation, 9);
        assert_eq!(payload, barrier(9));

        let run = recover(&dir).unwrap();
        assert_eq!(run.state.next_cycle, 9);
        assert!(!run.discarded_tail);
    }

    #[test]
    fn recover_truncates_a_torn_tail_and_resumes_the_stream() {
        use std::io::Write;
        let dir = temp_dir("torn");
        let mut journal = DurableJournal::create(&dir, 4).unwrap();
        journal.append(&header());
        journal.append(&event(0));
        journal.append(&barrier(1));
        journal.finish().unwrap();
        // A crash mid-write leaves a partial line at the tail.
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&dir))
            .unwrap();
        file.write_all(b"deadbeef {\"Lost\":{\"cyc").unwrap();
        drop(file);

        let run = recover(&dir).unwrap();
        assert_eq!(run.state.next_cycle, 1);
        assert!(run.discarded_tail);

        let mut resumed = DurableJournal::resume(&dir, &run, 4).unwrap();
        resumed.append(&event(1));
        resumed.append(&barrier(2));
        resumed.finish().unwrap();
        let again = recover(&dir).unwrap();
        assert_eq!(again.state.next_cycle, 2);
        assert!(!again.discarded_tail);
    }
}
