//! Crash-at-every-record recovery, soak and golden-decision properties of
//! the live service (`sim::serve`).
//!
//! The contract under test (docs/DURABILITY.md, live journal): barriers
//! carry the cycle, the next job id and digests of the free-slot lists and
//! of the live job table, but no platform, slot lists or jobs; a finished
//! job's `Finished` record names only its cycle and id; and `recover_live`
//! rebuilds the exact service — job table and retired archive included —
//! from any prefix of the record stream plus the snapshots written by then.
//!
//! 1. a record-prefix sweep over every crash point of a seeded run
//!    journaled with a snapshot every third barrier, in format 2 and
//!    rewritten into format 1 (a header without the number, `Finished`
//!    records carrying the entry, full `Submitted` records and object
//!    windows), whose snapshots are not read; recovery after a lost cycle
//!    whose records reached disk; the refusal of a tampered commit,
//!    deferral, submission or digest, also in the cycles a snapshot
//!    covers, by each barrier's job digest or the snapshot's archive
//!    digest; recovery without any `Finished` record, which replay does
//!    not read; and the refusal of a snapshot written against another
//!    platform than the header's, holding a slot on a node the platform
//!    lacks or rows out of order, or whose clock or archive digest is not
//!    the replay's at its barrier;
//! 2. the refusal of what this build does not read, naming the record or
//!    the format: barriers without a job digest (listing the jobs, also
//!    listing finished ones, or carrying the shards), a format above 2, a
//!    format-2 snapshot without its archive digest, and a header whose
//!    config cannot run; the committed format-1 journal directories
//!    (`tests/fixtures/platform-snapshots`, `tests/fixtures/full-submits`)
//!    recovered from record 1 and continued; a header-only journal
//!    starts fresh;
//! 3. the barrier prefix serve-bench's WAL tailer relies on;
//! 4. a 2000-cycle soak asserting barriers and `Finished` records stay
//!    small and bounded, and barrier size that grows with neither the
//!    platform nor the jobs;
//! 5. a golden digest pinning every commit and defer decision of a
//!    500-cycle run, and golden free-slot digests of a 2 x 200-node
//!    300-cycle run;
//! 6. allocations per submit that do not grow with the jobs table.

// Only the allocation count of `cost_of` is read here, not the peak.
#[allow(dead_code)]
mod counting_alloc;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use counting_alloc::cost_of;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use serde::{Deserialize, Value};
use slotsel_batch::BatchSchedulerConfig;
use slotsel_core::tenant::TenantQuota;
use slotsel_obs::journal::{frame, unframe, Journal, MemoryJournal, SnapshotStore, WalJournal};
use slotsel_obs::NoopMetrics;
use slotsel_sim::journal::{journal_path, snapshot_dir, DurableJournal, RecoverError};
use slotsel_sim::parallel::Parallelism;
use slotsel_sim::serve::{
    recover_live, JobPhase, LiveConfig, LiveRecord, LiveService, LiveState, QuotaTable,
    RecoveredService, Submission,
};

const CYCLE_ADVANCE: i64 = 60;
/// How every barrier payload begins.
const BARRIER_PREFIX: &str = "{\"CycleCommitted\"";
const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// Two shards of ten nodes; alice is capped, so admission may refuse some
/// of her submits; everyone else is unlimited.
fn config(seed: u64) -> LiveConfig {
    let mut quotas = QuotaTable::open();
    quotas.tenants.insert(
        "alice".to_owned(),
        TenantQuota {
            max_nodes: Some(10),
            max_budget: None,
            max_pending: Some(4),
        },
    );
    quotas.default = Some(TenantQuota::unlimited());
    LiveConfig {
        shards: 2,
        nodes_per_shard: 10,
        interval_length: 600,
        cycle_advance: CYCLE_ADVANCE,
        seed,
        quotas,
        ..LiveConfig::default()
    }
}

/// A seeded request stream: 0–3 submissions per cycle. `hard` mixes in
/// deadlines and tight budgets; some of those can never be met, so their
/// jobs are deferred every cycle.
fn arrivals(rng: &mut StdRng, cycle: u64, hard: bool) -> Vec<Submission> {
    let count = rng.gen_range(0..4u32);
    (0..count)
        .map(|_| {
            let tenant = TENANTS[rng.gen_range(0..TENANTS.len())];
            let nodes = rng.gen_range(1..=4usize);
            let volume = rng.gen_range(50..=400u64);
            let tight = hard && rng.gen_range(0..10u32) == 0;
            let budget = if tight {
                f64::from(rng.gen_range(1..20u32)) * 10.0
            } else {
                f64::from(rng.gen_range(50..400u32)) * 100.0
            };
            let deadline = (hard && rng.gen_range(0..10u32) == 0)
                .then(|| (cycle as i64 + rng.gen_range(2..12i64)) * CYCLE_ADVANCE);
            let shard = (rng.gen_range(0..4u32) == 0).then(|| rng.gen_range(0..2u32));
            Submission {
                tenant: tenant.to_owned(),
                nodes,
                volume,
                budget,
                priority: rng.gen_range(0..3u32),
                deadline,
                shard,
            }
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slotsel-live-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `records` as the journal of `dir`, replacing any previous one.
fn write_wal(dir: &Path, records: &[String]) {
    let mut wal = WalJournal::create(&journal_path(dir)).unwrap();
    for record in records {
        wal.append(record);
    }
    wal.finish().unwrap();
}

/// The files of a snapshot directory, by name.
type SnapshotFiles = Vec<(std::ffi::OsString, Vec<u8>)>;

fn read_snapshots(dir: &Path) -> SnapshotFiles {
    let mut files: SnapshotFiles = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name(), std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Forwards to `inner`, keeping a copy of every record and, for a journal
/// on disk, the snapshot files as they stand after each checkpoint.
struct Tap<J> {
    inner: J,
    records: Vec<String>,
    snapshot_dir: Option<PathBuf>,
    /// `(records written, snapshot files)`, one per change of the files.
    snapshots: Vec<(usize, SnapshotFiles)>,
}

impl<J: Journal> Journal for Tap<J> {
    fn append(&mut self, payload: &str) {
        self.records.push(payload.to_owned());
        self.inner.append(payload);
    }

    fn commit(&mut self) {
        self.inner.commit();
    }

    fn checkpoint(&mut self, full: &dyn Fn() -> String) {
        self.inner.checkpoint(full);
        if let Some(dir) = &self.snapshot_dir {
            let files = read_snapshots(dir);
            if self.snapshots.last().map(|(_, last)| last) != Some(&files) {
                self.snapshots.push((self.records.len(), files));
            }
        }
    }
}

/// A seeded run with the service as of every record recovery may stop
/// at: the header, each `Submitted`, each barrier.
struct Run {
    records: Vec<String>,
    /// `(records written, service)` in record order.
    checkpoints: Vec<(usize, LiveService)>,
    /// `(records written, snapshot files)` for a run journaled to disk.
    snapshots: Vec<(usize, SnapshotFiles)>,
    service: LiveService,
}

/// A seeded run journaled into memory.
fn drive(seed: u64, cycles: u64) -> Run {
    drive_into(config(seed), cycles, false, MemoryJournal::new(), None)
}

/// A run of `config`, its arrivals seeded by `config.seed`, journaled into
/// `inner`, whose snapshots (if any) land in `snapshot_dir`; `hard` as for
/// [`arrivals`].
fn drive_into<J: Journal>(
    config: LiveConfig,
    cycles: u64,
    hard: bool,
    inner: J,
    snapshot_dir: Option<PathBuf>,
) -> Run {
    let seed = config.seed;
    let mut service = LiveService::new(config.clone());
    let mut journal = Tap {
        inner,
        records: Vec::new(),
        snapshot_dir,
        snapshots: Vec::new(),
    };
    journal.append(&LiveRecord::ServiceStarted { config }.encode());
    journal.commit();
    let mut checkpoints = vec![(1, service.clone())];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for cycle in 0..cycles {
        for submission in arrivals(&mut rng, cycle, hard) {
            if let Ok(entry) = service.submit(&submission) {
                journal.append(&LiveRecord::Submitted { entry }.encode());
                journal.commit();
                checkpoints.push((journal.records.len(), service.clone()));
            }
        }
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
        checkpoints.push((journal.records.len(), service.clone()));
    }
    Run {
        records: journal.records,
        checkpoints,
        snapshots: journal.snapshots,
        service,
    }
}

/// The service as of the last record recovery may stop at within the
/// first `k` records.
fn expected_after(run: &Run, k: usize) -> &LiveService {
    let (_, expected) = run
        .checkpoints
        .iter()
        .rev()
        .find(|(written, _)| *written <= k)
        .expect("the header is a checkpoint");
    expected
}

/// A seeded run journaled to `source` with a snapshot every third
/// barrier, so crash points land before the first snapshot and on either
/// side of later ones.
fn drive_with_snapshots(source: &Path) -> Run {
    let journal = DurableJournal::create(source, 3).unwrap();
    let run = drive_into(config(21), 40, false, journal, Some(snapshot_dir(source)));
    assert!(
        run.service.retired().len() >= 10,
        "the sweep must cover retired jobs, got {}",
        run.service.retired().len()
    );
    assert!(
        run.snapshots.len() >= 10,
        "{} snapshots",
        run.snapshots.len()
    );
    run
}

/// Replaces the snapshot files of `dir` with `files`.
fn write_snapshots(dir: &Path, files: &[(std::ffi::OsString, Vec<u8>)]) {
    let snapshots = snapshot_dir(dir);
    let _ = std::fs::remove_dir_all(&snapshots);
    std::fs::create_dir_all(&snapshots).unwrap();
    for (name, bytes) in files {
        std::fs::write(snapshots.join(name), bytes).unwrap();
    }
}

/// Recovers every prefix of `records` — `run`'s records, or the same
/// stream rewritten into format 1 — next to the snapshot files as they
/// stood when its last record was written, and expects the service as of
/// that record. A format-1 journal, its header without the number, is
/// replayed from record 1 whatever snapshots lie beside it.
fn sweep(run: &Run, records: &[String], tag: &str) {
    let reads_snapshots = records[0].contains("\"format\":");
    let dir = temp_dir(tag);
    let (mut fresh, mut from_snapshot) = (0, 0);
    for k in 1..=records.len() {
        write_wal(&dir, &records[..k]);
        // The snapshot files as they stood when record k was written.
        let files = run
            .snapshots
            .iter()
            .rev()
            .find(|(written, _)| *written <= k)
            .map_or(&[][..], |(_, files)| &files[..]);
        write_snapshots(&dir, files);
        let recovered = recover_live(&dir)
            .unwrap_or_else(|error| panic!("prefix of {k} records must recover: {error}"));
        assert_eq!(recovered.format, if reads_snapshots { 2 } else { 1 });
        match recovered.snapshot_cycle {
            Some(_) => from_snapshot += 1,
            None => fresh += 1,
        }
        assert_eq!(
            &recovered.service,
            expected_after(run, k),
            "crash after record {k} must recover the service as of its last barrier \
             or Submitted record"
        );
    }
    if reads_snapshots {
        assert!(
            fresh > 0 && from_snapshot > fresh,
            "{fresh} crash points replayed from the generated platform, \
             {from_snapshot} from a snapshot"
        );
    } else {
        assert_eq!(from_snapshot, 0, "a format-1 journal's snapshot was read");
    }

    // The last snapshot next to a journal cut well before it: the files
    // cannot be from the same run, unless the snapshot is not read.
    let tenth_barrier = run
        .checkpoints
        .iter()
        .filter(|(_, service)| service.cycle() == 10)
        .map(|(written, _)| *written)
        .min()
        .expect("a tenth barrier");
    write_wal(&dir, &records[..tenth_barrier]);
    if reads_snapshots {
        assert!(matches!(
            recover_live(&dir),
            Err(RecoverError::SnapshotNewerThanJournal {
                snapshot_cycle: 39..,
                journal_cycle: 10,
            })
        ));
    } else {
        assert_eq!(
            &recover_live(&dir).unwrap().service,
            expected_after(run, tenth_barrier)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_crash_point_recovers_the_service_as_of_its_last_durable_record() {
    let source = temp_dir("sweep-source");
    let run = drive_with_snapshots(&source);
    sweep(&run, &run.records, "sweep");
    let _ = std::fs::remove_dir_all(&source);
}

#[test]
fn every_crash_point_of_a_format_1_journal_recovers_from_record_1() {
    // The same run as format-1 writers left it, next to its snapshots,
    // which are not read.
    let source = temp_dir("format-1-sweep-source");
    let run = drive_with_snapshots(&source);
    let records = format_1_shape(&run);
    let count = |needle: &str| records.iter().filter(|line| line.contains(needle)).count();
    assert!(!records[0].contains("\"format\""), "{}", records[0]);
    assert!(count("\"reference_span\":null") > 0 && count("\"slots\":[{\"slot\":") > 0);
    assert!(records
        .iter()
        .any(|line| line.starts_with("{\"Finished\"") && line.contains("\"entry\":{\"id\"")));
    sweep(&run, &records, "format-1-sweep");
    let _ = std::fs::remove_dir_all(&source);
}

/// A hard-arrival run journaled with a snapshot every fifth barrier, its
/// journal and newest snapshot written into a directory tagged `tag`,
/// where it recovers to the uninterrupted service; and the number of
/// records its newest snapshot covers.
fn snapshot_backed_run(tag: &str) -> (Run, usize, PathBuf) {
    let source = temp_dir(&format!("{tag}-source"));
    let run = drive_into(
        full_submits_config(),
        FULL_SUBMITS_CYCLES,
        true,
        DurableJournal::create(&source, 5).unwrap(),
        Some(snapshot_dir(&source)),
    );
    let _ = std::fs::remove_dir_all(&source);
    let (covered_len, files) = run.snapshots.last().expect("snapshots").clone();
    let dir = temp_dir(tag);
    write_snapshots(&dir, &files);
    write_wal(&dir, &run.records);
    let recovered = recover_live(&dir).unwrap();
    assert!(recovered.snapshot_cycle.is_some());
    assert_eq!(recovered.service, run.service);
    (run, covered_len, dir)
}

/// Drops the first `Deferred` record the newest snapshot of a
/// [`snapshot_backed_run`] covers whose job `pick` accepts, given the
/// service as of that snapshot, and expects the job digest of the barrier
/// that closes the deferral's cycle to refuse the journal: without the
/// deferral the job is one priority step too low there.
fn assert_covered_deferral_refused(tag: &str, pick: impl Fn(&LiveService, u32) -> bool) {
    let (run, covered_len, dir) = snapshot_backed_run(tag);
    let at_snapshot = expected_after(&run, covered_len);
    let deferral = run.records[..covered_len]
        .iter()
        .position(|line| {
            matches!(LiveRecord::decode(line).unwrap(),
                LiveRecord::Deferred { job, .. } if pick(at_snapshot, job))
        })
        .expect("a covered deferral of such a job");
    let barrier = next_barrier(&run.records, deferral);
    assert!(barrier + 1 < covered_len, "a barrier before the snapshot's");
    let mut records = run.records.clone();
    records.remove(deferral);
    // The barrier moved up one place, so its 1-based number is its old
    // 0-based index.
    assert_refused(
        &dir,
        &records,
        &format!("barrier at record {barrier}: the replayed jobs digest to"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dropped_covered_deferral_of_a_retired_job_is_refused_by_its_cycles_job_digest() {
    // A job the snapshot's cycles deferred, then committed and retired.
    assert_covered_deferral_refused("retired-deferral", |service, job| {
        service.retired().contains_key(&job)
    });
}

#[test]
fn a_dropped_covered_deferral_of_a_job_live_at_the_snapshot_is_refused() {
    // A job the snapshot's cycles deferred and the snapshot still holds
    // live: every covered barrier's job digest sees it.
    assert_covered_deferral_refused("live-deferral", |service, job| {
        service.job(slotsel_core::request::JobId(job)).is_some()
            && !service.retired().contains_key(&job)
    });
}

/// Recovers `run`'s journal with its first `Committed` record's window
/// replaced by `window`, and expects a decode error for that record whose
/// message mentions `what`.
fn assert_window_refused(window: &str, what: &str) {
    let run = drive(5, 30);
    let index = run
        .records
        .iter()
        .position(|line| line.starts_with("{\"Committed\""))
        .expect("a Committed record");
    let LiveRecord::Committed {
        cycle, job, shard, ..
    } = LiveRecord::decode(&run.records[index]).unwrap()
    else {
        unreachable!()
    };
    let mut records = run.records.clone();
    records[index] = format!(
        "{{\"Committed\":{{\"cycle\":{cycle},\"job\":{job},\"shard\":{shard},\
         \"window\":{window}}}}}"
    );
    let dir = temp_dir("refused-window");
    write_wal(&dir, &records);
    match recover_live(&dir) {
        Err(RecoverError::Decode { record, message }) => {
            assert_eq!(record, index as u64 + 1, "{message}");
            assert!(
                message.contains(what),
                "{message:?} does not mention {what:?}"
            );
        }
        Err(other) => panic!("expected a decode error for {window}, got {other}"),
        Ok(_) => panic!("a window of {window} recovered"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_committed_window_without_slots_is_a_decode_error() {
    assert_window_refused(r#"{"start":60,"slots":[]}"#, "at least one slot");
}

#[test]
fn a_committed_window_with_two_slots_on_one_node_is_a_decode_error() {
    for window in [
        r#"{"start":60,"slots":[[1,2,30,900],[3,2,30,900]]}"#,
        concat!(
            r#"{"start":60,"slots":[{"slot":1,"node":2,"length":30,"cost":900},"#,
            r#"{"slot":3,"node":2,"length":30,"cost":900}]}"#
        ),
    ] {
        assert_window_refused(window, "distinct nodes");
    }
}

#[test]
fn a_committed_window_slot_of_no_length_is_a_decode_error() {
    for window in [
        r#"{"start":60,"slots":[[1,2,0,900]]}"#,
        r#"{"start":60,"slots":[{"slot":1,"node":2,"length":-30,"cost":900}]}"#,
    ] {
        assert_window_refused(window, "must be positive");
    }
}

#[test]
fn covered_records_are_checked_by_the_digests_and_finished_records_are_audit() {
    // The newest snapshot next to the whole journal. Replay retires jobs
    // by the clock, so without any `Finished` record it recovers the same
    // service; a dropped covered commit or submission of a retired job is
    // refused by a barrier's job digest or by the snapshot's archive
    // digest, and a repeated submission by its job id.
    let (run, covered_len, dir) = snapshot_backed_run("covered");
    let audit_free: Vec<String> = run
        .records
        .iter()
        .filter(|line| !line.starts_with("{\"Finished\""))
        .cloned()
        .collect();
    assert!(audit_free.len() < run.records.len());
    write_wal(&dir, &audit_free);
    let recovered = recover_live(&dir).unwrap();
    assert!(recovered.snapshot_cycle.is_some());
    assert_eq!(recovered.service, run.service);

    let covered = &run.records[..covered_len];
    let retired = expected_after(&run, covered_len).retired();
    let index_of = |tag: &str, job: u32| {
        covered
            .iter()
            .position(|line| match LiveRecord::decode(line).unwrap() {
                LiveRecord::Submitted { entry } => tag == "Submitted" && entry.id.0 == job,
                LiveRecord::Committed { job: id, .. } => tag == "Committed" && id == job,
                _ => false,
            })
            .unwrap_or_else(|| panic!("no covered {tag} record of job {job}"))
    };
    let mut refusals = BTreeSet::new();
    for &job in retired.keys() {
        for tag in ["Committed", "Submitted"] {
            let mut records = run.records.clone();
            records.remove(index_of(tag, job));
            write_wal(&dir, &records);
            match recover_live(&dir) {
                Err(RecoverError::ChainBroken { detail }) => {
                    let by = if detail.contains("the replayed jobs digest to") {
                        "job digest"
                    } else if detail.contains("the replayed archive digests to") {
                        "archive digest"
                    } else {
                        panic!("job {job} without its {tag} record: {detail}")
                    };
                    refusals.insert((tag, by));
                }
                other => panic!("job {job} without its {tag} record: {other:?}"),
            }
        }
    }
    // Every dropped record is refused. Without its submission, a job
    // committed and finished within one cycle is never live at a barrier,
    // so the archive digest refuses it.
    assert_eq!(
        refusals,
        BTreeSet::from([
            ("Committed", "job digest"),
            ("Submitted", "archive digest"),
            ("Submitted", "job digest"),
        ])
    );

    let submitted = index_of("Submitted", *retired.keys().next().expect("a retired job"));
    let mut records = run.records.clone();
    records.insert(submitted + 1, run.records[submitted].clone());
    assert_refused(
        &dir,
        &records,
        &format!("Submitted record {} holds job", submitted + 2),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Index of the first barrier at or after `from`.
fn next_barrier(records: &[String], from: usize) -> usize {
    from + records[from..]
        .iter()
        .position(|line| line.starts_with(BARRIER_PREFIX))
        .expect("a later barrier")
}

fn decode_barrier(line: &str) -> LiveState {
    match LiveRecord::decode(line).unwrap() {
        LiveRecord::CycleCommitted { state } => state,
        other => panic!("not a barrier: {other:?}"),
    }
}

/// Recovers `records` and expects a `ChainBroken` refusal naming `what`.
fn assert_refused(dir: &Path, records: &[String], what: &str) {
    write_wal(dir, records);
    match recover_live(dir) {
        Err(RecoverError::ChainBroken { detail }) => {
            assert!(
                detail.contains(what),
                "{detail:?} does not mention {what:?}"
            );
        }
        Err(other) => panic!("expected ChainBroken, got {other}"),
        Ok(_) => panic!("a journal whose {what} was tampered with recovered"),
    }
}

#[test]
fn a_tampered_commit_or_digest_is_refused() {
    // Hard arrivals, so some jobs are deferred.
    let run = drive_into(config(21), 40, true, MemoryJournal::new(), None);
    let dir = temp_dir("tampered");
    write_wal(&dir, &run.records);
    assert_eq!(recover_live(&dir).unwrap().service, run.service);
    let commits: Vec<(usize, u64, u32)> = run
        .records
        .iter()
        .enumerate()
        .filter_map(|(index, line)| match LiveRecord::decode(line).unwrap() {
            LiveRecord::Committed { cycle, shard, .. } => Some((index, cycle, shard)),
            _ => None,
        })
        .collect();
    let &(last, last_cycle, shard) = commits.last().expect("the run commits");
    let barrier = next_barrier(&run.records, last);

    // A lost commit leaves its window free in the replay: the digest of
    // the shard it was cut from no longer matches.
    let mut dropped = run.records[..=barrier].to_vec();
    dropped.remove(last);
    assert_refused(&dir, &dropped, "digest");

    // A window moved onto one an earlier cycle already holds on the same
    // shard cannot be cut again.
    let &(earlier, ..) = commits
        .iter()
        .find(|&&(_, cycle, s)| s == shard && cycle + 3 < last_cycle)
        .expect("an earlier commit on the same shard");
    let LiveRecord::Committed { window, .. } = LiveRecord::decode(&run.records[earlier]).unwrap()
    else {
        unreachable!("filtered above");
    };
    let LiveRecord::Committed { cycle, job, .. } = LiveRecord::decode(&run.records[last]).unwrap()
    else {
        unreachable!("filtered above");
    };
    let mut moved = run.records[..=barrier].to_vec();
    moved[last] = LiveRecord::Committed {
        cycle,
        job,
        shard,
        window,
    }
    .encode();
    assert_refused(&dir, &moved, "not free");

    // A barrier repeated: the chain goes back a cycle.
    let mut repeated = run.records[..=barrier].to_vec();
    repeated.push(run.records[barrier].clone());
    assert_refused(&dir, &repeated, "follows a replay at cycle");

    // A barrier whose digest disagrees with the replay.
    let mut wrong = run.records[..=barrier].to_vec();
    let mut state = decode_barrier(&wrong[barrier]);
    state.slot_digests[0] ^= 1;
    wrong[barrier] = LiveRecord::CycleCommitted { state }.encode();
    assert_refused(&dir, &wrong, "digest");

    // The rest reach the job table, and the job digest of the barrier
    // that closes the cycle refuses them: a lost deferral skips a
    // priority ageing, an edited submission changes a live entry, and a
    // flipped digest matches no replay.
    let refused_by =
        |record_no: usize| format!("barrier at record {record_no}: the replayed jobs digest to");
    let deferral = run
        .records
        .iter()
        .rposition(|line| line.starts_with("{\"Deferred\""))
        .expect("the run defers");
    let barrier = next_barrier(&run.records, deferral);
    let mut dropped = run.records[..=barrier].to_vec();
    dropped.remove(deferral);
    // The barrier moved up one place, so its 1-based number is its old
    // 0-based index.
    assert_refused(&dir, &dropped, &refused_by(barrier));

    let (submitted, mut entry, barrier) = run
        .records
        .iter()
        .enumerate()
        .filter_map(|(index, line)| match LiveRecord::decode(line).unwrap() {
            LiveRecord::Submitted { entry } => {
                Some((index, entry, next_barrier(&run.records, index)))
            }
            _ => None,
        })
        .filter(|(_, entry, barrier)| {
            let live = &expected_after(&run, barrier + 1).state().jobs;
            live.iter().any(|job| job.id == entry.id)
        })
        .nth(5)
        .expect("submissions still live at the next barrier");
    entry.priority += 7;
    let mut edited = run.records[..=barrier].to_vec();
    edited[submitted] = LiveRecord::Submitted { entry }.encode();
    assert_refused(&dir, &edited, &refused_by(barrier + 1));

    let barrier = next_barrier(&run.records, run.records.len() / 2);
    let mut flipped = run.records[..=barrier].to_vec();
    let mut state = decode_barrier(&flipped[barrier]);
    state.job_digest = state.job_digest.map(|digest| digest ^ 1);
    flipped[barrier] = LiveRecord::CycleCommitted { state }.encode();
    assert_refused(&dir, &flipped, &refused_by(barrier + 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_cycle_rerun_without_new_submits_recovers() {
    // A cycle's records reach disk without their barrier, and the restarted
    // daemon re-runs the cycle before any submit arrives: the journal holds
    // the same commits twice, only the second run's with a barrier.
    let run = drive(21, 40);
    let (lost, _) = run
        .records
        .iter()
        .enumerate()
        .rev()
        .find(|(_, line)| line.starts_with("{\"Committed\""))
        .expect("the run commits");
    let barrier = next_barrier(&run.records, lost);
    let dir = temp_dir("torn-rerun");
    let mut records = run.records[..barrier].to_vec();
    write_wal(&dir, &records);
    let mut restarted = recover_live(&dir).unwrap().service;
    let mut journal = MemoryJournal::new();
    restarted.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    assert_eq!(&restarted, expected_after(&run, barrier + 1));
    records.extend(journal.records().iter().cloned());
    write_wal(&dir, &records);
    assert_eq!(recover_live(&dir).unwrap().service, restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_header_only_or_empty_journal_starts_fresh() {
    let dir = temp_dir("header-only");
    assert!(matches!(
        recover_live(&dir),
        Err(RecoverError::EmptyJournal)
    ));
    write_wal(&dir, &[]);
    assert!(matches!(
        recover_live(&dir),
        Err(RecoverError::EmptyJournal)
    ));
    let config = config(4);
    write_wal(
        &dir,
        &[LiveRecord::ServiceStarted {
            config: config.clone(),
        }
        .encode()],
    );
    let recovered = recover_live(&dir).unwrap();
    assert_eq!(recovered.service, LiveService::new(config));
    assert_eq!((recovered.barriers, recovered.resubmitted), (0, 0));
    assert_eq!(recovered.snapshot_cycle, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_finished_record_from_a_lost_cycle_yields_to_the_rerun_barrier() {
    // Run until a cycle commits and finishes the same job, then lose that
    // cycle's barrier: its `Finished` record reaches disk, the barrier
    // does not (the WAL buffer flushed mid-cycle before the kill).
    let config = config(13);
    let mut service = LiveService::new(config.clone());
    let mut records = vec![LiveRecord::ServiceStarted { config }.encode()];
    let mut rng = StdRng::seed_from_u64(29);
    let (lost, (job, shard)) = (0..200)
        .find_map(|cycle| {
            for submission in arrivals(&mut rng, cycle, false) {
                if let Ok(entry) = service.submit(&submission) {
                    records.push(LiveRecord::Submitted { entry }.encode());
                }
            }
            let mut journal = MemoryJournal::new();
            let outcome =
                service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
            let within = outcome
                .committed
                .iter()
                .find(|(id, _)| outcome.finished.contains(id))
                .copied();
            let (barrier, rest) = journal.records().split_last().expect("a barrier");
            assert!(barrier.starts_with(BARRIER_PREFIX));
            records.extend(rest.iter().cloned());
            if within.is_none() {
                records.push(barrier.clone());
            }
            within.map(|job| (cycle, job))
        })
        .expect("some cycle commits and finishes a job within itself");
    let dir = temp_dir("lost-cycle");
    write_wal(&dir, &records);
    let mut restarted = recover_live(&dir).unwrap().service;
    let queued = restarted.job(job).expect("re-applied").clone();
    let request = queued.request.clone();

    // Before the re-run, higher-priority copies of the job arrive, one per
    // alternative the scheduler searches. Their alternatives are the job's
    // own, and they win every conflict, so the re-run cannot commit it.
    for _ in 0..LiveConfig::default().scheduler.max_alternatives_per_job {
        let entry = restarted
            .submit(&Submission {
                tenant: "bob".to_owned(),
                nodes: request.node_count(),
                volume: request.volume().work(),
                budget: request.budget().as_f64(),
                priority: 100,
                deadline: None,
                shard: Some(shard),
            })
            .unwrap();
        records.push(LiveRecord::Submitted { entry }.encode());
    }
    let mut journal = MemoryJournal::new();
    let outcome = restarted.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    assert_eq!(outcome.cycle, lost);
    assert!(
        restarted.state().jobs.iter().any(|entry| entry.id == job),
        "the re-run must leave {job:?} live"
    );
    records.extend(journal.records().iter().cloned());
    write_wal(&dir, &records);
    let recovered = recover_live(&dir).unwrap().service;
    assert!(
        recovered
            .state()
            .jobs
            .iter()
            .all(|entry| !recovered.retired().contains_key(&entry.id.0)),
        "a job is both retired and live"
    );
    assert_eq!(recovered.job_count(), restarted.job_count());
    assert_eq!(recovered, restarted);

    // Once the deferred job commits and retires, a snapshot covers the
    // lost cycle: its `Finished` record still yields, and the job's
    // archive entry is rebuilt with the priority its deferrals aged.
    let mut journal = MemoryJournal::new();
    while !restarted.retired().contains_key(&job.0) {
        assert!(restarted.cycle() < lost + 200, "{job:?} never finished");
        restarted.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    }
    assert!(restarted.retired()[&job.0].priority > queued.priority);
    records.extend(journal.records().iter().cloned());
    write_wal(&dir, &records);
    SnapshotStore::open(&snapshot_dir(&dir))
        .unwrap()
        .save(
            restarted.cycle(),
            &LiveRecord::encode_checkpoint(restarted.state()),
        )
        .unwrap();
    let recovered = recover_live(&dir).unwrap();
    assert_eq!(recovered.snapshot_cycle, Some(restarted.cycle()));
    assert_eq!(recovered.service, restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites a journal into format 1 as its writers left it: the header
/// without the format number, `Submitted` and `Committed` records in full
/// (every request field, each window slot an object) as the derived
/// encoder writes them, and each `Finished` record carrying its job's
/// entry, taken from the archive of the run, which never stopped.
fn format_1_shape(run: &Run) -> Vec<String> {
    run.records
        .iter()
        .map(|line| match LiveRecord::decode(line).unwrap() {
            LiveRecord::Finished { cycle, job } => format!(
                "{{\"Finished\":{{\"cycle\":{cycle},\"job\":{job},\"entry\":{}}}}}",
                serde_json::to_string(&run.service.retired()[&job]).unwrap()
            ),
            record @ (LiveRecord::ServiceStarted { .. }
            | LiveRecord::Submitted { .. }
            | LiveRecord::Committed { .. }) => serde_json::to_string(&record).unwrap(),
            _ => line.clone(),
        })
        .collect()
}

/// A snapshot file without its archive digest, as format 1 wrote it
/// before snapshots held one.
fn without_archive_digest(file: &[u8]) -> Vec<u8> {
    let line = std::str::from_utf8(file).unwrap().trim_end();
    let payload = unframe(line).unwrap();
    let at = payload
        .find(",\"archive_digest\":")
        .expect("an archive digest");
    let end = at + 1 + payload[at + 1..].find(',').unwrap();
    format!(
        "{}\n",
        frame(&format!("{}{}", &payload[..at], &payload[end..]))
    )
    .into_bytes()
}

/// Recovers `records` and expects an `UnsupportedFormat` refusal of
/// record `record` whose detail mentions `what`.
fn assert_unsupported(dir: &Path, records: &[String], record: u64, what: &str) {
    write_wal(dir, records);
    match recover_live(dir) {
        Err(RecoverError::UnsupportedFormat {
            record: named,
            detail,
        }) => {
            assert_eq!(named, record, "{detail}");
            assert!(
                detail.contains(what),
                "{detail:?} does not mention {what:?}"
            );
        }
        other => panic!("expected record {record} to be refused, got {other:?}"),
    }
}

#[test]
fn a_barrier_without_a_job_digest_is_refused_by_record() {
    // The three barrier shapes written before barriers carried a job
    // digest, each in place of the first barrier after a job finished
    // that leaves jobs live: one listing the live jobs and usage, one also
    // listing the finished jobs (written before retirement), and one
    // carrying the shards, their platforms included.
    let run = drive(5, 30);
    let finished = run
        .records
        .iter()
        .position(|line| line.starts_with("{\"Finished\""))
        .expect("a job finishes");
    let barrier = (finished..run.records.len())
        .find(|&index| {
            run.records[index].starts_with(BARRIER_PREFIX)
                && !expected_after(&run, index + 1).state().jobs.is_empty()
        })
        .expect("a barrier after a retirement with live jobs");
    let mut state = expected_after(&run, barrier + 1).state().clone();
    let slot_digests = state
        .shards
        .iter()
        .map(|shard| shard.slots.digest())
        .collect();
    let shards = std::mem::take(&mut state.shards);
    let job_list = LiveState {
        slot_digests,
        ..state.clone()
    };
    let mut pre_retirement = job_list.clone();
    pre_retirement.jobs.extend(
        run.service
            .retired()
            .values()
            .filter(|entry| {
                matches!(entry.phase, JobPhase::Finished { finished_cycle, .. }
                    if finished_cycle < state.cycle)
            })
            .cloned(),
    );
    pre_retirement.jobs.sort_by_key(|entry| entry.id);
    let shard_carrying = LiveRecord::CycleCommitted { state }
        .encode()
        .replacen(
            "\"shards\":[]",
            &format!(
                "\"shards\":[{}]",
                shards
                    .iter()
                    .map(|shard| format!(
                        "{{\"platform\":{},\"slots\":{},\"now\":{},\"horizon\":{}}}",
                        serde_json::to_string(&shard.platform).unwrap(),
                        serde_json::to_string(&shard.slots).unwrap(),
                        shard.now.ticks(),
                        shard.horizon.ticks()
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            1,
        )
        .replace(",\"slot_digests\":[]", "");
    let dir = temp_dir("no-job-digest");
    for (old, shape) in [
        (
            LiveRecord::CycleCommitted { state: job_list }.encode(),
            "\"tenant\"",
        ),
        (
            LiveRecord::CycleCommitted {
                state: pre_retirement,
            }
            .encode(),
            "\"Finished\"",
        ),
        (shard_carrying, "\"platform\""),
    ] {
        assert!(old.contains(shape) && !old.contains("job_digest"), "{old}");
        let mut records = run.records.clone();
        records[barrier] = old;
        assert_unsupported(&dir, &records, barrier as u64 + 1, "without a job digest");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_of_a_later_format_is_refused() {
    let run = drive(5, 3);
    let mut records = run.records.clone();
    records[0] = records[0].replacen("{\"format\":2,", "{\"format\":3,", 1);
    assert_ne!(records[0], run.records[0]);
    let dir = temp_dir("format-3");
    assert_unsupported(&dir, &records, 1, "format 3");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_format_2_snapshot_without_an_archive_digest_is_refused() {
    let dir = temp_dir("no-archive-digest");
    let journal = DurableJournal::create(&dir, 5).unwrap();
    let run = drive_into(config(21), 12, false, journal, Some(snapshot_dir(&dir)));
    assert_eq!(recover_live(&dir).unwrap().snapshot_cycle, Some(10));
    let (_, files) = run.snapshots.last().expect("snapshots");
    let stripped: SnapshotFiles = files
        .iter()
        .map(|(name, bytes)| (name.clone(), without_archive_digest(bytes)))
        .collect();
    write_snapshots(&dir, &stripped);
    match recover_live(&dir) {
        Err(RecoverError::SnapshotDecode { message }) => {
            assert!(message.contains("archive_digest"), "{message}");
        }
        other => panic!("expected a snapshot without its archive digest refused, got {other:?}"),
    }
    // Next to a format-1 header the same snapshot is not read.
    let mut records = run.records.clone();
    records[0] = serde_json::to_string(&LiveRecord::decode(&records[0]).unwrap()).unwrap();
    write_wal(&dir, &records);
    let recovered = recover_live(&dir).unwrap();
    assert_eq!(recovered.snapshot_cycle, None);
    assert_eq!(recovered.service, run.service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_header_whose_config_cannot_run_is_a_decode_error() {
    // Each of these once panicked in `LiveService::new` or in generating
    // the platform; daemons once accepted a cycle advance below 1.
    let dir = temp_dir("config-check");
    let cases = [
        (
            LiveConfig {
                shards: 0,
                ..config(4)
            },
            "shards must be at least 1, got 0",
        ),
        (
            LiveConfig {
                nodes_per_shard: 0,
                ..config(4)
            },
            "nodes_per_shard must be at least 1, got 0",
        ),
        (
            LiveConfig {
                interval_length: 0,
                ..config(4)
            },
            "interval_length must be at least 1, got 0",
        ),
        (
            LiveConfig {
                cycle_advance: -5,
                ..config(4)
            },
            "cycle_advance must be at least 1, got -5",
        ),
    ];
    for (config, reason) in cases {
        write_wal(&dir, &[LiveRecord::ServiceStarted { config }.encode()]);
        match recover_live(&dir) {
            Err(RecoverError::Decode { record: 1, message }) => assert_eq!(message, reason),
            other => panic!("expected a refused header ({reason}), got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A format-1 live journal directory written by `DurableJournal` and
/// `LiveService` as they stood at commit `adc1aaf`, when snapshots still
/// carried each shard's platform and every free slot's performance and
/// price, and `Finished` records the retired entry: the run of
/// [`legacy_config`] for [`LEGACY_CYCLES`] cycles, a snapshot every fifth
/// barrier.
const LEGACY_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/platform-snapshots"
);
const LEGACY_CYCLES: u64 = 12;

/// One shard of sixteen nodes.
fn legacy_config() -> LiveConfig {
    LiveConfig {
        shards: 1,
        nodes_per_shard: 16,
        ..config(31)
    }
}

/// A format-1 live journal directory written by `DurableJournal` and
/// `LiveService` as they stood at commit `d3d9744`, when `Submitted` records wrote every
/// request field and `Committed` records each window slot as an object
/// (its `Finished` records and snapshot rows are today's shapes): the run
/// of [`full_submits_config`] for [`FULL_SUBMITS_CYCLES`] cycles with hard
/// arrivals, a snapshot every fifth barrier.
const FULL_SUBMITS_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/full-submits");
const FULL_SUBMITS_CYCLES: u64 = 16;

/// Two shards of five nodes, so jobs contend and some age before they
/// commit.
fn full_submits_config() -> LiveConfig {
    LiveConfig {
        nodes_per_shard: 5,
        ..config(44)
    }
}

/// Copies the committed journal directory `fixture` into a fresh one.
fn copy_fixture(fixture: &str, tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let source = Path::new(fixture);
    std::fs::copy(journal_path(source), journal_path(&dir)).unwrap();
    std::fs::create_dir_all(snapshot_dir(&dir)).unwrap();
    for (name, bytes) in read_snapshots(&snapshot_dir(source)) {
        std::fs::write(snapshot_dir(&dir).join(name), bytes).unwrap();
    }
    dir
}

/// Recovers `dir`, a format-1 fixture copy holding the run of `config` for
/// `cycles` cycles (`hard` as for [`arrivals`]), from record 1 without its
/// snapshots, and expects that run's service; then journals eight more
/// cycles on the recovered service with this build, a snapshot every fifth
/// barrier, and expects the same again from a recovery of the continued
/// directory, which returns. The header still names no format, so that
/// recovery too replays from record 1.
fn assert_fixture_recovers_and_continues(
    dir: &Path,
    config: LiveConfig,
    cycles: u64,
    hard: bool,
) -> RecoveredService {
    let header = std::fs::read_to_string(journal_path(dir)).unwrap();
    let header = header.lines().next().expect("a header");
    assert!(!header.contains("\"format\""), "{header}");
    let run = drive_into(config, cycles, hard, MemoryJournal::new(), None);
    let recovered = recover_live(dir).unwrap();
    assert_eq!(recovered.format, 1);
    assert_eq!(recovered.snapshot_cycle, None);
    assert_eq!(recovered.barriers, cycles);
    assert_eq!(recovered.service, run.service);

    let mut journal =
        DurableJournal::resume_at(dir, recovered.resume_len, recovered.barriers, 5).unwrap();
    let mut reference = run.service;
    let mut resumed = recovered.service;
    let mut rng = StdRng::seed_from_u64(41);
    for cycle in cycles..cycles + 8 {
        for submission in arrivals(&mut rng, cycle, false) {
            let entry = resumed.submit(&submission);
            assert_eq!(reference.submit(&submission), entry);
            if let Ok(entry) = entry {
                journal.append(&LiveRecord::Submitted { entry }.encode());
                journal.commit();
            }
        }
        reference.run_cycle();
        resumed.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    }
    journal.finish().unwrap();
    let again = recover_live(dir).unwrap();
    assert_eq!(again.snapshot_cycle, None);
    assert_eq!(again.service, reference);
    assert_eq!(again.service, resumed);
    again
}

#[test]
fn a_journal_with_platform_snapshots_recovers_and_continues() {
    let dir = copy_fixture(LEGACY_FIXTURE, "platform-snapshots");
    let snapshots = read_snapshots(&snapshot_dir(&dir));
    assert_eq!(snapshots.len(), 2);
    for (name, bytes) in &snapshots {
        let text = String::from_utf8_lossy(bytes);
        assert!(
            text.contains("\"platform\"") && text.contains("\"price_per_unit\""),
            "{name:?} is not a platform-carrying snapshot"
        );
    }
    assert_fixture_recovers_and_continues(&dir, legacy_config(), LEGACY_CYCLES, false);
    for (name, bytes) in read_snapshots(&snapshot_dir(&dir)) {
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            !text.contains("\"platform\"") && !text.contains("\"price_per_unit\""),
            "{name:?} still carries the platform"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_with_full_submits_and_object_windows_recovers_and_continues() {
    let dir = copy_fixture(FULL_SUBMITS_FIXTURE, "full-submits");
    let wal = std::fs::read_to_string(journal_path(&dir)).unwrap();
    let count = |needle: &str| wal.matches(needle).count();
    let submitted = count("{\"Submitted\"");
    assert!(submitted > 0 && count("\"reference_span\":null") == submitted);
    assert!(count("\"deadline\":") > count("\"deadline\":null"));
    assert!(
        count("{\"Committed\"") > 0 && count("\"slots\":[{\"slot\":") == count("{\"Committed\"")
    );
    assert!(count("{\"Finished\"") > 0 && count("\"entry\":") == submitted);
    let snapshots = read_snapshots(&snapshot_dir(&dir));
    assert_eq!(snapshots.len(), 2);
    for (name, bytes) in &snapshots {
        let text = String::from_utf8_lossy(bytes);
        assert!(
            text.contains("\"platform_digest\"") && !text.contains("\"archive_digest\""),
            "{name:?} is not a row snapshot without an archive digest"
        );
    }
    let again = assert_fixture_recovers_and_continues(
        &dir,
        full_submits_config(),
        FULL_SUBMITS_CYCLES,
        true,
    );
    assert!(again.service.retired().len() >= 20);
    let snapshot = read_snapshots(&snapshot_dir(&dir))
        .into_iter()
        .find(|(name, _)| name.to_string_lossy().contains("20"))
        .expect("the continued run's snapshot");
    assert!(String::from_utf8_lossy(&snapshot.1).contains("\"archive_digest\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn barrier_payloads_alone_start_with_the_tailer_prefix() {
    // serve-bench's WAL tailer spots a barrier by this prefix right after
    // the 9-byte CRC frame, without decoding it, and observes commit
    // latency there: every barrier of a multi-shard run must start with
    // it, and no other record may.
    let source = temp_dir("tailer");
    let run = drive_into(
        config(21),
        40,
        false,
        DurableJournal::create(&source, 3).unwrap(),
        Some(snapshot_dir(&source)),
    );
    assert_eq!(run.service.config().shards, 2);
    let wal = std::fs::read_to_string(journal_path(&source)).unwrap();
    let mut barriers = 0;
    for line in wal.lines() {
        assert_eq!(line.as_bytes()[8], b' ', "a 9-byte frame: {line}");
        let payload = &line[9..];
        let barrier = matches!(
            LiveRecord::decode(payload).unwrap(),
            LiveRecord::CycleCommitted { .. }
        );
        assert_eq!(payload.starts_with(BARRIER_PREFIX), barrier, "{payload}");
        barriers += usize::from(barrier);
    }
    assert_eq!(barriers, 40);
    assert_eq!(wal.lines().count(), run.records.len());
    let _ = std::fs::remove_dir_all(&source);
}

/// The value under `key` of a JSON object.
fn object_field<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = value else {
        panic!("looking up {key} in a {}", value.kind())
    };
    &mut fields
        .iter_mut()
        .find(|(name, _)| name == key)
        .unwrap_or_else(|| panic!("no field {key}"))
        .1
}

/// Rewrites the newest snapshot of `dir` through `edit`, which gets each
/// shard's free-slot rows, framed anew so its CRC verifies.
fn edit_snapshot_rows(dir: &Path, edit: impl FnOnce(&mut [Vec<Value>])) {
    let store = SnapshotStore::open(&snapshot_dir(dir)).unwrap();
    let (generation, payload) = store.latest().unwrap().expect("a snapshot");
    let mut value: Value = serde_json::from_str(&payload).unwrap();
    let state = object_field(object_field(&mut value, "CycleCommitted"), "state");
    let Value::Array(shards) = object_field(state, "shards") else {
        panic!("shards is not an array")
    };
    let mut rows: Vec<Vec<Value>> = shards
        .iter_mut()
        .map(|shard| match object_field(shard, "slots") {
            Value::Array(rows) => std::mem::take(rows),
            other => panic!("slots is a {}", other.kind()),
        })
        .collect();
    edit(&mut rows);
    for (shard, rows) in shards.iter_mut().zip(rows) {
        *object_field(shard, "slots") = Value::Array(rows);
    }
    store
        .save(generation, &serde_json::to_string(&value).unwrap())
        .unwrap();
}

#[test]
fn a_snapshot_for_another_platform_or_with_a_foreign_node_is_refused() {
    let dir = temp_dir("refused-snapshot");
    let journal = DurableJournal::create(&dir, 5).unwrap();
    let run = drive_into(config(21), 12, false, journal, Some(snapshot_dir(&dir)));
    let recovered = recover_live(&dir).unwrap();
    assert_eq!(recovered.snapshot_cycle, Some(10));
    assert_eq!(recovered.service, run.service);

    // A header edited to another seed or node count regenerates another
    // platform than the one the snapshot's rows were written against.
    let edited = [
        LiveConfig {
            seed: 22,
            ..config(21)
        },
        LiveConfig {
            nodes_per_shard: 11,
            ..config(21)
        },
    ];
    for config in edited {
        let mut records = run.records.clone();
        records[0] = LiveRecord::ServiceStarted { config }.encode();
        write_wal(&dir, &records);
        match recover_live(&dir) {
            Err(RecoverError::PlatformMismatch {
                shard: 0,
                snapshot,
                regenerated,
            }) => assert_ne!(snapshot, regenerated),
            other => panic!("expected a platform mismatch on shard 0, got {other:?}"),
        }
    }

    // A row on a node the shard's ten-node platform does not have.
    write_wal(&dir, &run.records);
    let mut slot = 0;
    edit_snapshot_rows(&dir, |shards| {
        let Value::Array(row) = &mut shards[1][0] else {
            panic!("a row is an array")
        };
        slot = u64::from_value(&row[0]).unwrap();
        row[1] = Value::UInt(10);
    });
    match recover_live(&dir) {
        Err(RecoverError::UnknownNode {
            shard: 1,
            slot: named,
            node: 10,
        }) => assert_eq!(named, slot),
        other => panic!("expected an unknown node on shard 1, got {other:?}"),
    }

    // Rows out of order are refused, not handed to the slot store (shard
    // 0 binds first).
    edit_snapshot_rows(&dir, |shards| shards[0].swap(0, 1));
    match recover_live(&dir) {
        Err(RecoverError::SnapshotDecode { message }) => {
            assert!(message.starts_with("shard 0: slot"), "{message}");
        }
        other => panic!("expected rows out of order on shard 0, got {other:?}"),
    }

    // A snapshot that has lost a shard is refused by its shard count,
    // before any row is bound.
    let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
    let (generation, payload) = store.latest().unwrap().expect("a snapshot");
    let mut value: Value = serde_json::from_str(&payload).unwrap();
    let state = object_field(object_field(&mut value, "CycleCommitted"), "state");
    let Value::Array(shards) = object_field(state, "shards") else {
        panic!("shards is not an array")
    };
    shards.remove(0);
    store
        .save(generation, &serde_json::to_string(&value).unwrap())
        .unwrap();
    match recover_live(&dir) {
        Err(RecoverError::SnapshotDecode { message }) => {
            assert_eq!(message, "snapshot holds 1 shards, the service has 2");
        }
        other => panic!("expected a snapshot that lost a shard refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_whose_clock_or_archive_differs_from_the_replay_is_refused() {
    // The snapshot's slot lists take over at its barrier only if its
    // clocks and its archive digest are the ones the replay reached.
    let dir = temp_dir("snapshot-replay");
    let journal = DurableJournal::create(&dir, 5).unwrap();
    let run = drive_into(config(21), 12, false, journal, Some(snapshot_dir(&dir)));
    let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
    let (generation, payload) = store.latest().unwrap().expect("a snapshot");
    assert_eq!(generation, 10);
    let archive_digest = |payload: &str| {
        let at = payload
            .find("\"archive_digest\":")
            .expect("an archive digest")
            + 17;
        let end = at + payload[at..].find(',').unwrap();
        payload[at..end].to_owned()
    };
    let digest = archive_digest(&payload);
    for (edit, what) in [
        (
            payload.replacen(
                &format!("\"now\":{}", 10 * CYCLE_ADVANCE),
                &format!("\"now\":{}", 11 * CYCLE_ADVANCE),
                1,
            ),
            "the snapshot's shard 0 is at t660 with horizon t1200, the replay at t600",
        ),
        (
            payload.replacen(
                &format!("\"archive_digest\":{digest}"),
                &format!("\"archive_digest\":{}", digest.parse::<u64>().unwrap() ^ 1),
                1,
            ),
            "the replayed archive digests to",
        ),
    ] {
        assert_ne!(edit, payload);
        store.save(generation, &edit).unwrap();
        assert_refused(&dir, &run.records, what);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every barrier written, with its size, and the sizes of the `Finished`
/// records. Each barrier must carry digests in place of the shards and the
/// jobs: platform-carrying shards would decode into `shards`, and
/// row-shaped ones do not decode as a record at all.
#[derive(Default)]
struct BarrierProbe {
    barriers: Vec<(usize, LiveState)>,
    finished: Vec<usize>,
    /// `(bytes, window slots)` of each `Committed` record.
    committed: Vec<(usize, usize)>,
    /// Bytes of each `Submitted` record.
    submitted: Vec<usize>,
}

impl Journal for BarrierProbe {
    fn append(&mut self, payload: &str) {
        if payload.starts_with(BARRIER_PREFIX) {
            let state = decode_barrier(payload);
            assert!(
                state.shards.is_empty()
                    && state.jobs.is_empty()
                    && state.usage.is_empty()
                    && state.job_digest.is_some(),
                "a barrier carries more than digests: {payload}"
            );
            self.barriers.push((payload.len(), state));
        } else if payload.starts_with("{\"Finished\"") {
            self.finished.push(payload.len());
        } else if payload.starts_with("{\"Submitted\"") {
            self.submitted.push(payload.len());
        } else if let Ok(LiveRecord::Committed { window, .. }) = LiveRecord::decode(payload) {
            self.committed.push((payload.len(), window.size()));
        }
    }
    fn commit(&mut self) {}
}

impl BarrierProbe {
    fn largest(&self) -> usize {
        self.barriers
            .iter()
            .map(|(size, _)| *size)
            .max()
            .unwrap_or(0)
    }

    /// Asserts that some job finished and that no `Finished` record is
    /// over [`FINISHED_BOUND`].
    fn assert_slim_finished(&self) {
        let largest = self.finished.iter().max().expect("some job finished");
        assert!(
            *largest <= FINISHED_BOUND,
            "a Finished record of {largest} bytes, over the {FINISHED_BOUND}-byte bound"
        );
    }

    /// Asserts that some job was submitted and some window committed, and
    /// that no `Submitted` record is over [`SUBMITTED_BOUND`] and no
    /// `Committed` record over [`COMMITTED_BOUND`].
    fn assert_slim_submits_and_commits(&self) {
        let largest = self.submitted.iter().max().expect("some job submitted");
        assert!(
            *largest <= SUBMITTED_BOUND,
            "a Submitted record of {largest} bytes, over the {SUBMITTED_BOUND}-byte bound"
        );
        assert!(!self.committed.is_empty(), "no window committed");
        for &(bytes, slots) in &self.committed {
            let bound = COMMITTED_BOUND.0 * slots + COMMITTED_BOUND.1;
            assert!(
                bytes <= bound,
                "a Committed record of {bytes} bytes for {slots} slots, over {bound}"
            );
        }
    }

    /// Each barrier's size less the printed widths of its numbers.
    fn skeletons(&self) -> BTreeSet<usize> {
        let digits = |number: u64| number.to_string().len();
        self.barriers
            .iter()
            .map(|(size, state)| {
                let numbers = [state.cycle, u64::from(state.next_job)]
                    .into_iter()
                    .chain(state.slot_digests.iter().copied())
                    .chain(state.job_digest);
                size - numbers.map(digits).sum::<usize>()
            })
            .collect()
    }
}

#[test]
fn barrier_size_does_not_grow_with_the_platform() {
    // Each cycle also admits a job whose deadline has passed, which no
    // window can meet, so the live table keeps growing; the barrier must
    // not grow with it.
    let probe = |nodes_per_shard: usize| {
        let mut service = LiveService::new(LiveConfig {
            nodes_per_shard,
            scheduler: BatchSchedulerConfig {
                max_alternatives_per_job: 2,
                ..BatchSchedulerConfig::default()
            },
            ..config(9)
        });
        let mut rng = StdRng::seed_from_u64(17);
        let mut probe = BarrierProbe::default();
        let mut live = Vec::new();
        for cycle in 0..40 {
            let mut submissions = arrivals(&mut rng, cycle, false);
            if cycle % 10 == 0 {
                // A wide window, whose `Finished` record stays as small.
                submissions.push(Submission {
                    tenant: "carol".to_owned(),
                    nodes: 16,
                    volume: 100,
                    budget: 1_000_000.0,
                    priority: 5,
                    deadline: None,
                    shard: None,
                });
            }
            for submission in &submissions {
                if let Ok(entry) = service.submit(submission) {
                    probe.append(&LiveRecord::Submitted { entry }.encode());
                }
            }
            let entry = service
                .submit(&Submission {
                    tenant: "bob".to_owned(),
                    nodes: 2,
                    volume: 100,
                    budget: 10_000.0,
                    priority: 0,
                    deadline: Some(1),
                    shard: None,
                })
                .unwrap();
            probe.append(&LiveRecord::Submitted { entry }.encode());
            service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut probe);
            live.push(service.state().jobs.len());
        }
        let widest = service
            .retired()
            .values()
            .filter_map(|entry| entry.phase.window())
            .map(|window| window.size())
            .max();
        (probe, live, widest)
    };
    let ((small, small_live, _), (large, large_live, widest)) = (probe(16), probe(1000));
    assert_eq!(
        widest,
        Some(16),
        "the wide windows must finish on 2 x 1000 nodes"
    );
    large.assert_slim_finished();
    large.assert_slim_submits_and_commits();
    for live in [&small_live, &large_live] {
        let (fewest, most) = (live.iter().min().unwrap(), live.iter().max().unwrap());
        assert!(
            *most >= 40 && *most >= 4 * fewest,
            "live jobs ranged over {fewest}..={most} only"
        );
    }
    // Besides the printed widths of its counters and digests, every
    // barrier of either platform has the same bytes.
    let skeletons: BTreeSet<usize> = small
        .skeletons()
        .union(&large.skeletons())
        .copied()
        .collect();
    assert_eq!(skeletons.len(), 1, "barrier skeletons {skeletons:?}");
}

#[test]
fn a_2000_cycle_soak_keeps_barriers_small() {
    // Few alternatives per job keep 2000 unoptimised cycles quick; the
    // barrier's contents do not depend on how hard the search tries.
    let mut service = LiveService::new(LiveConfig {
        scheduler: BatchSchedulerConfig {
            max_alternatives_per_job: 2,
            ..BatchSchedulerConfig::default()
        },
        ..config(9)
    });
    let mut rng = StdRng::seed_from_u64(17);
    let mut probe = BarrierProbe::default();
    for cycle in 0..2000 {
        for submission in arrivals(&mut rng, cycle, false) {
            let _ = service.submit(&submission);
        }
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut probe);
    }
    assert_eq!(probe.barriers.len(), 2000);
    assert!(
        service.retired().len() > 1000,
        "the soak must retire most of its jobs, retired {}",
        service.retired().len()
    );
    assert_eq!(probe.skeletons().len(), 1);
    probe.assert_slim_finished();
    let largest = probe.largest();
    assert!(
        largest <= BARRIER_BOUND,
        "a barrier of {largest} bytes, over the {BARRIER_BOUND}-byte bound"
    );
}

/// Largest barrier the soak may write. A barrier holds two counters and
/// three 64-bit digests, whatever the platform and the live jobs: under
/// 200 bytes in this run.
const BARRIER_BOUND: usize = 512;

/// Largest `Finished` record a run may write: `{"Finished":{"cycle":C,
/// "job":J}}` is 30 bytes plus the printed widths of two numbers, whatever
/// the retired job's window, request or tenant.
const FINISHED_BOUND: usize = 64;

/// Largest `Submitted` record of a request with the default requirements:
/// its tenant, counters and request numbers, and no `null` field.
const SUBMITTED_BOUND: usize = 200;

/// Largest `Committed` record, per window slot and in all: one
/// `[slot,node,length,cost]` row per slot after the cycle, job, shard and
/// window start.
const COMMITTED_BOUND: (usize, usize) = (40, 100);

/// FNV-1a over the `Committed` and `Deferred` records, one line each, in
/// their full shapes.
struct DecisionDigest(u64);

impl Journal for DecisionDigest {
    fn append(&mut self, payload: &str) {
        if payload.starts_with("{\"Committed\"") || payload.starts_with("{\"Deferred\"") {
            // In the full shape the digest was recorded in, which the
            // derived encoder still writes: it pins decisions, not bytes.
            let full = serde_json::to_string(&LiveRecord::decode(payload).unwrap()).unwrap();
            for byte in full.bytes().chain(std::iter::once(b'\n')) {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn commit(&mut self) {}
}

#[test]
fn scheduling_decisions_match_the_golden_digest() {
    // Computed before finished jobs were retired out of the live table.
    // Finished jobs never took part in scheduling, so retiring them must
    // leave every commit and defer decision bit-identical.
    const GOLDEN: u64 = 0x999f_708c_af34_c197;
    let mut service = LiveService::new(config(7));
    let mut rng = StdRng::seed_from_u64(11);
    let mut digest = DecisionDigest(0xcbf2_9ce4_8422_2325);
    let (mut committed, mut deferred, mut finished) = (0, 0, 0);
    for cycle in 0..500 {
        for submission in arrivals(&mut rng, cycle, true) {
            let _ = service.submit(&submission);
        }
        let outcome = service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut digest);
        committed += outcome.committed.len();
        deferred += outcome.deferred.len();
        finished += outcome.finished.len();
    }
    assert_eq!((committed, deferred, finished), (488, 14_399, 486));
    assert_eq!(service.job_count(), 546);
    assert_eq!(digest.0, GOLDEN, "digest {:#018x}", digest.0);
}

#[test]
fn free_slot_lists_match_the_golden_digests() {
    // Computed when the clock advance still released each node's grown
    // span, pruned and cut the stale prefixes one slot at a time. A
    // barrier carries these digests, so journals written then recover
    // only while the advance keeps every slot id and span bit-identical.
    const GOLDEN: [(u64, u64); 2] = [
        (0xc5fd_70e5_fb3b_3eae, 120_363),
        (0x331f_077d_5b38_3eff, 120_392),
    ];
    let mut service = LiveService::new(LiveConfig {
        nodes_per_shard: 200,
        ..config(5)
    });
    let mut rng = StdRng::seed_from_u64(23);
    let mut committed = 0;
    for cycle in 0..300 {
        for submission in arrivals(&mut rng, cycle, false) {
            let _ = service.submit(&submission);
        }
        committed += service.run_cycle().committed.len();
    }
    assert_eq!(committed, 464);
    let pinned: Vec<(u64, u64)> = service
        .state()
        .shards
        .iter()
        .map(|shard| (shard.slots.digest(), shard.slots.next_id().0))
        .collect();
    assert_eq!(pinned, GOLDEN, "{pinned:#x?}");
}

#[test]
fn submit_allocations_do_not_grow_with_the_jobs_table() {
    let mut service = LiveService::new(config(3));
    let submission = |tenant: &str| Submission {
        tenant: tenant.to_owned(),
        nodes: 1,
        volume: 100,
        budget: 10_000.0,
        priority: 1,
        deadline: None,
        shard: Some(0),
    };
    for tenant in ["bob", "carol"] {
        service.submit(&submission(tenant)).unwrap();
    }
    let few = cost_of(|| service.submit(&submission("bob")).unwrap())
        .0
        .allocations;
    for index in 0..300 {
        service.submit(&submission(TENANTS[1 + index % 2])).unwrap();
    }
    let many = cost_of(|| service.submit(&submission("bob")).unwrap())
        .0
        .allocations;
    // Rebuilding usage once allocated a tenant key per queued job. Either
    // push may grow the jobs Vec, which is one reallocation.
    assert!(
        many <= few + 1,
        "a submit behind 300 queued jobs made {many} allocations, one behind 3 made {few}"
    );
}
