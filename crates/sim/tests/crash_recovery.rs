//! Crash-at-any-event recovery properties of the journaled rolling
//! simulation.
//!
//! The contract under test (docs/DURABILITY.md): kill a journaled run
//! after *any* prefix of its record stream, recover from that prefix,
//! resume — and the final report is bit-identical to the uninterrupted
//! run's. Three layers are exercised:
//!
//! 1. in-memory record-prefix sweeps over every crash point `k`, for
//!    every recovery policy;
//! 2. on-disk byte-truncation sweeps (torn tails included) through the
//!    real `DurableJournal` + `recover` path;
//! 3. property-based sweeps over arbitrary batches, seeds, policies and
//!    crash points.

use proptest::prelude::*;

use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_env::{EnvironmentConfig, NodeGenConfig};
use slotsel_obs::journal::MemoryJournal;
use slotsel_obs::Obs;
use slotsel_sim::disruption::DisruptionConfig;
use slotsel_sim::journal::{journal_path, recover, replay, DurableJournal, RecoverError};
use slotsel_sim::recovery::RecoveryPolicy;
use slotsel_sim::rolling::{
    resume_with_recovery_observed, simulate_with_recovery, simulate_with_recovery_observed,
    RollingConfig, RollingReport,
};

fn job(id: u32, priority: u32, nodes: usize, volume: u64, budget: i64) -> Job {
    Job::new(
        JobId(id),
        priority,
        ResourceRequest::builder()
            .node_count(nodes)
            .volume(Volume::new(volume))
            .budget(Money::from_units(budget))
            .build()
            .unwrap(),
    )
}

fn batch(n: u32) -> Vec<Job> {
    (0..n).map(|i| job(i, 1, 3, 200, 5_000)).collect()
}

fn disrupted_config(recovery: RecoveryPolicy, seed: u64) -> RollingConfig {
    RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 12,
        disruption: Some(DisruptionConfig::adversarial(seed)),
        recovery,
        ..RollingConfig::default()
    }
}

/// Runs the uninterrupted reference, returning its report and full
/// record stream.
fn reference(config: &RollingConfig, jobs: Vec<Job>) -> (RollingReport, Vec<String>) {
    let mut journal = MemoryJournal::new();
    let report = simulate_with_recovery_observed(config, jobs, &mut Obs::dark(), &mut journal);
    (report, journal.records().to_vec())
}

/// How many leading records fit inside `resume_len` bytes of framed
/// journal (CRC word + space + payload + newline per line).
fn records_within(records: &[String], resume_len: u64) -> usize {
    let mut offset = 0u64;
    for (index, record) in records.iter().enumerate() {
        offset += record.len() as u64 + 10;
        if offset > resume_len {
            return index;
        }
    }
    records.len()
}

/// Crash after record `k`, recover, resume; assert the resumed report
/// and the continued record stream both match the reference.
fn assert_crash_point_recovers(
    records: &[String],
    k: usize,
    report: &RollingReport,
    context: &str,
) {
    let run = replay(&records[..k])
        .unwrap_or_else(|error| panic!("{context}: prefix of {k} records must replay: {error}"));
    let trusted = records_within(&records[..k], run.resume_len);
    let mut resumed_journal = MemoryJournal::new();
    let resumed = resume_with_recovery_observed(run, &mut Obs::dark(), &mut resumed_journal);
    assert_eq!(
        &resumed, report,
        "{context}: crash after record {k} must recover bit-identically"
    );
    // The continued stream (trusted prefix + post-resume records) must
    // itself replay to the same finished run.
    let mut continued: Vec<String> = records[..trusted].to_vec();
    continued.extend(resumed_journal.records().iter().cloned());
    let final_run = replay(&continued)
        .unwrap_or_else(|error| panic!("{context}: continued stream must replay: {error}"));
    assert_eq!(
        final_run.finished.as_ref(),
        Some(report),
        "{context}: continued stream after crash at {k} must end in the reference report"
    );
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(records, FNV-1a 64 over each record plus a newline)`.
fn stream_digest(records: &[String]) -> (usize, u64) {
    let hash = records.iter().fold(FNV_OFFSET, |hash, record| {
        fnv(fnv(hash, record.as_bytes()), b"\n")
    });
    (records.len(), hash)
}

#[test]
fn journaled_run_is_bit_identical_to_the_plain_path() {
    // Each policy's record stream, pinned so a refactor of the rolling
    // loop that reorders or reshapes a record fails here.
    for (policy, golden) in [
        (RecoveryPolicy::Abandon, (19, 0xed4e_e1d5_d34d_9d91)),
        (
            RecoveryPolicy::RetryNextCycle {
                backoff: 0,
                max_attempts: 5,
            },
            (106, 0x4129_d669_8ba5_c4e3),
        ),
        (RecoveryPolicy::Migrate, (19, 0xd3e7_533d_f27d_7b3f)),
    ] {
        let config = disrupted_config(policy, 99);
        let plain = simulate_with_recovery(&config, batch(6));
        let (journaled, records) = reference(&config, batch(6));
        assert_eq!(plain, journaled, "journaling must not alter the run");
        assert_eq!(
            stream_digest(&records),
            golden,
            "{policy:?}: the record stream drifted from the golden"
        );
        let full = replay(&records).unwrap();
        assert_eq!(full.finished, Some(journaled));
        assert!(!full.discarded_tail);
    }
}

#[test]
fn victims_lost_when_the_run_ends_are_journaled() {
    // Two cycles leave victims parked or re-pending when the run ends:
    // each loss is journaled, after the last barrier and before
    // `RunFinished`, and a crash at any record still recovers.
    let config = RollingConfig {
        max_cycles: 2,
        ..disrupted_config(
            RecoveryPolicy::RetryNextCycle {
                backoff: 1,
                max_attempts: 3,
            },
            99,
        )
    };
    let (report, records) = reference(&config, batch(6));
    assert!(report.survival.jobs_lost > 0, "the run must lose victims");
    let lost = records
        .iter()
        .filter(|line| line.starts_with("{\"Lost\""))
        .count() as u64;
    assert_eq!(lost, report.survival.jobs_lost);
    for k in 1..=records.len() {
        assert_crash_point_recovers(&records, k, &report, "end-of-run losses");
    }
}

#[test]
fn crash_at_every_record_recovers_bit_identically() {
    let config = disrupted_config(
        RecoveryPolicy::RetryNextCycle {
            backoff: 1,
            max_attempts: 3,
        },
        99,
    );
    let (report, records) = reference(&config, batch(6));
    assert!(
        report.survival.events_injected() > 0,
        "the sweep must cover disruption and recovery records"
    );
    for k in 1..=records.len() {
        assert_crash_point_recovers(&records, k, &report, "retry");
    }
}

#[test]
fn crash_sweep_covers_abandon_and_migrate_policies() {
    for (policy, context) in [
        (RecoveryPolicy::Abandon, "abandon"),
        (RecoveryPolicy::Migrate, "migrate"),
    ] {
        let (report, records) = reference(&disrupted_config(policy, 99), batch(6));
        for k in (1..=records.len()).step_by(5) {
            assert_crash_point_recovers(&records, k, &report, context);
        }
        assert_crash_point_recovers(&records, records.len(), &report, context);
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slotsel-crash-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn durable_journal_round_trips_a_full_run_on_disk() {
    let dir = temp_dir("full");
    let config = disrupted_config(RecoveryPolicy::Migrate, 7);
    let mut journal = DurableJournal::create(&dir, 3).unwrap();
    let report = simulate_with_recovery_observed(&config, batch(5), &mut Obs::dark(), &mut journal);
    journal.finish().unwrap();

    let run = recover(&dir).unwrap();
    assert_eq!(run.config, config);
    assert_eq!(run.finished, Some(report.clone()));
    // Recovering a finished journal resumes to the report without
    // re-executing or appending.
    let resumed = resume_with_recovery_observed(
        run,
        &mut Obs::dark(),
        &mut slotsel_obs::journal::NoopJournal,
    );
    assert_eq!(resumed, report);
}

#[test]
fn byte_truncated_journals_recover_and_resume_on_disk() {
    let dir = temp_dir("truncate");
    let config = disrupted_config(
        RecoveryPolicy::RetryNextCycle {
            backoff: 0,
            max_attempts: 4,
        },
        42,
    );
    // Reference run journaled to disk. A huge snapshot cadence keeps the
    // snapshot store empty so truncating the journal cannot make a
    // snapshot run ahead of it (that refusal has its own test).
    let mut journal = DurableJournal::create(&dir, 1_000_000).unwrap();
    let report = simulate_with_recovery_observed(&config, batch(5), &mut Obs::dark(), &mut journal);
    journal.finish().unwrap();
    let original = std::fs::read(journal_path(&dir)).unwrap();

    // Crash the file at byte lengths across the whole journal — most cut
    // mid-line, leaving a torn tail.
    for i in 0..=16u64 {
        let cut = (original.len() as u64 * i / 16) as usize;
        std::fs::write(journal_path(&dir), &original[..cut]).unwrap();
        // Each cut is an independent crash scenario: drop snapshots a
        // previous iteration's resume may have written beyond this cut.
        let _ = std::fs::remove_dir_all(dir.join("snapshots"));
        let run = match recover(&dir) {
            Ok(run) => run,
            Err(RecoverError::EmptyJournal) => {
                assert!(
                    cut < original.len() / 8,
                    "only cuts inside the header line may leave nothing to recover (cut {cut})"
                );
                continue;
            }
            Err(error) => panic!("cut at byte {cut} must stay recoverable: {error}"),
        };
        let mut resumed_journal = DurableJournal::resume(&dir, &run, 3).unwrap();
        let resumed = resume_with_recovery_observed(run, &mut Obs::dark(), &mut resumed_journal);
        resumed_journal.finish().unwrap();
        assert_eq!(resumed, report, "cut at byte {cut}");
        // The repaired journal on disk is whole again.
        let healed = recover(&dir).unwrap();
        assert_eq!(healed.finished, Some(report.clone()), "cut at byte {cut}");
        assert!(!healed.discarded_tail);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Crash-at-any-event holds for arbitrary batches, disruption seeds,
    // recovery policies and crash points.
    #[test]
    fn crash_recovery_is_bit_identical_for_arbitrary_runs(
        seed in 0u64..1_000,
        jobs in 2u32..7,
        policy in prop_oneof![
            Just(RecoveryPolicy::Abandon),
            (0u32..3, 1u32..5).prop_map(|(backoff, max_attempts)| {
                RecoveryPolicy::RetryNextCycle { backoff, max_attempts }
            }),
            Just(RecoveryPolicy::Migrate),
        ],
        crash_fraction in 0.0f64..1.0,
    ) {
        let config = disrupted_config(policy, seed);
        let (report, records) = reference(&config, batch(jobs));
        let k = 1 + ((records.len() - 1) as f64 * crash_fraction) as usize;
        assert_crash_point_recovers(&records, k, &report, "proptest");
    }
}
