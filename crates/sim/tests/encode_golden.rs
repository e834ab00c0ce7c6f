//! Golden encodings of everything the journals and snapshots write.
//!
//! Each case pins the byte length and FNV-1a 64 hash of its encoded
//! output, recorded when serialization still went through an owned value
//! tree (the live snapshot and the pretty live state since re-recorded
//! for the row-shaped shards). Journals and snapshots already on disk recover only while the
//! encoder reproduces those bytes exactly, so any drift here (key order,
//! escaping, float formatting, pretty-printing) is a wire-format break.
//!
//! Covered: every `LiveRecord` variant of a seeded live run (grouped by
//! variant), every `JournalRecord` variant of a disrupted rolling run, a
//! 2 x 200-node live snapshot and one pretty-printed report.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_env::{EnvironmentConfig, NodeGenConfig};
use slotsel_obs::journal::MemoryJournal;
use slotsel_obs::{NoopMetrics, Obs};
use slotsel_sim::disruption::DisruptionConfig;
use slotsel_sim::parallel::Parallelism;
use slotsel_sim::recovery::RecoveryPolicy;
use slotsel_sim::rolling::{simulate_with_recovery_observed, RollingConfig};
use slotsel_sim::serve::{LiveConfig, LiveRecord, LiveService, Submission};

/// `(records, total bytes, FNV-1a 64 over each record plus a newline)`.
type Digest = (usize, usize, u64);

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_one(text: &str) -> (usize, u64) {
    (text.len(), fnv(FNV_OFFSET, text.as_bytes()))
}

/// Digests `records` grouped by their externally tagged variant name.
fn digest_by_variant(records: &[String]) -> BTreeMap<String, Digest> {
    let mut groups: BTreeMap<String, Digest> = BTreeMap::new();
    for record in records {
        let tag = record
            .strip_prefix("{\"")
            .and_then(|rest| rest.split('"').next())
            .expect("an externally tagged record");
        let entry = groups.entry(tag.to_owned()).or_insert((0, 0, FNV_OFFSET));
        entry.0 += 1;
        entry.1 += record.len();
        entry.2 = fnv(fnv(entry.2, record.as_bytes()), b"\n");
    }
    groups
}

fn live_config(seed: u64, nodes_per_shard: usize) -> LiveConfig {
    LiveConfig {
        shards: 2,
        nodes_per_shard,
        interval_length: 600,
        cycle_advance: 60,
        seed,
        ..LiveConfig::default()
    }
}

/// 0–3 seeded submissions; one in eight has a budget too tight to meet,
/// so deferrals show up, and some carry deadlines.
fn arrivals(rng: &mut StdRng, cycle: u64) -> Vec<Submission> {
    (0..rng.gen_range(0..4u32))
        .map(|_| {
            let tight = rng.gen_range(0..8u32) == 0;
            Submission {
                tenant: ["alice", "bob", "carol \"c\""][rng.gen_range(0..3usize)].to_owned(),
                nodes: rng.gen_range(1..=4usize),
                volume: rng.gen_range(50..=400u64),
                budget: if tight {
                    f64::from(rng.gen_range(1..20u32)) * 10.0
                } else {
                    f64::from(rng.gen_range(50..400u32)) * 100.0 + 0.25
                },
                priority: rng.gen_range(0..3u32),
                deadline: (rng.gen_range(0..6u32) == 0)
                    .then(|| (cycle as i64 + rng.gen_range(2..12i64)) * 60),
                shard: (rng.gen_range(0..4u32) == 0).then(|| rng.gen_range(0..2u32)),
            }
        })
        .collect()
}

/// Drives a live service for `cycles`, journaling into memory.
fn live_run(config: LiveConfig, cycles: u64) -> (LiveService, Vec<String>) {
    let mut service = LiveService::new(config.clone());
    let mut journal = MemoryJournal::new();
    slotsel_obs::journal::Journal::append(
        &mut journal,
        &LiveRecord::ServiceStarted { config }.encode(),
    );
    let mut rng = StdRng::seed_from_u64(31);
    for cycle in 0..cycles {
        for submission in arrivals(&mut rng, cycle) {
            if let Ok(entry) = service.submit(&submission) {
                slotsel_obs::journal::Journal::append(
                    &mut journal,
                    &LiveRecord::Submitted { entry }.encode(),
                );
            }
        }
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    }
    (service, journal.records().to_vec())
}

fn rolling_run() -> (String, Vec<String>) {
    let config = RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 12,
        disruption: Some(DisruptionConfig::adversarial(9)),
        recovery: RecoveryPolicy::default(),
        ..RollingConfig::default()
    };
    let jobs = (0..12)
        .map(|i| {
            Job::new(
                JobId(i),
                1 + i % 3,
                ResourceRequest::builder()
                    .node_count(1 + i as usize % 4)
                    .volume(Volume::new(150 + 25 * u64::from(i)))
                    .budget(Money::from_units(4_000 + 250 * i64::from(i)))
                    .build()
                    .unwrap(),
            )
        })
        .collect();
    let mut journal = MemoryJournal::new();
    let report = simulate_with_recovery_observed(&config, jobs, &mut Obs::dark(), &mut journal);
    let pretty = serde_json::to_string_pretty(&report).expect("reports serialize");
    (pretty, journal.records().to_vec())
}

fn assert_groups(what: &str, got: &BTreeMap<String, Digest>, want: &[(&str, Digest)]) {
    let want: BTreeMap<String, Digest> = want
        .iter()
        .map(|(tag, digest)| ((*tag).to_owned(), *digest))
        .collect();
    assert_eq!(got, &want, "{what}: {got:#x?}");
}

#[test]
fn live_records_match_their_golden_encodings() {
    let (service, records) = live_run(live_config(17, 10), 150);
    assert_groups(
        "live records",
        &digest_by_variant(&records),
        &[
            // Re-recorded when a committed window's slots became
            // `[slot, node, length, cost]` rows (44,160 B before).
            ("Committed", (218, 27_630, 0xf830_e24f_e8c8_e49a)),
            // Re-recorded when barriers dropped the jobs table for a job
            // digest; every other group still has its tree-encoder bytes.
            ("CycleCommitted", (150, 22_053, 0x5495_bf80_7daf_f876)),
            ("Deferred", (1_366, 61_090, 0x6a74_2954_f2af_8470)),
            // Re-recorded when `Finished` records shrank to `{cycle, job}`
            // and recovery began deriving the retired entry (129,103 B
            // before).
            ("Finished", (216, 7_519, 0x4c9b_2814_c95c_0290)),
            // Re-recorded when the header began with the journal format,
            // `"format":2,` (263 B before).
            ("ServiceStarted", (1, 274, 0x3f33_6309_d028_c9e5)),
            // Re-recorded when `Submitted` records left out the request
            // fields that hold their defaults (88,083 B before).
            ("Submitted", (236, 40_895, 0x04b5_ca22_d0ae_a7cf)),
        ],
    );
    // Re-recorded when shards left their platform and slot prices out:
    // the pretty state goes through the same `LiveState` encoder as a
    // snapshot (22,913 B before), and again when the state gained the
    // `archive_digest` field (14,800 B before; the same bytes without it).
    let pretty = serde_json::to_string_pretty(service.state()).expect("states serialize");
    assert_eq!(
        digest_one(&pretty),
        (14_841, 0xc1cd_7f08_fc8f_4f18),
        "{:#x?}",
        digest_one(&pretty)
    );
}

#[test]
fn a_wide_live_snapshot_matches_its_golden_encoding() {
    let (service, _) = live_run(live_config(5, 200), 40);
    // Re-recorded when snapshots left the platform and the per-slot
    // performance and price out (89,122 B before), and again when they
    // gained the `archive_digest` field (11,390 B before; the same bytes
    // without it).
    let snapshot = LiveRecord::encode_checkpoint(service.state());
    assert_eq!(
        digest_one(&snapshot),
        (11_427, 0x59ab_f5bd_6d37_c43c),
        "{:#x?}",
        digest_one(&snapshot)
    );
}

#[test]
fn rolling_records_and_a_pretty_report_match_their_golden_encodings() {
    let (pretty, records) = rolling_run();
    assert_groups(
        "rolling records",
        &digest_by_variant(&records),
        &[
            ("Committed", (12, 2_197, 0x86f4_6b8d_15c4_59f9)),
            ("CycleCommitted", (2, 2_045, 0x2c5c_48f9_fc1d_ad11)),
            ("Deferred", (2, 90, 0xaaf9_f139_cb0a_d294)),
            ("Disrupted", (12, 1_086, 0xa119_aee8_498f_64b4)),
            ("Lost", (8, 225, 0x6998_aa90_32df_6811)),
            ("RunFinished", (1, 552, 0xec29_21aa_e560_228e)),
            ("RunStarted", (1, 4_137, 0x573f_eb07_1f75_3351)),
        ],
    );
    assert_eq!(
        digest_one(&pretty),
        (960, 0xef92_71c0_afda_78a5),
        "{:#x?}",
        digest_one(&pretty)
    );
}
