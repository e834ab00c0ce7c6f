//! End-to-end properties of the JSONL trace a fault-injected rolling
//! simulation emits: determinism (same seed + same config ⇒ byte-identical
//! trace) and schema round-tripping (every emitted line decodes back to
//! the event that produced it). Each policy's trace bytes are pinned by
//! their length and FNV-1a 64 hash, so a refactor of the rolling loop that
//! reorders or reshapes an event fails here.

use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_env::{EnvironmentConfig, NodeGenConfig};
use slotsel_obs::{
    read_trace, MemoryRecorder, NoopJournal, Obs, Recorder, TraceEvent, TraceRecorder,
};
use slotsel_sim::rolling::{simulate_with_recovery_observed, RollingConfig, RollingReport};
use slotsel_sim::{DisruptionConfig, RecoveryPolicy};

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

fn jobs() -> Vec<Job> {
    (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect()
}

fn disrupted_config(recovery: RecoveryPolicy) -> RollingConfig {
    RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 30,
        disruption: Some(DisruptionConfig::adversarial(99)),
        recovery,
        ..RollingConfig::default()
    }
}

/// Runs the simulation with `recorder` as the only lit sink.
fn traced(config: &RollingConfig, recorder: &mut dyn Recorder) -> RollingReport {
    let mut obs = Obs::dark().with_recorder(recorder);
    simulate_with_recovery_observed(config, jobs(), &mut obs, &mut NoopJournal)
}

/// Runs the simulation into a deterministic (timing-free) JSONL sink and
/// returns the raw bytes.
fn trace_bytes(config: &RollingConfig) -> Vec<u8> {
    let mut recorder = TraceRecorder::deterministic(Vec::new());
    let _ = traced(config, &mut recorder);
    recorder.finish().expect("writing to a Vec cannot fail")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn same_seed_and_config_yield_byte_identical_traces() {
    // `(length, FNV-1a 64)` of each policy's deterministic trace.
    for (policy, golden) in [
        (RecoveryPolicy::Abandon, (1_838, 0x0d2d_19a9_d493_4189)),
        (
            RecoveryPolicy::RetryNextCycle {
                backoff: 0,
                max_attempts: 5,
            },
            (9_696, 0x72ad_02ee_5ffa_99f6),
        ),
        (RecoveryPolicy::Migrate, (1_914, 0xd114_bb9d_19e9_f528)),
    ] {
        let config = disrupted_config(policy);
        let a = trace_bytes(&config);
        let b = trace_bytes(&config);
        assert!(!a.is_empty(), "a disrupted run must emit events");
        assert_eq!(a, b, "trace must be a pure function of (config, jobs)");
        assert_eq!(
            (a.len(), fnv(&a)),
            golden,
            "{policy:?}: trace bytes drifted from the golden"
        );
    }
}

#[test]
fn different_disruption_seeds_yield_different_traces() {
    let base = disrupted_config(RecoveryPolicy::Migrate);
    let mut other = base.clone();
    other.disruption = Some(DisruptionConfig::adversarial(100));
    assert_ne!(trace_bytes(&base), trace_bytes(&other));
}

#[test]
fn every_emitted_event_round_trips_through_jsonl() {
    let config = disrupted_config(RecoveryPolicy::RetryNextCycle {
        backoff: 1,
        max_attempts: 3,
    });

    // The in-memory recorder sees the events as Rust values…
    let mut memory = MemoryRecorder::new();
    let _ = traced(&config, &mut memory);

    // …the JSONL recorder sees them as serialized lines. Decoding the
    // lines must reproduce the values exactly (timings excluded: the
    // deterministic sink drops them and MemoryRecorder aggregates them
    // outside its event list).
    let bytes = trace_bytes(&config);
    let decoded = read_trace(bytes.as_slice()).expect("every line decodes");
    assert_eq!(decoded, memory.events());
    assert!(
        decoded
            .iter()
            .all(|e| !matches!(e, TraceEvent::Timing { .. })),
        "deterministic sink must drop wall-clock timings"
    );
}

#[test]
fn trace_is_consistent_with_the_survival_report() {
    let config = disrupted_config(RecoveryPolicy::Migrate);
    let mut memory = MemoryRecorder::new();
    let report = traced(&config, &mut memory);

    let count = |pred: &dyn Fn(&&TraceEvent) -> bool| -> u64 {
        memory.events().iter().filter(pred).count() as u64
    };
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::JobRescued { via, .. } if via == "migrate")),
        report.survival.rescued_by_migration,
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::JobLost { .. })),
        report.survival.jobs_lost,
    );
    assert_eq!(
        count(&|e| matches!(
            e,
            TraceEvent::WindowAudited {
                survived: false,
                ..
            }
        )),
        report.survival.windows_disrupted,
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::SlotRevoked { .. })),
        report.survival.revocations,
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::CycleStarted { .. })),
        report.outcome.cycles.len() as u64,
    );
}
