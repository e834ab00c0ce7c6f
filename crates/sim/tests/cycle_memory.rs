//! Pins the allocations of one live cycle, journaled into memory: an idle
//! cycle and a fixed batch, on a small and a wide platform. Beside them,
//! one dark rolling run under disruption is pinned exactly: with every
//! sink dark its recovery decisions build no journal records and no trace
//! events.
//!
//! The counting allocator of `counting_alloc` sees only this thread, so
//! the pins cover the whole cycle because the cycle runs serially, as the
//! daemon runs it. The counts depend only on the seeded state, not on the
//! host; each bound is the count measured when it was set, so a change
//! that adds an allocation to the cycle fails here and one that removes
//! some should lower the bound.

mod counting_alloc;

use counting_alloc::cost_of;
use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_env::{EnvironmentConfig, NodeGenConfig};
use slotsel_obs::journal::MemoryJournal;
use slotsel_obs::NoopMetrics;
use slotsel_sim::disruption::DisruptionConfig;
use slotsel_sim::parallel::Parallelism;
use slotsel_sim::recovery::RecoveryPolicy;
use slotsel_sim::rolling::{simulate_with_recovery, RollingConfig};
use slotsel_sim::serve::{LiveConfig, LiveService, Submission};

/// Idle cycles a service runs before the measured one, so one-time
/// growth (the journal's record list, the digest vectors) is paid.
const WARM_UP: usize = 20;

/// A seed-1 service on `shards` x `nodes`, warmed up with idle cycles,
/// with `jobs` fixed submissions queued.
fn service(shards: u32, nodes: usize, jobs: u32) -> LiveService {
    let mut service = LiveService::new(LiveConfig {
        shards,
        nodes_per_shard: nodes,
        interval_length: 600,
        cycle_advance: 60,
        seed: 1,
        ..LiveConfig::default()
    });
    for _ in 0..WARM_UP {
        service.run_cycle();
    }
    for job in 0..jobs {
        service
            .submit(&Submission {
                tenant: format!("tenant-{}", job % 2),
                nodes: 4 + job as usize % 4,
                volume: 300,
                budget: 20_000.0,
                priority: job % 3,
                deadline: None,
                shard: None,
            })
            .expect("the fixed batch is admitted");
    }
    service
}

/// Runs one journaled cycle of a `shards` x `nodes` service holding
/// `jobs` queued submissions and checks its allocations against `bound`.
fn assert_cycle_allocations(shards: u32, nodes: usize, jobs: u32, bound: u64) {
    let mut service = service(shards, nodes, jobs);
    let mut journal = MemoryJournal::new();
    let (cost, outcome) =
        cost_of(|| service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal));
    eprintln!(
        "{shards} x {nodes}, {jobs} jobs: {} allocations, {} B peak heap, {} committed",
        cost.allocations,
        cost.peak_bytes,
        outcome.committed.len()
    );
    assert!(
        cost.allocations <= bound,
        "{shards} x {nodes}, {jobs} jobs: {} allocations, pinned at {bound}",
        cost.allocations
    );
}

#[test]
fn an_idle_small_cycle_allocates_within_its_pin() {
    assert_cycle_allocations(1, 64, 0, 23);
}

#[test]
fn a_small_batch_cycle_allocates_within_its_pin() {
    assert_cycle_allocations(1, 64, 4, 921);
}

#[test]
fn an_idle_wide_cycle_allocates_within_its_pin() {
    assert_cycle_allocations(2, 1000, 0, 216);
}

#[test]
fn a_wide_batch_cycle_allocates_within_its_pin() {
    assert_cycle_allocations(2, 1000, 4, 1_501);
}

#[test]
fn a_dark_disrupted_rolling_run_allocates_exactly_its_pin() {
    let config = RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 12,
        disruption: Some(DisruptionConfig::adversarial(99)),
        recovery: RecoveryPolicy::RetryNextCycle {
            backoff: 1,
            max_attempts: 3,
        },
        ..RollingConfig::default()
    };
    let jobs: Vec<Job> = (0..6)
        .map(|id| {
            let request = ResourceRequest::builder()
                .node_count(3)
                .volume(Volume::new(200))
                .budget(Money::from_units(5_000))
                .build()
                .expect("a valid request");
            Job::new(JobId(id), 1, request)
        })
        .collect();
    let (cost, report) = cost_of(|| simulate_with_recovery(&config, jobs));
    eprintln!(
        "dark rolling run: {} allocations, {} B peak heap",
        cost.allocations, cost.peak_bytes
    );
    assert!(
        report.survival.windows_disrupted > 0,
        "the run is disrupted"
    );
    assert_eq!(cost.allocations, 3_052, "dark rolling run allocations");
}
