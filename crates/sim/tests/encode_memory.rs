//! Pins the allocations and transient heap of encoding a live snapshot,
//! and its size: a free-slot row per slot, no platform.
//!
//! The counting allocator of `counting_alloc` tracks this thread's
//! allocation calls, live heap bytes and their high-water mark. The
//! counts depend only on the state encoded, not on the host, so the
//! bounds hold on any machine. Encoding streams straight into the output
//! buffer, so the only allocations left are that buffer's growth.

mod counting_alloc;

use std::time::Instant;

use counting_alloc::cost_of;
use slotsel_obs::NoopMetrics;
use slotsel_sim::parallel::Parallelism;
use slotsel_sim::serve::{LiveConfig, LiveRecord, LiveService, Submission};

/// A live service on `shards` x `nodes`, run for a few cycles with some
/// jobs scheduled, as the daemon would hold it when a snapshot is due.
fn service(shards: u32, nodes: usize) -> LiveService {
    let mut service = LiveService::new(LiveConfig {
        shards,
        nodes_per_shard: nodes,
        interval_length: 600,
        cycle_advance: 60,
        seed: 1,
        ..LiveConfig::default()
    });
    for cycle in 0..5u32 {
        for job in 0..4u32 {
            let _ = service.submit(&Submission {
                tenant: format!("tenant-{job}"),
                nodes: 4 + (cycle + job) as usize % 8,
                volume: 300,
                budget: 20_000.0,
                priority: job % 3,
                deadline: None,
                shard: None,
            });
        }
        service.run_cycle();
    }
    service
}

/// Encodes the snapshot of a `shards` x `nodes` service and checks its
/// cost: buffer growth only, and at most twice the payload in heap.
fn assert_snapshot_cost(shards: u32, nodes: usize) {
    let service = service(shards, nodes);
    let started = Instant::now();
    let (cost, payload) = cost_of(|| LiveRecord::encode_checkpoint(service.state()));
    let elapsed = started.elapsed();
    eprintln!(
        "{shards} x {nodes} snapshot: {} B, {} allocations, {} B peak heap, {elapsed:?}",
        payload.len(),
        cost.allocations,
        cost.peak_bytes
    );
    assert!(
        cost.allocations <= 64,
        "{shards} x {nodes}: {} allocations for a {} B snapshot",
        cost.allocations,
        payload.len()
    );
    assert!(
        cost.peak_bytes <= 2 * payload.len() as i64,
        "{shards} x {nodes}: {} B of heap for a {} B snapshot",
        cost.peak_bytes,
        payload.len()
    );
}

#[test]
fn a_wide_snapshot_encodes_with_buffer_growth_only() {
    assert_snapshot_cost(2, 1000);
}

#[test]
fn a_wide_snapshot_holds_slot_rows_and_no_platform() {
    let service = service(2, 1000);
    let payload = LiveRecord::encode_checkpoint(service.state());
    for key in ["\"platform\"", "\"performance\"", "\"price_per_unit\""] {
        assert!(!payload.contains(key), "the snapshot writes {key}");
    }
    // Each free slot is an `[id,node,start,end]` row; the rest is the
    // counters, the few live jobs and the usage table.
    let slots: usize = service.state().shards.iter().map(|s| s.slots.len()).sum();
    assert!(
        payload.len() <= 40 * slots + 1024,
        "a {} B snapshot for {slots} free slots",
        payload.len()
    );
}

#[test]
fn a_small_snapshot_encodes_with_buffer_growth_only() {
    assert_snapshot_cost(1, 64);
}

#[test]
fn barriers_and_records_encode_with_buffer_growth_only() {
    let mut service = service(1, 64);
    let mut journal = slotsel_obs::journal::MemoryJournal::new();
    service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    for record in journal.records() {
        let record = LiveRecord::decode(record).expect("journaled records decode");
        let (cost, encoded) = cost_of(|| record.encode());
        assert!(
            cost.allocations <= 24,
            "{} allocations for a {} B record",
            cost.allocations,
            encoded.len()
        );
    }
}
