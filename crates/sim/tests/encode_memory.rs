//! Pins the allocations and transient heap of encoding a live snapshot,
//! and its size: a free-slot row per slot, no platform.
//!
//! A counting global allocator tracks this thread's allocation calls,
//! live heap bytes and their high-water mark. The counts depend only on
//! the state encoded, not on the host, so the bounds hold on any machine.
//! Encoding streams straight into the output buffer, so the only
//! allocations left are that buffer's growth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use slotsel_obs::NoopMetrics;
use slotsel_sim::parallel::Parallelism;
use slotsel_sim::serve::{LiveConfig, LiveRecord, LiveService, Submission};

/// Counts this thread's allocations and tracks its live heap bytes and
/// their peak, so tests running on other threads do not disturb them.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64, allocation: bool) {
    // `try_with` fails only while the thread's locals are torn down.
    if allocation {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method delegates to the system allocator unchanged; the
// only addition is thread-local counter updates, which never allocate
// (a `const` Cell needs no lazy initialisation or destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64, true);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64), false);
        // SAFETY: `ptr` came from this allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64, true);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// What one call cost: allocation calls, and how far this thread's live
/// heap rose above its level at the call at the highest point.
struct Cost {
    allocations: u64,
    peak_bytes: i64,
}

fn cost_of<R>(f: impl FnOnce() -> R) -> (Cost, R) {
    let allocations = ALLOCATIONS.with(Cell::get);
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let result = f();
    let cost = Cost {
        allocations: ALLOCATIONS.with(Cell::get) - allocations,
        peak_bytes: PEAK_BYTES.with(Cell::get) - start,
    };
    (cost, result)
}

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
        service.run_cycle(Parallelism::Serial);
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
