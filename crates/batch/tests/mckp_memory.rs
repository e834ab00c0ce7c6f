//! Pins the peak heap of the MCKP phase-2 solver on a burst-shaped batch.
//!
//! A byte-counting global allocator tracks this thread's live heap bytes
//! and their high-water mark. The count depends only on the instance, not
//! on the host, so the bound holds on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use slotsel_batch::mckp::{self, MckpItem};
use slotsel_core::rng::SplitMix64;
use slotsel_core::Money;

/// Tracks this thread's live heap bytes and their peak, so tests running
/// on other threads do not disturb the count.
struct ByteCountingAlloc;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method delegates to the system allocator unchanged; the
// only addition is a thread-local counter update, which never allocates
// (a `const` Cell needs no lazy initialisation or destructor).
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: ByteCountingAlloc = ByteCountingAlloc;

/// Runs `f` and returns how far this thread's live heap rose above its
/// level at the call, at the highest point during `f`.
fn peak_heap_of<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let result = f();
    (PEAK_BYTES.with(Cell::get) - start, result)
}

const MB: i64 = 1 << 20;

/// A burst batch: 32 jobs × 16 alternatives, each costing 100–600 credits
/// (to the milli-credit), valued as negated cost like `MinTotalCost`.
fn burst_classes() -> Vec<Vec<MckpItem>> {
    let mut rng = SplitMix64::new(2500);
    (0..32)
        .map(|_| {
            (0..16)
                .map(|_| {
                    let cost = Money::from_millis(100_000 + rng.next_below(500_001) as i64);
                    MckpItem {
                        cost,
                        value: -cost.as_f64(),
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn the_byte_counter_sees_large_allocations() {
    let (peak, buffer) = peak_heap_of(|| Vec::<u8>::with_capacity(4 * MB as usize));
    assert!(peak >= 4 * MB, "peak {peak} B");
    drop(buffer);
}

#[test]
fn burst_phase2_peak_heap_stays_under_two_megabytes() {
    let classes = burst_classes();
    // Each job's own budget is 2500, summed over the batch: the daemon's
    // default when no VO budget is configured. A dense table would hold
    // 32 × 80 001 choice cells of 8 bytes, about 20 MB.
    let budget = Money::from_units(32 * 2500);
    let (peak, solution) = peak_heap_of(|| mckp::solve(&classes, budget));
    let solution = solution.expect("every combination fits");
    assert_eq!(solution.chosen.len(), classes.len());
    assert!(solution.cost <= budget);
    assert!(peak < 2 * MB, "phase 2 peaked at {peak} B of heap");
}
