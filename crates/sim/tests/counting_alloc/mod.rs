//! A counting global allocator for the memory tests: it tracks this
//! thread's allocation calls, live heap bytes and their peak, so tests
//! running on other threads do not disturb them. A test binary that
//! declares `mod counting_alloc;` installs it as its global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
pub struct Cost {
    /// Allocation calls, reallocations included.
    pub allocations: u64,
    /// Peak live heap bytes above the level at the call.
    pub peak_bytes: i64,
}

/// Runs `f` on this thread and returns what it cost with its result.
pub fn cost_of<R>(f: impl FnOnce() -> R) -> (Cost, R) {
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

/// This thread's live heap bytes: what it has allocated and not freed.
#[allow(dead_code)] // read by the tests that pin retained bytes
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}
