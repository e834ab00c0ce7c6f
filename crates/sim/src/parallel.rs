//! Deterministic scoped-thread fan-out for experiment sweeps.
//!
//! The sweeps in [`crate::batch_experiment`], [`crate::scaling`] and
//! [`crate::sensitivity`] are embarrassingly parallel across their
//! (seed, policy) cells: every cell derives its RNG from the cell index, so
//! cells share no state. This module supplies the one primitive they need —
//! [`map`]: run a closure over every index of a work list on a small
//! hand-rolled worker pool (`std::thread::scope`, no external runtime) and
//! return the results **in input order**, regardless of which worker
//! finished first.
//!
//! # Determinism contract
//!
//! `map(p, items, f)` returns exactly `items.iter().map(f).collect()` for
//! any [`Parallelism`], provided `f` is a pure function of its arguments.
//! Workers claim indices from a shared atomic counter and tag each result
//! with its index; the results are then placed by index, so scheduling
//! order never leaks into the output. The sweeps keep their accumulator
//! *folds* serial and in input order on top of this, which makes parallel
//! sweep results bit-identical to serial ones — floating-point accumulation
//! order included. (Wall-clock measurements inside cells remain
//! measurements: the values differ run to run under any parallelism, only
//! the structure and seed-derived fields are reproducible.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// How many workers a sweep fans out to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Everything on the calling thread — the reference behaviour.
    Serial,
    /// One worker per available core (capped by the number of items).
    #[default]
    Auto,
    /// An explicit worker count (clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// The number of workers to start for `items` work items.
    #[must_use]
    pub fn workers(self, items: usize) -> usize {
        let requested = match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => {
                thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Parallelism::Threads(n) => n.max(1),
        };
        requested.min(items).max(1)
    }
}

/// Applies `f` to every item, fanning the calls out over a scoped worker
/// pool, and returns the results in input order.
///
/// `f` receives `(index, &item)` so cells can derive per-cell seeds from
/// their position. See the [module docs](self) for the determinism
/// contract.
pub fn map<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = parallelism.workers(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            break;
                        };
                        local.push((index, f(index, item)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            tagged.extend(handle.join().expect("sweep worker panicked"));
        }
    });

    tagged.sort_unstable_by_key(|&(index, _)| index);
    debug_assert!(tagged.iter().enumerate().all(|(i, &(idx, _))| i == idx));
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = map(Parallelism::Serial, &items, |i, &x| x * x + i as u64);
        for parallelism in [
            Parallelism::Auto,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Threads(64),
        ] {
            assert_eq!(map(parallelism, &items, |i, &x| x * x + i as u64), serial);
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let none: Vec<u8> = Vec::new();
        assert!(map(Parallelism::Auto, &none, |_, &x| x).is_empty());
        assert_eq!(map(Parallelism::Threads(8), &[5u8], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn workers_clamp_to_items_and_one() {
        assert_eq!(Parallelism::Serial.workers(100), 1);
        assert_eq!(Parallelism::Threads(0).workers(100), 1);
        assert_eq!(Parallelism::Threads(8).workers(3), 3);
        assert!(Parallelism::Auto.workers(100) >= 1);
        assert_eq!(Parallelism::Auto.workers(0), 1);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Make late indices fast and early indices slow so workers finish
        // out of claim order.
        let items: Vec<u64> = (0..64).collect();
        let out = map(Parallelism::Threads(8), &items, |_, &x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out, items);
    }
}
