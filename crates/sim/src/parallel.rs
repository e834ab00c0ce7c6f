//! The one scoped-thread fan-out, for seed-derived work.
//!
//! Two kinds of work run in this crate. Seed-derived work — the quality
//! experiment ([`crate::quality`]), the batch-objective sweep
//! ([`crate::batch_experiment`]) and the sensitivity sweep
//! ([`crate::sensitivity`]) — is a pure function of its seeds, so its
//! cycles fan out through [`map`]. Timed work — the scaling sweeps behind
//! Tables 1–2 and the live cycle — runs in order on the calling thread,
//! so no measurement shares a core with another.
//!
//! # Determinism contract
//!
//! `map(items, f)` returns exactly `items.iter().enumerate().map(f)
//! .collect()`, provided `f` is a pure function of its arguments. Workers
//! claim indices from a shared atomic counter and tag each result with its
//! index; the results are then placed by index, so scheduling order never
//! leaks into the output. Every caller folds the results in input (cycle)
//! order, so its output is the in-order fold's on any core count,
//! floating-point accumulation order included.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// How the live cycle schedules its shards: one after another on the
/// calling thread, the only way it runs.
///
/// Only servebench's entry point,
/// [`run_cycle_observed`](crate::serve::LiveService::run_cycle_observed),
/// still takes it; it goes when that call folds into one `Obs` context
/// (ROADMAP item 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Everything on the calling thread.
    #[default]
    Serial,
}

/// Applies `f` to every item, fanned out over one worker per available
/// core (capped by the number of items, inline when that is one), and
/// returns the results in input order.
///
/// `f` receives `(index, &item)` so cells can derive per-cell seeds from
/// their position. See the [module docs](self) for the determinism
/// contract.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    fan_out(cores.min(items.len()), items, f)
}

/// [`map`] on exactly `workers` workers (inline for one or none).
fn fan_out<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
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
        let serial = fan_out(1, &items, |i, &x| x * x + i as u64);
        assert_eq!(map(&items, |i, &x| x * x + i as u64), serial);
        for workers in [2, 7, 64] {
            assert_eq!(fan_out(workers, &items, |i, &x| x * x + i as u64), serial);
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let none: Vec<u8> = Vec::new();
        assert!(map(&none, |_, &x| x).is_empty());
        assert!(fan_out(8, &none, |_, &x| x).is_empty());
        assert_eq!(fan_out(8, &[5u8], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Make late indices fast and early indices slow so workers finish
        // out of claim order.
        let items: Vec<u64> = (0..64).collect();
        let out = fan_out(8, &items, |_, &x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out, items);
    }
}
