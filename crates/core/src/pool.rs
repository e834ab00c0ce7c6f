//! The incremental candidate pool — the extended window as a data structure.
//!
//! The AEP scan maintains an "extended window": the set of alive slots that
//! could host a task anchored at the current window start. The paper claims
//! linear-in-`m` scan complexity (§2.2, Table 1), but a naive implementation
//! re-sorts the whole alive set inside every scan step, making the hot path
//! `O(m · m' log m')`. [`CandidatePool`] removes the per-step sort: it keeps
//! the candidates **incrementally ordered** across steps, so each admission
//! and eviction costs `O(log m')` and the per-step queries start from
//! already-sorted views.
//!
//! Concretely the pool maintains, under one arena of [`Candidate`]s:
//!
//! - a **cost order** (`BTreeSet<(cost, id)>`) — the view behind
//!   [`cheapest_n`](CandidatePool::cheapest_n) and the cost-ordered walk of
//!   the §2.2 greedy substitution;
//! - a **length order** (`BTreeSet<(length, id)>`) — the view behind the
//!   exact minimum-runtime threshold scan;
//! - an **expiry heap** ordered by the last window start at which each
//!   candidate can still host the task. Window starts are non-decreasing
//!   over the scan, so candidates expire monotonically and each one is
//!   admitted and evicted exactly once — `O(log m')` amortised instead of a
//!   full liveness pass per step;
//! - a **node index** (`HashMap<NodeId, id>`) for the one-task-per-node
//!   supersede rule, replacing a linear scan per admission.
//!
//! Arena ids are assigned in admission order and never reused, so the
//! ascending-id order of the alive set equals the insertion order of the
//! historical `Vec<Candidate>` representation. All tie-breaks are `(key,
//! id)`, which makes every query **pick-for-pick identical** to the
//! sort-per-step selectors in [`crate::selectors`] — a property the
//! `pool_equivalence` test suite checks exhaustively.
//!
//! # Examples
//!
//! ```
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeId, Performance, Volume};
//! use slotsel_core::pool::CandidatePool;
//! use slotsel_core::selectors::Candidate;
//! use slotsel_core::slot::{Slot, SlotId};
//! use slotsel_core::time::{Interval, TimePoint};
//!
//! let mut pool = CandidatePool::new();
//! for i in 0..4u32 {
//!     let slot = Slot::new(
//!         SlotId(u64::from(i)),
//!         NodeId(i),
//!         Interval::new(TimePoint::new(0), TimePoint::new(600)),
//!         Performance::new(1 + i),
//!         Money::from_units(i64::from(1 + i)),
//!     );
//!     pool.admit(Candidate::new(slot, Volume::new(60)), None);
//! }
//! pool.advance(TimePoint::new(0));
//! let mut picked = Vec::new();
//! assert!(pool.cheapest_n(2, Money::MAX, &mut picked));
//! assert_eq!(picked.len(), 2);
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use crate::money::Money;
use crate::node::NodeId;
use crate::selectors::Candidate;
use crate::time::{TimeDelta, TimePoint};
use crate::window::{Window, WindowSlot};

/// One arena entry: the candidate plus its liveness flag. The expiry — the
/// last window start at which the candidate can still host the task,
/// `min(slot.end, deadline) - length` in ticks — lives only in the heap.
#[derive(Debug, Clone, Copy)]
struct Entry {
    candidate: Candidate,
    alive: bool,
}

/// The extended window of an AEP scan, kept incrementally sorted by cost
/// and by length across scan steps.
///
/// See the [module documentation](self) for the design; the
/// [`cheapest_n`](CandidatePool::cheapest_n),
/// [`min_runtime_greedy`](CandidatePool::min_runtime_greedy) and
/// [`min_runtime_exact`](CandidatePool::min_runtime_exact) queries mirror
/// the slice-based selectors of [`crate::selectors`] pick-for-pick.
///
/// Queries write **arena ids** into a caller-owned buffer and return
/// whether they found a budget-feasible subset. Arena ids are stable
/// handles assigned in admission order, resolvable through
/// [`candidate`](CandidatePool::candidate) and materialisable with
/// [`build_window`](CandidatePool::build_window).
#[derive(Debug, Clone, Default)]
pub struct CandidatePool {
    arena: Vec<Entry>,
    /// Number of alive arena entries (the extended window size `m'`).
    alive: usize,
    by_cost: BTreeSet<(Money, usize)>,
    by_length: BTreeSet<(TimeDelta, usize)>,
    /// Min-heap of `(expiry, id)`; entries for superseded candidates are
    /// stale and skipped lazily on pop.
    expiry_heap: BinaryHeap<Reverse<(i64, usize)>>,
    by_node: HashMap<NodeId, usize>,
    /// Candidates evicted because a later slot on the same node superseded
    /// them (see [`admit`](CandidatePool::admit)).
    superseded: u64,
    /// Candidates evicted because the scan advanced past their expiry (see
    /// [`advance`](CandidatePool::advance)).
    expired: u64,
}

impl CandidatePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        CandidatePool::default()
    }

    /// Number of alive candidates (the extended window size `m'`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.alive
    }

    /// Returns `true` when no candidate is alive.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// The candidate behind an arena id returned by a query.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by this pool.
    #[must_use]
    pub fn candidate(&self, id: usize) -> &Candidate {
        &self.arena[id].candidate
    }

    /// Alive arena ids in admission order — the same order the historical
    /// `Vec<Candidate>` representation kept its elements in.
    #[must_use]
    pub fn alive_ids(&self) -> Vec<usize> {
        (0..self.arena.len())
            .filter(|&id| self.arena[id].alive)
            .collect()
    }

    /// Admits a candidate, superseding any alive candidate on the same node
    /// (a node hosts at most one task).
    ///
    /// The candidate's expiry is `min(slot.end, deadline) - length`: the
    /// last window start at which it can still host the task. A candidate
    /// whose expiry lies before its own slot's start is dead on arrival:
    /// it still supersedes its node's old candidate, but it never enters
    /// the pool, so no later [`advance`](CandidatePool::advance) counts it
    /// as an eviction.
    pub fn admit(&mut self, candidate: Candidate, deadline: Option<TimePoint>) {
        if let Some(&old) = self.by_node.get(&candidate.slot.node()) {
            self.evict(old);
            self.superseded += 1;
        }
        let horizon = deadline.map_or(candidate.slot.end(), |d| candidate.slot.end().min(d));
        let expiry = horizon.ticks() - candidate.length.ticks();
        if expiry < candidate.slot.start().ticks() {
            return;
        }
        let id = self.arena.len();
        self.arena.push(Entry {
            candidate,
            alive: true,
        });
        self.alive += 1;
        self.by_cost.insert((candidate.cost, id));
        self.by_length.insert((candidate.length, id));
        self.expiry_heap.push(Reverse((expiry, id)));
        self.by_node.insert(candidate.slot.node(), id);
    }

    /// Moves the scan to `window_start`, evicting every candidate that can
    /// no longer host a task anchored there.
    ///
    /// Window starts must be non-decreasing across calls (the slot list is
    /// ordered); under that contract each candidate is evicted exactly once
    /// and the amortised cost per admission is `O(log m')`.
    pub fn advance(&mut self, window_start: TimePoint) {
        while let Some(&Reverse((expiry, id))) = self.expiry_heap.peek() {
            if expiry >= window_start.ticks() {
                break;
            }
            self.expiry_heap.pop();
            // Stale entries: the id was already superseded via its node.
            if self.arena[id].alive {
                self.evict(id);
                self.expired += 1;
            }
        }
    }

    /// Lifetime eviction counters as `(superseded, expired)`: how many
    /// candidates were displaced by a later slot on their node, and how
    /// many aged out as the scan advanced. Feeds the live scan metrics.
    #[must_use]
    pub fn evictions(&self) -> (u64, u64) {
        (self.superseded, self.expired)
    }

    fn evict(&mut self, id: usize) {
        let entry = &mut self.arena[id];
        debug_assert!(entry.alive, "double eviction of candidate {id}");
        entry.alive = false;
        let candidate = entry.candidate;
        self.alive -= 1;
        self.by_cost.remove(&(candidate.cost, id));
        self.by_length.remove(&(candidate.length, id));
        if self.by_node.get(&candidate.slot.node()) == Some(&id) {
            self.by_node.remove(&candidate.slot.node());
        }
        // The expiry-heap entry is removed lazily by `advance`.
    }

    /// Total cost of a picked id set.
    #[must_use]
    pub fn total_cost(&self, picked: &[usize]) -> Money {
        picked.iter().map(|&id| self.arena[id].candidate.cost).sum()
    }

    /// Materialises a picked id set into a [`Window`] anchored at
    /// `window_start` — the pool-side analogue of
    /// [`selectors::build_window`](crate::selectors::build_window).
    ///
    /// # Panics
    ///
    /// Panics if `picked` contains an id never returned by this pool.
    #[must_use]
    pub fn build_window(&self, window_start: TimePoint, picked: &[usize]) -> Window {
        let slots = picked
            .iter()
            .map(|&id| {
                let c = &self.arena[id].candidate;
                WindowSlot::new(c.slot.id(), c.slot.node(), c.length, c.cost)
            })
            .collect();
        Window::new(window_start, slots)
    }

    /// Picks the `n` cheapest alive candidates into `picked` if their total
    /// cost fits the budget —
    /// [`selectors::cheapest_n`](crate::selectors::cheapest_n) answered
    /// from the maintained cost order: `O(n)` instead of `O(m' log m')`.
    pub fn cheapest_n(&self, n: usize, budget: Money, picked: &mut Vec<usize>) -> bool {
        if n == 0 || self.len() < n {
            return false;
        }
        picked.clear();
        picked.extend(self.by_cost.iter().take(n).map(|&(_, id)| id));
        self.total_cost(picked) <= budget
    }

    /// The §2.2 greedy substitution for the minimum-runtime subset, written
    /// into `picked` —
    /// [`selectors::min_runtime_greedy`](crate::selectors::min_runtime_greedy)
    /// walking the maintained cost order instead of sorting per step.
    pub fn min_runtime_greedy(&self, n: usize, budget: Money, picked: &mut Vec<usize>) -> bool {
        if n == 0 || self.len() < n {
            return false;
        }
        let mut by_cost = self.by_cost.iter();
        picked.clear();
        picked.extend(by_cost.by_ref().take(n).map(|&(_, id)| id));
        let mut cost = self.total_cost(picked);
        if cost > budget {
            return false;
        }
        for &(short_cost, short) in by_cost {
            let (long_pos, &long) = picked
                .iter()
                .enumerate()
                .max_by_key(|&(_, &id)| (self.arena[id].candidate.length, id))
                .expect("result has n >= 1 elements");
            let swapped_cost = cost - self.arena[long].candidate.cost + short_cost;
            if self.arena[short].candidate.length < self.arena[long].candidate.length
                && swapped_cost <= budget
            {
                picked[long_pos] = short;
                cost = swapped_cost;
            }
        }
        true
    }

    /// Exact minimum-runtime subset via a length-threshold scan, written
    /// into `picked` —
    /// [`selectors::min_runtime_exact`](crate::selectors::min_runtime_exact)
    /// walking the maintained length order instead of sorting per step.
    pub fn min_runtime_exact(&self, n: usize, budget: Money, picked: &mut Vec<usize>) -> bool {
        if n == 0 || self.len() < n {
            return false;
        }
        // Max-heap of (cost, id) keeping the n cheapest of the length prefix.
        let mut heap: BinaryHeap<(Money, usize)> = BinaryHeap::new();
        let mut heap_cost = Money::ZERO;

        let mut walk = self.by_length.iter().peekable();
        while let Some(&&(length, _)) = walk.peek() {
            // Admit all candidates sharing this length so the threshold is a
            // proper length value, then test feasibility.
            while let Some(&&(next_length, id)) = walk.peek() {
                if next_length != length {
                    break;
                }
                walk.next();
                let cost = self.arena[id].candidate.cost;
                heap.push((cost, id));
                heap_cost += cost;
                if heap.len() > n {
                    let (evicted_cost, _) = heap.pop().expect("heap size > n >= 1");
                    heap_cost -= evicted_cost;
                }
            }
            if heap.len() == n && heap_cost <= budget {
                picked.clear();
                picked.extend(heap.into_iter().map(|(_, id)| id));
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Performance;
    use crate::selectors;
    use crate::slot::{Slot, SlotId};
    use crate::time::Interval;

    /// Candidates with explicit (length, cost) pairs on distinct nodes,
    /// alive far beyond any window start used in these tests.
    fn pool_of(specs: &[(i64, i64)]) -> CandidatePool {
        let mut pool = CandidatePool::new();
        for (i, &(len, cost)) in specs.iter().enumerate() {
            let slot = Slot::new(
                SlotId(i as u64),
                NodeId(i as u32),
                Interval::new(TimePoint::new(0), TimePoint::new(10_000)),
                Performance::new(1),
                Money::ZERO,
            );
            pool.admit(
                Candidate {
                    slot,
                    length: TimeDelta::new(len),
                    cost: Money::from_units(cost),
                },
                None,
            );
        }
        pool.advance(TimePoint::ZERO);
        pool
    }

    /// Runs a buffer-writing query, returning its pick when it succeeds.
    fn query(run: impl FnOnce(&mut Vec<usize>) -> bool) -> Option<Vec<usize>> {
        let mut picked = Vec::new();
        run(&mut picked).then_some(picked)
    }

    fn lengths(pool: &CandidatePool, picked: &[usize]) -> Vec<i64> {
        let mut v: Vec<i64> = picked
            .iter()
            .map(|&id| pool.candidate(id).length.ticks())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn cheapest_n_matches_slice_picker() {
        let pool = pool_of(&[(10, 5), (10, 1), (10, 3), (10, 2)]);
        let picked = query(|p| pool.cheapest_n(2, Money::from_units(100), p)).unwrap();
        assert_eq!(pool.total_cost(&picked), Money::from_units(3));
        assert!(!pool.cheapest_n(4, Money::from_units(10), &mut Vec::new()));
        assert!(!pool.cheapest_n(0, Money::MAX, &mut Vec::new()));
        assert!(!pool.cheapest_n(5, Money::MAX, &mut Vec::new()));
    }

    #[test]
    fn greedy_swaps_toward_shorter() {
        let pool = pool_of(&[(100, 1), (90, 2), (10, 5), (20, 50)]);
        let picked = query(|p| pool.min_runtime_greedy(2, Money::from_units(10), p)).unwrap();
        assert_eq!(lengths(&pool, &picked), vec![10, 90]);
    }

    #[test]
    fn exact_finds_threshold() {
        let pool = pool_of(&[(100, 1), (50, 2), (30, 3), (10, 100)]);
        let picked = query(|p| pool.min_runtime_exact(2, Money::from_units(5), p)).unwrap();
        assert_eq!(lengths(&pool, &picked), vec![30, 50]);
    }

    #[test]
    fn node_supersede_evicts_previous_candidate() {
        let mut pool = pool_of(&[(10, 1), (20, 2)]);
        // A newer slot on node 0 replaces the older candidate.
        let slot = Slot::new(
            SlotId(9),
            NodeId(0),
            Interval::new(TimePoint::new(5), TimePoint::new(10_000)),
            Performance::new(1),
            Money::ZERO,
        );
        pool.admit(
            Candidate {
                slot,
                length: TimeDelta::new(30),
                cost: Money::from_units(7),
            },
            None,
        );
        pool.advance(TimePoint::new(5));
        assert_eq!(pool.len(), 2);
        let picked = query(|p| pool.cheapest_n(2, Money::MAX, p)).unwrap();
        let ids: Vec<u64> = picked
            .iter()
            .map(|&id| pool.candidate(id).slot.id().0)
            .collect();
        assert!(ids.contains(&9), "superseding slot present");
        assert!(ids.contains(&1));
    }

    #[test]
    fn advance_evicts_expired_candidates() {
        let mut pool = CandidatePool::new();
        for (i, end) in [(0u32, 100i64), (1, 400)] {
            let slot = Slot::new(
                SlotId(u64::from(i)),
                NodeId(i),
                Interval::new(TimePoint::new(0), TimePoint::new(end)),
                Performance::new(1),
                Money::ZERO,
            );
            pool.admit(
                Candidate {
                    slot,
                    length: TimeDelta::new(50),
                    cost: Money::from_units(1),
                },
                None,
            );
        }
        pool.advance(TimePoint::new(50));
        assert_eq!(pool.len(), 2, "both hosts still feasible at t=50");
        pool.advance(TimePoint::new(51));
        assert_eq!(pool.len(), 1, "node 0 can no longer finish by t=100");
        assert!(!pool.is_empty());
        assert_eq!(pool.alive_ids(), vec![1]);
    }

    #[test]
    fn deadline_bounds_expiry() {
        let mut pool = CandidatePool::new();
        let slot = Slot::new(
            SlotId(0),
            NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(1_000)),
            Performance::new(1),
            Money::ZERO,
        );
        pool.admit(
            Candidate {
                slot,
                length: TimeDelta::new(50),
                cost: Money::from_units(1),
            },
            Some(TimePoint::new(100)),
        );
        pool.advance(TimePoint::new(50));
        assert_eq!(pool.len(), 1, "finishes exactly at the deadline");
        pool.advance(TimePoint::new(51));
        assert!(pool.is_empty(), "would overrun the deadline");
    }

    #[test]
    fn dead_on_arrival_candidate_supersedes_but_never_enters() {
        let mut pool = pool_of(&[(10, 1)]);
        // Node 0's new slot cannot finish by the deadline from its start.
        let slot = Slot::new(
            SlotId(9),
            NodeId(0),
            Interval::new(TimePoint::new(80), TimePoint::new(1_000)),
            Performance::new(1),
            Money::ZERO,
        );
        pool.admit(
            Candidate {
                slot,
                length: TimeDelta::new(50),
                cost: Money::from_units(1),
            },
            Some(TimePoint::new(100)),
        );
        pool.advance(TimePoint::new(80));
        assert!(pool.is_empty());
        assert_eq!(pool.evictions(), (1, 0), "superseded, not expired");
    }

    #[test]
    fn queries_agree_with_slice_selectors() {
        let specs = [(100, 7), (90, 2), (10, 5), (20, 50), (50, 2), (50, 2)];
        let pool = pool_of(&specs);
        let slice: Vec<Candidate> = pool
            .alive_ids()
            .iter()
            .map(|&id| *pool.candidate(id))
            .collect();
        for n in 1..=specs.len() {
            for budget in [3, 9, 20, 70, i64::MAX / 1_000] {
                let budget = Money::from_units(budget);
                let to_slots = |picked: Option<Vec<usize>>, of_pool: bool| {
                    picked.map(|ids| {
                        ids.iter()
                            .map(|&i| {
                                if of_pool {
                                    pool.candidate(i).slot.id()
                                } else {
                                    slice[i].slot.id()
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                };
                assert_eq!(
                    to_slots(query(|p| pool.cheapest_n(n, budget, p)), true),
                    to_slots(
                        query(|p| selectors::cheapest_n(&slice, n, budget, p)),
                        false
                    ),
                    "cheapest_n n={n} budget={budget:?}"
                );
                assert_eq!(
                    to_slots(query(|p| pool.min_runtime_greedy(n, budget, p)), true),
                    to_slots(selectors::min_runtime_greedy(&slice, n, budget), false),
                    "greedy n={n} budget={budget:?}"
                );
                assert_eq!(
                    to_slots(query(|p| pool.min_runtime_exact(n, budget, p)), true),
                    to_slots(selectors::min_runtime_exact(&slice, n, budget), false),
                    "exact n={n} budget={budget:?}"
                );
            }
        }
    }

    #[test]
    fn build_window_materialises_selection() {
        let pool = pool_of(&[(10, 1), (20, 2), (30, 3)]);
        let w = pool.build_window(TimePoint::new(7), &[2, 0]);
        assert_eq!(w.start(), TimePoint::new(7));
        assert_eq!(w.size(), 2);
        assert_eq!(w.runtime(), TimeDelta::new(30));
        assert_eq!(w.total_cost(), Money::from_units(4));
    }
}
