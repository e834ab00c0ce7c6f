//! Subset selection inside one scan step — the paper's `getBestWindow`.
//!
//! At every step of the AEP scan the algorithm holds an "extended window":
//! the set of alive slots that could host a task anchored at the current
//! window start. From those `m' ≥ n` candidates it must pick the `n` slots
//! extremising the target criterion subject to the budget constraint
//! `Σ cost ≤ S` — the 0-1 selection problem stated in §2.1 of the paper.
//!
//! This module provides the concrete pickers:
//!
//! - [`cheapest_n`] — the minimum-total-cost subset (exact; used by AMP and
//!   MinCost),
//! - [`min_runtime_greedy`] — the paper's §2.2 substitution procedure for
//!   the minimum-runtime subset (a fast greedy),
//! - [`min_runtime_exact`] — an exact minimum-runtime subset via a length
//!   threshold scan (used to validate the greedy and for ablation),
//! - [`random_feasible`] — a random budget-feasible subset (the simplified
//!   MinProcTime scheme).
//!
//! All pickers return indices into the candidate slice, or `None` when no
//! `n`-subset satisfies the budget.

use crate::money::Money;
use crate::node::Volume;
use crate::slot::Slot;
use crate::time::{TimeDelta, TimePoint};
use crate::window::{Window, WindowSlot};

/// One alive slot of the extended window, with its task length and cost
/// precomputed for the current job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The underlying slot.
    pub slot: Slot,
    /// Execution time of the job's task on this slot's node.
    pub length: TimeDelta,
    /// Allocation cost of the task on this slot.
    pub cost: Money,
}

impl Candidate {
    /// Builds the candidate for a task of `volume` on `slot`.
    #[must_use]
    pub fn new(slot: Slot, volume: Volume) -> Self {
        Candidate {
            slot,
            length: slot.time_for(volume),
            cost: slot.cost_for(volume),
        }
    }

    /// Returns `true` while the candidate can still host a task anchored at
    /// `window_start`.
    #[must_use]
    pub fn alive_at(&self, window_start: TimePoint) -> bool {
        self.slot.end() - window_start >= self.length
    }
}

/// Materialises a picked index set into a [`Window`] anchored at
/// `window_start`.
///
/// # Panics
///
/// Panics if `picked` is empty or contains an out-of-range index.
#[must_use]
pub fn build_window(window_start: TimePoint, candidates: &[Candidate], picked: &[usize]) -> Window {
    let slots = picked
        .iter()
        .map(|&i| {
            let c = &candidates[i];
            WindowSlot::new(c.slot.id(), c.slot.node(), c.length, c.cost)
        })
        .collect();
    Window::new(window_start, slots)
}

/// Total cost of an index set.
#[must_use]
pub fn total_cost(candidates: &[Candidate], picked: &[usize]) -> Money {
    picked.iter().map(|&i| candidates[i].cost).sum()
}

/// Picks the `n` cheapest candidates into `picked` if their total cost fits
/// the budget, returning whether it does.
///
/// This is the exact optimum of the minimum-total-cost selection problem:
/// no other `n`-subset can cost less than the `n` cheapest elements.
/// Ties are broken by candidate order, keeping results deterministic.
/// `picked` is overwritten and doubles as the sort buffer, so a caller
/// that reuses it across calls allocates nothing once it has grown.
pub fn cheapest_n(
    candidates: &[Candidate],
    n: usize,
    budget: Money,
    picked: &mut Vec<usize>,
) -> bool {
    if n == 0 || candidates.len() < n {
        return false;
    }
    picked.clear();
    picked.extend(0..candidates.len());
    picked.sort_by_key(|&i| (candidates[i].cost, i));
    picked.truncate(n);
    total_cost(candidates, picked) <= budget
}

/// The paper's §2.2 greedy substitution for the minimum-runtime subset.
///
/// Start from the `n` cheapest candidates; repeatedly try to replace the
/// currently longest selected slot with the cheapest unselected slot that is
/// shorter, provided the swap keeps the total cost within `budget`. The
/// paper's pseudocode tests `resultWindow.cost + shortSlot.cost < S` — we
/// apply the evident intent (cost **after** the swap must fit the budget),
/// since the literal reading both double-counts the removed slot and never
/// accounts for it.
///
/// The result is feasible but not always optimal (see
/// [`min_runtime_exact`]); the trade-off is the paper's: linear passes over
/// a cost-sorted list instead of a threshold search.
#[must_use]
pub fn min_runtime_greedy(candidates: &[Candidate], n: usize, budget: Money) -> Option<Vec<usize>> {
    if n == 0 || candidates.len() < n {
        return None;
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| (candidates[i].cost, i));
    let mut result: Vec<usize> = order[..n].to_vec();
    let mut cost = total_cost(candidates, &result);
    if cost > budget {
        return None;
    }
    for &short in &order[n..] {
        let (long_pos, &long) = result
            .iter()
            .enumerate()
            .max_by_key(|&(_, &i)| (candidates[i].length, i))
            .expect("result has n >= 1 elements");
        let swapped_cost = cost - candidates[long].cost + candidates[short].cost;
        if candidates[short].length < candidates[long].length && swapped_cost <= budget {
            result[long_pos] = short;
            cost = swapped_cost;
        }
    }
    Some(result)
}

/// Exact minimum-runtime subset via a length-threshold scan.
///
/// The optimal runtime is the smallest length `L` such that at least `n`
/// candidates have length `≤ L` **and** the `n` cheapest of them fit the
/// budget (any feasible window with runtime `≤ L` exists iff the cheapest
/// one does). Scanning candidates in ascending length while maintaining the
/// running "n cheapest so far" answers this in `O(m log m)`.
///
/// Among subsets achieving the optimal runtime, this returns the cheapest
/// one, which also makes it a deterministic tie-break.
#[must_use]
pub fn min_runtime_exact(candidates: &[Candidate], n: usize, budget: Money) -> Option<Vec<usize>> {
    if n == 0 || candidates.len() < n {
        return None;
    }
    let mut by_length: Vec<usize> = (0..candidates.len()).collect();
    by_length.sort_by_key(|&i| (candidates[i].length, i));

    // Max-heap of (cost, index) keeping the n cheapest of the prefix.
    let mut heap: std::collections::BinaryHeap<(Money, usize)> =
        std::collections::BinaryHeap::new();
    let mut heap_cost = Money::ZERO;

    let mut pos = 0;
    while pos < by_length.len() {
        // Admit all candidates sharing this length so the threshold is a
        // proper length value, then test feasibility.
        let length = candidates[by_length[pos]].length;
        while pos < by_length.len() && candidates[by_length[pos]].length == length {
            let i = by_length[pos];
            heap.push((candidates[i].cost, i));
            heap_cost += candidates[i].cost;
            if heap.len() > n {
                let (evicted_cost, _) = heap.pop().expect("heap size > n >= 1");
                heap_cost -= evicted_cost;
            }
            pos += 1;
        }
        if heap.len() == n && heap_cost <= budget {
            return Some(heap.into_iter().map(|(_, i)| i).collect());
        }
    }
    None
}

/// Greedy substitution for a generic additive score — the §2.2 pattern
/// generalised from slot lengths to arbitrary non-negative `zᵢ`.
///
/// Start from the `n` cheapest-by-cost candidates (the max-feasibility
/// seed); walk the unselected candidates in ascending score order and swap
/// each against the currently worst-scoring selected candidate when that
/// lowers the summed score and the budget still holds. `z` must be parallel
/// to `candidates`.
///
/// Heuristic: the exact problem (minimise `Σ z` with a cardinality and a
/// budget constraint) is solved by `slotsel-baselines`' branch and bound;
/// property tests bound this greedy against it.
///
/// # Panics
///
/// Panics if `z.len() != candidates.len()` or a score is negative or
/// non-finite.
#[must_use]
pub fn min_additive_greedy(
    candidates: &[Candidate],
    n: usize,
    budget: Money,
    z: &[f64],
) -> Option<Vec<usize>> {
    assert_eq!(
        z.len(),
        candidates.len(),
        "score vector must be parallel to candidates"
    );
    for &score in z {
        assert!(
            score.is_finite() && score >= 0.0,
            "scores must be finite and non-negative"
        );
    }
    if n == 0 || candidates.len() < n {
        return None;
    }
    let mut by_cost: Vec<usize> = (0..candidates.len()).collect();
    by_cost.sort_by_key(|&i| (candidates[i].cost, i));
    let mut result: Vec<usize> = by_cost[..n].to_vec();
    let mut cost = total_cost(candidates, &result);
    if cost > budget {
        return None;
    }
    let mut extend: Vec<usize> = by_cost[n..].to_vec();
    extend.sort_by(|&a, &b| z[a].total_cmp(&z[b]).then(a.cmp(&b)));
    for incoming in extend {
        let (worst_pos, &worst) = result
            .iter()
            .enumerate()
            .max_by(|&(_, &a), &(_, &b)| z[a].total_cmp(&z[b]).then(a.cmp(&b)))
            .expect("result has n >= 1 elements");
        let swapped_cost = cost - candidates[worst].cost + candidates[incoming].cost;
        if z[incoming] < z[worst] && swapped_cost <= budget {
            result[worst_pos] = incoming;
            cost = swapped_cost;
        }
    }
    Some(result)
}

/// Greedy substitution **maximising** an additive score under the budget —
/// the mirror image of [`min_additive_greedy`], for VO administrators
/// probing the *extreme* characteristics of the alternative space (§2.1:
/// "VO administrators ... are interested in finding extreme alternatives
/// characteristics values").
///
/// Same seed and swap discipline as the minimiser, with the comparison
/// reversed: unselected candidates are visited in descending score order
/// and replace the lowest-scoring selected candidate when affordable.
///
/// # Panics
///
/// Panics if `z.len() != candidates.len()` or a score is negative or
/// non-finite.
#[must_use]
pub fn max_additive_greedy(
    candidates: &[Candidate],
    n: usize,
    budget: Money,
    z: &[f64],
) -> Option<Vec<usize>> {
    assert_eq!(
        z.len(),
        candidates.len(),
        "score vector must be parallel to candidates"
    );
    for &score in z {
        assert!(
            score.is_finite() && score >= 0.0,
            "scores must be finite and non-negative"
        );
    }
    if n == 0 || candidates.len() < n {
        return None;
    }
    let mut by_cost: Vec<usize> = (0..candidates.len()).collect();
    by_cost.sort_by_key(|&i| (candidates[i].cost, i));
    let mut result: Vec<usize> = by_cost[..n].to_vec();
    let mut cost = total_cost(candidates, &result);
    if cost > budget {
        return None;
    }
    let mut extend: Vec<usize> = by_cost[n..].to_vec();
    extend.sort_by(|&a, &b| z[b].total_cmp(&z[a]).then(a.cmp(&b)));
    for incoming in extend {
        let (worst_pos, &worst) = result
            .iter()
            .enumerate()
            .min_by(|&(_, &a), &(_, &b)| z[a].total_cmp(&z[b]).then(a.cmp(&b)))
            .expect("result has n >= 1 elements");
        let swapped_cost = cost - candidates[worst].cost + candidates[incoming].cost;
        if z[incoming] > z[worst] && swapped_cost <= budget {
            result[worst_pos] = incoming;
            cost = swapped_cost;
        }
    }
    Some(result)
}

/// Picks a random budget-feasible `n`-subset into `picked` — the
/// simplified MinProcTime scheme's "random window" — returning whether one
/// was found.
///
/// Tries up to `attempts` uniformly random subsets; if none fits the budget,
/// falls back to [`cheapest_n`] (feasible whenever any subset is). This
/// keeps the picker total while preserving the "no optimisation at the
/// step" character the paper describes. `picked` is overwritten and holds
/// the shuffled draws, as with [`cheapest_n`].
pub fn random_feasible(
    candidates: &[Candidate],
    n: usize,
    budget: Money,
    rng: &mut crate::rng::SplitMix64,
    attempts: usize,
    picked: &mut Vec<usize>,
) -> bool {
    if n == 0 || candidates.len() < n {
        return false;
    }
    picked.clear();
    picked.extend(0..candidates.len());
    for _ in 0..attempts {
        rng.shuffle(picked);
        if total_cost(candidates, &picked[..n]) <= budget {
            picked.truncate(n);
            return true;
        }
    }
    cheapest_n(candidates, n, budget, picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeId, Performance};
    use crate::rng::SplitMix64;
    use crate::slot::SlotId;
    use crate::time::Interval;

    /// Builds candidates with explicit (length, cost) pairs on distinct nodes.
    fn cands(specs: &[(i64, i64)]) -> Vec<Candidate> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(len, cost))| {
                let slot = Slot::new(
                    SlotId(i as u64),
                    NodeId(i as u32),
                    Interval::new(TimePoint::new(0), TimePoint::new(10_000)),
                    Performance::new(1),
                    Money::ZERO,
                );
                Candidate {
                    slot,
                    length: TimeDelta::new(len),
                    cost: Money::from_units(cost),
                }
            })
            .collect()
    }

    fn lengths(c: &[Candidate], picked: &[usize]) -> Vec<i64> {
        let mut v: Vec<i64> = picked.iter().map(|&i| c[i].length.ticks()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn candidate_from_slot_and_volume() {
        let slot = Slot::new(
            SlotId(0),
            NodeId(0),
            Interval::new(TimePoint::new(5), TimePoint::new(100)),
            Performance::new(5),
            Money::from_units(2),
        );
        let c = Candidate::new(slot, Volume::new(300));
        assert_eq!(c.length.ticks(), 60);
        assert_eq!(c.cost, Money::from_units(120));
        assert!(c.alive_at(TimePoint::new(40)));
        assert!(!c.alive_at(TimePoint::new(41)));
    }

    #[test]
    fn cheapest_n_picks_minimum_cost() {
        let c = cands(&[(10, 5), (10, 1), (10, 3), (10, 2)]);
        let mut picked = Vec::new();
        assert!(cheapest_n(&c, 2, Money::from_units(100), &mut picked));
        assert_eq!(total_cost(&c, &picked), Money::from_units(3));
    }

    #[test]
    fn cheapest_n_respects_budget() {
        let c = cands(&[(10, 5), (10, 6)]);
        assert!(!cheapest_n(&c, 2, Money::from_units(10), &mut Vec::new()));
        assert!(cheapest_n(&c, 2, Money::from_units(11), &mut Vec::new()));
    }

    #[test]
    fn cheapest_n_too_few_candidates() {
        let c = cands(&[(10, 1)]);
        assert!(!cheapest_n(&c, 2, Money::MAX, &mut Vec::new()));
        assert!(!cheapest_n(&c, 0, Money::MAX, &mut Vec::new()));
    }

    #[test]
    fn min_runtime_greedy_swaps_toward_shorter() {
        // Cheapest two are long; a slightly pricier short slot exists.
        let c = cands(&[(100, 1), (90, 2), (10, 5), (20, 50)]);
        let picked = min_runtime_greedy(&c, 2, Money::from_units(10)).unwrap();
        // Budget 10 allows replacing the 100-length with the 10-length.
        assert_eq!(lengths(&c, &picked), vec![10, 90]);
    }

    #[test]
    fn min_runtime_greedy_keeps_budget() {
        let c = cands(&[(100, 1), (90, 2), (10, 500)]);
        let picked = min_runtime_greedy(&c, 2, Money::from_units(10)).unwrap();
        assert!(total_cost(&c, &picked) <= Money::from_units(10));
        assert_eq!(
            lengths(&c, &picked),
            vec![90, 100],
            "expensive short slot unaffordable"
        );
    }

    #[test]
    fn min_runtime_greedy_infeasible() {
        let c = cands(&[(10, 100), (20, 100)]);
        assert!(min_runtime_greedy(&c, 2, Money::from_units(199)).is_none());
    }

    #[test]
    fn min_runtime_exact_finds_threshold() {
        let c = cands(&[(100, 1), (50, 2), (30, 3), (10, 100)]);
        // Budget 5: lengths {100,50,30} affordable; {10} not. Best pair: 30,50.
        let picked = min_runtime_exact(&c, 2, Money::from_units(5)).unwrap();
        assert_eq!(lengths(&c, &picked), vec![30, 50]);
    }

    #[test]
    fn min_runtime_exact_beats_or_equals_greedy() {
        // A case where the greedy is trapped: swapping the longest first
        // spends budget that the optimal solution needs elsewhere.
        let c = cands(&[(100, 1), (99, 1), (50, 4), (40, 8), (10, 9)]);
        let budget = Money::from_units(13);
        let greedy = min_runtime_greedy(&c, 2, budget).unwrap();
        let exact = min_runtime_exact(&c, 2, budget).unwrap();
        let runtime = |picked: &[usize]| picked.iter().map(|&i| c[i].length.ticks()).max().unwrap();
        assert!(runtime(&exact) <= runtime(&greedy));
        assert_eq!(runtime(&exact), 50, "{{50,40}} costs 12 <= 13");
    }

    #[test]
    fn min_runtime_exact_infeasible() {
        let c = cands(&[(10, 10), (20, 10)]);
        assert!(min_runtime_exact(&c, 2, Money::from_units(19)).is_none());
        assert!(min_runtime_exact(&c, 3, Money::MAX).is_none());
    }

    #[test]
    fn min_runtime_exact_equal_lengths_admitted_together() {
        // Two slots share the threshold length; feasibility must consider both.
        let c = cands(&[(50, 10), (50, 1), (90, 1)]);
        let picked = min_runtime_exact(&c, 2, Money::from_units(11)).unwrap();
        assert_eq!(lengths(&c, &picked), vec![50, 50]);
    }

    #[test]
    fn exact_prefers_cheapest_among_optimal() {
        let c = cands(&[(50, 9), (50, 1), (50, 2)]);
        let picked = min_runtime_exact(&c, 2, Money::MAX).unwrap();
        assert_eq!(total_cost(&c, &picked), Money::from_units(3));
    }

    #[test]
    fn random_feasible_is_feasible() {
        let mut rng = SplitMix64::new(42);
        let c = cands(&[(10, 5), (20, 6), (30, 7), (40, 8), (50, 9)]);
        let mut picked = Vec::new();
        for _ in 0..50 {
            assert!(random_feasible(
                &c,
                3,
                Money::from_units(100),
                &mut rng,
                10,
                &mut picked
            ));
            assert_eq!(picked.len(), 3);
            assert!(total_cost(&c, &picked) <= Money::from_units(100));
            let mut unique = picked.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 3, "indices must be distinct");
        }
    }

    #[test]
    fn random_feasible_falls_back_to_cheapest() {
        let mut rng = SplitMix64::new(1);
        // Only the 2 cheapest fit the budget; random 2-subsets mostly fail.
        let c = cands(&[(10, 1), (20, 1), (30, 100), (40, 100)]);
        let mut picked = Vec::new();
        assert!(random_feasible(
            &c,
            2,
            Money::from_units(2),
            &mut rng,
            3,
            &mut picked
        ));
        assert_eq!(total_cost(&c, &picked), Money::from_units(2));
    }

    #[test]
    fn random_feasible_infeasible_returns_none() {
        let mut rng = SplitMix64::new(1);
        let c = cands(&[(10, 10), (20, 10)]);
        assert!(!random_feasible(
            &c,
            2,
            Money::from_units(19),
            &mut rng,
            5,
            &mut Vec::new()
        ));
    }

    #[test]
    fn build_window_materialises_selection() {
        let c = cands(&[(10, 1), (20, 2), (30, 3)]);
        let w = build_window(TimePoint::new(7), &c, &[2, 0]);
        assert_eq!(w.start(), TimePoint::new(7));
        assert_eq!(w.size(), 2);
        assert_eq!(w.runtime(), TimeDelta::new(30));
        assert_eq!(w.total_cost(), Money::from_units(4));
    }

    #[test]
    fn greedy_single_slot_window() {
        let c = cands(&[(10, 1), (5, 2)]);
        let picked = min_runtime_greedy(&c, 1, Money::from_units(2)).unwrap();
        assert_eq!(
            lengths(&c, &picked),
            vec![5],
            "swap from 10 to affordable 5"
        );
    }
}
