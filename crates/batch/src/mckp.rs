//! Multiple-choice knapsack selection — phase 2 of the VO scheduling cycle.
//!
//! After phase 1 has allocated a set of alternatives per batch job, the
//! metascheduler picks **exactly one alternative per job** so that the
//! summed value is maximal while the summed cost stays within the VO's
//! budget for the cycle — a multiple-choice knapsack problem (MCKP),
//! solved here by dynamic programming over discretised budget units. This
//! is the combination-selection step of the composite scheduling scheme the
//! paper builds on (its refs [6, 7]).
//!
//! The DP only walks the *reachable band* of budget cells: after `k`
//! classes every reachable total lies between the sum of the classes'
//! cheapest and (clipped to the budget) dearest items. That costs
//! `O(Σ_k |class_k| · band_{k-1})` time and `2 B · Σ_k band_k` of choice
//! memory, instead of `O(total_items · budget_units)` time and 8 bytes per
//! class per budget unit for a dense table (see `docs/PERFORMANCE.md` §6).

use slotsel_core::money::Money;

/// One selectable item: an alternative's cost and its value under the
/// active batch objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MckpItem {
    /// Allocation cost of the alternative.
    pub cost: Money,
    /// Value of choosing it (higher is better).
    pub value: f64,
}

/// The solver's budget discretisation: one DP cell per this many
/// milli-credits. Finer costs are rounded **up**, so the returned selection
/// never exceeds the real budget.
const UNIT_MILLIS: i64 = 1_000;

/// Choice-row marker for a cell no item of the class reaches.
const NO_CHOICE: u16 = u16::MAX;

/// An MCKP solution: for each class the index of the chosen item.
#[derive(Debug, Clone, PartialEq)]
pub struct MckpSolution {
    /// Chosen item index per class, parallel to the input.
    pub chosen: Vec<usize>,
    /// Total value of the selection.
    pub value: f64,
    /// Total (exact, undiscretised) cost of the selection.
    pub cost: Money,
}

/// Solves the MCKP: pick exactly one item per class, maximising total value
/// under the budget.
///
/// Returns `None` when some class is empty or no combination fits the
/// budget. Complexity is `O(Σ_k |class_k| · band_{k-1})` time and
/// `2 B · Σ_k band_k` memory, where `band_k ≤ budget_units + 1` is the
/// number of budget cells reachable after the first `k` classes.
///
/// Ties go to the earlier item of a class for equal totals, and to the
/// cheaper total between equally valued selections.
///
/// # Panics
///
/// Panics if any item has a negative cost or a non-finite value, or if a
/// class has more than `u16::MAX - 1` items (choices are stored as `u16`).
#[must_use]
pub fn solve(classes: &[Vec<MckpItem>], budget: Money) -> Option<MckpSolution> {
    if classes.is_empty() {
        return Some(MckpSolution {
            chosen: Vec::new(),
            value: 0.0,
            cost: Money::ZERO,
        });
    }
    if classes.iter().any(Vec::is_empty) || budget.is_negative() {
        return None;
    }
    for class in classes {
        assert!(
            class.len() < usize::from(NO_CHOICE),
            "MCKP class of {} items exceeds the u16 choice limit",
            class.len()
        );
        for item in class {
            assert!(!item.cost.is_negative(), "negative item cost {}", item.cost);
            assert!(
                item.value.is_finite(),
                "non-finite item value {}",
                item.value
            );
        }
    }

    let units = (budget.millis() / UNIT_MILLIS).max(0) as usize;
    // Round costs up so discretised feasibility implies real feasibility.
    // Costs are validated non-negative above, so plain ceiling division.
    let unit_cost = |cost: Money| -> usize {
        ((cost.millis() + UNIT_MILLIS - 1) / UNIT_MILLIS).max(0) as usize
    };

    // The reachable band [lo, hi] after each class: lo grows by the class's
    // cheapest item, hi by its dearest, clipped to the budget. Every cell
    // outside it is unreachable. rows[k] = (offset of class k's choice row
    // in `choices`, lo_k); the row covers lo_k..=hi_k.
    let mut rows: Vec<(usize, usize)> = Vec::with_capacity(classes.len());
    let (mut lo, mut hi, mut cells, mut widest) = (0usize, 0usize, 0usize, 1usize);
    for class in classes {
        let (cheapest, dearest) = class
            .iter()
            .map(|item| unit_cost(item.cost))
            .fold((usize::MAX, 0), |(min, max), c| (min.min(c), max.max(c)));
        lo = lo.saturating_add(cheapest);
        if lo > units {
            return None;
        }
        hi = units.min(hi.saturating_add(dearest));
        rows.push((cells, lo));
        cells += hi - lo + 1;
        widest = widest.max(hi - lo + 1);
    }

    // dp[u - lo] = best value using budget u, for u in the current band;
    // choices[offset + u - lo] = the class's item chosen at u.
    let mut choices: Vec<u16> = vec![NO_CHOICE; cells];
    let mut dp: Vec<f64> = vec![f64::NEG_INFINITY; widest];
    let mut next: Vec<f64> = vec![f64::NEG_INFINITY; widest];
    dp[0] = 0.0;
    let (mut prev_lo, mut prev_hi) = (0usize, 0usize);

    for (k, (class, &(offset, lo))) in classes.iter().zip(&rows).enumerate() {
        let end = rows
            .get(k + 1)
            .map_or(cells, |&(next_offset, _)| next_offset);
        let width = end - offset;
        let hi = lo + width - 1;
        let row = &mut choices[offset..end];
        let band = &mut next[..width];
        band.fill(f64::NEG_INFINITY);
        for (item_index, item) in class.iter().enumerate() {
            let c = unit_cost(item.cost);
            // Cells u in [prev_lo + c, min(prev_hi + c, hi)], read from
            // dp[u - c - prev_lo], which starts at dp[0].
            let first = prev_lo.saturating_add(c);
            let last = hi.min(prev_hi.saturating_add(c));
            if first > last {
                continue;
            }
            let span = first - lo..=last - lo;
            let sources = dp[..=last - first].iter();
            for ((&base, best), pick) in sources.zip(&mut band[span.clone()]).zip(&mut row[span]) {
                if base == f64::NEG_INFINITY {
                    continue;
                }
                let value = base + item.value;
                if value > *best {
                    *best = value;
                    *pick = item_index as u16;
                }
            }
        }
        std::mem::swap(&mut dp, &mut next);
        (prev_lo, prev_hi) = (lo, hi);
    }

    // Best reachable cell, ties to the cheaper one.
    let (offset, best_value) = dp[..=prev_hi - prev_lo]
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != f64::NEG_INFINITY)
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(u, &v)| (u, v))?;
    let mut unit = prev_lo + offset;

    // Backtrack.
    let mut chosen = vec![0usize; classes.len()];
    for (class_index, class) in classes.iter().enumerate().rev() {
        let (offset, lo) = rows[class_index];
        let item_index = choices[offset + unit - lo];
        debug_assert_ne!(item_index, NO_CHOICE, "reachable cell must have a choice");
        chosen[class_index] = usize::from(item_index);
        unit -= unit_cost(class[usize::from(item_index)].cost);
    }

    let cost: Money = chosen
        .iter()
        .zip(classes)
        .map(|(&i, class)| class[i].cost)
        .sum();
    Some(MckpSolution {
        chosen,
        value: best_value,
        cost,
    })
}

/// Greedy fallback: per class, the best-value item that still fits the
/// remaining budget, classes in input order. Linear, not optimal; used when
/// the budget is too large for the DP table or no global budget applies.
#[must_use]
pub fn solve_greedy(classes: &[Vec<MckpItem>], budget: Money) -> Option<MckpSolution> {
    let mut remaining = budget;
    let mut chosen = Vec::with_capacity(classes.len());
    let mut value = 0.0;
    for class in classes {
        let best = class
            .iter()
            .enumerate()
            .filter(|(_, item)| item.cost <= remaining)
            .max_by(|a, b| a.1.value.total_cmp(&b.1.value).then(b.0.cmp(&a.0)))?;
        remaining -= best.1.cost;
        value += best.1.value;
        chosen.push(best.0);
    }
    Some(MckpSolution {
        chosen,
        value,
        cost: budget - remaining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(cost: i64, value: f64) -> MckpItem {
        MckpItem {
            cost: Money::from_units(cost),
            value,
        }
    }

    #[test]
    fn picks_best_combination_under_budget() {
        let classes = vec![
            vec![item(10, 5.0), item(5, 3.0)],
            vec![item(8, 6.0), item(2, 1.0)],
        ];
        // Budget 15: {5,8} value 9 beats {10,2} value 6 and {5,2} value 4.
        let s = solve(&classes, Money::from_units(15)).unwrap();
        assert_eq!(s.chosen, vec![1, 0]);
        assert_eq!(s.value, 9.0);
        assert_eq!(s.cost, Money::from_units(13));
    }

    #[test]
    fn unconstrained_budget_takes_best_values() {
        let classes = vec![
            vec![item(10, 5.0), item(5, 3.0)],
            vec![item(8, 6.0), item(2, 1.0)],
        ];
        let s = solve(&classes, Money::from_units(1_000)).unwrap();
        assert_eq!(s.value, 11.0);
        assert_eq!(s.cost, Money::from_units(18));
    }

    #[test]
    fn infeasible_when_cheapest_combination_exceeds_budget() {
        let classes = vec![vec![item(10, 1.0)], vec![item(10, 1.0)]];
        assert!(solve(&classes, Money::from_units(19)).is_none());
        assert!(solve(&classes, Money::from_units(20)).is_some());
    }

    #[test]
    fn empty_class_is_infeasible() {
        let classes = vec![vec![item(1, 1.0)], vec![]];
        assert!(solve(&classes, Money::from_units(100)).is_none());
    }

    #[test]
    fn no_classes_is_trivially_solved() {
        let s = solve(&[], Money::ZERO).unwrap();
        assert!(s.chosen.is_empty());
        assert_eq!(s.cost, Money::ZERO);
    }

    #[test]
    fn fractional_costs_round_up_safely() {
        // Item costs 1.5, budget 2.9: discretised cost 2 units, budget 2
        // units — chosen, and the true cost 1.5 <= 2.9.
        let classes = vec![vec![MckpItem {
            cost: Money::from_f64(1.5),
            value: 1.0,
        }]];
        let s = solve(&classes, Money::from_f64(2.9)).unwrap();
        assert_eq!(s.cost, Money::from_f64(1.5));
        // Budget 1.9: discretised budget 1 unit < rounded cost 2 — rejected
        // even though the true cost would fit; conservative by design.
        assert!(solve(&classes, Money::from_f64(1.9)).is_none());
    }

    #[test]
    fn negative_values_are_allowed() {
        // Minimisation objectives encode as negated values.
        let classes = vec![vec![item(1, -5.0), item(2, -1.0)]];
        let s = solve(&classes, Money::from_units(10)).unwrap();
        assert_eq!(s.chosen, vec![1], "less negative = better");
    }

    #[test]
    fn ties_prefer_cheaper_cells() {
        let classes = vec![vec![item(10, 1.0), item(2, 1.0)]];
        let s = solve(&classes, Money::from_units(20)).unwrap();
        assert_eq!(s.chosen, vec![1], "equal value, cheaper item wins");
    }

    #[test]
    fn greedy_is_feasible_but_may_be_suboptimal() {
        let classes = vec![
            vec![item(10, 5.0), item(5, 3.0)],
            vec![item(8, 6.0), item(2, 1.0)],
        ];
        let budget = Money::from_units(15);
        let greedy = solve_greedy(&classes, budget).unwrap();
        let exact = solve(&classes, budget).unwrap();
        assert!(greedy.cost <= budget);
        assert!(greedy.value <= exact.value);
        // Here greedy grabs value 5 first, leaving only the value-1 item.
        assert_eq!(greedy.value, 6.0);
    }

    #[test]
    fn greedy_none_when_class_unaffordable() {
        let classes = vec![vec![item(10, 5.0)], vec![item(10, 5.0)]];
        assert!(solve_greedy(&classes, Money::from_units(15)).is_none());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use slotsel_core::rng::SplitMix64;
        let mut rng = SplitMix64::new(321);
        for case in 0..30 {
            let class_count = 1 + rng.next_below(3) as usize;
            let classes: Vec<Vec<MckpItem>> = (0..class_count)
                .map(|_| {
                    (0..1 + rng.next_below(4))
                        .map(|_| item(1 + rng.next_below(12) as i64, rng.next_below(20) as f64))
                        .collect()
                })
                .collect();
            let budget = Money::from_units(5 + rng.next_below(25) as i64);

            // Brute force.
            let mut best: Option<f64> = None;
            let mut stack: Vec<(usize, Money, f64)> = vec![(0, Money::ZERO, 0.0)];
            while let Some((class, cost, value)) = stack.pop() {
                if class == classes.len() {
                    if cost <= budget && best.is_none_or(|b| value > b) {
                        best = Some(value);
                    }
                    continue;
                }
                for it in &classes[class] {
                    stack.push((class + 1, cost + it.cost, value + it.value));
                }
            }

            let solved = solve(&classes, budget);
            match (best, solved) {
                (Some(b), Some(s)) => assert_eq!(s.value, b, "case {case}"),
                (None, None) => {}
                (b, s) => panic!("case {case}: {b:?} vs {s:?}"),
            }
        }
    }
}
