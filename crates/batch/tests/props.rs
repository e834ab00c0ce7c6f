//! Property-based tests for the batch crate: MCKP optimality and scheduler
//! invariants on randomly generated environments and batches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use slotsel_batch::{
    mckp::{self, MckpItem, MckpSolution},
    windows_conflict, BatchObjective, BatchScheduler, BatchSchedulerConfig,
};
use slotsel_core::{Job, JobId, Money, ResourceRequest, Volume, Window};
use slotsel_env::{EnvironmentConfig, NodeGenConfig};

fn arb_classes() -> impl Strategy<Value = Vec<Vec<MckpItem>>> {
    prop::collection::vec(
        prop::collection::vec(
            (1i64..15, -30.0f64..30.0).prop_map(|(cost, value)| MckpItem {
                cost: Money::from_units(cost),
                value,
            }),
            1..5,
        ),
        1..4,
    )
}

fn brute_force(classes: &[Vec<MckpItem>], budget: Money) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut stack: Vec<(usize, Money, f64)> = vec![(0, Money::ZERO, 0.0)];
    while let Some((class, cost, value)) = stack.pop() {
        if class == classes.len() {
            if cost <= budget && best.is_none_or(|b| value > b) {
                best = Some(value);
            }
            continue;
        }
        for item in &classes[class] {
            stack.push((class + 1, cost + item.cost, value + item.value));
        }
    }
    best
}

/// The dense-table MCKP DP that `mckp::solve` replaced, kept verbatim as
/// the differential oracle for the banded solver: it sweeps every budget
/// cell `0..=units` for every item and keeps a `usize` choice per cell.
fn dense_oracle(classes: &[Vec<MckpItem>], budget: Money) -> Option<MckpSolution> {
    const UNIT_MILLIS: i64 = 1_000;
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
    for item in classes.iter().flatten() {
        assert!(!item.cost.is_negative(), "negative item cost {}", item.cost);
        assert!(
            item.value.is_finite(),
            "non-finite item value {}",
            item.value
        );
    }

    let units = (budget.millis() / UNIT_MILLIS).max(0) as usize;
    let width = units + 1;
    // Round costs up so discretised feasibility implies real feasibility.
    // Costs are validated non-negative above, so plain ceiling division.
    let unit_cost = |cost: Money| -> usize {
        ((cost.millis() + UNIT_MILLIS - 1) / UNIT_MILLIS).max(0) as usize
    };

    // dp[u] = best value using budget u; choice[class][u] = item chosen.
    let mut dp: Vec<f64> = vec![f64::NEG_INFINITY; width];
    dp[0] = 0.0;
    let mut choices: Vec<Vec<usize>> = Vec::with_capacity(classes.len());

    for class in classes {
        let mut next: Vec<f64> = vec![f64::NEG_INFINITY; width];
        let mut choice: Vec<usize> = vec![usize::MAX; width];
        for (item_index, item) in class.iter().enumerate() {
            let c = unit_cost(item.cost);
            if c > units {
                continue;
            }
            for u in c..width {
                let base = dp[u - c];
                if base == f64::NEG_INFINITY {
                    continue;
                }
                let value = base + item.value;
                if value > next[u] {
                    next[u] = value;
                    choice[u] = item_index;
                }
            }
        }
        dp = next;
        choices.push(choice);
    }

    // Best reachable cell.
    let (mut unit, best_value) = dp
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != f64::NEG_INFINITY)
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(u, &v)| (u, v))?;

    // Backtrack.
    let mut chosen = vec![0usize; classes.len()];
    for (class_index, class) in classes.iter().enumerate().rev() {
        let item_index = choices[class_index][unit];
        debug_assert_ne!(item_index, usize::MAX, "reachable cell must have a choice");
        chosen[class_index] = item_index;
        unit -= unit_cost(class[item_index].cost);
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

/// An item cost no generated budget can cover.
const OVERSIZED_UNITS: i64 = 1_000_000;

/// Values from a small set, so equal totals (ties) are common.
const TIE_VALUES: [f64; 7] = [-2.0, -0.5, -0.0, 0.0, 1.0, 1.5, 3.0];

/// Up to 12 classes × 16 items: fractional costs up to 60 units, zero-cost
/// items and items costing more than any budget, values with many ties.
fn arb_dense_classes() -> impl Strategy<Value = Vec<Vec<MckpItem>>> {
    let cost = prop_oneof![
        Just(Money::ZERO),
        (0.0f64..60.0).prop_map(Money::from_f64),
        (1i64..60).prop_map(Money::from_units),
        Just(Money::from_units(OVERSIZED_UNITS)),
    ];
    let item = (cost, 0usize..TIE_VALUES.len()).prop_map(|(cost, v)| MckpItem {
        cost,
        value: TIE_VALUES[v],
    });
    prop::collection::vec(prop::collection::vec(item, 1..17), 1..13)
}

/// The budget as a share of the classes' summed dearest (non-oversized)
/// item cost: below 1 it binds, at or above 1 every selection without an
/// oversized item fits.
fn budget_for(classes: &[Vec<MckpItem>], share: f64) -> Money {
    let dearest: Money = classes
        .iter()
        .map(|class| {
            class
                .iter()
                .map(|item| item.cost)
                .filter(|&cost| cost < Money::from_units(OVERSIZED_UNITS))
                .max()
                .unwrap_or(Money::ZERO)
        })
        .sum();
    Money::from_f64(dearest.as_f64() * share)
}

/// `Ok` when the banded solver and the dense oracle agree exactly: same
/// feasibility, same chosen items, same cost, and the same value bits.
fn compare_with_dense(classes: &[Vec<MckpItem>], budget: Money) -> Result<(), String> {
    let banded = mckp::solve(classes, budget);
    let dense = dense_oracle(classes, budget);
    let same = match (&banded, &dense) {
        (Some(b), Some(d)) => {
            b.chosen == d.chosen && b.value.to_bits() == d.value.to_bits() && b.cost == d.cost
        }
        (None, None) => true,
        _ => false,
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "budget {budget}: banded {banded:?} vs dense {dense:?}"
        ))
    }
}

fn unit_item(cost: i64, value: f64) -> MckpItem {
    MckpItem {
        cost: Money::from_units(cost),
        value,
    }
}

#[test]
fn mckp_band_hi_clipped_by_budget_part_way_matches_dense() {
    // Budget 20: hi runs 8, 16, then clips to 20 for the last three
    // classes while lo stays at 1, 2, 3, 4, 5.
    let classes: Vec<Vec<MckpItem>> = (0..5)
        .map(|k| {
            vec![
                unit_item(1, 0.5),
                unit_item(8, 3.0 + f64::from(k)),
                unit_item(4, 2.0),
            ]
        })
        .collect();
    let budget = Money::from_units(20);
    compare_with_dense(&classes, budget).unwrap();
    let s = mckp::solve(&classes, budget).unwrap();
    assert!(s.cost <= budget);
}

#[test]
fn mckp_band_lo_past_budget_ends_early_like_dense() {
    // lo reaches 12 > 10 at the third class; the fourth is never walked.
    let classes = vec![
        vec![unit_item(4, 1.0), unit_item(9, 5.0)],
        vec![unit_item(4, 1.0)],
        vec![unit_item(4, 1.0), unit_item(6, 2.0)],
        vec![unit_item(0, 1.0)],
    ];
    compare_with_dense(&classes, Money::from_units(10)).unwrap();
    assert!(mckp::solve(&classes, Money::from_units(10)).is_none());
    // A budget equal to the cheapest total (12) is feasible.
    compare_with_dense(&classes, Money::from_units(12)).unwrap();
    assert!(mckp::solve(&classes, Money::from_units(12)).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mckp_band_matches_dense_oracle(
        classes in arb_dense_classes(),
        share in prop_oneof![0.0f64..1.0, 1.0f64..1.5],
    ) {
        if let Err(message) = compare_with_dense(&classes, budget_for(&classes, share)) {
            prop_assert!(false, "{}", message);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mckp_dp_is_optimal(classes in arb_classes(), budget_units in 1i64..50) {
        let budget = Money::from_units(budget_units);
        let solved = mckp::solve(&classes, budget);
        let optimal = brute_force(&classes, budget);
        match (solved, optimal) {
            (Some(s), Some(o)) => {
                prop_assert!((s.value - o).abs() < 1e-9, "{} vs {}", s.value, o);
                prop_assert!(s.cost <= budget);
                prop_assert_eq!(s.chosen.len(), classes.len());
            }
            (None, None) => {}
            (s, o) => prop_assert!(false, "feasibility mismatch: {:?} vs {:?}", s, o),
        }
    }

    #[test]
    fn mckp_greedy_never_beats_dp(classes in arb_classes(), budget_units in 1i64..50) {
        let budget = Money::from_units(budget_units);
        if let (Some(greedy), Some(dp)) =
            (mckp::solve_greedy(&classes, budget), mckp::solve(&classes, budget))
        {
            prop_assert!(greedy.value <= dp.value + 1e-9);
            prop_assert!(greedy.cost <= budget);
        }
    }

    #[test]
    fn scheduler_invariants_on_random_batches(
        seed in 0u64..5_000,
        job_count in 1usize..6,
        objective_index in 0usize..5,
    ) {
        let env = EnvironmentConfig {
            nodes: NodeGenConfig::with_count(20),
            ..EnvironmentConfig::paper_default()
        }
        .generate(&mut StdRng::seed_from_u64(seed));

        let jobs: Vec<Job> = (0..job_count)
            .map(|i| {
                Job::new(
                    JobId(i as u32),
                    (seed % 7) as u32 + i as u32,
                    ResourceRequest::builder()
                        .node_count(1 + (seed as usize + i) % 5)
                        .volume(Volume::new(100 + (seed % 5) * 60))
                        .budget(Money::from_units(400 + (seed % 4) as i64 * 400))
                        .build()
                        .expect("valid"),
                )
            })
            .collect();

        let config = BatchSchedulerConfig {
            objective: BatchObjective::ALL[objective_index],
            ..Default::default()
        };
        let schedule = BatchScheduler::new(config).schedule(env.platform(), env.slots(), &jobs);

        // One assignment per job, in priority order.
        prop_assert_eq!(schedule.assignments.len(), jobs.len());
        let priorities: Vec<u32> =
            schedule.assignments.iter().map(|a| a.job.priority()).collect();
        let mut sorted = priorities.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(priorities, sorted);

        // Committed windows respect job budgets and are conflict-free.
        let windows: Vec<&Window> =
            schedule.assignments.iter().filter_map(|a| a.window.as_ref()).collect();
        for assignment in &schedule.assignments {
            if let Some(w) = &assignment.window {
                prop_assert!(w.total_cost() <= assignment.job.request().budget());
                prop_assert_eq!(w.size(), assignment.job.request().node_count());
            }
        }
        for i in 0..windows.len() {
            for j in (i + 1)..windows.len() {
                prop_assert!(!windows_conflict(windows[i], windows[j]));
            }
        }
    }
}
