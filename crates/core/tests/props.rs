//! Property-based tests for the core data structures and selectors.

use proptest::prelude::*;

use slotsel_core::money::Money;
use slotsel_core::node::{NodeId, NodeSpec, Performance, Platform, Volume};
use slotsel_core::rng::SplitMix64;
use slotsel_core::selectors::{
    cheapest_n, min_runtime_exact, min_runtime_greedy, random_feasible, total_cost, Candidate,
};
use slotsel_core::slot::{Slot, SlotId};
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_core::time::{Interval, TimeDelta, TimePoint};

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0i64..1_000, 1i64..500)
        .prop_map(|(start, len)| Interval::new(TimePoint::new(start), TimePoint::new(start + len)))
}

fn arb_slots(max: usize) -> impl Strategy<Value = Vec<Slot>> {
    prop::collection::vec(arb_interval(), 1..max).prop_flat_map(|spans| {
        let slots: Vec<BoxedStrategy<Slot>> = spans
            .into_iter()
            .enumerate()
            .map(|(i, span)| {
                (1u32..12, 0i64..20_000)
                    .prop_map(move |(perf, price)| {
                        Slot::new(
                            SlotId(i as u64),
                            NodeId(i as u32),
                            span,
                            Performance::new(perf),
                            Money::from_millis(price),
                        )
                    })
                    .boxed()
            })
            .collect();
        slots
    })
}

/// [`cheapest_n`]'s pick, when it fits the budget.
fn cheapest(cands: &[Candidate], n: usize, budget: Money) -> Option<Vec<usize>> {
    let mut picked = Vec::new();
    cheapest_n(cands, n, budget, &mut picked).then_some(picked)
}

fn arb_candidates(max: usize) -> impl Strategy<Value = Vec<Candidate>> {
    (arb_slots(max), 1u64..2_000).prop_map(|(slots, volume)| {
        slots
            .into_iter()
            .map(|slot| Candidate::new(slot, Volume::new(volume)))
            .collect()
    })
}

/// The clock advance as a release of `grown` per platform node, a prune
/// and a cut of each stale prefix — the incremental sequence
/// [`SlotList::advance_horizon`] must reproduce slot for slot.
fn advance_one_step_at_a_time(
    list: &mut SlotList,
    platform: &Platform,
    grown: Interval,
    now: TimePoint,
) {
    for node in platform.iter() {
        list.release(node.id(), grown, node.performance(), node.price_per_unit());
    }
    list.prune_ended_by(now);
    let stale: Vec<_> = list
        .iter()
        .take_while(|slot| slot.start() < now)
        .map(|slot| (slot.id(), Interval::new(slot.start(), now)))
        .collect();
    if !stale.is_empty() {
        list.cut(&stale, TimeDelta::ZERO)
            .expect("stale prefixes lie inside their slots");
    }
}

fn advance_platform(nodes: usize) -> Platform {
    Platform::new(
        (0..nodes as u32)
            .map(|id| {
                NodeSpec::builder(id)
                    .performance(Performance::new(id % 5 + 1))
                    .price_per_unit(Money::from_millis(i64::from(id) * 700 + 300))
                    .build()
            })
            .collect(),
    )
}

/// Free slots below a horizon: per node up to four disjoint spans laid
/// left to right (gaps of zero make touching neighbours), the last one
/// stretched to end exactly at the horizon when `touch` is set. Node
/// `nodes` lies outside the platform. Ids are a permutation of the
/// generation order, so `(start, id)` ties break both ways.
fn arb_horizon_slots() -> impl Strategy<Value = (usize, i64, Vec<Slot>)> {
    let node = (
        prop::collection::vec((0i64..60, 1i64..90), 0..5),
        any::<bool>(),
    );
    (
        1usize..6,
        40i64..300,
        prop::collection::vec(node, 7..8),
        1u64..1009,
    )
        .prop_map(|(nodes, horizon, layouts, stride)| {
            let mut slots = Vec::new();
            for (node, (pieces, touch)) in layouts.into_iter().take(nodes + 1).enumerate() {
                let first = slots.len();
                let mut cursor = 0;
                for (gap, len) in pieces {
                    let start = cursor + gap;
                    if start >= horizon {
                        break;
                    }
                    let end = (start + len).min(horizon);
                    slots.push((node, start, end));
                    cursor = end;
                }
                if touch && slots.len() > first {
                    slots.last_mut().expect("non-empty").2 = horizon;
                }
            }
            let slots = slots
                .into_iter()
                .enumerate()
                .map(|(i, (node, start, end))| {
                    Slot::new(
                        SlotId(i as u64 * stride % 1009),
                        NodeId(node as u32),
                        Interval::new(TimePoint::new(start), TimePoint::new(end)),
                        Performance::new(node as u32 % 5 + 1),
                        Money::from_millis(node as i64 * 700 + 300),
                    )
                })
                .collect();
            (nodes, horizon, slots)
        })
}

proptest! {
    #[test]
    fn interval_subtract_conserves_length(a in arb_interval(), b in arb_interval()) {
        let removed = a.intersection(&b).map_or(0, |i| i.length().ticks());
        let remaining: i64 = a.subtract(&b).iter().map(|p| p.length().ticks()).sum();
        prop_assert_eq!(remaining + removed, a.length().ticks());
    }

    #[test]
    fn interval_subtract_pieces_disjoint_from_hole(a in arb_interval(), b in arb_interval()) {
        for piece in a.subtract(&b) {
            prop_assert!(!piece.overlaps(&b));
            prop_assert!(a.contains_interval(&piece));
        }
    }

    #[test]
    fn slotlist_stays_sorted_under_insertion(slots in arb_slots(24)) {
        let list = SlotList::from_slots(slots);
        prop_assert!(list.is_sorted());
    }

    #[test]
    fn slotlist_cut_conserves_free_time(slots in arb_slots(16), pick in 0usize..16, frac in 0.0f64..1.0) {
        let mut list = SlotList::from_slots(slots);
        let index = pick % list.len();
        let slot = *list.iter().nth(index).expect("index in range");
        let cut_len = ((slot.length().ticks() as f64) * frac).floor() as i64;
        prop_assume!(cut_len > 0);
        let reserved = Interval::with_length(slot.start(), TimeDelta::new(cut_len));
        let before = list.total_free_time();
        list.cut(&[(slot.id(), reserved)], TimeDelta::ZERO).expect("cut inside span");
        prop_assert_eq!(before.ticks() - cut_len, list.total_free_time().ticks());
        prop_assert!(list.is_sorted());
        prop_assert!(list.get(slot.id()).is_none());
    }

    #[test]
    fn cheapest_n_is_optimal_cost(cands in arb_candidates(12), n in 1usize..5) {
        prop_assume!(cands.len() >= n);
        let budget = Money::MAX;
        let picked = cheapest(&cands, n, budget).expect("unbounded budget");
        let best = total_cost(&cands, &picked);
        // Compare against every n-subset by brute force.
        let indices: Vec<usize> = (0..cands.len()).collect();
        let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0)];
        while let Some((chosen, from)) = stack.pop() {
            if chosen.len() == n {
                prop_assert!(best <= total_cost(&cands, &chosen));
                continue;
            }
            for &i in &indices[from..] {
                let mut next = chosen.clone();
                next.push(i);
                stack.push((next, i + 1));
            }
        }
    }

    #[test]
    fn greedy_runtime_is_feasible_and_not_better_than_exact(
        cands in arb_candidates(14),
        n in 1usize..5,
        budget_units in 1i64..10_000,
    ) {
        prop_assume!(cands.len() >= n);
        let budget = Money::from_units(budget_units);
        let greedy = min_runtime_greedy(&cands, n, budget);
        let exact = min_runtime_exact(&cands, n, budget);
        prop_assert_eq!(greedy.is_some(), exact.is_some(), "feasibility must agree");
        if let (Some(g), Some(e)) = (greedy, exact) {
            let runtime = |picked: &[usize]| {
                picked.iter().map(|&i| cands[i].length).max().expect("non-empty")
            };
            prop_assert!(total_cost(&cands, &g) <= budget);
            prop_assert!(total_cost(&cands, &e) <= budget);
            prop_assert!(runtime(&e) <= runtime(&g));
            prop_assert_eq!(g.len(), n);
            prop_assert_eq!(e.len(), n);
        }
    }

    #[test]
    fn exact_runtime_is_optimal(cands in arb_candidates(10), n in 1usize..4, budget_units in 1i64..5_000) {
        prop_assume!(cands.len() >= n);
        let budget = Money::from_units(budget_units);
        let exact = min_runtime_exact(&cands, n, budget);
        // Brute force optimum.
        let mut best: Option<TimeDelta> = None;
        let indices: Vec<usize> = (0..cands.len()).collect();
        let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0)];
        while let Some((chosen, from)) = stack.pop() {
            if chosen.len() == n {
                if total_cost(&cands, &chosen) <= budget {
                    let runtime = chosen.iter().map(|&i| cands[i].length).max().expect("n >= 1");
                    if best.is_none_or(|b| runtime < b) {
                        best = Some(runtime);
                    }
                }
                continue;
            }
            for &i in &indices[from..] {
                let mut next = chosen.clone();
                next.push(i);
                stack.push((next, i + 1));
            }
        }
        match (exact, best) {
            (Some(picked), Some(optimal)) => {
                let runtime = picked.iter().map(|&i| cands[i].length).max().expect("n >= 1");
                prop_assert_eq!(runtime, optimal);
            }
            (None, None) => {}
            (e, b) => prop_assert!(false, "feasibility mismatch: {:?} vs {:?}", e, b),
        }
    }

    #[test]
    fn random_feasible_respects_budget(cands in arb_candidates(12), n in 1usize..5, seed in any::<u64>()) {
        prop_assume!(cands.len() >= n);
        let budget = Money::from_units(500);
        let mut rng = SplitMix64::new(seed);
        let mut picked = Vec::new();
        if random_feasible(&cands, n, budget, &mut rng, 4, &mut picked) {
            prop_assert_eq!(picked.len(), n);
            prop_assert!(total_cost(&cands, &picked) <= budget);
            let mut unique = picked.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len(), n);
        } else {
            // No feasible subset may exist at all.
            prop_assert!(cheapest(&cands, n, budget).is_none());
        }
    }

    #[test]
    fn cut_then_release_restores_free_time(slots in arb_slots(12), pick in 0usize..12, lo in 0.0f64..1.0, hi in 0.0f64..1.0) {
        let mut list = SlotList::from_slots(slots);
        let index = pick % list.len();
        let slot = *list.iter().nth(index).expect("index in range");
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let len = slot.length().ticks();
        let a = (len as f64 * lo).floor() as i64;
        let b = (len as f64 * hi).floor() as i64;
        prop_assume!(b > a);
        let reserved = Interval::new(slot.start() + TimeDelta::new(a), slot.start() + TimeDelta::new(b));
        let before_time = list.total_free_time();
        list.cut(&[(slot.id(), reserved)], TimeDelta::ZERO).expect("inside span");
        list.release(slot.node(), reserved, slot.performance(), slot.price_per_unit());
        prop_assert_eq!(before_time, list.total_free_time());
        prop_assert!(list.is_sorted());
    }

    #[test]
    fn min_additive_greedy_is_feasible(cands in arb_candidates(12), n in 1usize..5, budget_units in 1i64..10_000) {
        use slotsel_core::selectors::min_additive_greedy;
        prop_assume!(cands.len() >= n);
        let budget = Money::from_units(budget_units);
        let z: Vec<f64> = cands.iter().map(|c| c.length.ticks() as f64).collect();
        let greedy = min_additive_greedy(&cands, n, budget, &z);
        prop_assert_eq!(greedy.is_some(), cheapest(&cands, n, budget).is_some());
        if let Some(picked) = greedy {
            prop_assert_eq!(picked.len(), n);
            prop_assert!(total_cost(&cands, &picked) <= budget);
            let mut unique = picked.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len(), n);
            // Never worse than the seed (the n cheapest by cost).
            let seed = cheapest(&cands, n, budget).expect("same feasibility");
            let sum = |p: &[usize]| p.iter().map(|&i| z[i]).sum::<f64>();
            prop_assert!(sum(&picked) <= sum(&seed) + 1e-9);
        }
    }

    #[test]
    fn tree_and_vec_stores_stay_identical_under_mutation(
        slots in arb_slots(20),
        ops in prop::collection::vec((0u8..5, 0usize..64, 0.0f64..1.0, 0.0f64..1.0), 0..12),
    ) {
        let mut vec_list = SlotList::from_slots_in(SlotStoreKind::Vec, slots.clone());
        let mut tree_list = SlotList::from_slots_in(SlotStoreKind::Tree, slots);
        prop_assert_eq!(&vec_list, &tree_list);
        prop_assert!(tree_list.as_tree().expect("tree-backed").check_invariants());
        for (op, pick, lo, hi) in ops {
            if vec_list.is_empty() {
                break;
            }
            let index = pick % vec_list.len();
            let slot = *vec_list.nth(index).expect("index in range");
            match op {
                // Cut a middle span out; op 0 also releases it back.
                0 | 1 => {
                    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                    let len = slot.length().ticks();
                    let a = (len as f64 * lo).floor() as i64;
                    let b = (len as f64 * hi).floor() as i64;
                    if b <= a {
                        continue;
                    }
                    let reserved = Interval::new(
                        slot.start() + TimeDelta::new(a),
                        slot.start() + TimeDelta::new(b),
                    );
                    vec_list.cut(&[(slot.id(), reserved)], TimeDelta::ZERO).expect("inside span");
                    tree_list.cut(&[(slot.id(), reserved)], TimeDelta::ZERO).expect("inside span");
                    prop_assert_eq!(&vec_list, &tree_list);
                    let clear = !vec_list
                        .iter()
                        .any(|s| s.node() == slot.node() && s.span().overlaps(&reserved));
                    if op == 0 && clear {
                        let va = vec_list.release(
                            slot.node(), reserved, slot.performance(), slot.price_per_unit(),
                        );
                        let vt = tree_list.release(
                            slot.node(), reserved, slot.performance(), slot.price_per_unit(),
                        );
                        prop_assert_eq!(va, vt);
                    }
                }
                2 => {
                    let dv = vec_list.prune_ended_by(slot.start());
                    let dt = tree_list.prune_ended_by(slot.start());
                    prop_assert_eq!(dv, dt);
                }
                3 => {
                    let residue = pick as u64 % 5;
                    vec_list.retain(|s| s.id().0 % 5 != residue);
                    tree_list.retain(|s| s.id().0 % 5 != residue);
                }
                _ => {
                    let dv = vec_list.remove_node_slots(slot.node());
                    let dt = tree_list.remove_node_slots(slot.node());
                    prop_assert_eq!(dv, dt);
                }
            }
            prop_assert_eq!(&vec_list, &tree_list);
            prop_assert_eq!(vec_list.stats(), tree_list.stats());
            prop_assert!(tree_list.is_sorted());
            // Every subtree aggregate (count, free time, span ends, latest
            // start, work capacity) still matches its slots.
            prop_assert!(tree_list.as_tree().expect("tree-backed").check_invariants());
        }
        // Conversion round-trips the mutated state both ways.
        let mut down = tree_list.clone();
        down.convert(SlotStoreKind::Vec);
        prop_assert_eq!(&down, &vec_list);
        let mut up = vec_list.clone();
        up.convert(SlotStoreKind::Tree);
        prop_assert_eq!(&up, &tree_list);
    }

    #[test]
    fn advance_horizon_matches_the_per_node_sequence(
        (nodes, horizon, slots) in arb_horizon_slots(),
        steps in prop::collection::vec((1i64..80, any::<bool>(), 0usize..64, 0i64..400), 1..4),
    ) {
        // Each step grows the horizon by `advance` and moves the clock to
        // either a slot boundary (so slots end at or start exactly at
        // `now`) or an arbitrary point up to past the new horizon.
        let platform = advance_platform(nodes);
        let mut oracle = SlotList::from_slots_in(SlotStoreKind::Vec, slots.clone());
        let mut vec_list = oracle.clone();
        let mut tree_list = SlotList::from_slots_in(SlotStoreKind::Tree, slots);
        let mut horizon = TimePoint::new(horizon);
        for (advance, on_boundary, pick, offset) in steps {
            let grown = Interval::new(horizon, horizon + TimeDelta::new(advance));
            horizon = grown.end();
            let bounds: Vec<TimePoint> =
                oracle.iter().flat_map(|slot| [slot.start(), slot.end()]).collect();
            let now = if on_boundary && !bounds.is_empty() {
                bounds[pick % bounds.len()]
            } else {
                TimePoint::new(offset)
            };
            advance_one_step_at_a_time(&mut oracle, &platform, grown, now);
            vec_list.advance_horizon(&platform, grown, now);
            tree_list.advance_horizon(&platform, grown, now);
            for list in [&vec_list, &tree_list] {
                prop_assert_eq!(list.to_vec(), oracle.to_vec());
                prop_assert_eq!(list.digest(), oracle.digest());
                prop_assert_eq!(list.next_id(), oracle.next_id());
            }
            prop_assert!(tree_list.as_tree().expect("tree-backed").check_invariants());
        }
    }

    #[test]
    fn money_sum_is_order_independent(mut values in prop::collection::vec(-1_000_000i64..1_000_000, 0..50)) {
        let forward: Money = values.iter().map(|&v| Money::from_millis(v)).sum();
        values.reverse();
        let backward: Money = values.iter().map(|&v| Money::from_millis(v)).sum();
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn volume_time_is_monotone_in_performance(volume in 1u64..100_000, perf in 1u32..100) {
        let v = Volume::new(volume);
        let slower = v.time_on(Performance::new(perf));
        let faster = v.time_on(Performance::new(perf + 1));
        prop_assert!(faster <= slower);
        prop_assert!(faster.is_positive());
        // ceil(v / p) * p >= v > (ceil(v / p) - 1) * p
        let t = slower.ticks() as u64;
        prop_assert!(t * u64::from(perf) >= volume);
        prop_assert!((t - 1) * u64::from(perf) < volume);
    }
}

fn past_the_horizon(kind: SlotStoreKind) {
    // Node 1's slot runs 10 ticks past the horizon at 100: growing free
    // time over [100, 160) would release time that is already free.
    let span = |a, b| Interval::new(TimePoint::new(a), TimePoint::new(b));
    let slots = vec![
        Slot::new(
            SlotId(0),
            NodeId(0),
            span(20, 100),
            Performance::new(1),
            Money::ZERO,
        ),
        Slot::new(
            SlotId(1),
            NodeId(1),
            span(40, 110),
            Performance::new(2),
            Money::ZERO,
        ),
    ];
    let mut list = SlotList::from_slots_in(kind, slots);
    list.advance_horizon(&advance_platform(2), span(100, 160), TimePoint::new(60));
}

#[test]
#[should_panic(expected = "runs past the horizon")]
fn advance_horizon_rejects_a_slot_past_the_horizon_on_vec() {
    past_the_horizon(SlotStoreKind::Vec);
}

#[test]
#[should_panic(expected = "runs past the horizon")]
fn advance_horizon_rejects_a_slot_past_the_horizon_on_tree() {
    past_the_horizon(SlotStoreKind::Tree);
}
