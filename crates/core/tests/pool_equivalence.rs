//! The AEP scan must be indistinguishable from the reference sort-per-step
//! scan: pick-for-pick identical windows, identical stats, byte-identical
//! trace events and identical extended-window eviction counters, for every
//! policy and on either form of the extended window (the incremental pool
//! for MinCost, MinRunTime and MinFinish, the admission-ordered vector for
//! AMP and MinProcTime), over randomized environments.

use proptest::prelude::*;

use slotsel_core::aep::{scan_observed, ScanOptions, ScanOutcome, SelectionPolicy};
use slotsel_core::algorithms::{
    Amp, MinCost, MinFinish, MinProcTime, MinRunTime, RuntimeSelection,
};
use slotsel_core::money::Money;
use slotsel_core::node::{NodeId, NodeSpec, Performance, Platform, Volume};
use slotsel_core::pool::CandidatePool;
use slotsel_core::reference::reference_scan_observed;
use slotsel_core::request::{NodeRequirements, ResourceRequest};
use slotsel_core::selectors::{self, Candidate};
use slotsel_core::slot::{Slot, SlotId};
use slotsel_core::slotlist::SlotList;
use slotsel_core::time::{Interval, TimeDelta, TimePoint};
use slotsel_obs::{MemoryRecorder, MetricsRegistry, Obs};

/// A randomized scan environment: platform, slot list and request.
#[derive(Debug, Clone)]
struct Env {
    platform: Platform,
    slots: SlotList,
    request: ResourceRequest,
}

fn arb_env() -> impl Strategy<Value = Env> {
    let node = (1u32..12, 0i64..20_000);
    let nodes = prop::collection::vec(node, 2..14);
    let extra_slots = prop::collection::vec((0usize..14, 0i64..800, 1i64..600), 0..10);
    (
        nodes,
        extra_slots,
        1usize..5,                      // node count requested
        1u64..2_000,                    // volume
        1i64..3_000_000,                // budget, millis
        (any::<bool>(), 200i64..1_200), // deadline (used when flag set)
        (any::<bool>(), 2u32..8),       // min performance (used when flag set)
    )
        .prop_map(|(nodes, extra, n, volume, budget, deadline, min_perf)| {
            let deadline = deadline.0.then_some(deadline.1);
            let min_perf = min_perf.0.then_some(min_perf.1);
            let platform: Platform = nodes
                .iter()
                .enumerate()
                .map(|(i, &(perf, price))| {
                    NodeSpec::builder(i as u32)
                        .performance(Performance::new(perf))
                        .price_per_unit(Money::from_millis(price))
                        .build()
                })
                .collect();
            let mut raw = Vec::new();
            for (i, &(perf, price)) in nodes.iter().enumerate() {
                let start = (i as i64 * 37) % 500;
                raw.push(Slot::new(
                    SlotId(raw.len() as u64),
                    NodeId(i as u32),
                    Interval::new(TimePoint::new(start), TimePoint::new(start + 600)),
                    Performance::new(perf),
                    Money::from_millis(price),
                ));
            }
            for &(node_pick, start, len) in &extra {
                let idx = node_pick % nodes.len();
                let (perf, price) = nodes[idx];
                raw.push(Slot::new(
                    SlotId(raw.len() as u64),
                    NodeId(idx as u32),
                    Interval::new(TimePoint::new(start), TimePoint::new(start + len)),
                    Performance::new(perf),
                    Money::from_millis(price),
                ));
            }
            let slots = SlotList::from_slots(raw);
            let mut builder = ResourceRequest::builder()
                .node_count(n)
                .volume(Volume::new(volume))
                .budget(Money::from_millis(budget));
            if let Some(d) = deadline {
                builder = builder.deadline(TimePoint::new(d));
            }
            if let Some(p) = min_perf {
                builder = builder
                    .requirements(NodeRequirements::any().min_performance(Performance::new(p)));
            }
            Env {
                platform,
                slots,
                request: builder.build().expect("valid request"),
            }
        })
}

/// Runs a buffer-writing pool or selector query, returning its pick when
/// it succeeds.
fn query(run: impl FnOnce(&mut Vec<usize>) -> bool) -> Option<Vec<usize>> {
    let mut picked = Vec::new();
    run(&mut picked).then_some(picked)
}

/// Runs the pool scan and the reference scan with the given policies and
/// asserts identical outcomes, identical stats, byte-identical traces and
/// identical extended-window eviction counters.
fn assert_scans_agree(
    env: &Env,
    options: ScanOptions,
    pool_policy: &mut dyn SelectionPolicy,
    reference_policy: &mut dyn SelectionPolicy,
) -> Result<(), TestCaseError> {
    let mut pool_rec = MemoryRecorder::new();
    let pool_metrics = MetricsRegistry::new();
    let pool: ScanOutcome = scan_observed(
        &env.platform,
        &env.slots,
        &env.request,
        pool_policy,
        options,
        &mut Obs::dark()
            .with_recorder(&mut pool_rec)
            .with_metrics(&pool_metrics),
    );
    let mut ref_rec = MemoryRecorder::new();
    let ref_metrics = MetricsRegistry::new();
    let reference: ScanOutcome = reference_scan_observed(
        &env.platform,
        &env.slots,
        &env.request,
        reference_policy,
        options,
        &mut Obs::dark()
            .with_recorder(&mut ref_rec)
            .with_metrics(&ref_metrics),
    );

    prop_assert_eq!(&pool.best, &reference.best, "windows must be identical");
    prop_assert_eq!(&pool.stats, &reference.stats, "stats must be identical");

    let jsonl = |rec: &MemoryRecorder| -> String {
        rec.events()
            .iter()
            .map(slotsel_obs::TraceEvent::to_json_line)
            .collect::<Vec<_>>()
            .join("\n")
    };
    prop_assert_eq!(
        jsonl(&pool_rec),
        jsonl(&ref_rec),
        "traces must be byte-identical"
    );

    let labels = [("policy", pool_policy.name())];
    for counter in [
        "slotsel_pool_evicted_superseded_total",
        "slotsel_pool_evicted_expired_total",
    ] {
        prop_assert_eq!(
            pool_metrics.counter_value(counter, &labels),
            ref_metrics.counter_value(counter, &labels),
            "{} must be identical",
            counter
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn amp_scans_agree(env in arb_env()) {
        assert_scans_agree(
            &env,
            ScanOptions::default(),
            &mut Amp.policy(),
            &mut Amp.policy(),
        )?;
    }

    #[test]
    fn min_cost_scans_agree(env in arb_env()) {
        assert_scans_agree(
            &env,
            ScanOptions::default(),
            &mut MinCost.policy(),
            &mut MinCost.policy(),
        )?;
    }

    #[test]
    fn min_runtime_scans_agree(env in arb_env(), exact in any::<bool>()) {
        let selection = if exact { RuntimeSelection::Exact } else { RuntimeSelection::Greedy };
        let algo = MinRunTime::with_selection(selection);
        assert_scans_agree(
            &env,
            ScanOptions::default(),
            &mut algo.policy(),
            &mut algo.policy(),
        )?;
    }

    #[test]
    fn min_finish_scans_agree(env in arb_env(), exact in any::<bool>(), prune in any::<bool>()) {
        let selection = if exact { RuntimeSelection::Exact } else { RuntimeSelection::Greedy };
        let algo = MinFinish::with_selection(selection);
        let options = ScanOptions { prune_start_bounded: prune };
        assert_scans_agree(&env, options, &mut algo.policy(), &mut algo.policy())?;
    }

    #[test]
    fn min_proc_time_scans_agree(env in arb_env(), seed in any::<u64>()) {
        // Two generators with equal seeds: the scans must consume them
        // identically for the draws to stay in lockstep.
        let mut a = MinProcTime::with_seed(seed);
        let mut b = MinProcTime::with_seed(seed);
        assert_scans_agree(
            &env,
            ScanOptions::default(),
            &mut a.policy(),
            &mut b.policy(),
        )?;
    }

    // The pool queries and the slice selectors pick the same slots for the
    // same alive set, across the full (n, budget) grid.
    #[test]
    fn pool_queries_match_slice_selectors(
        specs in prop::collection::vec((1i64..300, 0i64..8_000), 1..10),
    ) {
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
                    cost: Money::from_millis(cost),
                },
                None,
            );
        }
        pool.advance(TimePoint::ZERO);
        let slice: Vec<Candidate> = pool
            .alive_ids()
            .iter()
            .map(|&id| *pool.candidate(id))
            .collect();
        let to_slots = |picked: Vec<usize>, of_pool: bool| -> Vec<SlotId> {
            picked
                .iter()
                .map(|&i| if of_pool { pool.candidate(i).slot.id() } else { slice[i].slot.id() })
                .collect()
        };
        for n in 1..=specs.len() {
            for budget_millis in [0, 500, 4_000, 40_000, i64::MAX / 1_000] {
                let budget = Money::from_millis(budget_millis);
                prop_assert_eq!(
                    query(|p| pool.cheapest_n(n, budget, p)).map(|p| to_slots(p, true)),
                    query(|p| selectors::cheapest_n(&slice, n, budget, p))
                        .map(|p| to_slots(p, false))
                );
                prop_assert_eq!(
                    query(|p| pool.min_runtime_greedy(n, budget, p)).map(|p| to_slots(p, true)),
                    selectors::min_runtime_greedy(&slice, n, budget).map(|p| to_slots(p, false))
                );
                prop_assert_eq!(
                    query(|p| pool.min_runtime_exact(n, budget, p)).map(|p| to_slots(p, true)),
                    selectors::min_runtime_exact(&slice, n, budget).map(|p| to_slots(p, false))
                );
            }
        }
    }
}
