//! Validation of the linear-scan algorithms against the exhaustive and
//! branch-and-bound references on randomly generated small environments.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use slotsel::baselines::{bnb_solve, exhaustive_best};
use slotsel::core::algorithms::RuntimeSelection;
use slotsel::core::selectors::Candidate;
use slotsel::core::{
    Criterion, MinCost, MinFinish, MinRunTime, Money, ResourceRequest, SlotSelector, Volume,
};
use slotsel::env::{Environment, EnvironmentConfig, NodeGenConfig};

fn small_env(seed: u64) -> Environment {
    let config = EnvironmentConfig {
        nodes: NodeGenConfig::with_count(8),
        ..EnvironmentConfig::paper_default()
    };
    config.generate(&mut StdRng::seed_from_u64(seed))
}

fn request(n: usize, volume: u64, budget: i64) -> ResourceRequest {
    ResourceRequest::builder()
        .node_count(n)
        .volume(Volume::new(volume))
        .budget(Money::from_units(budget))
        .build()
        .expect("valid request")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn min_cost_matches_exhaustive(seed in 0u64..10_000, budget in 100i64..2_000) {
        let env = small_env(seed);
        let req = request(3, 240, budget);
        let exhaustive = exhaustive_best(env.platform(), env.slots(), &req, &Criterion::MinTotalCost);
        let algo = MinCost.select(env.platform(), env.slots(), &req);
        prop_assert_eq!(exhaustive.is_some(), algo.is_some());
        if let (Some(e), Some(a)) = (exhaustive, algo) {
            prop_assert_eq!(e.total_cost(), a.total_cost());
        }
    }

    #[test]
    fn exact_min_runtime_matches_exhaustive(seed in 0u64..10_000, budget in 100i64..2_000) {
        let env = small_env(seed);
        let req = request(3, 240, budget);
        let exhaustive = exhaustive_best(env.platform(), env.slots(), &req, &Criterion::MinRuntime);
        let algo = MinRunTime::with_selection(RuntimeSelection::Exact)
            .select(env.platform(), env.slots(), &req);
        prop_assert_eq!(exhaustive.is_some(), algo.is_some());
        if let (Some(e), Some(a)) = (exhaustive, algo) {
            prop_assert_eq!(e.runtime(), a.runtime());
        }
    }

    #[test]
    fn exact_min_finish_matches_exhaustive(seed in 0u64..10_000, budget in 100i64..2_000) {
        let env = small_env(seed);
        let req = request(3, 240, budget);
        let exhaustive = exhaustive_best(env.platform(), env.slots(), &req, &Criterion::EarliestFinish);
        let algo = MinFinish::with_selection(RuntimeSelection::Exact)
            .select(env.platform(), env.slots(), &req);
        prop_assert_eq!(exhaustive.is_some(), algo.is_some());
        if let (Some(e), Some(a)) = (exhaustive, algo) {
            prop_assert_eq!(e.finish(), a.finish());
        }
    }

    #[test]
    fn greedy_variants_feasible_and_bounded_by_exhaustive(seed in 0u64..10_000, budget in 100i64..2_000) {
        let env = small_env(seed);
        let req = request(3, 240, budget);
        let optimal = exhaustive_best(env.platform(), env.slots(), &req, &Criterion::MinRuntime);
        let greedy = MinRunTime::new().select(env.platform(), env.slots(), &req);
        prop_assert_eq!(optimal.is_some(), greedy.is_some());
        if let (Some(o), Some(g)) = (optimal, greedy) {
            prop_assert!(o.runtime() <= g.runtime());
            prop_assert!(g.total_cost() <= req.budget());
        }
    }

    #[test]
    fn bnb_matches_cheapest_subsets_of_real_slot_lists(seed in 0u64..10_000, n in 1usize..4) {
        let env = small_env(seed);
        let volume = Volume::new(240);
        let candidates: Vec<Candidate> = env
            .slots()
            .iter()
            .filter(|s| s.length() >= s.time_for(volume))
            .map(|s| Candidate::new(*s, volume))
            .collect();
        prop_assume!(candidates.len() >= n);
        let budget = Money::from_units(1_200);
        let by_cost = bnb_solve(&candidates, n, budget, |c| c.cost.as_f64());
        let mut picked = Vec::new();
        let direct = slotsel::core::selectors::cheapest_n(&candidates, n, budget, &mut picked)
            .then_some(picked);
        match (by_cost, direct) {
            (Some(solution), Some(picked)) => {
                let direct_cost: Money = picked.iter().map(|&i| candidates[i].cost).sum();
                prop_assert_eq!(solution.cost, direct_cost);
            }
            (None, None) => {}
            (b, d) => prop_assert!(false, "feasibility mismatch: {:?} vs {:?}", b, d),
        }
    }
}

#[test]
fn bnb_proc_time_lower_bounds_the_simplified_scheme() {
    for seed in 0..20 {
        let env = small_env(seed);
        let req = request(3, 240, 1_500);
        let volume = req.volume();
        // Candidates anchored at t=0 only — compare the pure subset choice.
        let candidates: Vec<Candidate> = env
            .slots()
            .iter()
            .filter(|s| s.start().ticks() == 0 && s.length() >= s.time_for(volume))
            .map(|s| Candidate::new(*s, volume))
            .collect();
        if candidates.len() < req.node_count() {
            continue;
        }
        let optimal = bnb_solve(&candidates, req.node_count(), req.budget(), |c| {
            c.length.ticks() as f64
        });
        if let Some(solution) = optimal {
            let exhaustive =
                exhaustive_best(env.platform(), env.slots(), &req, &Criterion::MinProcTime)
                    .expect("candidates exist at t=0");
            assert!(
                exhaustive.proc_time().ticks() as f64 <= solution.objective + 1e-9,
                "seed {seed}: global optimum must not exceed the t=0 optimum"
            );
        }
    }
}
