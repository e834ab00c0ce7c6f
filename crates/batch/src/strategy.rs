//! Alternative-search strategies — the "directed search" of §3.3.
//!
//! The paper closes with: "A directed alternative search at the first stage
//! of the proposed scheduling approach can affect the final distribution
//! and may be favorable for the end users." Users affect the alternatives
//! found for *their* job by specifying the distribution criterion; the VO
//! then combines whatever phase 1 produced. This module makes that choice
//! explicit: each job searches its alternatives either with CSA (the broad
//! set) or with a single criterion-directed AEP run.

use serde::{Deserialize, Serialize};

use slotsel_obs::Obs;

use slotsel_core::algorithms::{MinCost, MinFinish, MinProcTime, MinRunTime};
use slotsel_core::criteria::Criterion;
use slotsel_core::csa::{Csa, CutPolicy};
use slotsel_core::node::Platform;
use slotsel_core::request::ResourceRequest;
use slotsel_core::slotlist::SlotList;
use slotsel_core::window::Window;
use slotsel_core::{Amp, SlotSelector};

/// How phase 1 searches a job's alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// The broad CSA set (disjoint alternatives via repeated AMP), capped
    /// at the given count.
    Csa {
        /// Maximum alternatives to allocate.
        max_alternatives: usize,
    },
    /// A single alternative, extreme by the user's criterion — the directed
    /// search of §3.3.
    Directed(Criterion),
}

impl SearchStrategy {
    /// The scheduler's default: CSA capped at 16 alternatives.
    #[must_use]
    pub fn default_csa() -> Self {
        SearchStrategy::Csa {
            max_alternatives: 16,
        }
    }

    /// Runs the strategy for one job.
    ///
    /// Equivalent to
    /// [`find_alternatives_observed`](Self::find_alternatives_observed)
    /// with [`Obs::dark`].
    #[must_use]
    pub fn find_alternatives(
        &self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Vec<Window> {
        self.find_alternatives_observed(platform, slots, request, &mut Obs::dark())
    }

    /// Runs the strategy for one job, reporting to `obs`: the CSA arm is a
    /// `"csa.search"` span with one `"aep.scan"` child per run, the
    /// directed arm a bare `"aep.scan"` span, each with its scan metrics.
    #[must_use]
    pub fn find_alternatives_observed(
        &self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        obs: &mut Obs<'_>,
    ) -> Vec<Window> {
        match *self {
            SearchStrategy::Csa { max_alternatives } => Csa::new()
                .cut_policy(CutPolicy::ReservationSpan)
                .max_alternatives(max_alternatives)
                .find_alternatives_observed(platform, slots, request, &mut Amp, obs),
            SearchStrategy::Directed(criterion) => {
                let window = match criterion {
                    Criterion::EarliestStart => Amp.select_observed(platform, slots, request, obs),
                    Criterion::EarliestFinish => {
                        MinFinish::new().select_observed(platform, slots, request, obs)
                    }
                    Criterion::MinTotalCost => {
                        MinCost.select_observed(platform, slots, request, obs)
                    }
                    Criterion::MinRuntime => {
                        MinRunTime::new().select_observed(platform, slots, request, obs)
                    }
                    // Deterministic per-request seed keeps the batch cycle
                    // reproducible.
                    Criterion::MinProcTime => {
                        MinProcTime::with_seed(request.volume().work() ^ 0x5EED)
                            .select_observed(platform, slots, request, obs)
                    }
                };
                window.into_iter().collect()
            }
        }
    }
}

impl Default for SearchStrategy {
    fn default() -> Self {
        SearchStrategy::default_csa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slotsel_core::criteria::{best_by, WindowCriterion};
    use slotsel_core::money::Money;
    use slotsel_core::node::{NodeSpec, Performance, Volume};
    use slotsel_core::time::{Interval, TimePoint};

    fn fixture() -> (Platform, SlotList, ResourceRequest) {
        let platform: Platform = [(2u32, 1.8), (5, 5.2), (9, 9.4), (3, 2.7), (7, 6.9)]
            .iter()
            .enumerate()
            .map(|(i, &(perf, price))| {
                NodeSpec::builder(i as u32)
                    .performance(Performance::new(perf))
                    .price_per_unit(Money::from_f64(price))
                    .build()
            })
            .collect();
        let mut slots = SlotList::new();
        for node in &platform {
            slots.add(
                node.id(),
                Interval::new(TimePoint::new(0), TimePoint::new(600)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        let request = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(200))
            .budget(Money::from_units(100_000))
            .build()
            .unwrap();
        (platform, slots, request)
    }

    #[test]
    fn csa_strategy_returns_many_directed_returns_one() {
        let (platform, slots, request) = fixture();
        let broad = SearchStrategy::default_csa().find_alternatives(&platform, &slots, &request);
        assert!(broad.len() > 1);
        for criterion in Criterion::ALL {
            let directed =
                SearchStrategy::Directed(criterion).find_alternatives(&platform, &slots, &request);
            assert_eq!(directed.len(), 1, "{criterion}");
        }
    }

    #[test]
    fn directed_beats_csa_extreme_on_its_criterion() {
        let (platform, slots, request) = fixture();
        let broad = SearchStrategy::default_csa().find_alternatives(&platform, &slots, &request);
        for criterion in [
            Criterion::MinTotalCost,
            Criterion::EarliestFinish,
            Criterion::MinRuntime,
        ] {
            let directed =
                SearchStrategy::Directed(criterion).find_alternatives(&platform, &slots, &request);
            let best_broad = best_by(&criterion, &broad).expect("broad set non-empty");
            assert!(
                criterion.score(&directed[0]) <= criterion.score(best_broad),
                "{criterion}: directed {} vs CSA extreme {}",
                criterion.score(&directed[0]),
                criterion.score(best_broad)
            );
        }
    }

    #[test]
    fn infeasible_requests_yield_empty_sets() {
        let (platform, slots, _) = fixture();
        let request = ResourceRequest::builder()
            .node_count(50)
            .volume(Volume::new(200))
            .budget(Money::from_units(1))
            .build()
            .unwrap();
        assert!(SearchStrategy::default_csa()
            .find_alternatives(&platform, &slots, &request)
            .is_empty());
        assert!(SearchStrategy::Directed(Criterion::MinTotalCost)
            .find_alternatives(&platform, &slots, &request)
            .is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        for strategy in [
            SearchStrategy::default_csa(),
            SearchStrategy::Directed(Criterion::MinRuntime),
        ] {
            let json = serde_json::to_string(&strategy).unwrap();
            let back: SearchStrategy = serde_json::from_str(&json).unwrap();
            assert_eq!(strategy, back);
        }
    }
}
