//! Generic additive window criteria — the §2.1 selection problem in full.
//!
//! The paper states the per-step choice as a 0-1 program: every alive slot
//! carries a numeric characteristic `zᵢ` "in accordance to `crW`", and the
//! window minimising `Σ zᵢ` under the budget is wanted. Cost and processor
//! time are instances; so is the paper's suggested *energy consumption*
//! criterion, and any user-defined weighted mix. This module provides that
//! generality:
//!
//! - [`SlotScore`] — how a single placement is scored (`zᵢ`),
//! - [`MinAdditive`] — the AEP algorithm minimising the summed score via
//!   the paper's §2.2 substitution pattern at each scan step,
//! - ready-made scores: [`CostScore`], [`ProcTimeScore`],
//!   [`EnergyScore`](crate::energy::EnergyScore) (in [`crate::energy`]) and
//!   [`WeightedScore`] for linear combinations.
//!
//! The inner substitution is a heuristic (the exact problem is a
//! two-constraint selection); `slotsel-baselines`' branch-and-bound solves
//! it exactly and the test suite compares the two.

use slotsel_obs::Obs;

use crate::aep::{scan_observed, ScanOptions, SelectionPolicy};
use crate::node::Platform;
use crate::request::ResourceRequest;
use crate::selectors::{max_additive_greedy, min_additive_greedy, Candidate};
use crate::slotlist::SlotList;
use crate::time::TimePoint;
use crate::window::Window;
use crate::SlotSelector;

/// A per-placement score `zᵢ`: how much one task placement "costs" under a
/// user-defined criterion. Lower is better; scores must be non-negative and
/// finite.
pub trait SlotScore {
    /// Short criterion name for reports.
    fn name(&self) -> &str;

    /// Scores placing the job's task on `candidate`'s slot.
    fn z(&self, platform: &Platform, candidate: &Candidate) -> f64;
}

/// `zᵢ` = allocation cost — [`MinAdditive`] over this score reduces to
/// [`MinCost`](crate::algorithms::MinCost)'s objective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostScore;

impl SlotScore for CostScore {
    fn name(&self) -> &str {
        "cost"
    }

    fn z(&self, _platform: &Platform, candidate: &Candidate) -> f64 {
        candidate.cost.as_f64()
    }
}

/// `zᵢ` = task time on the node — [`MinAdditive`] over this score is a
/// deterministic alternative to the simplified random-window
/// [`MinProcTime`](crate::algorithms::MinProcTime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcTimeScore;

impl SlotScore for ProcTimeScore {
    fn name(&self) -> &str {
        "proctime"
    }

    fn z(&self, _platform: &Platform, candidate: &Candidate) -> f64 {
        candidate.length.ticks() as f64
    }
}

/// A non-negative linear combination of scores: `z = Σ wⱼ · zⱼ`.
///
/// # Examples
///
/// ```
/// use slotsel_core::additive::{CostScore, ProcTimeScore, WeightedScore};
///
/// // "1 credit is worth 2 node-seconds."
/// let score = WeightedScore::new()
///     .plus(1.0, CostScore)
///     .plus(2.0, ProcTimeScore);
/// assert_eq!(score.terms(), 2);
/// ```
#[derive(Default)]
pub struct WeightedScore {
    terms: Vec<(f64, Box<dyn SlotScore + Send + Sync>)>,
}

impl WeightedScore {
    /// Creates an empty combination (scores zero everywhere).
    #[must_use]
    pub fn new() -> Self {
        WeightedScore::default()
    }

    /// Adds a weighted term.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite — the substitution
    /// heuristic's invariants need non-negative scores.
    #[must_use]
    pub fn plus<S: SlotScore + Send + Sync + 'static>(mut self, weight: f64, score: S) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative, got {weight}"
        );
        self.terms.push((weight, Box::new(score)));
        self
    }

    /// Number of terms.
    #[must_use]
    pub fn terms(&self) -> usize {
        self.terms.len()
    }
}

impl std::fmt::Debug for WeightedScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self
            .terms
            .iter()
            .map(|(w, s)| format!("{w}*{}", s.name()))
            .collect();
        write!(f, "WeightedScore({})", names.join(" + "))
    }
}

impl SlotScore for WeightedScore {
    fn name(&self) -> &str {
        "weighted"
    }

    fn z(&self, platform: &Platform, candidate: &Candidate) -> f64 {
        self.terms
            .iter()
            .map(|(w, s)| w * s.z(platform, candidate))
            .sum()
    }
}

/// AEP algorithm minimising a summed per-slot score under the budget.
///
/// At each scan step the subset is built with the paper's §2.2 substitution
/// pattern generalised from "slot length" to the score: start from the `n`
/// cheapest-by-cost candidates, then repeatedly swap in cheaper-by-score
/// candidates while the budget allows. Heuristic, deterministic and
/// `O(W²)` per step.
///
/// # Examples
///
/// ```
/// use slotsel_core::additive::{MinAdditive, ProcTimeScore};
/// use slotsel_core::SlotSelector;
///
/// let mut algorithm = MinAdditive::new(ProcTimeScore);
/// assert_eq!(algorithm.name(), "MinAdditive(proctime)");
/// ```
#[derive(Debug)]
pub struct MinAdditive<S> {
    score: S,
    name: String,
}

impl<S: SlotScore> MinAdditive<S> {
    /// Creates the algorithm over `score`.
    #[must_use]
    pub fn new(score: S) -> Self {
        let name = format!("MinAdditive({})", score.name());
        MinAdditive { score, name }
    }

    /// The configured score.
    #[must_use]
    pub fn score(&self) -> &S {
        &self.score
    }
}

struct AdditivePolicy<'a, S> {
    platform: &'a Platform,
    score: &'a S,
}

impl<S: SlotScore> SelectionPolicy for AdditivePolicy<'_, S> {
    fn name(&self) -> &str {
        "MinAdditive"
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        let z: Vec<f64> = alive
            .iter()
            .map(|c| self.score.z(self.platform, c))
            .collect();
        min_additive_greedy(alive, request.node_count(), request.budget(), &z)
            .map(|ids| *picked = ids)
            .is_some()
    }

    fn score(&self, window: &Window) -> f64 {
        // The window's summed score: recomputed from the platform, since
        // the window only records time/cost. All provided scores derive
        // from (node, length, cost), which the window does keep.
        window
            .slots()
            .iter()
            .map(|ws| {
                let candidate = Candidate {
                    slot: crate::slot::Slot::new(
                        ws.slot(),
                        ws.node(),
                        crate::time::Interval::with_length(TimePoint::ZERO, ws.length()),
                        self.platform.node(ws.node()).performance(),
                        self.platform.node(ws.node()).price_per_unit(),
                    ),
                    length: ws.length(),
                    cost: ws.cost(),
                };
                self.score.z(self.platform, &candidate)
            })
            .sum()
    }
}

impl<S: SlotScore> SlotSelector for MinAdditive<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn select_observed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        obs: &mut Obs<'_>,
    ) -> Option<Window> {
        let mut policy = AdditivePolicy {
            platform,
            score: &self.score,
        };
        scan_observed(
            platform,
            slots,
            request,
            &mut policy,
            ScanOptions::default(),
            obs,
        )
        .best
    }
}

/// AEP algorithm **maximising** a summed per-slot score under the budget —
/// the administrator-side probe for the most expensive / most consuming
/// end of the alternative space.
///
/// # Examples
///
/// ```
/// use slotsel_core::additive::{CostScore, MaxAdditive};
/// use slotsel_core::SlotSelector;
///
/// let mut algorithm = MaxAdditive::new(CostScore);
/// assert_eq!(algorithm.name(), "MaxAdditive(cost)");
/// ```
#[derive(Debug)]
pub struct MaxAdditive<S> {
    score: S,
    name: String,
}

impl<S: SlotScore> MaxAdditive<S> {
    /// Creates the algorithm over `score`.
    #[must_use]
    pub fn new(score: S) -> Self {
        let name = format!("MaxAdditive({})", score.name());
        MaxAdditive { score, name }
    }

    /// The configured score.
    #[must_use]
    pub fn score(&self) -> &S {
        &self.score
    }
}

struct MaxAdditivePolicy<'a, S> {
    platform: &'a Platform,
    score: &'a S,
}

impl<S: SlotScore> SelectionPolicy for MaxAdditivePolicy<'_, S> {
    fn name(&self) -> &str {
        "MaxAdditive"
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        let z: Vec<f64> = alive
            .iter()
            .map(|c| self.score.z(self.platform, c))
            .collect();
        max_additive_greedy(alive, request.node_count(), request.budget(), &z)
            .map(|ids| *picked = ids)
            .is_some()
    }

    fn score(&self, window: &Window) -> f64 {
        // Negated: the scan keeps the *lowest* score, so maximisation
        // feeds it the negative of the window's summed score.
        -AdditivePolicy {
            platform: self.platform,
            score: self.score,
        }
        .score(window)
    }
}

impl<S: SlotScore> SlotSelector for MaxAdditive<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn select_observed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        obs: &mut Obs<'_>,
    ) -> Option<Window> {
        let mut policy = MaxAdditivePolicy {
            platform,
            score: &self.score,
        };
        scan_observed(
            platform,
            slots,
            request,
            &mut policy,
            ScanOptions::default(),
            obs,
        )
        .best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;
    use crate::node::{NodeSpec, Performance, Volume};
    use crate::time::{Interval, TimePoint};

    fn platform(specs: &[(u32, f64)]) -> Platform {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(perf, price))| {
                NodeSpec::builder(i as u32)
                    .performance(Performance::new(perf))
                    .price_per_unit(Money::from_f64(price))
                    .build()
            })
            .collect()
    }

    fn idle(platform: &Platform, end: i64) -> SlotList {
        let mut list = SlotList::new();
        for node in platform {
            list.add(
                node.id(),
                Interval::new(TimePoint::new(0), TimePoint::new(end)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        list
    }

    fn request(n: usize, volume: u64, budget: f64) -> ResourceRequest {
        ResourceRequest::builder()
            .node_count(n)
            .volume(Volume::new(volume))
            .budget(Money::from_f64(budget))
            .build()
            .unwrap()
    }

    #[test]
    fn cost_score_matches_min_cost() {
        let p = platform(&[(2, 2.2), (5, 4.9), (9, 9.1), (3, 3.3), (7, 6.6)]);
        let slots = idle(&p, 600);
        let req = request(3, 210, 10_000.0);
        let additive = MinAdditive::new(CostScore)
            .select(&p, &slots, &req)
            .unwrap();
        let direct = crate::MinCost.select(&p, &slots, &req).unwrap();
        assert_eq!(additive.total_cost(), direct.total_cost());
    }

    #[test]
    fn proc_time_score_beats_random_min_proc_time_on_average() {
        let p = platform(&[(2, 1.0), (3, 1.5), (5, 2.0), (7, 2.5), (9, 3.0), (10, 3.5)]);
        let slots = idle(&p, 600);
        let req = request(3, 300, 10_000.0);
        let additive = MinAdditive::new(ProcTimeScore)
            .select(&p, &slots, &req)
            .unwrap();
        // Exact optimum (no budget pressure): three fastest nodes.
        let expected: i64 = [10u32, 9, 7]
            .iter()
            .map(|&perf| Volume::new(300).time_on(Performance::new(perf)).ticks())
            .sum();
        assert_eq!(additive.proc_time().ticks(), expected);
    }

    #[test]
    fn budget_forces_score_compromise() {
        // Fastest node is unaffordable; the substitution keeps it out.
        let p = platform(&[(10, 100.0), (5, 1.0), (4, 1.0), (2, 1.0)]);
        let slots = idle(&p, 600);
        let req = request(2, 200, 150.0);
        let w = MinAdditive::new(ProcTimeScore)
            .select(&p, &slots, &req)
            .unwrap();
        assert!(w.total_cost() <= req.budget());
        let nodes: Vec<u32> = w.slots().iter().map(|ws| ws.node().0).collect();
        assert!(
            !nodes.contains(&0),
            "perf-10 node costs 100*20=2000, over budget"
        );
    }

    #[test]
    fn weighted_score_combines_terms() {
        let p = platform(&[(2, 1.0)]);
        let candidate = Candidate::new(
            crate::slot::Slot::new(
                crate::slot::SlotId(0),
                crate::node::NodeId(0),
                Interval::new(TimePoint::new(0), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(3),
            ),
            Volume::new(100), // 50 units, cost 150
        );
        let score = WeightedScore::new()
            .plus(1.0, CostScore)
            .plus(2.0, ProcTimeScore);
        assert_eq!(score.z(&p, &candidate), 150.0 + 2.0 * 50.0);
        assert!(format!("{score:?}").contains("1*cost"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_score_rejects_negative_weight() {
        let _ = WeightedScore::new().plus(-1.0, CostScore);
    }

    #[test]
    fn infeasible_returns_none() {
        let p = platform(&[(2, 10.0), (2, 10.0)]);
        let slots = idle(&p, 600);
        assert!(MinAdditive::new(CostScore)
            .select(&p, &slots, &request(2, 100, 100.0))
            .is_none());
    }

    #[test]
    fn max_additive_finds_the_expensive_end() {
        let p = platform(&[(2, 1.0), (5, 5.0), (9, 9.0), (3, 3.0), (7, 7.0)]);
        let slots = idle(&p, 600);
        let req = request(2, 200, 100_000.0);
        let max = MaxAdditive::new(CostScore)
            .select(&p, &slots, &req)
            .unwrap();
        let min = MinAdditive::new(CostScore)
            .select(&p, &slots, &req)
            .unwrap();
        assert!(max.total_cost() > min.total_cost());
        // The admin's extreme bracket contains every single-criterion pick.
        let amp = crate::Amp.select(&p, &slots, &req).unwrap();
        assert!(min.total_cost() <= amp.total_cost());
        assert!(amp.total_cost() <= max.total_cost());
    }

    #[test]
    fn max_additive_respects_budget() {
        let p = platform(&[(2, 1.0), (5, 5.0), (9, 9.0), (3, 3.0), (7, 7.0)]);
        let slots = idle(&p, 600);
        let req = request(2, 200, 500.0);
        let max = MaxAdditive::new(CostScore)
            .select(&p, &slots, &req)
            .unwrap();
        assert!(max.total_cost() <= req.budget());
    }

    #[test]
    fn name_includes_score() {
        assert_eq!(
            MinAdditive::new(ProcTimeScore).name(),
            "MinAdditive(proctime)"
        );
    }
}
