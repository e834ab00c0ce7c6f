//! ALP — the Algorithm based on Local Price of slots.
//!
//! AMP's predecessor from the authors' earlier works (the paper's
//! refs [15–17]): instead of constraining the *total* window cost, ALP
//! admits a slot only if its **local** price per time unit does not exceed
//! the user's maximal price `F`, and takes the first window of `n` such
//! slots. The paper states AMP "proved the advantage over ALP" within the
//! batch scheduling scheme; this implementation exists to reproduce that
//! comparison.
//!
//! The per-unit cap is taken from the request: an explicit
//! [`NodeRequirements::max_price_per_unit`] if set, otherwise derived as
//! `F = S / (t · n)` when the request carries a reference span, otherwise
//! the algorithm falls back to the budget-only behaviour (making it AMP's
//! first-fit cousin).
//!
//! [`NodeRequirements::max_price_per_unit`]: slotsel_core::NodeRequirements::max_price_per_unit

use slotsel_core::aep::{scan_observed, ScanOptions, SelectionPolicy};
use slotsel_core::money::Money;
use slotsel_core::node::Platform;
use slotsel_core::request::ResourceRequest;
use slotsel_core::selectors::Candidate;
use slotsel_core::slotlist::SlotList;
use slotsel_core::time::TimePoint;
use slotsel_core::window::Window;
use slotsel_core::{Obs, SlotSelector};

/// ALP: first window of `n` slots each locally priced within `F`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Alp;

impl Alp {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        Alp
    }

    /// The per-unit price cap ALP enforces for `request`.
    #[must_use]
    pub fn price_cap(request: &ResourceRequest) -> Option<Money> {
        request.requirements().price_cap().or_else(|| {
            request.reference_span().map(|span| {
                let denominator = span.ticks().max(1) * request.node_count() as i64;
                Money::from_millis(request.budget().millis() / denominator)
            })
        })
    }
}

struct AlpPolicy {
    cap: Option<Money>,
}

impl SelectionPolicy for AlpPolicy {
    fn name(&self) -> &str {
        "ALP"
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        let n = request.node_count();
        picked.extend(
            alive
                .iter()
                .enumerate()
                .filter(|(_, c)| self.cap.is_none_or(|cap| c.slot.price_per_unit() <= cap))
                .map(|(i, _)| i)
                .take(n),
        );
        picked.len() == n
    }

    fn score(&self, window: &Window) -> f64 {
        window.start().ticks() as f64
    }

    fn stop_at_first(&self) -> bool {
        true
    }
}

impl SlotSelector for Alp {
    fn name(&self) -> &str {
        "ALP"
    }

    fn select_observed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        obs: &mut Obs<'_>,
    ) -> Option<Window> {
        let mut policy = AlpPolicy {
            cap: Alp::price_cap(request),
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
    use slotsel_core::{Amp, Interval, NodeRequirements, NodeSpec, Performance, TimeDelta, Volume};

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

    #[test]
    fn filters_by_local_price() {
        let p = platform(&[(2, 9.0), (2, 1.5), (2, 1.8), (2, 8.5)]);
        let slots = idle(&p, 600);
        let req = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(10_000))
            .requirements(NodeRequirements::any().max_price_per_unit(Money::from_units(2)))
            .build()
            .unwrap();
        let w = Alp.select(&p, &slots, &req).unwrap();
        for ws in w.slots() {
            assert!(p.node(ws.node()).price_per_unit() <= Money::from_units(2));
        }
    }

    #[test]
    fn cap_derived_from_budget_formula() {
        // S = 1500, t = 150, n = 5  =>  F = 2.
        let req = ResourceRequest::builder()
            .node_count(5)
            .volume(Volume::new(300))
            .budget(Money::from_units(1500))
            .reference_span(TimeDelta::new(150))
            .build()
            .unwrap();
        assert_eq!(Alp::price_cap(&req), Some(Money::from_units(2)));
    }

    #[test]
    fn no_cap_without_span_or_requirement() {
        let req = ResourceRequest::builder()
            .node_count(5)
            .volume(Volume::new(300))
            .budget(Money::from_units(1500))
            .build()
            .unwrap();
        assert_eq!(Alp::price_cap(&req), None);
    }

    #[test]
    fn local_cap_can_reject_windows_amp_accepts() {
        // Total budget is generous, but every node's local price exceeds F:
        // ALP fails where AMP succeeds — the inflexibility that made AMP win.
        let p = platform(&[(2, 3.0), (2, 3.0)]);
        let slots = idle(&p, 600);
        let req = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(10_000))
            .requirements(NodeRequirements::any().max_price_per_unit(Money::from_f64(2.5)))
            .build()
            .unwrap();
        assert!(Alp.select(&p, &slots, &req).is_none());
        // With the price requirement dropped, AMP accepts immediately.
        let relaxed = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(10_000))
            .build()
            .unwrap();
        assert!(Amp.select(&p, &slots, &relaxed).is_some());
    }

    #[test]
    fn amp_never_starts_later_than_alp() {
        // ALP's feasible windows are a subset of AMP's (each locally capped
        // slot set also fits the total budget F*t*n when prices are capped
        // at F and lengths at t).
        let p = platform(&[(3, 1.9), (5, 2.0), (2, 1.5), (8, 1.2), (4, 6.0)]);
        let slots = idle(&p, 600);
        let req = ResourceRequest::builder()
            .node_count(3)
            .volume(Volume::new(300))
            .budget(Money::from_units(900))
            .reference_span(TimeDelta::new(150))
            .requirements(NodeRequirements::any().max_price_per_unit(Money::from_units(2)))
            .build()
            .unwrap();
        if let (Some(alp), Some(amp)) = (Alp.select(&p, &slots, &req), Amp.select(&p, &slots, &req))
        {
            assert!(amp.start() <= alp.start());
        }
    }

    #[test]
    fn name() {
        assert_eq!(Alp::new().name(), "ALP");
    }
}
