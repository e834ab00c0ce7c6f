//! First-fit slot co-allocation (the backtrack / NorduGrid family).
//!
//! The paper contrasts AEP with algorithms that "assign a job to the first
//! set of slots matching the resource request conditions" without any
//! optimisation. This baseline does exactly that: it scans the ordered slot
//! list, keeps the alive slots, and at each step takes the `n`
//! longest-waiting alive slots in their arrival order — no cost sorting, no
//! substitution. A step is suitable only if that arbitrary subset fits the
//! budget; a cheaper subset that would fit is *not* considered (that is
//! AMP's refinement).

use slotsel_core::aep::{scan_observed, ScanOptions, SelectionPolicy};
use slotsel_core::node::Platform;
use slotsel_core::request::ResourceRequest;
use slotsel_core::selectors::{total_cost, Candidate};
use slotsel_core::slotlist::SlotList;
use slotsel_core::time::TimePoint;
use slotsel_core::window::Window;
use slotsel_core::{Obs, SlotSelector};

/// First-fit co-allocation: the first `n` matching slots, in arrival order.
///
/// # Examples
///
/// ```
/// use slotsel_baselines::FirstFit;
/// use slotsel_core::SlotSelector;
/// # use slotsel_core::{Money, NodeSpec, Performance, Platform, ResourceRequest, SlotList, Volume};
/// # use slotsel_core::{Interval, TimePoint};
/// # fn main() -> Result<(), slotsel_core::RequestError> {
/// # let platform: Platform = (0..2)
/// #     .map(|i| NodeSpec::builder(i).performance(Performance::new(4)).build())
/// #     .collect();
/// # let mut slots = SlotList::new();
/// # for node in &platform {
/// #     slots.add(node.id(), Interval::new(TimePoint::new(0), TimePoint::new(600)),
/// #               node.performance(), node.price_per_unit());
/// # }
/// # let request = ResourceRequest::builder().node_count(2)
/// #     .volume(Volume::new(100)).budget(Money::from_units(1000)).build()?;
/// let window = FirstFit.select(&platform, &slots, &request);
/// assert!(window.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl FirstFit {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        FirstFit
    }
}

struct FirstFitPolicy;

impl SelectionPolicy for FirstFitPolicy {
    fn name(&self) -> &str {
        "FirstFit"
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        let n = request.node_count();
        if alive.len() < n {
            return false;
        }
        // Arrival order: the first n candidates that entered the extended
        // window and are still alive.
        picked.extend(0..n);
        total_cost(alive, picked) <= request.budget()
    }

    fn score(&self, window: &Window) -> f64 {
        window.start().ticks() as f64
    }

    fn stop_at_first(&self) -> bool {
        true
    }
}

impl SlotSelector for FirstFit {
    fn name(&self) -> &str {
        "FirstFit"
    }

    fn select_observed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        obs: &mut Obs<'_>,
    ) -> Option<Window> {
        scan_observed(
            platform,
            slots,
            request,
            &mut FirstFitPolicy,
            ScanOptions::default(),
            obs,
        )
        .best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slotsel_core::{Amp, Interval, Money, NodeSpec, Performance, Volume};

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

    fn slots_on(platform: &Platform, spans: &[(i64, i64)]) -> SlotList {
        let mut list = SlotList::new();
        for (node, &(start, end)) in platform.iter().zip(spans) {
            list.add(
                node.id(),
                Interval::new(TimePoint::new(start), TimePoint::new(end)),
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
    fn takes_first_matching_set() {
        let p = platform(&[(2, 1.0), (2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600), (0, 600)]);
        let w = FirstFit
            .select(&p, &slots, &request(2, 100, 1_000.0))
            .unwrap();
        assert_eq!(w.start(), TimePoint::ZERO);
        assert_eq!(w.size(), 2);
    }

    #[test]
    fn expensive_early_arrival_blocks_first_fit_but_not_amp() {
        // AMP swaps in the cheap affordable subset; first-fit is stuck with
        // the arrival-order subset, whose expensive first member never
        // leaves the extended window here.
        let p = platform(&[(2, 20.0), (2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (10, 600), (50, 600)]);
        let req = request(2, 100, 150.0);
        let amp = Amp.select(&p, &slots, &req).unwrap();
        assert_eq!(amp.start().ticks(), 50, "AMP picks the two cheap nodes");
        assert!(
            FirstFit.select(&p, &slots, &req).is_none(),
            "arrival-order pair [n0, n1] is never affordable"
        );
    }

    #[test]
    fn dying_expensive_slot_unblocks_first_fit_later_than_amp() {
        let p = platform(&[(2, 20.0), (2, 1.0), (2, 1.0)]);
        // The expensive slot expires: after t=10 it cannot host the task
        // (needs 50 of the 60-long slot), so arrival order shifts.
        let slots = slots_on(&p, &[(0, 60), (10, 600), (50, 600)]);
        let req = request(2, 100, 150.0);
        let ff = FirstFit.select(&p, &slots, &req).unwrap();
        let amp = Amp.select(&p, &slots, &req).unwrap();
        assert_eq!(ff.start().ticks(), 50);
        assert!(amp.start() <= ff.start());
        assert!(ff.total_cost() <= req.budget());
    }

    #[test]
    fn none_when_first_set_never_affordable() {
        let p = platform(&[(2, 20.0), (2, 20.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600)]);
        assert!(FirstFit
            .select(&p, &slots, &request(2, 100, 100.0))
            .is_none());
    }

    #[test]
    fn matches_amp_without_budget_pressure() {
        let p = platform(&[(3, 3.0), (7, 7.0), (5, 5.0)]);
        let slots = slots_on(&p, &[(0, 400), (20, 500), (40, 600)]);
        let req = request(2, 210, 1_000_000.0);
        let ff = FirstFit.select(&p, &slots, &req).unwrap();
        let amp = Amp.select(&p, &slots, &req).unwrap();
        assert_eq!(
            ff.start(),
            amp.start(),
            "identical starts when budget never binds"
        );
    }

    #[test]
    fn name() {
        assert_eq!(FirstFit::new().name(), "FirstFit");
    }
}
