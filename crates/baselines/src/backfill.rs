//! Backfilling-style co-allocation (the Moab family).
//!
//! The paper describes schedulers like Moab that find the earliest window by
//! backfilling over the node timelines, but "during a slot window search
//! \[do\] not take into account any additive constraints such as … the
//! maximum allowed total allocation cost", and whose "execution time grows
//! substantially with the increase of the slot numbers" — quadratic in the
//! slot count once every CPU node has at least one local job.
//!
//! This baseline reproduces those semantics: for every candidate anchor
//! time (each slot start, in order) it re-scans the **whole** slot list to
//! collect the nodes that could host the task there — an O(m²) search with
//! no budget check. The returned window is the earliest-start co-allocation
//! regardless of cost.

use slotsel_core::node::Platform;
use slotsel_core::request::ResourceRequest;
use slotsel_core::slotlist::SlotList;
use slotsel_core::window::{Window, WindowSlot};
use slotsel_core::{Obs, SlotSelector};

/// Backfilling-style earliest-window co-allocation, ignoring cost limits.
///
/// # Examples
///
/// ```
/// use slotsel_baselines::Backfill;
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
/// #     .volume(Volume::new(100)).budget(Money::from_units(1)).build()?;
/// // Budget is 1 — far below any window cost — yet backfilling ignores it.
/// let window = Backfill.select(&platform, &slots, &request).unwrap();
/// assert_eq!(window.start(), TimePoint::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Backfill;

impl Backfill {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        Backfill
    }
}

impl SlotSelector for Backfill {
    fn name(&self) -> &str {
        "Backfill"
    }

    fn select_observed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        _obs: &mut Obs<'_>,
    ) -> Option<Window> {
        let n = request.node_count();
        // Candidate anchors: every slot start, in non-decreasing order.
        for anchor_slot in slots {
            let anchor = anchor_slot.start();
            if let Some(deadline) = request.deadline() {
                if anchor >= deadline {
                    break;
                }
            }
            // Full re-scan: which nodes can host the task at `anchor`?
            let mut placements: Vec<WindowSlot> = Vec::new();
            for slot in slots {
                if placements.len() == n {
                    break;
                }
                let admitted = platform
                    .get(slot.node())
                    .is_some_and(|node| request.requirements().admits(node));
                if !admitted || !slot.fits(anchor, request.volume()) {
                    continue;
                }
                let length = slot.time_for(request.volume());
                if request.deadline().is_some_and(|d| anchor + length > d) {
                    continue;
                }
                if placements.iter().any(|p| p.node() == slot.node()) {
                    continue;
                }
                placements.push(WindowSlot::new(
                    slot.id(),
                    slot.node(),
                    length,
                    slot.cost_for(request.volume()),
                ));
            }
            if placements.len() == n {
                return Some(Window::new(anchor, placements));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slotsel_core::{Amp, Interval, Money, NodeSpec, Performance, TimePoint, Volume};

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
    fn finds_earliest_window() {
        let p = platform(&[(2, 1.0), (2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(100, 600), (0, 600), (30, 600)]);
        let w = Backfill
            .select(&p, &slots, &request(2, 100, 1_000.0))
            .unwrap();
        assert_eq!(w.start().ticks(), 30, "nodes 1 and 2 both free from t=30");
    }

    #[test]
    fn ignores_budget_entirely() {
        let p = platform(&[(2, 100.0), (2, 100.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600)]);
        // Any window costs 10 000; budget 1.
        let w = Backfill.select(&p, &slots, &request(2, 100, 1.0)).unwrap();
        assert_eq!(w.start(), TimePoint::ZERO);
        assert!(w.total_cost() > Money::from_units(1));
    }

    #[test]
    fn never_later_than_amp() {
        // Without the budget constraint backfilling's start is a lower
        // bound on AMP's.
        let p = platform(&[(2, 9.0), (4, 2.0), (6, 8.0), (8, 3.0)]);
        let slots = slots_on(&p, &[(0, 300), (40, 600), (90, 600), (10, 200)]);
        let req = request(2, 200, 700.0);
        let bf = Backfill.select(&p, &slots, &req).unwrap();
        if let Some(amp) = Amp.select(&p, &slots, &req) {
            assert!(bf.start() <= amp.start());
        }
    }

    #[test]
    fn respects_hardware_requirements() {
        let p = platform(&[(2, 1.0), (9, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (100, 600)]);
        let req = ResourceRequest::builder()
            .node_count(1)
            .volume(Volume::new(100))
            .budget(Money::from_units(1_000))
            .requirements(
                slotsel_core::NodeRequirements::any().min_performance(Performance::new(5)),
            )
            .build()
            .unwrap();
        let w = Backfill.select(&p, &slots, &req).unwrap();
        assert_eq!(w.start().ticks(), 100, "only the fast node qualifies");
    }

    #[test]
    fn respects_deadline() {
        let p = platform(&[(2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (200, 600)]);
        let req = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(1_000))
            .deadline(TimePoint::new(100))
            .build()
            .unwrap();
        assert!(Backfill.select(&p, &slots, &req).is_none());
    }

    #[test]
    fn none_when_not_enough_nodes() {
        let p = platform(&[(2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600)]);
        assert!(Backfill
            .select(&p, &slots, &request(2, 100, 1_000.0))
            .is_none());
    }

    #[test]
    fn skips_duplicate_nodes() {
        let p = platform(&[(2, 1.0), (2, 1.0)]);
        let mut slots = slots_on(&p, &[(0, 600), (0, 600)]);
        // A second (malformed, overlapping) slot on node 0.
        slots.add(
            slotsel_core::NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(500)),
            Performance::new(2),
            Money::from_units(1),
        );
        let w = Backfill
            .select(&p, &slots, &request(2, 100, 1_000.0))
            .unwrap();
        let mut nodes: Vec<_> = w.slots().iter().map(WindowSlot::node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 2);
    }
}
