//! CSA — Common Stats AMP: the multi-alternative search scheme.
//!
//! Where each AEP algorithm returns a single criterion-extreme window, CSA
//! allocates a whole *set* of suitable alternatives, disjoint by slots, by
//! running [`crate::algorithms::Amp`] repeatedly: after each found
//! window its reserved spans are cut out of the slot list and the search
//! restarts, until no further window fits. Optimisation then happens at the
//! *selection* phase — picking the alternative extreme by any criterion
//! from the allocated set.
//!
//! CSA is the paper's reference point: it finds on average 57 alternatives
//! for the base job on a 100-node environment, at a working time orders of
//! magnitude above the single-window AEP algorithms (Tables 1–2).
//!
//! # Examples
//!
//! ```
//! use slotsel_core::criteria::Criterion;
//! use slotsel_core::csa::Csa;
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeSpec, Performance, Platform, Volume};
//! use slotsel_core::request::ResourceRequest;
//! use slotsel_core::slotlist::SlotList;
//! use slotsel_core::time::{Interval, TimePoint};
//!
//! # fn main() -> Result<(), slotsel_core::error::RequestError> {
//! let platform: Platform = (0..4)
//!     .map(|i| NodeSpec::builder(i).performance(Performance::new(4)).build())
//!     .collect();
//! let mut slots = SlotList::new();
//! for node in &platform {
//!     slots.add(node.id(), Interval::new(TimePoint::new(0), TimePoint::new(600)),
//!               node.performance(), node.price_per_unit());
//! }
//! let request = ResourceRequest::builder()
//!     .node_count(2)
//!     .volume(Volume::new(200))
//!     .budget(Money::from_units(100_000))
//!     .build()?;
//! let alternatives = Csa::new().find_alternatives(&platform, &slots, &request);
//! assert!(alternatives.len() > 1, "several disjoint windows fit an idle platform");
//! let best = slotsel_core::criteria::best_by(&Criterion::MinTotalCost, &alternatives);
//! assert!(best.is_some());
//! # Ok(())
//! # }
//! ```

use slotsel_obs::Obs;

use crate::algorithms::{Amp, SlotSelector};
use crate::node::Platform;
use crate::request::ResourceRequest;
use crate::slot::SlotId;
use crate::slotlist::{SlotList, SlotStoreKind};
use crate::time::{Interval, TimeDelta};
use crate::window::Window;

/// What part of each selected slot a found alternative reserves (and hence
/// what the cut removes from the working list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutPolicy {
    /// Reserve the whole window rectangle: every slot is held for
    /// `[start, start + runtime)`, clamped to the slot's end. This is the
    /// synchronous co-allocation semantics — the window is released as a
    /// unit when its slowest task completes — and reproduces the paper's
    /// alternative counts (~57 at 100 nodes).
    #[default]
    WindowRuntime,
    /// Reserve each slot only for its own task's length
    /// `[start, start + volume/performance)`; faster nodes are released
    /// early. Yields more, tighter-packed alternatives.
    TaskLength,
    /// Reserve every slot for the full user-quoted reservation span
    /// `[start, start + t)` (clamped to the slot's end), matching the
    /// paper's "`n` concurrent time-slots … should be reserved for a time
    /// span `t`". Falls back to [`CutPolicy::WindowRuntime`] when the
    /// request carries no reference span.
    ReservationSpan,
}

/// The Common Stats AMP multi-alternative search.
///
/// Construct with [`Csa::new`] and adjust the knobs with the builder-style
/// setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Csa {
    max_alternatives: Option<usize>,
    cut_policy: CutPolicy,
}

impl Csa {
    /// Creates the scheme with no alternative-count limit and the
    /// rectangular [`CutPolicy::WindowRuntime`].
    #[must_use]
    pub fn new() -> Self {
        Csa {
            max_alternatives: None,
            cut_policy: CutPolicy::default(),
        }
    }

    /// Sets what each found alternative reserves on its slots.
    #[must_use]
    pub fn cut_policy(mut self, policy: CutPolicy) -> Self {
        self.cut_policy = policy;
        self
    }

    /// Caps the number of alternatives to find.
    #[must_use]
    pub fn max_alternatives(mut self, max: usize) -> Self {
        self.max_alternatives = Some(max);
        self
    }

    /// Finds all alternatives for `request`, in discovery order (which is
    /// also non-decreasing start-time order, since each run of AMP returns
    /// the earliest remaining window).
    ///
    /// The returned windows are pairwise disjoint by slots: each found
    /// window's reservations are cut out of the working copy of the list
    /// before the next AMP run.
    #[must_use]
    pub fn find_alternatives(
        &self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Vec<Window> {
        self.find_alternatives_with(platform, slots, request, &mut Amp)
    }

    /// Generalised multi-alternative search: like
    /// [`find_alternatives`](Self::find_alternatives) but carving windows
    /// with an arbitrary base algorithm instead of AMP — e.g. repeated
    /// `MinCost` yields a set of *cheapest* disjoint alternatives, repeated
    /// `MinRunTime` a set of *fastest* ones. An extension of the paper's
    /// CSA ("Common Stats, AMP"), which is recovered with `&mut Amp`.
    ///
    /// Discovery order follows the base algorithm's criterion, not start
    /// time; disjointness by slots is preserved regardless.
    ///
    /// Equivalent to
    /// [`find_alternatives_observed`](Self::find_alternatives_observed)
    /// with [`Obs::dark`].
    #[must_use]
    pub fn find_alternatives_with(
        &self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        base: &mut dyn SlotSelector,
    ) -> Vec<Window> {
        self.find_alternatives_observed(platform, slots, request, base, &mut Obs::dark())
    }

    /// The multi-alternative search, reporting to `obs`: every underlying
    /// selection runs through [`SlotSelector::select_observed`] (one
    /// `"aep.scan"` span and one set of scan counters per run), the
    /// alternatives are counted in `slotsel_csa_alternatives_total`, and
    /// the whole search is one `"csa.search"` span carrying the base
    /// algorithm's name and the alternative count.
    #[must_use]
    pub fn find_alternatives_observed(
        &self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        base: &mut dyn SlotSelector,
        obs: &mut Obs<'_>,
    ) -> Vec<Window> {
        let phase = obs.phase("csa.search");
        let mut working = slots.clone();
        let mut found = Vec::new();
        let limit = self.max_alternatives.unwrap_or(usize::MAX);

        while found.len() < limit {
            let Some(window) = base.select_observed(platform, &working, request, obs) else {
                break;
            };
            self.apply_cut(&mut working, request, &window)
                .expect("window was built from slots of the working list");
            found.push(window);
        }
        if obs.metrics.enabled() {
            obs.metrics
                .counter_add("slotsel_csa_alternatives_total", &[], found.len() as u64);
        }
        obs.spans.attr_str("base", base.name());
        obs.spans.attr_u64("alternatives", found.len() as u64);
        phase.end(obs, None);
        found
    }

    /// Cuts one found window out of `working` according to the configured
    /// [`CutPolicy`], then prunes useless remnants if enabled.
    fn apply_cut(
        &self,
        working: &mut SlotList,
        request: &ResourceRequest,
        window: &Window,
    ) -> Result<(), crate::error::CutError> {
        let clamp = |reservations: Vec<(SlotId, Interval)>, working: &SlotList| {
            reservations
                .into_iter()
                .map(|(id, reserved)| {
                    let slot = working.get(id).expect("window slot is in the working list");
                    (
                        id,
                        Interval::new(reserved.start(), reserved.end().earliest(slot.end())),
                    )
                })
                .collect::<Vec<_>>()
        };
        let reservations: Vec<(SlotId, Interval)> = match self.cut_policy {
            CutPolicy::TaskLength => window.reservations(),
            CutPolicy::WindowRuntime => clamp(window.rectangular_reservations(), working),
            CutPolicy::ReservationSpan => match request.reference_span() {
                Some(span) if span > window.runtime() => clamp(
                    window
                        .slots()
                        .iter()
                        .map(|ws| (ws.slot(), Interval::with_length(window.start(), span)))
                        .collect(),
                    working,
                ),
                _ => clamp(window.rectangular_reservations(), working),
            },
        };
        working.cut(&reservations, TimeDelta::ZERO)?;
        // Remnants too short to host this request's task on their node can
        // never join a later window, so dropping them only shortens the
        // scans that follow. On the tree store the O(m) retain pass would
        // dwarf the O(log m) cut it follows; there the AEP scan itself
        // skips too-short remnants wholesale through the subtree
        // aggregates, so the retain is elided.
        if working.store_kind() != SlotStoreKind::Tree {
            let volume = request.volume();
            working.retain(|slot| slot.length() >= slot.time_for(volume));
        }
        Ok(())
    }
}

impl Default for Csa {
    fn default() -> Self {
        Csa::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{best_by, Criterion};
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
    fn packs_idle_platform_tightly() {
        // 2 nodes of perf 2, interval 600, task 100 work = 50 units:
        // 12 consecutive disjoint windows fit exactly.
        let p = platform(&[(2, 1.0), (2, 1.0)]);
        let slots = idle(&p, 600);
        let alts = Csa::new().find_alternatives(&p, &slots, &request(2, 100, 10_000.0));
        assert_eq!(alts.len(), 12);
        for (i, w) in alts.iter().enumerate() {
            assert_eq!(w.start().ticks(), i as i64 * 50);
        }
    }

    #[test]
    fn alternatives_are_pairwise_slot_disjoint() {
        let p = platform(&[(2, 1.2), (3, 3.1), (5, 4.9), (7, 7.2), (4, 4.4)]);
        let slots = idle(&p, 600);
        let alts = Csa::new().find_alternatives(&p, &slots, &request(3, 150, 10_000.0));
        assert!(alts.len() > 1);
        for i in 0..alts.len() {
            for j in (i + 1)..alts.len() {
                assert!(
                    alts[i].is_slot_disjoint(&alts[j]),
                    "windows {i} and {j} share a slot"
                );
            }
        }
    }

    #[test]
    fn starts_are_non_decreasing() {
        let p = platform(&[(2, 1.0), (4, 2.0), (8, 3.0), (6, 2.5)]);
        let slots = idle(&p, 600);
        let alts = Csa::new().find_alternatives(&p, &slots, &request(2, 200, 10_000.0));
        for pair in alts.windows(2) {
            assert!(pair[0].start() <= pair[1].start());
        }
    }

    #[test]
    fn max_alternatives_caps_search() {
        let p = platform(&[(2, 1.0), (2, 1.0)]);
        let slots = idle(&p, 600);
        let alts = Csa::new().max_alternatives(3).find_alternatives(
            &p,
            &slots,
            &request(2, 100, 10_000.0),
        );
        assert_eq!(alts.len(), 3);
    }

    #[test]
    fn empty_when_no_window_exists() {
        let p = platform(&[(2, 1.0)]);
        let slots = idle(&p, 600);
        assert!(Csa::new()
            .find_alternatives(&p, &slots, &request(2, 100, 10_000.0))
            .is_empty());
    }

    #[test]
    fn tree_backed_search_matches_vec_backed_search() {
        // The tree store elides the Vec store's retain of too-short
        // remnants and scans with the aggregate-pruned cursor; the
        // alternatives must not move.
        use crate::slotlist::SlotStoreKind;
        let p = platform(&[(2, 1.3), (3, 2.9), (5, 5.1), (7, 6.8), (9, 9.2), (4, 4.0)]);
        let vec_slots = idle(&p, 600);
        let mut tree_slots = vec_slots.clone();
        tree_slots.convert(SlotStoreKind::Tree);
        let req = request(3, 180, 100_000.0);
        for csa in [Csa::new(), Csa::new().cut_policy(CutPolicy::TaskLength)] {
            let on_vec = csa.find_alternatives(&p, &vec_slots, &req);
            let on_tree = csa.find_alternatives(&p, &tree_slots, &req);
            assert_eq!(on_vec, on_tree, "{csa:?}");
        }
    }

    #[test]
    fn original_list_is_untouched() {
        let p = platform(&[(2, 1.0), (2, 1.0)]);
        let slots = idle(&p, 600);
        let before = slots.clone();
        let _ = Csa::new().find_alternatives(&p, &slots, &request(2, 100, 10_000.0));
        assert_eq!(slots, before);
    }

    #[test]
    fn selection_phase_finds_extremes() {
        let p = platform(&[(2, 1.0), (10, 9.0), (5, 4.0), (7, 6.0)]);
        let slots = idle(&p, 600);
        let alts = Csa::new().find_alternatives(&p, &slots, &request(2, 300, 100_000.0));
        assert!(alts.len() >= 2);
        let cheapest = best_by(&Criterion::MinTotalCost, &alts).unwrap();
        let fastest = best_by(&Criterion::MinRuntime, &alts).unwrap();
        for w in &alts {
            assert!(cheapest.total_cost() <= w.total_cost());
            assert!(fastest.runtime() <= w.runtime());
        }
    }

    #[test]
    fn task_length_cut_finds_at_least_as_many_alternatives() {
        // Releasing fast nodes early can only free capacity.
        let p = platform(&[(2, 1.0), (10, 5.0), (5, 2.5), (8, 4.0), (3, 1.5)]);
        let slots = idle(&p, 600);
        let req = request(3, 150, 100_000.0);
        let rectangular = Csa::new().find_alternatives(&p, &slots, &req);
        let per_task = Csa::new()
            .cut_policy(CutPolicy::TaskLength)
            .find_alternatives(&p, &slots, &req);
        assert!(
            per_task.len() >= rectangular.len(),
            "{} < {}",
            per_task.len(),
            rectangular.len()
        );
        assert!(rectangular.len() >= 2);
    }

    #[test]
    fn rectangular_cut_clamps_to_slot_end() {
        // The fast node's slot ends exactly when its task does; the window
        // runtime (set by the slow node) extends past it. The cut must clamp
        // instead of erroring.
        let p = platform(&[(10, 1.0), (2, 1.0)]);
        let mut slots = SlotList::new();
        // Volume 300: 30 units on perf 10, 150 on perf 2.
        slots.add(
            p.node(crate::node::NodeId(0)).id(),
            Interval::new(TimePoint::new(0), TimePoint::new(30)),
            Performance::new(10),
            Money::from_units(1),
        );
        slots.add(
            p.node(crate::node::NodeId(1)).id(),
            Interval::new(TimePoint::new(0), TimePoint::new(600)),
            Performance::new(2),
            Money::from_units(1),
        );
        let req = request(2, 300, 100_000.0);
        let alts = Csa::new().find_alternatives(&p, &slots, &req);
        assert_eq!(
            alts.len(),
            1,
            "the fast slot is fully consumed by the single window"
        );
    }

    #[test]
    fn generalised_search_with_min_cost_orders_by_cost() {
        use crate::algorithms::MinCost;
        let p = platform(&[(2, 1.0), (5, 9.0), (7, 3.0), (3, 2.0), (9, 8.0), (4, 4.0)]);
        let slots = idle(&p, 600);
        let req = request(2, 200, 100_000.0);
        let alts =
            Csa::new()
                .max_alternatives(4)
                .find_alternatives_with(&p, &slots, &req, &mut MinCost);
        assert!(alts.len() >= 2);
        for pair in alts.windows(2) {
            assert!(
                pair[0].total_cost() <= pair[1].total_cost(),
                "repeated MinCost must discover in non-decreasing cost order"
            );
        }
        for i in 0..alts.len() {
            for j in (i + 1)..alts.len() {
                assert!(alts[i].is_slot_disjoint(&alts[j]));
            }
        }
    }

    #[test]
    fn generalised_search_with_amp_matches_plain_csa() {
        let p = platform(&[(2, 1.3), (3, 2.9), (5, 5.1), (7, 6.8)]);
        let slots = idle(&p, 600);
        let req = request(2, 180, 100_000.0);
        let plain = Csa::new().find_alternatives(&p, &slots, &req);
        let explicit = Csa::new().find_alternatives_with(&p, &slots, &req, &mut Amp);
        assert_eq!(plain, explicit);
    }

    #[test]
    fn respects_budget_in_every_alternative() {
        let p = platform(&[(2, 2.0), (4, 4.1), (6, 6.2), (8, 7.9)]);
        let slots = idle(&p, 600);
        let req = request(2, 240, 800.0);
        for w in Csa::new().find_alternatives(&p, &slots, &req) {
            assert!(w.total_cost() <= req.budget());
        }
    }
}
