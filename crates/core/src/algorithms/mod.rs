//! The concrete AEP slot-selection algorithms studied in the paper.
//!
//! Every algorithm consumes the same inputs — the [`Platform`], the ordered
//! [`SlotList`] and a [`ResourceRequest`] — and returns at most one
//! [`Window`], extreme by its criterion:
//!
//! | Type | Criterion | Paper §3.1 name |
//! |------|-----------|-----------------|
//! | [`Amp`] | earliest start time | *AMP* |
//! | [`MinFinish`] | earliest finish time | *MinFinish* |
//! | [`MinCost`] | minimum total allocation cost | *MinCost* |
//! | [`MinRunTime`] | minimum runtime (longest slot) | *MinRunTime* |
//! | [`MinProcTime`] | minimum total processor time (simplified, random window) | *MinProcTime* |
//!
//! The multi-alternative *CSA* scheme lives in [`crate::csa`].
//!
//! # Examples
//!
//! ```
//! use slotsel_core::algorithms::{Amp, MinCost, SlotSelector};
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeSpec, Performance, Platform, Volume};
//! use slotsel_core::request::ResourceRequest;
//! use slotsel_core::slotlist::SlotList;
//! use slotsel_core::time::{Interval, TimePoint};
//!
//! # fn main() -> Result<(), slotsel_core::error::RequestError> {
//! let platform: Platform = (0..5)
//!     .map(|i| NodeSpec::builder(i).performance(Performance::new(2 + i)).build())
//!     .collect();
//! let mut slots = SlotList::new();
//! for node in &platform {
//!     slots.add(node.id(), Interval::new(TimePoint::new(0), TimePoint::new(600)),
//!               node.performance(), node.price_per_unit());
//! }
//! let request = ResourceRequest::builder()
//!     .node_count(3)
//!     .volume(Volume::new(120))
//!     .budget(Money::from_units(100_000))
//!     .build()?;
//! let earliest = Amp.select(&platform, &slots, &request).unwrap();
//! let cheapest = MinCost.select(&platform, &slots, &request).unwrap();
//! assert!(cheapest.total_cost() <= earliest.total_cost());
//! # Ok(())
//! # }
//! ```

mod amp;
mod min_cost;
mod min_finish;
mod min_proc_time;
mod min_runtime;

pub use amp::Amp;
pub use min_cost::MinCost;
pub use min_finish::MinFinish;
pub use min_proc_time::MinProcTime;
pub use min_runtime::MinRunTime;

use slotsel_obs::Obs;

use crate::node::Platform;
use crate::pool::CandidatePool;
use crate::request::ResourceRequest;
use crate::selectors::{min_runtime_exact, min_runtime_greedy, Candidate};
use crate::slotlist::SlotList;
use crate::window::Window;

/// A slot-selection algorithm: finds one window for one job.
///
/// The receiver is `&mut self` because some algorithms carry state across
/// calls (e.g. [`MinProcTime`]'s random number generator).
pub trait SlotSelector {
    /// Algorithm name, as used in the paper's tables.
    fn name(&self) -> &str;

    /// Selects a window for `request` from `slots` on `platform`, or `None`
    /// when no suitable window exists.
    ///
    /// Equivalent to [`select_observed`](SlotSelector::select_observed)
    /// with [`Obs::dark`].
    fn select(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Option<Window> {
        self.select_observed(platform, slots, request, &mut Obs::dark())
    }

    /// Like [`select`](SlotSelector::select), reporting to `obs` along the
    /// way. The scan-based algorithms drive
    /// [`crate::aep::scan_observed`], so each selection is one
    /// `"aep.scan"` span and one set of scan counters; algorithms that do
    /// not scan may ignore `obs`. The context is a concrete type, which
    /// keeps the trait object-safe for [`crate::csa::Csa`]'s
    /// `&mut dyn SlotSelector` bases.
    fn select_observed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        obs: &mut Obs<'_>,
    ) -> Option<Window>;
}

/// How the minimum-runtime subset is computed at each scan step.
///
/// The paper's MinRunTime/MinFinish use the greedy substitution procedure;
/// the exact threshold scan is provided for validation and ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeSelection {
    /// The paper's §2.2 cost-ordered greedy substitution.
    #[default]
    Greedy,
    /// The exact length-threshold scan
    /// ([`min_runtime_exact`]).
    Exact,
}

impl RuntimeSelection {
    /// The slice-side minimum-runtime pick, written to `picked`.
    fn pick(self, alive: &[Candidate], request: &ResourceRequest, picked: &mut Vec<usize>) -> bool {
        let (n, budget) = (request.node_count(), request.budget());
        let found = match self {
            RuntimeSelection::Greedy => min_runtime_greedy(alive, n, budget),
            RuntimeSelection::Exact => min_runtime_exact(alive, n, budget),
        };
        // The selector allocates its own vector: move it in, don't copy.
        found.map(|ids| *picked = ids).is_some()
    }

    /// The same pick answered from the pool's maintained orders.
    fn pick_pool(
        self,
        pool: &CandidatePool,
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        let (n, budget) = (request.node_count(), request.budget());
        match self {
            RuntimeSelection::Greedy => pool.min_runtime_greedy(n, budget, picked),
            RuntimeSelection::Exact => pool.min_runtime_exact(n, budget, picked),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for algorithm tests.

    use crate::money::Money;
    use crate::node::{NodeSpec, Performance, Platform, Volume};
    use crate::request::ResourceRequest;
    use crate::slotlist::SlotList;
    use crate::time::{Interval, TimePoint};

    /// A platform of nodes with the given `(performance, price)` pairs.
    pub fn platform(specs: &[(u32, f64)]) -> Platform {
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

    /// One slot per node with the given `(start, end)` spans.
    pub fn slots_on(platform: &Platform, spans: &[(i64, i64)]) -> SlotList {
        assert_eq!(platform.len(), spans.len());
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

    /// One slot per node covering `[0, end)`.
    pub fn idle(platform: &Platform, end: i64) -> SlotList {
        slots_on(platform, &vec![(0, end); platform.len()])
    }

    /// A request with the given size, volume and budget.
    pub fn request(n: usize, volume: u64, budget: f64) -> ResourceRequest {
        ResourceRequest::builder()
            .node_count(n)
            .volume(Volume::new(volume))
            .budget(Money::from_f64(budget))
            .build()
            .unwrap()
    }
}
