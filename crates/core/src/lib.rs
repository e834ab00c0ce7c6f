//! # slotsel-core
//!
//! Slot selection and co-allocation algorithms for parallel jobs in
//! distributed computing environments with **non-dedicated and
//! heterogeneous** resources — a faithful reimplementation of
//!
//! > V. Toporkov, A. Toporkova, A. Tselishchev, D. Yemelyanov.
//! > *Slot Selection Algorithms in Distributed Computing with Non-dedicated
//! > and Heterogeneous Resources.* PaCT 2013, LNCS 7979, pp. 120–134.
//!
//! ## The problem
//!
//! A parallel job needs `n` time slots starting **synchronously** on `n`
//! distinct CPU nodes. Nodes are non-dedicated (local jobs fragment their
//! free time into slots with arbitrary, non-aligned boundaries) and
//! heterogeneous (different performance rates and prices), so the same task
//! takes a different time and costs a different amount on every node — a
//! co-allocated window has a "rough right edge". The user pays for what the
//! job uses and caps the total with a budget `S`.
//!
//! ## The algorithms
//!
//! All selection algorithms here are instances of the **AEP** scheme
//! ([`aep`]): one linear pass over the slot list in non-decreasing start
//! order, maintaining the set of alive slots, delegating the per-step
//! `n`-subset choice to a [`aep::SelectionPolicy`] and
//! keeping the best window by the target criterion. The provided
//! implementations mirror the paper's §3.1 roster:
//!
//! - [`algorithms::Amp`] — earliest start (first suitable window),
//! - [`algorithms::MinFinish`] — earliest finish,
//! - [`algorithms::MinCost`] — minimum total allocation cost,
//! - [`algorithms::MinRunTime`] — minimum runtime,
//! - [`algorithms::MinProcTime`] — minimum total processor time
//!   (simplified, random window per step),
//! - [`csa::Csa`] — the multi-alternative Common Stats AMP scheme.
//!
//! ## Quick start
//!
//! ```
//! use slotsel_core::algorithms::{MinCost, SlotSelector};
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeSpec, OsFamily, Performance, Platform, Volume};
//! use slotsel_core::request::ResourceRequest;
//! use slotsel_core::slotlist::SlotList;
//! use slotsel_core::time::{Interval, TimeDelta, TimePoint};
//!
//! # fn main() -> Result<(), slotsel_core::error::RequestError> {
//! // A platform of three heterogeneous nodes…
//! let platform: Platform = [(2u32, 2.1), (5, 5.0), (9, 8.7)]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &(perf, price))| {
//!         NodeSpec::builder(i as u32)
//!             .performance(Performance::new(perf))
//!             .price_per_unit(Money::from_f64(price))
//!             .os(OsFamily::Linux)
//!             .build()
//!     })
//!     .collect();
//!
//! // …each advertising one free slot on the scheduling interval.
//! let mut slots = SlotList::new();
//! for node in &platform {
//!     slots.add(
//!         node.id(),
//!         Interval::new(TimePoint::new(0), TimePoint::new(600)),
//!         node.performance(),
//!         node.price_per_unit(),
//!     );
//! }
//!
//! // A job needing 2 parallel slots for 150 time units at reference
//! // performance 2, with budget S = F * t * n.
//! let request = ResourceRequest::builder()
//!     .node_count(2)
//!     .volume(Volume::from_time_on(TimeDelta::new(150), Performance::new(2)))
//!     .max_unit_price(Money::from_units(4))
//!     .reference_span(TimeDelta::new(150))
//!     .build()?;
//!
//! let window = MinCost.select(&platform, &slots, &request).expect("window exists");
//! assert_eq!(window.size(), 2);
//! assert!(window.total_cost() <= request.budget());
//! # Ok(())
//! # }
//! ```
//!
//! The environment generator used in the paper's experiments lives in the
//! companion crate `slotsel-env`; baselines (first fit, backfilling,
//! exhaustive search) in `slotsel-baselines`; the batch-level two-phase
//! scheduling scheme in `slotsel-batch`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod additive;
pub mod aep;
pub mod algorithms;
pub mod criteria;
pub mod csa;
pub mod energy;
pub mod error;
pub mod money;
pub mod node;
pub mod pool;
pub mod reference;
pub mod request;
pub mod rng;
pub mod scenario;
pub mod selectors;
pub mod slot;
pub mod slotlist;
pub mod tenant;
pub mod time;
pub mod treeslots;
pub mod validate;
pub mod window;

pub use additive::{CostScore, MaxAdditive, MinAdditive, ProcTimeScore, SlotScore, WeightedScore};
pub use aep::{
    scan, scan_observed, scan_with, ScanOptions, ScanOutcome, ScanStats, SelectionPolicy,
};
pub use algorithms::{Amp, MinCost, MinFinish, MinProcTime, MinRunTime, SlotSelector};
pub use criteria::{best_by, Criterion, WindowCriterion};
pub use csa::{Csa, CutPolicy};
pub use energy::{window_energy, EnergyScore, PowerModel};
pub use error::{CutError, RequestError};
pub use money::Money;
pub use node::{NodeId, NodeSpec, OsFamily, Performance, Platform, Volume};
pub use pool::CandidatePool;
pub use reference::{reference_scan, reference_scan_observed, reference_scan_with};
pub use request::{Job, JobId, NodeRequirements, ResourceRequest};
pub use scenario::Scenario;
pub use slot::{Slot, SlotId};
pub use slotlist::{SlotList, SlotListStats, SlotStoreKind};
/// The observer context of [`SlotSelector::select_observed`] and the other
/// `*_observed` entry points, re-exported so implementors need no direct
/// dependency on `slotsel-obs`.
pub use slotsel_obs::Obs;
pub use tenant::{AdmitError, TenantId, TenantQuota, TenantUsage};
pub use time::{Interval, TimeDelta, TimePoint};
pub use treeslots::TreeSlots;
pub use validate::{validate_window, WindowViolation};
pub use window::{Window, WindowSlot};
