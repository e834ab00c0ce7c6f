//! Resource requests and jobs.
//!
//! A [`ResourceRequest`] arranges a job's needs the way the paper describes:
//! the number `n` of concurrent slots, the work [`Volume`] of each task
//! (equivalently a reservation time span at a reference performance), the
//! hardware/software [`NodeRequirements`], and the budget
//! `S = F · t · n` limiting the total window allocation cost.
//!
//! # Examples
//!
//! The paper's §3.1 base job — 5 parallel slots for 150 time units at
//! reference performance 2, budget 1500:
//!
//! ```
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{Performance, Volume};
//! use slotsel_core::request::ResourceRequest;
//! use slotsel_core::time::TimeDelta;
//!
//! # fn main() -> Result<(), slotsel_core::error::RequestError> {
//! let request = ResourceRequest::builder()
//!     .node_count(5)
//!     .volume(Volume::from_time_on(TimeDelta::new(150), Performance::new(2)))
//!     .budget(Money::from_units(1500))
//!     .build()?;
//! assert_eq!(request.node_count(), 5);
//! assert_eq!(request.volume().work(), 300);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::RequestError;
use crate::money::Money;
use crate::node::{NodeSpec, OsFamily, Performance, Volume};
use crate::time::{TimeDelta, TimePoint};

/// Hardware and software constraints a node must satisfy to host a task —
/// the paper's `properHardwareAndSoftware` admission check.
///
/// The default requirements admit every node.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NodeRequirements {
    min_performance: Option<Performance>,
    min_clock_mhz: Option<u32>,
    min_ram_mb: Option<u32>,
    min_disk_gb: Option<u32>,
    allowed_os: Option<Vec<OsFamily>>,
    max_price_per_unit: Option<Money>,
    #[serde(default)]
    allowed_domains: Option<Vec<u32>>,
}

impl NodeRequirements {
    /// Requirements that admit any node.
    #[must_use]
    pub fn any() -> Self {
        NodeRequirements::default()
    }

    /// Requires at least the given performance rate.
    #[must_use]
    pub fn min_performance(mut self, perf: Performance) -> Self {
        self.min_performance = Some(perf);
        self
    }

    /// Requires at least the given CPU clock in MHz.
    #[must_use]
    pub fn min_clock_mhz(mut self, mhz: u32) -> Self {
        self.min_clock_mhz = Some(mhz);
        self
    }

    /// Requires at least the given RAM in MiB.
    #[must_use]
    pub fn min_ram_mb(mut self, mb: u32) -> Self {
        self.min_ram_mb = Some(mb);
        self
    }

    /// Requires at least the given disk space in GiB.
    #[must_use]
    pub fn min_disk_gb(mut self, gb: u32) -> Self {
        self.min_disk_gb = Some(gb);
        self
    }

    /// Restricts the acceptable operating-system families.
    #[must_use]
    pub fn allowed_os(mut self, os: impl IntoIterator<Item = OsFamily>) -> Self {
        self.allowed_os = Some(os.into_iter().collect());
        self
    }

    /// Caps the per-time-unit price of an individual slot (the paper's
    /// "maximal resource price per time unit `F`" read as a hard per-slot
    /// filter; the budget `S` separately caps the window total).
    #[must_use]
    pub fn max_price_per_unit(mut self, price: Money) -> Self {
        self.max_price_per_unit = Some(price);
        self
    }

    /// Restricts the acceptable administrative resource domains; a node
    /// with no domain assignment fails a domain restriction. Restricting
    /// to one domain keeps the co-allocation inside a single computer
    /// site, avoiding the cross-domain task distribution the paper's §3.3
    /// names as a complexity driver for IP/MIP schemes.
    #[must_use]
    pub fn allowed_domains(mut self, domains: impl IntoIterator<Item = u32>) -> Self {
        self.allowed_domains = Some(domains.into_iter().collect());
        self
    }

    /// Returns `true` when `node` satisfies every constraint.
    #[must_use]
    pub fn admits(&self, node: &NodeSpec) -> bool {
        self.min_performance.is_none_or(|p| node.performance() >= p)
            && self.min_clock_mhz.is_none_or(|c| node.clock_mhz() >= c)
            && self.min_ram_mb.is_none_or(|r| node.ram_mb() >= r)
            && self.min_disk_gb.is_none_or(|d| node.disk_gb() >= d)
            && self
                .allowed_os
                .as_ref()
                .is_none_or(|os| os.contains(&node.os()))
            && self
                .max_price_per_unit
                .is_none_or(|f| node.price_per_unit() <= f)
            && self
                .allowed_domains
                .as_ref()
                .is_none_or(|domains| node.domain().is_some_and(|d| domains.contains(&d)))
    }

    /// Returns the per-unit price cap, if any.
    #[must_use]
    pub fn price_cap(&self) -> Option<Money> {
        self.max_price_per_unit
    }
}

/// A parallel job's resource request.
///
/// Immutable once built; construct with [`ResourceRequest::builder`].
/// It decodes a missing `requirements` field as the default and a missing
/// `deadline` or `reference_span` as `None`, the fields a live journal's
/// `Submitted` record leaves out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceRequest {
    node_count: usize,
    volume: Volume,
    budget: Money,
    #[serde(default)]
    requirements: NodeRequirements,
    deadline: Option<TimePoint>,
    reference_span: Option<TimeDelta>,
}

impl ResourceRequest {
    /// Starts building a request. See [`ResourceRequestBuilder`].
    #[must_use]
    pub fn builder() -> ResourceRequestBuilder {
        ResourceRequestBuilder {
            node_count: 1,
            volume: Volume::new(0),
            budget: None,
            max_unit_price: None,
            reference_span: None,
            requirements: NodeRequirements::any(),
            deadline: None,
        }
    }

    /// The number `n` of concurrent slots required.
    #[must_use]
    pub const fn node_count(&self) -> usize {
        self.node_count
    }

    /// The work volume of each task.
    #[must_use]
    pub const fn volume(&self) -> Volume {
        self.volume
    }

    /// The budget `S` capping the window's total allocation cost.
    #[must_use]
    pub const fn budget(&self) -> Money {
        self.budget
    }

    /// The node admission constraints.
    #[must_use]
    pub const fn requirements(&self) -> &NodeRequirements {
        &self.requirements
    }

    /// The optional completion deadline.
    #[must_use]
    pub const fn deadline(&self) -> Option<TimePoint> {
        self.deadline
    }

    /// The reservation time span `t` the user quoted (if any) — the length
    /// for which synchronous co-allocation holds the whole window under
    /// [`CutPolicy::ReservationSpan`](crate::csa::CutPolicy::ReservationSpan).
    #[must_use]
    pub const fn reference_span(&self) -> Option<TimeDelta> {
        self.reference_span
    }

    /// Execution time of one task on a node of performance `perf`.
    #[must_use]
    pub fn time_on(&self, perf: Performance) -> TimeDelta {
        self.volume.time_on(perf)
    }

    /// Deconstructs the request back into a builder, for deriving a
    /// tightened variant (e.g. adding a deadline) from an existing request.
    #[must_use]
    pub fn into_builder(self) -> ResourceRequestBuilder {
        ResourceRequestBuilder {
            node_count: self.node_count,
            volume: self.volume,
            budget: Some(self.budget),
            max_unit_price: None,
            reference_span: self.reference_span,
            requirements: self.requirements,
            deadline: self.deadline,
        }
    }
}

impl fmt::Display for ResourceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request: {} slots x {} within budget {}",
            self.node_count, self.volume, self.budget
        )
    }
}

/// Builder for [`ResourceRequest`].
///
/// The budget can be given directly ([`budget`](Self::budget)) or derived
/// from the paper's formula `S = F · t · n` via
/// [`max_unit_price`](Self::max_unit_price) plus
/// [`reference_span`](Self::reference_span).
#[derive(Debug, Clone)]
pub struct ResourceRequestBuilder {
    node_count: usize,
    volume: Volume,
    budget: Option<Money>,
    max_unit_price: Option<Money>,
    reference_span: Option<TimeDelta>,
    requirements: NodeRequirements,
    deadline: Option<TimePoint>,
}

impl ResourceRequestBuilder {
    /// Sets the number of concurrent slots (`n`).
    #[must_use]
    pub fn node_count(mut self, n: usize) -> Self {
        self.node_count = n;
        self
    }

    /// Sets the per-task work volume directly.
    #[must_use]
    pub fn volume(mut self, volume: Volume) -> Self {
        self.volume = volume;
        self
    }

    /// Sets the budget `S` directly.
    #[must_use]
    pub fn budget(mut self, budget: Money) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the maximal resource price per time unit `F`, used together with
    /// [`reference_span`](Self::reference_span) to derive `S = F · t · n`
    /// when no explicit budget is given.
    #[must_use]
    pub fn max_unit_price(mut self, price: Money) -> Self {
        self.max_unit_price = Some(price);
        self
    }

    /// Sets the reservation time span `t` used in the budget formula.
    #[must_use]
    pub fn reference_span(mut self, span: TimeDelta) -> Self {
        self.reference_span = Some(span);
        self
    }

    /// Sets the node admission constraints.
    #[must_use]
    pub fn requirements(mut self, requirements: NodeRequirements) -> Self {
        self.requirements = requirements;
        self
    }

    /// Sets a completion deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: TimePoint) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Validates and builds the request.
    ///
    /// # Errors
    ///
    /// - [`RequestError::ZeroNodes`] if the node count is zero.
    /// - [`RequestError::ZeroVolume`] if the volume is zero.
    /// - [`RequestError::NonPositiveBudget`] if neither an explicit positive
    ///   budget nor a derivable `F · t · n > 0` was provided.
    pub fn build(self) -> Result<ResourceRequest, RequestError> {
        if self.node_count == 0 {
            return Err(RequestError::ZeroNodes);
        }
        if self.volume.is_zero() {
            return Err(RequestError::ZeroVolume);
        }
        let budget = match (self.budget, self.max_unit_price, self.reference_span) {
            (Some(s), _, _) => s,
            (None, Some(f), Some(t)) => f * t.ticks() * self.node_count as i64,
            _ => return Err(RequestError::NonPositiveBudget),
        };
        if !budget.is_positive() {
            return Err(RequestError::NonPositiveBudget);
        }
        Ok(ResourceRequest {
            node_count: self.node_count,
            volume: self.volume,
            budget,
            requirements: self.requirements,
            deadline: self.deadline,
            reference_span: self.reference_span,
        })
    }
}

/// Identifier of a job inside a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A batch job: an id, a scheduling priority and a resource request.
///
/// Higher priority values are scheduled first, matching "higher priority
/// jobs are processed first".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    id: JobId,
    priority: u32,
    request: ResourceRequest,
}

impl Job {
    /// Creates a job.
    #[must_use]
    pub fn new(id: JobId, priority: u32, request: ResourceRequest) -> Self {
        Job {
            id,
            priority,
            request,
        }
    }

    /// The job identifier.
    #[must_use]
    pub const fn id(&self) -> JobId {
        self.id
    }

    /// The scheduling priority (higher first).
    #[must_use]
    pub const fn priority(&self) -> u32 {
        self.priority
    }

    /// The job's resource request.
    #[must_use]
    pub const fn request(&self) -> &ResourceRequest {
        &self.request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;

    fn basic_request() -> ResourceRequest {
        ResourceRequest::builder()
            .node_count(5)
            .volume(Volume::new(300))
            .budget(Money::from_units(1500))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_with_explicit_budget() {
        let r = basic_request();
        assert_eq!(r.node_count(), 5);
        assert_eq!(r.volume().work(), 300);
        assert_eq!(r.budget(), Money::from_units(1500));
        assert_eq!(r.deadline(), None);
    }

    #[test]
    fn builder_derives_budget_from_f_t_n() {
        let r = ResourceRequest::builder()
            .node_count(5)
            .volume(Volume::new(300))
            .max_unit_price(Money::from_units(2))
            .reference_span(TimeDelta::new(150))
            .build()
            .unwrap();
        assert_eq!(
            r.budget(),
            Money::from_units(1500),
            "S = F * t * n = 2 * 150 * 5"
        );
    }

    #[test]
    fn explicit_budget_wins_over_formula() {
        let r = ResourceRequest::builder()
            .node_count(5)
            .volume(Volume::new(300))
            .budget(Money::from_units(999))
            .max_unit_price(Money::from_units(2))
            .reference_span(TimeDelta::new(150))
            .build()
            .unwrap();
        assert_eq!(r.budget(), Money::from_units(999));
    }

    #[test]
    fn builder_validation_errors() {
        let err = ResourceRequest::builder()
            .node_count(0)
            .volume(Volume::new(10))
            .budget(Money::from_units(1))
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::ZeroNodes);

        let err = ResourceRequest::builder()
            .node_count(1)
            .volume(Volume::new(0))
            .budget(Money::from_units(1))
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::ZeroVolume);

        let err = ResourceRequest::builder()
            .node_count(1)
            .volume(Volume::new(10))
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::NonPositiveBudget);

        let err = ResourceRequest::builder()
            .node_count(1)
            .volume(Volume::new(10))
            .budget(Money::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::NonPositiveBudget);
    }

    #[test]
    fn requirements_admit_by_default() {
        let node = NodeSpec::builder(0).build();
        assert!(NodeRequirements::any().admits(&node));
    }

    #[test]
    fn requirements_filter_each_dimension() {
        let node = NodeSpec::builder(0)
            .performance(Performance::new(5))
            .clock_mhz(2_500)
            .ram_mb(8_192)
            .disk_gb(200)
            .os(OsFamily::Linux)
            .price_per_unit(Money::from_units(5))
            .build();

        assert!(NodeRequirements::any()
            .min_performance(Performance::new(5))
            .admits(&node));
        assert!(!NodeRequirements::any()
            .min_performance(Performance::new(6))
            .admits(&node));
        assert!(NodeRequirements::any().min_clock_mhz(2_500).admits(&node));
        assert!(!NodeRequirements::any().min_clock_mhz(2_501).admits(&node));
        assert!(NodeRequirements::any().min_ram_mb(8_192).admits(&node));
        assert!(!NodeRequirements::any().min_ram_mb(8_193).admits(&node));
        assert!(NodeRequirements::any().min_disk_gb(200).admits(&node));
        assert!(!NodeRequirements::any().min_disk_gb(201).admits(&node));
        assert!(NodeRequirements::any()
            .allowed_os([OsFamily::Linux])
            .admits(&node));
        assert!(!NodeRequirements::any()
            .allowed_os([OsFamily::Windows])
            .admits(&node));
        assert!(NodeRequirements::any()
            .max_price_per_unit(Money::from_units(5))
            .admits(&node));
        assert!(!NodeRequirements::any()
            .max_price_per_unit(Money::from_f64(4.999))
            .admits(&node));
    }

    #[test]
    fn time_on_delegates_to_volume() {
        let r = basic_request();
        assert_eq!(r.time_on(Performance::new(10)).ticks(), 30);
        assert_eq!(r.time_on(Performance::new(2)).ticks(), 150);
    }

    #[test]
    fn into_builder_roundtrips_and_tightens() {
        let original = ResourceRequest::builder()
            .node_count(3)
            .volume(Volume::new(200))
            .budget(Money::from_units(900))
            .reference_span(TimeDelta::new(100))
            .requirements(NodeRequirements::any().min_ram_mb(4_096))
            .build()
            .unwrap();
        let same = original.clone().into_builder().build().unwrap();
        assert_eq!(original, same);
        let tightened = original
            .clone()
            .into_builder()
            .deadline(TimePoint::new(50))
            .build()
            .unwrap();
        assert_eq!(tightened.deadline(), Some(TimePoint::new(50)));
        assert_eq!(tightened.budget(), original.budget());
    }

    #[test]
    fn job_accessors() {
        let job = Job::new(JobId(7), 3, basic_request());
        assert_eq!(job.id(), JobId(7));
        assert_eq!(job.priority(), 3);
        assert_eq!(job.request().node_count(), 5);
        assert_eq!(job.id().to_string(), "j7");
    }

    #[test]
    fn request_display() {
        assert_eq!(
            basic_request().to_string(),
            "request: 5 slots x 300w within budget 1500"
        );
    }
}
