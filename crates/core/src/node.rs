//! Computational nodes of the heterogeneous platform.
//!
//! A [`NodeSpec`] describes one CPU node of the distributed environment: its
//! relative [`Performance`] rate, its usage price per model-time unit, and
//! the hardware/software characteristics (clock speed, RAM, disk, operating
//! system) a resource request may constrain. A [`Platform`] is the immutable
//! collection of nodes visible to the metascheduler during one scheduling
//! cycle.
//!
//! # Examples
//!
//! ```
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeSpec, OsFamily, Performance, Platform};
//!
//! let platform = Platform::new(vec![
//!     NodeSpec::builder(0)
//!         .performance(Performance::new(4))
//!         .price_per_unit(Money::from_f64(4.1))
//!         .os(OsFamily::Linux)
//!         .build(),
//! ]);
//! assert_eq!(platform.len(), 1);
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::TimeDelta;

/// Identifier of a node inside a [`Platform`] (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as a usable array index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Relative performance rate of a node, in work units per model-time unit.
///
/// The paper generates rates uniformly in `[2; 10]`; a task of
/// [`Volume`] `v` occupies a node of performance `p` for `ceil(v / p)` time
/// units — this is what gives a co-allocation window its "rough right edge".
///
/// # Examples
///
/// ```
/// use slotsel_core::node::{Performance, Volume};
///
/// let p = Performance::new(4);
/// assert_eq!(Volume::new(300).time_on(p).ticks(), 75);
/// assert_eq!(Volume::new(301).time_on(p).ticks(), 76); // rounded up
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Performance(u32);

impl Performance {
    /// Creates a performance rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero — a node that performs no work cannot hold a
    /// slot of finite length.
    #[must_use]
    pub fn new(rate: u32) -> Self {
        assert!(rate > 0, "performance rate must be positive");
        Performance(rate)
    }

    /// Returns the raw rate.
    #[must_use]
    pub const fn rate(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Performance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x", self.0)
    }
}

/// Amount of computational work of one task of a parallel job.
///
/// Dividing a volume by a node's [`Performance`] (rounding up) yields the
/// slot length the task needs on that node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Volume(u64);

impl Volume {
    /// Creates a work volume.
    #[must_use]
    pub const fn new(work: u64) -> Self {
        Volume(work)
    }

    /// Creates the volume that occupies a node of `reference` performance for
    /// exactly `span` time units — the paper's "reserve `n` slots for a time
    /// span `t`" phrasing, anchored to a reference performance rate.
    ///
    /// # Panics
    ///
    /// Panics if `span` is negative.
    #[must_use]
    pub fn from_time_on(span: TimeDelta, reference: Performance) -> Self {
        assert!(!span.is_negative(), "volume from negative time span {span}");
        Volume(span.ticks() as u64 * u64::from(reference.rate()))
    }

    /// Returns the raw work amount.
    #[must_use]
    pub const fn work(self) -> u64 {
        self.0
    }

    /// Returns `true` when no work is requested.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Execution time of this volume on a node of performance `perf`,
    /// rounded up to whole model-time units.
    #[must_use]
    pub fn time_on(self, perf: Performance) -> TimeDelta {
        let rate = u64::from(perf.rate());
        TimeDelta::new(self.0.div_ceil(rate) as i64)
    }
}

impl fmt::Display for Volume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}w", self.0)
    }
}

/// Operating-system family installed on a node.
///
/// A coarse classification is enough for the paper's
/// `properHardwareAndSoftware` admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OsFamily {
    /// Any GNU/Linux distribution.
    #[default]
    Linux,
    /// Any BSD flavour.
    Bsd,
    /// Microsoft Windows (HPC server editions).
    Windows,
    /// Other / exotic systems.
    Other,
}

impl fmt::Display for OsFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OsFamily::Linux => "linux",
            OsFamily::Bsd => "bsd",
            OsFamily::Windows => "windows",
            OsFamily::Other => "other",
        };
        f.write_str(name)
    }
}

/// Static description of one CPU node.
///
/// Construct with [`NodeSpec::builder`]; only the node id is mandatory, all
/// other characteristics have workstation-grade defaults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    id: NodeId,
    performance: Performance,
    price_per_unit: crate::money::Money,
    clock_mhz: u32,
    ram_mb: u32,
    disk_gb: u32,
    os: OsFamily,
    #[serde(default)]
    domain: Option<u32>,
}

impl NodeSpec {
    /// Starts building a node description with the given id.
    #[must_use]
    pub fn builder(id: u32) -> NodeSpecBuilder {
        NodeSpecBuilder {
            spec: NodeSpec {
                id: NodeId(id),
                performance: Performance::new(1),
                price_per_unit: crate::money::Money::from_units(1),
                clock_mhz: 2_000,
                ram_mb: 4_096,
                disk_gb: 100,
                os: OsFamily::Linux,
                domain: None,
            },
        }
    }

    /// The node identifier.
    #[must_use]
    pub const fn id(&self) -> NodeId {
        self.id
    }

    /// The relative performance rate.
    #[must_use]
    pub const fn performance(&self) -> Performance {
        self.performance
    }

    /// The usage cost per model-time unit.
    #[must_use]
    pub const fn price_per_unit(&self) -> crate::money::Money {
        self.price_per_unit
    }

    /// CPU clock speed in MHz.
    #[must_use]
    pub const fn clock_mhz(&self) -> u32 {
        self.clock_mhz
    }

    /// Main memory in MiB.
    #[must_use]
    pub const fn ram_mb(&self) -> u32 {
        self.ram_mb
    }

    /// Scratch disk space in GiB.
    #[must_use]
    pub const fn disk_gb(&self) -> u32 {
        self.disk_gb
    }

    /// Installed operating-system family.
    #[must_use]
    pub const fn os(&self) -> OsFamily {
        self.os
    }

    /// The administrative resource domain this node belongs to, if the
    /// platform is organised into domains (computer sites in the paper's
    /// related-work terminology).
    #[must_use]
    pub const fn domain(&self) -> Option<u32> {
        self.domain
    }
}

/// Builder for [`NodeSpec`].
#[derive(Debug, Clone)]
pub struct NodeSpecBuilder {
    spec: NodeSpec,
}

impl NodeSpecBuilder {
    /// Sets the performance rate.
    #[must_use]
    pub fn performance(mut self, performance: Performance) -> Self {
        self.spec.performance = performance;
        self
    }

    /// Sets the usage cost per model-time unit.
    #[must_use]
    pub fn price_per_unit(mut self, price: crate::money::Money) -> Self {
        self.spec.price_per_unit = price;
        self
    }

    /// Sets the CPU clock speed in MHz.
    #[must_use]
    pub fn clock_mhz(mut self, clock_mhz: u32) -> Self {
        self.spec.clock_mhz = clock_mhz;
        self
    }

    /// Sets the main memory size in MiB.
    #[must_use]
    pub fn ram_mb(mut self, ram_mb: u32) -> Self {
        self.spec.ram_mb = ram_mb;
        self
    }

    /// Sets the disk space in GiB.
    #[must_use]
    pub fn disk_gb(mut self, disk_gb: u32) -> Self {
        self.spec.disk_gb = disk_gb;
        self
    }

    /// Sets the operating-system family.
    #[must_use]
    pub fn os(mut self, os: OsFamily) -> Self {
        self.spec.os = os;
        self
    }

    /// Assigns the node to an administrative resource domain.
    #[must_use]
    pub fn domain(mut self, domain: u32) -> Self {
        self.spec.domain = Some(domain);
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> NodeSpec {
        self.spec
    }
}

/// The immutable set of nodes visible during one scheduling cycle.
///
/// Node ids are dense indices into the platform, so lookup is O(1).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Platform {
    nodes: Vec<NodeSpec>,
}

impl Platform {
    /// Creates a platform from a list of node descriptions.
    ///
    /// # Panics
    ///
    /// Panics if node ids are not the dense sequence `0..nodes.len()`; the
    /// dense-id invariant is what makes `NodeId` usable as an index.
    #[must_use]
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                node.id().index() == i,
                "node ids must be dense: expected {i}, found {}",
                node.id()
            );
        }
        Platform { nodes }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the platform has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks a node up by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this platform.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// Looks a node up by id, returning `None` for foreign ids.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.get(id.index())
    }

    /// Iterates over all nodes in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeSpec> {
        self.nodes.iter()
    }

    /// Replaces a node's performance rate in place.
    ///
    /// Platforms are immutable during a scheduling cycle, but between
    /// cycles a non-dedicated node may slow down (local load, thermal
    /// throttling) or recover; fault-injection models use this to stretch
    /// the "rough right edge" of already-selected windows.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this platform.
    pub fn set_performance(&mut self, id: NodeId, performance: Performance) {
        self.nodes[id.index()].performance = performance;
    }

    /// A 64-bit FNV-1a digest of every field of every node, in platform
    /// order, a word per field as
    /// [`SlotList::digest`](crate::slotlist::SlotList::digest) hashes
    /// slots. Equal platforms digest alike.
    #[must_use]
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |word: u64| hash = (hash ^ word).wrapping_mul(PRIME);
        feed(self.nodes.len() as u64);
        for node in &self.nodes {
            feed(u64::from(node.id.0));
            feed(u64::from(node.performance.rate()));
            feed(node.price_per_unit.millis() as u64);
            feed(u64::from(node.clock_mhz));
            feed(u64::from(node.ram_mb));
            feed(u64::from(node.disk_gb));
            feed(node.os as u64);
            feed(u64::from(node.domain.is_some()));
            feed(u64::from(node.domain.unwrap_or(0)));
        }
        hash
    }
}

impl<'a> IntoIterator for &'a Platform {
    type Item = &'a NodeSpec;
    type IntoIter = std::slice::Iter<'a, NodeSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.iter()
    }
}

impl FromIterator<NodeSpec> for Platform {
    fn from_iter<I: IntoIterator<Item = NodeSpec>>(iter: I) -> Self {
        Platform::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;

    fn node(id: u32, perf: u32) -> NodeSpec {
        NodeSpec::builder(id)
            .performance(Performance::new(perf))
            .price_per_unit(Money::from_units(i64::from(perf)))
            .build()
    }

    #[test]
    fn volume_time_rounds_up() {
        let v = Volume::new(10);
        assert_eq!(v.time_on(Performance::new(3)).ticks(), 4);
        assert_eq!(v.time_on(Performance::new(5)).ticks(), 2);
        assert_eq!(v.time_on(Performance::new(10)).ticks(), 1);
        assert_eq!(v.time_on(Performance::new(20)).ticks(), 1);
    }

    #[test]
    fn volume_zero_takes_no_time() {
        assert!(Volume::new(0).is_zero());
        assert_eq!(Volume::new(0).time_on(Performance::new(4)), TimeDelta::ZERO);
    }

    #[test]
    fn volume_from_reference_time() {
        let v = Volume::from_time_on(TimeDelta::new(150), Performance::new(2));
        assert_eq!(v.work(), 300);
        assert_eq!(v.time_on(Performance::new(2)).ticks(), 150);
        assert_eq!(v.time_on(Performance::new(10)).ticks(), 30);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn performance_rejects_zero() {
        let _ = Performance::new(0);
    }

    #[test]
    fn domain_defaults_to_none_and_is_settable() {
        assert_eq!(NodeSpec::builder(0).build().domain(), None);
        assert_eq!(NodeSpec::builder(0).domain(3).build().domain(), Some(3));
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let spec = NodeSpec::builder(3)
            .performance(Performance::new(7))
            .clock_mhz(3_000)
            .ram_mb(16_384)
            .disk_gb(500)
            .os(OsFamily::Bsd)
            .price_per_unit(Money::from_f64(6.5))
            .build();
        assert_eq!(spec.id(), NodeId(3));
        assert_eq!(spec.performance().rate(), 7);
        assert_eq!(spec.clock_mhz(), 3_000);
        assert_eq!(spec.ram_mb(), 16_384);
        assert_eq!(spec.disk_gb(), 500);
        assert_eq!(spec.os(), OsFamily::Bsd);
        assert_eq!(spec.price_per_unit(), Money::from_f64(6.5));
    }

    #[test]
    fn platform_dense_lookup() {
        let platform = Platform::new(vec![node(0, 2), node(1, 5), node(2, 9)]);
        assert_eq!(platform.len(), 3);
        assert_eq!(platform.node(NodeId(1)).performance().rate(), 5);
        assert!(platform.get(NodeId(7)).is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn platform_rejects_sparse_ids() {
        let _ = Platform::new(vec![node(0, 2), node(2, 5)]);
    }

    #[test]
    fn platform_from_iterator() {
        let platform: Platform = (0..4).map(|i| node(i, i + 2)).collect();
        assert_eq!(platform.len(), 4);
        assert_eq!(platform.iter().count(), 4);
        assert_eq!((&platform).into_iter().count(), 4);
    }

    #[test]
    fn set_performance_updates_one_node() {
        let mut platform = Platform::new(vec![node(0, 2), node(1, 5)]);
        platform.set_performance(NodeId(1), Performance::new(3));
        assert_eq!(platform.node(NodeId(1)).performance().rate(), 3);
        assert_eq!(platform.node(NodeId(0)).performance().rate(), 2);
    }

    #[test]
    fn platform_digest_covers_every_field_of_every_node() {
        let base = || NodeSpec::builder(1).performance(Performance::new(5));
        let digest = |last: NodeSpec| Platform::new(vec![node(0, 2), last]).digest();
        let reference = digest(base().build());
        assert_eq!(reference, digest(base().build()));
        let edits = [
            base().performance(Performance::new(6)).build(),
            base().price_per_unit(Money::from_millis(1_001)).build(),
            base().clock_mhz(2_001).build(),
            base().ram_mb(4_097).build(),
            base().disk_gb(101).build(),
            base().os(OsFamily::Bsd).build(),
            base().domain(0).build(),
        ];
        for edited in edits {
            assert_ne!(digest(edited.clone()), reference, "{edited:?}");
        }
        assert_ne!(Platform::new(vec![node(0, 2)]).digest(), reference);
        assert_ne!(
            Platform::default().digest(),
            Platform::new(vec![node(0, 2)]).digest()
        );
    }

    #[test]
    #[should_panic]
    fn set_performance_rejects_foreign_id() {
        let mut platform = Platform::new(vec![node(0, 2)]);
        platform.set_performance(NodeId(5), Performance::new(3));
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(Performance::new(9).to_string(), "9x");
        assert_eq!(Volume::new(300).to_string(), "300w");
        assert_eq!(OsFamily::Windows.to_string(), "windows");
    }
}
