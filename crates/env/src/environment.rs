//! The generated distributed environment of one scheduling cycle.
//!
//! Ties the pieces together: a [`Platform`] of heterogeneous nodes, their
//! local [`NodeSchedule`]s, and the resulting ordered [`SlotList`] the
//! selection algorithms consume. [`EnvironmentConfig::paper_default`]
//! reproduces the §3.1 experimental setup exactly: 100 nodes, performance
//! ~ U\[2,10\], market pricing, hyper-geometric 10–50% load on the interval
//! `[0, 600]`.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use slotsel_env::environment::EnvironmentConfig;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let env = EnvironmentConfig::paper_default().generate(&mut rng);
//! assert_eq!(env.platform().len(), 100);
//! assert!(env.slots().len() > 100, "load fragments the interval into many slots");
//! ```

use rand::Rng;
use serde::{Deserialize, Serialize};

use slotsel_core::node::{NodeId, Performance, Platform};
use slotsel_core::slot::{Slot, SlotId};
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_core::time::{Interval, TimePoint};

use crate::load::{LoadConfig, NodeSchedule};
use crate::nodes::NodeGenConfig;

/// Full configuration of the environment generator.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnvironmentConfig {
    /// Node generation parameters.
    pub nodes: NodeGenConfig,
    /// Local-load generation parameters.
    pub load: LoadConfig,
    /// Length of the scheduling interval, starting at `t = 0` (paper: 600).
    pub interval_length: i64,
    /// Which store backs the generated slot list. Defaults to the tree
    /// store; the sorted-`Vec` oracle is selectable for differential
    /// testing. Configs serialized before this field existed deserialize
    /// to the default.
    #[serde(default)]
    pub store: SlotStoreKind,
}

impl EnvironmentConfig {
    /// The paper's §3.1 environment.
    #[must_use]
    pub fn paper_default() -> Self {
        EnvironmentConfig {
            nodes: NodeGenConfig::paper_default(),
            load: LoadConfig::paper_default(),
            interval_length: 600,
            store: SlotStoreKind::default(),
        }
    }

    /// The §3.1 environment with a different node count (Table 1 sweep).
    #[must_use]
    pub fn with_node_count(count: usize) -> Self {
        EnvironmentConfig {
            nodes: NodeGenConfig::with_count(count),
            ..Self::paper_default()
        }
    }

    /// The §3.1 environment with a different interval length (Table 2 sweep).
    #[must_use]
    pub fn with_interval_length(length: i64) -> Self {
        EnvironmentConfig {
            interval_length: length,
            ..Self::paper_default()
        }
    }

    /// Generates one environment instance.
    ///
    /// # Panics
    ///
    /// Panics if the interval length is not positive or any sub-config is
    /// invalid.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Environment {
        assert!(self.interval_length > 0, "interval length must be positive");
        let interval = Interval::new(TimePoint::ZERO, TimePoint::new(self.interval_length));
        let platform = self.nodes.generate(rng);
        // Collect first, bulk-build once: per-slot sorted insertion would
        // be O(m^2) at the 100k-node bench tier. Sequential ids in
        // schedule order match what per-slot `add` calls would allocate.
        let mut raw = Vec::new();
        let mut schedules = Vec::with_capacity(platform.len());
        for node in &platform {
            let schedule = NodeSchedule::generate(rng, node.id(), interval, &self.load);
            for free in schedule.free() {
                let id = SlotId(raw.len() as u64);
                raw.push(Slot::new(
                    id,
                    node.id(),
                    free,
                    node.performance(),
                    node.price_per_unit(),
                ));
            }
            schedules.push(schedule);
        }
        let slots = SlotList::from_slots_in(self.store, raw);
        Environment {
            platform,
            slots,
            schedules,
            interval,
        }
    }
}

/// One generated scheduling-cycle state.
#[derive(Debug, Clone)]
pub struct Environment {
    platform: Platform,
    slots: SlotList,
    schedules: Vec<NodeSchedule>,
    interval: Interval,
}

impl Environment {
    /// Assembles an environment from pre-built parts (mainly for tests and
    /// deterministic examples).
    ///
    /// # Panics
    ///
    /// Panics if a schedule refers to a node outside the platform.
    #[must_use]
    pub fn from_parts(
        platform: Platform,
        slots: SlotList,
        schedules: Vec<NodeSchedule>,
        interval: Interval,
    ) -> Self {
        for schedule in &schedules {
            assert!(
                platform.get(schedule.node()).is_some(),
                "schedule for unknown node {}",
                schedule.node()
            );
        }
        Environment {
            platform,
            slots,
            schedules,
            interval,
        }
    }

    /// The node set.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The ordered free-slot list.
    #[must_use]
    pub fn slots(&self) -> &SlotList {
        &self.slots
    }

    /// Consumes the environment, returning its node set and free-slot
    /// list without copying them.
    #[must_use]
    pub fn into_platform_and_slots(self) -> (Platform, SlotList) {
        (self.platform, self.slots)
    }

    /// The per-node local schedules.
    #[must_use]
    pub fn schedules(&self) -> &[NodeSchedule] {
        &self.schedules
    }

    /// The scheduling interval.
    #[must_use]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Revokes a span of free time on one node: the interval becomes busy
    /// in the node's local schedule and the slot list is regenerated.
    ///
    /// Models the non-dedicated reality the paper assumes away during a
    /// cycle — a local, higher-priority job claims the node after the slot
    /// list was published, invalidating reservations that overlap it.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no schedule in this environment.
    pub fn revoke(&mut self, node: NodeId, span: Interval) {
        self.schedule_mut(node).add_busy(span);
        self.refresh_node_slots(node);
    }

    /// Marks a node failed: its whole scheduling interval becomes busy, so
    /// it contributes no slots until [`Environment::restore_node`].
    ///
    /// # Panics
    ///
    /// Panics if `node` has no schedule in this environment.
    pub fn fail_node(&mut self, node: NodeId) {
        self.schedule_mut(node).set_fully_busy();
        self.refresh_node_slots(node);
    }

    /// Restores a failed node as fully idle (its pre-failure local load is
    /// gone with the failure).
    ///
    /// # Panics
    ///
    /// Panics if `node` has no schedule in this environment.
    pub fn restore_node(&mut self, node: NodeId) {
        self.schedule_mut(node).clear_busy();
        self.refresh_node_slots(node);
    }

    /// Changes a node's performance rate and refreshes the slot list so
    /// slot attributes match the platform again.
    ///
    /// A degradation (lower rate) stretches the execution time of any
    /// volume placed on the node — the "rough right edge" of an already
    /// committed window grows and may no longer fit its free slot.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the platform.
    pub fn degrade_node(&mut self, node: NodeId, performance: Performance) {
        self.platform.set_performance(node, performance);
        self.refresh_node_slots(node);
    }

    /// Regenerates the slot list from the current schedules and platform,
    /// preserving the backing store kind.
    ///
    /// Slot ids restart from zero in schedule order — exactly how
    /// [`EnvironmentConfig::generate`] builds the initial list — so a
    /// rebuilt unperturbed environment is identical to a fresh one.
    pub fn rebuild_slots(&mut self) {
        let kind = self.slots.store_kind();
        let mut raw = Vec::new();
        for schedule in &self.schedules {
            let node = self.platform.node(schedule.node());
            for free in schedule.free() {
                let id = SlotId(raw.len() as u64);
                raw.push(Slot::new(
                    id,
                    node.id(),
                    free,
                    node.performance(),
                    node.price_per_unit(),
                ));
            }
        }
        self.slots = SlotList::from_slots_in(kind, raw);
    }

    /// Re-derives one node's slots from its schedule, leaving every other
    /// node untouched. The replacement slots get fresh ids (the id counter
    /// keeps counting; ids are never reused) — on the tree store this
    /// makes a perturbation O(s log m) for the node's `s` slots instead of
    /// the O(m) full [`rebuild_slots`](Self::rebuild_slots).
    fn refresh_node_slots(&mut self, node: NodeId) {
        self.slots.remove_node_slots(node);
        let node_ref = self.platform.node(node);
        let schedule = self
            .schedules
            .iter()
            .find(|s| s.node() == node)
            .unwrap_or_else(|| panic!("no schedule for {node}"));
        for free in schedule.free() {
            self.slots.add(
                node,
                free,
                node_ref.performance(),
                node_ref.price_per_unit(),
            );
        }
    }

    fn schedule_mut(&mut self, node: NodeId) -> &mut NodeSchedule {
        self.schedules
            .iter_mut()
            .find(|s| s.node() == node)
            .unwrap_or_else(|| panic!("no schedule for {node}"))
    }

    /// Mean occupancy across nodes.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.schedules.is_empty() {
            return 0.0;
        }
        self.schedules
            .iter()
            .map(NodeSchedule::occupancy)
            .sum::<f64>()
            / self.schedules.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slotsel_core::slot::Slot;

    fn env(seed: u64) -> Environment {
        EnvironmentConfig::paper_default().generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn paper_default_shape() {
        let e = env(1);
        assert_eq!(e.platform().len(), 100);
        assert_eq!(e.schedules().len(), 100);
        assert_eq!(e.interval().end().ticks(), 600);
        assert!(e.slots().is_sorted());
    }

    #[test]
    fn slots_lie_within_interval() {
        let e = env(2);
        for slot in e.slots() {
            assert!(e.interval().contains_interval(&slot.span()));
            assert!(slot.length().is_positive());
        }
    }

    #[test]
    fn slots_match_node_attributes() {
        let e = env(3);
        for slot in e.slots() {
            let node = e.platform().node(slot.node());
            assert_eq!(slot.performance(), node.performance());
            assert_eq!(slot.price_per_unit(), node.price_per_unit());
        }
    }

    #[test]
    fn slots_complement_busy_time() {
        let e = env(4);
        for schedule in e.schedules() {
            let free_time: i64 = e
                .slots()
                .iter()
                .filter(|s| s.node() == schedule.node())
                .map(|s| s.length().ticks())
                .sum();
            let expected = schedule.interval().length().ticks() - schedule.busy_time().ticks();
            assert_eq!(free_time, expected, "node {}", schedule.node());
        }
    }

    #[test]
    fn per_node_slots_are_disjoint() {
        let e = env(5);
        let slots: Vec<&Slot> = e.slots().iter().collect();
        for (i, a) in slots.iter().enumerate() {
            for b in &slots[i + 1..] {
                if a.node() == b.node() {
                    assert!(!a.span().overlaps(&b.span()), "{a} overlaps {b}");
                }
            }
        }
    }

    #[test]
    fn slot_count_matches_paper_table2() {
        // Table 2 row "Number of slots": 472.6 at interval 600. Average over
        // several seeds and accept a +-20% band.
        let mut total = 0usize;
        let n = 30u64;
        for seed in 0..n {
            total += env(seed).slots().len();
        }
        let mean = total as f64 / n as f64;
        assert!(
            (380.0..=570.0).contains(&mean),
            "mean slot count {mean} vs paper 472.6"
        );
    }

    #[test]
    fn mean_occupancy_in_band() {
        let mean: f64 = (0..20).map(|s| env(s).mean_occupancy()).sum::<f64>() / 20.0;
        assert!((0.2..=0.4).contains(&mean), "mean occupancy {mean}");
    }

    #[test]
    fn interval_sweep_scales_slots() {
        let mut rng = StdRng::seed_from_u64(9);
        let mean_slots = |cfg: &EnvironmentConfig, rng: &mut StdRng| -> f64 {
            (0..10)
                .map(|_| cfg.generate(rng).slots().len())
                .sum::<usize>() as f64
                / 10.0
        };
        let at_600 = mean_slots(&EnvironmentConfig::paper_default(), &mut rng);
        let at_1800 = mean_slots(&EnvironmentConfig::with_interval_length(1800), &mut rng);
        assert!(
            at_1800 > 2.0 * at_600,
            "slots at 1800 ({at_1800}) vs 600 ({at_600})"
        );
    }

    #[test]
    fn node_sweep_scales_slots_linearly() {
        let mut rng = StdRng::seed_from_u64(10);
        let e50 = EnvironmentConfig::with_node_count(50).generate(&mut rng);
        let e400 = EnvironmentConfig::with_node_count(400).generate(&mut rng);
        assert_eq!(e50.platform().len(), 50);
        assert_eq!(e400.platform().len(), 400);
        let ratio = e400.slots().len() as f64 / e50.slots().len() as f64;
        assert!((6.0..=10.5).contains(&ratio), "slot ratio {ratio} not ~8x");
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn from_parts_validates_schedules() {
        let e = env(11);
        let foreign = NodeSchedule::new(slotsel_core::node::NodeId(9_999), e.interval(), vec![]);
        let _ = Environment::from_parts(
            e.platform().clone(),
            e.slots().clone(),
            vec![foreign],
            e.interval(),
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = env(21);
        let b = env(21);
        assert_eq!(a.platform(), b.platform());
        assert_eq!(a.slots(), b.slots());
    }

    #[test]
    fn rebuild_without_perturbation_is_identity() {
        let mut e = env(30);
        let before = e.slots().clone();
        e.rebuild_slots();
        assert_eq!(e.slots(), &before, "rebuild must reproduce generate()");
    }

    #[test]
    fn revoke_removes_overlapped_free_time() {
        use slotsel_core::node::NodeId;
        let mut e = env(31);
        let node = NodeId(0);
        let span = Interval::new(TimePoint::new(100), TimePoint::new(200));
        e.revoke(node, span);
        assert!(
            e.slots()
                .iter()
                .filter(|s| s.node() == node)
                .all(|s| !s.span().overlaps(&span)),
            "no free slot of the node may overlap the revoked span"
        );
        // Complement invariant still holds after the perturbation.
        for schedule in e.schedules() {
            let free_time: i64 = e
                .slots()
                .iter()
                .filter(|s| s.node() == schedule.node())
                .map(|s| s.length().ticks())
                .sum();
            let expected = schedule.interval().length().ticks() - schedule.busy_time().ticks();
            assert_eq!(free_time, expected, "node {}", schedule.node());
        }
        assert!(e.slots().is_sorted());
    }

    #[test]
    fn fail_and_restore_node() {
        use slotsel_core::node::NodeId;
        let mut e = env(32);
        let node = NodeId(3);
        let had_slots = e.slots().iter().any(|s| s.node() == node);
        assert!(
            had_slots,
            "paper-default load leaves every node partly free"
        );
        e.fail_node(node);
        assert!(e.slots().iter().all(|s| s.node() != node));
        e.restore_node(node);
        let free_after: i64 = e
            .slots()
            .iter()
            .filter(|s| s.node() == node)
            .map(|s| s.length().ticks())
            .sum();
        assert_eq!(
            free_after,
            e.interval().length().ticks(),
            "restored node comes back fully idle"
        );
    }

    #[test]
    fn degrade_node_updates_slot_attributes() {
        use slotsel_core::node::{NodeId, Performance};
        let mut e = env(33);
        let node = NodeId(7);
        e.degrade_node(node, Performance::new(1));
        assert_eq!(e.platform().node(node).performance(), Performance::new(1));
        for slot in e.slots().iter().filter(|s| s.node() == node) {
            assert_eq!(slot.performance(), Performance::new(1));
        }
    }

    #[test]
    fn vec_and_tree_stores_generate_identical_slots() {
        let mut cfg = EnvironmentConfig::paper_default();
        cfg.store = SlotStoreKind::Vec;
        let vec_env = cfg.generate(&mut StdRng::seed_from_u64(40));
        cfg.store = SlotStoreKind::Tree;
        let tree_env = cfg.generate(&mut StdRng::seed_from_u64(40));
        assert_eq!(vec_env.slots().store_kind(), SlotStoreKind::Vec);
        assert_eq!(tree_env.slots().store_kind(), SlotStoreKind::Tree);
        assert_eq!(
            vec_env.slots(),
            tree_env.slots(),
            "the store choice must not change the generated slot set"
        );
    }

    #[test]
    fn incremental_perturbations_match_full_rebuild() {
        use slotsel_core::node::{NodeId, Performance};
        let mut e = env(41);
        e.revoke(
            NodeId(2),
            Interval::new(TimePoint::new(50), TimePoint::new(150)),
        );
        e.fail_node(NodeId(5));
        e.degrade_node(NodeId(9), Performance::new(1));
        // Ids differ (incremental refresh allocates fresh ones; a full
        // rebuild restarts from zero), but the slot *content* must agree.
        let content = |slots: &SlotList| {
            let mut v: Vec<_> = slots
                .iter()
                .map(|s| {
                    (
                        s.node(),
                        s.start().ticks(),
                        s.end().ticks(),
                        s.performance(),
                        s.price_per_unit(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        let incremental = content(e.slots());
        let mut rebuilt = e.clone();
        rebuilt.rebuild_slots();
        assert_eq!(incremental, content(rebuilt.slots()));
        assert!(e.slots().is_sorted());
    }

    #[test]
    #[should_panic(expected = "no schedule for")]
    fn revoke_unknown_node_panics() {
        use slotsel_core::node::NodeId;
        let mut e = env(34);
        e.revoke(
            NodeId(9_999),
            Interval::new(TimePoint::new(0), TimePoint::new(10)),
        );
    }
}
