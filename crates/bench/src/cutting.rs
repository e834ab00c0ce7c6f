//! Shared fixture and operation rounds for the cut/release/rebuild
//! scaling benchmarks.
//!
//! Both the `bench` binary's `cutting` report section and the criterion
//! `cutting` bench drive the same deterministic workload so their numbers
//! are comparable: a synthetic free-slot pool of [`SLOTS_PER_NODE`] slots
//! per node (100 000 nodes ≈ one million slots) mutated by two rounds that
//! mirror what the simulators actually do to a live list:
//!
//! - [`cut_release_round`] — the reservation lifecycle: cut a window out
//!   of a slot's middle, then release the span straight back (CSA's
//!   cutting plus the serve daemon's cancellation path);
//! - [`node_refresh_round`] — the perturbation path: drop one node's
//!   slots and re-add its schedule, the incremental rebuild the
//!   environment performs on revoke/fail/restore;
//! - [`advance_round`] — the live service's clock advance: grow every
//!   node's free time past the horizon and trim what slipped into the
//!   past, one [`SlotList::advance_horizon`] pass per step.
//!
//! Every round is a pure function of the list state, so running the same
//! rounds against a `Vec`-backed and a tree-backed copy must leave the two
//! lists equal — callers assert that to turn each benchmark run into a
//! cross-check.

use slotsel_core::rng::SplitMix64;
use slotsel_core::{
    Interval, Money, NodeId, NodeSpec, Performance, Platform, Slot, SlotId, SlotList,
    SlotStoreKind, TimeDelta, TimePoint,
};

/// Free slots per node in the scaling fixture; 100 000 nodes ≈ 10⁶ slots.
pub const SLOTS_PER_NODE: u64 = 10;

/// Performance and price of a fixture node — deterministic in the node id
/// so refresh rounds can rebuild a node's slots without carrying state.
#[must_use]
pub fn node_attrs(node: u64) -> (Performance, Money) {
    #[allow(clippy::cast_possible_truncation)]
    let perf = Performance::new((node % 7 + 2) as u32);
    #[allow(clippy::cast_possible_wrap)]
    let price = Money::from_millis((node % 13 + 1) as i64 * 250);
    (perf, price)
}

/// The node's free spans: [`SLOTS_PER_NODE`] disjoint jittered intervals,
/// deterministic in the node id.
#[must_use]
pub fn spans_for_node(node: u64) -> Vec<Interval> {
    let mut rng = SplitMix64::new(0xC077_1209 ^ node);
    let mut spans = Vec::with_capacity(SLOTS_PER_NODE as usize);
    #[allow(clippy::cast_possible_wrap)]
    let mut cursor = (node % 257) as i64;
    for _ in 0..SLOTS_PER_NODE {
        #[allow(clippy::cast_possible_wrap)]
        let gap = rng.next_below(40) as i64 + 10;
        #[allow(clippy::cast_possible_wrap)]
        let len = rng.next_below(120) as i64 + 40;
        cursor += gap;
        spans.push(Interval::new(
            TimePoint::new(cursor),
            TimePoint::new(cursor + len),
        ));
        cursor += len;
    }
    spans
}

/// Builds the scaling fixture on the requested store: `nodes` nodes with
/// [`SLOTS_PER_NODE`] slots each, ids assigned in schedule order.
#[must_use]
pub fn fixture(nodes: u64, kind: SlotStoreKind) -> SlotList {
    let mut slots = Vec::with_capacity((nodes * SLOTS_PER_NODE) as usize);
    for node in 0..nodes {
        let (perf, price) = node_attrs(node);
        for span in spans_for_node(node) {
            #[allow(clippy::cast_possible_truncation)]
            let slot = Slot::new(
                SlotId(slots.len() as u64),
                NodeId(node as u32),
                span,
                perf,
                price,
            );
            slots.push(slot);
        }
    }
    SlotList::from_slots_in(kind, slots)
}

/// The platform matching [`fixture`]'s node attributes.
#[must_use]
pub fn platform(nodes: u64) -> Platform {
    (0..nodes)
        .map(|node| {
            let (perf, price) = node_attrs(node);
            #[allow(clippy::cast_possible_truncation)]
            NodeSpec::builder(node as u32)
                .performance(perf)
                .price_per_unit(price)
                .build()
        })
        .collect()
}

/// Cuts the middle half out of `rounds` slots spread evenly across the
/// list, releasing each reserved span straight back. The release
/// coalesces with both remainder pieces, so the slot spans are restored
/// (under fresh ids) and the round can repeat indefinitely.
pub fn cut_release_round(list: &mut SlotList, rounds: u64) {
    for i in 0..rounds {
        #[allow(clippy::cast_possible_truncation)]
        let index = (((i * 2 + 1) * list.len() as u64) / (rounds * 2)) as usize % list.len();
        let slot = *list.nth(index).expect("index is below len");
        if slot.length().ticks() < 4 {
            continue;
        }
        let quarter = slot.length() / 4;
        let reserved = Interval::new(slot.start() + quarter, slot.end() - quarter);
        list.cut(&[(slot.id(), reserved)], TimeDelta::ZERO)
            .expect("reserved span is inside the slot");
        list.release(
            slot.node(),
            reserved,
            slot.performance(),
            slot.price_per_unit(),
        );
    }
}

/// Drops and re-adds the full schedule of `rounds` nodes spread evenly
/// across the platform — the incremental per-node refresh the environment
/// runs after a revocation or failure.
pub fn node_refresh_round(list: &mut SlotList, nodes: u64, rounds: u64) {
    for i in 0..rounds {
        let node = (i * nodes / rounds) % nodes;
        #[allow(clippy::cast_possible_truncation)]
        let node_id = NodeId(node as u32);
        let removed = list.remove_node_slots(node_id);
        assert_eq!(
            removed as u64, SLOTS_PER_NODE,
            "fixture node {node} must hold its full schedule"
        );
        let (perf, price) = node_attrs(node);
        for span in spans_for_node(node) {
            list.add(node_id, span, perf, price);
        }
    }
}

/// Moves the list's rolling horizon forward one tick `rounds` times, as
/// the live service's cycle does: each step grows every node of
/// `platform` past the horizon and trims the free time before the clock.
/// The horizon starts at the latest slot end and the clock at the first
/// slot's start, so the round is a pure function of the list state.
pub fn advance_round(list: &mut SlotList, platform: &Platform, rounds: u64) {
    let Some(first) = list.nth(0) else {
        return;
    };
    let mut now = first.start();
    let mut horizon = list
        .iter()
        .map(Slot::end)
        .max()
        .expect("the list is non-empty");
    for _ in 0..rounds {
        let grown = Interval::new(horizon, horizon + TimeDelta::new(1));
        horizon = grown.end();
        now += TimeDelta::new(1);
        list.advance_horizon(platform, grown, now);
    }
}

/// Rounds per timed sample: scaled down at the million-slot tier where a
/// single `Vec` round already spans many milliseconds, and up at the
/// small tiers where the tree side would otherwise finish in timer noise.
#[must_use]
pub fn rounds_for(slots: usize) -> u64 {
    if slots >= 500_000 {
        16
    } else if slots >= 50_000 {
        64
    } else {
        256
    }
}

/// Advance steps per timed sample. One step is a full O(m) pass, so a
/// sixteenth of [`rounds_for`]: a single step at the million-slot tier.
#[must_use]
pub fn advance_rounds_for(slots: usize) -> u64 {
    rounds_for(slots) / 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_leave_both_stores_identical() {
        let mut vec_list = fixture(50, SlotStoreKind::Vec);
        let mut tree_list = fixture(50, SlotStoreKind::Tree);
        assert_eq!(vec_list, tree_list);
        assert_eq!(vec_list.len() as u64, 50 * SLOTS_PER_NODE);
        for list in [&mut vec_list, &mut tree_list] {
            cut_release_round(list, 16);
            node_refresh_round(list, 50, 8);
            cut_release_round(list, 16);
            advance_round(list, &platform(50), 8);
        }
        assert_eq!(vec_list, tree_list);
        assert_eq!(vec_list.stats(), tree_list.stats());
        assert!(tree_list.is_sorted());
        assert!(tree_list.as_tree().expect("tree-backed").check_invariants());
    }

    #[test]
    fn cut_release_conserves_free_time() {
        let mut list = fixture(20, SlotStoreKind::Tree);
        let before = list.total_free_time();
        cut_release_round(&mut list, 32);
        assert_eq!(before, list.total_free_time());
    }
}
