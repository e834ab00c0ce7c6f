//! The ordered list of available slots for one scheduling cycle.
//!
//! All algorithms in this crate scan the slot list front to back exactly
//! once; their linear complexity in the number of slots `m` rests on the
//! list's ordering invariant: **slots are sorted by non-decreasing start
//! time** (ties broken by id, making iteration order deterministic).
//! [`SlotList`] owns that invariant and is the only way to hand slots to the
//! algorithms.
//!
//! The list also implements the slot *cutting* operation CSA relies on:
//! subtracting a reserved window from the free-slot set, splitting slots
//! into remainder pieces with freshly allocated ids.
//!
//! # Backing stores
//!
//! A `SlotList` is backed by one of two stores (see [`SlotStoreKind`]):
//!
//! - [`SlotStoreKind::Vec`] — a sorted `Vec<Slot>`. Simple, cache-friendly
//!   for pure scans, O(m) per mutation. This is the **oracle** store: the
//!   differential fuzzer and the property suite treat its behaviour as the
//!   specification.
//! - [`SlotStoreKind::Tree`] — the hierarchical interval tree of
//!   [`crate::treeslots`]: O(log m) cut/release/insert, O(1) `get` and
//!   aggregate queries. This is the production store for large platforms
//!   and the live service.
//!
//! Both stores present the identical `SlotList` API and produce identical
//! results — same iteration order, same freshly allocated ids, same
//! errors, same panics. `docs/PERFORMANCE.md` documents the equivalence
//! contract and measured speedups.
//!
//! The mutations, for `m` slots, `s` of them on the touched node, `k`
//! removed, and a platform of `n` nodes:
//!
//! | operation                                      | `Vec` store    | tree store        |
//! |------------------------------------------------|----------------|-------------------|
//! | [`cut`](SlotList::cut), per reservation        | O(m)           | O(log m)          |
//! | [`release`](SlotList::release)                 | O(m)           | O(s log m)        |
//! | [`prune_ended_by`](SlotList::prune_ended_by)   | O(m)           | O(k log m)        |
//! | [`advance_horizon`](SlotList::advance_horizon) | O(m + n log n) | O(m + n log n)¹   |
//!
//! ¹ Plus the tree rebuild's sort of one `u64` per slot for its per-node
//! index.
//!
//! # Examples
//!
//! ```
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeId, Performance};
//! use slotsel_core::slotlist::SlotList;
//! use slotsel_core::time::{Interval, TimePoint};
//!
//! let mut list = SlotList::new();
//! list.add(
//!     NodeId(0),
//!     Interval::new(TimePoint::new(20), TimePoint::new(120)),
//!     Performance::new(4),
//!     Money::from_f64(4.0),
//! );
//! list.add(
//!     NodeId(1),
//!     Interval::new(TimePoint::new(0), TimePoint::new(90)),
//!     Performance::new(8),
//!     Money::from_f64(8.3),
//! );
//! // Iteration respects the ordering invariant regardless of insertion order.
//! let starts: Vec<i64> = list.iter().map(|s| s.start().ticks()).collect();
//! assert_eq!(starts, vec![0, 20]);
//! ```

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value, Writer};

use crate::error::CutError;
use crate::money::Money;
use crate::node::{NodeId, Performance, Platform};
use crate::slot::{Slot, SlotId};
use crate::time::{Interval, TimeDelta, TimePoint};
use crate::treeslots::{TreeIter, TreeSlots};

/// Which backing store a [`SlotList`] uses.
///
/// The two stores are operation-for-operation equivalent; the choice only
/// trades mutation complexity against scan constant factors. See the
/// [module documentation](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotStoreKind {
    /// Sorted `Vec<Slot>` — the canonical oracle store. O(m) mutations.
    Vec,
    /// Arena treap with subtree aggregates — the production store.
    /// O(log m) mutations, O(1) aggregate queries.
    Tree,
}

impl Default for SlotStoreKind {
    /// The production default. [`SlotList::new`] still starts `Vec`-backed
    /// — the oracle store stays the baseline for hand-built lists — while
    /// generated environments default to the tree.
    fn default() -> Self {
        SlotStoreKind::Tree
    }
}

impl fmt::Display for SlotStoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SlotStoreKind::Vec => "vec",
            SlotStoreKind::Tree => "tree",
        })
    }
}

/// The backing storage of a [`SlotList`].
#[derive(Debug, Clone)]
enum Backend {
    /// Sorted by `(start, id)`.
    Vec(Vec<Slot>),
    Tree(TreeSlots),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Vec(Vec::new())
    }
}

fn insert_sorted(slots: &mut Vec<Slot>, slot: Slot) {
    let key = (slot.start(), slot.id());
    let pos = slots.partition_point(|s| (s.start(), s.id()) < key);
    slots.insert(pos, slot);
}

/// An ordered collection of available [`Slot`]s.
///
/// See the [module documentation](self) for the ordering invariant and the
/// two backing stores.
#[derive(Debug, Clone, Default)]
pub struct SlotList {
    backend: Backend,
    next_id: u64,
}

impl SlotList {
    /// Creates an empty, `Vec`-backed slot list.
    #[must_use]
    pub fn new() -> Self {
        SlotList::default()
    }

    /// Creates an empty list with the given backing store.
    #[must_use]
    pub fn with_store(kind: SlotStoreKind) -> Self {
        let mut list = SlotList::new();
        list.convert(kind);
        list
    }

    /// Creates a `Vec`-backed list from pre-built slots, sorting them and
    /// continuing id allocation after the largest id present.
    #[must_use]
    pub fn from_slots(slots: Vec<Slot>) -> Self {
        SlotList::from_slots_in(SlotStoreKind::Vec, slots)
    }

    /// Creates a list with the given backing store from pre-built slots,
    /// sorting them and continuing id allocation after the largest id
    /// present. The tree store is bulk-built in O(m).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`SlotStoreKind::Tree`] and the slots contain a
    /// duplicate id (the tree indexes slots by id; the `Vec` store accepts
    /// duplicates silently).
    #[must_use]
    pub fn from_slots_in(kind: SlotStoreKind, mut slots: Vec<Slot>) -> Self {
        slots.sort_by_key(|s| (s.start(), s.id()));
        let next_id = slots.iter().map(|s| s.id().0 + 1).max().unwrap_or(0);
        let backend = match kind {
            SlotStoreKind::Vec => Backend::Vec(slots),
            SlotStoreKind::Tree => Backend::Tree(TreeSlots::from_sorted_slots(&slots)),
        };
        SlotList { backend, next_id }
    }

    /// Rebuilds a list on the given store from its slots in iteration
    /// order and the id its next allocation takes: the logical content
    /// [`digest`](Self::digest) covers, without re-deriving the id
    /// counter (ids a list has spent stay spent). The caller supplies the
    /// slots in strictly increasing `(start, id)` order, every id below
    /// `next_id`; the `Vec` store takes that on trust, as the wire decoder
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`SlotStoreKind::Tree`] and the slots are out
    /// of order or repeat an id.
    #[must_use]
    pub fn from_parts(kind: SlotStoreKind, slots: Vec<Slot>, next_id: SlotId) -> Self {
        let backend = match kind {
            SlotStoreKind::Vec => Backend::Vec(slots),
            SlotStoreKind::Tree => Backend::Tree(TreeSlots::from_sorted_slots(&slots)),
        };
        SlotList {
            backend,
            next_id: next_id.0,
        }
    }

    /// The kind of backing store currently in use.
    #[must_use]
    pub fn store_kind(&self) -> SlotStoreKind {
        match self.backend {
            Backend::Vec(_) => SlotStoreKind::Vec,
            Backend::Tree(_) => SlotStoreKind::Tree,
        }
    }

    /// The tree store behind this list, when tree-backed — the hook the
    /// AEP scan uses to drive the aggregate-pruned cursor
    /// ([`TreeSlots::pruned_iter`]).
    #[must_use]
    pub fn as_tree(&self) -> Option<&TreeSlots> {
        match &self.backend {
            Backend::Vec(_) => None,
            Backend::Tree(tree) => Some(tree),
        }
    }

    /// Rebuilds the list onto the given backing store, preserving the slot
    /// set and the id counter. A no-op when the store already matches.
    /// O(m) either way.
    pub fn convert(&mut self, kind: SlotStoreKind) {
        if self.store_kind() == kind {
            return;
        }
        self.backend = match (&self.backend, kind) {
            (Backend::Tree(tree), SlotStoreKind::Vec) => Backend::Vec(tree.to_sorted_vec()),
            (Backend::Vec(slots), SlotStoreKind::Tree) => {
                Backend::Tree(TreeSlots::from_sorted_slots(slots))
            }
            _ => unreachable!("store kind matches were handled above"),
        };
    }

    /// Adds a new slot, allocating its id, and returns the id.
    pub fn add(
        &mut self,
        node: NodeId,
        span: Interval,
        performance: Performance,
        price_per_unit: Money,
    ) -> SlotId {
        let id = SlotId(self.next_id);
        self.next_id += 1;
        let slot = Slot::new(id, node, span, performance, price_per_unit);
        match &mut self.backend {
            Backend::Vec(slots) => insert_sorted(slots, slot),
            Backend::Tree(tree) => tree.insert(slot),
        }
        id
    }

    /// The id the next allocated slot will receive.
    #[must_use]
    pub fn next_id(&self) -> SlotId {
        SlotId(self.next_id)
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Vec(slots) => slots.len(),
            Backend::Tree(tree) => tree.len(),
        }
    }

    /// Returns `true` when there are no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over slots in non-decreasing start order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.backend {
            Backend::Vec(slots) => IterInner::Vec(slots.iter()),
            Backend::Tree(tree) => IterInner::Tree(tree.iter()),
        })
    }

    /// A 64-bit FNV-1a digest of the list's logical content: each slot's
    /// id, node and span in iteration order, then the next id to
    /// allocate. Lists that compare equal digest alike, whichever store
    /// backs them. Performance and price are left out: they are fixed per
    /// node by the platform.
    #[must_use]
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |word: u64| hash = (hash ^ word).wrapping_mul(PRIME);
        for slot in self.iter() {
            feed(slot.id().0);
            feed(u64::from(slot.node().0));
            feed(slot.start().ticks() as u64);
            feed(slot.end().ticks() as u64);
        }
        feed(self.next_id);
        hash
    }

    /// Collects the slots into a fresh sorted vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Slot> {
        match &self.backend {
            Backend::Vec(slots) => slots.clone(),
            Backend::Tree(tree) => tree.to_sorted_vec(),
        }
    }

    /// The `index`-th slot in iteration order — O(1) on the `Vec` store,
    /// O(log m) on the tree (order-statistics descent on subtree counts).
    #[must_use]
    pub fn nth(&self, index: usize) -> Option<&Slot> {
        match &self.backend {
            Backend::Vec(slots) => slots.get(index),
            Backend::Tree(tree) => tree.nth(index),
        }
    }

    /// Finds a slot by id — a linear scan on the `Vec` store, O(1) via the
    /// id index on the tree.
    #[must_use]
    pub fn get(&self, id: SlotId) -> Option<&Slot> {
        match &self.backend {
            Backend::Vec(slots) => slots.iter().find(|s| s.id() == id),
            Backend::Tree(tree) => tree.get(id),
        }
    }

    /// The first slot (in iteration order) on `node` whose span contains
    /// `span` — a linear scan on the `Vec` store, an indexed O(log m)
    /// lookup on the tree.
    #[must_use]
    pub fn find_covering(&self, node: NodeId, span: Interval) -> Option<&Slot> {
        match &self.backend {
            Backend::Vec(slots) => slots
                .iter()
                .find(|s| s.node() == node && s.span().contains_interval(&span)),
            Backend::Tree(tree) => tree.find_covering(node, span),
        }
    }

    /// Sum of all slot lengths — the platform's total free node-time.
    /// O(m) on the `Vec` store, O(1) from the root aggregate on the tree.
    #[must_use]
    pub fn total_free_time(&self) -> TimeDelta {
        match &self.backend {
            Backend::Vec(slots) => slots.iter().map(Slot::length).sum(),
            Backend::Tree(tree) => tree.total_free_time(),
        }
    }

    /// Removes slots for which `keep` returns `false`, preserving order.
    pub fn retain<F: FnMut(&Slot) -> bool>(&mut self, mut keep: F) {
        match &mut self.backend {
            Backend::Vec(slots) => slots.retain(keep),
            Backend::Tree(tree) => {
                let doomed: Vec<SlotId> = tree
                    .iter()
                    .filter(|slot| !keep(slot))
                    .map(Slot::id)
                    .collect();
                for id in doomed {
                    tree.remove(id);
                }
            }
        }
    }

    /// Removes every slot whose span ends at or before `cutoff`, returning
    /// how many were dropped. Equivalent to
    /// `retain(|slot| slot.end() > cutoff)`, but the tree store prunes
    /// untouched subtrees via its `min_end` aggregate: O(k log m) for `k`
    /// expired slots instead of O(m).
    pub fn prune_ended_by(&mut self, cutoff: TimePoint) -> usize {
        match &mut self.backend {
            Backend::Vec(slots) => {
                let before = slots.len();
                slots.retain(|slot| slot.end() > cutoff);
                before - slots.len()
            }
            Backend::Tree(tree) => tree.prune_ended_by(cutoff),
        }
    }

    /// Removes every slot of `node`, returning how many were dropped —
    /// O(m) on the `Vec` store, O(s log m) for the node's `s` slots on the
    /// tree. The building block of incremental per-node rebuilds after
    /// disruptions.
    pub fn remove_node_slots(&mut self, node: NodeId) -> usize {
        match &mut self.backend {
            Backend::Vec(slots) => {
                let before = slots.len();
                slots.retain(|slot| slot.node() != node);
                before - slots.len()
            }
            Backend::Tree(tree) => tree.remove_node(node),
        }
    }

    /// Subtracts reserved spans from the free-slot set.
    ///
    /// For every `(slot id, reserved interval)` pair the identified slot is
    /// removed and its uncovered remainder (0, 1 or 2 pieces) is re-inserted
    /// under fresh ids. This is CSA's "cutting of a suitable window from the
    /// list of available slots".
    ///
    /// Pieces shorter than `min_piece` are dropped — they can never host a
    /// task and would only slow subsequent scans. Pass [`TimeDelta::ZERO`]
    /// to keep everything.
    ///
    /// Complexity per reservation: O(m) on the `Vec` store, O(log m) on
    /// the tree.
    ///
    /// # Errors
    ///
    /// Returns [`CutError::UnknownSlot`] if an id is not (or no longer) in
    /// the list, and [`CutError::OutOfSpan`] if a reserved interval is not
    /// fully inside its slot. On error the list is left unchanged.
    pub fn cut(
        &mut self,
        reservations: &[(SlotId, Interval)],
        min_piece: TimeDelta,
    ) -> Result<(), CutError> {
        // Validate first so failure cannot leave the list half-cut.
        for &(id, reserved) in reservations {
            let slot = self.get(id).ok_or(CutError::UnknownSlot(id))?;
            if !slot.span().contains_interval(&reserved) {
                return Err(CutError::OutOfSpan {
                    slot: id,
                    requested: reserved,
                    span: slot.span(),
                });
            }
        }
        for &(id, reserved) in reservations {
            let slot = match &mut self.backend {
                Backend::Vec(slots) => {
                    let pos = slots
                        .iter()
                        .position(|s| s.id() == id)
                        .expect("validated above");
                    slots.remove(pos)
                }
                Backend::Tree(tree) => tree.remove(id).expect("validated above"),
            };
            for piece in slot.span().subtract(&reserved) {
                if piece.length() >= min_piece && piece.length().is_positive() {
                    let piece_id = SlotId(self.next_id);
                    self.next_id += 1;
                    let piece_slot = slot.with_span(piece_id, piece);
                    match &mut self.backend {
                        Backend::Vec(slots) => insert_sorted(slots, piece_slot),
                        Backend::Tree(tree) => tree.insert(piece_slot),
                    }
                }
            }
        }
        Ok(())
    }

    /// Returns a reserved span to the free pool, merging it with any free
    /// slots on the same node that touch it — the inverse of [`cut`](Self::cut),
    /// used when a reservation is cancelled before execution.
    ///
    /// The merged slot receives a fresh id; the absorbed neighbours' ids are
    /// retired. Performance and price for the released span are taken from
    /// the given attributes (normally the owning node's).
    ///
    /// Complexity: O(m) on the `Vec` store, O(s log m) for the node's `s`
    /// slots on the tree.
    ///
    /// # Panics
    ///
    /// Panics if the released span overlaps an existing free slot on the
    /// node — that would mean releasing time that was never reserved.
    pub fn release(
        &mut self,
        node: NodeId,
        span: Interval,
        performance: Performance,
        price_per_unit: Money,
    ) -> SlotId {
        if span.is_empty() {
            // Nothing to return; still allocate an id for API uniformity.
            return self.add(node, span, performance, price_per_unit);
        }
        // Absorb free neighbours that touch the released span. Both arms
        // visit the node's slots in (start, id) order, so the single-pass
        // absorption semantics are identical.
        let mut start = span.start();
        let mut end = span.end();
        let mut absorbed = Vec::new();
        match &mut self.backend {
            Backend::Vec(slots) => {
                for slot in slots.iter() {
                    assert!(
                        slot.node() != node || !slot.span().overlaps(&span),
                        "released span {span} overlaps free slot {slot}"
                    );
                }
                for slot in slots.iter() {
                    if slot.node() != node {
                        continue;
                    }
                    if slot.end() == start {
                        start = slot.start();
                        absorbed.push(slot.id());
                    } else if slot.start() == end {
                        end = slot.end();
                        absorbed.push(slot.id());
                    }
                }
                slots.retain(|s| !absorbed.contains(&s.id()));
            }
            Backend::Tree(tree) => {
                for slot in tree.node_slots(node) {
                    assert!(
                        !slot.span().overlaps(&span),
                        "released span {span} overlaps free slot {slot}"
                    );
                }
                for slot in tree.node_slots(node) {
                    if slot.end() == start {
                        start = slot.start();
                        absorbed.push(slot.id());
                    } else if slot.start() == end {
                        end = slot.end();
                        absorbed.push(slot.id());
                    }
                }
                for id in &absorbed {
                    tree.remove(*id);
                }
            }
        }
        self.add(node, Interval::new(start, end), performance, price_per_unit)
    }

    /// Moves a rolling horizon forward in one O(m + n log n) pass over the
    /// `m` slots and the platform's `n` nodes: every platform node becomes
    /// free over `grown` (the span past the old horizon), then free time
    /// before `now` is trimmed away.
    ///
    /// The result — slot ids and `next_id` included — is exactly what this
    /// incremental sequence produces, so lists advanced either way digest
    /// alike:
    ///
    /// 1. [`release`](Self::release) of `grown` on each platform node, in
    ///    platform order: node `i` gets the `i`-th fresh id for `grown`
    ///    merged with its free slots touching it;
    /// 2. [`prune_ended_by`](Self::prune_ended_by)`(now)`;
    /// 3. one [`cut`](Self::cut) of `[start, now)` from each remaining slot
    ///    starting before `now`, in `(start, id)` order, each remainder
    ///    `[now, end)` taking the next fresh id.
    ///
    /// Both stores are rebuilt from the resulting sorted run, the tree
    /// with [`TreeSlots::from_sorted_slots`]. Slots on nodes outside the
    /// platform are only pruned and trimmed.
    ///
    /// # Panics
    ///
    /// Panics if `grown` is empty, or if a slot on a platform node ends
    /// past `grown.start()`: the old horizon bounds every node's free
    /// time, and releasing `grown` over a slot reaching beyond it would
    /// return time that is already free, which [`release`](Self::release)
    /// refuses too.
    pub fn advance_horizon(&mut self, platform: &Platform, grown: Interval, now: TimePoint) {
        assert!(!grown.is_empty(), "the grown horizon span {grown} is empty");
        let horizon = grown.start();
        // Per platform node (ids are dense, so the id is the index): where
        // its released slot starts once the free slots touching `grown`
        // are absorbed. The walk is in (start, id) order, as release's is.
        let mut starts = vec![horizon; platform.len()];
        let mut slots = Vec::with_capacity(self.len() + platform.len());
        for slot in self.iter() {
            if let Some(start) = starts.get_mut(slot.node().0 as usize) {
                assert!(
                    slot.end() <= horizon,
                    "free slot {slot} runs past the horizon {horizon}"
                );
                if slot.end() == *start {
                    *start = slot.start();
                    continue;
                }
            }
            if slot.end() > now {
                slots.push(*slot);
            }
        }
        // Node `i` releases under the `i`-th fresh id; a released slot
        // that ends by `now` is pruned at once, its id still spent.
        let mut fresh = self.next_id;
        for (node, &start) in platform.iter().zip(&starts) {
            if grown.end() > now {
                slots.push(Slot::new(
                    SlotId(fresh),
                    node.id(),
                    Interval::new(start, grown.end()),
                    node.performance(),
                    node.price_per_unit(),
                ));
            }
            fresh += 1;
        }
        // The survivors are one sorted run and the released slots another;
        // the run-adaptive stable sort merges them.
        slots.sort_by_key(|slot| (slot.start(), slot.id()));
        // Trim the stale prefix. Its remainders start at `now` under ids
        // newer than any other slot's, so they follow the slots that
        // already start at `now`.
        let stale = slots.partition_point(|slot| slot.start() < now);
        let at_now = stale + slots[stale..].partition_point(|slot| slot.start() == now);
        for slot in &mut slots[..stale] {
            *slot = slot.with_span(SlotId(fresh), Interval::new(now, slot.end()));
            fresh += 1;
        }
        slots[..at_now].rotate_left(stale);
        self.next_id = fresh;
        self.backend = match self.backend {
            Backend::Vec(_) => Backend::Vec(slots),
            Backend::Tree(_) => Backend::Tree(TreeSlots::from_sorted_slots(&slots)),
        };
    }

    /// Fragmentation statistics of the free-slot set — how broken up the
    /// platform's free time is, which governs how hard co-allocation will
    /// be for a given request.
    #[must_use]
    pub fn stats(&self) -> SlotListStats {
        let mut nodes: Vec<NodeId> = self.iter().map(Slot::node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let lengths: Vec<i64> = self.iter().map(|s| s.length().ticks()).collect();
        let total: i64 = lengths.iter().sum();
        SlotListStats {
            slots: self.len(),
            nodes_with_slots: nodes.len(),
            total_free_time: TimeDelta::new(total),
            mean_length: if lengths.is_empty() {
                0.0
            } else {
                total as f64 / lengths.len() as f64
            },
            min_length: lengths.iter().copied().min().map(TimeDelta::new),
            max_length: lengths.iter().copied().max().map(TimeDelta::new),
        }
    }

    /// Checks the ordering invariant. Exposed for tests and debug assertions.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        self.iter().map(|s| (s.start(), s.id())).is_sorted()
    }
}

/// Fragmentation statistics of a [`SlotList`], from [`SlotList::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotListStats {
    /// Number of free slots.
    pub slots: usize,
    /// Number of distinct nodes contributing at least one slot.
    pub nodes_with_slots: usize,
    /// Summed free time.
    pub total_free_time: TimeDelta,
    /// Mean slot length (0 for an empty list).
    pub mean_length: f64,
    /// Shortest slot, if any.
    pub min_length: Option<TimeDelta>,
    /// Longest slot, if any.
    pub max_length: Option<TimeDelta>,
}

/// Iterator over a [`SlotList`] in `(start, id)` order, from
/// [`SlotList::iter`]. Dispatches to the backing store's iterator.
#[derive(Debug, Clone)]
pub struct Iter<'a>(IterInner<'a>);

#[derive(Debug, Clone)]
enum IterInner<'a> {
    Vec(std::slice::Iter<'a, Slot>),
    Tree(TreeIter<'a>),
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Slot;

    fn next(&mut self) -> Option<&'a Slot> {
        match &mut self.0 {
            IterInner::Vec(iter) => iter.next(),
            IterInner::Tree(iter) => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterInner::Vec(iter) => iter.size_hint(),
            IterInner::Tree(iter) => iter.size_hint(),
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Equality is logical: two lists are equal when they hold the same slots
/// in the same order and agree on the next id to allocate — regardless of
/// which store backs each side.
impl PartialEq for SlotList {
    fn eq(&self, other: &Self) -> bool {
        self.next_id == other.next_id && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for SlotList {}

/// Serializes as `{"slots": [...], "next_id": n}` — the layout the derive
/// produced when the list was a plain struct, so journals and fuzz corpora
/// written before the store split deserialize unchanged. The store kind is
/// deliberately *not* part of the wire format: it is a runtime tuning
/// choice, not data.
impl Serialize for SlotList {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.key("slots");
        out.begin_array();
        for slot in self.iter() {
            slot.serialize(out);
        }
        out.end_array();
        out.field("next_id", &self.next_id);
        out.end_object();
    }
}

/// Deserializes onto the `Vec` store (the canonical baseline); callers
/// that want the tree call [`SlotList::convert`] afterwards. Slot order is
/// taken verbatim from the input, as the derive did.
impl Deserialize for SlotList {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", value))?;
        let slots = serde::__find(fields, "slots")
            .ok_or_else(|| DeError::missing_field("SlotList", "slots"))
            .and_then(|v| {
                Vec::<Slot>::from_value(v).map_err(|e| e.in_field("SlotList", "slots"))
            })?;
        let next_id = serde::__find(fields, "next_id")
            .ok_or_else(|| DeError::missing_field("SlotList", "next_id"))
            .and_then(|v| u64::from_value(v).map_err(|e| e.in_field("SlotList", "next_id")))?;
        Ok(SlotList {
            backend: Backend::Vec(slots),
            next_id,
        })
    }
}

impl<'a> IntoIterator for &'a SlotList {
    type Item = &'a Slot;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Slot> for SlotList {
    fn from_iter<I: IntoIterator<Item = Slot>>(iter: I) -> Self {
        SlotList::from_slots(iter.into_iter().collect())
    }
}

/// Inserts pre-built slots, bumping the id counter past each. On a
/// tree-backed list a duplicate id panics (the `Vec` store accepts
/// duplicates silently).
impl Extend<Slot> for SlotList {
    fn extend<I: IntoIterator<Item = Slot>>(&mut self, iter: I) {
        for slot in iter {
            self.next_id = self.next_id.max(slot.id().0 + 1);
            match &mut self.backend {
                Backend::Vec(slots) => insert_sorted(slots, slot),
                Backend::Tree(tree) => tree.insert(slot),
            }
        }
    }
}

impl fmt::Display for SlotList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SlotList ({} slots):", self.len())?;
        for slot in self {
            writeln!(f, "  {slot}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(TimePoint::new(a), TimePoint::new(b))
    }

    fn list_of_in(kind: SlotStoreKind, spans: &[(i64, i64)]) -> SlotList {
        let mut list = SlotList::with_store(kind);
        for (i, &(a, b)) in spans.iter().enumerate() {
            list.add(
                NodeId(i as u32),
                iv(a, b),
                Performance::new(2),
                Money::from_units(1),
            );
        }
        list
    }

    fn list_of(spans: &[(i64, i64)]) -> SlotList {
        list_of_in(SlotStoreKind::Vec, spans)
    }

    /// Runs a test body against both backing stores.
    fn for_both(test: impl Fn(SlotStoreKind)) {
        test(SlotStoreKind::Vec);
        test(SlotStoreKind::Tree);
    }

    #[test]
    fn add_keeps_sorted_order() {
        for_both(|kind| {
            let list = list_of_in(kind, &[(50, 60), (0, 10), (20, 30)]);
            assert!(list.is_sorted());
            let starts: Vec<i64> = list.iter().map(|s| s.start().ticks()).collect();
            assert_eq!(starts, vec![0, 20, 50]);
        });
    }

    #[test]
    fn from_slots_sorts_and_continues_ids() {
        for_both(|kind| {
            let slots = vec![
                Slot::new(
                    SlotId(7),
                    NodeId(0),
                    iv(30, 40),
                    Performance::new(2),
                    Money::ZERO,
                ),
                Slot::new(
                    SlotId(3),
                    NodeId(1),
                    iv(0, 10),
                    Performance::new(2),
                    Money::ZERO,
                ),
            ];
            let mut list = SlotList::from_slots_in(kind, slots);
            assert!(list.is_sorted());
            let new_id = list.add(NodeId(2), iv(5, 15), Performance::new(2), Money::ZERO);
            assert_eq!(new_id, SlotId(8), "ids continue after the maximum");
        });
    }

    #[test]
    fn ties_on_start_are_ordered_by_id() {
        for_both(|kind| {
            let list = list_of_in(kind, &[(0, 10), (0, 20), (0, 30)]);
            let ids: Vec<u64> = list.iter().map(|s| s.id().0).collect();
            assert_eq!(ids, vec![0, 1, 2]);
        });
    }

    #[test]
    fn total_free_time_sums_lengths() {
        for_both(|kind| {
            let list = list_of_in(kind, &[(0, 10), (20, 50)]);
            assert_eq!(list.total_free_time(), TimeDelta::new(40));
        });
    }

    #[test]
    fn cut_middle_produces_two_pieces() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 100)]);
            let id = list.iter().next().unwrap().id();
            list.cut(&[(id, iv(40, 60))], TimeDelta::ZERO).unwrap();
            assert_eq!(list.len(), 2);
            let spans: Vec<(i64, i64)> = list
                .iter()
                .map(|s| (s.start().ticks(), s.end().ticks()))
                .collect();
            assert_eq!(spans, vec![(0, 40), (60, 100)]);
            assert!(list.is_sorted());
            assert!(list.get(id).is_none(), "the original slot is gone");
        });
    }

    #[test]
    fn cut_prefix_keeps_suffix_only() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(10, 100)]);
            let id = list.iter().next().unwrap().id();
            list.cut(&[(id, iv(10, 30))], TimeDelta::ZERO).unwrap();
            assert_eq!(list.len(), 1);
            let s = *list.iter().next().unwrap();
            assert_eq!((s.start().ticks(), s.end().ticks()), (30, 100));
        });
    }

    #[test]
    fn cut_whole_slot_removes_it() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 50)]);
            let id = list.iter().next().unwrap().id();
            list.cut(&[(id, iv(0, 50))], TimeDelta::ZERO).unwrap();
            assert!(list.is_empty());
        });
    }

    #[test]
    fn cut_drops_pieces_below_min_piece() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 100)]);
            let id = list.iter().next().unwrap().id();
            list.cut(&[(id, iv(5, 95))], TimeDelta::new(10)).unwrap();
            assert!(
                list.is_empty(),
                "both 5-long remainders are below min_piece 10"
            );
        });
    }

    #[test]
    fn cut_unknown_slot_errors_and_preserves_list() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 100)]);
            let before = list.clone();
            let err = list
                .cut(&[(SlotId(999), iv(0, 10))], TimeDelta::ZERO)
                .unwrap_err();
            assert!(matches!(err, CutError::UnknownSlot(SlotId(999))));
            assert_eq!(list, before);
        });
    }

    #[test]
    fn cut_out_of_span_errors_and_preserves_list() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(10, 100), (0, 5)]);
            let id = list.get(SlotId(0)).unwrap().id();
            let before = list.clone();
            let err = list.cut(&[(id, iv(0, 20))], TimeDelta::ZERO).unwrap_err();
            assert!(matches!(err, CutError::OutOfSpan { .. }));
            assert_eq!(list, before, "failed cut must not mutate the list");
        });
    }

    #[test]
    fn cut_pieces_get_fresh_ids() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 100)]);
            let id = list.iter().next().unwrap().id();
            list.cut(&[(id, iv(40, 60))], TimeDelta::ZERO).unwrap();
            let ids: Vec<SlotId> = list.iter().map(Slot::id).collect();
            assert!(ids.iter().all(|&i| i != id));
            assert_eq!(ids.len(), 2);
            assert_ne!(ids[0], ids[1]);
        });
    }

    #[test]
    fn retain_preserves_order() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 10), (20, 30), (40, 50)]);
            list.retain(|s| s.start().ticks() != 20);
            assert_eq!(list.len(), 2);
            assert!(list.is_sorted());
        });
    }

    #[test]
    fn release_merges_with_both_neighbours() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 100)]);
            let id = list.iter().next().unwrap().id();
            list.cut(&[(id, iv(40, 60))], TimeDelta::ZERO).unwrap();
            assert_eq!(list.len(), 2);
            let merged = list.release(
                NodeId(0),
                iv(40, 60),
                Performance::new(2),
                Money::from_units(1),
            );
            assert_eq!(list.len(), 1, "pieces coalesce back into one slot");
            let slot = list.get(merged).unwrap();
            assert_eq!((slot.start().ticks(), slot.end().ticks()), (0, 100));
            assert_eq!(list.total_free_time(), TimeDelta::new(100));
        });
    }

    #[test]
    fn release_without_neighbours_adds_a_slot() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 10)]);
            let id = list.release(
                NodeId(5),
                iv(50, 80),
                Performance::new(4),
                Money::from_units(2),
            );
            assert_eq!(list.len(), 2);
            let slot = list.get(id).unwrap();
            assert_eq!(slot.node(), NodeId(5));
            assert_eq!(slot.length(), TimeDelta::new(30));
            assert!(list.is_sorted());
        });
    }

    #[test]
    fn release_merges_prefix_only() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 40)]);
            let id = list.release(
                NodeId(0),
                iv(40, 70),
                Performance::new(2),
                Money::from_units(1),
            );
            assert_eq!(list.len(), 1);
            let slot = list.get(id).unwrap();
            assert_eq!((slot.start().ticks(), slot.end().ticks()), (0, 70));
        });
    }

    #[test]
    fn release_does_not_merge_across_nodes() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 40), (40, 80)]); // different nodes
            let id = list.release(
                NodeId(0),
                iv(40, 60),
                Performance::new(2),
                Money::from_units(1),
            );
            // Node 0's [0,40) merges with the release; node 1's [40,80) stays.
            assert_eq!(list.len(), 2);
            let merged = list.get(id).unwrap();
            assert_eq!((merged.start().ticks(), merged.end().ticks()), (0, 60));
            let other = list.iter().find(|s| s.node() == NodeId(1)).unwrap();
            assert_eq!((other.start().ticks(), other.end().ticks()), (40, 80));
        });
    }

    #[test]
    #[should_panic(expected = "overlaps free slot")]
    fn release_rejects_overlap_with_free_time() {
        let mut list = list_of(&[(0, 50)]);
        let _ = list.release(
            NodeId(0),
            iv(40, 60),
            Performance::new(2),
            Money::from_units(1),
        );
    }

    #[test]
    #[should_panic(expected = "overlaps free slot")]
    fn release_rejects_overlap_with_free_time_on_tree() {
        let mut list = list_of_in(SlotStoreKind::Tree, &[(0, 50)]);
        let _ = list.release(
            NodeId(0),
            iv(40, 60),
            Performance::new(2),
            Money::from_units(1),
        );
    }

    #[test]
    fn cut_then_release_restores_free_time() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 100), (20, 90)]);
            let before = list.total_free_time();
            let id = list.get(SlotId(0)).unwrap().id();
            list.cut(&[(id, iv(10, 30))], TimeDelta::ZERO).unwrap();
            list.release(
                NodeId(0),
                iv(10, 30),
                Performance::new(2),
                Money::from_units(1),
            );
            assert_eq!(list.total_free_time(), before);
            assert!(list.is_sorted());
        });
    }

    #[test]
    fn stats_summarise_fragmentation() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(0, 10), (20, 50), (5, 25)]);
            // Two of the three slots on distinct nodes; add one more on node 0.
            list.add(
                NodeId(0),
                iv(100, 140),
                Performance::new(2),
                Money::from_units(1),
            );
            let stats = list.stats();
            assert_eq!(stats.slots, 4);
            assert_eq!(stats.nodes_with_slots, 3);
            assert_eq!(stats.total_free_time, TimeDelta::new(10 + 30 + 20 + 40));
            assert!((stats.mean_length - 25.0).abs() < 1e-9);
            assert_eq!(stats.min_length, Some(TimeDelta::new(10)));
            assert_eq!(stats.max_length, Some(TimeDelta::new(40)));
        });
    }

    #[test]
    fn stats_of_empty_list() {
        let stats = SlotList::new().stats();
        assert_eq!(stats.slots, 0);
        assert_eq!(stats.nodes_with_slots, 0);
        assert_eq!(stats.mean_length, 0.0);
        assert_eq!(stats.min_length, None);
        assert_eq!(stats.max_length, None);
    }

    #[test]
    fn extend_and_collect() {
        for_both(|kind| {
            let mut base = list_of_in(kind, &[(0, 10)]);
            let extra = Slot::new(
                SlotId(100),
                NodeId(9),
                iv(5, 8),
                Performance::new(3),
                Money::ZERO,
            );
            base.extend([extra]);
            assert_eq!(base.len(), 2);
            assert!(base.is_sorted());
        });

        let base = list_of(&[(0, 10)]);
        let collected: SlotList = base.iter().copied().collect();
        assert_eq!(collected.len(), 1);
    }

    #[test]
    fn stores_compare_equal_and_convert_round_trips() {
        let vec_list = list_of_in(SlotStoreKind::Vec, &[(50, 60), (0, 10), (20, 30)]);
        let tree_list = list_of_in(SlotStoreKind::Tree, &[(50, 60), (0, 10), (20, 30)]);
        assert_eq!(vec_list, tree_list, "equality is store-agnostic");

        let mut converted = vec_list.clone();
        converted.convert(SlotStoreKind::Tree);
        assert_eq!(converted.store_kind(), SlotStoreKind::Tree);
        assert_eq!(converted, vec_list);
        converted.convert(SlotStoreKind::Vec);
        assert_eq!(converted.store_kind(), SlotStoreKind::Vec);
        assert_eq!(converted, vec_list);
    }

    #[test]
    fn digest_is_store_agnostic_and_sees_spans_and_ids() {
        let vec_list = list_of_in(SlotStoreKind::Vec, &[(50, 60), (0, 10), (20, 30)]);
        let tree_list = list_of_in(SlotStoreKind::Tree, &[(50, 60), (0, 10), (20, 30)]);
        assert_eq!(vec_list.digest(), tree_list.digest());
        let shifted = list_of(&[(50, 60), (0, 10), (20, 31)]);
        assert_ne!(vec_list.digest(), shifted.digest());
        // Same spans, but the next id to allocate differs.
        let mut grown = vec_list.clone();
        let id = grown.add(NodeId(0), iv(70, 80), Performance::new(1), Money::ZERO);
        grown.retain(|slot| slot.id() != id);
        assert_eq!(grown.iter().count(), vec_list.len());
        assert_ne!(vec_list.digest(), grown.digest());
    }

    #[test]
    fn converted_list_continues_the_same_ids() {
        let mut list = list_of(&[(0, 10), (20, 30)]);
        list.convert(SlotStoreKind::Tree);
        let id = list.add(NodeId(7), iv(40, 50), Performance::new(2), Money::ZERO);
        assert_eq!(id, SlotId(2), "next_id survives conversion");
    }

    #[test]
    fn serde_layout_is_store_agnostic() {
        let vec_list = list_of_in(SlotStoreKind::Vec, &[(0, 10), (20, 30)]);
        let mut tree_list = vec_list.clone();
        tree_list.convert(SlotStoreKind::Tree);
        let json = serde_json::to_string(&tree_list).unwrap();
        assert_eq!(
            serde_json::to_string(&vec_list).unwrap(),
            json,
            "the wire format must not leak the store kind"
        );
        let restored: SlotList = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.store_kind(), SlotStoreKind::Vec);
        assert_eq!(restored, tree_list);
    }

    #[test]
    fn from_parts_keeps_the_order_and_the_spent_ids() {
        for_both(|kind| {
            let mut list = list_of_in(kind, &[(50, 60), (0, 100), (20, 30)]);
            list.retain(|slot| slot.start().ticks() != 50);
            let rebuilt = SlotList::from_parts(kind, list.to_vec(), list.next_id());
            assert_eq!(rebuilt.store_kind(), kind);
            assert_eq!(rebuilt, list);
            assert_eq!(rebuilt.next_id(), SlotId(3));
            assert_eq!(rebuilt.digest(), list.digest());
        });
    }

    #[test]
    fn nth_and_find_covering_agree_across_stores() {
        for_both(|kind| {
            let list = list_of_in(kind, &[(50, 60), (0, 100), (20, 30)]);
            assert_eq!(list.nth(0).unwrap().start().ticks(), 0);
            assert_eq!(list.nth(2).unwrap().start().ticks(), 50);
            assert!(list.nth(3).is_none());
            let hit = list.find_covering(NodeId(1), iv(40, 80)).unwrap();
            assert_eq!(hit.node(), NodeId(1));
            assert!(list.find_covering(NodeId(0), iv(40, 80)).is_none());
        });
    }

    #[test]
    fn advance_horizon_grows_prunes_and_trims_under_fresh_ids() {
        use crate::node::{NodeSpec, Platform};
        for_both(|kind| {
            let slot = |id, node, a, b| {
                Slot::new(
                    SlotId(id),
                    NodeId(node),
                    iv(a, b),
                    Performance::new(2),
                    Money::ZERO,
                )
            };
            let mut list = SlotList::from_slots_in(
                kind,
                vec![
                    slot(0, 0, 0, 40),
                    slot(1, 0, 60, 100),
                    slot(2, 1, 30, 70),
                    slot(3, 2, 50, 80),
                    slot(4, 2, 90, 95),
                ],
            );
            let platform: Platform = (0..3)
                .map(|id| {
                    NodeSpec::builder(id)
                        .performance(Performance::new(2))
                        .build()
                })
                .collect();
            list.advance_horizon(&platform, iv(100, 130), TimePoint::new(50));
            // Node 0's [60, 100) merges into its release (id 5), nodes 1 and
            // 2 release bare (ids 6, 7), [0, 40) has ended, and [30, 70) is
            // trimmed to [50, 70) under id 8, after id 3 that already
            // starts at 50.
            let got: Vec<(u64, u32, i64, i64)> = list
                .iter()
                .map(|s| (s.id().0, s.node().0, s.start().ticks(), s.end().ticks()))
                .collect();
            assert_eq!(
                got,
                vec![
                    (3, 2, 50, 80),
                    (8, 1, 50, 70),
                    (5, 0, 60, 130),
                    (4, 2, 90, 95),
                    (6, 1, 100, 130),
                    (7, 2, 100, 130),
                ]
            );
            assert_eq!(list.next_id(), SlotId(9));
        });
    }

    #[test]
    fn prune_and_remove_node_match_retain() {
        for_both(|kind| {
            let mut pruned = list_of_in(kind, &[(0, 10), (5, 25), (20, 50), (30, 40)]);
            let mut retained = pruned.clone();
            let dropped = pruned.prune_ended_by(TimePoint::new(25));
            retained.retain(|s| s.end() > TimePoint::new(25));
            assert_eq!(dropped, 2);
            assert_eq!(pruned, retained);

            let mut list = list_of_in(kind, &[(0, 10), (5, 25), (20, 50)]);
            assert_eq!(list.remove_node_slots(NodeId(1)), 1);
            assert!(list.iter().all(|s| s.node() != NodeId(1)));
        });
    }
}
