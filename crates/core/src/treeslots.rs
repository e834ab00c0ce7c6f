//! The hierarchical interval-tree slot store.
//!
//! [`TreeSlots`] keeps the free-slot set of one scheduling cycle in an
//! arena-allocated treap ordered by the scan key `(start, id)` — the same
//! total order the sorted-`Vec` store and every AEP scan rely on — with
//! **subtree aggregates** maintained on every path touched by a mutation:
//! slot count, summed free time, earliest span end, latest slot start and
//! maximum work capacity (`length × rate`). Two secondary indexes complete
//! the picture: a hash map from [`SlotId`] to arena position (O(1)
//! [`TreeSlots::get`]) and an ordered per-node index (O(log m) adjacency
//! for release/coalesce and covering-slot queries).
//!
//! The resulting complexities, versus the sorted-`Vec` oracle store:
//!
//! | operation                     | `Vec` store | tree store     |
//! |-------------------------------|-------------|----------------|
//! | `insert` / `remove`           | O(m)        | O(log m)       |
//! | `get` by id                   | O(m)        | O(1)           |
//! | one cut reservation           | O(m)        | O(log m)       |
//! | release + coalesce            | O(m)        | O(log m)       |
//! | `total_free_time`, `len`      | O(m) / O(1) | O(1)           |
//! | `nth` (order statistic)       | O(1)        | O(log m)       |
//! | `find_covering(node, span)`   | O(m)        | O(log m)       |
//! | `prune_ended_by(t)` (k hits)  | O(m)        | O(k log m)     |
//! | bulk build from sorted slots  | O(m)        | O(m)¹          |
//! | clock advance (`n` nodes)     | O(m+n log n)| O(m+n log n)¹  |
//! | in-order iteration            | O(m)        | O(m)           |
//!
//! ¹ Plus one sort of a `u64` per slot, which orders the per-node index
//! for its bulk build. The clock advance
//! ([`SlotList::advance_horizon`](crate::slotlist::SlotList::advance_horizon))
//! is one pass over the list and a rebuild on either store, not a
//! mutation per node.
//!
//! ## Determinism
//!
//! Treap shape is a pure function of the stored `(key, priority)` pairs,
//! and priorities are derived from slot ids with a fixed SplitMix64 hash
//! — no RNG state, no address-based hashing. Two stores holding the same
//! slots are therefore structurally identical regardless of the insertion
//! order that produced them, and every query result (like every
//! iteration) depends only on the slot set. The `Vec`-backed store
//! remains the differential oracle: `slotsel-fuzz` drives every scenario
//! through both stores and the property suite asserts operation-for-
//! operation equivalence (see `docs/PERFORMANCE.md`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

use crate::node::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Interval, TimeDelta, TimePoint};

/// Sentinel arena index for "no child".
const NIL: u32 = u32::MAX;

/// SplitMix64 — the treap priority hash. Fixed forever: changing it would
/// change tree shapes (not results, but bench baselines) across versions.
fn priority(id: SlotId) -> u64 {
    let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The id index's hasher: SipHash with fixed keys.
type IdHasher = BuildHasherDefault<DefaultHasher>;

/// The ordering key of a slot inside the tree: `(start, id)`, exactly the
/// scan order of the sorted-`Vec` store.
type Key = (i64, u64);

fn key_of(slot: &Slot) -> Key {
    (slot.start().ticks(), slot.id().0)
}

/// Work capacity of one slot: `length × rate`, the largest volume a task
/// can complete inside it. Exact in `u128`: `length ≥ ceil(v / rate)` ⟺
/// `length × rate ≥ v`, so capacity comparisons reproduce the AEP scan's
/// "slot too short" rejection (`slot.length() < slot.time_for(volume)`)
/// bit-for-bit, without per-slot division.
fn capacity_of(slot: &Slot) -> u128 {
    slot.length().ticks().max(0) as u128 * u128::from(slot.performance().rate())
}

/// Subtree aggregates, the "hierarchical" part of the store. `of` builds
/// the aggregate of a single slot; `absorb` folds a child subtree in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Agg {
    /// Number of slots in the subtree.
    count: u32,
    /// Summed slot lengths, in ticks.
    total_len: i64,
    /// Earliest span end in the subtree, in ticks.
    min_end: i64,
    /// Latest slot start in the subtree, in ticks. Gates subtree skipping
    /// under a deadline: the scan *breaks* (rather than rejects) at the
    /// first start on or past the deadline, so a subtree may only be
    /// skipped when every slot in it starts strictly before it.
    max_start: i64,
    /// Largest work capacity (`length × rate`, see [`capacity_of`]) in
    /// the subtree. When below a request's volume, every slot in the
    /// subtree is too short and the whole subtree can be skipped.
    max_capacity: u128,
}

impl Agg {
    fn of(slot: &Slot) -> Agg {
        Agg {
            count: 1,
            total_len: slot.length().ticks(),
            min_end: slot.end().ticks(),
            max_start: slot.start().ticks(),
            max_capacity: capacity_of(slot),
        }
    }

    fn absorb(&mut self, child: &Agg) {
        self.count += child.count;
        self.total_len += child.total_len;
        self.min_end = self.min_end.min(child.min_end);
        self.max_start = self.max_start.max(child.max_start);
        self.max_capacity = self.max_capacity.max(child.max_capacity);
    }
}

/// One arena entry: the slot, its treap links and its subtree aggregate.
#[derive(Debug, Clone)]
struct TreeNode {
    slot: Slot,
    prio: u64,
    left: u32,
    right: u32,
    agg: Agg,
}

impl TreeNode {
    /// An unlinked leaf holding `slot`.
    fn of(slot: Slot) -> TreeNode {
        TreeNode {
            slot,
            prio: priority(slot.id()),
            left: NIL,
            right: NIL,
            agg: Agg::of(&slot),
        }
    }
}

/// The tree-backed slot store. See the [module documentation](self).
///
/// `TreeSlots` is deliberately id-agnostic: it stores whatever [`Slot`]s
/// it is given and never allocates ids — id allocation stays with
/// [`SlotList`](crate::slotlist::SlotList), which owns the `next_id`
/// counter for both backends.
#[derive(Debug, Clone, Default)]
pub struct TreeSlots {
    arena: Vec<TreeNode>,
    /// Recycled arena positions of removed slots.
    free: Vec<u32>,
    root: u32,
    /// `SlotId -> arena index`, hashed with fixed keys: slot ids are
    /// internal, and a per-process random seed would make the map's
    /// growth, and with it the store's allocation count, vary between
    /// runs of the same input.
    by_id: HashMap<u64, u32, IdHasher>,
    /// `(node, start, id) -> arena index`, the per-node adjacency index.
    by_node: BTreeMap<(u32, i64, u64), u32>,
}

impl TreeSlots {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        TreeSlots {
            arena: Vec::new(),
            free: Vec::new(),
            root: NIL,
            by_id: HashMap::default(),
            by_node: BTreeMap::new(),
        }
    }

    /// Builds a store from slots already sorted by `(start, id)` in O(m)
    /// plus one sort of a `u64` per slot for the per-node index, using
    /// the right-spine construction: the produced treap is
    /// bit-identical in shape to one grown by `m` successive
    /// [`insert`](Self::insert) calls.
    ///
    /// # Panics
    ///
    /// Panics if the slots are not sorted by `(start, id)` or contain a
    /// duplicate id.
    #[must_use]
    pub fn from_sorted_slots(slots: &[Slot]) -> Self {
        for pair in slots.windows(2) {
            assert!(
                key_of(&pair[0]) < key_of(&pair[1]),
                "from_sorted_slots requires strictly increasing (start, id) keys"
            );
        }
        assert!(slots.len() < NIL as usize, "arena full");
        let mut store = TreeSlots {
            arena: slots.iter().map(|&slot| TreeNode::of(slot)).collect(),
            free: Vec::new(),
            root: NIL,
            by_id: slots
                .iter()
                .zip(0u32..)
                .map(|(slot, idx)| (slot.id().0, idx))
                .collect(),
            by_node: BTreeMap::new(),
        };
        assert_eq!(store.by_id.len(), slots.len(), "duplicate slot id");
        // The right spine of the tree built so far, root first.
        let mut spine: Vec<u32> = Vec::new();
        for idx in 0..slots.len() as u32 {
            // Pop spine entries with lower priority; they become the new
            // node's left subtree.
            let mut last_popped = NIL;
            while let Some(&top) = spine.last() {
                if store.arena[top as usize].prio < store.arena[idx as usize].prio {
                    last_popped = top;
                    spine.pop();
                } else {
                    break;
                }
            }
            store.arena[idx as usize].left = last_popped;
            if let Some(&top) = spine.last() {
                store.arena[top as usize].right = idx;
            } else {
                store.root = idx;
            }
            spine.push(idx);
        }
        // Aggregates: pull bottom-up along the final spine paths. A full
        // in-order pull is simplest and still O(m).
        let root = store.root;
        store.pull_deep(root);
        // Arena index `i` holds the `i`-th slot in (start, id) order, so
        // sorting the packed `(node, i)` words orders the per-node index
        // by (node, start, id), ready for the map's bulk build.
        let mut by_node: Vec<u64> = slots
            .iter()
            .zip(0u64..)
            .map(|(slot, idx)| u64::from(slot.node().0) << 32 | idx)
            .collect();
        by_node.sort_unstable();
        store.by_node = by_node
            .into_iter()
            .map(|packed| {
                let idx = packed as u32;
                let slot = &slots[idx as usize];
                ((slot.node().0, slot.start().ticks(), slot.id().0), idx)
            })
            .collect();
        store
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.root == NIL {
            0
        } else {
            self.arena[self.root as usize].agg.count as usize
        }
    }

    /// Returns `true` when the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Summed slot lengths — O(1) from the root aggregate.
    #[must_use]
    pub fn total_free_time(&self) -> TimeDelta {
        if self.root == NIL {
            TimeDelta::ZERO
        } else {
            TimeDelta::new(self.arena[self.root as usize].agg.total_len)
        }
    }

    /// Looks a slot up by id — O(1) via the id index.
    #[must_use]
    pub fn get(&self, id: SlotId) -> Option<&Slot> {
        self.by_id
            .get(&id.0)
            .map(|&idx| &self.arena[idx as usize].slot)
    }

    /// The `index`-th slot in `(start, id)` order — O(log m) via the
    /// subtree counts (order-statistics descent).
    #[must_use]
    pub fn nth(&self, index: usize) -> Option<&Slot> {
        if index >= self.len() {
            return None;
        }
        let mut remaining = index;
        let mut at = self.root;
        loop {
            let node = &self.arena[at as usize];
            let left_count = if node.left == NIL {
                0
            } else {
                self.arena[node.left as usize].agg.count as usize
            };
            if remaining < left_count {
                at = node.left;
            } else if remaining == left_count {
                return Some(&node.slot);
            } else {
                remaining -= left_count + 1;
                at = node.right;
            }
        }
    }

    /// Inserts a slot. O(log m).
    ///
    /// # Panics
    ///
    /// Panics if a slot with the same id is already stored.
    pub fn insert(&mut self, slot: Slot) {
        assert!(
            !self.by_id.contains_key(&slot.id().0),
            "duplicate slot id {}",
            slot.id()
        );
        let idx = self.alloc(slot);
        let key = key_of(&slot);
        let (a, b) = self.split(self.root, key);
        let ab = self.merge(a, idx);
        self.root = self.merge(ab, b);
    }

    /// Removes a slot by id, returning it. O(log m).
    pub fn remove(&mut self, id: SlotId) -> Option<Slot> {
        let idx = *self.by_id.get(&id.0)?;
        let slot = self.arena[idx as usize].slot;
        let key = key_of(&slot);
        let (a, bc) = self.split(self.root, key);
        let (b, c) = self.split(bc, (key.0, key.1 + 1));
        debug_assert_eq!(b, idx, "split isolated a different node");
        self.root = self.merge(a, c);
        self.release_arena(idx);
        Some(slot)
    }

    /// Iterates slots in `(start, id)` order.
    #[must_use]
    pub fn iter(&self) -> TreeIter<'_> {
        let mut iter = TreeIter {
            tree: self,
            stack: Vec::with_capacity(24),
            remaining: self.len(),
        };
        iter.push_left_spine(self.root);
        iter
    }

    /// Collects the slots into a sorted vector.
    #[must_use]
    pub fn to_sorted_vec(&self) -> Vec<Slot> {
        self.iter().copied().collect()
    }

    /// The first slot (in `(start, id)` order) on `node` whose span
    /// contains `span` — O(log m + c) where `c` is the number of the
    /// node's slots starting at or before `span.start()` that fail the
    /// containment check (at most one in a store with disjoint per-node
    /// spans, the invariant every environment maintains).
    #[must_use]
    pub fn find_covering(&self, node: NodeId, span: Interval) -> Option<&Slot> {
        let lo = (node.0, i64::MIN, 0u64);
        let hi = (node.0, span.start().ticks(), u64::MAX);
        self.by_node
            .range(lo..=hi)
            .map(|(_, &idx)| &self.arena[idx as usize].slot)
            .find(|slot| slot.span().contains_interval(&span))
    }

    /// All slots on `node`, in `(start, id)` order. O(log m + s_node).
    pub fn node_slots(&self, node: NodeId) -> impl Iterator<Item = &Slot> {
        let lo = (node.0, i64::MIN, 0u64);
        let hi = (node.0, i64::MAX, u64::MAX);
        self.by_node
            .range(lo..=hi)
            .map(|(_, &idx)| &self.arena[idx as usize].slot)
    }

    /// Removes every slot of `node`, returning how many were dropped.
    /// O(s_node · log m).
    pub fn remove_node(&mut self, node: NodeId) -> usize {
        let ids: Vec<SlotId> = self.node_slots(node).map(Slot::id).collect();
        for id in &ids {
            self.remove(*id);
        }
        ids.len()
    }

    /// Removes every slot whose span ends at or before `cutoff`,
    /// returning how many were dropped. O(k log m) for `k` removals —
    /// the `min_end` aggregate prunes untouched subtrees.
    pub fn prune_ended_by(&mut self, cutoff: TimePoint) -> usize {
        let mut doomed = Vec::new();
        self.collect_ended_by(self.root, cutoff.ticks(), &mut doomed);
        for id in &doomed {
            self.remove(*id);
        }
        doomed.len()
    }

    /// Ids of slots with `end <= cutoff`, gathered with aggregate pruning.
    fn collect_ended_by(&self, at: u32, cutoff: i64, out: &mut Vec<SlotId>) {
        if at == NIL || self.arena[at as usize].agg.min_end > cutoff {
            return;
        }
        let node = &self.arena[at as usize];
        self.collect_ended_by(node.left, cutoff, out);
        if node.slot.end().ticks() <= cutoff {
            out.push(node.slot.id());
        }
        self.collect_ended_by(node.right, cutoff, out);
    }

    /// Iterates slots in `(start, id)` order, skipping — whole subtrees
    /// at a time — slots the aggregates prove an AEP scan would reject
    /// for `spec`'s bounds. See [`PrunedCursor`] for the exact contract.
    #[must_use]
    pub fn pruned_iter(&self, spec: PruneSpec) -> PrunedCursor<'_> {
        let mut cursor = PrunedCursor {
            tree: self,
            stack: Vec::with_capacity(24),
            pending_right: NIL,
            spec,
            skipped_slots: 0,
            subtrees_skipped: 0,
            windows_jumped: 0,
            in_skip_run: false,
        };
        cursor.descend(self.root);
        cursor
    }

    /// Checks every structural invariant: BST key order, the treap heap
    /// property, aggregate correctness and index consistency. O(m); for
    /// tests and debug assertions.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut count = 0usize;
        if !self.check_subtree(self.root, None, None, u64::MAX, &mut count) {
            return false;
        }
        count == self.by_id.len() && count == self.by_node.len()
    }

    fn check_subtree(
        &self,
        at: u32,
        lo: Option<Key>,
        hi: Option<Key>,
        max_prio: u64,
        count: &mut usize,
    ) -> bool {
        if at == NIL {
            return true;
        }
        let node = &self.arena[at as usize];
        let key = key_of(&node.slot);
        if lo.is_some_and(|lo| key <= lo) || hi.is_some_and(|hi| key >= hi) {
            return false;
        }
        if node.prio > max_prio {
            return false;
        }
        let mut agg = Agg::of(&node.slot);
        if node.left != NIL {
            agg.absorb(&self.arena[node.left as usize].agg);
        }
        if node.right != NIL {
            agg.absorb(&self.arena[node.right as usize].agg);
        }
        if agg != node.agg {
            return false;
        }
        let id = node.slot.id();
        if self.by_id.get(&id.0) != Some(&at) {
            return false;
        }
        if self
            .by_node
            .get(&(node.slot.node().0, node.slot.start().ticks(), id.0))
            != Some(&at)
        {
            return false;
        }
        *count += 1;
        self.check_subtree(node.left, lo, Some(key), node.prio, count)
            && self.check_subtree(node.right, Some(key), hi, node.prio, count)
    }

    // -- internals ----------------------------------------------------

    fn alloc(&mut self, slot: Slot) -> u32 {
        let node = TreeNode::of(slot);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.arena[idx as usize] = node;
                idx
            }
            None => {
                assert!(self.arena.len() < NIL as usize, "arena full");
                self.arena.push(node);
                (self.arena.len() - 1) as u32
            }
        };
        self.by_id.insert(slot.id().0, idx);
        self.by_node
            .insert((slot.node().0, slot.start().ticks(), slot.id().0), idx);
        idx
    }

    fn release_arena(&mut self, idx: u32) {
        let slot = self.arena[idx as usize].slot;
        self.by_id.remove(&slot.id().0);
        self.by_node
            .remove(&(slot.node().0, slot.start().ticks(), slot.id().0));
        self.free.push(idx);
    }

    fn pull(&mut self, at: u32) {
        let node = &self.arena[at as usize];
        let (left, right) = (node.left, node.right);
        let mut agg = Agg::of(&node.slot);
        if left != NIL {
            agg.absorb(&self.arena[left as usize].agg);
        }
        if right != NIL {
            agg.absorb(&self.arena[right as usize].agg);
        }
        self.arena[at as usize].agg = agg;
    }

    /// Recomputes aggregates for a whole subtree, bottom-up.
    fn pull_deep(&mut self, at: u32) {
        if at == NIL {
            return;
        }
        let node = &self.arena[at as usize];
        let (left, right) = (node.left, node.right);
        self.pull_deep(left);
        self.pull_deep(right);
        self.pull(at);
    }

    /// Splits by key into (`< key`, `>= key`) subtrees.
    fn split(&mut self, at: u32, key: Key) -> (u32, u32) {
        if at == NIL {
            return (NIL, NIL);
        }
        if key_of(&self.arena[at as usize].slot) < key {
            let (a, b) = self.split(self.arena[at as usize].right, key);
            self.arena[at as usize].right = a;
            self.pull(at);
            (at, b)
        } else {
            let (a, b) = self.split(self.arena[at as usize].left, key);
            self.arena[at as usize].left = b;
            self.pull(at);
            (a, at)
        }
    }

    /// Merges two subtrees where every key in `a` precedes every key in
    /// `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.arena[a as usize].prio >= self.arena[b as usize].prio {
            let right = self.merge(self.arena[a as usize].right, b);
            self.arena[a as usize].right = right;
            self.pull(a);
            a
        } else {
            let left = self.merge(a, self.arena[b as usize].left);
            self.arena[b as usize].left = left;
            self.pull(b);
            b
        }
    }
}

impl PartialEq for TreeSlots {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for TreeSlots {}

/// In-order iterator over a [`TreeSlots`], yielding slots in `(start,
/// id)` order. Created by [`TreeSlots::iter`].
#[derive(Debug, Clone)]
pub struct TreeIter<'a> {
    tree: &'a TreeSlots,
    /// Nodes whose own slot (and right subtree) are still pending.
    stack: Vec<u32>,
    remaining: usize,
}

impl<'a> TreeIter<'a> {
    fn push_left_spine(&mut self, mut at: u32) {
        while at != NIL {
            self.stack.push(at);
            at = self.tree.arena[at as usize].left;
        }
    }
}

impl<'a> Iterator for TreeIter<'a> {
    type Item = &'a Slot;

    fn next(&mut self) -> Option<&'a Slot> {
        let at = self.stack.pop()?;
        let node = &self.tree.arena[at as usize];
        self.push_left_spine(node.right);
        self.remaining -= 1;
        Some(&node.slot)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TreeIter<'_> {}

/// Per-request bounds driving an aggregate-pruned traversal
/// ([`TreeSlots::pruned_iter`]). Every field mirrors one rejection (or
/// break) rule of the AEP scan preamble; the cursor may only skip a slot
/// when the aggregates *prove* the scan would reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneSpec {
    /// The requested work volume. A slot whose capacity (`length × rate`)
    /// is below it fails the scan's "slot too short" check.
    pub volume: u64,
    /// The request deadline in ticks, if any. The scan *breaks* at the
    /// first slot starting on or past the deadline without rejecting it,
    /// so such a slot must be yielded, never skipped: a subtree is
    /// skippable only when its `max_start` aggregate is strictly below
    /// the deadline.
    pub deadline: Option<i64>,
    /// Whether at least one platform node admits the request's node
    /// requirements. When `false` every slot fails the scan's admission
    /// check, so whole (deadline-safe) subtrees are skippable regardless
    /// of capacity.
    pub admit_any: bool,
}

/// An aggregate-pruned in-order cursor over a [`TreeSlots`], created by
/// [`TreeSlots::pruned_iter`].
///
/// Yields a subsequence of [`TreeSlots::iter`] in the same `(start, id)`
/// order, skipping only slots the subtree aggregates prove the AEP scan
/// would **reject** for the given [`PruneSpec`] — too short for the
/// volume, or nothing on the platform admits the request — and never a
/// slot at or past the deadline (where the scan breaks instead of
/// rejecting). Admitted slots are never skipped, so a scan consuming this
/// cursor admits the same slots, in the same order, at the same relative
/// positions as a plain scan; it only has to credit
/// [`skipped_slots`](Self::skipped_slots) into its rejection tally.
///
/// Skips are counted lazily, at the in-order position of the skipped
/// slots: after any yield, the tallies cover exactly the slots before
/// that yield. A consumer that breaks early therefore observes exactly
/// the rejections a plain scan would have counted before its own break.
#[derive(Debug, Clone)]
pub struct PrunedCursor<'a> {
    tree: &'a TreeSlots,
    /// Nodes whose own slot (and right subtree) are still pending.
    stack: Vec<u32>,
    /// Right subtree of the last yielded node, descended into on the
    /// *next* call so skip tallies never run ahead of the yield point.
    pending_right: u32,
    spec: PruneSpec,
    skipped_slots: usize,
    subtrees_skipped: usize,
    windows_jumped: usize,
    in_skip_run: bool,
}

impl<'a> PrunedCursor<'a> {
    /// Total slots skipped so far; each is a slot the plain scan would
    /// have rejected. Final after the cursor returns `None`.
    #[must_use]
    pub fn skipped_slots(&self) -> usize {
        self.skipped_slots
    }

    /// Whole subtrees skipped via their aggregates (without visiting
    /// their slots).
    #[must_use]
    pub fn subtrees_skipped(&self) -> usize {
        self.subtrees_skipped
    }

    /// Maximal runs of consecutive skipped slots jumped over — the
    /// number of times the cursor leapt forward in the timeline.
    #[must_use]
    pub fn windows_jumped(&self) -> usize {
        self.windows_jumped
    }

    /// Every slot in a subtree with this aggregate is provably rejected
    /// by the scan (and none of them would trigger its deadline break).
    fn subtree_skippable(&self, agg: &Agg) -> bool {
        (!self.spec.admit_any || agg.max_capacity < u128::from(self.spec.volume))
            && self.spec.deadline.is_none_or(|d| agg.max_start < d)
    }

    /// The single-slot version of [`Self::subtree_skippable`].
    fn slot_skippable(&self, slot: &Slot) -> bool {
        (!self.spec.admit_any || capacity_of(slot) < u128::from(self.spec.volume))
            && self.spec.deadline.is_none_or(|d| slot.start().ticks() < d)
    }

    /// Pushes the left spine of `at`, skipping (and tallying) every
    /// subtree whose aggregate proves all its slots rejected.
    fn descend(&mut self, mut at: u32) {
        while at != NIL {
            let node = &self.tree.arena[at as usize];
            if self.subtree_skippable(&node.agg) {
                self.skipped_slots += node.agg.count as usize;
                self.subtrees_skipped += 1;
                self.in_skip_run = true;
                return;
            }
            self.stack.push(at);
            at = node.left;
        }
    }
}

impl<'a> Iterator for PrunedCursor<'a> {
    type Item = &'a Slot;

    fn next(&mut self) -> Option<&'a Slot> {
        loop {
            let pending = std::mem::replace(&mut self.pending_right, NIL);
            self.descend(pending);
            let Some(at) = self.stack.pop() else {
                // Exhausted: close a trailing skip run exactly once.
                if self.in_skip_run {
                    self.windows_jumped += 1;
                    self.in_skip_run = false;
                }
                return None;
            };
            let node = &self.tree.arena[at as usize];
            if self.slot_skippable(&node.slot) {
                self.skipped_slots += 1;
                self.in_skip_run = true;
                self.pending_right = node.right;
                continue;
            }
            if self.in_skip_run {
                self.windows_jumped += 1;
                self.in_skip_run = false;
            }
            self.pending_right = node.right;
            return Some(&node.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;
    use crate::node::Performance;

    fn slot(id: u64, node: u32, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId(id),
            NodeId(node),
            Interval::new(TimePoint::new(a), TimePoint::new(b)),
            Performance::new(2),
            Money::from_units(1 + (id as i64 % 7)),
        )
    }

    #[test]
    fn insert_iterates_in_key_order() {
        let mut t = TreeSlots::new();
        for (id, start) in [(0u64, 50i64), (1, 0), (2, 20), (3, 20), (4, 90)] {
            t.insert(slot(id, id as u32, start, start + 10));
        }
        let keys: Vec<(i64, u64)> = t.iter().map(key_of).collect();
        assert_eq!(keys, vec![(0, 1), (20, 2), (20, 3), (50, 0), (90, 4)]);
        assert!(t.check_invariants());
    }

    #[test]
    fn remove_keeps_order_and_aggregates() {
        let mut t = TreeSlots::new();
        for id in 0..100u64 {
            t.insert(slot(
                id,
                (id % 10) as u32,
                (id as i64 * 13) % 97,
                (id as i64 * 13) % 97 + 5,
            ));
        }
        assert!(t.check_invariants());
        for id in (0..100).step_by(3) {
            assert!(t.remove(SlotId(id)).is_some());
        }
        assert!(t.check_invariants());
        assert_eq!(t.len(), 66);
        assert!(t.iter().map(key_of).is_sorted());
        let total: i64 = t.iter().map(|s| s.length().ticks()).sum();
        assert_eq!(t.total_free_time(), TimeDelta::new(total));
    }

    #[test]
    fn from_sorted_matches_incremental_inserts() {
        let mut slots: Vec<Slot> = (0..500u64)
            .map(|id| {
                slot(
                    id,
                    (id % 17) as u32,
                    ((id * 37) % 211) as i64,
                    ((id * 37) % 211) as i64 + 8,
                )
            })
            .collect();
        slots.sort_by_key(key_of);
        let bulk = TreeSlots::from_sorted_slots(&slots);
        let mut incremental = TreeSlots::new();
        for s in &slots {
            incremental.insert(*s);
        }
        assert!(bulk.check_invariants());
        assert!(incremental.check_invariants());
        assert_eq!(bulk, incremental);
        assert_eq!(bulk.total_free_time(), incremental.total_free_time());
        // Shape identity: nth agrees everywhere (same keys, same order).
        for i in 0..slots.len() {
            assert_eq!(bulk.nth(i), incremental.nth(i));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate slot id")]
    fn from_sorted_rejects_a_duplicate_id() {
        let _ = TreeSlots::from_sorted_slots(&[slot(4, 0, 0, 10), slot(4, 1, 20, 30)]);
    }

    #[test]
    fn nth_is_order_statistic() {
        let mut t = TreeSlots::new();
        for id in 0..50u64 {
            t.insert(slot(id, 0, 100 - id as i64, 101 - id as i64));
        }
        let sorted = t.to_sorted_vec();
        for (i, s) in sorted.iter().enumerate() {
            assert_eq!(t.nth(i), Some(s));
        }
        assert_eq!(t.nth(50), None);
    }

    #[test]
    fn find_covering_and_node_queries() {
        let mut t = TreeSlots::new();
        t.insert(slot(0, 3, 0, 100));
        t.insert(slot(1, 3, 150, 300));
        t.insert(slot(2, 4, 0, 600));
        let span = Interval::new(TimePoint::new(160), TimePoint::new(200));
        assert_eq!(
            t.find_covering(NodeId(3), span).map(Slot::id),
            Some(SlotId(1))
        );
        assert_eq!(
            t.find_covering(NodeId(4), span).map(Slot::id),
            Some(SlotId(2))
        );
        assert!(t
            .find_covering(
                NodeId(3),
                Interval::new(TimePoint::new(90), TimePoint::new(160))
            )
            .is_none());
        assert_eq!(t.node_slots(NodeId(3)).count(), 2);
        assert_eq!(t.remove_node(NodeId(3)), 2);
        assert_eq!(t.len(), 1);
        assert!(t.check_invariants());
    }

    #[test]
    fn prune_ended_by_drops_exactly_the_expired() {
        let mut t = TreeSlots::new();
        for id in 0..40u64 {
            t.insert(slot(id, id as u32, id as i64, id as i64 + 10));
        }
        let dropped = t.prune_ended_by(TimePoint::new(25));
        assert_eq!(dropped, 16, "slots 0..=15 end at <= 25");
        assert!(t.iter().all(|s| s.end() > TimePoint::new(25)));
        assert!(t.check_invariants());
    }

    /// A spec with the given volume, no deadline, admitting platform.
    fn spec(volume: u64) -> PruneSpec {
        PruneSpec {
            volume,
            deadline: None,
            admit_any: true,
        }
    }

    #[test]
    fn pruned_cursor_without_bounds_matches_iter() {
        let mut t = TreeSlots::new();
        for id in 0..60u64 {
            t.insert(slot(
                id,
                (id % 5) as u32,
                (id as i64 * 31) % 83,
                (id as i64 * 31) % 83 + 7,
            ));
        }
        let plain: Vec<Slot> = t.iter().copied().collect();
        let mut cursor = t.pruned_iter(spec(0));
        let pruned: Vec<Slot> = cursor.by_ref().copied().collect();
        assert_eq!(plain, pruned);
        assert_eq!(cursor.skipped_slots(), 0);
        assert_eq!(cursor.subtrees_skipped(), 0);
        assert_eq!(cursor.windows_jumped(), 0);
    }

    #[test]
    fn pruned_cursor_skips_exactly_the_too_short_slots() {
        // Lengths 1..=40, perf 2 => capacities 2..=80. Volume 41 needs
        // length >= 21 (ceil(41/2)), i.e. capacity >= 41.
        let mut t = TreeSlots::new();
        for id in 0..40u64 {
            let start = (id as i64 * 17) % 101;
            t.insert(slot(id, 0, start, start + 1 + id as i64));
        }
        let volume = 41u64;
        let expected: Vec<Slot> = t
            .iter()
            .filter(|s| capacity_of(s) >= u128::from(volume))
            .copied()
            .collect();
        let mut cursor = t.pruned_iter(spec(volume));
        let pruned: Vec<Slot> = cursor.by_ref().copied().collect();
        assert_eq!(expected, pruned);
        assert_eq!(cursor.skipped_slots(), 40 - expected.len());
        // Exact capacity boundary: a slot of length 21 (capacity 42) is
        // kept, length 20 (capacity 40) is skipped.
        assert!(pruned.iter().all(|s| s.length().ticks() >= 21));
    }

    #[test]
    fn all_dominated_tree_proves_emptiness_at_the_root() {
        // Every slot far too short: one root-level aggregate comparison
        // must prove emptiness without visiting any leaf.
        let mut t = TreeSlots::new();
        for id in 0..100u64 {
            t.insert(slot(id, id as u32, id as i64 * 3, id as i64 * 3 + 2));
        }
        let mut cursor = t.pruned_iter(spec(1_000_000));
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.skipped_slots(), 100);
        assert_eq!(cursor.subtrees_skipped(), 1, "only the root subtree");
        assert_eq!(cursor.windows_jumped(), 1, "one trailing jump");
    }

    #[test]
    fn admit_none_skips_everything() {
        let mut t = TreeSlots::new();
        for id in 0..30u64 {
            t.insert(slot(id, 0, id as i64 * 10, id as i64 * 10 + 500));
        }
        let mut cursor = t.pruned_iter(PruneSpec {
            volume: 1,
            deadline: None,
            admit_any: false,
        });
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.skipped_slots(), 30);
        assert_eq!(cursor.subtrees_skipped(), 1);
    }

    #[test]
    fn slot_starting_exactly_at_the_deadline_is_yielded_not_skipped() {
        // The AEP scan breaks (without rejecting) at the first start on
        // or past the deadline; the cursor must surface that slot even
        // when it is otherwise dominated.
        let mut t = TreeSlots::new();
        for id in 0..20u64 {
            t.insert(slot(id, 0, id as i64 * 10, id as i64 * 10 + 1));
        }
        // All capacities are 2; volume 100 dominates everything.
        let deadline = 70i64;
        let mut cursor = t.pruned_iter(PruneSpec {
            volume: 100,
            deadline: Some(deadline),
            admit_any: true,
        });
        let first = cursor.next().expect("the deadline slot must surface");
        assert_eq!(first.start().ticks(), deadline);
        assert_eq!(cursor.skipped_slots(), 7, "slots starting at 0..=60");
        assert_eq!(cursor.windows_jumped(), 1);
        // Everything after the deadline surfaces too (the scan, not the
        // cursor, owns the break).
        assert_eq!(cursor.count(), 12);
    }

    #[test]
    fn single_slot_and_equal_start_degenerate_trees() {
        // Single slot, feasible.
        let mut one = TreeSlots::new();
        one.insert(slot(0, 0, 5, 25)); // capacity 40
        let mut cursor = one.pruned_iter(spec(40));
        assert_eq!(cursor.next().map(Slot::id), Some(SlotId(0)));
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.skipped_slots(), 0);
        // Single slot, dominated.
        let mut cursor = one.pruned_iter(spec(41));
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.skipped_slots(), 1);
        assert_eq!(cursor.subtrees_skipped(), 1);
        // Many slots sharing one start, alternating feasibility.
        let mut equal = TreeSlots::new();
        for id in 0..16u64 {
            let len = if id % 2 == 0 { 30 } else { 3 };
            equal.insert(slot(id, id as u32, 100, 100 + len));
        }
        let mut cursor = equal.pruned_iter(spec(60)); // needs length >= 30
        let ids: Vec<u64> = cursor.by_ref().map(|s| s.id().0).collect();
        assert_eq!(ids, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(cursor.skipped_slots(), 8);
    }

    #[test]
    fn skip_tallies_are_lazy_at_break_points() {
        // Alternating feasible/dominated slots. After the k-th yield the
        // tallies must cover exactly the dominated slots *before* it in
        // scan order — a consumer breaking early sees the same rejection
        // count a plain scan would have.
        let mut t = TreeSlots::new();
        for id in 0..20u64 {
            let len = if id % 2 == 0 { 12 } else { 5 };
            t.insert(slot(id, 0, id as i64 * 20, id as i64 * 20 + len));
        }
        let mut cursor = t.pruned_iter(spec(20)); // needs length >= 10
        assert_eq!(cursor.next().map(|s| s.id().0), Some(0));
        assert_eq!(cursor.skipped_slots(), 0);
        assert_eq!(cursor.next().map(|s| s.id().0), Some(2));
        assert_eq!(cursor.skipped_slots(), 1, "only the short slot at id 1");
        assert_eq!(cursor.windows_jumped(), 1);
        // Breaking here must not have tallied the shorts after id 2.
        drop(cursor);
    }

    #[test]
    fn arena_positions_are_recycled() {
        let mut t = TreeSlots::new();
        for id in 0..10u64 {
            t.insert(slot(id, 0, id as i64 * 10, id as i64 * 10 + 5));
        }
        for id in 0..5u64 {
            t.remove(SlotId(id));
        }
        let before = t.arena.len();
        for id in 100..105u64 {
            t.insert(slot(id, 0, id as i64, id as i64 + 1));
        }
        assert_eq!(t.arena.len(), before, "freed positions are reused");
        assert!(t.check_invariants());
    }
}
