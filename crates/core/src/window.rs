//! Co-allocation windows.
//!
//! A [`Window`] is the result of slot selection: `n` slots on distinct nodes
//! starting synchronously at the window start. Because nodes are
//! heterogeneous, each task occupies its node for a different length —
//! the paper's window with a "rough right edge". The window's aggregate
//! metrics (start, finish, runtime, processor time, total cost) are exactly
//! the quantities compared across algorithms in the paper's Figures 2–4.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value, Writer};

use crate::money::Money;
use crate::node::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Interval, TimeDelta, TimePoint};

/// One selected slot inside a [`Window`]: the task placement on one node.
///
/// It serializes as a `{"slot","node","length","cost"}` object and decodes
/// from that object or from a `[slot, node, length, cost]` row, the shape
/// live journals write a committed window's slots in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WindowSlot {
    slot: SlotId,
    node: NodeId,
    length: TimeDelta,
    cost: Money,
}

impl WindowSlot {
    /// Creates a placement record.
    ///
    /// # Panics
    ///
    /// Panics if `length` is not positive — every task occupies its node for
    /// some time.
    #[must_use]
    pub fn new(slot: SlotId, node: NodeId, length: TimeDelta, cost: Money) -> Self {
        if let Err(why) = Self::check(length) {
            panic!("{why}");
        }
        WindowSlot {
            slot,
            node,
            length,
            cost,
        }
    }

    /// Why a placement of `length` is not one: a task occupies its node
    /// for some time.
    fn check(length: TimeDelta) -> Result<(), String> {
        if length.is_positive() {
            Ok(())
        } else {
            Err(format!("window slot length must be positive, got {length}"))
        }
    }

    /// Builds the placement of a task of `volume` on `slot`.
    #[must_use]
    pub fn for_task(slot: &Slot, volume: crate::node::Volume) -> Self {
        WindowSlot::new(
            slot.id(),
            slot.node(),
            slot.time_for(volume),
            slot.cost_for(volume),
        )
    }

    /// The underlying slot id.
    #[must_use]
    pub const fn slot(&self) -> SlotId {
        self.slot
    }

    /// The node the task runs on.
    #[must_use]
    pub const fn node(&self) -> NodeId {
        self.node
    }

    /// Time the task occupies this node (volume / node performance).
    #[must_use]
    pub const fn length(&self) -> TimeDelta {
        self.length
    }

    /// Allocation cost of this placement.
    #[must_use]
    pub const fn cost(&self) -> Money {
        self.cost
    }
}

/// A placement in its object shape.
#[derive(Deserialize)]
struct WindowSlotObject {
    slot: SlotId,
    node: NodeId,
    length: TimeDelta,
    cost: Money,
}

impl Deserialize for WindowSlot {
    /// Reads a `[slot, node, length, cost]` row or the object, refusing a
    /// non-positive length as [`WindowSlot::new`] does.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let (slot, node, length, cost) = match value {
            Value::Array(_) => Deserialize::from_value(value)?,
            Value::Object(_) => {
                let WindowSlotObject {
                    slot,
                    node,
                    length,
                    cost,
                } = WindowSlotObject::from_value(value)?;
                (slot, node, length, cost)
            }
            _ => return Err(DeError::expected("row or object for WindowSlot", value)),
        };
        WindowSlot::check(length).map_err(DeError::new)?;
        Ok(WindowSlot {
            slot,
            node,
            length,
            cost,
        })
    }
}

/// A set of `n` co-allocated slots starting synchronously.
///
/// # Examples
///
/// ```
/// use slotsel_core::money::Money;
/// use slotsel_core::node::NodeId;
/// use slotsel_core::slot::SlotId;
/// use slotsel_core::time::{TimeDelta, TimePoint};
/// use slotsel_core::window::{Window, WindowSlot};
///
/// let window = Window::new(
///     TimePoint::new(10),
///     vec![
///         WindowSlot::new(SlotId(0), NodeId(0), TimeDelta::new(30), Money::from_units(90)),
///         WindowSlot::new(SlotId(1), NodeId(1), TimeDelta::new(50), Money::from_units(100)),
///     ],
/// );
/// assert_eq!(window.runtime(), TimeDelta::new(50)); // slowest node
/// assert_eq!(window.finish(), TimePoint::new(60));
/// assert_eq!(window.proc_time(), TimeDelta::new(80)); // sum of lengths
/// assert_eq!(window.total_cost(), Money::from_units(190));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Window {
    start: TimePoint,
    slots: Vec<WindowSlot>,
}

/// A window's fields before [`Window::check`].
#[derive(Deserialize)]
struct WindowObject {
    start: TimePoint,
    slots: Vec<WindowSlot>,
}

impl Deserialize for Window {
    /// Reads the `{"start","slots"}` object, refusing an empty window or
    /// two placements on one node as [`Window::new`] does.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let WindowObject { start, slots } = WindowObject::from_value(value)?;
        Window::check(&slots).map_err(DeError::new)?;
        Ok(Window { start, slots })
    }
}

impl Window {
    /// Creates a window from its synchronised start and task placements.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or two placements share a node — a job's
    /// tasks must run on distinct CPU nodes.
    #[must_use]
    pub fn new(start: TimePoint, slots: Vec<WindowSlot>) -> Self {
        if let Err(why) = Self::check(&slots) {
            panic!("{why}");
        }
        Window { start, slots }
    }

    /// Why `slots` are not a window's placements: there are none, or two
    /// share a node.
    fn check(slots: &[WindowSlot]) -> Result<(), &'static str> {
        if slots.is_empty() {
            return Err("a window must contain at least one slot");
        }
        let mut nodes: Vec<NodeId> = slots.iter().map(WindowSlot::node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() == slots.len() {
            Ok(())
        } else {
            Err("window slots must be on distinct nodes")
        }
    }

    /// Writes the window as `{"start":T,"slots":[[slot,node,length,cost],…]}`,
    /// one row per placement, in selection order: the shape live journals
    /// commit windows in, which [`Deserialize`] reads back.
    pub fn serialize_rows(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.field("start", &self.start);
        out.key("slots");
        out.begin_array();
        for slot in &self.slots {
            out.begin_array();
            slot.slot.serialize(out);
            slot.node.serialize(out);
            slot.length.serialize(out);
            slot.cost.serialize(out);
            out.end_array();
        }
        out.end_array();
        out.end_object();
    }

    /// The synchronised start time of all tasks.
    #[must_use]
    pub const fn start(&self) -> TimePoint {
        self.start
    }

    /// The placements, in selection order.
    #[must_use]
    pub fn slots(&self) -> &[WindowSlot] {
        &self.slots
    }

    /// Number of co-allocated slots (`n`).
    #[must_use]
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// The window runtime: the length of the longest placement, i.e. the
    /// execution time of the task on the slowest selected node.
    #[must_use]
    pub fn runtime(&self) -> TimeDelta {
        self.slots
            .iter()
            .map(WindowSlot::length)
            .max()
            .expect("window is never empty")
    }

    /// The completion time `start + runtime`.
    #[must_use]
    pub fn finish(&self) -> TimePoint {
        self.start + self.runtime()
    }

    /// Total processor time used: the sum of all placement lengths.
    #[must_use]
    pub fn proc_time(&self) -> TimeDelta {
        self.slots.iter().map(WindowSlot::length).sum()
    }

    /// Total allocation cost: the sum of all placement costs.
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.slots.iter().map(WindowSlot::cost).sum()
    }

    /// The per-task reserved `(slot id, interval)` pairs — each slot is
    /// held only for its own task's length — suitable for
    /// [`SlotList::cut`](crate::slotlist::SlotList::cut).
    #[must_use]
    pub fn reservations(&self) -> Vec<(SlotId, Interval)> {
        self.slots
            .iter()
            .map(|ws| (ws.slot(), Interval::with_length(self.start, ws.length())))
            .collect()
    }

    /// The rectangular reserved `(slot id, interval)` pairs — every slot is
    /// held for the whole window runtime `[start, start + runtime)`, the
    /// reservation semantics of synchronous co-allocation where the window
    /// is released as a unit when its slowest task completes.
    ///
    /// May return intervals that exceed a slot's actual span when the slot
    /// ends before the window runtime elapses on a faster node;
    /// [`SlotList::cut`](crate::slotlist::SlotList::cut) callers should
    /// clamp, as [`Csa`](crate::csa::Csa) does.
    #[must_use]
    pub fn rectangular_reservations(&self) -> Vec<(SlotId, Interval)> {
        let runtime = self.runtime();
        self.slots
            .iter()
            .map(|ws| (ws.slot(), Interval::with_length(self.start, runtime)))
            .collect()
    }

    /// Returns `true` when this window shares no slot with `other`.
    ///
    /// Disjointness is by slot id: CSA's alternatives are "disjointed by the
    /// slots".
    #[must_use]
    pub fn is_slot_disjoint(&self, other: &Window) -> bool {
        self.slots
            .iter()
            .all(|a| other.slots.iter().all(|b| a.slot() != b.slot()))
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window @{} n={} runtime={} cost={}",
            self.start,
            self.size(),
            self.runtime(),
            self.total_cost()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(slot: u64, node: u32, length: i64, cost: i64) -> WindowSlot {
        WindowSlot::new(
            SlotId(slot),
            NodeId(node),
            TimeDelta::new(length),
            Money::from_units(cost),
        )
    }

    fn sample() -> Window {
        Window::new(
            TimePoint::new(100),
            vec![ws(0, 0, 30, 90), ws(1, 1, 50, 100), ws(2, 2, 40, 120)],
        )
    }

    #[test]
    fn metrics() {
        let w = sample();
        assert_eq!(w.start(), TimePoint::new(100));
        assert_eq!(w.size(), 3);
        assert_eq!(w.runtime(), TimeDelta::new(50));
        assert_eq!(w.finish(), TimePoint::new(150));
        assert_eq!(w.proc_time(), TimeDelta::new(120));
        assert_eq!(w.total_cost(), Money::from_units(310));
    }

    #[test]
    fn reservations_are_anchored_at_start() {
        let w = sample();
        let res = w.reservations();
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].1.start(), TimePoint::new(100));
        assert_eq!(res[0].1.end(), TimePoint::new(130));
        assert_eq!(res[1].1.end(), TimePoint::new(150));
    }

    #[test]
    fn rectangular_reservations_span_the_runtime() {
        let w = sample(); // lengths 30, 50, 40; runtime 50; start 100
        let res = w.rectangular_reservations();
        assert_eq!(res.len(), 3);
        for (_, interval) in &res {
            assert_eq!(interval.start(), TimePoint::new(100));
            assert_eq!(interval.end(), TimePoint::new(150));
        }
    }

    #[test]
    fn rectangular_equals_task_reservations_for_uniform_lengths() {
        let w = Window::new(TimePoint::new(5), vec![ws(0, 0, 20, 1), ws(1, 1, 20, 1)]);
        assert_eq!(w.reservations(), w.rectangular_reservations());
    }

    #[test]
    fn slot_disjointness() {
        let w = sample();
        let other = Window::new(TimePoint::new(0), vec![ws(9, 0, 10, 1)]);
        assert!(
            w.is_slot_disjoint(&other),
            "same node but different slot id is disjoint"
        );
        let sharing = Window::new(TimePoint::new(0), vec![ws(1, 5, 10, 1)]);
        assert!(!w.is_slot_disjoint(&sharing));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_window_rejected() {
        let _ = Window::new(TimePoint::ZERO, Vec::new());
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn duplicate_nodes_rejected() {
        let _ = Window::new(TimePoint::ZERO, vec![ws(0, 3, 10, 1), ws(1, 3, 20, 2)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_placement_rejected() {
        let _ = ws(0, 0, 0, 1);
    }

    fn decode(json: &str) -> Result<Window, String> {
        serde_json::from_str(json).map_err(|error| error.to_string())
    }

    #[test]
    fn rows_and_objects_decode_to_the_same_window() {
        let w = sample();
        let objects = serde_json::to_string(&w).unwrap();
        assert!(objects.contains("{\"slot\":0,\"node\":0,\"length\":30,\"cost\":90000}"));
        assert_eq!(decode(&objects), Ok(w.clone()));
        let rows = r#"{"start":100,"slots":[[0,0,30,90000],[1,1,50,100000],[2,2,40,120000]]}"#;
        assert_eq!(decode(rows), Ok(w));
        // A row is four numbers.
        for json in [
            r#"{"start":0,"slots":[[0,0,10]]}"#,
            r#"{"start":0,"slots":[[0,0,10,1,7]]}"#,
            r#"{"start":0,"slots":[7]}"#,
        ] {
            assert!(decode(json).is_err(), "{json}");
        }
    }

    #[test]
    fn decoding_an_empty_window_is_an_error() {
        let error = decode(r#"{"start":0,"slots":[]}"#).unwrap_err();
        assert!(error.contains("at least one slot"), "{error}");
    }

    #[test]
    fn decoding_two_slots_on_one_node_is_an_error() {
        for json in [
            r#"{"start":0,"slots":[[0,3,10,1],[1,3,20,2]]}"#,
            r#"{"start":0,"slots":[{"slot":0,"node":3,"length":10,"cost":1},[1,3,20,2]]}"#,
        ] {
            let error = decode(json).unwrap_err();
            assert!(error.contains("distinct nodes"), "{json}: {error}");
        }
    }

    #[test]
    fn decoding_a_non_positive_length_is_an_error() {
        for json in [
            r#"{"start":0,"slots":[[0,0,0,1]]}"#,
            r#"{"start":0,"slots":[{"slot":0,"node":0,"length":-5,"cost":1}]}"#,
        ] {
            let error = decode(json).unwrap_err();
            assert!(error.contains("must be positive"), "{json}: {error}");
        }
    }

    #[test]
    fn single_slot_window() {
        let w = Window::new(TimePoint::new(5), vec![ws(0, 0, 7, 3)]);
        assert_eq!(w.runtime(), TimeDelta::new(7));
        assert_eq!(w.proc_time(), TimeDelta::new(7));
        assert_eq!(w.finish(), TimePoint::new(12));
    }

    #[test]
    fn display_summarises() {
        let text = sample().to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("runtime=50u"));
    }
}
