//! Hierarchical spans: the third leg of the observability stack.
//!
//! Counters say *that* something happened, the JSONL trace says *what*
//! happened — spans say *where the time went*. A span is a named
//! wall-clock interval with a parent link; together the spans of one
//! scheduling cycle form a tree (batch formation → per-shard scheduling →
//! per-job CSA search → per-policy AEP scans → commit), and the
//! [`crate::chrome`] exporter renders that tree in any Chrome-trace
//! viewer (Perfetto, `about://tracing`).
//!
//! The [`SpanSink`] trait follows the crate's established ladder:
//!
//! - [`NoopSpanSink`] — `enabled()` is a constant `false`, every method is
//!   empty, and instrumented generics monomorphise to the uninstrumented
//!   code, exactly like [`crate::recorder::NoopRecorder`];
//! - [`MemorySpanSink`] — records the span tree in memory, with
//!   stack-based auto-parenting: [`SpanSink::open`] pushes, the next
//!   [`SpanSink::open`] becomes its child, [`SpanSink::close`] pops.
//!   Nesting is guaranteed by construction.
//!
//! Timestamps are microseconds since a **process-wide anchor**
//! ([`now_us`]), so two sinks produce mutually comparable times.
//!
//! The [`FlightRecorder`] keeps the last N cycles' span trees in a bounded
//! ring buffer — the live daemon's `GET /debug/trace` dump.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::ObjectWriter;

/// The process-wide clock anchor: every sink measures microseconds since
/// the first call, so timestamps from different threads are comparable.
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process-wide span clock anchor (first call
/// returns 0). Monotonic across threads.
#[must_use]
pub fn now_us() -> u64 {
    let anchor = *ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Identifier of one span within its sink. `SpanId::NONE` (0) means "no
/// span" — the id the [`NoopSpanSink`] hands out, and the parent link of a
/// root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no span.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id names an actual span.
    #[must_use]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer attribute.
    U64(u64),
    /// A string attribute.
    Str(String),
}

impl AttrValue {
    /// Appends this value to `object` as the field `name`.
    pub(crate) fn write_field(&self, name: &str, object: &mut ObjectWriter) {
        match self {
            AttrValue::U64(v) => object.u64_field(name, *v),
            AttrValue::Str(v) => object.str_field(name, v),
        }
    }
}

/// One completed span (or instant event) as a sink records it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span's id, unique within its sink.
    pub id: SpanId,
    /// The enclosing span, or [`SpanId::NONE`] for a root.
    pub parent: SpanId,
    /// The span's name (e.g. `"aep.scan"`, `"batch.phase2"`).
    pub name: String,
    /// The track (thread/shard lane) the span ran on; 0 is the
    /// coordinator, shard `s` conventionally uses `s + 1`.
    pub track: u32,
    /// Start, microseconds since the process anchor ([`now_us`]).
    pub start_us: u64,
    /// End, microseconds since the process anchor. Equals `start_us` for
    /// instants.
    pub end_us: u64,
    /// Attributes attached while the span was open.
    pub attrs: Vec<(String, AttrValue)>,
    /// `true` for a point-in-time event ([`SpanSink::instant`]).
    pub instant: bool,
}

impl SpanRecord {
    /// The span's duration in microseconds (0 for instants).
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Sets the attribute `name`, replacing any earlier value, so each
    /// name appears once in a span line and in a Chrome event's `args`.
    fn set_attr(&mut self, name: &str, value: AttrValue) {
        match self.attrs.iter_mut().find(|(existing, _)| existing == name) {
            Some((_, slot)) => *slot = value,
            None => self.attrs.push((name.to_owned(), value)),
        }
    }
}

/// A sink for hierarchical spans.
///
/// Parenting is implicit: [`open`](SpanSink::open) makes the new span a
/// child of the innermost span still open *on this sink*, so call sites
/// never thread parent ids through their signatures. The trait is
/// object-safe (`&mut dyn SpanSink` works through trait objects like
/// [`crate::metrics::Metrics`] does with `&dyn Metrics`).
///
/// As with the recorder, gate any work spent *preparing* attributes on
/// [`enabled`](SpanSink::enabled); the [`NoopSpanSink`]'s constant `false`
/// folds the whole branch away.
pub trait SpanSink {
    /// `false` when the sink drops everything and call sites may skip
    /// building attributes. Constant per implementation.
    fn enabled(&self) -> bool {
        true
    }

    /// Opens a span as a child of the innermost open span; returns its id.
    fn open(&mut self, name: &'static str) -> SpanId;

    /// Closes the span, which must be the innermost open one (sinks
    /// tolerate — and ignore — a stale or [`SpanId::NONE`] id).
    fn close(&mut self, id: SpanId);

    /// Attaches an integer attribute to the innermost open span.
    fn attr_u64(&mut self, name: &'static str, value: u64);

    /// Attaches a string attribute to the innermost open span.
    fn attr_str(&mut self, name: &'static str, value: &str);

    /// Records a point-in-time event under the innermost open span.
    fn instant(&mut self, name: &'static str);

    /// Sets the track (thread/shard lane) stamped on subsequent spans.
    fn set_track(&mut self, track: u32);
}

/// The default sink: drops everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSpanSink;

impl SpanSink for NoopSpanSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn open(&mut self, _name: &'static str) -> SpanId {
        SpanId::NONE
    }

    #[inline(always)]
    fn close(&mut self, _id: SpanId) {}

    #[inline(always)]
    fn attr_u64(&mut self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn attr_str(&mut self, _name: &'static str, _value: &str) {}

    #[inline(always)]
    fn instant(&mut self, _name: &'static str) {}

    #[inline(always)]
    fn set_track(&mut self, _track: u32) {}
}

/// Every `&mut S: SpanSink` is itself a sink, so call sites can pass
/// their sink down without giving it up.
impl<S: SpanSink + ?Sized> SpanSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn open(&mut self, name: &'static str) -> SpanId {
        (**self).open(name)
    }

    fn close(&mut self, id: SpanId) {
        (**self).close(id);
    }

    fn attr_u64(&mut self, name: &'static str, value: u64) {
        (**self).attr_u64(name, value);
    }

    fn attr_str(&mut self, name: &'static str, value: &str) {
        (**self).attr_str(name, value);
    }

    fn instant(&mut self, name: &'static str) {
        (**self).instant(name);
    }

    fn set_track(&mut self, track: u32) {
        (**self).set_track(track);
    }
}

/// Records the span tree in memory.
///
/// Ids are assigned sequentially from 1 in open order, so two runs with
/// the same call structure produce the same tree shape (timestamps are
/// wall clock and differ, structure and ids do not).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySpanSink {
    records: Vec<SpanRecord>,
    /// Indices into `records` of the currently open spans, innermost last.
    stack: Vec<usize>,
    next_id: u64,
    track: u32,
}

impl MemorySpanSink {
    /// An empty sink on track 0.
    #[must_use]
    pub fn new() -> Self {
        MemorySpanSink {
            records: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            track: 0,
        }
    }

    /// The records so far (open spans have `end_us == 0`).
    #[must_use]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Drains the sink: any span still open is closed at the current
    /// time, and the records are returned in open order. The sink resets
    /// to empty (the id counter keeps counting). A sink that recorded
    /// nothing reads no clock and allocates nothing.
    pub fn take_records(&mut self) -> Vec<SpanRecord> {
        if !self.stack.is_empty() {
            let now = now_us();
            for index in self.stack.drain(..) {
                self.records[index].end_us = now;
            }
        }
        std::mem::take(&mut self.records)
    }

    fn innermost(&mut self) -> Option<&mut SpanRecord> {
        let index = *self.stack.last()?;
        Some(&mut self.records[index])
    }
}

impl SpanSink for MemorySpanSink {
    fn open(&mut self, name: &'static str) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        let parent = self
            .stack
            .last()
            .map_or(SpanId::NONE, |&index| self.records[index].id);
        self.records.push(SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            track: self.track,
            start_us: now_us(),
            end_us: 0,
            attrs: Vec::new(),
            instant: false,
        });
        self.stack.push(self.records.len() - 1);
        id
    }

    fn close(&mut self, id: SpanId) {
        // Only the innermost open span may close; a stale id is ignored
        // rather than corrupting the stack (mirrors the recorder's
        // capture-don't-panic posture).
        let Some(&index) = self.stack.last() else {
            return;
        };
        if self.records[index].id != id {
            return;
        }
        self.stack.pop();
        self.records[index].end_us = now_us();
    }

    fn attr_u64(&mut self, name: &'static str, value: u64) {
        if let Some(span) = self.innermost() {
            span.set_attr(name, AttrValue::U64(value));
        }
    }

    fn attr_str(&mut self, name: &'static str, value: &str) {
        if let Some(span) = self.innermost() {
            span.set_attr(name, AttrValue::Str(value.to_owned()));
        }
    }

    fn instant(&mut self, name: &'static str) {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        let parent = self
            .stack
            .last()
            .map_or(SpanId::NONE, |&index| self.records[index].id);
        let now = now_us();
        self.records.push(SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            track: self.track,
            start_us: now,
            end_us: now,
            attrs: Vec::new(),
            instant: true,
        });
    }

    fn set_track(&mut self, track: u32) {
        self.track = track;
    }
}

/// Per-phase (per-span-name) duration aggregate — the `GET /debug/spans`
/// summary row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSummary {
    /// Spans observed under this name.
    pub count: u64,
    /// Total microseconds across them.
    pub total_us: u64,
    /// The shortest span, microseconds.
    pub min_us: u64,
    /// The longest span, microseconds.
    pub max_us: u64,
}

impl PhaseSummary {
    fn observe(&mut self, duration_us: u64) {
        if self.count == 0 {
            self.min_us = duration_us;
            self.max_us = duration_us;
        } else {
            self.min_us = self.min_us.min(duration_us);
            self.max_us = self.max_us.max(duration_us);
        }
        self.count += 1;
        self.total_us += duration_us;
    }

    /// Mean duration in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

/// A bounded ring buffer of the last N cycles' span trees — the live
/// daemon's flight recorder. Pushing cycle N+capacity evicts the oldest.
///
/// Each retained cycle is packed: one exact-size span array, one
/// attribute array and one text buffer for the string values, with span
/// and attribute names interned once per recorder as indices. A span
/// costs 48 bytes plus 16 per attribute, where the [`SpanRecord`]s a
/// sink builds hold each name and attribute in an allocation of its own.
/// [`groups`](Self::groups) rebuilds the records on demand, equal to the
/// ones pushed, so a Chrome document rendered from them has the same
/// bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    /// Every span and attribute name pushed, in first-seen order; a
    /// packed name is an index here. Sinks name spans and attributes with
    /// `&'static str`s, so the table is bounded by the program's names.
    names: Vec<Box<str>>,
    /// The index of each name in `names`.
    name_index: HashMap<Box<str>, u32>,
    cycles: VecDeque<PackedCycle>,
}

/// One retained cycle's span tree, packed.
#[derive(Debug, Clone, PartialEq)]
struct PackedCycle {
    cycle: u64,
    spans: Box<[PackedSpan]>,
    /// Every span's attributes, span after span.
    attrs: Box<[PackedAttr]>,
    /// Every string attribute value, back to back.
    text: Box<str>,
}

/// A [`SpanRecord`] with its name interned and its attributes moved to
/// the cycle's attribute array.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedSpan {
    id: u64,
    parent: u64,
    start_us: u64,
    end_us: u64,
    track: u32,
    name: u32,
    /// End of this span's attributes in the cycle's array; they begin
    /// where the previous span's end.
    attrs_end: u32,
    instant: bool,
}

/// One attribute: an interned name, and either a `U64` value or, when
/// `text` is set, a `Str` value's byte range in the cycle's text buffer
/// as `start << 32 | end`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedAttr {
    value: u64,
    name: u32,
    text: bool,
}

impl PackedAttr {
    fn value(self, text: &str) -> AttrValue {
        if self.text {
            let (start, end) = (self.value >> 32, self.value & u64::from(u32::MAX));
            AttrValue::Str(text[start as usize..end as usize].to_owned())
        } else {
            AttrValue::U64(self.value)
        }
    }
}

/// A position in a packed cycle's arrays or text. The records pushed
/// would take more than 2³² heap bytes before any of these counts reached
/// 2³², so a cycle that fails this check cannot exist.
fn offset(position: usize) -> u32 {
    u32::try_from(position).expect("a cycle's spans, attributes and text fit u32 offsets")
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` cycles (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ..FlightRecorder::default()
        }
    }

    /// The retention capacity, in cycles.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cycles currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Total spans retained across all cycles.
    #[must_use]
    pub fn total_spans(&self) -> usize {
        self.cycles.iter().map(|packed| packed.spans.len()).sum()
    }

    /// Packs and retains one cycle's span tree, evicting the oldest when
    /// full. An empty record set is dropped (an idle cycle leaves no
    /// wreckage).
    pub fn push(&mut self, cycle: u64, records: Vec<SpanRecord>) {
        if records.is_empty() {
            return;
        }
        let packed = self.pack(cycle, &records);
        if self.cycles.len() >= self.capacity {
            self.cycles.pop_front();
        }
        self.cycles.push_back(packed);
    }

    fn pack(&mut self, cycle: u64, records: &[SpanRecord]) -> PackedCycle {
        let all_attrs = || records.iter().flat_map(|record| &record.attrs);
        let text_len = all_attrs()
            .map(|(_, value)| match value {
                AttrValue::U64(_) => 0,
                AttrValue::Str(text) => text.len(),
            })
            .sum();
        let mut spans = Vec::with_capacity(records.len());
        let mut attrs = Vec::with_capacity(all_attrs().count());
        let mut text = String::with_capacity(text_len);
        for record in records {
            for (name, value) in &record.attrs {
                let (value, is_text) = match value {
                    AttrValue::U64(value) => (*value, false),
                    AttrValue::Str(value) => {
                        let start = offset(text.len());
                        text.push_str(value);
                        let end = offset(text.len());
                        ((u64::from(start) << 32) | u64::from(end), true)
                    }
                };
                attrs.push(PackedAttr {
                    value,
                    name: self.intern(name),
                    text: is_text,
                });
            }
            spans.push(PackedSpan {
                id: record.id.0,
                parent: record.parent.0,
                start_us: record.start_us,
                end_us: record.end_us,
                track: record.track,
                name: self.intern(&record.name),
                attrs_end: offset(attrs.len()),
                instant: record.instant,
            });
        }
        PackedCycle {
            cycle,
            spans: spans.into_boxed_slice(),
            attrs: attrs.into_boxed_slice(),
            text: text.into_boxed_str(),
        }
    }

    /// The index of `name` in the name table, adding it when new: one
    /// hash lookup, not a scan of the table.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&index) = self.name_index.get(name) {
            return index;
        }
        let index = offset(self.names.len());
        self.names.push(name.into());
        self.name_index.insert(name.into(), index);
        index
    }

    fn name(&self, index: u32) -> &str {
        &self.names[index as usize]
    }

    /// Rebuilds the records of one packed cycle, in push order.
    fn unpack(&self, packed: &PackedCycle) -> Vec<SpanRecord> {
        let mut attrs_start = 0;
        packed
            .spans
            .iter()
            .map(|span| {
                let attrs_end = span.attrs_end as usize;
                let attrs = packed.attrs[attrs_start..attrs_end]
                    .iter()
                    .map(|attr| (self.name(attr.name).to_owned(), attr.value(&packed.text)))
                    .collect();
                attrs_start = attrs_end;
                SpanRecord {
                    id: SpanId(span.id),
                    parent: SpanId(span.parent),
                    name: self.name(span.name).to_owned(),
                    track: span.track,
                    start_us: span.start_us,
                    end_us: span.end_us,
                    attrs,
                    instant: span.instant,
                }
            })
            .collect()
    }

    /// The retained `(cycle, span tree)` groups, oldest first. Each tree
    /// is rebuilt from its packed form, equal to the records pushed.
    pub fn groups(&self) -> impl Iterator<Item = (u64, Vec<SpanRecord>)> + '_ {
        self.cycles
            .iter()
            .map(|packed| (packed.cycle, self.unpack(packed)))
    }

    /// Aggregates every retained span by name, sorted by name — the
    /// `GET /debug/spans` table. Instants are excluded.
    #[must_use]
    pub fn phase_summary(&self) -> Vec<(String, PhaseSummary)> {
        let mut by_name = vec![PhaseSummary::default(); self.names.len()];
        for span in self.cycles.iter().flat_map(|packed| packed.spans.iter()) {
            if !span.instant {
                by_name[span.name as usize].observe(span.end_us.saturating_sub(span.start_us));
            }
        }
        let mut summary: Vec<(String, PhaseSummary)> = by_name
            .into_iter()
            .enumerate()
            .filter(|(_, phase)| phase.count > 0)
            .map(|(index, phase)| (self.names[index].to_string(), phase))
            .collect();
        summary.sort_by(|a, b| a.0.cmp(&b.0));
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn noop_is_disabled_and_hands_out_the_null_id() {
        let mut sink = NoopSpanSink;
        assert!(!SpanSink::enabled(&sink));
        let id = sink.open("x");
        assert_eq!(id, SpanId::NONE);
        assert!(!id.is_some());
        sink.attr_u64("a", 1);
        sink.instant("i");
        sink.close(id);
        assert_eq!(sink, NoopSpanSink);
    }

    #[test]
    fn memory_sink_parents_by_stack_and_nests_times() {
        let mut sink = MemorySpanSink::new();
        let root = sink.open("cycle");
        sink.attr_u64("cycle", 7);
        let child = sink.open("schedule");
        sink.instant("picked");
        sink.close(child);
        let sibling = sink.open("commit");
        sink.close(sibling);
        sink.close(root);

        let records = sink.take_records();
        assert_eq!(records.len(), 4);
        let cycle = &records[0];
        let schedule = &records[1];
        let picked = &records[2];
        let commit = &records[3];
        assert_eq!(cycle.parent, SpanId::NONE);
        assert_eq!(schedule.parent, cycle.id);
        assert_eq!(picked.parent, schedule.id);
        assert!(picked.instant);
        assert_eq!(commit.parent, cycle.id);
        assert_eq!(cycle.attrs, vec![("cycle".to_owned(), AttrValue::U64(7))]);
        // Deterministic sequential ids from 1, in open order.
        assert_eq!(
            records.iter().map(|r| r.id.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // Children lie within their parents on the shared clock.
        for r in [schedule, commit, picked] {
            assert!(r.start_us >= cycle.start_us && r.end_us <= cycle.end_us);
        }
        assert!(schedule.end_us <= commit.start_us, "siblings are ordered");
    }

    #[test]
    fn stale_close_is_ignored_and_take_closes_leftovers() {
        let mut sink = MemorySpanSink::new();
        let outer = sink.open("outer");
        let inner = sink.open("inner");
        // Closing the outer span while the inner is open is a bug at the
        // call site; the sink ignores it instead of corrupting the stack.
        sink.close(outer);
        assert_eq!(sink.records()[1].end_us, 0, "inner still open");
        sink.close(inner);
        // Outer never closed explicitly: take_records closes it.
        let records = sink.take_records();
        assert!(records[0].end_us >= records[0].start_us);
        assert!(records[0].end_us > 0);
    }

    #[test]
    fn an_attribute_set_twice_keeps_its_last_value() {
        let mut memory = MemorySpanSink::new();
        let root = memory.open("cycle");
        memory.attr_u64("jobs", 1);
        memory.attr_u64("jobs", 2);
        memory.close(root);
        let records = memory.take_records();
        assert_eq!(
            records[0].attrs,
            vec![("jobs".to_owned(), AttrValue::U64(2))]
        );
        let document = crate::chrome::render(&[(0, &records)]);
        assert_eq!(document.matches("\"jobs\":").count(), 1, "{document}");
        let events = crate::chrome::parse(&document).unwrap();
        let span = events
            .get("traceEvents")
            .and_then(Value::as_array)
            .and_then(|events| {
                events
                    .iter()
                    .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            })
            .expect("the span event");
        assert_eq!(
            span.get("args")
                .and_then(|args| args.get("jobs"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn flight_recorder_evicts_oldest_and_summarises() {
        let mut flight = FlightRecorder::new(2);
        assert!(flight.is_empty());
        for cycle in 0..3u64 {
            let mut sink = MemorySpanSink::new();
            let id = sink.open("cycle");
            sink.instant("tick");
            sink.close(id);
            flight.push(cycle, sink.take_records());
        }
        flight.push(99, Vec::new()); // idle cycles leave no trace
        assert_eq!(flight.len(), 2);
        assert_eq!(flight.capacity(), 2);
        let cycles: Vec<u64> = flight.groups().map(|(cycle, _)| cycle).collect();
        assert_eq!(cycles, vec![1, 2], "oldest cycle evicted");
        assert_eq!(flight.total_spans(), 4);
        let summary = flight.phase_summary();
        assert_eq!(summary.len(), 1, "instants are excluded");
        let (name, phase) = &summary[0];
        assert_eq!(name, "cycle");
        assert_eq!(phase.count, 2);
        assert!(phase.max_us >= phase.min_us);
        assert!(phase.total_us >= phase.max_us);
    }

    /// The per-name summary of `groups`, aggregated from the records.
    fn summary_of(groups: &[(u64, Vec<SpanRecord>)]) -> Vec<(String, PhaseSummary)> {
        let mut by_name: std::collections::BTreeMap<String, PhaseSummary> =
            std::collections::BTreeMap::new();
        for record in groups.iter().flat_map(|(_, records)| records) {
            if !record.instant {
                by_name
                    .entry(record.name.clone())
                    .or_default()
                    .observe(record.duration_us());
            }
        }
        by_name.into_iter().collect()
    }

    #[test]
    fn flight_recorder_gives_back_the_records_it_was_pushed() {
        let hostile = "q\"b\\n\nc\u{1}é—ü";
        let cycle = |cycle: u64| {
            let mut sink = MemorySpanSink::new();
            let root = sink.open("serve.cycle");
            sink.attr_u64("cycle", cycle);
            sink.attr_str("note", hostile);
            sink.attr_str("empty", "");
            sink.set_track(2);
            let scan = sink.open("aep.scan");
            sink.attr_str("policy", "AMP");
            sink.attr_u64("slots", u64::MAX);
            sink.instant("mckp.solved");
            sink.close(scan);
            sink.close(root);
            let mut records = sink.take_records();
            records.push(SpanRecord {
                id: SpanId(9),
                parent: SpanId(1),
                name: hostile.to_owned(),
                track: 1,
                start_us: 5,
                end_us: 3,
                attrs: vec![(hostile.to_owned(), AttrValue::Str(hostile.to_owned()))],
                instant: false,
            });
            records
        };
        let mut flight = FlightRecorder::new(2);
        let pushed: Vec<(u64, Vec<SpanRecord>)> = (4..7).map(|c| (c, cycle(c))).collect();
        for (c, records) in &pushed {
            flight.push(*c, records.clone());
        }
        let kept = &pushed[1..];
        let groups: Vec<(u64, Vec<SpanRecord>)> = flight.groups().collect();
        assert_eq!(
            groups, kept,
            "the oldest cycle is evicted, the rest unpack equal"
        );
        assert_eq!(flight.total_spans(), 8);
        let render = |groups: &[(u64, Vec<SpanRecord>)]| {
            let slices: Vec<(u64, &[SpanRecord])> =
                groups.iter().map(|(c, r)| (*c, r.as_slice())).collect();
            crate::chrome::render(&slices)
        };
        assert_eq!(render(&groups), render(kept));
        assert_eq!(flight.phase_summary(), summary_of(kept));
        assert_eq!(std::mem::size_of::<PackedSpan>(), 48);
        assert_eq!(std::mem::size_of::<PackedAttr>(), 16);
    }

    #[test]
    fn shared_clock_is_monotonic_across_sinks() {
        let mut a = MemorySpanSink::new();
        let id = a.open("first");
        a.close(id);
        let mut b = MemorySpanSink::new();
        let id = b.open("second");
        b.close(id);
        let first = &a.take_records()[0];
        let second = &b.take_records()[0];
        assert!(second.start_us >= first.start_us);
    }
}
