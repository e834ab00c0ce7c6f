//! The live daemon's span flight recorder keeps each retained cycle
//! packed. These tests take the span tree of one real scheduled cycle (a
//! seed-1 1 x 64 service with 32 queued jobs, as the daemon runs it) and
//! check that the packed recorder gives the records back — the Chrome
//! document rendered from them has the same bytes and the per-phase
//! summary counts every span — and pin the heap the recorder retains
//! for 64 such cycles, against what the 64 record vectors held unpacked.
//!
//! The byte counts come from the counting allocator of `counting_alloc`,
//! which sees only this thread; they depend only on the seeded state, not
//! on the host.

// Only `live_bytes` is read here, not `cost_of`.
#[allow(dead_code)]
mod counting_alloc;

use counting_alloc::live_bytes;
use slotsel_obs::chrome;
use slotsel_obs::journal::NoopJournal;
use slotsel_obs::span::AttrValue;
use slotsel_obs::{FlightRecorder, MemorySpanSink, NoopMetrics, SpanId, SpanRecord};
use slotsel_sim::serve::{LiveConfig, LiveService, Submission};

/// The heap bytes the recorder retains for 64 copies of the cycle,
/// measured when the packed layout was introduced. A change that grows
/// the packed form fails here; one that shrinks it should lower the pin.
const RETAINED_PIN: i64 = 5_565_472;

/// The span tree of one cycle that schedules 32 queued jobs on a seed-1
/// 1 x 64 service, as `MemorySpanSink` built it.
fn cycle_records() -> Vec<SpanRecord> {
    let mut service = LiveService::new(LiveConfig {
        shards: 1,
        nodes_per_shard: 64,
        interval_length: 600,
        cycle_advance: 60,
        seed: 1,
        ..LiveConfig::default()
    });
    for job in 0..32u32 {
        service
            .submit(&Submission {
                tenant: format!("tenant-{}", job % 2),
                nodes: 2 + job as usize % 4,
                volume: 300,
                budget: 20_000.0,
                priority: job % 3,
                deadline: None,
                shard: None,
            })
            .expect("the fixed batch is admitted");
    }
    let mut sink = MemorySpanSink::new();
    let outcome = service.run_cycle_spanned(&NoopMetrics, &mut NoopJournal, &mut sink);
    assert!(!outcome.committed.is_empty(), "the cycle schedules jobs");
    sink.take_records()
}

fn render(groups: &[(u64, Vec<SpanRecord>)]) -> String {
    let groups: Vec<(u64, &[SpanRecord])> = groups
        .iter()
        .map(|(cycle, records)| (*cycle, records.as_slice()))
        .collect();
    chrome::render(&groups)
}

#[test]
fn a_packed_cycle_renders_and_summarises_as_its_records() {
    let records = cycle_records();
    assert!(
        records
            .iter()
            .flat_map(|record| &record.attrs)
            .any(|(_, value)| matches!(value, AttrValue::Str(_))),
        "the cycle carries string attributes"
    );
    // The same tree with an instant under its root.
    let mut with_instant = records.clone();
    with_instant.push(SpanRecord {
        id: SpanId(with_instant.len() as u64 + 1),
        parent: records[0].id,
        name: "mckp.solved".to_owned(),
        track: 0,
        start_us: records[0].end_us,
        end_us: records[0].end_us,
        attrs: vec![("items".to_owned(), AttrValue::U64(32))],
        instant: true,
    });
    let pushed = [(20, records.clone()), (21, with_instant), (22, records)];

    let mut flight = FlightRecorder::new(2);
    for (cycle, records) in &pushed {
        flight.push(*cycle, records.clone());
    }
    let kept = &pushed[1..];
    let groups: Vec<(u64, Vec<SpanRecord>)> = flight.groups().collect();
    assert_eq!(groups, kept, "cycle 20 is evicted, 21 and 22 unpack equal");
    let document = render(&groups);
    assert_eq!(document, render(kept), "the same Chrome bytes");
    chrome::validate(&document).expect("a valid trace");
    // `groups()` equal to the records fixes every packed name and time the
    // summary reads; `span::tests` checks the aggregation against the
    // records. Here every span but the instant is summarised once.
    let summarised: u64 = flight
        .phase_summary()
        .iter()
        .map(|(_, phase)| phase.count)
        .sum();
    let spans = kept.iter().flat_map(|(_, records)| records);
    assert_eq!(
        summarised,
        spans.filter(|record| !record.instant).count() as u64
    );
}

#[test]
fn the_recorder_retains_at_most_40_percent_of_the_unpacked_records() {
    let records = cycle_records();
    let spans = records.len() as i64;

    let before = live_bytes();
    let mut flight = FlightRecorder::new(64);
    for cycle in 0..64 {
        flight.push(cycle, records.clone());
    }
    let retained = live_bytes() - before;
    assert_eq!(flight.total_spans(), 64 * records.len());

    // What one cycle's records hold as the sink built them, as the
    // recorder kept them before it packed.
    let before = live_bytes();
    drop(records);
    let unpacked = 64 * (before - live_bytes());

    eprintln!(
        "64 cycles of {spans} spans: {retained} B retained packed ({} B/span), \
         {unpacked} B unpacked ({} B/span)",
        retained / (64 * spans),
        unpacked / (64 * spans),
    );
    assert!(
        retained <= RETAINED_PIN,
        "{retained} B retained, pinned at {RETAINED_PIN}"
    );
    assert!(
        retained * 100 <= unpacked * 40,
        "{retained} B retained is more than 40 % of {unpacked} B unpacked"
    );
}
