//! Golden bytes for every JSON document the observability layer writes.
//!
//! Each case pins the length and an FNV-1a 64 digest of one output:
//! the Chrome trace of a fixed two-group span set, one trace line per
//! `TraceEvent` variant and the normalized HTTP error body. Names and attributes carry quotes,
//! backslashes, newlines, a control character and non-ASCII text; floats
//! are integral, fractional and NaN. The values were recorded on the
//! writer as it stood before the crate's two JSON readers became one,
//! and must not change: trace, span, HTTP and Chrome bytes are a contract.

use slotsel_obs::span::AttrValue;
use slotsel_obs::{chrome, HttpResponse, SpanId, SpanRecord, TraceEvent};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const HOSTILE: &str = "q\"b\\n\nc\u{1}\r\té—ü";

fn span(id: u64, parent: u64, name: &str, track: u32, start: u64, end: u64) -> SpanRecord {
    SpanRecord {
        id: SpanId(id),
        parent: SpanId(parent),
        name: name.to_owned(),
        track,
        start_us: start,
        end_us: end,
        attrs: Vec::new(),
        instant: false,
    }
}

/// `(group id, records)`: a cycle with a root, a shard child and an
/// instant, and a second cycle with one span on its own track.
fn groups() -> Vec<(u64, Vec<SpanRecord>)> {
    let mut root = span(1, 0, &format!("serve.cycle {HOSTILE}"), 0, 100, 900);
    root.attrs = vec![
        ("jobs".to_owned(), AttrValue::U64(12)),
        (
            format!("note {HOSTILE}"),
            AttrValue::Str(HOSTILE.to_owned()),
        ),
    ];
    let mut shard = span(2, 1, "serve.shard", 2, 150, 600);
    shard.attrs = vec![("policy".to_owned(), AttrValue::Str("AMP".to_owned()))];
    let mut mark = span(3, 2, "mckp.solved \u{1}", 2, 400, 400);
    mark.instant = true;
    mark.attrs = vec![("items".to_owned(), AttrValue::U64(u64::MAX))];
    let mut other = span(1, 0, "batch.schedule", 1, 1_000, 1_250);
    other.attrs = vec![("ü".to_owned(), AttrValue::Str("\\\"".to_owned()))];
    vec![(3, vec![root, shard, mark]), (7, vec![other])]
}

fn chrome_document() -> String {
    let groups = groups();
    let refs: Vec<(u64, &[SpanRecord])> = groups.iter().map(|(g, r)| (*g, r.as_slice())).collect();
    chrome::render(&refs)
}

fn event_lines() -> String {
    let events = [
        TraceEvent::Count {
            name: HOSTILE.to_owned(),
            delta: 3,
        },
        TraceEvent::Sample {
            name: "sample.whole".to_owned(),
            value: 3.0,
        },
        TraceEvent::Sample {
            name: "sample.frac".to_owned(),
            value: 0.1 + 0.2,
        },
        TraceEvent::Sample {
            name: "sample.nan".to_owned(),
            value: f64::NAN,
        },
        TraceEvent::Timing {
            name: "timing".to_owned(),
            nanos: 1_234_567,
        },
        TraceEvent::ScanStarted {
            policy: "AMP".to_owned(),
            nodes_requested: 4,
            slots_total: 96,
        },
        TraceEvent::BestUpdated {
            policy: HOSTILE.to_owned(),
            step: 7,
            window_start: -40,
            score: 1e20,
        },
        TraceEvent::ScanFinished {
            policy: "MinCost".to_owned(),
            slots_admitted: 10,
            slots_rejected: 2,
            windows_evaluated: 8,
            peak_alive: 5,
            subtrees_skipped: 1,
            windows_jumped: 0,
            found: true,
            best_score: -2.5e-7,
        },
        TraceEvent::BatchStarted { jobs: 6 },
        TraceEvent::AlternativesFound { job: 2, count: 9 },
        TraceEvent::MckpSolved {
            classes: 3,
            items: 11,
            exact: false,
        },
        TraceEvent::JobCommitted {
            job: 2,
            start: 100,
            finish: 260,
            cost: f64::INFINITY,
        },
        TraceEvent::JobDeferred { job: 5 },
        TraceEvent::CycleStarted {
            cycle: 4,
            pending: 6,
        },
        TraceEvent::CycleFinished {
            cycle: 4,
            scheduled: 5,
            spent: 1234.5,
        },
        TraceEvent::SlotRevoked {
            cycle: 4,
            node: 17,
            span_start: -5,
            span_end: 300,
        },
        TraceEvent::NodeFailed {
            cycle: 4,
            node: 17,
            repair_cycles: 2,
        },
        TraceEvent::NodeRestored { cycle: 6, node: 17 },
        TraceEvent::NodeDegraded {
            cycle: 6,
            node: 3,
            from_rate: 8,
            to_rate: 5,
        },
        TraceEvent::WindowAudited {
            job: 2,
            survived: true,
        },
        TraceEvent::JobRescued {
            cycle: 5,
            job: 2,
            via: HOSTILE.to_owned(),
        },
        TraceEvent::JobLost { cycle: 5, job: 3 },
        TraceEvent::JobParked {
            cycle: 5,
            job: 4,
            eligible_at: 9,
        },
        TraceEvent::JobReadmitted { cycle: 9, job: 4 },
    ];
    let mut text = String::new();
    for event in &events {
        text.push_str(&event.to_json_line());
        text.push('\n');
    }
    text
}

fn error_body() -> String {
    HttpResponse::error(400, "bad_request", HOSTILE).body
}

/// `(label, length, digest)` of each pinned output.
const GOLDEN: [(&str, usize, u64); 3] = [
    ("chrome", 953, 0xdf1c_b9a4_e054_cd25),
    ("event_lines", 1600, 0x240e_1d09_d871_4e82),
    ("error_body", 63, 0xd81b_5564_3cd9_d2e8),
];

#[test]
fn writer_bytes_match_the_goldens() {
    let outputs = [
        ("chrome", chrome_document()),
        ("event_lines", event_lines()),
        ("error_body", error_body()),
    ];
    let actual: Vec<(&str, usize, u64)> = outputs
        .iter()
        .map(|(label, text)| (*label, text.len(), fnv(text.as_bytes())))
        .collect();
    assert_eq!(actual, GOLDEN);
}

#[test]
fn golden_inputs_exercise_every_writer_rule() {
    let chrome = chrome_document();
    assert!(chrome.contains("\\u0001") && chrome.contains("\\\"") && chrome.contains("\\n"));
    assert!(chrome.contains('é') && chrome.contains("\"ph\":\"i\""));
    let events = event_lines();
    assert!(
        events.contains("\"value\":3}"),
        "integral floats print bare"
    );
    assert!(events.contains("\"value_invalid\":\"non_finite\""));
    assert!(events.contains("\"cost_invalid\":\"non_finite\""));
    assert_eq!(events.lines().count(), 24);
}
