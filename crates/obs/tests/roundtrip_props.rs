//! Property tests for the event schema: serialization is total and
//! `from_json_line` is the exact inverse of `to_json_line`, for arbitrary
//! field contents — including hostile strings and extreme numerics. The
//! same holds one level down, for any object `ObjectWriter` builds, and
//! for span names and attributes through a Chrome document.

use proptest::prelude::*;

use slotsel_obs::chrome;
use slotsel_obs::json::{parse_object, ObjectWriter, Value};
use slotsel_obs::span::AttrValue;
use slotsel_obs::{SpanId, SpanRecord, TraceEvent};

/// Arbitrary Unicode strings, biased toward JSON-hostile content
/// (quotes, backslashes, control characters, astral-plane chars).
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x0011_0000, 0..24).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|c| match c % 8 {
                0 => Some('"'),
                1 => Some('\\'),
                2 => char::from_u32(c % 0x20), // control characters
                _ => char::from_u32(c),        // anything valid, or skipped
            })
            .collect()
    })
}

fn arb_f64() -> impl Strategy<Value = f64> {
    (-1.0e12f64..1.0e12).prop_map(|v| v)
}

/// Integers `f64` holds exactly, as every reader value does.
const EXACT: i64 = 1 << 53;

/// Writes one field of the kind `kind` selects; returns what a reader
/// must give back for it.
fn write_field(
    w: &mut ObjectWriter,
    name: &str,
    kind: u8,
    text: &str,
    int: i64,
    real: f64,
) -> Value {
    match kind % 5 {
        0 => {
            w.str_field(name, text);
            Value::Str(text.to_owned())
        }
        1 => {
            w.u64_field(name, int.unsigned_abs());
            Value::Num(int.unsigned_abs() as f64)
        }
        2 => {
            w.i64_field(name, int);
            Value::Num(int as f64)
        }
        3 => {
            w.f64_field(name, real);
            Value::Num(real)
        }
        _ => {
            w.bool_field(name, int % 2 == 0);
            Value::Bool(int % 2 == 0)
        }
    }
}

proptest! {
    #[test]
    fn count_round_trips(name in arb_string(), delta in 0u64..u64::from(u32::MAX)) {
        // `name` is &'static str at the Recorder interface but arbitrary
        // in the schema itself; the event type carries a String.
        let event = TraceEvent::Count { name, delta };
        let line = event.to_json_line();
        prop_assert_eq!(TraceEvent::from_json_line(&line).unwrap(), event);
    }

    #[test]
    fn sample_round_trips(name in arb_string(), value in arb_f64()) {
        let event = TraceEvent::Sample { name, value };
        let line = event.to_json_line();
        prop_assert_eq!(TraceEvent::from_json_line(&line).unwrap(), event);
    }

    #[test]
    fn scan_finished_round_trips(
        policy in arb_string(),
        admitted in 0u64..1_000_000,
        rejected in 0u64..1_000_000,
        evaluated in 0u64..1_000_000,
        peak in 0u64..1_000_000,
        (skipped, jumped) in (0u64..1_000_000, 0u64..1_000_000),
        found in any::<bool>(),
        score in arb_f64(),
    ) {
        let event = TraceEvent::ScanFinished {
            policy,
            slots_admitted: admitted,
            slots_rejected: rejected,
            windows_evaluated: evaluated,
            peak_alive: peak,
            subtrees_skipped: skipped,
            windows_jumped: jumped,
            found,
            best_score: score,
        };
        let line = event.to_json_line();
        prop_assert_eq!(TraceEvent::from_json_line(&line).unwrap(), event);
    }

    #[test]
    fn job_committed_round_trips(
        job in 0u64..1_000_000,
        start in -1_000_000i64..1_000_000,
        finish in -1_000_000i64..1_000_000,
        cost in arb_f64(),
    ) {
        let event = TraceEvent::JobCommitted { job, start, finish, cost };
        let line = event.to_json_line();
        prop_assert_eq!(TraceEvent::from_json_line(&line).unwrap(), event);
    }

    #[test]
    fn rescue_round_trips(cycle in 0u64..10_000, job in 0u64..10_000, via in arb_string()) {
        let event = TraceEvent::JobRescued { cycle, job, via };
        let line = event.to_json_line();
        prop_assert_eq!(TraceEvent::from_json_line(&line).unwrap(), event);
    }

    #[test]
    fn serialized_lines_never_contain_raw_newlines(name in arb_string(), value in arb_f64()) {
        let line = TraceEvent::Sample { name, value }.to_json_line();
        prop_assert!(!line.contains('\n'), "JSONL lines must be single lines: {}", line);
        prop_assert!(!line.contains('\r'));
    }

    #[test]
    fn written_objects_read_back_equal(
        fields in prop::collection::vec(
            (arb_string(), any::<u8>(), arb_string(), -EXACT..EXACT, arb_f64()),
            0..12,
        ),
    ) {
        let mut w = ObjectWriter::new();
        let mut expected = Vec::new();
        for (index, (name, kind, text, int, real)) in fields.iter().enumerate() {
            // The `#index` suffix keeps names distinct, as a flat object's
            // must be.
            let name = format!("{name}#{index}");
            let value = write_field(&mut w, &name, *kind, text, *int, *real);
            expected.push((name, value));
        }
        let line = w.finish();
        prop_assert_eq!(parse_object(&line).unwrap(), Value::Obj(expected));
    }

    #[test]
    fn span_names_and_attrs_survive_a_chrome_document(
        name in arb_string(),
        attrs in prop::collection::vec((arb_string(), any::<bool>(), arb_string(), any::<u64>()), 0..6),
    ) {
        let attrs: Vec<(String, AttrValue)> = attrs
            .into_iter()
            .enumerate()
            .map(|(index, (key, is_text, text, int))| {
                let value = if is_text { AttrValue::Str(text) } else { AttrValue::U64(int) };
                (format!("{key}#{index}"), value)
            })
            .collect();
        let record = SpanRecord {
            id: SpanId(1),
            parent: SpanId::NONE,
            name: name.clone(),
            track: 0,
            start_us: 10,
            end_us: 25,
            attrs: attrs.clone(),
            instant: false,
        };
        let document = chrome::parse(&chrome::render(&[(4, &[record][..])])).unwrap();
        let events = document.get("traceEvents").and_then(Value::as_array).unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .unwrap();
        prop_assert_eq!(span.get("name").and_then(Value::as_str), Some(name.as_str()));
        let args = span.get("args").unwrap();
        for (key, value) in &attrs {
            let expected = match value {
                AttrValue::U64(v) => Value::Num(*v as f64),
                AttrValue::Str(v) => Value::Str(v.clone()),
            };
            prop_assert_eq!(args.get(key), Some(&expected));
        }
    }
}
