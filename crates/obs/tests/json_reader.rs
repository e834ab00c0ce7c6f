//! The crate's one JSON reader, through its public entry points: a
//! single table of accepted and refused inputs over `json::parse` and
//! `json::parse_object`, the values and error offsets they give back, and
//! Chrome validation, which reads through the same parser, staying linear
//! in the document size.

use slotsel_obs::chrome;
use slotsel_obs::json::{parse, parse_object, Value};
use slotsel_obs::span::AttrValue;
use slotsel_obs::{SpanId, SpanRecord};

fn field<'v>(object: &'v Value, name: &str) -> &'v Value {
    object.get(name).expect("field present")
}

/// `(input, parse accepts, parse_object accepts)`: one table over both
/// entry points, so the flat reader is the full reader plus the
/// flatness rules and nothing else.
const PARITY: &[(&str, bool, bool)] = &[
    // Nesting, arrays and null: documents, but not flat objects.
    (r#"{"a":[1]}"#, true, false),
    (r#"{"a":{"b":1}}"#, true, false),
    (r#"{"a":null}"#, true, false),
    (
        r#"{"a":[1, -2.5, 1e3, true, false, null, "s"], "b":{"c":{}}}"#,
        true,
        false,
    ),
    (r#"{"noTraceEvents":[]}"#, true, false),
    (r#"{"traceEvents":[{"ph":"X"}]}"#, true, false),
    // The top level of a flat object is an object.
    ("[1]", true, false),
    (r#""s""#, true, false),
    ("1", true, false),
    // A repeated field name.
    (r#"{"budget":1,"budget":1e9}"#, true, false),
    // Truncation and trailing content.
    (r#"{"a":1"#, false, false),
    (r#"{"a":1} extra"#, false, false),
    (r#"{"a":1} trailing"#, false, false),
    ("{} {}", false, false),
    ("", false, false),
    ("not json", false, false),
    // Trailing commas.
    ("[1,2,]", false, false),
    (r#"{"a":1,}"#, false, false),
    // Raw control characters inside strings.
    ("{\"a\":\"x\u{1}y\"}", false, false),
    ("{\"a\":\"two\nlines\"}", false, false),
    // Unknown, malformed and unterminated escapes.
    (r#"{"a":"\q"}"#, false, false),
    (r#"{"a":"\u12"}"#, false, false),
    (r#"{"a":"\u12G4"}"#, false, false),
    (r#"{"a":"\u+041"}"#, false, false),
    (r#"{"a":"\"#, false, false),
    (r#"{"a":"open"#, false, false),
    // A \u escape that is not a Unicode scalar value (a lone surrogate).
    (r#"{"a":"\ud800"}"#, false, false),
    // Malformed literals and numbers.
    (r#"{"a":tru}"#, false, false),
    (r#"{"a":nul}"#, false, false),
    (r#"{"a":-}"#, false, false),
    (r#"{"a":1e}"#, false, false),
    (r#"{"a":+1}"#, false, false),
    (r#"{"a":.5}"#, false, false),
    (r#"{"a":1.2.3}"#, false, false),
    // Keys are strings.
    (r#"{a:1}"#, false, false),
    // Accepted: whitespace, every escape, non-ASCII text, exponents and
    // negative numbers.
    ("{}", true, true),
    (" \t\r\n{ \"a\" : 1 ,\n\t\"b\" :\r\n\"x\" } \n", true, true),
    (r#"{"a":"\/\b\f\n\r\t\"\\é"}"#, true, true),
    (r#"{"a":"é — ü"}"#, true, true),
    (r#"{"a":"\u00e9\u00E9\u0001"}"#, true, true),
    (r#"{"a":1e3,"b":-2.5E-2,"c":1E+2,"d":-0.0}"#, true, true),
    (r#"{"a":-42,"b":true,"c":false}"#, true, true),
];

#[test]
fn reader_parity_table() {
    for &(input, document, flat) in PARITY {
        assert_eq!(parse(input).is_ok(), document, "parse({input:?})");
        assert_eq!(parse_object(input).is_ok(), flat, "parse_object({input:?})");
    }
}

#[test]
fn reader_decodes_escapes_numbers_and_nesting() {
    let escapes = parse_object(r#"{"a":"\/\b\f\n\r\t\"\\éé"}"#).unwrap();
    assert_eq!(
        field(&escapes, "a").as_str(),
        Some("/\u{8}\u{c}\n\r\t\"\\éé")
    );
    let numbers = parse_object(r#"{"a":1e3,"b":-2.5E-2,"c":1E+2,"d":-42}"#).unwrap();
    let num = |name| field(&numbers, name).as_f64();
    assert_eq!(
        [num("a"), num("b"), num("c"), num("d")],
        [Some(1000.0), Some(-0.025), Some(100.0), Some(-42.0)]
    );
    let value =
        parse("{\"a\":[1, -2.5, 1e3, true, false, null, \"s\"], \"b\":{\"c\":{}}}").unwrap();
    let items = field(&value, "a").as_array().unwrap();
    assert_eq!(items.len(), 7);
    assert_eq!(items[0].as_f64(), Some(1.0));
    assert_eq!(items[1].as_f64(), Some(-2.5));
    assert_eq!(items[2].as_f64(), Some(1000.0));
    assert_eq!(items[3], Value::Bool(true));
    assert_eq!(items[4].as_bool(), Some(false));
    assert_eq!(items[5], Value::Null);
    assert_eq!(items[6].as_str(), Some("s"));
    assert!(field(&value, "b").get("c").is_some());
}

#[test]
fn a_repeated_field_is_refused_where_it_repeats() {
    let body = r#"{"budget":1,"budget":1e9}"#;
    let error = parse_object(body).unwrap_err();
    assert_eq!(error.offset, body.rfind("\"budget\"").unwrap());
    assert!(error.message.contains("duplicate field"), "{error}");
    // The full reader keeps both copies; lookups see the first.
    assert_eq!(field(&parse(body).unwrap(), "budget").as_f64(), Some(1.0));
}

#[test]
fn errors_point_at_the_offending_byte() {
    let error = parse_object(r#"{"a":[1]}"#).unwrap_err();
    assert_eq!(error.offset, 5);
    let error = parse_object("{\"a\":\"x\u{1}\"}").unwrap_err();
    assert_eq!(error.offset, 7);
    assert_eq!(
        parse(r#"{"a":1} extra"#).unwrap_err(),
        "JSON error at byte 8: trailing content after the document"
    );
}

#[test]
fn chrome_validation_is_linear_in_the_document_size() {
    // A root over 20,000 sequential children with a long string
    // attribute each: more than 2 MB. A reader that rescans the rest
    // of the document per character takes minutes here.
    let note = "x".repeat(48);
    let spans = 20_000u64;
    let mut records = vec![SpanRecord {
        id: SpanId(1),
        parent: SpanId::NONE,
        name: "serve.cycle".to_owned(),
        track: 0,
        start_us: 0,
        end_us: spans * 10,
        attrs: Vec::new(),
        instant: false,
    }];
    for i in 0..spans - 1 {
        records.push(SpanRecord {
            id: SpanId(i + 2),
            parent: SpanId(1),
            name: "aep.scan".to_owned(),
            track: 1,
            start_us: i * 10,
            end_us: i * 10 + 5,
            attrs: vec![("note".to_owned(), AttrValue::Str(note.clone()))],
            instant: false,
        });
    }
    let text = chrome::render(&[(1, &records)]);
    assert!(text.len() > 2_000_000, "{} bytes", text.len());
    let started = std::time::Instant::now();
    let summary = chrome::validate(&text).expect("valid trace");
    let elapsed = started.elapsed();
    assert_eq!(summary.spans, 20_000);
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "validating {} bytes took {elapsed:?}",
        text.len()
    );
}
