//! The crate's one JSON writer and reader.
//!
//! The observability layer must stay dependency-free (it sits *below*
//! `slotsel-core` in the workspace graph), so it carries its own JSON
//! support. One writer, [`ObjectWriter`], builds every document the crate
//! emits: trace event lines, span lines, HTTP bodies and, with
//! [`ObjectWriter::object_field`] for the nested `args`, Chrome trace
//! events. One reader, [`parse`], reads any JSON document into a
//! [`Value`] in a single pass: string runs without escapes are copied
//! whole, so the cost is linear in the input. [`parse_object`] is the
//! same reader held to what a trace line or request body may contain: one
//! object of string, number and boolean fields, each name once. Nested
//! objects, arrays and `null` are refused there, which keeps the reader
//! honest about the flat event schema.
//!
//! Determinism is the point. [`ObjectWriter`] emits fields in exactly the
//! call order, floats are formatted with Rust's shortest-round-trip
//! `Display`, and no timestamps or hash-map iteration are involved — so
//! the same events always serialize to the same bytes, which is what lets
//! traces be compared byte-for-byte across runs (see the determinism
//! property test in `slotsel-sim`).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; `f64` is lossless for every integer the crate
    /// writes (all are well below 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a field up in an object value (the first of that name).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds one JSON object as a single line, fields in call order.
///
/// ```
/// use slotsel_obs::json::ObjectWriter;
///
/// let mut w = ObjectWriter::new();
/// w.str_field("type", "scan_started");
/// w.u64_field("slots", 42);
/// assert_eq!(w.finish(), r#"{"type":"scan_started","slots":42}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(name, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Appends a string field.
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
    }

    /// Appends an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a signed integer field.
    pub fn i64_field(&mut self, name: &str, value: i64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a float field, using Rust's shortest-round-trip formatting.
    ///
    /// Non-finite values have no JSON representation; they are clamped to
    /// the literal `0` with a `"non_finite"` marker string appended under
    /// `<name>_invalid` so the anomaly stays visible in the trace.
    pub fn f64_field(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.key(name);
            if value == value.trunc() && value.abs() < 1e15 {
                // Keep integral floats readable (`3` not `3.0`): JSON does
                // not distinguish, and the parser reads both identically.
                let _ = write!(self.buf, "{}", value.trunc() as i64);
            } else {
                let _ = write!(self.buf, "{value}");
            }
        } else {
            self.key(name);
            self.buf.push('0');
            self.str_field(&format!("{name}_invalid"), "non_finite");
        }
    }

    /// Appends a boolean field.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Appends a finished object as a nested field (a Chrome event's
    /// `args`).
    pub fn object_field(&mut self, name: &str, object: ObjectWriter) {
        self.key(name);
        self.buf.push_str(&object.finish());
    }

    /// Closes the object and returns the single-line JSON string.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Error from the reader: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input at which reading failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document of any shape.
///
/// # Errors
///
/// Returns a description of the first syntax error and its byte offset;
/// nesting deeper than 128 arrays and objects counts as one.
pub fn parse(text: &str) -> Result<Value, String> {
    Reader::new(text, false)
        .document()
        .map_err(|e| e.to_string())
}

/// Parses one flat JSON object — a trace line or a request body.
///
/// Accepts exactly the subset [`ObjectWriter`] produces without
/// [`ObjectWriter::object_field`] (plus arbitrary inter-token
/// whitespace): a single object of string/number/boolean fields with
/// distinct names. Returns it as a [`Value::Obj`].
///
/// # Errors
///
/// Everything [`parse`] refuses, plus a top level that is not an object,
/// a nested object, an array, `null` and a repeated field name.
pub fn parse_object(line: &str) -> Result<Value, JsonError> {
    Reader::new(line, true).document()
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 128;

struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Set by [`parse_object`]: the document must be one object of scalar
    /// fields with distinct names.
    flat: bool,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str, flat: bool) -> Self {
        Reader { text, pos: 0, flat }
    }

    fn fail<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.to_owned(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, expected: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", char::from(expected)))
        }
    }

    fn document(mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        if self.flat && self.peek() != Some(b'{') {
            return self.fail("expected '{'");
        }
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.fail("trailing content after the document");
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[' | b'n') if self.flat && depth > 0 => {
                self.fail("expected a string, number or boolean")
            }
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'{') => {
                let fields = self.items(b'}', |reader, fields: &[(String, Value)]| {
                    reader.skip_ws();
                    let at = reader.pos;
                    let key = reader.string()?;
                    if reader.flat && fields.iter().any(|(k, _)| *k == key) {
                        reader.pos = at;
                        return reader.fail(&format!("duplicate field {key:?}"));
                    }
                    reader.expect(b':')?;
                    Ok((key, reader.value(depth + 1)?))
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'[') => Ok(Value::Arr(
                self.items(b']', |reader, _| reader.value(depth + 1))?,
            )),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("expected a JSON value"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Reads the comma-separated items of an object or array, from its
    /// opening bracket through `close`. `item` sees the items read so far.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self, &[T]) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            let next = item(self, &items)?;
            items.push(next);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(items),
                _ => return self.fail(&format!("expected ',' or '{}'", char::from(close))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return self.fail("expected a string");
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one step: all three are ASCII, so the run is whole UTF-8.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => {
                    self.pos -= 1;
                    return self.fail("raw control character in string");
                }
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                let Some(code) = code else {
                    return self.fail("malformed \\u escape");
                };
                // Surrogates never appear: the writer escapes only control
                // characters this way.
                let Some(c) = char::from_u32(code) else {
                    return self.fail("\\u escape is not a scalar value");
                };
                self.pos += 4;
                c
            }
            _ => return self.fail("unknown escape"),
        })
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.fail("malformed number"),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail(&format!("expected '{word}'"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'v>(object: &'v Value, name: &str) -> &'v Value {
        object.get(name).expect("field present")
    }

    #[test]
    fn writes_fields_in_call_order() {
        let mut w = ObjectWriter::new();
        w.str_field("b", "x");
        w.u64_field("a", 1);
        w.bool_field("c", false);
        assert_eq!(w.finish(), r#"{"b":"x","a":1,"c":false}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
        assert_eq!(parse_object("{}").unwrap(), Value::Obj(Vec::new()));
    }

    #[test]
    fn escapes_and_unescapes() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcødé";
        let mut w = ObjectWriter::new();
        w.str_field("s", nasty);
        let line = w.finish();
        let parsed = parse_object(&line).unwrap();
        assert_eq!(field(&parsed, "s").as_str(), Some(nasty));
    }

    #[test]
    fn numbers_round_trip() {
        let mut w = ObjectWriter::new();
        w.i64_field("i", -42);
        w.u64_field("u", u64::from(u32::MAX));
        w.f64_field("f", 0.1 + 0.2);
        w.f64_field("whole", 3.0);
        let parsed = parse_object(&w.finish()).unwrap();
        assert_eq!(field(&parsed, "i").as_f64(), Some(-42.0));
        assert_eq!(field(&parsed, "u").as_f64(), Some(f64::from(u32::MAX)));
        assert_eq!(field(&parsed, "f").as_f64(), Some(0.1 + 0.2));
        assert_eq!(field(&parsed, "whole").as_f64(), Some(3.0));
    }

    #[test]
    fn non_finite_floats_are_marked() {
        let mut w = ObjectWriter::new();
        w.f64_field("x", f64::NAN);
        let parsed = parse_object(&w.finish()).unwrap();
        assert_eq!(field(&parsed, "x").as_f64(), Some(0.0));
        assert_eq!(field(&parsed, "x_invalid").as_str(), Some("non_finite"));
    }

    #[test]
    fn nested_objects_are_written_whole() {
        let mut args = ObjectWriter::new();
        args.u64_field("id", 1);
        let mut w = ObjectWriter::new();
        w.str_field("ph", "X");
        w.object_field("args", args);
        let line = w.finish();
        assert_eq!(line, r#"{"ph":"X","args":{"id":1}}"#);
        let parsed = parse(&line).unwrap();
        assert_eq!(field(field(&parsed, "args"), "id").as_f64(), Some(1.0));
    }

    #[test]
    fn deep_nesting_is_refused_not_recursed_into() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
        let fits = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&fits).is_ok());
    }
}
