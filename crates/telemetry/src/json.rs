//! The workspace's one JSON writer and one JSON parser.
//!
//! The workspace has no serde (offline build, vendored shims only), so
//! every artifact — fleet reports, bench trajectories, the soak SLO
//! document, Chrome traces and metrics JSONL — is written through
//! [`JsonWriter`], and every artifact a checker reads back is parsed by
//! [`parse`]. Telemetry is the lowest crate that emits JSON, so both live
//! here.
//!
//! The writer emits compact, canonical JSON: byte-stable for identical
//! input (the fleet determinism test compares raw bytes), so floats are
//! written with a fixed `{:.6}` format rather than a shortest-round-trip
//! algorithm.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Escapes a string for inclusion in a JSON string literal: quotes,
/// backslashes, and control characters (`\n`, `\r`, `\t` by name, the
/// rest as `\u00XX`).
fn escape_into(out: &mut String, s: &str) {
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

/// An append-only JSON writer with automatic comma placement.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One "has entries already" flag per open container.
    has_entries: Vec<bool>,
    /// Set between a `key()` and its value: the value continues the
    /// current entry instead of starting a new one.
    after_key: bool,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Emits the separating comma when starting a new entry in the
    /// current container.
    fn start_entry(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has) = self.has_entries.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) {
        self.start_entry();
        self.out.push('{');
        self.has_entries.push(false);
    }

    /// Closes `}`.
    pub fn end_object(&mut self) {
        self.has_entries.pop();
        self.out.push('}');
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) {
        self.start_entry();
        self.out.push('[');
        self.has_entries.push(false);
    }

    /// Closes `]`.
    pub fn end_array(&mut self) {
        self.has_entries.pop();
        self.out.push(']');
    }

    /// Emits an object key; the next emitted value belongs to it.
    pub fn key(&mut self, key: &str) {
        self.start_entry();
        self.push_string(key);
        self.out.push(':');
        self.after_key = true;
    }

    /// A bare `[u64, …]` array value: an array element, or the value of
    /// the preceding [`key`](JsonWriter::key).
    pub fn u64_array(&mut self, values: &[u64]) {
        self.begin_array();
        for value in values {
            self.start_entry();
            let _ = write!(self.out, "{value}");
        }
        self.end_array();
    }

    /// `"key": <u64>`.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.start_entry();
        let _ = write!(self.out, "{value}");
    }

    /// `"key": "<str>"`.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.start_entry();
        self.push_string(value);
    }

    /// `"key": <f64>` with fixed 6-decimal formatting (byte-stable).
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        self.start_entry();
        let _ = write!(self.out, "{value:.6}");
    }

    /// `"key": <num/den>` as a fixed-format rate, or `null` when `den` is
    /// 0 — an *undefined* measurement (e.g. the attribution accuracy of a
    /// mechanism that detected nothing, or any rate of a mechanism that
    /// ran no journeys), as opposed to a measured zero.
    pub fn field_rate_or_null(&mut self, key: &str, num: u64, den: u64) {
        if den == 0 {
            self.field_null(key);
        } else {
            self.field_f64(key, num as f64 / den as f64);
        }
    }

    /// `"key": null`.
    pub fn field_null(&mut self, key: &str) {
        self.key(key);
        self.start_entry();
        self.out.push_str("null");
    }

    /// `"key": true|false`.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.start_entry();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Returns the serialized JSON.
    pub fn finish(self) -> String {
        debug_assert!(self.has_entries.is_empty(), "unclosed JSON container");
        self.out
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every artifact field).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is not preserved (keys are sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse or schema failure, with enough context to locate it.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (strict recursive descent);
/// trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after JSON document"));
    }
    Ok(value)
}

fn err(pos: usize, what: &str) -> JsonError {
    JsonError(format!("at byte {pos}: {what}"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", ch as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{word}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, &format!("invalid number {text:?}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    // Accumulate raw bytes and decode as UTF-8 once at the closing quote,
    // so multi-byte characters survive intact; escapes append their
    // characters' UTF-8 encodings.
    let mut out: Vec<u8> = Vec::new();
    let push_char = |out: &mut Vec<u8>, c: char| {
        let mut buf = [0u8; 4];
        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
    };
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| err(start, "string is not valid UTF-8"));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates are not paired; no artifact contains
                        // them.
                        push_char(&mut out, char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure_with_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("a", 1);
        w.field_str("b", "x\"y");
        w.key("c");
        w.begin_array();
        w.begin_object();
        w.field_f64("r", 0.5);
        w.end_object();
        w.begin_object();
        w.field_f64("r", 0.25);
        w.end_object();
        w.end_array();
        w.key("d");
        w.begin_object();
        w.end_object();
        w.key("e");
        w.begin_array();
        w.u64_array(&[96, 2]);
        w.u64_array(&[]);
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":1,"b":"x\"y","c":[{"r":0.500000},{"r":0.250000}],"d":{},"e":[[96,2],[]]}"#
        );
    }

    #[test]
    fn null_and_bool_fields() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_rate_or_null("undefined", 0, 0);
        w.field_rate_or_null("half", 1, 2);
        w.field_bool("ran", false);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"undefined":null,"half":0.500000,"ran":false}"#
        );
    }

    #[test]
    fn control_chars_escaped() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("k", "a\nb\u{1}\r\t");
        w.end_object();
        assert_eq!(w.finish(), "{\"k\":\"a\\nb\\u0001\\r\\t\"}");
    }

    #[test]
    fn written_documents_parse_back() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "µs \"quoted\"\n");
        w.key("pair");
        w.u64_array(&[3, 4]);
        w.end_object();
        let doc = parse(&w.finish()).unwrap();
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("µs \"quoted\"\n")
        );
        let pair = doc.get("pair").and_then(Json::as_arr).unwrap();
        assert_eq!(pair, [Json::Num(3.0), Json::Num(4.0)]);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escape_round_trips() {
        let escaped = |hex: &str| format!("\"\\u{hex}\"");
        assert_eq!(parse(&escaped("0041")).unwrap(), Json::Str("A".into()));
        assert_eq!(parse(&escaped("00b5")).unwrap(), Json::Str("µ".into()));
    }

    #[test]
    fn multi_byte_utf8_survives() {
        assert_eq!(
            parse("\"µs → fast\"").unwrap(),
            Json::Str("µs → fast".into())
        );
    }
}
