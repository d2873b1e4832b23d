//! A minimal, dependency-free JSON emitter.
//!
//! The fleet reports need canonical, byte-stable JSON (the determinism
//! test compares raw bytes), so floating-point fields derived from
//! count ratios are emitted with a fixed `{:.6}` format rather than a
//! shortest-round-trip algorithm.

use std::fmt::Write as _;

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

    /// `"key": <num/den>` as a fixed-format rate (0 when `den` is 0).
    pub fn field_rate(&mut self, key: &str, num: u64, den: u64) {
        let rate = if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        };
        self.field_f64(key, rate);
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
        refstate_telemetry::export::escape_into(&mut self.out, s);
        self.out.push('"');
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
        w.field_rate("r", 1, 4);
        w.end_object();
        w.end_array();
        w.key("d");
        w.begin_object();
        w.end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":1,"b":"x\"y","c":[{"r":0.500000},{"r":0.250000}],"d":{}}"#
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
        w.field_str("k", "a\nb\u{1}");
        w.end_object();
        assert_eq!(w.finish(), "{\"k\":\"a\\nb\\u0001\"}");
    }
}
