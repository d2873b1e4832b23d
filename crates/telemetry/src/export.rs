//! Exporters: Chrome `trace_event` JSON and a metrics JSONL stream.
//!
//! Both formats are written with a tiny hand-rolled JSON emitter (the
//! telemetry crate depends on nothing but the `parking_lot` shim). The
//! Chrome trace output is the array form understood by `chrome://tracing`
//! and Perfetto's legacy-trace importer; the metrics stream is one JSON
//! object per line, one line per counter or histogram series.

use crate::metrics::MetricsSnapshot;
use crate::span::TraceEvent;

/// Escapes a string for inclusion in a JSON string literal: quotes,
/// backslashes, and control characters (`\n`, `\r`, `\t` by name, the
/// rest as `\u00XX`). The workspace's one JSON string escaper.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Renders trace events as a Chrome `trace_event` JSON array.
///
/// Complete spans become `"ph":"X"` events with microsecond `ts`/`dur`
/// (fractional, so sub-microsecond spans survive); instants become
/// thread-scoped `"ph":"i"` events. The telemetry scope rides along as
/// `args.scope`, making per-mechanism lanes filterable in Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{");
        push_str_field(&mut out, "name", &event.name);
        out.push(',');
        push_str_field(&mut out, "cat", event.cat);
        out.push_str(&format!(
            ",\"pid\":1,\"tid\":{},\"ts\":{:.3}",
            event.tid,
            event.ts_ns as f64 / 1_000.0
        ));
        match event.dur_ns {
            Some(dur_ns) => {
                out.push_str(&format!(
                    ",\"ph\":\"X\",\"dur\":{:.3}",
                    dur_ns as f64 / 1_000.0
                ));
            }
            None => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        out.push_str(",\"args\":{");
        push_str_field(&mut out, "scope", event.scope);
        for (key, value) in &event.args {
            out.push(',');
            push_str_field(&mut out, key, value);
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

/// Renders a metrics snapshot as JSONL: one JSON object per line.
///
/// Counter lines look like
/// `{"type":"counter","scope":"protocol","name":"pipeline.cache_hit","index":0,"value":12}`;
/// histogram lines add `count`/`sum`/`min`/`max`, approximate `p50`/`p90`/`p99`,
/// and the sparse `buckets` array of `[bucket_lower_bound, count]` pairs.
/// Values are raw units — nanoseconds for duration histograms.
pub fn metrics_jsonl(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (key, value) in &snapshot.counters {
        out.push('{');
        push_str_field(&mut out, "type", "counter");
        out.push(',');
        push_str_field(&mut out, "scope", key.scope);
        out.push(',');
        push_str_field(&mut out, "name", key.name);
        out.push_str(&format!(",\"index\":{},\"value\":{}}}\n", key.index, value));
    }
    for (key, hist) in &snapshot.histograms {
        out.push('{');
        push_str_field(&mut out, "type", "histogram");
        out.push(',');
        push_str_field(&mut out, "scope", key.scope);
        out.push(',');
        push_str_field(&mut out, "name", key.name);
        out.push_str(&format!(
            ",\"index\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            key.index,
            hist.count,
            hist.sum,
            hist.min,
            hist.max,
            hist.quantile(0.5),
            hist.quantile(0.9),
            hist.quantile(0.99),
        ));
        for (i, (lower, count)) in hist.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{lower},{count}]"));
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricKey};
    use std::borrow::Cow;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: Cow::Borrowed("verify.replay"),
                cat: "pipeline",
                scope: "protocol",
                tid: 2,
                ts_ns: 1_500,
                dur_ns: Some(42_000),
                args: vec![("steps", "17".to_string())],
            },
            TraceEvent {
                name: Cow::Owned("note \"quoted\"\n".to_string()),
                cat: "platform",
                scope: "",
                tid: 1,
                ts_ns: 2_000,
                dur_ns: None,
                args: vec![],
            },
        ]
    }

    #[test]
    fn chrome_trace_shape_and_escaping() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":42.000"));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"scope\":\"protocol\""));
        assert!(json.contains("\"steps\":\"17\""));
        // The quote and newline must be escaped.
        assert!(json.contains("note \\\"quoted\\\"\\n"));
    }

    #[test]
    fn empty_trace_is_a_valid_empty_array() {
        assert_eq!(chrome_trace_json(&[]), "[\n]\n");
    }

    #[test]
    fn metrics_jsonl_lines_parse_independently() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert(
            MetricKey {
                scope: "traces",
                name: "pipeline.cache_hit",
                index: 0,
            },
            7,
        );
        let mut h = Histogram::default();
        h.record(100);
        h.record(200_000);
        snap.histograms.insert(
            MetricKey {
                scope: "traces",
                name: "verify.replay",
                index: 0,
            },
            h.snapshot(),
        );
        let text = metrics_jsonl(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"counter\""));
        assert!(lines[0].contains("\"value\":7"));
        assert!(lines[1].contains("\"type\":\"histogram\""));
        assert!(lines[1].contains("\"count\":2"));
        assert!(lines[1].contains("\"sum\":200100"));
        assert!(lines[1].contains("\"buckets\":[["));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
