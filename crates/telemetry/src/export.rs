//! Exporters: Chrome `trace_event` JSON and a metrics JSONL stream.
//!
//! Both formats are written through the workspace's one JSON writer
//! ([`crate::json::JsonWriter`]). The Chrome trace output is the array
//! form understood by `chrome://tracing` and Perfetto's legacy-trace
//! importer; the metrics stream is one JSON object per line, one line per
//! counter or histogram series.

use crate::json::JsonWriter;
use crate::metrics::{HistogramSnapshot, MetricKey, MetricsSnapshot};
use crate::span::TraceEvent;

/// Renders trace events as a Chrome `trace_event` JSON array.
///
/// Complete spans become `"ph":"X"` events with microsecond `ts`/`dur`
/// (fractional, so sub-microsecond spans survive); instants become
/// thread-scoped `"ph":"i"` events. The telemetry scope rides along as
/// `args.scope`, making per-mechanism lanes filterable in Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for event in events {
        w.begin_object();
        w.field_str("name", &event.name);
        w.field_str("cat", event.cat);
        w.field_u64("pid", 1);
        w.field_u64("tid", event.tid);
        w.field_f64("ts", event.ts_ns as f64 / 1_000.0);
        match event.dur_ns {
            Some(dur_ns) => {
                w.field_str("ph", "X");
                w.field_f64("dur", dur_ns as f64 / 1_000.0);
            }
            None => {
                w.field_str("ph", "i");
                w.field_str("s", "t");
            }
        }
        w.key("args");
        w.begin_object();
        w.field_str("scope", event.scope);
        for (key, value) in &event.args {
            w.field_str(key, value);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.finish()
}

/// One JSONL line: the series identity, then `body`'s fields.
fn metric_line(kind: &str, key: &MetricKey, body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("type", kind);
    w.field_str("scope", key.scope);
    w.field_str("name", key.name);
    w.field_u64("index", u64::from(key.index));
    body(&mut w);
    w.end_object();
    w.finish() + "\n"
}

fn histogram_fields(w: &mut JsonWriter, hist: &HistogramSnapshot) {
    w.field_u64("count", hist.count);
    w.field_u64("sum", hist.sum);
    w.field_u64("min", hist.min);
    w.field_u64("max", hist.max);
    w.field_u64("p50", hist.quantile(0.5));
    w.field_u64("p90", hist.quantile(0.9));
    w.field_u64("p99", hist.quantile(0.99));
    w.key("buckets");
    w.begin_array();
    for (lower, count) in hist.nonzero_buckets() {
        w.u64_array(&[lower, count]);
    }
    w.end_array();
}

/// Renders a metrics snapshot as JSONL: one JSON object per line.
///
/// Counter lines look like
/// `{"type":"counter","scope":"protocol","name":"pipeline.cache_hit","index":0,"value":12}`;
/// histogram lines add `count`/`sum`/`min`/`max`, approximate `p50`/`p90`/`p99`,
/// and the sparse `buckets` array of `[bucket_lower_bound, count]` pairs.
/// Values are raw units — nanoseconds for duration histograms. The
/// percentiles are the log-linear bucket bound at the
/// [`nearest_rank`](crate::metrics::nearest_rank) observation
/// ([`HistogramSnapshot::quantile`], at most 1/8 relative error).
pub fn metrics_jsonl(snapshot: &MetricsSnapshot) -> String {
    let counters = snapshot
        .counters
        .iter()
        .map(|(key, &value)| metric_line("counter", key, |w| w.field_u64("value", value)));
    let histograms = snapshot
        .histograms
        .iter()
        .map(|(key, hist)| metric_line("histogram", key, |w| histogram_fields(w, hist)));
    counters.chain(histograms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
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
        assert!(json.contains("\"dur\":42.000000"));
        assert!(json.contains("\"ts\":1.500000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"scope\":\"protocol\""));
        assert!(json.contains("\"steps\":\"17\""));
        // The quote and newline must be escaped.
        assert!(json.contains("note \\\"quoted\\\"\\n"));
    }

    #[test]
    fn empty_trace_is_a_valid_empty_array() {
        assert_eq!(chrome_trace_json(&[]), "[]");
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
            crate::json::parse(line).expect("each line is one JSON document");
        }
    }
}
