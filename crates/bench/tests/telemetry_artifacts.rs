//! End-to-end artifact round trip: run a real fleet at `--telemetry
//! full`, export the Chrome trace and metrics JSONL exactly as the fleet
//! CLI does, and validate both through the same parser + schema checks
//! the CI gate (`check_bench_json --trace … --metrics …`) applies.
//!
//! This pins the producer and the validator to each other: an exporter
//! change that breaks Perfetto-loadability, or a schema tightening that
//! rejects real artifacts, fails here instead of in CI archaeology.

use refstate_bench::benchjson::{check_chrome_trace, check_metrics_jsonl, parse, Json};
use refstate_fleet::{run_fleet, FleetConfig, Preset};
use refstate_telemetry as telemetry;

/// One small full-telemetry fleet run, returning the two exported
/// artifact strings `(chrome_trace, metrics_jsonl)`.
fn export_artifacts() -> (String, String) {
    telemetry::set_level(telemetry::TelemetryLevel::Full);
    let config = FleetConfig {
        scenarios: 12,
        workers: 2,
        seed: 42,
        preset: Preset::Mixed,
        key_pool: 4,
        ..FleetConfig::default()
    };
    let run = run_fleet(&config);
    let trace = telemetry::export::chrome_trace_json(&telemetry::drain_trace());
    let metrics = telemetry::export::metrics_jsonl(&run.metrics.clone().unwrap_or_default());
    telemetry::set_level(telemetry::TelemetryLevel::Off);
    (trace, metrics)
}

#[test]
fn exported_artifacts_pass_the_ci_schema_checks() {
    let (trace, metrics) = export_artifacts();

    let doc = parse(&trace).expect("chrome trace parses as JSON");
    check_chrome_trace(&doc).expect("chrome trace passes the CI schema check");
    check_metrics_jsonl(&metrics).expect("metrics JSONL passes the CI schema check");

    // The trace is non-trivial: it contains complete spans from the
    // instrumented layers (pipeline, crypto, vm) attributed to mechanism
    // scopes, not just an empty well-formed array.
    let Json::Arr(events) = &doc else {
        panic!("chrome trace must be a JSON array");
    };
    assert!(
        events.len() > 100,
        "expected a real timeline, got {} events",
        events.len()
    );
    let has = |name: &str| {
        events.iter().any(|e| {
            matches!(e, Json::Obj(fields)
                if matches!(fields.get("name"), Some(Json::Str(s)) if s == name))
        })
    };
    for name in ["journey", "vm.session", "crypto.sign", "verify.session"] {
        assert!(has(name), "trace is missing expected span {name:?}");
    }

    // The metrics stream carries the histograms the per-stage breakdown
    // is derived from.
    for needle in ["verify.replay", "crypto.verify"] {
        assert!(
            metrics.lines().any(|l| l.contains(needle)),
            "metrics JSONL is missing {needle:?}"
        );
    }
}

#[test]
fn empty_telemetry_exports_are_schema_valid_too() {
    // `--telemetry off` still writes a (degenerate) metrics file when
    // `--metrics-out` is rejected upstream, but the exporters themselves
    // must handle empty inputs: an empty trace is a valid (loadable)
    // Chrome trace and an empty snapshot is a valid JSONL stream.
    let trace = telemetry::export::chrome_trace_json(&[]);
    let doc = parse(&trace).expect("empty chrome trace parses");
    check_chrome_trace(&doc).expect("empty chrome trace is schema-valid");
    let metrics = telemetry::export::metrics_jsonl(&telemetry::MetricsSnapshot::default());
    check_metrics_jsonl(&metrics).expect("empty metrics stream is schema-valid");
}
