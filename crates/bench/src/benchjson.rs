//! The schemas of the committed `BENCH_*.json` perf-trajectory files and
//! of the artifacts the CLIs emit, over the workspace's one JSON parser.
//!
//! CI must be able to prove that the benchmark artifact at the repo root
//! still parses and still carries the fields the README's tables and
//! future PRs diff against — a hand-edited or half-written file should
//! fail the build, not rot silently. This module holds one schema
//! predicate per artifact ([`check_bigint_schema`],
//! [`check_chrome_trace`], [`check_metrics_jsonl`], [`check_slo_schema`]),
//! driven by the `check_bench_json` binary in CI. The parser itself lives
//! in [`refstate_telemetry::json`] and is re-exported here.
//!
//! Percentile fields come in two definitions, and each schema says which
//! one its fields use:
//!
//! * **exact nearest rank** — the observed sample at rank `⌈q·n⌉`
//!   ([`refstate_telemetry::metrics::nearest_rank`]);
//! * **histogram bucket bound** — the log-linear histogram's bucket upper
//!   bound at that same rank, clamped to the observed max, at most 1/8
//!   relative error ([`refstate_telemetry::HistogramSnapshot::quantile`]).

pub use refstate_telemetry::json::{parse, Json, JsonError};

fn require_num(value: &Json, path: &str, key: &str) -> Result<f64, JsonError> {
    value
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| JsonError(format!("{path}.{key}: missing or not a number")))
}

fn require_positive(value: &Json, path: &str, key: &str) -> Result<f64, JsonError> {
    let n = require_num(value, path, key)?;
    if n > 0.0 {
        Ok(n)
    } else {
        Err(JsonError(format!(
            "{path}.{key}: must be positive, got {n}"
        )))
    }
}

/// Validates the `BENCH_bigint.json` schema: `bench == "bigint"`, a
/// non-empty `cases` array whose entries carry the seven per-operation
/// timings (positive ns/op: `schoolbook_ns`, `montgomery_ns`,
/// `fixed_base_ns`, `generator_ns`, `inverse_ns`, `sign_ns`, `verify_ns`)
/// plus `group` and `op` labels, and a top-level `parallelism` (the host's
/// core count) that, when present, must be positive. Each timing is the
/// median of its rounds; its quartiles (`_q1`, `_q3`), when present, must
/// bracket it.
pub fn check_bigint_schema(doc: &Json) -> Result<(), JsonError> {
    if doc.get("bench").and_then(Json::as_str) != Some("bigint") {
        return Err(JsonError("bench: expected \"bigint\"".into()));
    }
    if doc.get("parallelism").is_some() {
        require_positive(doc, "$", "parallelism")?;
    }
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError("cases: missing or not an array".into()))?;
    if cases.is_empty() {
        return Err(JsonError("cases: must not be empty".into()));
    }
    for (i, case) in cases.iter().enumerate() {
        let path = format!("cases[{i}]");
        for key in ["group", "op"] {
            if case.get(key).and_then(Json::as_str).is_none() {
                return Err(JsonError(format!("{path}.{key}: missing or not a string")));
            }
        }
        for key in [
            "schoolbook_ns",
            "montgomery_ns",
            "fixed_base_ns",
            "generator_ns",
            "inverse_ns",
            "sign_ns",
            "verify_ns",
        ] {
            let median = require_positive(case, &path, key)?;
            let quartile = |suffix: &str| {
                let key = format!("{key}_{suffix}");
                case.get(&key)
                    .map(|_| require_positive(case, &path, &key))
                    .transpose()
            };
            let (q1, q3) = (quartile("q1")?, quartile("q3")?);
            if q1.is_some_and(|q1| q1 > median) || q3.is_some_and(|q3| q3 < median) {
                return Err(JsonError(format!(
                    "{path}.{key}: quartiles {q1:?}, {q3:?} do not bracket the median {median}"
                )));
            }
        }
    }
    Ok(())
}

fn require_non_negative(value: &Json, path: &str, key: &str) -> Result<f64, JsonError> {
    let n = require_num(value, path, key)?;
    if n >= 0.0 {
        Ok(n)
    } else {
        Err(JsonError(format!(
            "{path}.{key}: must be non-negative, got {n}"
        )))
    }
}

fn require_count(value: &Json, path: &str, key: &str) -> Result<f64, JsonError> {
    let n = require_non_negative(value, path, key)?;
    if n.fract() == 0.0 {
        Ok(n)
    } else {
        Err(JsonError(format!(
            "{path}.{key}: must be an integer, got {n}"
        )))
    }
}

/// Validates a Chrome `trace_event` JSON document as emitted by the
/// fleet CLI's `--trace-out` (the array form `chrome://tracing` and
/// Perfetto load): every element must be an event object with a `name`,
/// numeric `pid`/`tid`/`ts`, and either a complete span (`"ph":"X"` with
/// a non-negative `dur`) or a thread-scoped instant (`"ph":"i"` with
/// `"s":"t"`); `args` must be an object carrying the telemetry `scope`.
pub fn check_chrome_trace(doc: &Json) -> Result<(), JsonError> {
    let events = doc
        .as_arr()
        .ok_or_else(|| JsonError("chrome trace: document must be an array".into()))?;
    for (i, event) in events.iter().enumerate() {
        let path = format!("trace[{i}]");
        if event.get("name").and_then(Json::as_str).is_none() {
            return Err(JsonError(format!("{path}.name: missing or not a string")));
        }
        if event.get("cat").and_then(Json::as_str).is_none() {
            return Err(JsonError(format!("{path}.cat: missing or not a string")));
        }
        for key in ["pid", "tid", "ts"] {
            require_non_negative(event, &path, key)?;
        }
        match event.get("ph").and_then(Json::as_str) {
            Some("X") => {
                require_non_negative(event, &path, "dur")?;
            }
            Some("i") => {
                if event.get("s").and_then(Json::as_str) != Some("t") {
                    return Err(JsonError(format!(
                        "{path}.s: instant events must be thread-scoped (\"t\")"
                    )));
                }
            }
            other => {
                return Err(JsonError(format!(
                    "{path}.ph: expected \"X\" or \"i\", got {other:?}"
                )));
            }
        }
        let args = event
            .get("args")
            .and_then(Json::as_obj)
            .ok_or_else(|| JsonError(format!("{path}.args: missing or not an object")))?;
        if !args.contains_key("scope") {
            return Err(JsonError(format!("{path}.args.scope: missing")));
        }
    }
    Ok(())
}

/// Validates a metrics JSONL stream as emitted by the fleet CLI's
/// `--metrics-out`: every line is one self-contained JSON object, either
/// a counter (`value`) or a histogram (`count`/`sum`/`min`/`max`,
/// `p50`/`p90`/`p99`, and a sparse `buckets` array of
/// `[bucket_lower_bound, count]` pairs whose counts sum to `count`).
/// The `p50`/`p90`/`p99` fields are histogram bucket bounds (see the
/// module docs).
pub fn check_metrics_jsonl(text: &str) -> Result<(), JsonError> {
    for (i, line) in text.lines().enumerate() {
        let path = format!("metrics line {}", i + 1);
        let doc = parse(line).map_err(|e| JsonError(format!("{path}: parse error {e}")))?;
        if doc.get("scope").and_then(Json::as_str).is_none() {
            return Err(JsonError(format!("{path}: scope missing or not a string")));
        }
        if doc.get("name").and_then(Json::as_str).is_none() {
            return Err(JsonError(format!("{path}: name missing or not a string")));
        }
        require_non_negative(&doc, &path, "index")?;
        match doc.get("type").and_then(Json::as_str) {
            Some("counter") => {
                require_non_negative(&doc, &path, "value")?;
            }
            Some("histogram") => {
                let count = require_non_negative(&doc, &path, "count")?;
                for key in ["sum", "min", "max", "p50", "p90", "p99"] {
                    require_non_negative(&doc, &path, key)?;
                }
                let buckets = doc
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| JsonError(format!("{path}: buckets missing or not an array")))?;
                let mut total = 0.0;
                for (j, bucket) in buckets.iter().enumerate() {
                    let pair = bucket.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        JsonError(format!(
                            "{path}: buckets[{j}] must be a [lower, count] pair"
                        ))
                    })?;
                    for (k, n) in pair.iter().enumerate() {
                        if n.as_num().is_none_or(|n| n < 0.0) {
                            return Err(JsonError(format!(
                                "{path}: buckets[{j}][{k}] must be a non-negative number"
                            )));
                        }
                    }
                    total += pair[1].as_num().expect("checked above");
                }
                if total != count {
                    return Err(JsonError(format!(
                        "{path}: bucket counts sum to {total}, histogram count is {count}"
                    )));
                }
            }
            other => {
                return Err(JsonError(format!(
                    "{path}: type expected \"counter\" or \"histogram\", got {other:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Checks the `latency_us` block under `parent` (reported as `path`): a
/// monotone `p50 ≤ p95 ≤ p99 ≤ max` ladder of non-negative numbers.
fn check_latency_ladder(parent: &Json, path: &str) -> Result<(), JsonError> {
    let ladder = parent
        .get("latency_us")
        .ok_or_else(|| JsonError(format!("{path}: missing block")))?;
    let mut previous = 0.0;
    for key in ["p50", "p95", "p99", "max"] {
        let value = require_non_negative(ladder, path, key)?;
        if value < previous {
            return Err(JsonError(format!(
                "{path}.{key}: {value} breaks the percentile ladder \
                 (previous rung was {previous})"
            )));
        }
        previous = value;
    }
    Ok(())
}

/// Validates the `refstate-soak-slo-v1` artifact as emitted by the serve
/// CLI's `--slo-out` (and printed after every soak run): the soak shape
/// (`seed`, positive `owners`/`journeys`/`tick_every`, `preset` and
/// `mechanism` labels, service knobs), the connection fan-out
/// (`connections` ≥ 1, an `aggregate` block with positive `elapsed_us`
/// and `parallelism` and a non-negative `journeys_per_sec`, one
/// `per_connection` row per connection whose `verified` counts sum to
/// the aggregate), a `counts` block whose admission arithmetic closes
/// (`submitted == accepted + rejected`,
/// `accepted == verified + dropped`), a monotone `latency_us` ladder
/// (p50 ≤ p95 ≤ p99 ≤ max) aggregate and per connection, one
/// `owners_detail` row per owner, and a 16-hex-digit `stream_digest`
/// pinning the verdict stream. Keys outside these are ignored, so
/// artifacts written by older builds still validate. Optional blocks are
/// validated when present: `tick_driver` (what the group-commit driver
/// did: integer `ticks` and `verdicts`, the latter at most
/// `counts.verified`), `warm_start`
/// (a resumed run's restart handshake: `generation` ≥ 2,
/// non-negative `resume_offset`, one durable-stream checkpoint row per
/// owner with a 16-hex-digit digest), and
/// `single_connection_baseline` (positive baseline `journeys_per_sec`,
/// plus a positive `throughput_ratio_vs_single` consistent with the
/// aggregate throughput). A non-zero `dropped` is a schema violation,
/// not a warning: the drain invariant (no accepted journey goes
/// unverified) is the artifact's reason to exist.
///
/// Percentiles: every `latency_us.*` ladder, aggregate and per
/// connection, is exact nearest rank over client-observed latencies.
pub fn check_slo_schema(doc: &Json) -> Result<(), JsonError> {
    if doc.get("schema").and_then(Json::as_str) != Some("refstate-soak-slo-v1") {
        return Err(JsonError(
            "schema: expected \"refstate-soak-slo-v1\"".into(),
        ));
    }
    require_num(doc, "$", "seed")?;
    let owner_count = require_positive(doc, "$", "owners")?;
    require_positive(doc, "$", "journeys")?;
    for key in ["preset", "mechanism"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            return Err(JsonError(format!("{key}: missing or not a string")));
        }
    }
    require_positive(doc, "$", "tick_every")?;
    require_positive(doc, "$", "queue_capacity")?;
    let connection_count = require_positive(doc, "$", "connections")?;

    let aggregate = doc
        .get("aggregate")
        .ok_or_else(|| JsonError("aggregate: missing block".into()))?;
    require_positive(aggregate, "aggregate", "elapsed_us")?;
    require_non_negative(aggregate, "aggregate", "journeys_per_sec")?;
    require_positive(aggregate, "aggregate", "parallelism")?;

    let counts = doc
        .get("counts")
        .ok_or_else(|| JsonError("counts: missing block".into()))?;
    let submitted = require_non_negative(counts, "counts", "submitted")?;
    let accepted = require_non_negative(counts, "counts", "accepted")?;
    let rejected = require_non_negative(counts, "counts", "rejected")?;
    let verified = require_non_negative(counts, "counts", "verified")?;
    require_non_negative(counts, "counts", "detected")?;
    let dropped = require_non_negative(counts, "counts", "dropped")?;
    if submitted != accepted + rejected {
        return Err(JsonError(format!(
            "counts: submitted ({submitted}) must equal accepted ({accepted}) \
             + rejected ({rejected})"
        )));
    }
    if accepted != verified + dropped {
        return Err(JsonError(format!(
            "counts: accepted ({accepted}) must equal verified ({verified}) \
             + dropped ({dropped})"
        )));
    }
    if dropped != 0.0 {
        return Err(JsonError(format!(
            "counts.dropped: {dropped} accepted journeys never produced a \
             verdict — the drain invariant requires zero"
        )));
    }
    if let Some(driver) = doc.get("tick_driver") {
        require_count(driver, "tick_driver", "ticks")?;
        let driven = require_count(driver, "tick_driver", "verdicts")?;
        if driven > verified {
            return Err(JsonError(format!(
                "tick_driver.verdicts: {driven} exceeds counts.verified ({verified})"
            )));
        }
    }

    check_latency_ladder(doc, "latency_us")?;

    let per_connection = doc
        .get("per_connection")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError("per_connection: missing or not an array".into()))?;
    if per_connection.len() as f64 != connection_count {
        return Err(JsonError(format!(
            "per_connection: expected one row per connection ({connection_count}), got {}",
            per_connection.len()
        )));
    }
    let mut connection_verified = 0.0;
    for (i, conn) in per_connection.iter().enumerate() {
        let path = format!("per_connection[{i}]");
        require_non_negative(conn, &path, "connection")?;
        for key in ["owners", "submitted", "accepted", "rejected"] {
            require_non_negative(conn, &path, key)?;
        }
        connection_verified += require_non_negative(conn, &path, "verified")?;
        check_latency_ladder(conn, &format!("{path}.latency_us"))?;
    }
    if connection_verified != verified {
        return Err(JsonError(format!(
            "per_connection: verified counts sum to {connection_verified}, \
             counts.verified is {verified}"
        )));
    }

    let owners = doc
        .get("owners_detail")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError("owners_detail: missing or not an array".into()))?;
    if owners.len() as f64 != owner_count {
        return Err(JsonError(format!(
            "owners_detail: expected one row per owner ({owner_count}), got {}",
            owners.len()
        )));
    }
    for (i, owner) in owners.iter().enumerate() {
        let path = format!("owners_detail[{i}]");
        if owner.get("owner").and_then(Json::as_str).is_none() {
            return Err(JsonError(format!("{path}.owner: missing or not a string")));
        }
        for key in [
            "accepted",
            "rejected",
            "verified",
            "detected",
            "final_checks",
            "flush_verifications",
            "flush_failures",
        ] {
            require_non_negative(owner, &path, key)?;
        }
    }

    if let Some(warm) = doc.get("warm_start") {
        let generation = require_positive(warm, "warm_start", "generation")?;
        if generation < 2.0 {
            return Err(JsonError(format!(
                "warm_start.generation: a resumed run reopens its state dir, \
                 so the generation must be at least 2, got {generation}"
            )));
        }
        require_non_negative(warm, "warm_start", "resume_offset")?;
        let checkpoints = warm
            .get("checkpoints")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError("warm_start.checkpoints: missing or not an array".into()))?;
        if checkpoints.len() as f64 != owner_count {
            return Err(JsonError(format!(
                "warm_start.checkpoints: expected one row per owner ({owner_count}), got {}",
                checkpoints.len()
            )));
        }
        for (i, checkpoint) in checkpoints.iter().enumerate() {
            let path = format!("warm_start.checkpoints[{i}]");
            if checkpoint.get("owner").and_then(Json::as_str).is_none() {
                return Err(JsonError(format!("{path}.owner: missing or not a string")));
            }
            require_non_negative(checkpoint, &path, "offset")?;
            let digest = checkpoint
                .get("digest")
                .and_then(Json::as_str)
                .ok_or_else(|| JsonError(format!("{path}.digest: missing or not a string")))?;
            if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(JsonError(format!(
                    "{path}.digest: expected 16 hex digits, got {digest:?}"
                )));
            }
        }
    }

    if let Some(baseline) = doc.get("single_connection_baseline") {
        let baseline_jps =
            require_positive(baseline, "single_connection_baseline", "journeys_per_sec")?;
        let ratio = require_positive(doc, "$", "throughput_ratio_vs_single")?;
        let aggregate_jps = require_num(aggregate, "aggregate", "journeys_per_sec")?;
        // The ratio is the artifact's headline claim; hold it to the
        // two numbers it divides (loosely — both are rounded to 3dp).
        let expected = aggregate_jps / baseline_jps;
        if (ratio - expected).abs() > 0.01 {
            return Err(JsonError(format!(
                "throughput_ratio_vs_single: {ratio} inconsistent with \
                 aggregate/baseline ({expected:.3})"
            )));
        }
    } else if doc.get("throughput_ratio_vs_single").is_some() {
        return Err(JsonError(
            "throughput_ratio_vs_single: present without its \
             single_connection_baseline block"
                .into(),
        ));
    }

    let digest = doc
        .get("stream_digest")
        .and_then(Json::as_str)
        .ok_or_else(|| JsonError("stream_digest: missing or not a string".into()))?;
    if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(JsonError(format!(
            "stream_digest: expected 16 hex digits, got {digest:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigint_schema_accepts_valid_and_rejects_broken() {
        let good = r#"{"bench":"bigint","cases":[
            {"group":"512","op":"pow_mod","schoolbook_ns":100.0,
             "montgomery_ns":30.0,"fixed_base_ns":10.0,
             "generator_ns":6.0,"inverse_ns":2000.0,
             "sign_ns":3000.0,"sign_ns_q1":2900.0,"sign_ns_q3":3100.0,
             "verify_ns":7000.0}]}"#;
        assert!(check_bigint_schema(&parse(good).unwrap()).is_ok());
        for (key, value) in [
            ("generator_ns", "6.0"),
            ("inverse_ns", "2000.0"),
            ("sign_ns", "3000.0"),
            ("verify_ns", "7000.0"),
        ] {
            let field = format!("\"{key}\":{value}");
            let missing = good.replace(&field, "\"renamed\":1.0");
            assert!(
                check_bigint_schema(&parse(&missing).unwrap()).is_err(),
                "{key}"
            );
            let zero = good.replace(&field, &format!("\"{key}\":0"));
            assert!(
                check_bigint_schema(&parse(&zero).unwrap()).is_err(),
                "{key}"
            );
        }

        // Quartiles must bracket their median.
        let unbracketed = good.replace("\"sign_ns_q3\":3100.0", "\"sign_ns_q3\":2950.0");
        assert!(check_bigint_schema(&parse(&unbracketed).unwrap()).is_err());

        let wrong_name = r#"{"bench":"fleet","cases":[]}"#;
        assert!(check_bigint_schema(&parse(wrong_name).unwrap()).is_err());
        let empty = r#"{"bench":"bigint","cases":[]}"#;
        assert!(check_bigint_schema(&parse(empty).unwrap()).is_err());
        let negative = r#"{"bench":"bigint","cases":[
            {"group":"512","op":"pow_mod","schoolbook_ns":-1,
             "montgomery_ns":30.0,"fixed_base_ns":10.0,
             "generator_ns":6.0,"inverse_ns":2000.0,
             "sign_ns":3000.0,"verify_ns":7000.0}]}"#;
        assert!(check_bigint_schema(&parse(negative).unwrap()).is_err());
    }

    #[test]
    fn bigint_schema_checks_parallelism_when_present() {
        let good = r#"{"bench":"bigint","cases":[
            {"group":"256","op":"pow_mod","schoolbook_ns":100.0,
             "montgomery_ns":30.0,"fixed_base_ns":10.0,
             "generator_ns":6.0,"inverse_ns":2000.0,
             "sign_ns":3000.0,"verify_ns":7000.0}]}"#;
        let with = |cores: &str| good.replacen("{", &format!(r#"{{"parallelism":{cores},"#), 1);
        assert!(check_bigint_schema(&parse(&with("2")).unwrap()).is_ok());
        assert!(check_bigint_schema(&parse(&with("0")).unwrap()).is_err());
        assert!(check_bigint_schema(&parse(&with("\"two\"")).unwrap()).is_err());
    }

    #[test]
    fn chrome_trace_accepts_spans_and_instants() {
        let good = r#"[
            {"name":"verify.replay","cat":"pipeline","pid":1,"tid":2,
             "ts":1.5,"ph":"X","dur":42.0,"args":{"scope":"protocol"}},
            {"name":"platform.migrated","cat":"platform","pid":1,"tid":1,
             "ts":2.0,"ph":"i","s":"t","args":{"scope":"","from":"h0"}}]"#;
        assert!(check_chrome_trace(&parse(good).unwrap()).is_ok());
        assert!(check_chrome_trace(&parse("[]").unwrap()).is_ok());
    }

    #[test]
    fn chrome_trace_rejects_malformed_events() {
        // Not an array.
        assert!(check_chrome_trace(&parse("{}").unwrap()).is_err());
        for bad in [
            // Span without a duration.
            r#"[{"name":"x","cat":"c","pid":1,"tid":1,"ts":0,"ph":"X","args":{"scope":""}}]"#,
            // Instant without thread scoping.
            r#"[{"name":"x","cat":"c","pid":1,"tid":1,"ts":0,"ph":"i","args":{"scope":""}}]"#,
            // Unknown phase.
            r#"[{"name":"x","cat":"c","pid":1,"tid":1,"ts":0,"ph":"B","args":{"scope":""}}]"#,
            // Args without the telemetry scope.
            r#"[{"name":"x","cat":"c","pid":1,"tid":1,"ts":0,"ph":"X","dur":1.0,"args":{}}]"#,
            // Missing name.
            r#"[{"cat":"c","pid":1,"tid":1,"ts":0,"ph":"X","dur":1.0,"args":{"scope":""}}]"#,
        ] {
            assert!(check_chrome_trace(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn metrics_jsonl_accepts_counters_and_histograms() {
        let good = concat!(
            r#"{"type":"counter","scope":"","name":"pipeline.replay","index":0,"value":12}"#,
            "\n",
            r#"{"type":"histogram","scope":"protocol","name":"verify.replay","index":0,"#,
            r#""count":3,"sum":600,"min":100,"max":300,"p50":200,"p90":300,"p99":300,"#,
            r#""buckets":[[96,2],[288,1]]}"#,
            "\n",
        );
        assert!(check_metrics_jsonl(good).is_ok());
        assert!(check_metrics_jsonl("").is_ok());
    }

    #[test]
    fn metrics_jsonl_rejects_malformed_lines() {
        for bad in [
            // Unterminated JSON.
            r#"{"type":"counter","scope":"","name":"x","index":0,"value":1"#,
            // Unknown type.
            r#"{"type":"gauge","scope":"","name":"x","index":0,"value":1}"#,
            // Counter without a value.
            r#"{"type":"counter","scope":"","name":"x","index":0}"#,
            // Histogram whose bucket counts disagree with its count.
            concat!(
                r#"{"type":"histogram","scope":"","name":"x","index":0,"count":5,"#,
                r#""sum":1,"min":1,"max":1,"p50":1,"p90":1,"p99":1,"buckets":[[0,1]]}"#
            ),
            // Malformed bucket pair.
            concat!(
                r#"{"type":"histogram","scope":"","name":"x","index":0,"count":1,"#,
                r#""sum":1,"min":1,"max":1,"p50":1,"p90":1,"p99":1,"buckets":[[0]]}"#
            ),
        ] {
            assert!(check_metrics_jsonl(bad).is_err(), "{bad}");
        }
    }

    /// A valid SLO document matching what `serve --soak` emits; the
    /// counts, dropped total, latency ladder, and digest are injectable
    /// so tests can break each invariant independently.
    fn slo_doc(verified: &str, dropped: &str, p99: &str, digest: &str) -> String {
        format!(
            r#"{{"schema":"refstate-soak-slo-v1","seed":42,"owners":2,
                "journeys":48,"preset":"mixed","mechanism":"protocol",
                "tick_every":12,"queue_capacity":64,"connections":2,
                "aggregate":{{"elapsed_us":16000,"journeys_per_sec":3000.0,
                    "parallelism":8}},
                "counts":{{"submitted":50,"accepted":48,"rejected":2,
                    "verified":{verified},"detected":20,"dropped":{dropped}}},
                "latency_us":{{"p50":120,"p95":300,"p99":{p99},"max":900}},
                "per_connection":[
                    {{"connection":0,"owners":1,"submitted":25,"accepted":24,
                      "rejected":1,"verified":24,
                      "latency_us":{{"p50":110,"p95":280,"p99":400,"max":850}}}},
                    {{"connection":1,"owners":1,"submitted":25,"accepted":24,
                      "rejected":1,"verified":24,
                      "latency_us":{{"p50":130,"p95":310,"p99":460,"max":900}}}}],
                "owners_detail":[
                    {{"owner":"owner-0","accepted":24,"rejected":1,
                      "verified":24,"detected":10,"final_checks":24,
                      "flush_verifications":24,"flush_failures":0}},
                    {{"owner":"owner-1","accepted":24,"rejected":1,
                      "verified":24,"detected":10,"final_checks":24,
                      "flush_verifications":24,"flush_failures":0}}],
                "stream_digest":"{digest}"}}"#
        )
    }

    #[test]
    fn slo_schema_accepts_the_emitted_shape() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        assert!(check_slo_schema(&parse(&good).unwrap()).is_ok());
    }

    #[test]
    fn slo_schema_rejects_each_broken_invariant() {
        // A dropped journey is a drain-invariant violation.
        let dropped = slo_doc("47", "1", "450", "a1b2c3d4e5f60718");
        assert!(check_slo_schema(&parse(&dropped).unwrap()).is_err());
        // Counts that don't close (accepted != verified + dropped).
        let leaky = slo_doc("40", "0", "450", "a1b2c3d4e5f60718");
        assert!(check_slo_schema(&parse(&leaky).unwrap()).is_err());
        // A p99 below p95 breaks the percentile ladder.
        let unsorted = slo_doc("48", "0", "200", "a1b2c3d4e5f60718");
        assert!(check_slo_schema(&parse(&unsorted).unwrap()).is_err());
        // A digest that isn't 16 hex digits.
        let bad_digest = slo_doc("48", "0", "450", "not-a-digest!!!!");
        assert!(check_slo_schema(&parse(&bad_digest).unwrap()).is_err());
        // The wrong schema tag is refused outright.
        let wrong = slo_doc("48", "0", "450", "a1b2c3d4e5f60718")
            .replace("refstate-soak-slo-v1", "refstate-soak-slo-v0");
        assert!(check_slo_schema(&parse(&wrong).unwrap()).is_err());
    }

    #[test]
    fn slo_schema_requires_one_detail_row_per_owner() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        // Claim three owners while carrying two detail rows.
        let short = good.replace("\"owners\":2", "\"owners\":3");
        assert!(check_slo_schema(&parse(&short).unwrap()).is_err());
    }

    #[test]
    fn slo_schema_requires_the_connection_fanout_blocks() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        // `connections` must be present and positive.
        let missing = good.replace(r#""connections":2,"#, "");
        assert!(check_slo_schema(&parse(&missing).unwrap()).is_err());
        let zero = good.replace("\"connections\":2", "\"connections\":0");
        assert!(check_slo_schema(&parse(&zero).unwrap()).is_err());
        // The aggregate block needs a positive elapsed and parallelism.
        let stopped = good.replace("\"elapsed_us\":16000", "\"elapsed_us\":0");
        assert!(check_slo_schema(&parse(&stopped).unwrap()).is_err());
        let no_cores = good.replace("\"parallelism\":8", "\"parallelism\":0");
        assert!(check_slo_schema(&parse(&no_cores).unwrap()).is_err());
    }

    #[test]
    fn slo_schema_requires_one_row_per_connection() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        // Claim three connections while carrying two rows.
        let short = good.replace("\"connections\":2", "\"connections\":3");
        assert!(check_slo_schema(&parse(&short).unwrap()).is_err());
    }

    #[test]
    fn slo_schema_closes_verified_over_connections() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        // Rows that no longer sum to counts.verified.
        let leaky = good.replace(
            r#""rejected":1,"verified":24,
                      "latency_us":{"p50":130"#,
            r#""rejected":1,"verified":23,
                      "latency_us":{"p50":130"#,
        );
        assert!(check_slo_schema(&parse(&leaky).unwrap()).is_err());
    }

    #[test]
    fn slo_schema_checks_each_connections_latency_ladder() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        // Connection 1's p99 sinks below its p95.
        let unsorted = good.replace("\"p99\":460", "\"p99\":200");
        assert!(check_slo_schema(&parse(&unsorted).unwrap()).is_err());
    }

    #[test]
    fn slo_schema_validates_the_tick_driver_block_when_present() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        let with_driver = good.replace(
            r#""connections":2,"#,
            r#""connections":2,
               "tick_driver":{"ticks":12,"verdicts":48},"#,
        );
        assert!(check_slo_schema(&parse(&with_driver).unwrap()).is_ok());
        let idle = with_driver.replace(r#""ticks":12,"verdicts":48"#, r#""ticks":0,"verdicts":0"#);
        assert!(check_slo_schema(&parse(&idle).unwrap()).is_ok());
        for broken in [
            r#""ticks":-1,"verdicts":48"#,
            r#""ticks":12,"verdicts":-48"#,
            r#""ticks":12.5,"verdicts":48"#,
            // More verdicts than the whole run verified.
            r#""ticks":12,"verdicts":49"#,
        ] {
            let doc = with_driver.replace(r#""ticks":12,"verdicts":48"#, broken);
            assert!(check_slo_schema(&parse(&doc).unwrap()).is_err(), "{broken}");
        }
    }

    #[test]
    fn slo_schema_validates_the_warm_start_block_when_present() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        let with_warm = good.replace(
            r#""connections":2,"#,
            r#""connections":2,
               "warm_start":{"generation":2,"resume_offset":24,"checkpoints":[
                   {"owner":"owner-0","offset":12,"digest":"cbf29ce484222325"},
                   {"owner":"owner-1","offset":12,"digest":"cbf29ce484222325"}]},"#,
        );
        assert!(check_slo_schema(&parse(&with_warm).unwrap()).is_ok());
        // Generation 1 means the state dir was never reopened — not a resume.
        let cold = with_warm.replace("\"generation\":2", "\"generation\":1");
        assert!(check_slo_schema(&parse(&cold).unwrap()).is_err());
        // One checkpoint row per owner, like owners_detail.
        let short = with_warm.replace(
            r#"},
                   {"owner":"owner-1","offset":12,"digest":"cbf29ce484222325"}]}"#,
            "}]}",
        );
        assert!(check_slo_schema(&parse(&short).unwrap()).is_err());
        // A checkpoint digest that isn't 16 hex digits.
        let bad_digest = with_warm.replace("cbf29ce484222325\"},", "nope\"},");
        assert!(check_slo_schema(&parse(&bad_digest).unwrap()).is_err());
    }

    #[test]
    fn slo_schema_validates_the_baseline_ratio_when_present() {
        let good = slo_doc("48", "0", "450", "a1b2c3d4e5f60718");
        // aggregate journeys/s is 3000; a 1000/s baseline is a 3.0 ratio.
        let with_baseline = good.replace(
            r#""stream_digest""#,
            r#""single_connection_baseline":{"journeys_per_sec":1000.0},
               "throughput_ratio_vs_single":3.0,
               "stream_digest""#,
        );
        assert!(check_slo_schema(&parse(&with_baseline).unwrap()).is_ok());
        // A ratio that doesn't divide out of its own numbers is refused.
        let cooked = with_baseline.replace(
            "\"throughput_ratio_vs_single\":3.0",
            "\"throughput_ratio_vs_single\":4.0",
        );
        assert!(check_slo_schema(&parse(&cooked).unwrap()).is_err());
        // A ratio with no baseline to divide by is refused too.
        let orphan = good.replace(
            r#""stream_digest""#,
            r#""throughput_ratio_vs_single":3.0,"stream_digest""#,
        );
        assert!(check_slo_schema(&parse(&orphan).unwrap()).is_err());
    }
}
