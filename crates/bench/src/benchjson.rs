//! The schemas of the committed `BENCH_*.json` perf-trajectory files and
//! of the artifacts the CLIs emit, over the workspace's one JSON parser.
//!
//! CI must be able to prove that the benchmark artifacts at the repo root
//! still parse and still carry the fields the README's trajectory tables
//! and future PRs diff against — a hand-edited or half-written file
//! should fail the build, not rot silently. This module holds one schema
//! predicate per artifact ([`check_bigint_schema`], [`check_fleet_schema`],
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
/// non-empty `cases` array whose entries carry the five per-path timings
/// (positive ns/op: `schoolbook_ns`, `montgomery_ns`, `fixed_base_ns`,
/// `generator_ns`, `inverse_ns`) plus `group` and `op` labels, and a top-level
/// `parallelism` (the host's core count) that, when present, must be
/// positive.
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
        ] {
            require_positive(case, &path, key)?;
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

/// The per-mechanism verification stages a `stage_breakdown` row carries.
const STAGE_KEYS: [&str; 3] = ["cache_hit", "replay", "sig_verify"];

/// The mechanisms whose stage breakdown the trajectory file exists to
/// track: the re-execution family (cache hit vs replay split) plus the
/// signature-heavy encapsulation chain.
const STAGE_MECHANISMS: [&str; 3] = ["protocol", "traces", "encapsulated"];

fn check_stage_breakdown(block: &Json, block_name: &str, telemetry: &str) -> Result<(), JsonError> {
    let stages = block
        .get("stage_breakdown")
        .and_then(Json::as_obj)
        .ok_or_else(|| {
            JsonError(format!(
                "{block_name}.stage_breakdown: missing or not an object"
            ))
        })?;
    for (mechanism, row) in stages {
        let row_path = format!("{block_name}.stage_breakdown.{mechanism}");
        for stage in STAGE_KEYS {
            let stats = row
                .get(stage)
                .ok_or_else(|| JsonError(format!("{row_path}.{stage}: missing stage")))?;
            let path = format!("{row_path}.{stage}");
            require_non_negative(stats, &path, "count")?;
            for key in ["total_us", "p50_us", "p99_us"] {
                require_non_negative(stats, &path, key)?;
            }
        }
    }
    if telemetry != "off" {
        for mechanism in STAGE_MECHANISMS {
            if !stages.contains_key(mechanism) {
                return Err(JsonError(format!(
                    "{block_name}.stage_breakdown: missing the {mechanism} row \
                     (required when the block ran with telemetry on)"
                )));
            }
        }
    }
    Ok(())
}

/// Validates the `BENCH_fleet.json` schema: `bench == "fleet"`, positive
/// `scenarios`/`seed`, and for each of the `mixed`, `replicated`,
/// `chained`, `encapsulated`, `cooperating`, and `adaptive` blocks a
/// positive `journeys_per_sec`,
/// the verification-pipeline fields (a `replay` block with
/// hit/miss/replay/eviction/occupancy counts and a `hit_rate` in
/// `[0, 1]`), a `telemetry` level, a `stage_breakdown` block (whose
/// `protocol`/`traces`/`encapsulated` rows are mandatory when the block
/// ran with telemetry on), plus a non-empty `latency_percentiles` map
/// whose entries carry `p50_us`/`p90_us`/`p99_us`/`max_us`. The
/// chained-family blocks must additionally carry latency rows for the
/// `chained` and `encapsulated` mechanisms — the rows this artifact
/// exists to track. The `adaptive` block must additionally carry an
/// `adaptation` object (campaign grades: `journeys_per_campaign`,
/// `campaigns`, and a non-empty per-mechanism list whose cells hold the
/// campaign counters and a `detection_under_adaptation` rate in `[0, 1]`
/// or `null`). Finally the `telemetry_overhead` block must show
/// `--telemetry full` costing at most 5% journeys/s versus `off`, and a
/// top-level `parallelism` (the host's core count), when present, must be
/// positive.
///
/// Percentiles: `latency_percentiles.*` are exact nearest rank over every
/// journey's latency; `stage_breakdown.*.p50_us`/`p99_us` are histogram
/// bucket bounds (see the module docs).
pub fn check_fleet_schema(doc: &Json) -> Result<(), JsonError> {
    if doc.get("bench").and_then(Json::as_str) != Some("fleet") {
        return Err(JsonError("bench: expected \"fleet\"".into()));
    }
    require_positive(doc, "$", "scenarios")?;
    require_num(doc, "$", "seed")?;
    if doc.get("parallelism").is_some() {
        require_positive(doc, "$", "parallelism")?;
    }
    let overhead = doc
        .get("telemetry_overhead")
        .ok_or_else(|| JsonError("telemetry_overhead: missing block".into()))?;
    require_positive(overhead, "telemetry_overhead", "off_journeys_per_sec")?;
    require_positive(overhead, "telemetry_overhead", "full_journeys_per_sec")?;
    let overhead_pct = require_num(overhead, "telemetry_overhead", "overhead_pct")?;
    if overhead_pct > 5.0 {
        return Err(JsonError(format!(
            "telemetry_overhead.overhead_pct: full telemetry must cost at most \
             5% journeys/s, got {overhead_pct}"
        )));
    }
    for block_name in [
        "mixed",
        "replicated",
        "chained",
        "encapsulated",
        "cooperating",
        "adaptive",
    ] {
        let block = doc
            .get(block_name)
            .ok_or_else(|| JsonError(format!("{block_name}: missing block")))?;
        require_positive(block, block_name, "workers")?;
        require_positive(block, block_name, "wall_seconds")?;
        require_positive(block, block_name, "scenarios_per_sec")?;
        require_positive(block, block_name, "journeys_per_sec")?;
        let telemetry = block
            .get("telemetry")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError(format!("{block_name}.telemetry: missing or not a string")))?;
        if !matches!(telemetry, "off" | "counters" | "full") {
            return Err(JsonError(format!(
                "{block_name}.telemetry: expected off|counters|full, got {telemetry:?}"
            )));
        }
        check_stage_breakdown(block, block_name, telemetry)?;
        let replay = block
            .get("replay")
            .ok_or_else(|| JsonError(format!("{block_name}.replay: missing block")))?;
        let replay_path = format!("{block_name}.replay");
        for key in [
            "hits",
            "misses",
            "replays",
            "evictions",
            "occupancy",
            "capacity",
        ] {
            require_non_negative(replay, &replay_path, key)?;
        }
        let hit_rate = require_num(replay, &replay_path, "hit_rate")?;
        if !(0.0..=1.0).contains(&hit_rate) {
            return Err(JsonError(format!(
                "{replay_path}.hit_rate: must be within [0, 1], got {hit_rate}"
            )));
        }
        let latencies = block
            .get("latency_percentiles")
            .and_then(Json::as_obj)
            .ok_or_else(|| {
                JsonError(format!(
                    "{block_name}.latency_percentiles: missing or not an object"
                ))
            })?;
        if latencies.is_empty() {
            return Err(JsonError(format!(
                "{block_name}.latency_percentiles: must not be empty"
            )));
        }
        for (mechanism, stats) in latencies {
            let path = format!("{block_name}.latency_percentiles.{mechanism}");
            for key in ["p50_us", "p90_us", "p99_us", "max_us"] {
                require_positive(stats, &path, key)?;
            }
        }
        if matches!(block_name, "chained" | "encapsulated") {
            for mechanism in ["chained", "encapsulated"] {
                if !latencies.contains_key(mechanism) {
                    return Err(JsonError(format!(
                        "{block_name}.latency_percentiles: missing the {mechanism} row"
                    )));
                }
            }
        }
        if block_name == "adaptive" {
            check_adaptation(block)?;
        }
    }
    Ok(())
}

/// Validates the `adaptive` block's campaign grades — the
/// detection-under-adaptation trajectory this PR's battery exists to
/// track.
fn check_adaptation(block: &Json) -> Result<(), JsonError> {
    let adaptation = block
        .get("adaptation")
        .ok_or_else(|| JsonError("adaptive.adaptation: missing block".into()))?;
    require_positive(adaptation, "adaptive.adaptation", "journeys_per_campaign")?;
    require_positive(adaptation, "adaptive.adaptation", "campaigns")?;
    let mechanisms = adaptation
        .get("mechanisms")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            JsonError("adaptive.adaptation.mechanisms: missing or not an array".into())
        })?;
    if mechanisms.is_empty() {
        return Err(JsonError(
            "adaptive.adaptation.mechanisms: must not be empty".into(),
        ));
    }
    for entry in mechanisms {
        let name = entry
            .get("mechanism")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                JsonError("adaptive.adaptation.mechanisms[]: missing mechanism name".into())
            })?;
        let total = entry
            .get("total")
            .ok_or_else(|| JsonError(format!("adaptive.adaptation.{name}: missing total cell")))?;
        let path = format!("adaptive.adaptation.{name}.total");
        for key in [
            "campaigns",
            "journeys",
            "attacked",
            "detected",
            "early_detections",
            "false_accusations",
            "latency_sum",
        ] {
            require_non_negative(total, &path, key)?;
        }
        // The rates are `null` for undefined measurements (nothing
        // attacked / nothing detected), otherwise bounded.
        if let Some(rate) = total
            .get("detection_under_adaptation")
            .and_then(Json::as_num)
        {
            if !(0.0..=1.0).contains(&rate) {
                return Err(JsonError(format!(
                    "{path}.detection_under_adaptation: must be within [0, 1], got {rate}"
                )));
            }
        }
        if let Some(rate) = total.get("false_accusation_rate").and_then(Json::as_num) {
            if !(0.0..=1.0).contains(&rate) {
                return Err(JsonError(format!(
                    "{path}.false_accusation_rate: must be within [0, 1], got {rate}"
                )));
            }
        }
    }
    Ok(())
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
             "generator_ns":6.0,"inverse_ns":2000.0}]}"#;
        assert!(check_bigint_schema(&parse(good).unwrap()).is_ok());
        for (key, value) in [("generator_ns", "6.0"), ("inverse_ns", "2000.0")] {
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

        let wrong_name = r#"{"bench":"fleet","cases":[]}"#;
        assert!(check_bigint_schema(&parse(wrong_name).unwrap()).is_err());
        let empty = r#"{"bench":"bigint","cases":[]}"#;
        assert!(check_bigint_schema(&parse(empty).unwrap()).is_err());
        let negative = r#"{"bench":"bigint","cases":[
            {"group":"512","op":"pow_mod","schoolbook_ns":-1,
             "montgomery_ns":30.0,"fixed_base_ns":10.0,
             "generator_ns":6.0,"inverse_ns":2000.0}]}"#;
        assert!(check_bigint_schema(&parse(negative).unwrap()).is_err());
    }

    #[test]
    fn bigint_schema_checks_parallelism_when_present() {
        let good = r#"{"bench":"bigint","cases":[
            {"group":"256","op":"pow_mod","schoolbook_ns":100.0,
             "montgomery_ns":30.0,"fixed_base_ns":10.0,
             "generator_ns":6.0,"inverse_ns":2000.0}]}"#;
        let with = |cores: &str| good.replacen("{", &format!(r#"{{"parallelism":{cores},"#), 1);
        assert!(check_bigint_schema(&parse(&with("2")).unwrap()).is_ok());
        assert!(check_bigint_schema(&parse(&with("0")).unwrap()).is_err());
        assert!(check_bigint_schema(&parse(&with("\"two\"")).unwrap()).is_err());
    }

    /// One stage_breakdown row with all three stages present.
    fn stage_row(mechanism: &str) -> String {
        let stage = r#"{"count":4,"total_us":10.0,"p50_us":2.0,"p99_us":5.0}"#;
        format!(r#""{mechanism}":{{"cache_hit":{stage},"replay":{stage},"sig_verify":{stage}}}"#)
    }

    fn full_stage_breakdown() -> String {
        format!(
            "{},{},{}",
            stage_row("protocol"),
            stage_row("traces"),
            stage_row("encapsulated")
        )
    }

    /// A valid fleet block with the replay/telemetry fields;
    /// the `hit_rate`, latency map, telemetry level, and stage breakdown
    /// are injectable so tests can break each one independently.
    fn fleet_block_full(hit_rate: &str, latencies: &str, telemetry: &str, stages: &str) -> String {
        format!(
            r#"{{"workers":4,"wall_seconds":1.0,"scenarios_per_sec":10.0,
                "journeys_per_sec":50.0,"telemetry":"{telemetry}",
                "replay":{{"cache_enabled":true,"hits":10,"misses":5,
                    "replays":5,"hit_rate":{hit_rate},"evictions":0,
                    "occupancy":5,"capacity":65536}},
                "stage_breakdown":{{{stages}}},
                "latency_percentiles":{{{latencies}}}}}"#
        )
    }

    fn fleet_block_with(hit_rate: &str, latencies: &str) -> String {
        fleet_block_full(hit_rate, latencies, "full", &full_stage_breakdown())
    }

    const PROTOCOL_ROW: &str =
        r#""protocol":{"p50_us":1.0,"p90_us":2.0,"p99_us":3.0,"max_us":4.0}"#;
    const CHAINED_ROWS: &str = r#""chained":{"p50_us":1.0,"p90_us":2.0,"p99_us":3.0,"max_us":4.0},
        "encapsulated":{"p50_us":1.0,"p90_us":2.0,"p99_us":3.0,"max_us":4.0}"#;

    fn fleet_block(hit_rate: &str) -> String {
        fleet_block_with(hit_rate, PROTOCOL_ROW)
    }

    /// A valid `adaptation` object, as the adaptive block carries it.
    const ADAPTATION: &str = r#"{"journeys_per_campaign":8,"campaigns":15,
        "mechanisms":[{"mechanism":"framework","total":{"campaigns":15,
            "journeys":120,"attacked":15,"detected":15,"early_detections":0,
            "false_accusations":0,"latency_sum":2,
            "detection_under_adaptation":1.000000,
            "mean_detection_latency_journeys":0.133333,
            "false_accusation_rate":0.000000},"per_policy":{}}]}"#;

    /// Adds campaign grades to a fleet block, as the bench harness's
    /// adaptive block carries them.
    fn adaptive_block(base: &str, adaptation: &str) -> String {
        let trimmed = base.trim_end().strip_suffix('}').expect("block object");
        format!("{trimmed},\"adaptation\":{adaptation}}}")
    }

    fn fleet_doc(classic: &str, chained_family: &str) -> String {
        fleet_doc_with_adaptive(
            classic,
            chained_family,
            &adaptive_block(classic, ADAPTATION),
        )
    }

    fn fleet_doc_with_adaptive(classic: &str, chained_family: &str, adaptive: &str) -> String {
        format!(
            r#"{{"bench":"fleet","scenarios":256,"seed":42,
                "telemetry_overhead":{{"off_journeys_per_sec":100.0,
                    "full_journeys_per_sec":98.0,"overhead_pct":2.0}},
                "mixed":{classic},
                "replicated":{classic},"chained":{chained_family},
                "encapsulated":{chained_family},
                "cooperating":{classic},
                "adaptive":{adaptive}}}"#
        )
    }

    #[test]
    fn fleet_schema_accepts_the_committed_shape() {
        let good = fleet_doc(
            &fleet_block("0.667"),
            &fleet_block_with("0.5", CHAINED_ROWS),
        );
        assert!(check_fleet_schema(&parse(&good).unwrap()).is_ok());

        // Every preset block is required — including the chained pair.
        let block = fleet_block("0.667");
        for missing in [
            format!(r#"{{"bench":"fleet","scenarios":256,"seed":42,"mixed":{block}}}"#),
            format!(
                r#"{{"bench":"fleet","scenarios":256,"seed":42,"mixed":{block},"replicated":{block}}}"#
            ),
        ] {
            assert!(check_fleet_schema(&parse(&missing).unwrap()).is_err());
        }
    }

    #[test]
    fn fleet_schema_checks_parallelism_when_present() {
        let good = fleet_doc(
            &fleet_block("0.667"),
            &fleet_block_with("0.5", CHAINED_ROWS),
        );
        let with = |cores: &str| good.replacen("{", &format!(r#"{{"parallelism":{cores},"#), 1);
        assert!(check_fleet_schema(&parse(&with("2")).unwrap()).is_ok());
        assert!(check_fleet_schema(&parse(&with("0")).unwrap()).is_err());
    }

    #[test]
    fn fleet_schema_requires_chained_family_rows() {
        // A chained-preset block that lost its chained/encapsulated
        // latency rows is a schema violation: the rows are the point.
        let doc = fleet_doc(&fleet_block("0.667"), &fleet_block("0.5"));
        let err = check_fleet_schema(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.to_string().contains("missing the chained row"), "{err}");
    }

    #[test]
    fn fleet_schema_requires_the_adaptation_grades() {
        let classic = fleet_block("0.667");
        let chained = fleet_block_with("0.5", CHAINED_ROWS);

        // An adaptive block without campaign grades is a violation: the
        // detection-under-adaptation trajectory is the block's point.
        let doc = fleet_doc_with_adaptive(&classic, &chained, &classic);
        let err = check_fleet_schema(&parse(&doc).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("adaptation: missing block"),
            "{err}"
        );

        // So is an out-of-range detection-under-adaptation rate...
        let bogus = ADAPTATION.replace(
            r#""detection_under_adaptation":1.000000"#,
            r#""detection_under_adaptation":1.5"#,
        );
        let doc = fleet_doc_with_adaptive(&classic, &chained, &adaptive_block(&classic, &bogus));
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_err());

        // ...and an empty mechanism list (nothing graded).
        let empty = r#"{"journeys_per_campaign":8,"campaigns":15,"mechanisms":[]}"#;
        let doc = fleet_doc_with_adaptive(&classic, &chained, &adaptive_block(&classic, empty));
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_err());
    }

    #[test]
    fn fleet_schema_requires_the_pipeline_fields() {
        // A pre-pipeline block (no replay block) must be rejected:
        // the trajectory file has to carry the cache facts going forward.
        let stale = r#"{"workers":4,"wall_seconds":1.0,"scenarios_per_sec":10.0,
            "journeys_per_sec":50.0,"latency_percentiles":{
                "protocol":{"p50_us":1.0,"p90_us":2.0,"p99_us":3.0,"max_us":4.0}}}"#;
        let doc = fleet_doc(stale, &fleet_block_with("0.5", CHAINED_ROWS));
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_err());

        // An out-of-range hit rate is a schema violation, not a number.
        let doc = fleet_doc(&fleet_block("1.5"), &fleet_block_with("0.5", CHAINED_ROWS));
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_err());
    }

    #[test]
    fn fleet_schema_requires_stage_breakdown_rows_when_telemetry_on() {
        // A block that ran with telemetry on but lost its protocol stage
        // row is a violation: the breakdown is the point of the block.
        let partial = format!("{},{}", stage_row("traces"), stage_row("encapsulated"));
        let broken = fleet_block_full("0.5", PROTOCOL_ROW, "full", &partial);
        let doc = fleet_doc(&broken, &fleet_block_with("0.5", CHAINED_ROWS));
        let err = check_fleet_schema(&parse(&doc).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("missing the protocol row"),
            "{err}"
        );

        // With telemetry off an empty breakdown is fine...
        let off = fleet_block_full("0.5", PROTOCOL_ROW, "off", "");
        let doc = fleet_doc(&off, &fleet_block_with("0.5", CHAINED_ROWS));
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_ok());

        // ...but an unknown level, or a row missing a stage, is not.
        let bogus = fleet_block_full("0.5", PROTOCOL_ROW, "loud", "");
        let doc = fleet_doc(&bogus, &fleet_block_with("0.5", CHAINED_ROWS));
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_err());
        let one_stage =
            r#""protocol":{"cache_hit":{"count":1,"total_us":1.0,"p50_us":1.0,"p99_us":1.0}}"#;
        let broken = fleet_block_full("0.5", PROTOCOL_ROW, "off", one_stage);
        let doc = fleet_doc(&broken, &fleet_block_with("0.5", CHAINED_ROWS));
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_err());
    }

    #[test]
    fn fleet_schema_bounds_telemetry_overhead() {
        let block = fleet_block("0.5");
        let chained = fleet_block_with("0.5", CHAINED_ROWS);
        // Overhead above the 5% budget fails the artifact.
        let doc = format!(
            r#"{{"bench":"fleet","scenarios":256,"seed":42,
                "telemetry_overhead":{{"off_journeys_per_sec":100.0,
                    "full_journeys_per_sec":80.0,"overhead_pct":20.0}},
                "mixed":{block},"replicated":{block},
                "chained":{chained},"encapsulated":{chained}}}"#
        );
        let err = check_fleet_schema(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
        // A missing overhead block fails too.
        let doc = format!(
            r#"{{"bench":"fleet","scenarios":256,"seed":42,
                "mixed":{block},"replicated":{block},
                "chained":{chained},"encapsulated":{chained}}}"#
        );
        assert!(check_fleet_schema(&parse(&doc).unwrap()).is_err());
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
            r#"{"type":"counter","scope":"","name":"pipeline.cache_hit","index":0,"value":12}"#,
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
