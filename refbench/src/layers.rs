//! Per-layer metrics of a traced run: the benchmark's own timers around
//! the public calls it makes, plus deltas of the counters and histograms
//! the crates already export at `TelemetryLevel::Counters`.
//!
//! Every workload reports every metric; a layer a workload does not
//! exercise reads 0 (no signatures under `framework`, no fleet workers
//! under serve). Means come from exact histogram sums; no quantile is read
//! from a histogram, whose bucket edges would repeat from run to run
//! instead of measuring.

use refstate_telemetry::MetricsSnapshot;

use crate::outcome::Metric;

/// What the benchmark measured itself, outside the telemetry layer.
/// Fields a workload does not produce stay 0.
#[derive(Debug, Clone, Default)]
pub struct BenchTimers {
    /// Nearest-rank p50 of `Submit` handling, µs.
    pub admit_p50_us: f64,
    /// Nearest-rank p99 of `Submit` handling, µs.
    pub admit_p99_us: f64,
    /// Mean `Submit` handling, µs.
    pub admit_mean_us: f64,
    /// Mean `Drain` handling, µs.
    pub drain_mean_us: f64,
    /// Nearest-rank p99 of how late the generator sent, µs.
    pub send_lag_p99_us: f64,
    /// Mean open-loop verdict latency, µs.
    pub latency_mean_us: f64,
    /// Nearest-rank p99 of open-loop verdict latency, ms.
    pub verdict_p99_ms: f64,
    /// Share of open-loop submissions refused, dropped or late.
    pub slo_miss_frac: f64,
    /// Drain poll period, µs (half of it is the mean poll wait).
    pub poll_us: f64,
    /// Median warm restart, s.
    pub restart_s: f64,
    /// `LogStore::open` on the phase-1 state dir, s.
    pub store_open_s: f64,
    /// Bytes in the phase-1 state dir.
    pub store_bytes: f64,
    /// Segment files in the phase-1 state dir.
    pub store_segments: f64,
    /// Verdict-stream records in the phase-1 state dir.
    pub store_stream_records: f64,
    /// Replay-cache records in the phase-1 state dir.
    pub store_replay_records: f64,
    /// Fleet worker threads × wall time of the traced run, µs.
    pub fleet_worker_us: f64,
    /// 1 − traced / untraced `journeys_per_s`, percent.
    pub overhead_pct: f64,
}

/// Every per-layer metric, in declaration order, from the telemetry
/// deltas of the traced stretches of a run (`deltas`) and the
/// benchmark's own timers.
pub fn per_layer(deltas: &[MetricsSnapshot], bench: &BenchTimers) -> Vec<Metric> {
    let count = |name: &str| {
        deltas
            .iter()
            .map(|d| d.counter_total(name) as f64)
            .sum::<f64>()
    };
    let queue_wait = hist(deltas, "serve.queue_wait_us");
    let tick = hist(deltas, "serve.tick");
    let ticks = tick.count;
    let cache_hits = count("pipeline.cache_hit");
    let cache_misses = count("pipeline.cache_miss");
    let settle = hist(deltas, "mechanism.settle_batch");
    let sign = hist(deltas, "crypto.sign");
    let verify = hist(deltas, "crypto.verify");
    let vm = hist(deltas, "vm.session");
    // Queue wait is taken as each journey's tick reaches it, so it already
    // covers the earlier work of that tick; what remains is the journey's
    // own run, its owner's settle and anything no counter attributes.
    let unattributed =
        bench.latency_mean_us - (bench.admit_mean_us + queue_wait.mean() + bench.poll_us / 2.0);
    let m = Metric::new;
    vec![
        Metric::quantile("serve.admit_us.p50", bench.admit_p50_us, "us"),
        Metric::quantile("serve.admit_us.p99", bench.admit_p99_us, "us"),
        m("serve.drain_us.mean", bench.drain_mean_us, "us"),
        Metric::quantile("serve.send_lag_us.p99", bench.send_lag_p99_us, "us"),
        m("serve.queue_wait_us.mean", queue_wait.mean(), "us"),
        m("serve.tick_us.mean", ns_to_us(tick.mean()), "us"),
        m("serve.ticks", ticks, "count"),
        m(
            "serve.batch_size.mean",
            ratio(count("serve.tick.verdicts"), ticks),
            "count",
        ),
        m(
            "serve.unattributed_us",
            if bench.latency_mean_us > 0.0 {
                unattributed
            } else {
                0.0
            },
            "us",
        ),
        Metric::quantile("serve.verdict_p99_ms", bench.verdict_p99_ms, "ms"),
        m("serve.slo_miss_frac", bench.slo_miss_frac, "frac"),
        m(
            "driver.scan_us.mean",
            hist(deltas, "serve.tick_driver.scan_us").mean(),
            "us",
        ),
        m("driver.ticks", count("serve.tick_driver.ticks"), "count"),
        m(
            "driver.idle_skips",
            count("serve.tick_driver.idle_skips"),
            "count",
        ),
        m(
            "mechanisms.settle_batch_us.mean",
            ns_to_us(settle.mean()),
            "us",
        ),
        m("mechanisms.settle_batches", settle.count, "count"),
        m(
            "mechanisms.journey_us.mean",
            ns_to_us(hist(deltas, "journey").mean()),
            "us",
        ),
        m("core.cache_hits", cache_hits, "count"),
        m("core.cache_misses", cache_misses, "count"),
        m(
            "core.cache_hit_rate",
            ratio(cache_hits, cache_hits + cache_misses),
            "frac",
        ),
        m(
            "core.cache_evictions",
            count("pipeline.cache_evict"),
            "count",
        ),
        m("core.replays", count("pipeline.replay"), "count"),
        m(
            "core.replay_us.mean",
            ns_to_us(hist(deltas, "verify.replay").mean()),
            "us",
        ),
        m(
            "core.verify_session_us.mean",
            ns_to_us(hist(deltas, "verify.session").mean()),
            "us",
        ),
        m("crypto.signs", sign.count, "count"),
        m("crypto.sign_us.mean", ns_to_us(sign.mean()), "us"),
        m("crypto.verifies", verify.count, "count"),
        m("crypto.verify_us.mean", ns_to_us(verify.mean()), "us"),
        m(
            "crypto.flush_size.mean",
            hist(deltas, "crypto.flush_size").mean(),
            "count",
        ),
        m("vm.sessions", vm.count, "count"),
        m("vm.session_us.mean", ns_to_us(vm.mean()), "us"),
        m(
            "vm.steps.mean",
            hist(deltas, "vm.session_steps").mean(),
            "count",
        ),
        m("store.open_s", bench.store_open_s, "s"),
        m("store.restart_s", bench.restart_s, "s"),
        m("store.bytes", bench.store_bytes, "B"),
        m("store.segments", bench.store_segments, "count"),
        m("store.records.stream", bench.store_stream_records, "count"),
        m("store.records.replay", bench.store_replay_records, "count"),
        m(
            "fleet.busy_frac",
            ratio(count("fleet.worker.busy_us"), bench.fleet_worker_us),
            "frac",
        ),
        m(
            "fleet.queue_wait_us.mean",
            ns_to_us(hist(deltas, "fleet.queue_wait").mean()),
            "us",
        ),
        m(
            "fleet.keygen_s",
            hist(deltas, "fleet.keygen").mean() / 1e9,
            "s",
        ),
        m("telemetry.overhead_pct", bench.overhead_pct, "%"),
    ]
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// Count and exact sum of one histogram, merged over every delta and
/// every scope and index it was recorded under (mechanisms scope their
/// crypto, VM and pipeline work).
struct Series {
    count: f64,
    sum: f64,
}

impl Series {
    fn mean(&self) -> f64 {
        ratio(self.sum, self.count)
    }
}

fn hist(deltas: &[MetricsSnapshot], name: &str) -> Series {
    deltas
        .iter()
        .flat_map(|d| &d.histograms)
        .filter(|(key, _)| key.name == name)
        .fold(
            Series {
                count: 0.0,
                sum: 0.0,
            },
            |acc, (_, h)| Series {
                count: acc.count + h.count as f64,
                sum: acc.sum + h.sum as f64,
            },
        )
}
