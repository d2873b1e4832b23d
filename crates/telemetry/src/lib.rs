//! # refstate-telemetry — hand-rolled tracing and metrics
//!
//! A zero-external-dependency observability layer for the refstate
//! workspace: span-based tracing into per-thread ring buffers, named
//! counters and log-linear histograms with a snapshot API, and exporters
//! for Chrome `trace_event` JSON (Perfetto / `chrome://tracing` loadable)
//! and a metrics JSONL stream. It is also the lowest crate that writes
//! JSON, so it hosts the workspace's one JSON writer and parser
//! ([`json`]) and its one percentile rule ([`metrics::nearest_rank`]).
//!
//! ## Determinism contract
//!
//! Telemetry is strictly *observational*: nothing read from the collector
//! may feed back into report content. The fleet engine's deterministic
//! `FleetReport` stays byte-for-byte identical at every telemetry level;
//! only the non-deterministic timing sidecar (`FleetTiming`) and the
//! exported artifacts carry telemetry data.
//!
//! ## Levels
//!
//! * [`TelemetryLevel::Off`] — every instrumentation site reduces to one
//!   relaxed atomic load.
//! * [`TelemetryLevel::Counters`] — counters and duration histograms are
//!   recorded; no trace events.
//! * [`TelemetryLevel::Full`] — counters plus the trace timeline (spans and
//!   instants) buffered per-thread and flushed into the collector.
//!
//! ## Example
//!
//! ```
//! use refstate_telemetry as telemetry;
//!
//! telemetry::set_level(telemetry::TelemetryLevel::Full);
//! {
//!     let _scope = telemetry::scoped("protocol");
//!     let _span = telemetry::span("verify.replay", "pipeline");
//!     telemetry::count("pipeline.replay", 1);
//! } // span records on drop
//! telemetry::flush_thread();
//!
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("protocol", "pipeline.replay"), 1);
//! let trace = telemetry::drain_trace();
//! assert!(trace.iter().any(|e| e.name == "verify.replay"));
//! telemetry::set_level(telemetry::TelemetryLevel::Off);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod span;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

pub use metrics::{Histogram, HistogramSnapshot, MetricKey, MetricsSnapshot};
pub use span::{
    current_scope, flush_thread, instant, scoped, thread_id, ScopeGuard, Span, Timer, TraceEvent,
};

/// How much the telemetry layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum TelemetryLevel {
    /// Nothing is recorded; instrumentation sites cost one atomic load.
    #[default]
    Off = 0,
    /// Counters and histograms only.
    Counters = 1,
    /// Counters, histograms, and the trace event timeline.
    Full = 2,
}

impl TelemetryLevel {
    /// Parses `"off"`, `"counters"`, or `"full"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Self::Off),
            "counters" => Some(Self::Counters),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Counters => "counters",
            Self::Full => "full",
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide telemetry level.
///
/// Also initialises the collector (and its timestamp epoch) so that spans
/// started immediately afterwards get meaningful timeline positions.
pub fn set_level(level: TelemetryLevel) {
    if level != TelemetryLevel::Off {
        let _ = collector();
    }
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide telemetry level.
pub fn level() -> TelemetryLevel {
    match LEVEL.load(Ordering::Relaxed) {
        1 => TelemetryLevel::Counters,
        2 => TelemetryLevel::Full,
        _ => TelemetryLevel::Off,
    }
}

/// `true` when counters/histograms are being recorded (`Counters` or
/// `Full`). This is the once-per-site static flag check: one relaxed load.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != 0
}

/// `true` when the trace timeline is being recorded (`Full` only).
#[inline]
pub fn tracing_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) == TelemetryLevel::Full as u8
}

/// Default cap on buffered trace events before the collector starts
/// dropping (and counting) new ones.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

struct MetricsInner {
    counters: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// Flushed thread buffers land here as whole segments — one `Vec` move per
/// flush, no per-event copying under the lock — and are only flattened
/// (and timestamp-sorted) on drain.
#[derive(Default)]
struct TraceSink {
    segments: Vec<Vec<TraceEvent>>,
    len: usize,
}

/// The process-wide sink for metrics and trace events.
///
/// One collector exists per process (see [`collector`]); its creation
/// instant is the epoch all trace timestamps are measured from.
pub struct Collector {
    epoch: Instant,
    metrics: Mutex<MetricsInner>,
    trace: Mutex<TraceSink>,
    trace_capacity: AtomicUsize,
    trace_dropped: AtomicU64,
}

impl Collector {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            metrics: Mutex::new(MetricsInner {
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }),
            trace: Mutex::new(TraceSink::default()),
            trace_capacity: AtomicUsize::new(DEFAULT_TRACE_CAPACITY),
            trace_dropped: AtomicU64::new(0),
        }
    }

    /// The instant trace timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub(crate) fn add_counter(&self, key: MetricKey, delta: u64) {
        let mut inner = self.metrics.lock();
        *inner.counters.entry(key).or_insert(0) += delta;
    }

    pub(crate) fn observe_raw(&self, key: MetricKey, value: u64) {
        let mut inner = self.metrics.lock();
        inner.histograms.entry(key).or_default().record(value);
    }

    /// Merges a thread's accumulated metrics in one lock acquisition.
    pub(crate) fn sink_metrics(
        &self,
        counters: impl IntoIterator<Item = (MetricKey, u64)>,
        histograms: impl IntoIterator<Item = (MetricKey, Histogram)>,
    ) {
        let mut inner = self.metrics.lock();
        for (key, delta) in counters {
            *inner.counters.entry(key).or_insert(0) += delta;
        }
        for (key, hist) in histograms {
            inner.histograms.entry(key).or_default().merge(&hist);
        }
    }

    pub(crate) fn sink_trace_events(&self, mut events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let capacity = self.trace_capacity.load(Ordering::Relaxed);
        let mut sink = self.trace.lock();
        let room = capacity.saturating_sub(sink.len);
        if events.len() > room {
            self.trace_dropped
                .fetch_add((events.len() - room) as u64, Ordering::Relaxed);
            events.truncate(room);
        }
        if !events.is_empty() {
            sink.len += events.len();
            sink.segments.push(events);
        }
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.metrics.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (*k, h.snapshot()))
                .collect(),
        }
    }

    /// Removes and returns all collected trace events, ordered by
    /// timestamp. Call [`flush_thread`] on long-lived threads first.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        let segments = {
            let mut sink = self.trace.lock();
            sink.len = 0;
            std::mem::take(&mut sink.segments)
        };
        let mut events: Vec<TraceEvent> = segments.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.ts_ns, e.tid));
        events
    }

    /// How many trace events were dropped at the collector cap.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    /// Changes the cap on buffered trace events.
    pub fn set_trace_capacity(&self, capacity: usize) {
        self.trace_capacity.store(capacity, Ordering::Relaxed);
    }
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

/// The process-wide collector (created on first use).
pub fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(Collector::new)
}

/// Opens an RAII span named `name` in category `cat`; see [`Span::enter`].
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    Span::enter(name, cat)
}

/// Adds `delta` to the counter `name` under the current scope.
///
/// Recording is thread-local (no lock); the value reaches the collector
/// when the thread's buffer flushes — see [`flush_thread`].
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    span::local_count(
        MetricKey {
            scope: current_scope(),
            name,
            index: 0,
        },
        delta,
    );
}

/// Adds `delta` to the counter `name` under an explicit `scope` instead of
/// the thread's current one — for batched counters flushed after the scope
/// that produced them has already been exited.
#[inline]
pub fn count_in_scope(scope: &'static str, name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    span::local_count(
        MetricKey {
            scope,
            name,
            index: 0,
        },
        delta,
    );
}

/// Adds `delta` to an indexed counter series (e.g. per-worker counters).
#[inline]
pub fn count_indexed(name: &'static str, index: u32, delta: u64) {
    if !enabled() {
        return;
    }
    span::local_count(
        MetricKey {
            scope: current_scope(),
            name,
            index,
        },
        delta,
    );
}

/// Records `value` into the histogram `name` under the current scope.
///
/// Recording is thread-local (no lock); the value reaches the collector
/// when the thread's buffer flushes — see [`flush_thread`].
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    span::local_observe(
        MetricKey {
            scope: current_scope(),
            name,
            index: 0,
        },
        value,
    );
}

/// A point-in-time copy of every counter and histogram in the collector.
///
/// Flushes the calling thread's buffered metrics first; other threads'
/// buffers flush when they fill or when those threads exit (the fleet
/// engine joins its workers before snapshotting).
pub fn snapshot() -> MetricsSnapshot {
    flush_thread();
    collector().snapshot()
}

/// Flushes this thread's span buffer, then removes and returns the full
/// trace timeline collected so far (sorted by timestamp).
pub fn drain_trace() -> Vec<TraceEvent> {
    flush_thread();
    collector().drain_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // The level flag and collector are process-global, and the default test
    // harness runs #[test] fns on parallel threads — so everything that
    // toggles the level lives in this one serialized test.
    #[test]
    fn end_to_end_levels_scopes_spans_and_exports() {
        // Off: nothing records.
        set_level(TelemetryLevel::Off);
        let base = snapshot();
        count("lib_test.counter", 3);
        observe("lib_test.histo", 42);
        let t = Timer::start();
        assert!(!t.is_active());
        assert_eq!(t.finish("lib_test.timer", "test"), Duration::ZERO);
        let after_off = snapshot();
        assert_eq!(after_off.delta_since(&base), MetricsSnapshot::default());

        // Counters: metrics yes, trace no.
        set_level(TelemetryLevel::Counters);
        let before = snapshot();
        count("lib_test.counter", 3);
        count_indexed("lib_test.per_worker", 2, 5);
        {
            let _scope = scoped("mech_a");
            assert_eq!(current_scope(), "mech_a");
            {
                let _inner = scoped("mech_b");
                assert_eq!(current_scope(), "mech_b");
            }
            assert_eq!(current_scope(), "mech_a");
            let _span = span("lib_test.span", "test");
        }
        assert_eq!(current_scope(), "");
        instant("lib_test.instant", "test", vec![]);
        flush_thread();
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter("", "lib_test.counter"), 3);
        assert_eq!(
            delta.counters.get(&MetricKey {
                scope: "",
                name: "lib_test.per_worker",
                index: 2
            }),
            Some(&5)
        );
        let hist = delta
            .histogram("mech_a", "lib_test.span")
            .expect("span histogram");
        assert_eq!(hist.count, 1);
        assert!(drain_trace()
            .iter()
            .all(|e| !e.name.starts_with("lib_test")));

        // Full: trace events flow, scoped and timestamp-ordered.
        set_level(TelemetryLevel::Full);
        {
            let _scope = scoped("mech_c");
            let _span = span("lib_test.traced", "test");
            std::thread::sleep(Duration::from_millis(1));
        }
        instant("lib_test.mark", "test", vec![("k", "v".into())]);
        let trace = drain_trace();
        let span_ev = trace
            .iter()
            .find(|e| e.name == "lib_test.traced")
            .expect("span event");
        assert_eq!(span_ev.scope, "mech_c");
        assert!(span_ev.dur_ns.unwrap() >= 1_000_000);
        let mark = trace
            .iter()
            .find(|e| e.name == "lib_test.mark")
            .expect("instant");
        assert!(mark.dur_ns.is_none());
        assert_eq!(mark.args, vec![("k", "v".to_string())]);
        assert!(trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));

        // Worker threads flush on exit and get distinct tids.
        let main_tid = thread_id();
        std::thread::spawn(|| {
            let _span = span("lib_test.worker_span", "test");
        })
        .join()
        .unwrap();
        let trace = drain_trace();
        let worker = trace
            .iter()
            .find(|e| e.name == "lib_test.worker_span")
            .expect("worker span flushed on thread exit");
        assert_ne!(worker.tid, main_tid);

        // Collector cap drops and counts overflow.
        let dropped_before = collector().trace_dropped();
        collector().set_trace_capacity(2);
        for _ in 0..8 {
            instant("lib_test.flood", "test", vec![]);
        }
        let flooded = drain_trace();
        assert!(flooded.len() <= 2);
        assert!(collector().trace_dropped() > dropped_before);
        collector().set_trace_capacity(DEFAULT_TRACE_CAPACITY);

        set_level(TelemetryLevel::Off);
        assert_eq!(level(), TelemetryLevel::Off);
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Full,
        ] {
            assert_eq!(TelemetryLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TelemetryLevel::parse("FULL"), Some(TelemetryLevel::Full));
        assert_eq!(TelemetryLevel::parse("bogus"), None);
    }
}
