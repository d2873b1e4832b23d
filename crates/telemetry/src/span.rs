//! Span-based tracing: scoped timers, thread-local ring buffers, and the
//! trace events they produce.
//!
//! The hot path is a single relaxed atomic load when telemetry is off. When
//! tracing is on, completed spans are buffered in a per-thread
//! [`RingBuffer`] (no locks, no contention) and
//! flushed wholesale into the process-wide collector when the buffer fills
//! and when the thread exits.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::metrics::{FnvBuild, Histogram, MetricKey};
use crate::ring::RingBuffer;

/// Capacity of each thread's trace buffer; a full buffer is flushed into the
/// collector, so wraparound only happens if flushing is impossible.
const THREAD_BUFFER_CAP: usize = 1024;

/// Thread-local metric map key that hashes and compares the `&'static str`
/// *pointers* rather than their contents: the same instrumentation site
/// always passes the same statics, so identity comparison is both correct
/// and far cheaper than hashing string bytes. Distinct literals with equal
/// content (possible across codegen units) at worst produce separate local
/// entries, which the collector's content-keyed merge folds together on
/// flush.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalKey(pub(crate) MetricKey);

impl PartialEq for LocalKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.scope.as_ptr() == other.0.scope.as_ptr()
            && self.0.scope.len() == other.0.scope.len()
            && self.0.name.as_ptr() == other.0.name.as_ptr()
            && self.0.name.len() == other.0.name.len()
            && self.0.index == other.0.index
    }
}

impl Eq for LocalKey {}

impl Hash for LocalKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0.scope.as_ptr() as usize).hash(state);
        (self.0.name.as_ptr() as usize).hash(state);
        self.0.index.hash(state);
    }
}

/// One entry on the shared trace timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span site or platform event label).
    pub name: Cow<'static, str>,
    /// Category, e.g. `"pipeline"`, `"crypto"`, `"platform"`.
    pub cat: &'static str,
    /// The telemetry scope active when the event was recorded.
    pub scope: &'static str,
    /// Stable per-thread id (1-based, assigned on first use).
    pub tid: u64,
    /// Nanoseconds since the collector epoch.
    pub ts_ns: u64,
    /// `Some(duration)` for a complete span, `None` for an instant event.
    pub dur_ns: Option<u64>,
    /// Extra key/value annotations.
    pub args: Vec<(&'static str, String)>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// A thread's counters since its last flush, by call site.
pub(crate) type LocalCounters = HashMap<LocalKey, u64, FnvBuild>;

/// A thread's histograms since its last flush, by call site.
pub(crate) type LocalHistograms = HashMap<LocalKey, Histogram, FnvBuild>;

/// Per-thread telemetry sink: the trace ring plus the thread's metric
/// accumulators. Everything here is thread-private — the hot record path
/// touches no lock; the collector's mutexes are only taken on flush
/// (buffer full, explicit [`flush_thread`], or thread exit).
///
/// A flush merges the accumulators into the collector and zeroes them in
/// place: the maps keep their entries and each histogram its buckets, so a
/// thread that flushes after every request (a serve connection) records
/// the next one without allocating.
struct ThreadBuffer {
    ring: RingBuffer<TraceEvent>,
    counters: LocalCounters,
    histograms: LocalHistograms,
    /// Whether a metric was recorded since the last flush.
    dirty: bool,
}

impl ThreadBuffer {
    fn new() -> Self {
        Self {
            ring: RingBuffer::with_capacity(THREAD_BUFFER_CAP),
            counters: HashMap::default(),
            histograms: HashMap::default(),
            dirty: false,
        }
    }

    fn count(&mut self, key: MetricKey, delta: u64) {
        *self.counters.entry(LocalKey(key)).or_insert(0) += delta;
        self.dirty = true;
    }

    fn observe(&mut self, key: MetricKey, value: u64) {
        self.histograms
            .entry(LocalKey(key))
            .or_default()
            .record(value);
        self.dirty = true;
    }

    fn flush(&mut self) {
        let events = self.ring.drain();
        if events.is_empty() && !self.dirty {
            return;
        }
        let collector = crate::collector();
        collector.sink_trace_events(events);
        if self.dirty {
            collector.sink_metrics(&mut self.counters, &mut self.histograms);
            self.dirty = false;
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static SCOPE: Cell<&'static str> = const { Cell::new("") };
    static TID: Cell<u64> = const { Cell::new(0) };
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
}

/// The telemetry scope currently active on this thread (`""` outside any
/// [`scoped`] guard).
pub fn current_scope() -> &'static str {
    SCOPE.with(|s| s.get())
}

/// This thread's stable trace id (assigned on first use, starting at 1).
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Pushes a finished event into this thread's buffer, flushing to the
/// collector when full.
pub(crate) fn push_event(event: TraceEvent) {
    let _ = BUFFER.try_with(|buf| {
        if let Ok(mut buf) = buf.try_borrow_mut() {
            if buf.ring.is_full() {
                let drained = buf.ring.drain();
                crate::collector().sink_trace_events(drained);
            }
            buf.ring.push(event);
        }
    });
}

/// Adds `delta` to this thread's local counter for `key`; falls back to
/// the collector directly if the thread's sink is gone (TLS teardown).
pub(crate) fn local_count(key: MetricKey, delta: u64) {
    let ok = BUFFER.try_with(|buf| {
        if let Ok(mut buf) = buf.try_borrow_mut() {
            buf.count(key, delta);
            true
        } else {
            false
        }
    });
    if ok != Ok(true) {
        crate::collector().add_counter(key, delta);
    }
}

/// Records `value` into this thread's local histogram for `key`; falls
/// back to the collector directly if the thread's sink is gone.
pub(crate) fn local_observe(key: MetricKey, value: u64) {
    let ok = BUFFER.try_with(|buf| {
        if let Ok(mut buf) = buf.try_borrow_mut() {
            buf.observe(key, value);
            true
        } else {
            false
        }
    });
    if ok != Ok(true) {
        crate::collector().observe_raw(key, value);
    }
}

/// The span hot path: records the duration histogram observation and (at
/// `Full`) the trace event in a single thread-local pass.
fn finish_span(key: MetricKey, dur_ns: u64, event: Option<TraceEvent>) {
    let mut event = event;
    let ok = BUFFER.try_with(|buf| {
        if let Ok(mut buf) = buf.try_borrow_mut() {
            buf.observe(key, dur_ns);
            if let Some(event) = event.take() {
                if buf.ring.is_full() {
                    let drained = buf.ring.drain();
                    crate::collector().sink_trace_events(drained);
                }
                buf.ring.push(event);
            }
            true
        } else {
            false
        }
    });
    if ok != Ok(true) {
        let collector = crate::collector();
        collector.observe_raw(key, dur_ns);
        if let Some(event) = event {
            collector.sink_trace_events(vec![event]);
        }
    }
}

/// Flushes this thread's buffered trace events and metric accumulators
/// into the collector.
///
/// Worker threads flush automatically on exit; long-lived threads (e.g. the
/// main thread) should call this before exporting a trace. Taking a
/// [`snapshot`](crate::snapshot) flushes the calling thread implicitly.
pub fn flush_thread() {
    let _ = BUFFER.try_with(|buf| {
        if let Ok(mut buf) = buf.try_borrow_mut() {
            buf.flush();
        }
    });
}

/// Sets the thread's telemetry scope for the guard's lifetime.
///
/// The scope labels every histogram, counter, and trace event recorded on
/// this thread — the fleet engine scopes each journey by mechanism name so
/// nested crypto/VM/pipeline measurements attribute to the mechanism that
/// triggered them. Guards nest; dropping restores the previous scope.
pub fn scoped(scope: &'static str) -> ScopeGuard {
    let prev = SCOPE.with(|s| s.replace(scope));
    ScopeGuard { prev }
}

/// RAII guard restoring the previous telemetry scope on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    prev: &'static str,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// A started-but-unnamed measurement: decide the metric name at the end.
///
/// This is the primitive under [`Span`]; use it directly where the outcome
/// determines the name (e.g. a cache probe that is only known to be a hit or
/// a miss afterwards). Disabled telemetry makes `start` return an inert
/// timer whose `finish` does nothing and costs one atomic load.
#[derive(Debug)]
#[must_use = "a timer measures nothing unless finished"]
pub struct Timer {
    started: Option<Instant>,
}

impl Timer {
    /// Starts a measurement if telemetry is enabled.
    #[inline]
    pub fn start() -> Self {
        Self {
            started: crate::enabled().then(Instant::now),
        }
    }

    /// Returns `true` if the timer is actually measuring.
    pub fn is_active(&self) -> bool {
        self.started.is_some()
    }

    /// Stops the measurement, recording a duration histogram observation
    /// (nanoseconds) under the current scope and, at the `Full` level, a
    /// complete trace event. Returns the measured duration (zero if the
    /// timer was inert).
    pub fn finish(self, name: &'static str, cat: &'static str) -> Duration {
        let Some(started) = self.started else {
            return Duration::ZERO;
        };
        let dur = started.elapsed();
        let dur_ns = dur.as_nanos() as u64;
        let scope = current_scope();
        let key = MetricKey {
            scope,
            name,
            index: 0,
        };
        let event = crate::tracing_enabled().then(|| {
            let ts_ns = started
                .saturating_duration_since(crate::collector().epoch())
                .as_nanos() as u64;
            TraceEvent {
                name: Cow::Borrowed(name),
                cat,
                scope,
                tid: thread_id(),
                ts_ns,
                dur_ns: Some(dur_ns),
                args: Vec::new(),
            }
        });
        finish_span(key, dur_ns, event);
        dur
    }
}

/// An RAII span: measures from construction to drop.
///
/// On drop it records a duration histogram observation named after the span
/// (nanoseconds, under the current scope) and — at the `Full` level — a
/// complete Chrome-trace event.
#[derive(Debug)]
pub struct Span {
    timer: Option<(Instant, &'static str, &'static str)>,
}

impl Span {
    /// Opens a span named `name` in category `cat`.
    ///
    /// When telemetry is off this is one relaxed atomic load and the guard
    /// is inert.
    #[inline]
    pub fn enter(name: &'static str, cat: &'static str) -> Self {
        Self {
            timer: crate::enabled().then(|| (Instant::now(), name, cat)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((started, name, cat)) = self.timer.take() {
            Timer {
                started: Some(started),
            }
            .finish(name, cat);
        }
    }
}

/// Records an instant event (Chrome-trace `ph:"i"`) on the shared timeline.
///
/// No-op below the `Full` level. `args` become the event's annotation map.
pub fn instant(
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    args: Vec<(&'static str, String)>,
) {
    if !crate::tracing_enabled() {
        return;
    }
    let collector = crate::collector();
    let ts_ns = Instant::now()
        .saturating_duration_since(collector.epoch())
        .as_nanos() as u64;
    push_event(TraceEvent {
        name: name.into(),
        cat,
        scope: current_scope(),
        tid: thread_id(),
        ts_ns,
        dur_ns: None,
        args,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_merges_in_place_and_lands_each_record_once() {
        // A buffer of its own, not this thread's: nothing else records
        // into it, and the telemetry level stays untouched.
        let key = |name| MetricKey {
            scope: "span_flush_test",
            name,
            index: 0,
        };
        let mut buffer = ThreadBuffer::new();
        for value in [10, 20] {
            buffer.count(key("records"), 1);
            buffer.observe(key("values"), value);
            buffer.flush();
            // Zeroed in place: the entries stay, empty.
            assert_eq!(buffer.counters[&LocalKey(key("records"))], 0);
            assert_eq!(
                buffer.histograms[&LocalKey(key("values"))].snapshot().count,
                0
            );
            assert!(!buffer.dirty);
        }
        buffer.flush();
        let snapshot = crate::snapshot();
        assert_eq!(snapshot.counter("span_flush_test", "records"), 2);
        let values = snapshot
            .histogram("span_flush_test", "values")
            .expect("flushed");
        assert_eq!(
            (values.count, values.sum, values.min, values.max),
            (2, 30, 10, 20)
        );
    }
}
