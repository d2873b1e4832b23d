//! Named counters and log-linear-bucket histograms with a snapshot API.
//!
//! Metrics are recorded into per-thread hash maps (no locks, no
//! contention on the hot path) and bulk-merged into the process-wide
//! [`Collector`](crate::Collector) when a thread flushes or exits, keyed
//! by [`MetricKey`] — a `(scope, name, index)` triple of interned
//! (`&'static str`) strings so the hot path never allocates. Histograms use
//! log-linear buckets: four linear sub-buckets per power of two, giving a
//! worst-case relative error of 1/8 across the full `u64` range with a fixed
//! 252-slot table.

use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Number of linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 4;

/// Total number of histogram buckets: 4 exact buckets for values `0..4`,
/// then 4 sub-buckets for each of the 62 octaves `[2^2, 2^64)`.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + 62 * SUB_BUCKETS;

/// Identifies one counter or histogram series.
///
/// `scope` is typically the mechanism name a worker thread is running under
/// (empty outside any scope), `name` the instrumentation-site label (e.g.
/// `"verify.replay"`), and `index` distinguishes per-entity series such as
/// per-worker counters (zero otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Enclosing scope label (usually a mechanism name), `""` if none.
    pub scope: &'static str,
    /// Instrumentation-site name.
    pub name: &'static str,
    /// Per-entity index (e.g. worker id); zero for scalar series.
    pub index: u32,
}

impl MetricKey {
    /// A key with no scope and index zero.
    pub fn plain(name: &'static str) -> Self {
        Self {
            scope: "",
            name,
            index: 0,
        }
    }
}

/// FNV-1a, the hasher for the per-thread metric maps: metric keys are a
/// few dozen bytes of `&'static str` content, where FNV beats SipHash by
/// a wide margin and the hot path has no adversarial inputs to defend
/// against.
#[derive(Default)]
pub(crate) struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut hash = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` plugging [`FnvHasher`] into a `HashMap`.
pub(crate) type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Maps a value to its log-linear bucket index.
///
/// Values `0..4` get exact buckets; beyond that, each power-of-two octave is
/// split into four equal-width sub-buckets.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // >= 2 here
    let sub = ((value >> (msb - 2)) & 0x3) as usize;
    SUB_BUCKETS + (msb - 2) * SUB_BUCKETS + sub
}

/// The workspace's one percentile rule: the 1-based rank of the
/// `q`-quantile among `n` ordered observations, `⌈q·n⌉` clamped to
/// `1..=n` (0 when there is nothing to rank). This is nearest rank: the
/// smallest observation with at least a `q` fraction of the sample at or
/// below it, so a percentile is always an observed value, never an
/// interpolation, and the median of two samples is the lower one.
pub fn nearest_rank(n: u64, q: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Returns the inclusive `(lower, upper)` value range covered by a bucket.
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index < SUB_BUCKETS {
        return (index as u64, index as u64);
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let width = 1u64 << octave;
    let lower = (1u64 << (octave + 2)) + sub * width;
    (lower, lower + (width - 1))
}

/// A log-linear-bucket histogram with exact count, sum, min, and max.
///
/// Mutation happens under the collector's metrics lock, so the histogram
/// itself needs no atomics; buckets are allocated lazily on first record.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; NUM_BUCKETS];
            self.min = u64::MAX;
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every observation of `other` into `self` (the flush-side
    /// merge of a thread's local histogram into the collector's).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; NUM_BUCKETS];
            self.min = u64::MAX;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forgets every observation but keeps the bucket vector, so the next
    /// [`Histogram::record`] allocates nothing.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self.buckets.clone(),
        }
    }
}

/// An immutable copy of a [`Histogram`] supporting quantile estimation and
/// snapshot subtraction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the buckets.
    ///
    /// Returns the upper bound of the bucket holding the [`nearest_rank`]
    /// observation, clamped to the exact observed `max` — so the
    /// worst-case relative error is the sub-bucket width (1/8).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = nearest_rank(self.count, q);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_bounds(i).1.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The observations recorded since `earlier` was taken.
    ///
    /// Counts, sums, and buckets subtract exactly. `min`/`max` cannot be
    /// recovered from two cumulative snapshots, so the delta keeps the
    /// later snapshot's values — a conservative over-approximation.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets.clone();
        for (b, &e) in buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(e);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }

    /// The non-empty buckets as `(bucket_lower_bound, count)` pairs, in
    /// ascending value order — the sparse form used by the JSONL exporter.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_bounds(i).0, n))
            .collect()
    }
}

/// A point-in-time copy of every counter and histogram in the collector.
///
/// Keys iterate in `MetricKey` order, so exports derived from a snapshot are
/// deterministic given identical recorded values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: BTreeMap<MetricKey, u64>,
    /// All histograms.
    pub histograms: BTreeMap<MetricKey, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Returns `true` when no series were recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// A counter's value under `scope` (0 when absent, index 0).
    pub fn counter(&self, scope: &'static str, name: &'static str) -> u64 {
        self.counters
            .get(&MetricKey {
                scope,
                name,
                index: 0,
            })
            .copied()
            .unwrap_or(0)
    }

    /// Sums a counter across every scope and index it appears under.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// A histogram under `scope` (index 0), if it was recorded.
    pub fn histogram(&self, scope: &'static str, name: &'static str) -> Option<&HistogramSnapshot> {
        self.histograms.get(&MetricKey {
            scope,
            name,
            index: 0,
        })
    }

    /// Everything recorded since `earlier` was taken. Series absent from
    /// `earlier` pass through unchanged; series whose delta is zero are
    /// dropped entirely.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for (key, &value) in &self.counters {
            let before = earlier.counters.get(key).copied().unwrap_or(0);
            let delta = value.saturating_sub(before);
            if delta > 0 {
                counters.insert(*key, delta);
            }
        }
        let mut histograms = BTreeMap::new();
        for (key, hist) in &self.histograms {
            let delta = match earlier.histograms.get(key) {
                Some(before) => hist.delta_since(before),
                None => hist.clone(),
            };
            if delta.count > 0 {
                histograms.insert(*key, delta);
            }
        }
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_four() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_round_trip() {
        // Every bucket's bounds must map back to that bucket, cover the
        // whole range contiguously, and never overlap.
        let mut expected_lower = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lower, "bucket {i} not contiguous");
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            expected_lower = hi.wrapping_add(1);
        }
        // The last bucket ends exactly at u64::MAX.
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_boundaries_at_octave_transitions() {
        // 4..8 is the first octave: width-1 sub-buckets (still exact).
        assert_eq!(bucket_bounds(4), (4, 4));
        assert_eq!(bucket_bounds(7), (7, 7));
        // 8..16: width-2 sub-buckets.
        assert_eq!(bucket_bounds(8), (8, 9));
        assert_eq!(bucket_bounds(11), (14, 15));
        // 16..32: width-4 sub-buckets.
        assert_eq!(bucket_bounds(12), (16, 19));
        // Relative error of a bucket is at most 1/8 of its lower bound.
        for v in [100u64, 1_000, 65_536, 1 << 40, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            assert!((hi - lo) as f64 <= lo as f64 / 4.0 + 1.0);
        }
    }

    #[test]
    fn nearest_rank_is_ceil_qn_clamped_to_the_sample() {
        // (n, q, rank): nothing to rank at n = 0; the one sample at n = 1;
        // the *lower* of two samples as the median; the middle of three;
        // exactly rank N for pN of 100;
        // out-of-range quantiles clamp to the sample.
        for (n, q, rank) in [
            (0, 0.5, 0),
            (1, 0.0, 1),
            (1, 0.5, 1),
            (1, 0.99, 1),
            (2, 0.5, 1),
            (2, 0.95, 2),
            (2, 0.99, 2),
            (3, 0.5, 2),
            (3, 0.95, 3),
            (3, 0.99, 3),
            (100, 0.5, 50),
            (100, 0.9, 90),
            (100, 0.95, 95),
            (100, 0.99, 99),
            (100, 1.0, 100),
            (100, 0.0, 1),
            (100, -1.0, 1),
            (100, 2.0, 100),
        ] {
            assert_eq!(nearest_rank(n, q), rank, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn histogram_records_exact_scalars_and_approx_quantiles() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 100);
        assert!((snap.mean() - 50.5).abs() < 1e-9);
        // p50 of 1..=100 is 50; bucket upper bound may overshoot by <= 1/8.
        let p50 = snap.quantile(0.5);
        assert!((50..=57).contains(&p50), "p50 = {p50}");
        assert_eq!(snap.quantile(1.0), 100);
        assert_eq!(snap.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.nonzero_buckets().is_empty());
    }

    #[test]
    fn snapshot_delta_subtracts_buckets() {
        let mut h = Histogram::default();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(30);
        h.record(40);
        let after = h.snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 70);
        let buckets = delta.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), 2);
    }

    #[test]
    fn metrics_snapshot_delta_drops_unchanged_series() {
        let mut before = MetricsSnapshot::default();
        before.counters.insert(MetricKey::plain("a"), 5);
        before.counters.insert(MetricKey::plain("b"), 2);
        let mut after = before.clone();
        after.counters.insert(MetricKey::plain("a"), 9);
        after.counters.insert(MetricKey::plain("c"), 1);
        let delta = after.delta_since(&before);
        assert_eq!(delta.counter("", "a"), 4);
        assert_eq!(delta.counter("", "b"), 0);
        assert_eq!(delta.counter("", "c"), 1);
        assert_eq!(delta.counters.len(), 2);
    }

    #[test]
    fn counter_total_sums_scopes_and_indices() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert(
            MetricKey {
                scope: "protocol",
                name: "hits",
                index: 0,
            },
            3,
        );
        snap.counters.insert(
            MetricKey {
                scope: "traces",
                name: "hits",
                index: 1,
            },
            4,
        );
        assert_eq!(snap.counter_total("hits"), 7);
    }
}
