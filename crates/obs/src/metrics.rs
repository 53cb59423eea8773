//! Atomic metric primitives: [`Counter`], [`Gauge`], and a log-bucketed
//! latency [`Histogram`].
//!
//! All three are cheap-clone handles over `Arc`'d atomics: recording a
//! sample is a handful of relaxed atomic RMW operations and never takes a
//! lock, so handles can sit on commit and query hot paths. A handle starts
//! *detached* — backed by its own storage, visible only to whoever holds a
//! clone — and becomes *registered* when created through (or installed
//! into) a [`Registry`](crate::Registry), which is how the same counter
//! ends up visible both to the component that increments it and to the
//! exposition writer that reports it.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing event count.
///
/// `reset()` exists for measurement windows (benchmarks that want a
/// per-query delta); production readers should treat the value as
/// monotone and difference successive readings instead.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh detached counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A detached counter seeded with `v` — used when cloning a component
    /// that carries per-instance counts.
    pub fn with_value(v: u64) -> Self {
        let c = Self::new();
        c.add(v);
        c
    }

    /// Count one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events at once.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Zero the counter. Only meaningful for detached measurement-window
    /// counters; registered counters should stay monotone.
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (resident bytes, live journal length).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    v: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh detached gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Saturating convenience for byte lengths and other `u64` sources.
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(i64::try_from(v).unwrap_or(i64::MAX));
    }

    /// Move the value by `d` (negative deltas decrease it).
    #[inline]
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zero-valued samples and
/// bucket `i` (1..=64) holds values in `[2^(i-1), 2^i - 1]`.
pub const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A lock-free latency/size histogram with logarithmic (power-of-two)
/// buckets.
///
/// `record` is three relaxed atomic RMWs; there is deliberately no
/// separate total-count cell — `count()` is defined as the sum over the
/// buckets, so `count == Σ buckets` holds by construction no matter how
/// recording races with readout.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            inner: Arc::new(HistInner {
                buckets: [const { AtomicU64::new(0) }; BUCKETS],
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

/// Index of the bucket holding `v`: 0 for 0, else `64 - leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value reported for quantiles
/// that land in it).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh detached histogram with empty buckets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Lock-free: three relaxed atomic operations.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record an elapsed duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Start a guard that records the elapsed time (µs) when dropped.
    ///
    /// This is the sanctioned way to time an operation — the workspace
    /// `clippy.toml` disallows raw `Instant::now()` outside this crate.
    #[inline]
    pub fn start_timer(&self) -> Timer {
        Timer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Total recorded samples, defined as the sum over all buckets.
    pub fn count(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, unlike the bucketed quantiles).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket array.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.inner.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Consistent snapshot for exposition: reads the buckets once and
    /// derives count/quantiles from that single copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.buckets();
        let count: u64 = buckets.iter().sum();
        let max = self.max();
        let q = |quantile: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
            #[allow(clippy::cast_possible_truncation)]
            let target = ((quantile * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return bucket_bound(i).min(max.max(bucket_bound(i.saturating_sub(1))));
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum(),
            max,
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            buckets,
        }
    }
}

/// Drop guard returned by [`Histogram::start_timer`].
#[derive(Debug)]
pub struct Timer {
    hist: Histogram,
    start: Instant,
}

impl Timer {
    /// Stop timing and record now instead of at scope end.
    pub fn stop(self) {}

    /// Elapsed time so far, without recording.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Point-in-time readout of a [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Total samples in the snapshot.
    pub count: u64,
    /// Sum of all sampled values.
    pub sum: u64,
    /// Largest sampled value (exact).
    pub max: u64,
    /// Upper bound of the bucket containing the 50th percentile sample.
    pub p50: u64,
    /// Upper bound of the bucket containing the 90th percentile sample.
    pub p90: u64,
    /// Upper bound of the bucket containing the 99th percentile sample.
    pub p99: u64,
    /// The raw per-bucket counts the quantiles were derived from.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean of recorded values, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let alias = c.clone();
        alias.inc();
        assert_eq!(c.get(), 6, "clones share storage");
        c.reset();
        assert_eq!(alias.get(), 0);
        assert_eq!(Counter::with_value(9).get(), 9);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set_u64(u64::MAX);
        assert_eq!(g.get(), i64::MAX, "saturates instead of wrapping");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_count_is_bucket_sum() {
        let h = Histogram::new();
        for v in [0, 1, 1, 3, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets().iter().sum::<u64>(), 6);
        assert_eq!(h.sum(), 5105);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn histogram_quantiles_track_bucket_bounds() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket 4, bound 15
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, bound 1023
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 15);
        assert_eq!(s.p90, 15);
        assert!(s.p99 >= 1000, "tail lands in the large bucket: {}", s.p99);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), (90 * 10 + 10 * 1000) / 100);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max, s.p50, s.p99), (0, 0, 0, 0, 0));
    }

    #[test]
    fn timer_records_a_sample() {
        let h = Histogram::new();
        h.start_timer().stop();
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 2);
    }
}
