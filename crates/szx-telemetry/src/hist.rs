//! Lock-free histograms: log2-bucketed for latencies/sizes spanning orders
//! of magnitude, linear for small bounded domains (e.g. required lengths
//! 0..=64).

use std::sync::atomic::{AtomicU64, Ordering};

const R: Ordering = Ordering::Relaxed;

/// Bucketing scheme of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramKind {
    /// Bucket `i` holds values `v` with `floor(log2(max(v,1))) == i`;
    /// 64 buckets cover the whole `u64` range.
    Log2,
    /// Bucket `i` holds exactly the value `i`; values above `max` clamp
    /// into the last bucket. `max + 1` buckets.
    Linear { max: u64 },
}

impl HistogramKind {
    fn num_buckets(self) -> usize {
        match self {
            HistogramKind::Log2 => 64,
            HistogramKind::Linear { max } => max as usize + 1,
        }
    }

    #[inline]
    fn bucket_of(self, v: u64) -> usize {
        match self {
            HistogramKind::Log2 => 63 - (v | 1).leading_zeros() as usize,
            HistogramKind::Linear { max } => v.min(max) as usize,
        }
    }

    /// Lower bound of bucket `i` (inclusive), for rendering.
    pub fn bucket_lo(self, i: usize) -> u64 {
        match self {
            HistogramKind::Log2 => {
                if i == 0 {
                    0
                } else {
                    1u64 << i
                }
            }
            HistogramKind::Linear { .. } => i as u64,
        }
    }

    /// Inclusive upper bound of the bucket whose lower bound is `lo` (as
    /// stored in [`HistogramSnapshot::buckets`]). The clamped last linear
    /// bucket nominally extends to infinity; it reports `lo` here and the
    /// snapshot's observed `max` bounds it in practice.
    pub fn bucket_hi_of_lo(self, lo: u64) -> u64 {
        match self {
            HistogramKind::Log2 => {
                if lo == 0 {
                    1
                } else {
                    lo.saturating_mul(2).saturating_sub(1)
                }
            }
            HistogramKind::Linear { .. } => lo,
        }
    }
}

/// A thread-safe histogram with count/sum/min/max plus bucket counts.
/// All updates are relaxed atomics — merges from local collectors cost one
/// `fetch_add` per non-empty bucket.
pub struct Histogram {
    kind: HistogramKind,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub fn new(kind: HistogramKind) -> Self {
        Histogram {
            kind,
            buckets: (0..kind.num_buckets()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub fn kind(&self) -> HistogramKind {
        self.kind
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value (how local collectors
    /// flush whole buckets at once).
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        // PANIC-OK: bucket_of maps every u64 below num_buckets(), the
        // length `buckets` was built with.
        self.buckets[self.kind.bucket_of(v)].fetch_add(n, R);
        self.count.fetch_add(n, R);
        self.sum.fetch_add(v.saturating_mul(n), R);
        self.min.fetch_min(v, R);
        self.max.fetch_max(v, R);
    }

    /// Fold another histogram's snapshot in (used when merging per-thread
    /// collectors; kinds must match).
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        assert_eq!(self.kind, snap.kind, "histogram kind mismatch on merge");
        for &(lo, n) in &snap.buckets {
            self.buckets[self.kind.bucket_of(lo)].fetch_add(n, R);
        }
        self.count.fetch_add(snap.count, R);
        self.sum.fetch_add(snap.sum, R);
        if snap.count > 0 {
            self.min.fetch_min(snap.min, R);
            self.max.fetch_max(snap.max, R);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(R);
        HistogramSnapshot {
            kind: self.kind,
            count,
            sum: self.sum.load(R),
            min: if count == 0 { 0 } else { self.min.load(R) },
            max: self.max.load(R),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(R);
                    (n > 0).then(|| (self.kind.bucket_lo(i), n))
                })
                .collect(),
        }
    }

    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, R);
        }
        self.count.store(0, R);
        self.sum.store(0, R);
        self.min.store(u64::MAX, R);
        self.max.store(0, R);
    }
}

/// Point-in-time view of a [`Histogram`]; only non-empty buckets are kept,
/// as `(bucket lower bound, count)` pairs in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub kind: HistogramKind,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), 0.0 for an empty histogram.
    ///
    /// The containing bucket is found exactly from the bucket counts; the
    /// position *inside* it is linearly interpolated (values assumed
    /// uniform within the bucket). The error is therefore bounded by the
    /// bucket width: **exact** for linear histograms (unit-width buckets,
    /// except the clamped last bucket), and within the bucket `[lo, 2·lo)`
    /// for log2 histograms — i.e. a relative error strictly below 2×. The
    /// result is additionally clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Fractional rank in [1, count]: p50 of 4 values targets rank 2,
        // p100 targets rank 4 (the maximum).
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for &(lo, n) in &self.buckets {
            cum += n;
            if cum as f64 >= rank {
                let hi = self.kind.bucket_hi_of_lo(lo) as f64;
                let lo = lo as f64;
                let frac = (rank - (cum - n) as f64) / n as f64;
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// The `(p50, p95, p99)` triple the report sinks print.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucketing_boundaries() {
        let k = HistogramKind::Log2;
        assert_eq!(k.bucket_of(0), 0);
        assert_eq!(k.bucket_of(1), 0);
        assert_eq!(k.bucket_of(2), 1);
        assert_eq!(k.bucket_of(3), 1);
        assert_eq!(k.bucket_of(4), 2);
        assert_eq!(k.bucket_of(1023), 9);
        assert_eq!(k.bucket_of(1024), 10);
        assert_eq!(k.bucket_of(u64::MAX), 63);
        assert_eq!(k.bucket_lo(0), 0);
        assert_eq!(k.bucket_lo(10), 1024);
    }

    #[test]
    fn linear_bucketing_clamps_at_max() {
        let k = HistogramKind::Linear { max: 64 };
        assert_eq!(k.num_buckets(), 65);
        assert_eq!(k.bucket_of(0), 0);
        assert_eq!(k.bucket_of(64), 64);
        assert_eq!(k.bucket_of(900), 64);
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let h = Histogram::new(HistogramKind::Log2);
        for v in [3u64, 5, 100, 100, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 215);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 43.0).abs() < 1e-12);
        // 3 -> bucket lo 2, 5 and 7 -> lo 4, 100 (x2) -> lo 64.
        assert_eq!(s.buckets, vec![(2, 1), (4, 2), (64, 2)]);
    }

    #[test]
    fn merge_snapshot_is_additive() {
        let a = Histogram::new(HistogramKind::Linear { max: 10 });
        let b = Histogram::new(HistogramKind::Linear { max: 10 });
        for v in [1u64, 2, 2, 9] {
            a.record(v);
        }
        for v in [2u64, 10, 10] {
            b.record(v);
        }
        a.merge_snapshot(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert_eq!(s.buckets, vec![(1, 1), (2, 3), (9, 1), (10, 2)]);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let h = Histogram::new(HistogramKind::Log2);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new(HistogramKind::Log2);
        h.record(42);
        h.reset();
        assert_eq!(h.snapshot().count, 0);
        h.record(7);
        assert_eq!(h.snapshot().min, 7);
    }
}
