//! Lock-free metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All three are plain banks of atomics with relaxed ordering — safe to
//! hammer from any number of threads, cheap enough for per-frame hot
//! loops (a recorded histogram sample is four relaxed RMW ops). None of
//! them are gated: a locally-constructed instance always records, which
//! is what tests want. The zero-overhead-when-off property lives one
//! level up, in [`crate::recorder`], which is the only way hot paths
//! reach the global [`crate::Metrics`] bank.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// A last-write-wins instantaneous value, stored as `f64` bits so it can
/// carry fractional microseconds (e.g. a measured cold start).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0)) // 0u64 == 0.0f64 bits
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Add `delta` (may be negative) via a CAS loop. Only used on rare
    /// paths (session open/close), never per-frame.
    pub fn add(&self, delta: f64) {
        let _ = self.0.fetch_update(Relaxed, Relaxed, |bits| {
            Some((f64::from_bits(bits) + delta).to_bits())
        });
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }

    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// Number of histogram buckets. Bucket `0` covers `[0, 1]`; bucket `i`
/// covers `(2^(i-1), 2^i]`; the last bucket is the overflow (`+Inf`)
/// bucket. With values in microseconds the finite range tops out at
/// `2^26 µs ≈ 67 s` — far beyond any per-frame latency we track.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// A fixed log₂-bucketed latency histogram with quantile estimation.
///
/// Values are expected in microseconds but the math is unit-agnostic.
/// Recording is two relaxed atomic RMWs (bucket, sum) plus a load of
/// the max, which is only written when the sample raises it; the count
/// is the sum of the buckets. Reads are tearing-tolerant (a concurrent
/// reader may see a sample in `sum` before its bucket, which only
/// perturbs estimates, never panics).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value: `v <= 1` lands in bucket 0, otherwise the
/// smallest `i` with `v <= 2^i`, clamped into the overflow bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of finite bucket `i` (`2^i`); the last bucket
/// has no finite bound.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        // A load is far cheaper than fetch_max's CAS loop on this hot
        // path, and the max rarely moves.
        if v > self.max.load(Relaxed) {
            self.max.fetch_max(v, Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    pub fn max_value(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Raw (non-cumulative) bucket counts, in bucket order.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation within the bucket holding the target rank. Bucket
    /// bounds are exact powers of two, so for fixed contents the
    /// estimate is monotone in `q` and always lies in
    /// `[0, max_value()]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let buckets = self.bucket_counts();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let max = self.max_value();
        let mut cum = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = if i == 0 { 0 } else { bucket_upper_bound(i - 1) };
                // The top nonempty bucket is capped by the recorded max
                // (lower nonempty buckets always satisfy 2^i <= max).
                let hi = if i == HISTOGRAM_BUCKETS - 1 {
                    max.max(lo)
                } else {
                    bucket_upper_bound(i).min(max).max(lo)
                };
                let frac = (target - cum) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).clamp(lo, hi);
            }
            cum += c;
        }
        // Unreachable: the target rank is at most the bucket total.
        max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 26), 26);
        assert_eq!(bucket_index((1 << 26) + 1), 27);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn every_value_le_its_bucket_bound() {
        for v in [0u64, 1, 2, 3, 7, 8, 9, 1000, 123_456, 1 << 25] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "v={v} bucket={i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max_value(), 1000);
        let p50 = h.p50();
        let p99 = h.p99();
        // Log-bucket estimates are coarse but must bracket sanely.
        assert!((256..=1000).contains(&p50), "p50={p50}");
        assert!(p99 >= p50 && p99 <= 1000, "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn single_value_quantiles_collapse() {
        let h = Histogram::new();
        h.record(42);
        assert_eq!(h.p50(), h.p99());
        assert!(h.p50() <= 42 && h.p50() > 32);
        assert_eq!(h.quantile(1.0), 42);
    }

    #[test]
    fn gauge_add_is_signed() {
        let g = Gauge::new();
        g.set(10.0);
        g.add(-3.5);
        assert_eq!(g.get(), 6.5);
    }
}
