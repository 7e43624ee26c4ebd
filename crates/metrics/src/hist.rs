//! Fixed-bucket latency histogram with bounded relative error.
//!
//! The service bench wants p50/p99/p999 placement latency over millions of
//! samples without keeping them. [`LatencyHistogram`] is the classic
//! HdrHistogram bucket layout specialised to `u64` nanoseconds: values
//! below [`SUB_BUCKETS`] land in exact unit buckets; above that, each
//! power-of-two tier is split into [`SUB_BUCKETS`] linear sub-buckets, so
//! every bucket spans at most `1/SUB_BUCKETS` of its value — quantiles are
//! exact to ~3% all the way up to `u64::MAX`, from a flat 15 KiB array.
//!
//! Recording is a handful of integer ops (no floats, no allocation), so
//! the histogram is safe to keep on the hot path, and the struct is plain
//! data: `Eq` + [`merge`](LatencyHistogram::merge) let per-thread
//! histograms fold deterministically.
//!
//! # Example
//!
//! ```
//! use netpack_metrics::LatencyHistogram;
//!
//! let mut h = LatencyHistogram::new();
//! for v in [10u64, 20, 30, 1_000, 100_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert_eq!(h.quantile(0.5), 30); // exact below SUB_BUCKETS
//! assert!(h.quantile(1.0) >= 100_000);
//! ```

use std::time::Duration;

/// Linear sub-buckets per power-of-two tier (and the width of the exact
/// unit-bucket region at the bottom). 32 bounds the relative quantile
/// error at `1/32` ≈ 3.1%.
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Tiers above the linear region: msb can be `SUB_BITS..=63`.
const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// Index of the bucket covering `v`. Total order preserving: monotone in
/// `v`, exact (one value per bucket) below [`SUB_BUCKETS`].
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let tier = msb - SUB_BITS;
    let offset = (v >> tier) - SUB_BUCKETS;
    SUB_BUCKETS as usize + (tier as usize) * SUB_BUCKETS as usize + offset as usize
}

/// Highest value mapping to bucket `idx` — what quantile queries report,
/// so the answer never understates the sample it stands for.
fn bucket_high(idx: usize) -> u64 {
    let i = idx as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let tier = (i / SUB_BUCKETS) - 1;
    let offset = i % SUB_BUCKETS;
    ((SUB_BUCKETS + offset + 1) << tier) - 1
}

/// Fixed-memory histogram of `u64` values (nanoseconds by convention) with
/// ≤ `1/`[`SUB_BUCKETS`] relative quantile error. The module docs of
/// `hist.rs` give the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a [`Duration`] as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded values (0.0 when empty). The sum saturates at
    /// `u64::MAX`, unreachable for realistic latency streams.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample (so the answer is ≥ that
    /// sample, within `1/`[`SUB_BUCKETS`] relative). Out-of-range `q` is
    /// clamped; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil();
        let rank = if target.is_nan() || target < 1.0 {
            1
        } else if target >= self.count as f64 {
            self.count
        } else {
            target as u64
        };
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report past the exact max (the top bucket's upper
                // bound can overshoot it by the bucket width).
                return bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold `other` into `self` (exact: bucket-wise addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        // One value per bucket below SUB_BUCKETS: index and upper bound
        // are the value itself.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        for v in 0..SUB_BUCKETS {
            let q = (v as f64 + 1.0) / SUB_BUCKETS as f64;
            assert_eq!(h.quantile(q), v, "quantile {q}");
        }
    }

    #[test]
    fn bucket_boundaries_at_tier_edges() {
        // First tier starts exactly at SUB_BUCKETS with unit-width buckets.
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        // Second tier: width-2 buckets, 64 and 65 collapse; 63/64 split.
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(65), 64);
        assert_eq!(bucket_index(66), 65);
        assert_eq!(bucket_high(64), 65);
        // Bucket ranges tile the line: every bucket's high + 1 is the next
        // bucket's first value.
        for idx in 0..NUM_BUCKETS - 1 {
            let high = bucket_high(idx);
            if high == u64::MAX {
                break;
            }
            assert_eq!(bucket_index(high), idx, "high of {idx}");
            assert_eq!(bucket_index(high + 1), idx + 1, "next after {idx}");
        }
    }

    #[test]
    fn index_is_monotone_and_covers_u64() {
        let probes = [
            0u64,
            1,
            31,
            32,
            63,
            64,
            1_000,
            1_000_000,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx >= last, "monotone at {v}");
            assert!(idx < NUM_BUCKETS, "in range at {v}");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        // Every bucket's upper bound overshoots any value it holds by at
        // most 1/SUB_BUCKETS of that value — the histogram's accuracy
        // contract.
        for v in [1u64, 33, 100, 4_097, 1 << 20, (1 << 40) + 12345] {
            let high = bucket_high(bucket_index(v));
            assert!(high >= v, "never understates: {v} -> {high}");
            assert!(
                high - v <= v / SUB_BUCKETS + 1,
                "bounded error: {v} -> {high}"
            );
        }
        // With the exact-max clamp, a single-value histogram reports the
        // value itself at every quantile.
        let mut h = LatencyHistogram::new();
        h.record(4_097);
        assert_eq!(h.quantile(0.5), 4_097);
        assert_eq!(h.p999(), 4_097);
    }

    #[test]
    fn percentiles_order_and_clamp() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram reports 0");
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!(h.p50() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max().unwrap());
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.max().unwrap());
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let mean = h.mean();
        assert!((mean - 500.5).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 0..500u64 {
            a.record(v * 7 + 3);
            all.record(v * 7 + 3);
        }
        for v in 0..500u64 {
            b.record(v * 13 + 1);
            all.record(v * 13 + 1);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn record_duration_uses_nanos() {
        let mut h = LatencyHistogram::new();
        h.record_duration(Duration::from_micros(5));
        assert_eq!(h.min(), Some(5_000));
    }
}
