//! A lock-free fixed-bucket log-scale histogram.
//!
//! HDR-style: buckets are spaced so each power-of-two octave of the
//! value range is split into `2^SUB_BITS = 8` linear sub-buckets,
//! giving a worst-case relative error of `1/8 = 12.5 %` for any
//! recorded value — plenty for p50/p99/p999 at microsecond
//! resolution — in ~300 fixed `AtomicU64` cells, with recording being
//! two relaxed fetch-adds (no locks on the hot path).
//!
//! A `pdx-serve` server registers one as its latency histogram; the
//! search families register one per deployment.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Values at or above 2^34 (~4.7 hours when recording microseconds)
/// saturate into the last bucket.
const MAX_EXP: u32 = 34;
const BUCKETS: usize = (SUB_COUNT as usize) * ((MAX_EXP - SUB_BITS) as usize + 1);

/// A concurrent fixed-bucket log-scale histogram (≤ 12.5 % relative
/// bucket error, saturating at 2^34).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, AtomicU64::default);
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn index_of(value: u64) -> usize {
        // Values below 2^SUB_BITS map linearly onto the first octave.
        if value < SUB_COUNT {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // floor(log2(value)) >= SUB_BITS
        let exp = exp.min(MAX_EXP - 1);
        let sub = (value >> (exp - SUB_BITS)) - SUB_COUNT; // top SUB_BITS bits after the leading 1
        let idx = ((exp - SUB_BITS + 1) as usize) * SUB_COUNT as usize + sub as usize;
        idx.min(BUCKETS - 1)
    }

    /// Upper bound of the bucket at `idx` (the value a quantile query
    /// reports for samples landing there).
    ///
    /// Inverse of [`Histogram::index_of`]: bucket `idx` covers values
    /// `[(8+sub) << shift, (9+sub) << shift - 1]` where
    /// `exp = idx/8 + 2`, `sub = idx % 8`, `shift = exp - SUB_BITS`.
    fn upper_bound(idx: usize) -> u64 {
        if idx < SUB_COUNT as usize {
            return idx as u64;
        }
        let exp = (idx / SUB_COUNT as usize) as u32 + SUB_BITS - 1;
        let sub = (idx % SUB_COUNT as usize) as u64;
        ((SUB_COUNT + sub + 1) << (exp - SUB_BITS)) - 1
    }

    /// Records one value (lock-free, relaxed ordering).
    pub fn record(&self, value: u64) {
        self.buckets[Self::index_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]` (0 when empty), as the
    /// upper bound of the bucket holding the `ceil(q·count)`-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::upper_bound(idx);
            }
        }
        Self::upper_bound(BUCKETS - 1)
    }

    /// Cumulative per-octave buckets for Prometheus exposition:
    /// `(le, cumulative_count)` pairs where `le` is the inclusive
    /// upper bound of each octave, trimmed after the last non-empty
    /// octave (at least one finite bucket is always returned). The
    /// `+Inf` bucket is implied by [`Histogram::count`].
    pub fn cumulative_octaves(&self) -> Vec<(u64, u64)> {
        let chunk = SUB_COUNT as usize;
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        let mut last_nonzero = 0usize;
        for (j, octave) in self.buckets.chunks(chunk).enumerate() {
            let in_octave: u64 = octave.iter().map(|b| b.load(Ordering::Relaxed)).sum();
            cumulative += in_octave;
            out.push((Self::upper_bound((j + 1) * chunk - 1), cumulative));
            if in_octave > 0 {
                last_nonzero = j;
            }
        }
        out.truncate(last_nonzero + 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.999), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_COUNT {
            h.record(v);
        }
        // Every value below SUB_COUNT lands in its own bucket.
        assert_eq!(h.quantile(1.0 / SUB_COUNT as f64), 0);
        assert_eq!(h.quantile(1.0), SUB_COUNT - 1);
        assert_eq!(h.sum(), (0..SUB_COUNT).sum::<u64>());
    }

    #[test]
    fn relative_error_is_bounded() {
        for shift in 0..30u32 {
            let v = (1u64 << shift) + (1 << shift) / 3;
            let reported = Histogram::upper_bound(Histogram::index_of(v));
            let err = (reported as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= 0.125 + 1e-9,
                "value {v}: reported {reported}, err {err}"
            );
            // The reported bound never undershoots the recorded value's bucket floor badly:
            assert!(
                reported as f64 >= v as f64 * 0.875,
                "value {v} -> {reported}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        // p50 of 1..=10_000 is ~5000; bucket error is <= 12.5 %.
        assert!((4000..=6000).contains(&p50), "p50 = {p50}");
        assert!(p999 >= 9000, "p999 = {p999}");
    }

    #[test]
    fn huge_values_saturate() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > 0);
    }

    #[test]
    fn octave_export_is_cumulative_and_trimmed() {
        let h = Histogram::new();
        h.record(3);
        h.record(100);
        h.record(100);
        let octs = h.cumulative_octaves();
        // Monotone `le`s and cumulative counts, last equals total count.
        for w in octs.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(octs.last().unwrap().1, h.count());
        // Trimmed: 100 < 128, so nothing beyond the [64, 127] octave.
        assert!(octs.last().unwrap().0 <= 127);
        // Every recorded value is covered by some bucket's bound.
        assert!(octs.iter().any(|&(le, _)| le >= 100));
    }
}
