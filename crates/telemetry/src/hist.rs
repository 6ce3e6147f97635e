//! Allocation-free log-linear latency histograms.
//!
//! HDR-style fixed buckets: values (nanoseconds by convention) are
//! binned log-linearly — 32 linear sub-buckets per power-of-two octave —
//! so relative precision is bounded at ~3% across the whole `u64` range
//! while the record path is a handful of integer ops and one array
//! increment. [`LatencyHistogram`] is the owned, single-thread form (no
//! atomics: each worker owns one and merges after the run, and may record
//! each sample into a registered histogram instrument too — see
//! [`Registry::with_hists`](crate::Registry::with_hists)); the shared
//! bucket math ([`bucket_index`] / [`bucket_value`]) is also what the
//! registry's per-lane atomic bucket blocks use, so owned and registered
//! histograms bin identically and merge bucket-for-bucket.

/// Linear sub-buckets per octave (power of two).
pub(crate) const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32
/// Total buckets of a histogram: values below `SUB` get exact unit
/// buckets; everything above shares an octave's 32 sub-buckets. 64
/// octaves cover the full `u64` range.
pub const BUCKETS: usize = 64 * SUB;

/// Bucket index of `value`: log-linear with 32 sub-buckets per octave
/// (exact below 32). Shared by owned and registered histograms.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros(); // >= SUB_BITS here
    let sub = (value >> (octave - SUB_BITS)) as usize & (SUB - 1);
    ((octave - SUB_BITS + 1) as usize) * SUB + sub
}

/// Lower bound of bucket `idx` (the value reported for percentiles).
#[inline]
pub fn bucket_value(idx: usize) -> u64 {
    let octave = idx / SUB;
    let sub = (idx % SUB) as u64;
    if octave == 0 {
        return sub;
    }
    let shift = (octave - 1) as u32 + SUB_BITS;
    (1u64 << shift) | (sub << (shift - SUB_BITS))
}

/// A fixed-bucket log-linear histogram of `u64` samples (nanoseconds by
/// convention).
///
/// ```
/// use ta_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [80, 90, 100, 5_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) >= 80 && h.percentile(0.5) <= 104);
/// assert!(h.max() >= 5_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram (one fixed allocation, reused forever).
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0u64; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("BUCKETS-sized box"),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Rebuilds a histogram from raw bucket counts plus the exact sum
    /// and max (the registry snapshot path; `counts.len()` must be
    /// [`BUCKETS`]).
    pub fn from_parts(counts: &[u64], sum: u64, max: u64) -> Self {
        assert_eq!(counts.len(), BUCKETS, "bucket count mismatch");
        let mut h = LatencyHistogram::new();
        h.counts.copy_from_slice(counts);
        h.count = counts.iter().sum();
        h.sum = sum;
        h.max = max;
        h
    }

    /// Records one sample. The hot path: no allocation, no branch beyond
    /// the bucket arithmetic.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Total samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample seen (exact, not bucketed).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (exact).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw bucket counts, indexed by [`bucket_index`].
    #[inline]
    pub fn buckets(&self) -> &[u64] {
        &self.counts[..]
    }

    /// `(bucket index, count)` pairs for every non-empty bucket, in
    /// index (= value) order — the sparse encoding stats lines carry.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Mean of all samples (exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the lower bound of
    /// the bucket holding it (≤ ~3% below the true value). Returns 0 on an
    /// empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(idx);
            }
        }
        self.max
    }

    /// Adds another histogram's samples into this one (bucket-wise).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..10_000u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index out of range for {v}");
            assert!(idx >= last, "indices must not decrease (v = {v})");
            last = idx;
            let lb = bucket_value(idx);
            assert!(lb <= v, "lower bound {lb} above value {v}");
            // Relative precision: lower bound within one sub-bucket.
            if v >= SUB as u64 {
                assert!(
                    (v - lb) as f64 / v as f64 <= 1.0 / SUB as f64 + 1e-9,
                    "bucket too coarse at {v}: lb {lb}"
                );
            } else {
                assert_eq!(lb, v, "unit buckets must be exact");
            }
        }
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..100_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 1_000_000);
        }
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        let p999 = h.percentile(0.999);
        assert!(p50 <= p99 && p99 <= p999 && p999 <= h.max());
        // Roughly uniform in [0, 1e6): p50 near 5e5 within bucket slack.
        assert!((p50 as f64 - 5e5).abs() < 5e4, "p50 = {p50}");
        assert!(h.mean() > 4.5e5 && h.mean() < 5.5e5);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..5_000u64 {
            let sample = v * 37 % 10_000;
            if v % 2 == 0 { &mut a } else { &mut b }.record(sample);
            whole.record(sample);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(q), whole.percentile(q));
        }
    }

    #[test]
    fn from_parts_roundtrips() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 31, 32, 1000, 1 << 30] {
            h.record(v);
        }
        let rebuilt = LatencyHistogram::from_parts(h.buckets(), h.sum(), h.max());
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.sum(), h.sum());
        assert_eq!(rebuilt.max(), h.max());
        assert_eq!(rebuilt.percentile(0.5), h.percentile(0.5));
        let sparse: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(sparse.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
