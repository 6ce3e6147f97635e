//! Streaming descriptive statistics (Welford's algorithm).

/// Single-pass mean/variance/min/max accumulator.
///
/// ```
/// use ta_metrics::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance with Bessel's correction (0 when fewer than two
    /// observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

/// Peak-to-mean ratio of a sequence of interval counts — the burstiness
/// measure of a traffic histogram (1.0 = perfectly smooth; large values =
/// bursty). Returns 0 for empty or all-zero input.
///
/// ```
/// use ta_metrics::stats::peak_to_mean;
///
/// assert_eq!(peak_to_mean(&[4, 4, 4, 4]), 1.0);
/// assert_eq!(peak_to_mean(&[0, 16, 0, 0]), 4.0);
/// assert_eq!(peak_to_mean(&[]), 0.0);
/// ```
pub fn peak_to_mean(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let peak = *counts.iter().max().expect("non-empty") as f64;
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        peak / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s: OnlineStats = [5.0].into_iter().collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        let s: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let (left, right) = data.split_at(200);
        let mut a: OnlineStats = left.iter().copied().collect();
        let b: OnlineStats = right.iter().copied().collect();
        let whole: OnlineStats = data.iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn peak_to_mean_cases() {
        assert_eq!(peak_to_mean(&[2, 2, 2]), 1.0);
        assert_eq!(peak_to_mean(&[0, 0, 0]), 0.0);
        assert!((peak_to_mean(&[1, 3, 2]) - 1.5).abs() < 1e-12);
        // A single burst among quiet intervals scores the interval count.
        assert_eq!(peak_to_mean(&[10, 0, 0, 0, 0]), 5.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
