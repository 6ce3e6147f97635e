//! Time series of metric samples.
//!
//! Every experiment in the paper reports a metric sampled over virtual
//! time. [`TimeSeries`] is the common currency between the applications
//! (which record), the runner (which averages over independent runs), and
//! the figure harness (which prints and smooths — Figure 2's push gossip
//! panels are "smoothed based on averaging measurements over 15 minute
//! periods").

/// A sequence of `(time_seconds, value)` samples in non-decreasing time
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Creates a series from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or times decrease.
    pub fn from_parts(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "times must be non-decreasing"
        );
        TimeSeries { times, values }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last sample.
    pub fn push(&mut self, time: f64, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "sample time {time} precedes {last}");
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The last value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Mean of the values (NaN-free input assumed).
    pub fn mean_value(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Mean of the values over samples with `time >= from`.
    ///
    /// Used for equilibrium estimates that must skip the initial transient
    /// (Figure 5 compares against the *steady-state* token count).
    pub fn mean_value_from(&self, from: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (t, v) in self.iter() {
            if t >= from {
                sum += v;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// First sample time at which the value reaches at least `threshold`
    /// (e.g. "when did gossip learning reach 80 % of optimal speed").
    pub fn first_time_above(&self, threshold: f64) -> Option<f64> {
        self.iter().find(|&(_, v)| v >= threshold).map(|(t, _)| t)
    }

    /// First sample time at which the value drops to at most `threshold`
    /// (e.g. "when did the eigenvector angle fall below 0.01").
    pub fn first_time_below(&self, threshold: f64) -> Option<f64> {
        self.iter().find(|&(_, v)| v <= threshold).map(|(t, _)| t)
    }

    /// Moving-average smoothing over a time window (centred on each
    /// sample): the Figure 2/3 push gossip treatment with a 15-minute
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `window_seconds` is not positive.
    pub fn smooth(&self, window_seconds: f64) -> TimeSeries {
        assert!(window_seconds > 0.0, "window must be positive");
        let half = window_seconds / 2.0;
        let mut values = Vec::with_capacity(self.len());
        let mut lo = 0usize;
        let mut hi = 0usize;
        for &t in &self.times {
            while lo < self.len() && self.times[lo] < t - half {
                lo += 1;
            }
            if hi < lo {
                hi = lo;
            }
            while hi < self.len() && self.times[hi] <= t + half {
                hi += 1;
            }
            let slice = &self.values[lo..hi];
            values.push(slice.iter().sum::<f64>() / slice.len() as f64);
        }
        TimeSeries {
            times: self.times.clone(),
            values,
        }
    }

    /// Pointwise mean of several series sampled at identical times (the
    /// "average of 10 independent runs" of Section 4.2).
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the time grids differ.
    pub fn mean_of(series: &[TimeSeries]) -> TimeSeries {
        Self::mean_of_iter(series.iter())
    }

    /// Pointwise mean over borrowed series — the clone-free variant used by
    /// the experiment runner, which averages hundreds of per-replica series
    /// per sweep and must not copy each one first.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty or the time grids differ.
    pub fn mean_of_iter<'a, I>(series: I) -> TimeSeries
    where
        I: IntoIterator<Item = &'a TimeSeries>,
    {
        let mut iter = series.into_iter();
        let first = iter.next().expect("need at least one series");
        let mut values = first.values.clone();
        let mut n = 1u64;
        for s in iter {
            assert_eq!(s.times, first.times, "time grids differ between runs");
            for (acc, v) in values.iter_mut().zip(&s.values) {
                *acc += v;
            }
            n += 1;
        }
        let scale = 1.0 / n as f64;
        for v in values.iter_mut() {
            *v *= scale;
        }
        TimeSeries {
            times: first.times.clone(),
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pairs: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in pairs {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn push_and_accessors() {
        let s = series(&[(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.times(), &[0.0, 10.0, 20.0]);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.last_value(), Some(3.0));
        assert_eq!(s.mean_value(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn rejects_time_regression() {
        let mut s = series(&[(10.0, 1.0)]);
        s.push(5.0, 2.0);
    }

    #[test]
    fn from_parts_validates() {
        let s = TimeSeries::from_parts(vec![0.0, 1.0], vec![5.0, 6.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_rejects_mismatch() {
        let _ = TimeSeries::from_parts(vec![0.0], vec![1.0, 2.0]);
    }

    #[test]
    fn threshold_crossings() {
        let s = series(&[(0.0, 0.1), (10.0, 0.5), (20.0, 0.9), (30.0, 0.4)]);
        assert_eq!(s.first_time_above(0.5), Some(10.0));
        assert_eq!(s.first_time_above(2.0), None);
        assert_eq!(s.first_time_below(0.2), Some(0.0));
        let falling = series(&[(0.0, 1.0), (10.0, 0.3)]);
        assert_eq!(falling.first_time_below(0.5), Some(10.0));
        assert_eq!(falling.first_time_below(0.0), None);
    }

    #[test]
    fn mean_value_from_skips_transient() {
        let s = series(&[(0.0, 100.0), (10.0, 1.0), (20.0, 3.0)]);
        assert_eq!(s.mean_value_from(10.0), Some(2.0));
        assert_eq!(s.mean_value_from(100.0), None);
    }

    #[test]
    fn smoothing_averages_within_window() {
        let s = series(&[(0.0, 0.0), (10.0, 10.0), (20.0, 20.0), (30.0, 30.0)]);
        // Window of 20s centred: sample at 10 averages t in [0,20].
        let sm = s.smooth(20.0);
        assert_eq!(sm.times(), s.times());
        assert!((sm.values()[1] - 10.0).abs() < 1e-12);
        assert!((sm.values()[0] - 5.0).abs() < 1e-12); // [0,10]

        // A huge window flattens everything to the global mean.
        let flat = s.smooth(1e9);
        for &v in flat.values() {
            assert!((v - 15.0).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothing_preserves_constant_series() {
        let s = series(&[(0.0, 4.0), (5.0, 4.0), (10.0, 4.0)]);
        for &v in s.smooth(7.0).values() {
            assert!((v - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_of_averages_runs() {
        let a = series(&[(0.0, 1.0), (1.0, 3.0)]);
        let b = series(&[(0.0, 3.0), (1.0, 5.0)]);
        let m = TimeSeries::mean_of(&[a, b]);
        assert_eq!(m.values(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "time grids differ")]
    fn mean_of_rejects_mismatched_grids() {
        let a = series(&[(0.0, 1.0)]);
        let b = series(&[(1.0, 1.0)]);
        let _ = TimeSeries::mean_of(&[a, b]);
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.last_value(), None);
        assert_eq!(s.mean_value(), None);
        assert!(s.smooth(10.0).is_empty());
    }
}
