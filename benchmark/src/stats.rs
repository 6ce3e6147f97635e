//! Median and quartiles of a handful of repetitions.

/// Median and quartiles of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(samples)?;
        Some(Summary {
            n: samples.len(),
            q1,
            median,
            q3,
        })
    }

    /// Tukey's trimean, `(q1 + 2 median + q3) / 4`: as robust as the median,
    /// but it does not jump between the two modes of a bimodal sample.
    pub fn trimean(&self) -> f64 {
        (self.q1 + 2.0 * self.median + self.q3) / 4.0
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median of `samples`; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|q| q[1])
}

/// `[q1, median, q3]` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) computes them, so a spread printed here is the
/// spread the driver computes. One sample is its own three quartiles.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some([v[0]; 3]),
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..=3usize) {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// How much worse `now` is than `base`, as a share of `base` (negative
/// when it is better), for a metric whose direction is `higher_is_better`.
pub fn worsening(base: f64, now: f64, higher_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (now - base) / base.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[7.0]), Some([7.0, 7.0, 7.0]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(s.trimean(), (2.75 + 11.0 + 8.25) / 4.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 125.0, false) - 0.25).abs() < 1e-12);
    }
}
