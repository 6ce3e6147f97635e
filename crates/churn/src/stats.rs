//! Figure-1 statistics of an availability schedule.
//!
//! The paper's Figure 1 plots, over the 48-hour window: the proportion of
//! users online, the proportion that have been online at least once, and —
//! as bars per period — the proportion of users logging in and logging out.
//! [`figure1_series`] computes all four series from any
//! [`AvailabilitySchedule`], so the plot can be regenerated from either the
//! synthetic model or a real trace loaded from disk.

use ta_sim::time::{SimDuration, SimTime};

use crate::schedule::AvailabilitySchedule;

/// One sampling bucket of the Figure-1 statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnBucket {
    /// Bucket start, in hours from the window start.
    pub hour: f64,
    /// Proportion of users online at the bucket start.
    pub online: f64,
    /// Proportion of users that have been online at least once by the
    /// bucket start.
    pub has_been_online: f64,
    /// Proportion of users that log in during the bucket.
    pub logins: f64,
    /// Proportion of users that log out during the bucket.
    pub logouts: f64,
}

/// Computes the Figure-1 series over `[0, horizon]` with the given bucket
/// width.
///
/// # Panics
///
/// Panics if `bucket` is zero.
pub fn figure1_series(
    schedule: &AvailabilitySchedule,
    horizon: SimDuration,
    bucket: SimDuration,
) -> Vec<ChurnBucket> {
    assert!(!bucket.is_zero(), "bucket width must be positive");
    let n = schedule.n() as f64;
    let buckets = horizon / bucket;
    let mut out = Vec::with_capacity(buckets as usize);
    for b in 0..buckets {
        let start = SimTime::ZERO + bucket * b;
        let end = start + bucket;
        let mut logins = 0u64;
        let mut logouts = 0u64;
        for seg in schedule.segments() {
            for &(t, up) in &seg.transitions {
                if t >= start && t < end {
                    if up {
                        logins += 1;
                    } else {
                        logouts += 1;
                    }
                }
            }
        }
        out.push(ChurnBucket {
            hour: start.as_hours_f64(),
            online: schedule.online_fraction_at(start),
            has_been_online: schedule.has_been_online_fraction_at(start),
            logins: logins as f64 / n,
            logouts: logouts as f64 / n,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Segment;
    use crate::synthetic::SmartphoneTraceModel;
    use ta_sim::paper;

    #[test]
    fn counts_logins_and_logouts_per_bucket() {
        let mut a = Segment::constant(false);
        a.transitions.push((SimTime::from_secs(30), true));
        a.transitions.push((SimTime::from_secs(90), false));
        let b = Segment::constant(true);
        let sched = AvailabilitySchedule::new(vec![a, b]).unwrap();
        let series = figure1_series(
            &sched,
            SimDuration::from_secs(120),
            SimDuration::from_secs(60),
        );
        assert_eq!(series.len(), 2);
        // Bucket 0: one login out of two users.
        assert!((series[0].logins - 0.5).abs() < 1e-12);
        assert_eq!(series[0].logouts, 0.0);
        // Bucket 1: one logout.
        assert_eq!(series[1].logins, 0.0);
        assert!((series[1].logouts - 0.5).abs() < 1e-12);
        // Online fractions at bucket starts: t=0 ⇒ 1/2; t=60 ⇒ 1 (a online).
        assert!((series[0].online - 0.5).abs() < 1e-12);
        assert!((series[1].online - 1.0).abs() < 1e-12);
    }

    #[test]
    fn has_been_online_is_monotone_across_buckets() {
        let sched = SmartphoneTraceModel::default().generate(500, paper::TWO_DAYS, 3);
        let series = figure1_series(&sched, paper::TWO_DAYS, SimDuration::from_hours(1));
        assert_eq!(series.len(), 48);
        for w in series.windows(2) {
            assert!(w[1].has_been_online >= w[0].has_been_online - 1e-12);
        }
    }

    #[test]
    fn synthetic_series_shows_figure_1_shape() {
        let sched = SmartphoneTraceModel::default().generate(3000, paper::TWO_DAYS, 11);
        let series = figure1_series(&sched, paper::TWO_DAYS, SimDuration::from_hours(1));
        // Login/logout proportions are small per hour (bars in Figure 1).
        for b in &series {
            assert!(b.logins < 0.2, "hour {}: logins {}", b.hour, b.logins);
            assert!(b.logouts < 0.2, "hour {}: logouts {}", b.hour, b.logouts);
        }
        // Saturation of has-been-online stays below 1 (permanently offline).
        let last = series.last().unwrap();
        assert!(last.has_been_online < 0.9);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        let sched = AvailabilitySchedule::always_on(1);
        figure1_series(&sched, SimDuration::from_secs(10), SimDuration::ZERO);
    }
}
