//! Synthetic smartphone availability traces.
//!
//! The paper replays a proprietary trace collected by STUNner (ref. 8): 40,658
//! two-day segments of 1,191 users, with a user counted online only when on
//! a charger with ≥ 1 Mbit/s connectivity for at least a minute. That trace
//! is not redistributable, so this module generates a statistically
//! equivalent availability process calibrated to the published Figure 1:
//!
//! * a clear **diurnal pattern** — more phones online during the night
//!   (GMT), because they sit on chargers, with *lower* churn at night;
//! * about **30 % of users permanently offline** over the two-day window;
//! * hourly login/logout proportions of a few percent of the population.
//!
//! The generator is an inhomogeneous two-state Markov process per node,
//! simulated exactly by thinning. Rates are chosen so the instantaneous
//! equilibrium online fraction among churning users tracks the diurnal
//! target `q(t)`, while the total transition rate tracks the churn target
//! `r(t)`:
//!
//! ```text
//! α(t) = r(t)·q(t)        (offline → online)
//! β(t) = r(t)·(1 − q(t))  (online → offline)
//! ```
//!
//! The token account protocols only observe *who is online when*, which is
//! exactly the process reproduced here; per-user identity of the original
//! trace is irrelevant to the algorithms.

use ta_sim::rng::Xoshiro256pp;
use ta_sim::time::{SimDuration, SimTime};

use crate::schedule::{AvailabilitySchedule, Segment};

/// Parameters of the synthetic smartphone availability model.
///
/// The defaults reproduce the shape of the paper's Figure 1. All rates are
/// per hour; phases are hours into the (GMT) day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartphoneTraceModel {
    /// Fraction of users that never come online in the window (paper: ~30 %).
    pub permanently_offline: f64,
    /// Mean of the diurnal conditional online probability `q(t)` among
    /// churning users.
    pub online_mean: f64,
    /// Amplitude of the diurnal oscillation of `q(t)`.
    pub online_amplitude: f64,
    /// Hour of day (GMT) at which `q(t)` peaks (night: phones on chargers).
    pub online_peak_hour: f64,
    /// Mean total transition rate `r(t)` (events/hour/user).
    pub churn_rate_mean: f64,
    /// Amplitude of the diurnal oscillation of `r(t)`.
    pub churn_rate_amplitude: f64,
    /// Hour of day at which churn peaks (daytime: phones hopping chargers).
    pub churn_peak_hour: f64,
}

impl Default for SmartphoneTraceModel {
    fn default() -> Self {
        SmartphoneTraceModel {
            permanently_offline: 0.30,
            online_mean: 0.52,
            online_amplitude: 0.13,
            online_peak_hour: 3.0,
            churn_rate_mean: 0.22,
            churn_rate_amplitude: 0.08,
            churn_peak_hour: 17.0,
        }
    }
}

impl SmartphoneTraceModel {
    /// Conditional online probability among churning users at time `t`.
    pub fn online_target(&self, t: SimTime) -> f64 {
        let hours = t.as_hours_f64();
        let phase = (hours - self.online_peak_hour) / 24.0 * std::f64::consts::TAU;
        (self.online_mean + self.online_amplitude * phase.cos()).clamp(0.01, 0.99)
    }

    /// Total transition rate (per hour) at time `t`.
    pub fn churn_rate(&self, t: SimTime) -> f64 {
        let hours = t.as_hours_f64();
        let phase = (hours - self.churn_peak_hour) / 24.0 * std::f64::consts::TAU;
        (self.churn_rate_mean + self.churn_rate_amplitude * phase.cos()).max(1e-6)
    }

    /// Upper bound on the transition rate, for thinning.
    fn max_rate(&self) -> f64 {
        self.churn_rate_mean + self.churn_rate_amplitude.abs()
    }

    /// Generates one node's two-day (or `horizon`-long) segment.
    pub fn generate_segment(&self, horizon: SimDuration, rng: &mut Xoshiro256pp) -> Segment {
        if rng.chance(self.permanently_offline) {
            return Segment::constant(false);
        }
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + horizon;
        let mut online = rng.chance(self.online_target(SimTime::ZERO));
        let initial = online;
        let mut transitions = Vec::new();
        let rate_bound = self.max_rate();
        loop {
            // Exponential(rate_bound) inter-candidate time, in hours.
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            let wait_hours = -u.ln() / rate_bound;
            let wait = SimDuration::from_secs_f64(wait_hours * 3600.0);
            if wait.is_zero() {
                // Sub-microsecond wait: skip to keep transitions strictly
                // increasing (probability ~0 under default rates).
                continue;
            }
            t += wait;
            if t > end {
                break;
            }
            let r = self.churn_rate(t);
            let q = self.online_target(t);
            // Rate of leaving the current state.
            let leave = if online { r * (1.0 - q) } else { r * q };
            if rng.chance(leave / rate_bound) {
                online = !online;
                transitions.push((t, online));
            }
        }
        Segment {
            initial_online: initial,
            transitions,
        }
    }

    /// Generates a full-network schedule of `n` independent segments.
    ///
    /// Each node draws from its own RNG stream of `seed`, so the schedule
    /// for node `i` is stable regardless of `n`.
    pub fn generate(&self, n: usize, horizon: SimDuration, seed: u64) -> AvailabilitySchedule {
        let segments = (0..n)
            .map(|i| {
                let mut rng = Xoshiro256pp::stream(seed, 0xc4u64 ^ (i as u64) << 8);
                self.generate_segment(horizon, &mut rng)
            })
            .collect();
        AvailabilitySchedule::new(segments).expect("generator yields valid segments")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_sim::paper;

    fn two_day_schedule(n: usize) -> AvailabilitySchedule {
        SmartphoneTraceModel::default().generate(n, paper::TWO_DAYS, 99)
    }

    #[test]
    fn permanently_offline_fraction_matches_target() {
        let sched = two_day_schedule(4000);
        let f = sched.never_online_fraction();
        // 30% target ± sampling noise; churning users that never flip online
        // add a little. Figure 1 shows ~30%.
        assert!((0.25..0.40).contains(&f), "never-online fraction {f}");
    }

    #[test]
    fn online_fraction_is_in_figure_1_band() {
        let sched = two_day_schedule(4000);
        for h in [6u64, 12, 18, 24, 30, 36, 42] {
            let f = sched.online_fraction_at(SimTime::from_secs(h * 3600));
            assert!((0.20..0.55).contains(&f), "hour {h}: online {f}");
        }
    }

    #[test]
    fn diurnal_pattern_peaks_at_night() {
        let sched = two_day_schedule(6000);
        // Night (03:00) vs afternoon (15:00) on both days.
        let night = (sched.online_fraction_at(SimTime::from_secs(3 * 3600))
            + sched.online_fraction_at(SimTime::from_secs(27 * 3600)))
            / 2.0;
        let day = (sched.online_fraction_at(SimTime::from_secs(15 * 3600))
            + sched.online_fraction_at(SimTime::from_secs(39 * 3600)))
            / 2.0;
        assert!(
            night > day + 0.03,
            "expected night ({night}) > day ({day}) availability"
        );
    }

    #[test]
    fn has_been_online_saturates_below_one() {
        let sched = two_day_schedule(3000);
        let early = sched.has_been_online_fraction_at(SimTime::from_secs(3600));
        let late = sched.has_been_online_fraction_at(SimTime::from_secs(47 * 3600));
        assert!(early < late);
        // ~30% never online ⇒ saturation around 0.7.
        assert!((0.60..0.80).contains(&late), "saturation {late}");
    }

    #[test]
    fn generation_is_deterministic_and_stream_stable() {
        let model = SmartphoneTraceModel::default();
        let a = model.generate(100, paper::TWO_DAYS, 7);
        let b = model.generate(100, paper::TWO_DAYS, 7);
        assert_eq!(a, b);
        // Node i's segment does not depend on n.
        let big = model.generate(200, paper::TWO_DAYS, 7);
        assert_eq!(a.segments()[..100], big.segments()[..100]);
        // Different seed differs.
        let c = model.generate(100, paper::TWO_DAYS, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn targets_are_valid_probabilities_and_rates() {
        let model = SmartphoneTraceModel::default();
        for h in 0..48 {
            let t = SimTime::from_secs(h * 3600);
            let q = model.online_target(t);
            assert!((0.0..=1.0).contains(&q));
            assert!(model.churn_rate(t) > 0.0);
        }
    }

    #[test]
    fn churn_rate_produces_realistic_session_counts() {
        let sched = two_day_schedule(1000);
        // Mean transitions per churning user over 48 h at rate ~0.22/h with
        // thinning acceptance < 1: somewhere in single digits.
        let total: usize = sched.segments().iter().map(|s| s.transitions.len()).sum();
        let churning = sched
            .segments()
            .iter()
            .filter(|s| s.is_ever_online() || !s.transitions.is_empty())
            .count();
        let mean = total as f64 / churning.max(1) as f64;
        assert!((1.0..12.0).contains(&mean), "mean transitions {mean}");
    }
}
