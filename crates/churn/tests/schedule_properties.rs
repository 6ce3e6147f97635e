//! Property tests over availability schedules and the synthetic model.

use proptest::prelude::*;
use ta_churn::schedule::AvailabilitySchedule;
use ta_churn::synthetic::SmartphoneTraceModel;
use ta_churn::trace_io::{parse_trace, write_trace};
use ta_sim::time::{SimDuration, SimTime};
use ta_sim::NodeId;

/// Builds a valid alternating one-node schedule from a list of positive
/// gaps (its segment is `sched.segment(NodeId::new(0))`).
fn schedule_from_gaps(initial: bool, gaps: Vec<u64>) -> AvailabilitySchedule {
    let mut transitions = Vec::new();
    let mut t = 0u64;
    let mut state = initial;
    for gap in gaps {
        t += gap.max(1);
        state = !state;
        transitions.push((SimTime::from_micros(t), state));
    }
    AvailabilitySchedule::new([(initial, transitions)]).unwrap()
}

proptest! {
    /// `online_time` equals the integral of `is_online_at`, measured by a
    /// fine scan.
    #[test]
    fn online_time_matches_point_queries(
        initial in any::<bool>(),
        gaps in proptest::collection::vec(1u64..5_000_000u64, 0..12)
    ) {
        let sched = schedule_from_gaps(initial, gaps);
        let seg = sched.segment(NodeId::new(0));
        let horizon = SimTime::from_micros(30_000_000);
        let reported = seg.online_time(horizon);
        // Riemann sum at 10 ms resolution.
        let step = 10_000u64;
        let mut acc = 0u64;
        let mut t = 0u64;
        while t < horizon.as_micros() {
            if seg.is_online_at(SimTime::from_micros(t)) {
                acc += step;
            }
            t += step;
        }
        let diff = (acc as i64 - reported.as_micros() as i64).abs();
        // Each transition contributes at most one step of error.
        let tolerance = step as i64 * (seg.times.len() as i64 + 1);
        prop_assert!(diff <= tolerance, "diff {diff} > tolerance {tolerance}");
    }

    /// Segments built from gaps always validate, and round-trip through
    /// the trace text format.
    #[test]
    fn trace_io_roundtrip(
        initial in any::<bool>(),
        gaps in proptest::collection::vec(1u64..100_000_000u64, 0..10)
    ) {
        let sched = schedule_from_gaps(initial, gaps);
        let text = write_trace(&sched);
        let parsed = parse_trace(&text).unwrap();
        prop_assert_eq!(parsed, sched);
    }

    /// has_been_online is monotone in time for any segment.
    #[test]
    fn has_been_online_is_monotone(
        initial in any::<bool>(),
        gaps in proptest::collection::vec(1u64..2_000_000u64, 0..10)
    ) {
        let sched = schedule_from_gaps(initial, gaps);
        let seg = sched.segment(NodeId::new(0));
        let mut last = false;
        for ms in (0..20_000).step_by(500) {
            let now = seg.has_been_online_by(SimTime::from_micros(ms * 1000));
            prop_assert!(!last || now, "has_been_online regressed at {ms}ms");
            last = now;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The synthetic model respects arbitrary horizons: no transition
    /// beyond the end, states alternate, times strictly increase.
    #[test]
    fn synthetic_segments_stay_in_horizon(seed in 0u64..10_000, hours in 1u64..72) {
        let horizon = SimDuration::from_hours(hours);
        let sched = SmartphoneTraceModel::default().generate(30, horizon, seed);
        for seg in sched.segments() {
            let mut state = seg.initial_online;
            let mut last = None;
            for (t, up) in seg.transitions() {
                prop_assert!(t <= SimTime::ZERO + horizon);
                prop_assert_ne!(up, state);
                if let Some(prev) = last {
                    prop_assert!(t > prev);
                }
                state = up;
                last = Some(t);
            }
        }
    }
}
