//! Per-node availability schedules.
//!
//! An [`AvailabilitySchedule`] holds, for every node, its initial
//! online/offline state and an alternating, strictly increasing list of
//! transition times. It implements [`ta_sim::AvailabilityModel`] so the
//! engine can replay it, and offers point queries used by the metric and
//! statistics code.

use std::error::Error;
use std::fmt;

use ta_sim::engine::AvailabilityModel;
use ta_sim::{NodeId, SimTime};

/// One node's availability over the simulated horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Online at time zero?
    pub initial_online: bool,
    /// Alternating transitions `(time, goes_online)`, strictly increasing in
    /// time, each flipping the previous state.
    pub transitions: Vec<(SimTime, bool)>,
}

impl Segment {
    /// A segment that never changes state.
    pub fn constant(online: bool) -> Self {
        Segment {
            initial_online: online,
            transitions: Vec::new(),
        }
    }

    /// Whether this segment is online at `t`.
    pub fn is_online_at(&self, t: SimTime) -> bool {
        // Transitions are sorted; find the last one at or before `t`.
        match self.transitions.partition_point(|&(time, _)| time <= t) {
            0 => self.initial_online,
            k => self.transitions[k - 1].1,
        }
    }

    /// Whether this segment has been online at any point in `[0, t]`.
    pub fn has_been_online_by(&self, t: SimTime) -> bool {
        if self.initial_online {
            return true;
        }
        self.transitions
            .iter()
            .take_while(|&&(time, _)| time <= t)
            .any(|&(_, up)| up)
    }

    /// Whether this segment is ever online over the whole horizon.
    pub fn is_ever_online(&self) -> bool {
        self.initial_online || self.transitions.iter().any(|&(_, up)| up)
    }

    /// Total time spent online within `[0, horizon]`.
    pub fn online_time(&self, horizon: SimTime) -> ta_sim::SimDuration {
        let mut acc = ta_sim::SimDuration::ZERO;
        let mut state = self.initial_online;
        let mut since = SimTime::ZERO;
        for &(time, up) in &self.transitions {
            if time > horizon {
                break;
            }
            if state {
                acc += time - since;
            }
            state = up;
            since = time;
        }
        if state && horizon > since {
            acc += horizon - since;
        }
        acc
    }

    fn validate(&self) -> Result<(), InvalidScheduleError> {
        let mut state = self.initial_online;
        let mut last: Option<SimTime> = None;
        for &(time, up) in &self.transitions {
            if let Some(prev) = last {
                if time <= prev {
                    return Err(InvalidScheduleError::NonMonotonicTime { at: time });
                }
            }
            if up == state {
                return Err(InvalidScheduleError::NonAlternating { at: time });
            }
            state = up;
            last = Some(time);
        }
        Ok(())
    }
}

/// Error constructing an [`AvailabilitySchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidScheduleError {
    /// Transition times must strictly increase.
    NonMonotonicTime {
        /// Offending transition time.
        at: SimTime,
    },
    /// Consecutive transitions must flip the state.
    NonAlternating {
        /// Offending transition time.
        at: SimTime,
    },
    /// The schedule holds no segments.
    Empty,
}

impl fmt::Display for InvalidScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidScheduleError::NonMonotonicTime { at } => {
                write!(f, "transition times must strictly increase (at {at})")
            }
            InvalidScheduleError::NonAlternating { at } => {
                write!(f, "transitions must alternate online/offline (at {at})")
            }
            InvalidScheduleError::Empty => write!(f, "schedule holds no segments"),
        }
    }
}

impl Error for InvalidScheduleError {}

/// Availability of a whole network: one [`Segment`] per node.
///
/// ```
/// use ta_churn::schedule::{AvailabilitySchedule, Segment};
/// use ta_sim::SimTime;
///
/// let mut seg = Segment::constant(false);
/// seg.transitions.push((SimTime::from_secs(60), true));
/// let sched = AvailabilitySchedule::new(vec![Segment::constant(true), seg])?;
/// assert_eq!(sched.online_count_at(SimTime::from_secs(0)), 1);
/// assert_eq!(sched.online_count_at(SimTime::from_secs(120)), 2);
/// # Ok::<(), ta_churn::schedule::InvalidScheduleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilitySchedule {
    segments: Vec<Segment>,
}

impl AvailabilitySchedule {
    /// Wraps validated segments.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidScheduleError`] if `segments` is empty or any
    /// segment has non-monotonic or non-alternating transitions.
    pub fn new(segments: Vec<Segment>) -> Result<Self, InvalidScheduleError> {
        if segments.is_empty() {
            return Err(InvalidScheduleError::Empty);
        }
        for seg in &segments {
            seg.validate()?;
        }
        Ok(AvailabilitySchedule { segments })
    }

    /// A failure-free schedule: `n` nodes online throughout.
    pub fn always_on(n: usize) -> Self {
        AvailabilitySchedule {
            segments: vec![Segment::constant(true); n],
        }
    }

    /// Number of nodes covered.
    pub fn n(&self) -> usize {
        self.segments.len()
    }

    /// The segment of `node`.
    pub fn segment(&self, node: NodeId) -> &Segment {
        &self.segments[node.index()]
    }

    /// The segments, in node order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of nodes online at `t`.
    pub fn online_count_at(&self, t: SimTime) -> usize {
        self.segments.iter().filter(|s| s.is_online_at(t)).count()
    }

    /// Fraction of nodes online at `t`.
    pub fn online_fraction_at(&self, t: SimTime) -> f64 {
        self.online_count_at(t) as f64 / self.n() as f64
    }

    /// Fraction of nodes that have been online at least once by `t`.
    pub fn has_been_online_fraction_at(&self, t: SimTime) -> f64 {
        let c = self
            .segments
            .iter()
            .filter(|s| s.has_been_online_by(t))
            .count();
        c as f64 / self.n() as f64
    }

    /// Fraction of nodes that never come online over the whole horizon.
    pub fn never_online_fraction(&self) -> f64 {
        let c = self.segments.iter().filter(|s| !s.is_ever_online()).count();
        c as f64 / self.n() as f64
    }

    /// Consumes the schedule, returning its segments.
    pub fn into_segments(self) -> Vec<Segment> {
        self.segments
    }
}

impl AvailabilityModel for AvailabilitySchedule {
    fn initially_online(&self, node: NodeId) -> bool {
        self.segments[node.index()].initial_online
    }

    fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool)) {
        // Stream the stored slice directly: engine setup at large N used to
        // clone one Vec per node through the `transitions` wrapper.
        for &(time, up) in &self.segments[node.index()].transitions {
            f(time, up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_sim::SimDuration;

    fn seg(initial: bool, times: &[(u64, bool)]) -> Segment {
        Segment {
            initial_online: initial,
            transitions: times
                .iter()
                .map(|&(s, up)| (SimTime::from_secs(s), up))
                .collect(),
        }
    }

    #[test]
    fn point_queries_follow_transitions() {
        let s = seg(false, &[(10, true), (20, false), (30, true)]);
        assert!(!s.is_online_at(SimTime::from_secs(5)));
        assert!(s.is_online_at(SimTime::from_secs(10)));
        assert!(s.is_online_at(SimTime::from_secs(15)));
        assert!(!s.is_online_at(SimTime::from_secs(25)));
        assert!(s.is_online_at(SimTime::from_secs(35)));
    }

    #[test]
    fn has_been_online_is_monotone() {
        let s = seg(false, &[(10, true), (20, false)]);
        assert!(!s.has_been_online_by(SimTime::from_secs(9)));
        assert!(s.has_been_online_by(SimTime::from_secs(10)));
        assert!(s.has_been_online_by(SimTime::from_secs(100)));
    }

    #[test]
    fn ever_online_detects_permanently_offline() {
        assert!(!seg(false, &[]).is_ever_online());
        assert!(seg(true, &[]).is_ever_online());
        assert!(seg(false, &[(5, true)]).is_ever_online());
    }

    #[test]
    fn online_time_accumulates_intervals() {
        let s = seg(true, &[(10, false), (30, true), (40, false)]);
        // Online [0,10) and [30,40) within horizon 100 ⇒ 20 s.
        assert_eq!(
            s.online_time(SimTime::from_secs(100)),
            SimDuration::from_secs(20)
        );
        // Horizon inside an online stretch: [0,10) + [30,35) = 15 s.
        assert_eq!(
            s.online_time(SimTime::from_secs(35)),
            SimDuration::from_secs(15)
        );
    }

    #[test]
    fn validation_rejects_non_monotonic() {
        let bad = seg(false, &[(10, true), (10, false)]);
        assert!(matches!(
            AvailabilitySchedule::new(vec![bad]).unwrap_err(),
            InvalidScheduleError::NonMonotonicTime { .. }
        ));
    }

    #[test]
    fn validation_rejects_non_alternating() {
        let bad = seg(false, &[(10, false)]);
        assert!(matches!(
            AvailabilitySchedule::new(vec![bad]).unwrap_err(),
            InvalidScheduleError::NonAlternating { .. }
        ));
    }

    #[test]
    fn validation_rejects_empty() {
        assert_eq!(
            AvailabilitySchedule::new(vec![]).unwrap_err(),
            InvalidScheduleError::Empty
        );
    }

    #[test]
    fn network_level_fractions() {
        let sched = AvailabilitySchedule::new(vec![
            seg(true, &[]),
            seg(false, &[(10, true)]),
            seg(false, &[]),
            seg(true, &[(5, false)]),
        ])
        .unwrap();
        assert_eq!(sched.online_count_at(SimTime::ZERO), 2);
        assert_eq!(sched.online_count_at(SimTime::from_secs(7)), 1);
        assert_eq!(sched.online_count_at(SimTime::from_secs(12)), 2);
        assert!((sched.online_fraction_at(SimTime::from_secs(12)) - 0.5).abs() < 1e-12);
        assert!((sched.never_online_fraction() - 0.25).abs() < 1e-12);
        assert!((sched.has_been_online_fraction_at(SimTime::from_secs(12)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn always_on_matches_model_trait() {
        let sched = AvailabilitySchedule::always_on(3);
        assert_eq!(sched.n(), 3);
        assert!(sched.initially_online(NodeId::new(2)));
        assert!(sched.transitions(NodeId::new(2)).is_empty());
        assert_eq!(sched.never_online_fraction(), 0.0);
    }
}
