//! Per-node availability schedules.
//!
//! An [`AvailabilitySchedule`] holds, for every node, its initial
//! online/offline state and a strictly increasing list of transition
//! times, each of which flips the state. It implements
//! [`ta_sim::AvailabilityModel`] so the engine can replay it, and offers
//! point queries used by the metric and statistics code.
//!
//! The layout is flat: one initial flag and one `u32` end offset per node,
//! and every node's transition times back to back in one array. A
//! transition's direction is not stored: alternation, which
//! [`AvailabilitySchedule::new`] validates, fixes it. That is 5 B per node
//! plus 8 B per transition; a node that never changes state costs only its
//! 5 B.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use ta_sim::engine::AvailabilityModel;
use ta_sim::{NodeId, SimDuration, SimTime};

/// One node's availability over the simulated horizon, borrowed from an
/// [`AvailabilitySchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Online at time zero?
    pub initial_online: bool,
    /// Transition times, strictly increasing; each flips the previous
    /// state.
    pub times: &'a [SimTime],
}

impl<'a> Segment<'a> {
    /// The transitions as `(time, goes_online)` pairs: the first goes
    /// online exactly when the node starts offline, and each later one
    /// flips the one before.
    pub fn transitions(&self) -> impl ExactSizeIterator<Item = (SimTime, bool)> + 'a {
        let first_up = !self.initial_online;
        self.times
            .iter()
            .enumerate()
            .map(move |(k, &time)| (time, first_up ^ (k % 2 == 1)))
    }

    /// Whether this segment is online at `t`.
    pub fn is_online_at(&self, t: SimTime) -> bool {
        // Transitions are sorted; count those at or before `t`.
        let flips = self.times.partition_point(|&time| time <= t);
        self.initial_online ^ (flips % 2 == 1)
    }

    /// Whether this segment has been online at any point in `[0, t]`.
    pub fn has_been_online_by(&self, t: SimTime) -> bool {
        // Starting offline, the first transition goes online.
        self.initial_online || self.times.first().is_some_and(|&first| first <= t)
    }

    /// Whether this segment is ever online over the whole horizon.
    pub fn is_ever_online(&self) -> bool {
        self.initial_online || !self.times.is_empty()
    }

    /// Total time spent online within `[0, horizon]`.
    pub fn online_time(&self, horizon: SimTime) -> SimDuration {
        let mut acc = SimDuration::ZERO;
        let mut state = self.initial_online;
        let mut since = SimTime::ZERO;
        for (time, up) in self.transitions() {
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

/// Availability of a whole network: one [`Segment`] per node, stored flat.
///
/// ```
/// use ta_churn::schedule::AvailabilitySchedule;
/// use ta_sim::SimTime;
///
/// let sched = AvailabilitySchedule::new([
///     (true, vec![]),
///     (false, vec![(SimTime::from_secs(60), true)]),
/// ])?;
/// assert_eq!(sched.online_count_at(SimTime::from_secs(0)), 1);
/// assert_eq!(sched.online_count_at(SimTime::from_secs(120)), 2);
/// # Ok::<(), ta_churn::schedule::InvalidScheduleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilitySchedule {
    /// Online at time zero, per node.
    initial: Vec<bool>,
    /// One past each node's last transition in `times`; a node's
    /// transitions start where the previous node's end (at 0 for node 0).
    ends: Vec<u32>,
    /// Every node's transition times, node by node.
    times: Vec<SimTime>,
}

impl AvailabilitySchedule {
    /// Builds a schedule from each node's initial state and its
    /// transitions as `(time, goes_online)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidScheduleError`] if there are no nodes, or a node's
    /// transition times do not strictly increase, or a transition does not
    /// flip the state.
    ///
    /// # Panics
    ///
    /// Panics if the schedule has more than `u32::MAX` transitions.
    pub fn new<N, T>(nodes: N) -> Result<Self, InvalidScheduleError>
    where
        N: IntoIterator<Item = (bool, T)>,
        T: IntoIterator<Item = (SimTime, bool)>,
    {
        let mut sched = Self::with_capacity(0);
        for (initial, transitions) in nodes {
            sched.push_node(initial);
            let (mut state, mut last) = (initial, None);
            for (time, up) in transitions {
                if last.is_some_and(|prev| time <= prev) {
                    return Err(InvalidScheduleError::NonMonotonicTime { at: time });
                }
                if up == state {
                    return Err(InvalidScheduleError::NonAlternating { at: time });
                }
                sched.push_transition(time);
                (state, last) = (up, Some(time));
            }
        }
        if sched.n() == 0 {
            return Err(InvalidScheduleError::Empty);
        }
        Ok(sched.finish())
    }

    /// A failure-free schedule: `n` nodes online throughout.
    pub fn always_on(n: usize) -> Self {
        AvailabilitySchedule {
            initial: vec![true; n],
            ends: vec![0; n],
            times: Vec::new(),
        }
    }

    /// An empty schedule with room for `n` nodes, for [`push_node`]
    /// and [`push_transition`] to fill.
    ///
    /// [`push_node`]: Self::push_node
    /// [`push_transition`]: Self::push_transition
    pub(crate) fn with_capacity(n: usize) -> Self {
        AvailabilitySchedule {
            initial: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            times: Vec::new(),
        }
    }

    /// Appends a node that starts online or offline, with no transitions
    /// yet.
    pub(crate) fn push_node(&mut self, initial_online: bool) {
        self.initial.push(initial_online);
        self.ends.push(self.ends.last().copied().unwrap_or(0));
    }

    /// Appends a transition at `time` to the last node, flipping its
    /// state. The caller keeps each node's times strictly increasing.
    pub(crate) fn push_transition(&mut self, time: SimTime) {
        self.times.push(time);
        let end = u32::try_from(self.times.len()).expect("more than u32::MAX transitions");
        *self.ends.last_mut().expect("a node to append to") = end;
    }

    /// Drops the spare capacity left by appending.
    pub(crate) fn finish(mut self) -> Self {
        self.initial.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.times.shrink_to_fit();
        self
    }

    /// Number of nodes covered.
    pub fn n(&self) -> usize {
        self.initial.len()
    }

    /// Number of transitions of all nodes together.
    pub fn transition_count(&self) -> usize {
        self.times.len()
    }

    /// Where node `i`'s transitions lie in `times`.
    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// The segment of `node`.
    pub fn segment(&self, node: NodeId) -> Segment<'_> {
        let i = node.index();
        Segment {
            initial_online: self.initial[i],
            times: &self.times[self.span(i)],
        }
    }

    /// The segments, in node order.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = Segment<'_>> + '_ {
        (0..self.n()).map(|i| self.segment(NodeId::from_index(i)))
    }

    /// Number of nodes online at `t`.
    pub fn online_count_at(&self, t: SimTime) -> usize {
        self.segments().filter(|s| s.is_online_at(t)).count()
    }

    /// Fraction of nodes online at `t`.
    pub fn online_fraction_at(&self, t: SimTime) -> f64 {
        self.online_count_at(t) as f64 / self.n() as f64
    }

    /// Fraction of nodes that have been online at least once by `t`.
    pub fn has_been_online_fraction_at(&self, t: SimTime) -> f64 {
        let c = self.segments().filter(|s| s.has_been_online_by(t)).count();
        c as f64 / self.n() as f64
    }

    /// Fraction of nodes that never come online over the whole horizon.
    pub fn never_online_fraction(&self) -> f64 {
        let c = self.segments().filter(|s| !s.is_ever_online()).count();
        c as f64 / self.n() as f64
    }
}

impl AvailabilityModel for AvailabilitySchedule {
    fn initially_online(&self, node: NodeId) -> bool {
        self.initial[node.index()]
    }

    fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool)) {
        for (time, up) in self.segment(node).transitions() {
            f(time, up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(initial: bool, times: &[(u64, bool)]) -> (bool, Vec<(SimTime, bool)>) {
        let times = times.iter().map(|&(s, up)| (SimTime::from_secs(s), up));
        (initial, times.collect())
    }

    /// A one-node schedule (its segment is `sched.segment(NodeId::new(0))`).
    fn seg(initial: bool, times: &[(u64, bool)]) -> AvailabilitySchedule {
        AvailabilitySchedule::new([node(initial, times)]).unwrap()
    }

    #[test]
    fn point_queries_follow_transitions() {
        let s = seg(false, &[(10, true), (20, false), (30, true)]);
        let s = s.segment(NodeId::new(0));
        assert!(!s.is_online_at(SimTime::from_secs(5)));
        assert!(s.is_online_at(SimTime::from_secs(10)));
        assert!(s.is_online_at(SimTime::from_secs(15)));
        assert!(!s.is_online_at(SimTime::from_secs(25)));
        assert!(s.is_online_at(SimTime::from_secs(35)));
    }

    #[test]
    fn has_been_online_is_monotone() {
        let s = seg(false, &[(10, true), (20, false)]);
        let s = s.segment(NodeId::new(0));
        assert!(!s.has_been_online_by(SimTime::from_secs(9)));
        assert!(s.has_been_online_by(SimTime::from_secs(10)));
        assert!(s.has_been_online_by(SimTime::from_secs(100)));
    }

    #[test]
    fn ever_online_detects_permanently_offline() {
        let ever = |s: AvailabilitySchedule| s.segment(NodeId::new(0)).is_ever_online();
        assert!(!ever(seg(false, &[])));
        assert!(ever(seg(true, &[])));
        assert!(ever(seg(false, &[(5, true)])));
    }

    #[test]
    fn online_time_accumulates_intervals() {
        let s = seg(true, &[(10, false), (30, true), (40, false)]);
        let s = s.segment(NodeId::new(0));
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
        let bad = node(false, &[(10, true), (10, false)]);
        assert!(matches!(
            AvailabilitySchedule::new([bad]).unwrap_err(),
            InvalidScheduleError::NonMonotonicTime { .. }
        ));
    }

    #[test]
    fn validation_rejects_non_alternating() {
        let bad = node(false, &[(10, false)]);
        assert!(matches!(
            AvailabilitySchedule::new([bad]).unwrap_err(),
            InvalidScheduleError::NonAlternating { .. }
        ));
    }

    #[test]
    fn validation_rejects_empty() {
        let none: [(bool, Vec<(SimTime, bool)>); 0] = [];
        assert_eq!(
            AvailabilitySchedule::new(none).unwrap_err(),
            InvalidScheduleError::Empty
        );
    }

    #[test]
    fn network_level_fractions() {
        let sched = AvailabilitySchedule::new([
            node(true, &[]),
            node(false, &[(10, true)]),
            node(false, &[]),
            node(true, &[(5, false)]),
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

    #[test]
    fn flat_layout_keeps_every_node_apart() {
        let sched = AvailabilitySchedule::new([
            node(false, &[(10, true), (20, false)]),
            node(true, &[]),
            node(true, &[(7, false)]),
        ])
        .unwrap();
        assert_eq!(sched.ends, [2, 2, 3]);
        assert_eq!(sched.transition_count(), 3);
        assert_eq!(
            sched.transitions(NodeId::new(0)),
            node(false, &[(10, true), (20, false)]).1
        );
        assert!(sched.transitions(NodeId::new(1)).is_empty());
        assert_eq!(
            sched.transitions(NodeId::new(2)),
            node(true, &[(7, false)]).1
        );
        assert!(!sched
            .segment(NodeId::new(2))
            .is_online_at(SimTime::from_secs(8)));
    }
}
