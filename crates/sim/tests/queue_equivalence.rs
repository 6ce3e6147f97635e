//! The ordering oracle: [`LaneScheduler`] must be observationally identical
//! to [`BinaryHeapQueue`] through every [`EventQueue`] entry point, for any
//! schedule — whichever side of the scheduler (a fixed-delay lane or the
//! fallback heap) each event lands on.

use proptest::prelude::*;
use ta_sim::queue::{order_key, BinaryHeapQueue, EventQueue, LaneScheduler, ReadyBatch, Scheduled};
use ta_sim::time::{SimDuration, SimTime};

/// The paper's Δ and transfer time, the lane delays of `LaneScheduler::new`.
const DELTA: u64 = 172_800_000;
const TRANSFER: u64 = 1_728_000;

fn at(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

/// The scheduler beside its oracle: every operation runs on both, and
/// whatever they hand back must agree.
struct Pair {
    heap: BinaryHeapQueue<u64>,
    sched: LaneScheduler<u64>,
    heap_batch: ReadyBatch<u64>,
    sched_batch: ReadyBatch<u64>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            heap: BinaryHeapQueue::new(),
            sched: LaneScheduler::new(),
            heap_batch: ReadyBatch::new(),
            sched_batch: ReadyBatch::new(),
        }
    }

    fn push(&mut self, time: SimTime, event: u64) {
        self.heap.push(time, event);
        self.sched.push(time, event);
        self.check();
    }

    fn push_keyed(&mut self, time: SimTime, key: u64, event: u64) {
        self.heap.push_keyed(time, key, event);
        self.sched.push_keyed(time, key, event);
        self.check();
    }

    fn pop(&mut self) -> Option<Scheduled<u64>> {
        let (a, b) = (self.heap.pop(), self.sched.pop());
        assert_eq!(a, b, "pop diverged");
        self.check();
        a
    }

    /// Bounded drain on both; returns the batch.
    fn drain_before(&mut self, bound: SimTime) -> Vec<(SimTime, u64, u64)> {
        self.heap.drain_ready_before(bound, &mut self.heap_batch);
        self.sched.drain_ready_before(bound, &mut self.sched_batch);
        self.take_batches()
    }

    /// The unbounded entry point itself, not its bounded synonym.
    fn drain(&mut self) -> Vec<(SimTime, u64, u64)> {
        self.heap.drain_ready(&mut self.heap_batch);
        self.sched.drain_ready(&mut self.sched_batch);
        self.take_batches()
    }

    /// Empties both batches, which must be one same-time run in key order.
    fn take_batches(&mut self) -> Vec<(SimTime, u64, u64)> {
        assert_eq!(self.heap_batch.time(), self.sched_batch.time());
        let a: Vec<_> = self.heap_batch.drain().collect();
        let b: Vec<_> = self.sched_batch.drain().collect();
        assert_eq!(a, b, "drain diverged");
        assert!(a.windows(2).all(|w| w[0].0 == w[1].0 && w[0].1 < w[1].1));
        self.check();
        a
    }

    fn check(&mut self) {
        assert_eq!(self.heap.len(), self.sched.len());
        assert_eq!(self.heap.is_empty(), self.sched.is_empty());
        assert_eq!(self.heap.peek_time(), self.sched.peek_time());
    }

    /// Pops both empty, returning the events in order.
    fn pop_all(&mut self) -> Vec<u64> {
        std::iter::from_fn(|| self.pop().map(|s| s.event)).collect()
    }

    /// Events the scheduler holds in a lane.
    fn in_lanes(&self) -> usize {
        self.sched.len() - self.sched.fallback_len()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// FIFO-keyed push `offset` µs after the last time handed out.
    Push(u64),
    /// Caller-keyed push: `(offset, origin)`; the counter half of the key
    /// is the running event id, so keys are unique but arrive out of order.
    PushKeyed(u64, u32),
    Pop,
    Drain,
    /// Bounded drain, bound `offset` µs after the last time handed out.
    DrainBefore(u64),
}

fn offset_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // The lane delays, hot.
        3 => Just(DELTA),
        3 => Just(TRANSFER),
        // Just beside them, and same-instant / near-instant clusters.
        1 => prop_oneof![Just(DELTA - 1), Just(DELTA + 1), Just(TRANSFER - 1), Just(TRANSFER + 1)],
        2 => 0u64..2_000u64,
        // Anything, up to far beyond the horizon of a run.
        2 => 0u64..20_000_000_000u64,
    ]
}

fn keyed_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (offset_strategy(), 0u32..6).prop_map(|(o, origin)| Op::PushKeyed(o, origin)),
        2 => Just(Op::Pop),
        2 => Just(Op::Drain),
        1 => (0u64..200_000_000u64).prop_map(Op::DrainBefore),
    ]
}

fn fifo_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => offset_strategy().prop_map(Op::Push),
        2 => Just(Op::Pop),
        2 => Just(Op::Drain),
        1 => (0u64..200_000_000u64).prop_map(Op::DrainBefore),
    ]
}

/// Runs `ops` on the pair (every step is cross-checked inside [`Pair`]),
/// then empties it batch by batch.
fn check_equivalence(ops: Vec<Op>) {
    let mut pair = Pair::new();
    let mut now = 0u64;
    let mut id = 0u64;
    for op in ops {
        match op {
            Op::Push(offset) => {
                pair.push(at(now + offset), id);
                id += 1;
            }
            Op::PushKeyed(offset, origin) => {
                pair.push_keyed(at(now + offset), order_key(origin, id), id);
                id += 1;
            }
            Op::Pop => {
                if let Some(s) = pair.pop() {
                    now = s.time.as_micros();
                }
            }
            Op::Drain => {
                if let Some(&(t, ..)) = pair.drain().first() {
                    now = t.as_micros();
                }
            }
            Op::DrainBefore(offset) => {
                let bound = at(now + offset);
                let batch = pair.drain_before(bound);
                if let Some(&(t, ..)) = batch.first() {
                    assert!(t <= bound);
                    now = t.as_micros();
                }
            }
        }
    }
    while !pair.drain().is_empty() {}
    assert!(pair.pop().is_none());
}

proptest! {
    #[test]
    fn scheduler_matches_heap_on_keyed_schedules(
        ops in proptest::collection::vec(keyed_op_strategy(), 1..400),
    ) {
        check_equivalence(ops);
    }

    #[test]
    fn scheduler_matches_heap_on_fifo_schedules(
        ops in proptest::collection::vec(fifo_op_strategy(), 1..400),
    ) {
        check_equivalence(ops);
    }
}

#[test]
fn basic_ordering() {
    let mut q = Pair::new();
    q.push(SimTime::from_secs(3), 3);
    q.push(SimTime::from_secs(1), 1);
    q.push(SimTime::from_secs(2), 2);
    assert_eq!(q.pop_all(), vec![1, 2, 3]);
}

#[test]
fn fifo_on_equal_times() {
    // Off the lanes (heap only) and on one (500 appends at clock + Δ).
    for t in [SimTime::from_secs(10), at(DELTA)] {
        let mut q = Pair::new();
        for i in 0..500 {
            q.push(t, i);
        }
        assert_eq!(q.pop_all(), (0..500).collect::<Vec<_>>());
    }
}

#[test]
fn sub_tick_times_are_ordered_exactly() {
    let mut q = Pair::new();
    q.push(at(1_000_500), 1);
    q.push(at(1_000_100), 0);
    assert_eq!(q.pop_all(), vec![0, 1]);
}

#[test]
fn far_future_events_keep_their_place() {
    let mut q = Pair::new();
    let far = SimTime::from_secs(3 * 24 * 3600);
    q.push(far, 1);
    q.push(SimTime::MAX, 2);
    q.push(SimTime::from_secs(1), 0);
    assert_eq!(q.pop().unwrap().event, 0);
    assert_eq!(q.pop().unwrap().time, far);
    assert_eq!(q.pop().unwrap().time, SimTime::MAX);
    assert!(q.pop().is_none());
}

#[test]
fn same_time_insert_during_drain_preserves_order() {
    for t in [SimTime::from_secs(1), at(TRANSFER)] {
        let mut q = Pair::new();
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().event, 0);
        // Same instant as the event just popped: delay zero, no lane.
        q.push(t, 2);
        assert_eq!(q.pop_all(), vec![1, 2]);
    }
}

#[test]
fn out_of_key_order_pushes_within_an_instant_sort_exactly() {
    // Descending keys at one instant (the pattern a later-origin event
    // scheduling an earlier-origin deadline makes): off the lanes, and on
    // one, where each is inserted below the tail until the run is longer
    // than a lane reaches down and the rest fall back.
    for (t, on_lane) in [(at(2_000_100), false), (at(TRANSFER), true)] {
        let mut q = Pair::new();
        for i in (0..1_000u64).rev() {
            q.push_keyed(t, order_key((i / 7) as u32, i), i);
        }
        assert_eq!(q.in_lanes() > 0, on_lane);
        assert!(q.sched.fallback_len() > 0);
        assert_eq!(q.pop_all(), (0..1_000).collect::<Vec<_>>());
    }
}

#[test]
fn bounded_drain_respects_the_bound() {
    let mut q = Pair::new();
    q.push(SimTime::from_secs(5), 0);
    q.push(SimTime::from_secs(9), 1);
    assert!(q.drain_before(SimTime::from_secs(4)).is_empty());
    assert_eq!(
        q.drain_before(SimTime::from_secs(5)),
        vec![(SimTime::from_secs(5), 0, 0)]
    );
    assert_eq!(q.drain_before(SimTime::MAX).len(), 1);
    assert!(q.sched.is_empty());
}

#[test]
fn len_is_consistent() {
    let mut q = Pair::new();
    for i in 0..100u64 {
        // Every other event rides the Δ lane of the clock at zero.
        let t = if i % 2 == 0 { DELTA } else { i * 1_000_000 };
        q.push(at(t), i);
    }
    assert_eq!(q.sched.len(), 100);
    assert_eq!(q.in_lanes(), 50);
    for expect in (0..100).rev() {
        q.pop();
        assert_eq!(q.sched.len(), expect);
    }
    assert!(q.sched.is_empty());
}

#[test]
fn peek_time_does_not_disturb_order() {
    let mut q = Pair::new();
    q.push(SimTime::from_secs(5), 1);
    q.push(at(TRANSFER), 2);
    assert_eq!(q.sched.peek_time(), Some(at(TRANSFER)));
    assert_eq!(q.pop().unwrap().event, 2);
    assert_eq!(q.sched.peek_time(), Some(SimTime::from_secs(5)));
}

/// Thousands of events at a handful of instants around one lane deadline,
/// keys zig-zagging so sorted order differs wildly from insertion order,
/// with pops interleaved and pushes landing at the instant being popped.
#[test]
fn same_instant_burst_interleaved_push_pop_is_bit_identical() {
    let mut q = Pair::new();
    for i in 0..4_000u64 {
        let key = if i % 2 == 0 { i } else { 8_000 - i };
        q.push_keyed(at(TRANSFER + i % 3), order_key((i % 5) as u32, key), i);
    }
    let mut id = 4_000u64;
    for i in 0..4_000u64 {
        let popped = q.pop().unwrap();
        if i % 3 != 2 {
            // At the popped instant (above the popped key), just after
            // it, or one lane delay on.
            let offset = [0, i % 5, TRANSFER][(i % 3) as usize];
            let time = at(popped.time.as_micros() + offset);
            q.push_keyed(time, order_key(9, id), id);
            id += 1;
        }
    }
    q.pop_all();
}

#[test]
fn pathological_same_time_burst() {
    let mut q = Pair::new();
    for i in 0..10_000u64 {
        q.push(at(5_000_000), i);
    }
    assert_eq!(q.pop_all().len(), 10_000);
}

// ---- The cases lanes can get wrong.

#[test]
fn descending_keys_in_one_lane_with_a_fallback_entry_between_them() {
    let mut q = Pair::new();
    let t = at(DELTA);
    // Two lane entries at one instant, larger key first: the second is
    // placed by the backward scan.
    q.push_keyed(t, order_key(5, 0), 50);
    q.push_keyed(t, order_key(1, 0), 10);
    assert_eq!(q.in_lanes(), 2);
    // The same instant reached by another delay: pop something first so
    // the clock has moved and `t` is no longer one Δ away.
    q.push_keyed(at(10), order_key(0, 0), 0);
    assert_eq!(q.pop().unwrap().event, 0);
    q.push_keyed(t, order_key(3, 0), 30);
    assert_eq!(
        q.sched.fallback_len(),
        1,
        "keyed between the two, held by the heap"
    );
    assert_eq!(
        q.drain(),
        vec![
            (t, order_key(1, 0), 10),
            (t, order_key(3, 0), 30),
            (t, order_key(5, 0), 50),
        ]
    );
}

#[test]
fn a_lane_delay_below_the_lane_tail_is_not_appended() {
    // The scheduler's clock is the last time it handed out; a caller whose
    // own clock has moved on (an engine parked at a barrier) can make the
    // two disagree. Force the worst of it: hand out an earlier time after
    // a later one, so a push exactly Δ past the clock lies below the Δ
    // lane's tail — near it (placed in order) and far below it (heap).
    let mut q = Pair::new();
    q.push(at(5), 0);
    assert_eq!(q.pop().unwrap().event, 0);
    for i in 0..1_000 {
        q.push(at(5 + DELTA), 1 + i);
    }
    assert_eq!(q.in_lanes(), 1_000);
    q.push(at(3), 2_000);
    assert_eq!(q.pop().unwrap().event, 2_000);
    q.push(at(3 + DELTA), 2_001);
    assert_eq!(q.in_lanes(), 1_000, "far below the tail: the heap takes it");
    assert_eq!(q.pop().unwrap().event, 2_001);
    assert_eq!(q.pop().unwrap().event, 1);
    // Clock at 5 + Δ, tail at 5 + 2Δ; then a clock of 4 + Δ.
    q.push(at(5 + 2 * DELTA), 3_000);
    q.push(at(4 + DELTA), 3_001);
    while q.pop().unwrap().event != 3_001 {}
    q.push(at(4 + 2 * DELTA), 3_002);
    assert_eq!(
        q.sched.fallback_len(),
        0,
        "just below the tail: placed in order"
    );
    let rest = q.pop_all();
    assert_eq!(rest[rest.len() - 2..], [3_002, 3_000]);
}

#[test]
fn a_push_at_the_instant_just_drained_with_a_larger_key() {
    let mut q = Pair::new();
    let t = at(TRANSFER);
    q.push_keyed(t, order_key(1, 0), 1);
    q.push_keyed(t, order_key(2, 0), 2);
    q.push_keyed(at(2 * TRANSFER), order_key(0, 7), 9);
    assert_eq!(q.drain().len(), 2);
    q.push_keyed(t, order_key(3, 0), 3);
    assert_eq!(q.drain(), vec![(t, order_key(3, 0), 3)]);
    assert_eq!(q.pop_all(), vec![9]);
}

#[test]
fn a_synchronized_wave_leaves_as_one_sorted_batch() {
    // n nodes tick in lockstep: n same-time pushes in ascending key order,
    // all on the Δ lane, out in one drain; each tick schedules the next.
    let n = 1_000u64;
    let mut q = Pair::new();
    for round in 1..=5u64 {
        if round == 1 {
            for node in 0..n {
                q.push_keyed(at(DELTA), order_key(node as u32, 0), node);
            }
        }
        assert_eq!(q.in_lanes(), n as usize);
        let wave = q.drain();
        assert_eq!(wave.len(), n as usize);
        assert!(wave.iter().all(|&(t, ..)| t == at(round * DELTA)));
        for node in 0..n {
            q.push_keyed(at((round + 1) * DELTA), order_key(node as u32, round), node);
        }
    }
}

#[test]
fn a_schedule_in_which_no_delay_repeats() {
    let mut q = Pair::new();
    let mut now = 0u64;
    for i in 0..2_000u64 {
        // Strictly growing offsets, never a lane delay.
        q.push(at(now + 7 + 3 * i), i);
        if i % 2 == 1 {
            now = q.pop().unwrap().time.as_micros();
        }
    }
    assert_eq!(q.in_lanes(), 0);
    q.pop_all();
}

#[test]
fn a_bounded_drain_whose_bound_lies_below_every_lane_head() {
    let mut q = Pair::new();
    q.push(at(TRANSFER), 0);
    q.push(at(DELTA), 1);
    assert_eq!(q.in_lanes(), 2);
    assert!(q.drain_before(at(TRANSFER - 1)).is_empty());
    assert_eq!(q.sched.len(), 2, "nothing was taken");
    // With a heap entry below the bound, only that leaves.
    q.push(at(100), 2);
    assert_eq!(q.drain_before(at(TRANSFER - 1)), vec![(at(100), 2, 2)]);
    assert_eq!(q.drain_before(at(TRANSFER)), vec![(at(TRANSFER), 0, 0)]);
    assert_eq!(q.pop_all(), vec![1]);
}

#[test]
fn lanes_follow_the_configured_delays() {
    let mut q = LaneScheduler::with_delays([SimDuration::from_secs(10), SimDuration::from_secs(1)]);
    q.push(SimTime::from_secs(10), 'd');
    q.push(SimTime::from_secs(1), 't');
    q.push(at(DELTA), 'x');
    assert_eq!(q.fallback_len(), 1);
    let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
    assert_eq!(order, vec!['t', 'd', 'x']);
}
