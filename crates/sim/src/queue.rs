//! Pending-event set implementations.
//!
//! The simulator needs a priority queue over `(time, seq)` pairs where `seq`
//! is a tie-breaking key: two events scheduled for the same instant fire in
//! increasing key order. The engine assigns keys with [`order_key`] — a
//! *shard-invariant* `(origin node, per-origin counter)` pair packed into a
//! `u64` — so that the same total event order is reproduced by every shard
//! of [`crate::shard::ShardedSimulation`], for every shard count, without
//! global coordination.
//! Callers that do not care about cross-partition reproducibility can use
//! [`EventQueue::push`], which assigns keys in FIFO call order from an
//! internal counter (do not mix the two disciplines in one queue: key
//! uniqueness is the caller's responsibility under `push_keyed`).
//!
//! Two implementations sit behind the [`EventQueue`] trait:
//!
//! * [`LaneScheduler`] — the queue every engine runs. Algorithm 4 schedules
//!   with two fixed delays (a round Δ after each tick, a delivery one
//!   transfer time after each send), so events pushed exactly that far past
//!   the scheduler's clock are appended to one FIFO lane per delay, in
//!   `O(1)`; cross-block deliveries are merged into the transfer lane a
//!   sorted run at a time ([`LaneScheduler::merge_run`]); everything else
//!   goes to a binary heap. Pops merge the lane heads with the heap.
//! * [`BinaryHeapQueue`] — `O(log n)` push/pop on `std`'s binary heap: the
//!   scheduler's fallback, and the ordering oracle of the tests.
//!
//! Both produce exactly the same pop order, whichever side of the scheduler
//! an event lands on; the tests of this module and the property tests in
//! `crates/sim/tests/queue_equivalence.rs` hold the scheduler to the heap
//! through every trait entry point.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::paper;
use crate::time::{SimDuration, SimTime};

/// The origin id of engine-global events (sampling/injection trains and
/// global timers): they sort after every node-originated event at the same
/// instant, which is what lets the sharded engine run them at barriers.
pub const GLOBAL_ORIGIN: u32 = u32::MAX;

/// Packs an event origin and its per-origin schedule counter into a
/// tie-breaking key: ties in time fire in increasing `(origin, counter)`
/// order. Counters are per-origin and strictly increasing, so keys are
/// unique and — crucially — computable by whichever shard owns the origin,
/// without any global sequencing.
///
/// # Panics
///
/// Panics if `counter` exceeds `u32::MAX`: an overflow would bleed into
/// the origin bits and silently corrupt the tie order (and key
/// uniqueness), so it is a hard error even in release builds. One origin
/// scheduling more than 2^32 events is ~10^5 years of simulated time at
/// one event per paper-default transfer slot.
#[inline]
pub const fn order_key(origin: u32, counter: u64) -> u64 {
    assert!(counter <= u32::MAX as u64, "per-origin counter overflow");
    ((origin as u64) << 32) | counter
}

/// A recycled contiguous buffer of same-time ready events, filled by
/// [`EventQueue::drain_ready`].
///
/// Entries share one `time` and are ordered by ascending `seq` — exactly
/// the order repeated [`EventQueue::pop`] calls would produce. The buffer
/// keeps its capacity across drains, so steady-state batch draining
/// performs no allocation.
#[derive(Debug)]
pub struct ReadyBatch<E> {
    /// Ascending `(time, seq)`; all entries share `time`. `pub(crate)` so
    /// the engine can take the buffer while it dispatches from it.
    pub(crate) entries: Vec<(SimTime, u64, E)>,
}

impl<E> ReadyBatch<E> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        ReadyBatch {
            entries: Vec::new(),
        }
    }

    /// Number of events in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The shared instant of the batch, or `None` when empty.
    #[inline]
    pub fn time(&self) -> Option<SimTime> {
        self.entries.first().map(|&(t, ..)| t)
    }

    /// Appends one entry, asserting the batch invariant in debug builds:
    /// entries arrive in ascending `seq` at one shared `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(self
            .entries
            .last()
            .is_none_or(|&(t, s, _)| { t == time && s < seq }));
        self.entries.push((time, seq, event));
    }

    /// Removes and returns every entry in order, keeping the capacity.
    #[inline]
    pub fn drain(&mut self) -> std::vec::Drain<'_, (SimTime, u64, E)> {
        self.entries.drain(..)
    }

    /// Drops all entries, keeping the capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<E> Default for ReadyBatch<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// An event with its scheduled time and tie-breaking key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// Tie-breaking key; ties in `time` fire in increasing `seq`. The
    /// engine packs `(origin, counter)` pairs here via [`order_key`];
    /// [`EventQueue::push`] assigns FIFO values from an internal counter.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    /// The `(time, seq)` key this entry sorts by.
    #[inline]
    pub fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A pending-event set ordered by `(time, seq)`.
///
/// The engine runs [`LaneScheduler`] and nothing else; the trait exists so
/// tests and benches drive the scheduler and its [`BinaryHeapQueue`] oracle
/// through the same entry points.
pub trait EventQueue<E> {
    /// Inserts an event; `seq` numbers are assigned internally in call order.
    fn push(&mut self, time: SimTime, event: E);

    /// Inserts an event with a caller-assigned tie-breaking key (see
    /// [`order_key`]). Keys must be unique per queue; events may be pushed
    /// in any key order, but never with a `(time, key)` at or below the
    /// entry most recently popped.
    fn push_keyed(&mut self, time: SimTime, key: u64, event: E);

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Scheduled<E>>;

    /// Moves the entire earliest **same-time run** — every pending event
    /// sharing the minimal `time` — into `into`, in ascending `seq` order:
    /// exactly what repeated [`pop`](Self::pop) calls would return, as one
    /// contiguous recycled buffer. `into` must be empty.
    ///
    /// After a drain, pushing at the drained instant is allowed only above
    /// the batch's last key (the batch counts as popped).
    fn drain_ready(&mut self, into: &mut ReadyBatch<E>) {
        self.drain_ready_before(SimTime::MAX, into);
    }

    /// Bounded [`drain_ready`](Self::drain_ready): drains the earliest
    /// same-time run only if its time is `<= bound` (one queue traversal
    /// decides both the bound check and the drain — no peek-then-pop
    /// double scan). Leaves `into` empty when the queue is empty or the
    /// earliest event lies beyond `bound`.
    fn drain_ready_before(&mut self, bound: SimTime, into: &mut ReadyBatch<E>) {
        debug_assert!(into.is_empty(), "drain_ready into a non-empty batch");
        let Some(t) = self.peek_time() else {
            return;
        };
        if t > bound {
            return;
        }
        loop {
            let s = self.pop().expect("peek promised an event");
            into.push(s.time, s.seq, s.event);
            match self.peek_time() {
                Some(t2) if t2 == t => {}
                _ => break,
            }
        }
    }

    /// The time of the earliest event without removing it.
    ///
    /// Takes `&mut self` so implementations may reorganize internal
    /// storage; the observable queue contents are unchanged.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Max-heap entry inverted into a min-heap by reversing the comparison.
#[derive(Debug)]
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the BinaryHeap is a max-heap, we want the earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Binary-heap implementation of [`EventQueue`].
///
/// ```
/// use ta_sim::queue::{BinaryHeapQueue, EventQueue};
/// use ta_sim::time::SimTime;
///
/// let mut q = BinaryHeapQueue::new();
/// q.push(SimTime::from_secs(5), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// ```
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// The `(time, seq)` of the earliest event without removing it.
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        self.heap.push(HeapEntry {
            time,
            seq: key,
            event,
        });
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| Scheduled {
            time: e.time,
            seq: e.seq,
            event: e.event,
        })
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Fixed delays the scheduler keeps a lane for: Δ and the transfer time.
const LANES: usize = 2;

/// Index of the fallback heap among the merge sources (the lanes are
/// `0..LANES`).
const FALLBACK: usize = LANES;

/// Index of the transfer-time lane (the second delay of
/// [`LaneScheduler::with_delays`]), which takes merged runs.
const TRANSFER_LANE: usize = 1;

/// How far below its tail a lane takes an out-of-order push. Same-instant
/// pushes arrive in arbitrary key order, and a reactive burst makes runs of
/// a few hundred; bounding the reach bounds the elements one insertion
/// moves, so a run of any length (synchronized ticks on a large network)
/// costs at worst the heap's price per event instead of an insertion sort.
const LANE_REACH: usize = 256;

/// One FIFO lane: the events pushed exactly `delay` past the scheduler's
/// clock, in ascending `(time, key)`.
#[derive(Debug)]
struct Lane<E> {
    delay: u64,
    events: VecDeque<(SimTime, u64, E)>,
}

impl<E> Lane<E> {
    #[inline]
    fn head(&self) -> Option<(SimTime, u64)> {
        self.events.front().map(|&(t, k, _)| (t, k))
    }

    /// Places the entry where the lane stays sorted: at the tail, or by
    /// binary search among the [`LANE_REACH`] entries before it. Gives the
    /// event back when it belongs further down.
    #[inline]
    fn try_push(&mut self, time: SimTime, key: u64, event: E) -> Result<(), E> {
        let below = |&(t, k, _): &(SimTime, u64, E)| (t, k) < (time, key);
        if self.events.back().is_none_or(below) {
            self.events.push_back((time, key, event));
            return Ok(());
        }
        let len = self.events.len();
        let floor = len.saturating_sub(LANE_REACH);
        if floor > 0 && !below(&self.events[floor - 1]) {
            return Err(event);
        }
        // First entry of `floor..len` above the new one (the tail is).
        let (mut lo, mut hi) = (floor, len - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(&self.events[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.events.insert(lo, (time, key, event));
        Ok(())
    }
}

/// The engine's scheduler: one FIFO lane per fixed delay in front of a
/// [`BinaryHeapQueue`].
///
/// The scheduler's clock is the time of the last event it handed out, which
/// is the engine's `now` whenever the engine schedules from a callback. A
/// push whose time lies exactly one lane delay past the clock is appended to
/// that lane; the clock never runs backwards, so such pushes arrive in time
/// order and the lane stays sorted by construction. Mailbox deposits — the
/// deliveries another block sent, a window late — arrive as whole runs:
/// [`merge_run`](Self::merge_run) sorts each and merges it into the
/// transfer lane, which stays sorted whatever the run's times. Everything
/// else — first tick phases, churn transitions, timers, and any push made
/// while the clock lags the caller's (after a barrier) — goes to the heap,
/// as does a lane push that belongs far below the lane's tail.
/// [`pop`](EventQueue::pop), [`peek_time`](EventQueue::peek_time) and
/// [`drain_ready_before`](EventQueue::drain_ready_before) take the minimum
/// over the lane heads and the heap, so the `(time, key)` order handed out
/// never depends on which side an event went to.
///
/// ```
/// use ta_sim::queue::{EventQueue, LaneScheduler};
/// use ta_sim::time::SimTime;
///
/// let mut q = LaneScheduler::new();
/// q.push(SimTime::from_secs(100), "b");
/// q.push(SimTime::from_secs(1), "a");
/// assert_eq!(q.pop().unwrap().event, "a");
/// assert_eq!(q.pop().unwrap().event, "b");
/// ```
#[derive(Debug)]
pub struct LaneScheduler<E> {
    lanes: [Lane<E>; LANES],
    fallback: BinaryHeapQueue<E>,
    clock: SimTime,
    next_seq: u64,
    /// The transfer lane's tail above a merged run's first entry, parked
    /// while [`merge_run`](Self::merge_run) interleaves the two (capacity
    /// kept across merges).
    spill: Vec<(SimTime, u64, E)>,
}

impl<E> LaneScheduler<E> {
    /// Creates a scheduler with lanes for the paper's Δ and transfer time.
    pub fn new() -> Self {
        Self::with_delays([paper::DELTA, paper::TRANSFER_TIME])
    }

    /// Creates a scheduler with one lane per given delay (the engine passes
    /// its configuration's Δ and transfer time).
    pub fn with_delays(delays: [SimDuration; LANES]) -> Self {
        LaneScheduler {
            lanes: delays.map(|d| Lane {
                delay: d.as_micros(),
                events: VecDeque::new(),
            }),
            fallback: BinaryHeapQueue::new(),
            clock: SimTime::ZERO,
            next_seq: 0,
            spill: Vec::new(),
        }
    }

    /// Number of pending events held by the fallback heap rather than a
    /// lane (the engine's profile derives the lane share from it).
    #[inline]
    pub fn fallback_len(&self) -> usize {
        self.fallback.len()
    }

    /// The entry `k` places behind the head of each lane (`k = 0` is the
    /// head), or `None` where a lane is shorter: the events the engine will
    /// reach soon, whose state it can start loading now. Heap entries are
    /// not reachable this way.
    #[inline]
    pub fn lookahead(&self, k: usize) -> [Option<&(SimTime, u64, E)>; LANES] {
        std::array::from_fn(|i| self.lanes[i].events.get(k))
    }

    /// Sorts `run` by `(time, key)` and merges it into the transfer lane,
    /// leaving `run` empty (its capacity, like the lane's, is kept).
    ///
    /// Every entry must lie above the entry most recently handed out (the
    /// [`push_keyed`](EventQueue::push_keyed) contract); keys must be
    /// unique. The entries need not lie one transfer time past the clock:
    /// the lane is merged, not appended to, so it stays sorted — a mail run
    /// deposited a window early simply lands further down. Moves the lane's
    /// entries above the run's first one twice and the rest not at all.
    pub fn merge_run(&mut self, run: &mut Vec<(SimTime, u64, E)>) {
        run.sort_unstable_by_key(|&(t, k, _)| (t, k));
        let Some(&(t0, k0, _)) = run.first() else {
            return;
        };
        debug_assert!(t0 >= self.clock, "merged run below the clock");
        let lane = &mut self.lanes[TRANSFER_LANE].events;
        let at = lane.partition_point(|&(t, k, _)| (t, k) < (t0, k0));
        self.spill.extend(lane.drain(at..));
        let mut spill = self.spill.drain(..).peekable();
        for entry in run.drain(..) {
            while let Some(below) = spill.next_if(|s| (s.0, s.1) < (entry.0, entry.1)) {
                lane.push_back(below);
            }
            lane.push_back(entry);
        }
        lane.extend(spill);
    }

    /// The merge source holding the earliest pending event, with its key.
    #[inline]
    fn earliest(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best = self.fallback.peek_key().map(|k| (FALLBACK, k));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(k) = lane.head() {
                if best.is_none_or(|(_, b)| k < b) {
                    best = Some((i, k));
                }
            }
        }
        best
    }

    /// Removes the head of source `src`, which [`earliest`](Self::earliest)
    /// just named.
    #[inline]
    fn take(&mut self, src: usize) -> (SimTime, u64, E) {
        let head = if src == FALLBACK {
            self.fallback.pop().map(|s| (s.time, s.seq, s.event))
        } else {
            self.lanes[src].events.pop_front()
        };
        head.expect("earliest() named a non-empty source")
    }
}

impl<E> Default for LaneScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for LaneScheduler<E> {
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, event);
    }

    #[inline]
    fn push_keyed(&mut self, time: SimTime, key: u64, mut event: E) {
        // A time below the clock wraps to a delay no lane has.
        let delay = time.as_micros().wrapping_sub(self.clock.as_micros());
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.delay == delay) {
            match lane.try_push(time, key, event) {
                Ok(()) => return,
                Err(back) => event = back,
            }
        }
        self.fallback.push_keyed(time, key, event);
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let (src, _) = self.earliest()?;
        let (time, seq, event) = self.take(src);
        self.clock = time;
        Some(Scheduled { time, seq, event })
    }

    /// The trait's pop loop with one merge step per event instead of two
    /// (its `pop` and its `peek_time` would each look for the minimum).
    fn drain_ready_before(&mut self, bound: SimTime, into: &mut ReadyBatch<E>) {
        debug_assert!(into.is_empty(), "drain_ready into a non-empty batch");
        let Some((mut src, (t, _))) = self.earliest() else {
            return;
        };
        if t > bound {
            return;
        }
        self.clock = t;
        loop {
            let (time, seq, event) = self.take(src);
            into.push(time, seq, event);
            match self.earliest() {
                Some((next, (t2, _))) if t2 == t => src = next,
                _ => break,
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.earliest().map(|(_, (t, _))| t)
    }

    fn len(&self) -> usize {
        self.fallback.len() + self.lanes.iter().map(|l| l.events.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = BinaryHeapQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = BinaryHeapQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = BinaryHeapQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(9), ());
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        let popped = q.pop().unwrap();
        assert_eq!(popped.time, SimTime::from_secs(4));
    }

    #[test]
    fn len_tracks_content() {
        let mut q = BinaryHeapQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn keyed_pushes_order_by_key_not_insertion() {
        let mut q = BinaryHeapQueue::new();
        let t = SimTime::from_secs(1);
        q.push_keyed(t, order_key(9, 0), 'b');
        q.push_keyed(t, order_key(2, 5), 'a');
        q.push_keyed(SimTime::from_secs(2), order_key(0, 0), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn order_key_sorts_by_origin_then_counter() {
        assert!(order_key(0, 5) < order_key(1, 0));
        assert!(order_key(3, 1) < order_key(3, 2));
        assert!(order_key(10, u32::MAX as u64) < order_key(GLOBAL_ORIGIN, 0));
    }

    const TRANSFER: u64 = 1_728_000;

    fn at(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    /// Every lane sorted strictly by `(time, key)`, and `lookahead(k)`
    /// naming exactly each lane's `k`-th entry, one past the end included.
    fn check_lanes(q: &LaneScheduler<u64>) {
        for lane in &q.lanes {
            assert!(lane
                .events
                .iter()
                .zip(lane.events.iter().skip(1))
                .all(|(a, b)| (a.0, a.1) < (b.0, b.1)));
        }
        // Each lane walked front to back, independently of `get`.
        let walked: Vec<Vec<_>> = q.lanes.iter().map(|l| l.events.iter().collect()).collect();
        let longest = walked.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..=longest {
            for (i, seen) in q.lookahead(k).into_iter().enumerate() {
                assert_eq!(seen, walked[i].get(k).copied(), "lane {i}, k = {k}");
            }
        }
    }

    /// The scheduler beside the heap oracle, mail pushed into the heap one
    /// entry at a time and merged into the scheduler a run at a time.
    struct MergePair {
        heap: BinaryHeapQueue<u64>,
        sched: LaneScheduler<u64>,
        run: Vec<(SimTime, u64, u64)>,
        now: u64,
        id: u64,
    }

    impl MergePair {
        fn new() -> Self {
            MergePair {
                heap: BinaryHeapQueue::new(),
                sched: LaneScheduler::new(),
                run: Vec::new(),
                now: 0,
                id: 0,
            }
        }

        /// A key unique in the pair, from `origin`: keys arrive out of
        /// order whenever origins do.
        fn key(&mut self, origin: u32) -> (u64, u64) {
            self.id += 1;
            (order_key(origin, self.id), self.id)
        }

        /// A local push `offset` µs after the clock (the transfer time
        /// lands in its lane).
        fn push(&mut self, offset: u64, origin: u32) {
            let (key, id) = self.key(origin);
            let t = at(self.now + offset);
            self.heap.push_keyed(t, key, id);
            self.sched.push_keyed(t, key, id);
        }

        /// One mailbox run, in the given (any) order, `offsets` µs after
        /// the clock.
        fn merge(&mut self, mail: &[(u64, u32)]) {
            for &(offset, origin) in mail {
                let (key, id) = self.key(origin);
                let t = at(self.now + offset);
                self.heap.push_keyed(t, key, id);
                self.run.push((t, key, id));
            }
            let pushed = self.sched.len() + self.run.len();
            self.sched.merge_run(&mut self.run);
            assert!(self.run.is_empty());
            assert_eq!(self.sched.len(), pushed);
            assert_eq!(self.sched.len(), self.heap.len());
            check_lanes(&self.sched);
        }

        /// Pops `count` from both, which must agree.
        fn pop(&mut self, count: usize) {
            for _ in 0..count {
                let (a, b) = (self.heap.pop(), self.sched.pop());
                assert_eq!(a, b, "pop diverged");
                let Some(s) = a else { break };
                self.now = s.time.as_micros();
            }
            check_lanes(&self.sched);
        }

        fn pop_all(&mut self) {
            self.pop(usize::MAX);
            assert!(self.sched.is_empty() && self.heap.is_empty());
        }
    }

    #[derive(Debug, Clone)]
    enum MergeOp {
        /// Local push `(offset, origin)`.
        Push(u64, u32),
        /// A mailbox run of `(offset, origin)`, unsorted.
        Merge(Vec<(u64, u32)>),
        Pop(usize),
    }

    /// Offsets of mail: due within the next window, exactly one transfer
    /// time out, or beyond the next window (an early peer's deposit).
    fn mail_offset() -> impl Strategy<Value = u64> {
        prop_oneof![
            3 => 1..TRANSFER,
            1 => Just(TRANSFER),
            2 => TRANSFER..3 * TRANSFER,
        ]
    }

    fn merge_op() -> impl Strategy<Value = MergeOp> {
        prop_oneof![
            4 => (prop_oneof![Just(TRANSFER), 1..3 * TRANSFER], 0u32..8)
                .prop_map(|(o, origin)| MergeOp::Push(o, origin)),
            2 => proptest::collection::vec((mail_offset(), 0u32..8), 0..40).prop_map(MergeOp::Merge),
            2 => (1usize..30).prop_map(MergeOp::Pop),
        ]
    }

    proptest! {
        #[test]
        fn merged_runs_pop_like_the_heap(ops in proptest::collection::vec(merge_op(), 1..60)) {
            let mut pair = MergePair::new();
            for op in ops {
                match op {
                    MergeOp::Push(offset, origin) => pair.push(offset, origin),
                    MergeOp::Merge(mail) => pair.merge(&mail),
                    MergeOp::Pop(count) => pair.pop(count),
                }
            }
            pair.pop_all();
        }
    }

    #[test]
    fn a_run_merges_into_an_empty_lane() {
        let mut pair = MergePair::new();
        pair.merge(&[(30, 2), (10, 1), (20, 0), (10, 0)]);
        assert_eq!(pair.sched.lanes[TRANSFER_LANE].events.len(), 4);
        assert_eq!(pair.sched.fallback_len(), 0);
        pair.pop_all();
    }

    #[test]
    fn a_run_interleaves_with_later_local_pushes() {
        // Local deliveries one transfer time out, then mail due both
        // before, between and after them, and beyond the next window.
        let mut pair = MergePair::new();
        for origin in [5, 1, 3] {
            pair.push(TRANSFER, origin);
        }
        pair.push(TRANSFER + 50, 0);
        pair.merge(&[
            (3 * TRANSFER, 0),
            (TRANSFER, 4),
            (TRANSFER + 10, 9),
            (1, 7),
            (TRANSFER, 0),
        ]);
        // The push 50 µs past a transfer time went to the heap.
        assert_eq!(pair.sched.lanes[TRANSFER_LANE].events.len(), 8);
        pair.pop(3);
        // The clock moved: a later run lands below entries already queued.
        pair.merge(&[(TRANSFER / 2, 1), (2 * TRANSFER, 2)]);
        pair.pop_all();
    }

    #[test]
    fn runs_merge_in_any_order() {
        let mut pair = MergePair::new();
        pair.merge(&[(2 * TRANSFER, 3), (2 * TRANSFER + 1, 0)]);
        pair.merge(&[(TRANSFER, 1), (5, 2)]);
        pair.merge(&[]);
        pair.merge(&[(2 * TRANSFER, 1)]);
        pair.pop_all();
    }

    #[test]
    fn lookahead_names_the_kth_entry_of_each_lane() {
        // Pushes exactly one delay past the clock, in FIFO key order.
        let mut q = LaneScheduler::new();
        for i in 0..40u64 {
            q.push(at(paper::DELTA.as_micros()), i);
        }
        for i in 0..20u64 {
            q.push(at(TRANSFER), 100 + i);
        }
        for k in 0..45 {
            let [delta, transfer] = q.lookahead(k);
            assert_eq!(delta.map(|e| e.2), (k < 40).then_some(k as u64));
            assert_eq!(transfer.map(|e| e.2), (k < 20).then_some(100 + k as u64));
        }
        check_lanes(&q);
        // Heap entries are out of its reach.
        q.push(at(7), 999);
        assert_eq!(q.lookahead(0).map(|e| e.map(|e| e.2)), [Some(0), Some(100)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_fifo_on_ties() {
        let mut q = BinaryHeapQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().event, 0);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
    }
}
