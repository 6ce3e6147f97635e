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
//! Two implementations are provided behind the [`EventQueue`] trait:
//!
//! * [`BinaryHeapQueue`] — `O(log n)` push/pop on `std`'s binary heap; the
//!   robust default.
//! * [`crate::wheel::TimingWheel`] — a hierarchical timing wheel with `O(1)`
//!   amortized push; faster when millions of timers share a few fixed
//!   periods, as in our round-based protocols (see the `event_queue` bench).
//!
//! Both produce exactly the same pop order; a property test in this module's
//! test suite and in `crates/sim/tests` verifies the equivalence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
/// keeps its capacity across drains (and the timing wheel *swaps* its
/// internal ready run with this buffer on the dense path), so steady-state
/// batch draining performs no allocation.
#[derive(Debug)]
pub struct ReadyBatch<E> {
    /// Ascending `(time, seq)`; all entries share `time`. `pub(crate)` so
    /// in-crate queue implementations can swap whole buffers in.
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
    /// entries arrive in ascending `seq` at one shared `time`. The
    /// per-event fill paths (the trait's pop-loop default, the wheel's
    /// fallback and merge paths) go through this; the wheel's dense fast
    /// path swaps a whole pre-sorted buffer in instead.
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
/// This trait is sealed in spirit: it exists so the engine can switch
/// between queue implementations, not as a public extension point, but it is
/// left open so downstream experiments can plug in custom schedulers.
pub trait EventQueue<E> {
    /// Inserts an event; `seq` numbers are assigned internally in call order.
    fn push(&mut self, time: SimTime, event: E);

    /// Inserts an event with a caller-assigned tie-breaking key (see
    /// [`order_key`]). Keys must be unique per queue; events may be pushed
    /// in any key order, but never with a `(time, key)` at or below the
    /// entry most recently popped.
    fn push_keyed(&mut self, time: SimTime, key: u64, event: E);

    /// Inserts a run of events sharing one deadline (a reactive burst, a
    /// same-slot batch). Equivalent to `push_keyed` in a loop; queue
    /// implementations may override it to amortize per-push placement work
    /// (the timing wheel classifies the target slot once per run).
    fn push_keyed_run<I>(&mut self, time: SimTime, run: I)
    where
        I: Iterator<Item = (u64, E)>,
        Self: Sized,
    {
        for (key, event) in run {
            self.push_keyed(time, key, event);
        }
    }

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Scheduled<E>>;

    /// Moves the entire earliest **same-time run** — every pending event
    /// sharing the minimal `time` — into `into`, in ascending `seq` order:
    /// exactly what repeated [`pop`](Self::pop) calls would return, as one
    /// contiguous recycled buffer. `into` must be empty.
    ///
    /// The default implementation is the pop loop; implementations with an
    /// internal contiguous ready run (the timing wheel) override it with a
    /// buffer swap. After a drain, pushing at the drained instant is
    /// allowed only above the batch's last key (the batch counts as
    /// popped).
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
    /// Takes `&mut self` so implementations may reorganize internal storage
    /// (the timing wheel advances its cursor to locate the minimum); the
    /// observable queue contents are unchanged.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Minimum same-deadline run length worth routing through
/// [`EventQueue::push_keyed_run`] instead of per-event pushes (below this,
/// the run bookkeeping costs more than the saved placement work).
pub(crate) const RUN_BATCH_MIN: usize = 3;

/// Drains a pending-event buffer into `queue`, handing runs of events that
/// share one deadline (reactive bursts — every send in a burst lands
/// exactly `transfer_time` later) to [`EventQueue::push_keyed_run`] so the
/// wheel classifies the slot once per run.
///
/// The run-detection threshold is part of the byte-identical-results
/// contract: every shard count must push through identical queue entry
/// points.
pub(crate) fn flush_run_batched<E, Q: EventQueue<E>>(
    pending: &mut Vec<(SimTime, u64, E)>,
    run_buf: &mut Vec<(u64, E)>,
    queue: &mut Q,
) {
    if pending.len() < RUN_BATCH_MIN {
        for (time, key, ev) in pending.drain(..) {
            queue.push_keyed(time, key, ev);
        }
        return;
    }
    let mut drain = pending.drain(..).peekable();
    while let Some((time, key, ev)) = drain.next() {
        match drain.peek() {
            Some(&(t2, ..)) if t2 == time => {
                run_buf.push((key, ev));
                while let Some(&(t2, ..)) = drain.peek() {
                    if t2 != time {
                        break;
                    }
                    let (_, k2, e2) = drain.next().expect("peeked entry exists");
                    run_buf.push((k2, e2));
                }
                if run_buf.len() >= RUN_BATCH_MIN {
                    queue.push_keyed_run(time, run_buf.drain(..));
                } else {
                    for (k, e) in run_buf.drain(..) {
                        queue.push_keyed(time, k, e);
                    }
                }
            }
            _ => queue.push_keyed(time, key, ev),
        }
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

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn keyed_run_matches_individual_pushes() {
        let t = SimTime::from_secs(3);
        let entries: Vec<(u64, u32)> = (0..50).map(|i| (order_key(7, 99 - i), i as u32)).collect();
        let mut a = BinaryHeapQueue::new();
        for &(k, e) in &entries {
            a.push_keyed(t, k, e);
        }
        let mut b = BinaryHeapQueue::new();
        b.push_keyed_run(t, entries.iter().copied());
        loop {
            match (a.pop(), b.pop()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn order_key_sorts_by_origin_then_counter() {
        assert!(order_key(0, 5) < order_key(1, 0));
        assert!(order_key(3, 1) < order_key(3, 2));
        assert!(order_key(10, u32::MAX as u64) < order_key(GLOBAL_ORIGIN, 0));
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
