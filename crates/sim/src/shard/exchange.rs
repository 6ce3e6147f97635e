//! The per-window gate and mailbox exchange of the barrier-free pipeline.
//!
//! One [`SegCtl`] is shared by the coordinator and every worker for the
//! whole run. During a *segment* (a run of consecutive full windows with
//! no engine-global event inside), all synchronization happens here:
//!
//! * workers claim whole shard-window drains by **home lane**
//!   ([`next_claim`]): shard `s` belongs to worker `s % workers`, and a
//!   worker drains its own lane first, in ascending order. A shard
//!   migrates to a foreign worker under one condition only — the thief's
//!   lane is exhausted *and* the shard's home worker is at that moment
//!   busy draining an earlier shard of the same window (tail-balancing
//!   for `S > T`). With `S == T` every lane holds one shard, so each
//!   shard stays on one thread for the whole run and its wheel, buffers
//!   and per-node arrays stay resident in that core's L2 instead of
//!   ping-ponging between caches every window;
//! * finished shards deposit cross-shard mail into per-destination
//!   [`SegCtl::mailboxes`] and publish their queue/mail minima;
//! * the **last finisher** of a window advances the pipeline under the
//!   gate mutex — including the empty-window skip — and wakes the others
//!   ([`SegCtl::wake`]). No coordinator hop, no full-stop barrier: the
//!   only wait is the true data dependency (window `k + 1` needs every
//!   shard's window-`k` mail), and because a shard-window is short
//!   (~100 µs) waiters spin on the gate epoch for a small budget before
//!   parking on the condvar ([`SegCtl::wait`]).
//!
//! Early mailbox deposits are harmless by construction: every deposited
//! message is keyed and due at or after the next window bound, so whether
//! a destination drains it this window or next, it sits in the queue until
//! its due time and pops in identical key order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::engine::OutMsg;
use crate::time::{SimDuration, SimTime};

/// Why a segment stopped, computed by the last finisher and read by the
/// coordinator once every worker has reported done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SegOutcome {
    /// No event (shard queue, mailbox, or pending global) remains at or
    /// before the horizon: the run is complete.
    RunDone,
    /// The next window needs the coordinator (an engine-global event falls
    /// inside it, or it crosses the horizon): resume from this start.
    Continue {
        /// Window start the coordinator resumes from.
        next_start: SimTime,
    },
}

/// Work-distribution totals accumulated by the gate across a whole run
/// (never reset by [`SegCtl::arm`]). Counted unconditionally — each is
/// one add under a lock the claim/advance path already holds — and
/// surfaced through `ShardedSimulation::profile` and the `shard_sync`
/// bench rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct GateStats {
    /// Shard-window claims handed out to segment participants.
    pub(super) claims: u64,
    /// Claims of a shard outside the claimer's home lane (claimer ≠
    /// `shard % workers`): the shard migrated to another thread for that
    /// window. Always zero for `S == T` and for the inline coordinator.
    pub(super) steals: u64,
    /// Windows skipped by the empty-window fast-forward.
    pub(super) skipped: u64,
}

/// Gate state of the window currently in flight (everything the last
/// finisher needs to advance the pipeline).
#[derive(Debug)]
pub(super) struct WinMeta {
    /// Run-lifetime work-distribution totals (see [`GateStats`]).
    pub(super) stats: GateStats,
    /// Start of the window being claimed/processed.
    pub(super) window_start: SimTime,
    /// `lane_next[h]` is the next unclaimed shard of worker `h`'s home
    /// lane `{h, h + T, h + 2T, …}` for the current window (`>= shards`
    /// once the lane is exhausted). Claims hand out whole shard-window
    /// drains, so each runs on exactly one worker and the
    /// `(origin, counter)` key order is untouched by who drained it.
    pub(super) lane_next: Vec<usize>,
    /// Shards finished with the current window.
    pub(super) finished: usize,
    /// Minimum queue event time published by finished shards.
    pub(super) queue_min: Option<SimTime>,
    /// Minimum due time of cross-shard mail deposited this window (mail
    /// lives in mailboxes, not queues, so the skip must see it here).
    pub(super) mail_min: Option<SimTime>,
    /// The segment (or part-run) is over; claims must stop.
    pub(super) over: bool,
    /// Set together with `over` at the end of a segment.
    pub(super) outcome: Option<SegOutcome>,
}

impl WinMeta {
    fn new(workers: usize) -> Self {
        WinMeta {
            stats: GateStats::default(),
            window_start: SimTime::ZERO,
            lane_next: (0..workers).collect(),
            finished: 0,
            queue_min: None,
            mail_min: None,
            over: true,
            outcome: None,
        }
    }

    /// Reopens every home lane at its first shard (a new window).
    fn reset_lanes(&mut self) {
        for (h, next) in self.lane_next.iter_mut().enumerate() {
            *next = h;
        }
    }
}

/// Shared control block of one sharded run: per-destination mailboxes plus
/// the window gate. Reset by the quiescent coordinator between dispatches.
pub(super) struct SegCtl<M> {
    /// `mailboxes[s]` holds cross-shard mail addressed to shard `s`,
    /// deposited by finishing shards and drained by `s` at the start of
    /// its next (part-)window.
    pub(super) mailboxes: Vec<Mutex<Vec<OutMsg<M>>>>,
    pub(super) win: Mutex<WinMeta>,
    cv: Condvar,
    /// Bumped (under the gate mutex) by every [`SegCtl::wake`]; what
    /// spinning waiters watch instead of the mutex-protected state.
    epoch: AtomicU64,
    /// First panic payload caught in a worker. The catching worker flips
    /// [`WinMeta::over`] so peers stop claiming instead of waiting on a
    /// window that will never finish; the coordinator re-raises after all
    /// workers report done.
    pub(super) panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// How long a gate waiter spins before parking. A wait is the drain-time
/// imbalance of one shard-window (~115 µs of work at n = 100k, S = T = 2;
/// a few µs at n = 1000), almost always shorter than a futex park/wake
/// round trip. Measured on the 2-core box, median `sim_big_churn` run
/// phase over interleaved rounds: no spin 811 ms; 20 µs 711 ms; 50 µs
/// 689 ms; 200 µs 705 ms; unbounded 726 ms — anything from 20 µs up is
/// inside the noise, so take the middle. The spin yields rather than
/// pauses: equal on that workload (670 vs 668 ms), but with more runnable
/// threads than cores a pausing spinner holds the core its peer needs
/// (`bench_sim` `engine/s4_t4` on 2 cores: 0.23 M events/s pausing, 3.0 M
/// yielding, 2.1 M with the old claim counter and no spin).
const SPIN_BUDGET: Duration = Duration::from_micros(50);

impl<M> SegCtl<M> {
    pub(super) fn new(shards: usize, workers: usize) -> Self {
        SegCtl {
            mailboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            win: Mutex::new(WinMeta::new(workers)),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            panic: Mutex::new(None),
        }
    }

    /// Arms the gate for a dispatch starting at `window_start` (a segment)
    /// or a part-run instant (where only the lane cursors matter). Only
    /// the coordinator calls this, and only while every worker is idle.
    pub(super) fn arm(&self, window_start: SimTime) {
        let mut w = self.win.lock().expect("window gate poisoned");
        w.window_start = window_start;
        w.reset_lanes();
        w.finished = 0;
        w.queue_min = None;
        w.mail_min = None;
        w.over = false;
        w.outcome = None;
    }

    /// Records a worker panic and releases everyone: peers stop claiming,
    /// the coordinator finds the payload after the done-count drains.
    pub(super) fn poison(&self, payload: Box<dyn std::any::Any + Send>) {
        {
            let mut slot = match self.panic.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.get_or_insert(payload);
        }
        let mut w = self.win.lock().expect("window gate poisoned");
        w.over = true;
        self.wake(&mut w);
    }

    /// Releases every waiter, spinning or parked, to re-read the gate
    /// after a state change (window opened, or `over` set). Taking the
    /// locked state is the proof that the gate mutex is held.
    pub(super) fn wake(&self, _locked: &mut WinMeta) {
        // Release pairs with the Acquire loads in `wait`; the state itself
        // is published by the gate mutex, which waiters re-take.
        self.epoch.fetch_add(1, Ordering::Release);
        self.cv.notify_all();
    }

    /// Gives up the gate until the next [`SegCtl::wake`]: spins (yielding)
    /// on the epoch for [`SPIN_BUDGET`], then parks on the condvar. The
    /// epoch only moves under the mutex, so reading it before the unlock
    /// and re-checking it under the lock before parking cannot miss a wake.
    pub(super) fn wait<'a>(&'a self, w: MutexGuard<'a, WinMeta>) -> MutexGuard<'a, WinMeta> {
        let seen = self.epoch.load(Ordering::Acquire);
        drop(w);
        let moved = || self.epoch.load(Ordering::Acquire) != seen;
        let spun = Instant::now();
        while !moved() && spun.elapsed() < SPIN_BUDGET {
            std::thread::yield_now();
        }
        let w = self.win.lock().expect("window gate poisoned");
        self.cv
            .wait_while(w, |_| !moved())
            .expect("window gate poisoned")
    }

    /// Takes the stored panic payload, if any.
    pub(super) fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        match self.panic.lock() {
            Ok(mut guard) => guard.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        }
    }

    /// Reads the run-lifetime work-distribution totals.
    pub(super) fn gate_stats(&self) -> GateStats {
        self.win.lock().expect("window gate poisoned").stats
    }

    /// Reads the outcome of a finished segment (the last finisher always
    /// stores one unless a panic poisoned the run).
    pub(super) fn take_outcome(&self) -> Option<SegOutcome> {
        self.win
            .lock()
            .expect("window gate poisoned")
            .outcome
            .take()
    }
}

/// The claim policy: which of the current window's `shards` participant
/// `me` drains next, or `None` when there is nothing for it to take.
///
/// Own lane first, in ascending order. A foreign shard is handed out only
/// from a lane that is *started but not exhausted*: a home worker goes
/// from finishing one shard of its lane straight to claiming the next (in
/// `run_segment` inside one critical section), so such a lane's worker is
/// busy mid-drain right now — while a lane nobody has touched yet merely
/// has a worker that has not woken up, and stealing its shard would only
/// drag that shard's state across caches. The inline coordinator is
/// worker 0 of 1 and so owns every shard.
pub(super) fn next_claim(w: &mut WinMeta, me: usize, shards: usize) -> Option<usize> {
    let workers = w.lane_next.len();
    let lane = if w.lane_next[me] < shards {
        me
    } else {
        (0..workers).find(|&h| w.lane_next[h] != h && w.lane_next[h] < shards)?
    };
    let shard = w.lane_next[lane];
    w.lane_next[lane] += workers;
    Some(shard)
}

/// `t` rounded down to a window boundary (windows are aligned multiples of
/// the transfer time, exactly as the Barrier coordinator aligned its
/// empty-window jumps).
#[inline]
pub(super) fn align_down(t: SimTime, transfer: SimDuration) -> SimTime {
    SimTime::from_micros(t.as_micros() / transfer.as_micros() * transfer.as_micros())
}

/// Advances the gate past a fully-finished window: either opens the next
/// full window of the segment (applying the empty-window skip) or ends the
/// segment with an outcome. Runs under the gate mutex, on whichever worker
/// finished last; `global` is the earliest pending engine-global instant
/// (fixed for the whole segment — globals only fire between segments).
pub(super) fn advance_window(
    w: &mut WinMeta,
    global: Option<SimTime>,
    end: SimTime,
    transfer: SimDuration,
) {
    let wb = w.window_start + transfer;
    let mut earliest = global;
    for m in [w.queue_min, w.mail_min] {
        earliest = match (earliest, m) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    w.queue_min = None;
    w.mail_min = None;
    w.finished = 0;
    match earliest {
        // Nothing pending anywhere (and no global train configured): the
        // run is over — the Barrier coordinator broke out here too,
        // without a final part-run to the horizon.
        None => {
            w.over = true;
            w.outcome = Some(SegOutcome::RunDone);
        }
        Some(t) if t > end => {
            w.over = true;
            w.outcome = Some(SegOutcome::RunDone);
        }
        Some(t) => {
            // Empty-window skip: jump to the window holding the earliest
            // remaining event. Mail due times are always `< wb + transfer`
            // so any deposited mail anchors the next window at `wb`.
            let next_start = if t >= wb + transfer {
                align_down(t, transfer).max(wb)
            } else {
                wb
            };
            w.stats.skipped +=
                (next_start.as_micros() - wb.as_micros()) / transfer.as_micros().max(1);
            let next_wb = next_start + transfer;
            let global_inside = global.is_some_and(|g| g < next_wb);
            if next_wb <= end && !global_inside {
                w.window_start = next_start;
                w.reset_lanes();
            } else {
                w.over = true;
                w.outcome = Some(SegOutcome::Continue { next_start });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(start_us: u64) -> WinMeta {
        WinMeta {
            window_start: SimTime::from_micros(start_us),
            over: false,
            ..WinMeta::new(2)
        }
    }

    const T: SimDuration = SimDuration::from_micros(1_000);

    #[test]
    fn advance_opens_adjacent_window() {
        let mut w = meta(0);
        w.queue_min = Some(SimTime::from_micros(1_500));
        while (0..2).any(|me| next_claim(&mut w, me, 4).is_some()) {}
        advance_window(&mut w, None, SimTime::from_micros(10_000), T);
        assert!(!w.over);
        assert_eq!(w.window_start, SimTime::from_micros(1_000));
        assert_eq!(w.lane_next, [0, 1]);
    }

    #[test]
    fn advance_skips_empty_windows_aligned() {
        let mut w = meta(0);
        w.queue_min = Some(SimTime::from_micros(5_500));
        advance_window(&mut w, None, SimTime::from_micros(10_000), T);
        assert!(!w.over);
        assert_eq!(w.window_start, SimTime::from_micros(5_000));
        // Jumped over windows [1000,2000)..[4000,5000): four skips.
        assert_eq!(w.stats.skipped, 4);
    }

    #[test]
    fn mail_anchors_the_next_window() {
        let mut w = meta(0);
        w.queue_min = Some(SimTime::from_micros(9_500));
        w.mail_min = Some(SimTime::from_micros(1_200));
        advance_window(&mut w, None, SimTime::from_micros(10_000), T);
        assert!(!w.over);
        assert_eq!(w.window_start, SimTime::from_micros(1_000));
    }

    #[test]
    fn run_done_when_nothing_pending_or_past_horizon() {
        let mut w = meta(0);
        advance_window(&mut w, None, SimTime::from_micros(10_000), T);
        assert!(w.over);
        assert_eq!(w.outcome, Some(SegOutcome::RunDone));

        let mut w = meta(0);
        w.queue_min = Some(SimTime::from_micros(20_000));
        advance_window(&mut w, None, SimTime::from_micros(10_000), T);
        assert_eq!(w.outcome, Some(SegOutcome::RunDone));
    }

    #[test]
    fn global_inside_next_window_hands_back_to_coordinator() {
        let mut w = meta(0);
        w.queue_min = Some(SimTime::from_micros(1_100));
        let global = Some(SimTime::from_micros(1_500));
        advance_window(&mut w, global, SimTime::from_micros(10_000), T);
        assert!(w.over);
        assert_eq!(
            w.outcome,
            Some(SegOutcome::Continue {
                next_start: SimTime::from_micros(1_000)
            })
        );
    }

    #[test]
    fn global_at_next_window_bound_does_not_stop_the_segment() {
        let mut w = meta(0);
        w.queue_min = Some(SimTime::from_micros(1_100));
        // Global due exactly at the *end* of the next window: that window
        // is still a full window (the Barrier loop ran it too, then fired
        // the global in an inclusive part-run).
        let global = Some(SimTime::from_micros(2_000));
        advance_window(&mut w, global, SimTime::from_micros(10_000), T);
        assert!(!w.over);
        assert_eq!(w.window_start, SimTime::from_micros(1_000));
    }

    #[test]
    fn horizon_crossing_hands_back_to_coordinator() {
        let mut w = meta(9_000);
        w.queue_min = Some(SimTime::from_micros(9_800));
        advance_window(&mut w, None, SimTime::from_micros(10_500), T);
        assert!(w.over);
        assert_eq!(
            w.outcome,
            Some(SegOutcome::Continue {
                next_start: SimTime::from_micros(10_000)
            })
        );
    }

    /// Replays `(participant, expected claim)` steps against one window
    /// of `shards` shards over `workers` lanes.
    fn replay(shards: usize, workers: usize, steps: &[(usize, Option<usize>)]) {
        let mut w = WinMeta::new(workers);
        for (i, &(me, expect)) in steps.iter().enumerate() {
            let got = next_claim(&mut w, me, shards);
            assert_eq!(
                got, expect,
                "S={shards} T={workers} step {i}: worker {me} claimed {got:?}"
            );
        }
    }

    #[test]
    fn claims_follow_the_lane_policy() {
        // Own lane first and in ascending order; `None` once everything
        // is claimed.
        replay(
            6,
            2,
            &[
                (1, Some(1)),
                (0, Some(0)),
                (0, Some(2)),
                (1, Some(3)),
                (1, Some(5)),
                (0, Some(4)),
                (0, None),
                (1, None),
            ],
        );
        // S == T: one shard per lane, so a finished worker never takes a
        // peer's shard — neither before the peer has claimed it nor after.
        replay(
            2,
            2,
            &[(0, Some(0)), (0, None), (1, Some(1)), (0, None), (1, None)],
        );
        // No steal from a lane whose worker has not claimed yet this
        // window: worker 1 exhausts its lane while worker 0 is still
        // asleep and must wait, not take shards 0 and 2.
        replay(4, 2, &[(1, Some(1)), (1, Some(3)), (1, None), (1, None)]);
        // Steal from a lane whose worker is mid-drain: worker 0 holds
        // shard 0, so worker 1 may take shard 2 off its lane — and worker
        // 0 then finds its lane exhausted.
        replay(
            4,
            2,
            &[
                (0, Some(0)),
                (1, Some(1)),
                (1, Some(3)),
                (1, Some(2)),
                (0, None),
                (1, None),
            ],
        );
        // The inline coordinator (worker 0 of 1) claims every shard in
        // order.
        replay(3, 1, &[(0, Some(0)), (0, Some(1)), (0, Some(2)), (0, None)]);
    }

    #[test]
    fn uneven_lanes_hand_out_every_shard_exactly_once_per_window() {
        for (shards, workers) in [(3, 2), (4, 3), (7, 3), (2, 2), (5, 1)] {
            // Every claim order the participants could race into: drive
            // the workers round-robin from each starting offset and with
            // one worker hogging the gate.
            for start in 0..workers {
                for hog in [false, true] {
                    let mut w = WinMeta::new(workers);
                    let mut seen = vec![0usize; shards];
                    let mut idle = 0;
                    let mut turn = start;
                    while idle < workers {
                        match next_claim(&mut w, turn % workers, shards) {
                            Some(s) => {
                                seen[s] += 1;
                                idle = 0;
                                turn += usize::from(!hog);
                            }
                            None => {
                                idle += 1;
                                turn += 1;
                            }
                        }
                    }
                    assert!(
                        seen.iter().all(|&c| c == 1),
                        "S={shards} T={workers} start={start} hog={hog}: {seen:?}"
                    );
                    // A reset reopens every lane at its first shard.
                    w.reset_lanes();
                    assert_eq!(next_claim(&mut w, start, shards), Some(start));
                }
            }
        }
    }

    #[test]
    fn poison_releases_a_waiter_inside_its_spin_budget() {
        // The waiter signals while it still holds the gate mutex, so the
        // poisoner can only get in once `wait` has dropped it — i.e. the
        // epoch moves at the very start of the waiter's spin.
        let ctl = SegCtl::<()>::new(2, 2);
        ctl.arm(SimTime::ZERO);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let w = ctl.win.lock().expect("window gate poisoned");
                tx.send(()).expect("main thread is listening");
                ctl.wait(w).over
            });
            rx.recv().expect("waiter signals before waiting");
            ctl.poison(Box::new("boom"));
            let over = waiter.join().expect("waiter must not panic");
            assert!(over, "the waiter must come back to a gate that is over");
        });
        assert!(ctl.take_panic().is_some());
    }

    #[test]
    fn wake_releases_a_parked_waiter() {
        // Same handshake, but the waker holds back for many spin budgets
        // so the waiter has (almost surely) parked; either way it must
        // return once, and only once, the epoch has moved.
        let ctl = SegCtl::<()>::new(2, 2);
        ctl.arm(SimTime::ZERO);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let w = ctl.win.lock().expect("window gate poisoned");
                tx.send(()).expect("main thread is listening");
                ctl.wait(w).window_start
            });
            rx.recv().expect("waiter signals before waiting");
            std::thread::sleep(SPIN_BUDGET * 100);
            {
                let mut w = ctl.win.lock().expect("window gate poisoned");
                w.window_start = SimTime::from_micros(1_000);
                ctl.wake(&mut w);
            }
            let seen = waiter.join().expect("waiter must not panic");
            assert_eq!(seen, SimTime::from_micros(1_000));
        });
    }
}
