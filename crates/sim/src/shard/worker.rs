//! Shard-window execution and the persistent worker loop.
//!
//! [`worker_loop`] is the thread body of a pipeline worker: spawned once
//! per run, it receives [`Work`] messages from the coordinator, executes
//! them through the shared [`SegCtl`] gate (claiming shard-window drains from its home lane first) — each drain is
//! the block's own [`Engine::run_until`] between a mailbox drain and an
//! outbox deposit — and reports one done message per dispatch.
//! Driver panics are caught, poison the gate so peers stop claiming, and
//! re-raise on the coordinator — the pipeline unwinds instead of
//! deadlocking.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;

use super::exchange::{advance_window, next_claim, SegCtl};
use crate::engine::{Driver, Engine, Ev, OutMsg};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// One dispatch from the coordinator to every worker.
#[derive(Debug, Clone, Copy)]
pub(super) enum Work {
    /// Free-run consecutive full windows (from the start the coordinator
    /// armed the gate with) until the next window would contain `global`
    /// or cross `end`; the gate advances windows (and skips empty ones)
    /// without the coordinator.
    Segment {
        /// Earliest pending engine-global instant (fixed for the segment).
        global: Option<SimTime>,
        /// Run horizon.
        end: SimTime,
    },
    /// Run every shard inclusively up to `t` (an engine-global instant or
    /// the horizon). No window advance; mail stays deposited for the
    /// next dispatch.
    Part {
        /// Inclusive bound.
        t: SimTime,
    },
}

/// Per-worker reusable buffers (also owned by the coordinator for the
/// inline path).
pub(super) struct Scratch<M> {
    /// Mailbox drain buffer (swap target, keeps capacity out of the lock).
    drain: Vec<OutMsg<M>>,
    /// The drained mail as scheduler entries, the run merged into the
    /// transfer lane.
    run: Vec<(SimTime, u64, Ev<M>)>,
    /// Per-destination deposit buckets.
    buckets: Vec<Vec<OutMsg<M>>>,
}

impl<M> Scratch<M> {
    pub(super) fn new(shards: usize) -> Self {
        Scratch {
            drain: Vec::new(),
            run: Vec::new(),
            buckets: (0..shards).map(|_| Vec::new()).collect(),
        }
    }
}

/// Drains shard `shard`'s mailbox into its queue (start of every
/// (part-)window: all mail due in this window was deposited before the
/// previous gate opened; anything deposited concurrently by an
/// early-finishing peer is due beyond the bound and merely waits in the
/// queue). The mail is one transfer time old, so its due times interleave
/// with the block's own deliveries: the run is sorted by `(time, key)` and
/// merged into the scheduler's transfer lane
/// ([`LaneScheduler::merge_run`](crate::queue::LaneScheduler::merge_run)),
/// where the engine's lookahead sees it, and counted as lane pushes. Both
/// buffers keep their capacity across windows.
fn drain_mailbox<D: Driver>(
    mailbox: &Mutex<Vec<OutMsg<D::Msg>>>,
    engine: &mut Engine<D>,
    scratch: &mut Scratch<D::Msg>,
) {
    {
        let mut mb = mailbox.lock().expect("shard mailbox poisoned");
        std::mem::swap(&mut *mb, &mut scratch.drain);
    }
    let mail = scratch.drain.len();
    engine.profile.mailbox(mail);
    engine.profile.pushes(mail, 0);
    scratch.run.extend(scratch.drain.drain(..).map(|m| {
        let ev = Ev::Deliver {
            from: m.from,
            to: m.to,
            msg: m.msg,
        };
        (m.time, m.key, ev)
    }));
    engine.queue.merge_run(&mut scratch.run);
}

/// Deposits the shard's outbox into the destination shards' mailboxes,
/// bucketed so each destination lock is taken once. Returns the minimum
/// due time deposited (the gate's skip logic must see mail that is not in
/// any queue yet).
fn deposit_outbox<D: Driver>(
    engine: &mut Engine<D>,
    ctl: &SegCtl<D::Msg>,
    scratch: &mut Scratch<D::Msg>,
) -> Option<SimTime> {
    if engine.kernel.outbox.is_empty() {
        return None;
    }
    let mut mail_min: Option<SimTime> = None;
    for m in engine.kernel.outbox.drain(..) {
        // The one place a destination shard is resolved: `send` only asked
        // whether `to` lies inside the sending block.
        let dst = engine.kernel.plan.shard_of(m.to);
        mail_min = Some(mail_min.map_or(m.time, |t| t.min(m.time)));
        scratch.buckets[dst].push(m);
    }
    for (dst, bucket) in scratch.buckets.iter_mut().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut mb = ctl.mailboxes[dst].lock().expect("shard mailbox poisoned");
        mb.append(bucket);
    }
    mail_min
}

/// Executes one [`Work::Segment`] as participant `me` (a worker's index;
/// the inline coordinator is worker 0 of 1): claim shard-windows through
/// the gate's lane policy, run them, deposit mail, and let the last
/// finisher of each window advance the pipeline. Returns when the gate
/// goes `over` (segment finished, or a peer panicked). Finishing one
/// drain and claiming the next share one critical section — one gate pass
/// per shard-window, and what lets [`next_claim`] read "lane started but
/// not exhausted" as "home worker mid-drain".
pub(super) fn run_segment<D: Driver>(
    engines: &[Mutex<Engine<D>>],
    ctl: &SegCtl<D::Msg>,
    me: usize,
    global: Option<SimTime>,
    end: SimTime,
    transfer: SimDuration,
    scratch: &mut Scratch<D::Msg>,
) {
    let shards = engines.len();
    let mut gate = ctl.win.lock().expect("window gate poisoned");
    loop {
        // Claim the next shard of the current window, or wait for the
        // last finisher to open the next one.
        let (shard, wb) = loop {
            if gate.over {
                return;
            }
            if let Some(s) = next_claim(&mut gate, me, shards) {
                gate.stats.claims += 1;
                gate.stats.steals += u64::from(s % gate.lane_next.len() != me);
                break (s, gate.window_start + transfer);
            }
            gate = ctl.wait(gate);
        };
        drop(gate);
        // The shard-window drain proper, off the gate lock.
        let (queue_min, mail_min) = {
            let mut e = engines[shard].lock().expect("shard engine lock poisoned");
            let started = e.profile.is_enabled().then(std::time::Instant::now);
            drain_mailbox(&ctl.mailboxes[shard], &mut e, scratch);
            // Strictly before the window bound (time is integral, and a
            // window is at least one microsecond long).
            e.run_until(SimTime::from_micros(wb.as_micros() - 1));
            let mail_min = deposit_outbox(&mut e, ctl, scratch);
            if let Some(t0) = started {
                e.profile.window(t0.elapsed().as_nanos() as u64);
            }
            (e.queue.peek_time(), mail_min)
        };
        // Publish and, as the last finisher, advance the window.
        gate = ctl.win.lock().expect("window gate poisoned");
        let w = &mut *gate;
        for (slot, m) in [(&mut w.queue_min, queue_min), (&mut w.mail_min, mail_min)] {
            *slot = match (*slot, m) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        w.finished += 1;
        if w.finished == shards {
            advance_window(w, global, end, transfer);
            ctl.wake(w);
        }
    }
}

/// Executes one [`Work::Part`] as participant `me`: claim shards by the
/// same lane policy and run each inclusively up to `t` (mailbox drained
/// first — a global at a window bound must see the previous window's
/// mail). No mail deposit: callback sends made at `t` are due
/// `t + transfer`, beyond every bound this dispatch can reach, and the
/// outbox rides along to the next deposit. Returns when nothing is left
/// for `me` to claim — never waits: every lane's home worker got the same
/// dispatch and drains whatever nobody took off it. The caller's done
/// message (sent after all its claims completed) tells the coordinator
/// when the instant is fully processed.
pub(super) fn run_part<D: Driver>(
    engines: &[Mutex<Engine<D>>],
    ctl: &SegCtl<D::Msg>,
    me: usize,
    t: SimTime,
    scratch: &mut Scratch<D::Msg>,
) {
    let claim = || {
        let mut w = ctl.win.lock().expect("window gate poisoned");
        if w.over {
            return None;
        }
        next_claim(&mut w, me, engines.len())
    };
    while let Some(shard) = claim() {
        let mut e = engines[shard].lock().expect("shard engine lock poisoned");
        drain_mailbox(&ctl.mailboxes[shard], &mut e, scratch);
        e.run_until(t);
    }
}

/// The thread body of one pipeline worker: serves [`Work`] until the coordinator drops the channel. Every dispatch is
/// answered with exactly one message on `done`, panic or not — the
/// coordinator counts them to know the fleet is quiescent.
pub(super) fn worker_loop<D: Driver>(
    index: usize,
    work: Receiver<Work>,
    done: Sender<()>,
    engines: &[Mutex<Engine<D>>],
    ctl: &SegCtl<D::Msg>,
    transfer: SimDuration,
) {
    let mut scratch = Scratch::new(engines.len());
    while let Ok(msg) = work.recv() {
        // Catch panics from driver callbacks (and anything else in the
        // drain) so the done message is always sent and peers are
        // released: the run unwinds on the coordinator instead of
        // deadlocking the pipeline.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match msg {
            Work::Segment { global, end } => {
                run_segment(engines, ctl, index, global, end, transfer, &mut scratch)
            }
            Work::Part { t } => run_part(engines, ctl, index, t, &mut scratch),
        }));
        if let Err(payload) = result {
            ctl.poison(payload);
        }
        if done.send(()).is_err() {
            break;
        }
    }
}
