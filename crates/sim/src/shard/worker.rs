//! Per-shard window execution and the persistent worker loop.
//!
//! [`ShardEngine`] is one shard's event loop (queue + kernel + driver
//! slice); [`worker_loop`] is the thread body of a pipeline worker:
//! spawned once per run, optionally pinned to a core, it receives
//! [`Work`] messages from the coordinator, executes them through the
//! shared [`SegCtl`] gate (claiming shard-window drains from its home
//! lane first), and reports one done message per dispatch.
//! Driver panics are caught, poison the gate so peers stop claiming, and
//! re-raise on the coordinator — the pipeline unwinds instead of
//! deadlocking.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use ta_telemetry::Profile;

use super::exchange::{advance_window, next_claim, SegCtl};
use super::{Ctx, OutMsg, SEv, ShardApi, ShardDriver, ShardKernel, ShardPlan};
use crate::config::SimConfig;
use crate::engine::{
    engine_stream, proto_stream, AvailabilityModel, MsgBatch, RunGrouper, SimStats,
};
use crate::ids::{node_ids, NodeId};
use crate::queue::{order_key, EventQueue, ReadyBatch};
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
    /// Per-destination deposit buckets.
    buckets: Vec<Vec<OutMsg<M>>>,
}

impl<M> Scratch<M> {
    pub(super) fn new(shards: usize) -> Self {
        Scratch {
            drain: Vec::new(),
            buckets: (0..shards).map(|_| Vec::new()).collect(),
        }
    }
}

/// One shard: kernel + queue + driver slice.
pub(super) struct ShardEngine<D: ShardDriver, Q: EventQueue<SEv<D::Msg>>> {
    pub(super) kernel: ShardKernel<D::Msg>,
    pub(super) queue: Q,
    pub(super) driver: D,
    run_buf: Vec<(u64, SEv<D::Msg>)>,
    /// The same-time run being dispatched (recycled; the wheel swaps its
    /// ready buffer with this one on the dense path).
    batch: ReadyBatch<SEv<D::Msg>>,
    /// Contiguous delivery run scratch, grouped by destination through
    /// `grouper` (owned nodes only — deliveries never cross shards).
    run_scratch: Vec<(NodeId, NodeId, Option<D::Msg>)>,
    grouper: RunGrouper,
    /// Batch/window/mailbox self-profiling (no-op unless `TA_PROFILE=1`
    /// or forced on; the gate's claim/steal/skip totals are counted
    /// separately and unconditionally, see [`super::exchange::GateStats`]).
    pub(super) profile: Profile,
}

impl<D: ShardDriver, Q: EventQueue<SEv<D::Msg>>> ShardEngine<D, Q> {
    pub(super) fn new(
        plan: &Arc<ShardPlan>,
        shard: usize,
        cfg: &SimConfig,
        availability: &dyn AvailabilityModel,
        driver: D,
        queue: Q,
    ) -> Self {
        let n = cfg.n();
        let seed = cfg.seed();
        let range = plan.range(shard);
        let base = range.start;
        let owned = range.len();
        let mut kernel = ShardKernel {
            plan: Arc::clone(plan),
            shard,
            base,
            cfg: cfg.clone(),
            now: SimTime::ZERO,
            pending: Vec::with_capacity(64),
            outbox: Vec::new(),
            engine_rngs: range.clone().map(|i| engine_stream(seed, i)).collect(),
            proto_rngs: range.clone().map(|i| proto_stream(seed, i)).collect(),
            counters: vec![0; owned],
            tick_epoch: vec![0; owned],
            online: crate::engine::OnlineSet::new(n),
            ctx: Ctx::Remote,
            stats: SimStats::default(),
        };

        // Initial online set (full mirror), then per-node schedules with
        // the exact keys the serial engine assigns: every shard replays
        // every node's churn (so its mirror stays exact), but only owned
        // nodes get ticks — and only their transitions advance a stored
        // counter (remote counters are recomputed here and discarded).
        for node in node_ids(n) {
            if availability.initially_online(node) {
                kernel.online.set(node, true);
            }
        }
        for node in node_ids(n) {
            if kernel.owns(node) {
                availability.for_each_transition(node, &mut |time, up| {
                    let key = kernel.next_key(node);
                    kernel.pending.push((
                        time,
                        key,
                        if up { SEv::Up(node) } else { SEv::Down(node) },
                    ));
                });
            } else {
                let mut counter = 0u64;
                availability.for_each_transition(node, &mut |time, up| {
                    let key = order_key(node.raw(), counter);
                    counter += 1;
                    kernel.pending.push((
                        time,
                        key,
                        if up { SEv::Up(node) } else { SEv::Down(node) },
                    ));
                });
            }
        }
        let phase = kernel.cfg.tick_phase();
        for i in range {
            let node = NodeId::from_index(i);
            if kernel.online.is_online(node) {
                let delay = kernel.tick_delay(node, phase);
                kernel.schedule_tick(node, delay);
            }
        }
        let mut engine = ShardEngine {
            kernel,
            queue,
            driver,
            run_buf: Vec::new(),
            batch: ReadyBatch::new(),
            run_scratch: Vec::new(),
            grouper: RunGrouper::new(base, owned),
            profile: Profile::from_env(),
        };
        engine.flush_pending();
        engine
    }

    /// Whether a popped event counts toward the merged
    /// [`SimStats::events_processed`]: churn events are replicated to all
    /// shards but owned by one.
    #[inline]
    fn counts_as_processed(&self, ev: &SEv<D::Msg>) -> bool {
        match ev {
            SEv::Up(node) | SEv::Down(node) => self.kernel.owns(*node),
            _ => true,
        }
    }

    /// Processes events up to `until` — strictly before it for window
    /// interiors, inclusively for barrier instants — then parks the clock
    /// at `until`. Batch-drained like the serial engine's `run_until`: one
    /// bounded queue drain per same-time run, the clock and the
    /// deferred-push flush amortized over the whole run (an exclusive
    /// bound is the inclusive bound one microsecond earlier — time is
    /// integral).
    pub(super) fn run_window(&mut self, until: SimTime, inclusive: bool) {
        let bound = if inclusive {
            until
        } else if until == SimTime::ZERO {
            // Nothing can fire strictly before the origin.
            return;
        } else {
            SimTime::from_micros(until.as_micros() - 1)
        };
        loop {
            self.queue.drain_ready_before(bound, &mut self.batch);
            let Some(t) = self.batch.time() else { break };
            debug_assert!(t >= self.kernel.now, "time went backwards");
            self.kernel.now = t;
            self.profile.batch(self.batch.len());
            self.consume_batch();
            self.flush_pending();
        }
        if until > self.kernel.now {
            self.kernel.now = until;
        }
    }

    /// Dispatches the drained batch in key order, routing contiguous
    /// delivery runs through the grouped
    /// [`ShardDriver::on_message_batch`] path (mirrors the serial
    /// engine's `consume_batch`: offline filter and chain building fused
    /// into the collection pass, singleton batches bypass the run
    /// machinery).
    fn consume_batch(&mut self) {
        let mut entries = std::mem::take(&mut self.batch.entries);
        if entries.len() == 1 {
            let (_, _, ev) = entries.pop().expect("length checked");
            if self.counts_as_processed(&ev) {
                self.kernel.stats.events_processed += 1;
            }
            self.dispatch(ev);
            self.batch.entries = entries;
            return;
        }
        let mut it = entries.drain(..).peekable();
        while let Some((_, _, ev)) = it.next() {
            match ev {
                SEv::Deliver { from, to, msg }
                    if matches!(it.peek(), Some((.., SEv::Deliver { .. }))) =>
                {
                    self.kernel.stats.events_processed += 1;
                    debug_assert!(self.run_scratch.is_empty());
                    self.grouper.begin();
                    self.collect_delivery(from, to, msg);
                    while matches!(it.peek(), Some((.., SEv::Deliver { .. }))) {
                        let Some((.., SEv::Deliver { from, to, msg })) = it.next() else {
                            unreachable!("peek promised a delivery");
                        };
                        self.kernel.stats.events_processed += 1;
                        self.collect_delivery(from, to, msg);
                    }
                    self.dispatch_deliver_run();
                }
                other => {
                    if self.counts_as_processed(&other) {
                        self.kernel.stats.events_processed += 1;
                    }
                    self.dispatch(other);
                }
            }
        }
        drop(it);
        self.batch.entries = entries;
    }

    /// Adds one delivery of the current contiguous run (serial engine's
    /// `collect_delivery`: offline drop + group chaining in one pass).
    #[inline]
    fn collect_delivery(&mut self, from: NodeId, to: NodeId, msg: D::Msg) {
        if !self.kernel.online.is_online(to) {
            self.kernel.stats.messages_lost_offline += 1;
            return;
        }
        self.run_scratch.push((from, to, Some(msg)));
        self.grouper.add(to);
    }

    /// Grouped dispatch of one collected same-instant delivery run (the
    /// serial engine's discipline: one
    /// [`ShardDriver::on_message_batch`] call per destination, key order
    /// preserved per destination).
    fn dispatch_deliver_run(&mut self) {
        self.kernel.stats.messages_delivered += self.run_scratch.len() as u64;
        for gi in 0..self.grouper.groups() {
            let (to, head, count) = self.grouper.group(gi);
            self.kernel.ctx = Ctx::Owned(to);
            let mut api = ShardApi {
                kernel: &mut self.kernel,
            };
            let mut msgs = MsgBatch::new(&mut self.run_scratch, self.grouper.links(), head, count);
            self.driver.on_message_batch(&mut api, to, &mut msgs);
            debug_assert!(
                msgs.is_empty(),
                "on_message_batch must consume every delivery"
            );
        }
        self.run_scratch.clear();
    }

    #[inline]
    fn flush_pending(&mut self) {
        crate::queue::flush_run_batched(
            &mut self.kernel.pending,
            &mut self.run_buf,
            &mut self.queue,
        );
    }

    fn dispatch(&mut self, ev: SEv<D::Msg>) {
        match ev {
            SEv::Tick { node, epoch } => {
                let local = self.kernel.local(node);
                if self.kernel.tick_epoch[local] != epoch {
                    self.kernel.stats.ticks_stale += 1;
                    return;
                }
                debug_assert!(self.kernel.online.is_online(node));
                self.kernel.stats.ticks_fired += 1;
                self.kernel.ctx = Ctx::Owned(node);
                let mut api = ShardApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_round_tick(&mut api, node);
                let delta = self.kernel.cfg.delta();
                self.kernel.schedule_tick(node, delta);
            }
            SEv::Deliver { from, to, msg } => {
                if !self.kernel.online.is_online(to) {
                    self.kernel.stats.messages_lost_offline += 1;
                    return;
                }
                self.kernel.stats.messages_delivered += 1;
                self.kernel.ctx = Ctx::Owned(to);
                let mut api = ShardApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_message(&mut api, from, to, msg);
            }
            SEv::Up(node) => {
                if self.kernel.online.is_online(node) {
                    return; // duplicate transition; ignore
                }
                self.kernel.online.set(node, true);
                let owned = self.kernel.owns(node);
                if owned {
                    let local = self.kernel.local(node);
                    self.kernel.tick_epoch[local] += 1;
                    let phase = self.kernel.cfg.tick_phase();
                    let delay = self.kernel.tick_delay(node, phase);
                    self.kernel.schedule_tick(node, delay);
                    self.kernel.ctx = Ctx::Owned(node);
                } else {
                    self.kernel.ctx = Ctx::Remote;
                }
                let mut api = ShardApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_node_up(&mut api, node, owned);
            }
            SEv::Down(node) => {
                if !self.kernel.online.is_online(node) {
                    return;
                }
                self.kernel.online.set(node, false);
                let owned = self.kernel.owns(node);
                if owned {
                    let local = self.kernel.local(node);
                    self.kernel.tick_epoch[local] += 1;
                    self.kernel.ctx = Ctx::Owned(node);
                } else {
                    self.kernel.ctx = Ctx::Remote;
                }
                let mut api = ShardApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_node_down(&mut api, node, owned);
            }
            SEv::Timer { node, token } => {
                self.kernel.ctx = Ctx::Owned(node);
                let mut api = ShardApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_timer(&mut api, node, token);
            }
        }
    }
}

/// Drains shard `shard`'s mailbox into its queue (start of every
/// (part-)window: all mail due in this window was deposited before the
/// previous gate opened; anything deposited concurrently by an
/// early-finishing peer is due beyond the bound and merely waits in the
/// queue).
fn drain_mailbox<D: ShardDriver, Q: EventQueue<SEv<D::Msg>>>(
    mailbox: &Mutex<Vec<OutMsg<D::Msg>>>,
    engine: &mut ShardEngine<D, Q>,
    scratch: &mut Scratch<D::Msg>,
) {
    {
        let mut mb = mailbox.lock().expect("shard mailbox poisoned");
        std::mem::swap(&mut *mb, &mut scratch.drain);
    }
    engine.profile.mailbox(scratch.drain.len());
    for m in scratch.drain.drain(..) {
        engine.queue.push_keyed(
            m.time,
            m.key,
            SEv::Deliver {
                from: m.from,
                to: m.to,
                msg: m.msg,
            },
        );
    }
}

/// Deposits the shard's outbox into the destination shards' mailboxes,
/// bucketed so each destination lock is taken once. Returns the minimum
/// due time deposited (the gate's skip logic must see mail that is not in
/// any queue yet).
fn deposit_outbox<D: ShardDriver, Q: EventQueue<SEv<D::Msg>>>(
    engine: &mut ShardEngine<D, Q>,
    ctl: &SegCtl<D::Msg>,
    scratch: &mut Scratch<D::Msg>,
) -> Option<SimTime> {
    if engine.kernel.outbox.is_empty() {
        return None;
    }
    let shard = engine.kernel.shard;
    let mut mail_min: Option<SimTime> = None;
    for m in engine.kernel.outbox.drain(..) {
        let dst = engine.kernel.plan.shard_of(m.to);
        debug_assert_ne!(dst, shard, "outbox must hold only cross-shard sends");
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
pub(super) fn run_segment<D: ShardDriver, Q: EventQueue<SEv<D::Msg>>>(
    engines: &[Mutex<ShardEngine<D, Q>>],
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
            e.run_window(wb, false);
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
pub(super) fn run_part<D: ShardDriver, Q: EventQueue<SEv<D::Msg>>>(
    engines: &[Mutex<ShardEngine<D, Q>>],
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
        e.run_window(t, true);
    }
}

/// The thread body of one pipeline worker: optionally pin, then serve
/// [`Work`] until the coordinator drops the channel. Every dispatch is
/// answered with exactly one message on `done`, panic or not — the
/// coordinator counts them to know the fleet is quiescent.
#[allow(clippy::too_many_arguments)]
pub(super) fn worker_loop<D: ShardDriver, Q: EventQueue<SEv<D::Msg>>>(
    index: usize,
    work: Receiver<Work>,
    done: Sender<()>,
    engines: &[Mutex<ShardEngine<D, Q>>],
    ctl: &SegCtl<D::Msg>,
    transfer: SimDuration,
    pin: bool,
) {
    if pin {
        crate::affinity::pin_current_thread(index % crate::affinity::available_cores());
    }
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
