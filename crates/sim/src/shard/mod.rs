//! Sharded deterministic parallel simulation: intra-run parallelism with
//! transfer-time lookahead.
//!
//! [`ShardedSimulation`] partitions the nodes of one run across `S` shards
//! — contiguous node-id blocks — each owning its own event queue, its own
//! per-node [`Xoshiro256pp`] streams, and its own slice of driver state
//! (a [`ShardDriver`]). Shards execute windows of `[t, t + transfer_time)`
//! independently; cross-shard sends are deposited in per-shard mailboxes
//! and drained at window boundaries. This is classic
//! conservative-synchronization parallel discrete-event simulation, and
//! the engine's own semantics provide the lookahead: *every* cross-node
//! effect travels as a message delivered exactly `transfer_time` later, so
//! no event inside a window can influence another shard within the same
//! window.
//!
//! # Execution: a channel pipeline, not a barrier
//!
//! Workers are spawned once per run and stay hot: the coordinator sends
//! [`pipeline`]-level work messages (a *segment* of consecutive full
//! windows, or a *part-window* run up to an engine-global instant) over
//! per-worker channels and collects one finished message per worker per
//! dispatch. Within a segment the only synchronization is the per-window
//! gate in [`exchange`]: workers claim whole shard-window drains by **home
//! lane** — shard `s` belongs to worker `s % workers`, and a worker drains
//! its own lane first — deposit cross-shard mail into the destination
//! shards' mailboxes, and the last finisher of a window advances the
//! pipeline — including the empty-window skip — without waking the
//! coordinator at all. Waiters at the gate spin on a window-epoch atomic
//! for a few tens of microseconds (a shard-window is ~100 µs) before
//! parking on the condvar. Engine-global events (samples, injections) are
//! the only points where the coordinator touches shard state, and they are
//! rare (every `sample_period`, typically hundreds of windows apart).
//!
//! A shard leaves its home worker under one condition only: another worker
//! has exhausted its own lane *and* the home worker is at that moment busy
//! draining an earlier shard of the same window (tail-balancing, possible
//! only when `S > T`). The reason is cache residency: a shard's queue,
//! buffers and per-node arrays are far larger than the per-window work
//! done on them, so a shard that hops threads every window drags its
//! working set from one core's L2 to the other's and drains slower on two
//! threads than on one. With `S == T` every shard stays on one thread for
//! the whole run.
//!
//! Worker threads can be pinned to cores ([`crate::affinity`]) with
//! `TA_PIN=1` or [`ShardOpts::pin`]; pinning trades nothing but
//! wall-clock — results are identical either way.
//!
//! # Exactness, not just determinism
//!
//! Results are **byte-identical to the serial [`Simulation`] engine** for
//! every shard count (including `S = 1`), every worker-thread count, and
//! pinning on or off, because every source of ordering and randomness in
//! the engine is *shard-invariant*:
//!
//! * ties in event time fire in `(origin node, per-origin counter)` key
//!   order ([`crate::queue::order_key`]) — a total order every shard can
//!   compute locally for the events it owns;
//! * randomness is drawn from per-node streams (plus one global stream for
//!   the barrier-time sample/inject callbacks), so what one node draws
//!   never depends on what another node did;
//! * churn is statically known ([`AvailabilityModel`]), so every shard
//!   replays *all* nodes' transitions — keeping an exact full mirror of
//!   the online set with zero communication — while only the owning shard
//!   runs the driver's node-scoped reaction;
//! * engine-global events (metric samples, injections) sort after all
//!   node events of their instant and run with every shard quiescent,
//!   where the coordinator can merge metrics in node order (see
//!   [`ShardableDriver::on_sample`]);
//! * lane claims and tail-steals hand out *whole* shard-window drains:
//!   each shard-window executes on exactly one thread, so the keys fix
//!   the pop order no matter which worker ran it.
//!
//! # When to shard
//!
//! Sharding buys wall-clock parallelism *within one run*; the experiment
//! harness's worker pool buys it *across* runs. Prefer across-run
//! parallelism while there are at least as many (spec × run) jobs as
//! cores; reach for `--shards` when a single huge-N scenario must saturate
//! the machine (see `ta-experiments`' `run_grid_prepared`, which trades
//! the two automatically and caps the product of the two layers at the
//! core count).

mod exchange;
mod pipeline;
mod worker;

use std::sync::Arc;

use crate::config::{QueueKind, SimConfig, TickPhase};
use crate::engine::{tick_delay_from, OnlineSet};
use crate::engine::{AvailabilityModel, Driver, MsgBatch, SimStats};
use crate::ids::NodeId;
use crate::queue::{order_key, BinaryHeapQueue};
use crate::rng::Xoshiro256pp;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

use pipeline::SCore;

#[cfg(doc)]
use crate::engine::Simulation;

/// The contiguous-block node partition of a sharded run.
///
/// Shard `s` owns the node-id range `[s·n/S, (s+1)·n/S)`. Contiguous
/// blocks (rather than round-robin striping) matter for exactness: metric
/// merges that fold shard partials in shard order visit nodes in exactly
/// the node-id order the serial engine uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    shards: usize,
    /// Block boundaries: shard `s` owns `[bounds[s], bounds[s + 1])`.
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// Builds a plan for `n` nodes over `shards` shards (clamped to
    /// `[1, n]`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or exceeds the `u32` node-id space.
    pub fn new(n: usize, shards: usize) -> Self {
        assert!(n > 0, "cannot shard an empty network");
        assert!(u32::try_from(n).is_ok(), "network exceeds u32 node ids");
        let shards = shards.clamp(1, n);
        let bounds = (0..=shards).map(|s| (s * n / shards) as u32).collect();
        ShardPlan { n, shards, bounds }
    }

    /// Network size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node`.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        let i = node.index();
        debug_assert!(i < self.n);
        // Blocks are near-uniform: start from the proportional guess and
        // fix up (off by at most one step in practice; the loops are exact
        // regardless).
        let mut s = (i * self.shards / self.n).min(self.shards - 1);
        while self.bounds[s + 1] as usize <= i {
            s += 1;
        }
        while (self.bounds[s] as usize) > i {
            s -= 1;
        }
        s
    }

    /// The node-index range shard `shard` owns.
    #[inline]
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        self.bounds[shard] as usize..self.bounds[shard + 1] as usize
    }
}

/// Shard-internal event payload (engine-global events live with the
/// coordinator, never in shard queues).
#[derive(Debug)]
enum SEv<M> {
    Tick { node: NodeId, epoch: u32 },
    Deliver { from: NodeId, to: NodeId, msg: M },
    Up(NodeId),
    Down(NodeId),
    Timer { node: NodeId, token: u64 },
}

/// A cross-shard delivery awaiting its destination's next window.
#[derive(Debug)]
struct OutMsg<M> {
    time: SimTime,
    key: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

/// Whose callback is running (selects the stream [`ShardApi::rng`] hands
/// out, and guards against misuse in remote-churn callbacks).
#[derive(Debug, Clone, Copy)]
enum Ctx {
    /// A callback scoped to an owned node.
    Owned(NodeId),
    /// A churn notification for a node another shard owns: the driver may
    /// update mirrors but must not draw randomness or send.
    Remote,
}

/// Per-shard engine state handed to [`ShardDriver`] callbacks through
/// [`ShardApi`]. Owns the shard's slice of streams/counters plus a full
/// replica of the online bookkeeping (kept exact by replayed churn).
struct ShardKernel<M> {
    plan: Arc<ShardPlan>,
    shard: usize,
    /// First owned node index (dense stream/counter vectors are offset by
    /// this).
    base: usize,
    cfg: SimConfig,
    now: SimTime,
    pending: Vec<(SimTime, u64, SEv<M>)>,
    outbox: Vec<OutMsg<M>>,
    /// Engine streams of owned nodes (tick phases, drop decisions).
    engine_rngs: Vec<Xoshiro256pp>,
    /// Protocol streams of owned nodes.
    proto_rngs: Vec<Xoshiro256pp>,
    /// Schedule counters of owned nodes.
    counters: Vec<u64>,
    /// Tick epochs of owned nodes.
    tick_epoch: Vec<u32>,
    /// Full online mirror (all nodes), exact at every instant.
    online: OnlineSet,
    ctx: Ctx,
    stats: SimStats,
}

impl<M> ShardKernel<M> {
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        let i = node.index();
        let r = self.plan.range(self.shard);
        r.start <= i && i < r.end
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        debug_assert!(self.owns(node), "node {node} not owned by this shard");
        node.index() - self.base
    }

    #[inline]
    fn next_key(&mut self, node: NodeId) -> u64 {
        let local = self.local(node);
        let c = &mut self.counters[local];
        let key = order_key(node.raw(), *c);
        *c += 1;
        key
    }

    fn tick_delay(&mut self, node: NodeId, phase: TickPhase) -> SimDuration {
        let local = self.local(node);
        tick_delay_from(&mut self.engine_rngs[local], self.cfg.delta(), phase)
    }

    fn schedule_tick(&mut self, node: NodeId, delay: SimDuration) {
        let epoch = self.tick_epoch[self.local(node)];
        let key = self.next_key(node);
        self.pending
            .push((self.now + delay, key, SEv::Tick { node, epoch }));
    }
}

/// The engine-facing API handed to [`ShardDriver`] callbacks; the sharded
/// counterpart of [`crate::engine::SimApi`].
pub struct ShardApi<'a, M> {
    kernel: &'a mut ShardKernel<M>,
}

impl<M> std::fmt::Debug for ShardApi<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardApi")
            .field("shard", &self.kernel.shard)
            .field("now", &self.kernel.now)
            .field("online", &self.kernel.online.count())
            .finish()
    }
}

impl<'a, M> ShardApi<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Network size (the whole network, not this shard's block).
    #[inline]
    pub fn n(&self) -> usize {
        self.kernel.cfg.n()
    }

    /// The simulation configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.kernel.cfg
    }

    /// The node partition of this run.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.kernel.plan
    }

    /// Whether `node` (any node, owned or not) is currently online. Exact:
    /// every shard replays the full churn schedule.
    #[inline]
    pub fn is_online(&self, node: NodeId) -> bool {
        self.kernel.online.is_online(node)
    }

    /// Number of currently online nodes network-wide.
    #[inline]
    pub fn online_count(&self) -> usize {
        self.kernel.online.count()
    }

    /// The currently online nodes (unspecified order; identical to the
    /// serial engine's order at the same instant).
    #[inline]
    pub fn online_nodes(&self) -> &[NodeId] {
        self.kernel.online.list()
    }

    /// Protocol random number generator of the node whose callback is
    /// running — the identical stream, at the identical position, the
    /// serial engine would hand out.
    ///
    /// # Panics
    ///
    /// Panics in a remote-churn callback (`owned = false` in
    /// [`ShardDriver::on_node_up`]/[`on_node_down`](ShardDriver::on_node_down)):
    /// that node's stream lives on its owning shard.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256pp {
        match self.kernel.ctx {
            Ctx::Owned(node) => {
                let local = self.kernel.local(node);
                &mut self.kernel.proto_rngs[local]
            }
            Ctx::Remote => panic!(
                "ShardApi::rng is not available in remote-churn callbacks \
                 (the node's stream lives on its owning shard)"
            ),
        }
    }

    /// Draws a uniformly random online node (network-wide), or `None` if
    /// all are offline.
    pub fn random_online_node(&mut self) -> Option<NodeId> {
        if self.kernel.online.count() == 0 {
            return None;
        }
        let bound = self.kernel.online.count() as u64;
        let i = self.rng().below(bound) as usize;
        Some(self.kernel.online.list()[i])
    }

    /// Sends `msg` from `from` to `to`; it arrives `transfer_time` later
    /// if `to` is online at that instant. `to` may live on any shard.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `from` is not owned by this shard: the
    /// send key and drop decision belong to `from`'s streams.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let k = &mut *self.kernel;
        debug_assert!(
            k.owns(from),
            "ShardDriver sent from node {from}, which this shard does not own"
        );
        k.stats.messages_sent += 1;
        let p = k.cfg.drop_probability();
        if p > 0.0 {
            let local = from.index() - k.base;
            if k.engine_rngs[local].chance(p) {
                k.stats.messages_dropped_fault += 1;
                return;
            }
        }
        let at = k.now + k.cfg.transfer_time();
        let key = k.next_key(from);
        if k.plan.shard_of(to) == k.shard {
            k.pending.push((at, key, SEv::Deliver { from, to, msg }));
        } else {
            k.outbox.push(OutMsg {
                time: at,
                key,
                from,
                to,
                msg,
            });
        }
    }

    /// Schedules [`ShardDriver::on_timer`] for the current callback's node
    /// after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero (see
    /// [`crate::engine::SimApi::schedule_timer`]) or in a remote-churn
    /// callback.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: u64) {
        assert!(!delay.is_zero(), "timer delay must be positive");
        let node = match self.kernel.ctx {
            Ctx::Owned(node) => node,
            Ctx::Remote => panic!("cannot schedule timers from remote-churn callbacks"),
        };
        let key = self.kernel.next_key(node);
        let at = self.kernel.now + delay;
        self.kernel
            .pending
            .push((at, key, SEv::Timer { node, token }));
    }

    /// This shard's statistics so far (merged across shards at the end of
    /// the run).
    #[inline]
    pub fn stats(&self) -> &SimStats {
        &self.kernel.stats
    }
}

/// One shard's slice of a partitioned driver: the node-scoped callbacks of
/// [`Driver`], restricted to owned nodes, plus full-network churn
/// notifications for mirror maintenance.
pub trait ShardDriver: Send {
    /// Message payload carried between nodes (must cross threads).
    type Msg: Send;

    /// A round tick fired at an owned online node.
    fn on_round_tick(&mut self, api: &mut ShardApi<'_, Self::Msg>, node: NodeId);

    /// A message arrived at owned online node `to` (`from` may live on any
    /// shard).
    fn on_message(
        &mut self,
        api: &mut ShardApi<'_, Self::Msg>,
        from: NodeId,
        to: NodeId,
        msg: Self::Msg,
    );

    /// A same-instant batch of messages addressed to owned online node
    /// `to`, in per-event delivery order — the sharded counterpart of
    /// [`Driver::on_message_batch`], with the same contract: consume
    /// every entry, stay observably equivalent to per-event
    /// [`on_message`](Self::on_message) calls (the serial engine splits
    /// runs differently, so drift breaks the byte-identical guarantee).
    fn on_message_batch(
        &mut self,
        api: &mut ShardApi<'_, Self::Msg>,
        to: NodeId,
        msgs: &mut MsgBatch<'_, Self::Msg>,
    ) {
        for (from, msg) in msgs.by_ref() {
            self.on_message(api, from, to, msg);
        }
    }

    /// `node` came online. Fired for **every** node's transitions, with
    /// `owned` telling whether this shard owns it: update full-network
    /// mirrors unconditionally, run node-scoped reactions (which may draw
    /// randomness and send) only when `owned`.
    fn on_node_up(&mut self, api: &mut ShardApi<'_, Self::Msg>, node: NodeId, owned: bool) {
        let _ = (api, node, owned);
    }

    /// `node` went offline (same ownership contract as
    /// [`on_node_up`](Self::on_node_up)).
    fn on_node_down(&mut self, api: &mut ShardApi<'_, Self::Msg>, node: NodeId, owned: bool) {
        let _ = (api, node, owned);
    }

    /// A timer scheduled through [`ShardApi::schedule_timer`] fired at its
    /// owned node.
    fn on_timer(&mut self, api: &mut ShardApi<'_, Self::Msg>, node: NodeId, token: u64) {
        let _ = (api, node, token);
    }
}

/// A driver that can be partitioned into independent per-shard pieces.
///
/// The split/merge pair must round-trip the driver's state, and the two
/// barrier callbacks must reproduce the serial driver's sample/inject
/// behaviour *bitwise* (fold integer partials, or walk shards in order so
/// f64 accumulation visits nodes in node-id order — shards are contiguous
/// blocks precisely to make that possible).
pub trait ShardableDriver: Driver<Msg: Send> + Sized {
    /// One shard's slice of the driver state.
    type Shard: ShardDriver<Msg = Self::Msg>;
    /// Coordinator-side state: metric series and whatever else the
    /// barrier callbacks accumulate.
    type Global: Send;

    /// Partitions the driver into `plan.shards()` pieces plus the
    /// coordinator state.
    fn split(self, plan: &ShardPlan) -> (Self::Global, Vec<Self::Shard>);

    /// Reassembles the driver after the run (inverse of
    /// [`split`](Self::split)).
    fn merge(plan: &ShardPlan, global: Self::Global, shards: Vec<Self::Shard>) -> Self;

    /// The periodic metric sample (the serial driver's
    /// [`Driver::on_sample`]), fired at an engine-global instant with
    /// every shard quiescent.
    fn on_sample(
        global: &mut Self::Global,
        shards: &mut [&mut Self::Shard],
        api: &mut BarrierApi<'_, Self::Msg>,
    ) {
        let _ = (global, shards, api);
    }

    /// The periodic injection (the serial driver's
    /// [`Driver::on_inject`]), fired at an engine-global instant.
    fn on_inject(
        global: &mut Self::Global,
        shards: &mut [&mut Self::Shard],
        api: &mut BarrierApi<'_, Self::Msg>,
    ) {
        let _ = (global, shards, api);
    }
}

/// The API of barrier-time (engine-global) callbacks: sample and inject.
///
/// Mirrors the serial engine's global-context [`crate::engine::SimApi`]:
/// the RNG is the global protocol stream, and sends are buffered and
/// routed by the coordinator with the sending node's key and drop
/// decision — in buffer order, exactly as the serial engine consumes them.
pub struct BarrierApi<'a, M> {
    now: SimTime,
    cfg: &'a SimConfig,
    plan: &'a ShardPlan,
    online: &'a [bool],
    online_list: &'a [NodeId],
    rng: &'a mut Xoshiro256pp,
    sends: Vec<(NodeId, NodeId, M)>,
}

impl<M> std::fmt::Debug for BarrierApi<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BarrierApi")
            .field("now", &self.now)
            .field("online", &self.online_list.len())
            .finish()
    }
}

impl<'a, M> BarrierApi<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network size.
    #[inline]
    pub fn n(&self) -> usize {
        self.cfg.n()
    }

    /// The simulation configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        self.cfg
    }

    /// The node partition of this run.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        self.plan
    }

    /// Whether `node` is currently online.
    #[inline]
    pub fn is_online(&self, node: NodeId) -> bool {
        self.online[node.index()]
    }

    /// Number of currently online nodes.
    #[inline]
    pub fn online_count(&self) -> usize {
        self.online_list.len()
    }

    /// The global protocol stream (the stream the serial engine hands to
    /// sample/inject callbacks).
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256pp {
        self.rng
    }

    /// Draws a uniformly random online node, or `None` if all are offline.
    pub fn random_online_node(&mut self) -> Option<NodeId> {
        if self.online_list.is_empty() {
            return None;
        }
        let i = self.rng.below(self.online_list.len() as u64) as usize;
        Some(self.online_list[i])
    }

    /// Sends `msg` from `from` to `to` (arriving `transfer_time` later).
    /// `from` may be any node: the coordinator charges the send to
    /// `from`'s counter and engine stream when it routes the buffer.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.sends.push((from, to, msg));
    }
}

/// Whether `TA_PIN` requests pinned shard workers (`1` or `true`).
///
/// Read once per [`ShardedSimulation::new`]; tests that must not race on
/// process environment use [`ShardOpts::pin`] instead.
pub fn pin_from_env() -> bool {
    std::env::var("TA_PIN")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

/// Execution options of a sharded run (partition width, worker threads,
/// core pinning). All three trade wall-clock only: results are
/// byte-identical for every combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOpts {
    /// Number of shards (clamped to `[1, n]`).
    pub shards: usize,
    /// Worker threads (`0` = all available cores; effective count is
    /// additionally clamped to the shard count).
    pub threads: usize,
    /// Pin worker `w` to core `w % cores` ([`crate::affinity`]).
    pub pin: bool,
}

impl ShardOpts {
    /// Options with `pin` taken from the `TA_PIN` environment knob.
    pub fn new(shards: usize, threads: usize) -> Self {
        ShardOpts {
            shards,
            threads,
            pin: pin_from_env(),
        }
    }
}

/// The sharded counterpart of [`crate::engine::Simulation`].
///
/// See the [module docs](self) for semantics and the exactness argument.
pub struct ShardedSimulation<D: ShardableDriver> {
    inner: SInner<D>,
}

enum SInner<D: ShardableDriver> {
    Heap(SCore<D, BinaryHeapQueue<SEv<D::Msg>>>),
    Wheel(SCore<D, TimingWheel<SEv<D::Msg>>>),
}

macro_rules! on_core {
    ($self:expr, $c:ident => $body:expr) => {
        match &$self.inner {
            SInner::Heap($c) => $body,
            SInner::Wheel($c) => $body,
        }
    };
    (mut $self:expr, $c:ident => $body:expr) => {
        match &mut $self.inner {
            SInner::Heap($c) => $body,
            SInner::Wheel($c) => $body,
        }
    };
}

impl<D: ShardableDriver> ShardedSimulation<D> {
    /// Builds a sharded simulation over `availability` with the given
    /// driver, partitioned into `shards` blocks (clamped to `[1, n]`) and
    /// executed on up to `threads` worker threads (`0` = all available
    /// cores; thread count never affects results). Worker pinning follows
    /// the `TA_PIN` environment knob — use [`with_opts`](Self::with_opts)
    /// to set it explicitly.
    pub fn new(
        cfg: SimConfig,
        availability: &dyn AvailabilityModel,
        driver: D,
        shards: usize,
        threads: usize,
    ) -> Self {
        Self::with_opts(cfg, availability, driver, ShardOpts::new(shards, threads))
    }

    /// Builds a sharded simulation with explicit [`ShardOpts`] (the
    /// environment-independent constructor).
    pub fn with_opts(
        cfg: SimConfig,
        availability: &dyn AvailabilityModel,
        driver: D,
        opts: ShardOpts,
    ) -> Self {
        let inner = match cfg.queue() {
            QueueKind::Heap => SInner::Heap(SCore::new(
                cfg,
                availability,
                driver,
                opts,
                BinaryHeapQueue::new,
            )),
            QueueKind::Wheel => SInner::Wheel(SCore::new(
                cfg,
                availability,
                driver,
                opts,
                TimingWheel::new,
            )),
        };
        ShardedSimulation { inner }
    }

    /// Runs until the configured duration is reached.
    pub fn run_to_end(&mut self) {
        on_core!(mut self, c => c.run_to_end())
    }

    /// Current virtual time (the horizon once finished).
    pub fn now(&self) -> SimTime {
        on_core!(self, c => c.now)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        on_core!(self, c => c.plan.shards())
    }

    /// Whether [`run_to_end`](Self::run_to_end) has completed.
    pub fn is_finished(&self) -> bool {
        on_core!(self, c => c.finished)
    }

    /// Statistics merged across shards (identical to the serial engine's
    /// [`SimStats`] for the same run).
    pub fn stats(&self) -> SimStats {
        on_core!(self, c => c.merged_stats())
    }

    /// Self-profiling totals merged across shards. Claim/steal/skip
    /// counts are always collected (one add under an already-held gate
    /// lock); batch-size histograms, window wall time, and mailbox
    /// depths require profiling (`TA_PROFILE=1` or
    /// [`set_profiling`](Self::set_profiling)).
    pub fn profile(&self) -> ta_telemetry::ProfileData {
        on_core!(self, c => c.merged_profile())
    }

    /// Forces self-profiling on or off for every shard engine,
    /// overriding the `TA_PROFILE` environment default.
    pub fn set_profiling(&mut self, enabled: bool) {
        on_core!(mut self, c => c.set_profiling(enabled))
    }

    /// Consumes the simulation, reassembling the driver and returning it
    /// with the merged statistics.
    pub fn into_parts(self) -> (D, SimStats) {
        match self.inner {
            SInner::Heap(c) => c.into_parts(),
            SInner::Wheel(c) => c.into_parts(),
        }
    }
}

impl<D: ShardableDriver> std::fmt::Debug for ShardedSimulation<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        on_core!(self, c => f
            .debug_struct("ShardedSimulation")
            .field("shards", &c.plan.shards())
            .field("threads", &c.threads)
            .field("pin", &c.pin)
            .field("now", &c.now)
            .field("finished", &c.finished)
            .finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_blocks_are_contiguous_and_cover() {
        for n in [1usize, 2, 7, 10, 101, 1000] {
            for s in [1usize, 2, 3, 4, 7, 64, 1000] {
                let plan = ShardPlan::new(n, s);
                let eff = plan.shards();
                assert!(eff <= n && eff >= 1);
                let mut covered = 0usize;
                for shard in 0..eff {
                    let r = plan.range(shard);
                    assert_eq!(r.start, covered, "gap before shard {shard}");
                    covered = r.end;
                    for i in r {
                        assert_eq!(plan.shard_of(NodeId::from_index(i)), shard);
                    }
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn plan_blocks_are_balanced() {
        let plan = ShardPlan::new(1003, 4);
        let sizes: Vec<usize> = (0..4).map(|s| plan.range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1003);
        assert!(sizes.iter().all(|&x| (250..=251).contains(&x)), "{sizes:?}");
    }

    #[test]
    fn plan_clamps_shard_count() {
        assert_eq!(ShardPlan::new(3, 10).shards(), 3);
        assert_eq!(ShardPlan::new(3, 0).shards(), 1);
    }

    #[test]
    fn shard_opts_reads_pin_knob_shape() {
        // Constructors only; the environment knob itself is covered by the
        // root-level `TA_PIN`/`TA_SHARDS` test (env mutation is confined
        // there because tests run concurrently).
        let opts = ShardOpts {
            shards: 4,
            threads: 2,
            pin: true,
        };
        assert_eq!(opts.shards, 4);
        assert!(opts.pin);
    }
}
