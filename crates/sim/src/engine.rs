//! The discrete-event simulation engine.
//!
//! One event loop serves every shard count. An [`Engine`] owns a
//! contiguous block of nodes `lo..hi` — their streams, schedule counters
//! and tick epochs in a [`Kernel`], their pending events in a queue — and
//! drives a [`Driver`] through the block's totally ordered stream of round
//! ticks, message deliveries, churn transitions and one-shot timers.
//! [`Simulation`] is the S = 1 face: one engine whose block is the whole
//! network `0..n`, run on the calling thread with no window, gate or
//! mailbox. [`crate::shard::ShardedSimulation`] runs S of the same engines
//! side by side. It plays the role PeerSim's event-driven engine plays in
//! the paper.
//!
//! # Semantics
//!
//! * **Round ticks.** While a node is online it receives a tick every Δ.
//!   The first tick (and the first tick after each rejoin) is phased
//!   according to [`crate::config::TickPhase`]; tokens are only
//!   granted while online, matching Section 4.2 of the paper ("nodes only
//!   receive tokens when online").
//! * **Messages.** [`SimApi::send`] delivers the message `transfer_time`
//!   later. A message addressed to a node that is offline at delivery time
//!   is lost (counted in [`SimStats::messages_lost_offline`]). With
//!   `drop_probability > 0` a send may also be dropped at random
//!   (fault-injection extension).
//! * **Churn.** An [`AvailabilityModel`] supplies each node's initial state
//!   and up/down transitions. The driver observes them via
//!   [`Driver::on_node_up`]/[`Driver::on_node_down`].
//! * **Sampling and injection.** The two periodic engine-global events
//!   sort after every node event of their instant; they fire between
//!   batches, with every block quiescent
//!   ([`Driver::on_sample`]/[`Driver::on_inject`]).
//! * **Determinism.** All randomness derives from the master seed via
//!   independent [`Xoshiro256pp`] streams — one engine stream and one
//!   protocol stream *per node*, plus a global protocol stream for the
//!   sampling/injection callbacks — and ties in event time fire in
//!   `(origin node, per-origin schedule counter)` order (see
//!   [`crate::queue::order_key`]). A run is therefore a pure function of
//!   `(config, availability, driver)`, and — because neither the tie order
//!   nor any stream depends on global sequencing — the same function for
//!   every shard count.
//!
//! # Lookahead
//!
//! On a large block the loop is bound by memory, not by compute: every
//! event touches its node's stream, key counter, tick epoch and online
//! flag here, and its account, neighbour slice and application state in
//! the driver — a handful of cache misses spread over arrays far larger
//! than the cache. But every event names its node before it runs, and
//! ticks and deliveries wait in the scheduler's two FIFO lanes. So after
//! each drain the engine takes the entry [`LOOKAHEAD`] places ahead in each
//! lane ([`LaneScheduler::lookahead`]) and asks for that node's state —
//! its own arrays and, through [`Driver::prefetch`], the driver's — while
//! it dispatches the current batch. A prefetch is a hint to the cache
//! (one `_mm_prefetch` on x86-64, nothing elsewhere, see [`prefetch`]):
//! it reads no value, so no event order, draw or result depends on it.
//!
//! The lookahead runs only on a block of at least [`LOOKAHEAD_FROM_NODES`]
//! nodes, decided once per engine: below that the per-node arrays stay
//! cache-resident and the hints are pure overhead.
//!
//! # Example
//!
//! ```
//! use ta_sim::engine::{AlwaysOn, Driver, SimApi, Simulation};
//! use ta_sim::config::SimConfig;
//! use ta_sim::NodeId;
//!
//! /// Every node pings node 0 on every round tick.
//! struct Ping {
//!     received: u64,
//! }
//!
//! impl Driver for Ping {
//!     type Msg = ();
//!     fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, node: NodeId) {
//!         api.send(node, NodeId::new(0), ());
//!     }
//!     fn on_message(&mut self, _api: &mut SimApi<'_, ()>, _from: NodeId, _to: NodeId, _msg: ()) {
//!         self.received += 1;
//!     }
//! }
//!
//! let cfg = SimConfig::builder(10).seed(1).build()?;
//! let mut sim = Simulation::new(cfg, &AlwaysOn, Ping { received: 0 });
//! sim.run_to_end();
//! assert!(sim.driver().received > 0);
//! # Ok::<(), ta_sim::config::InvalidConfigError>(())
//! ```

use std::sync::Arc;

use ta_telemetry::Profile;

use crate::config::{SimConfig, TickPhase};
use crate::ids::{node_ids, NodeId};
use crate::queue::{order_key, EventQueue, LaneScheduler, ReadyBatch};
use crate::rng::Xoshiro256pp;
use crate::shard::pipeline::Core;
use crate::shard::ShardPlan;
use crate::time::{SimDuration, SimTime};

/// Stream-id namespace of per-node engine randomness (tick phases, drop
/// decisions attributed to the sending node).
const STREAM_ENGINE_NODE: u64 = 1 << 40;
/// Stream-id namespace of per-node protocol randomness ([`SimApi::rng`] in
/// node-scoped callbacks).
const STREAM_PROTO_NODE: u64 = 2 << 40;
/// Stream id of the global protocol stream ([`SimApi::rng`] in the
/// sampling/injection callbacks, which are not tied to one node).
const STREAM_PROTO_GLOBAL: u64 = 3 << 40;

/// How many lane places ahead of the current batch the engine prefetches
/// (see the [module docs](self#lookahead)).
pub const LOOKAHEAD: usize = 16;

/// Smallest block (in nodes) that runs the lookahead. Measured serially
/// on `sim_big_churn`'s replica (push gossip, randomized 5/10, smartphone
/// churn, ~3M events) at each n on a 2-vCPU VM, six alternating pairs,
/// median ns per event without → with the hints: n = 2,000: 121 → 141;
/// 5,000: 132 → 160; 10,000: 166 → 175; 20,000: 231 → 193; 40,000:
/// 326 → 232; 100,000: 410 → 324. Break-even lies between 10k and 20k,
/// where the per-node arrays outgrow L2; the gate sits in the winning
/// range with a margin, and keeps the cache-resident `sim_paper_grid`
/// replicas (n = 2,000) off the hints.
pub const LOOKAHEAD_FROM_NODES: usize = 1 << 15;

/// Asks the cache for `slice[index]` ahead of its use: one `_mm_prefetch`
/// into every level on x86-64, nothing elsewhere or out of bounds. A
/// hint, never a read: it cannot fault and changes no result.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(slot) = slice.get(index) {
        // SAFETY: a prefetch of any address is architecturally harmless;
        // this one is a live element besides.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                (slot as *const T).cast(),
            )
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

/// The engine stream of `node`.
#[inline]
fn engine_stream(seed: u64, node: usize) -> Xoshiro256pp {
    Xoshiro256pp::stream(seed, STREAM_ENGINE_NODE | node as u64)
}

/// The protocol stream of `node`.
#[inline]
fn proto_stream(seed: u64, node: usize) -> Xoshiro256pp {
    Xoshiro256pp::stream(seed, STREAM_PROTO_NODE | node as u64)
}

/// The global protocol stream (sample/inject callbacks).
#[inline]
fn proto_global_stream(seed: u64) -> Xoshiro256pp {
    Xoshiro256pp::stream(seed, STREAM_PROTO_GLOBAL)
}

/// Online-set bookkeeping of a kernel: a flag vector plus a dense list
/// (swap-removed) for O(1) uniform sampling. The *list order* is
/// observable through [`SimApi::random_online_node`], so the update
/// discipline is part of the byte-identical-results contract.
#[derive(Debug, Clone)]
struct OnlineSet {
    flags: Vec<bool>,
    list: Vec<NodeId>,
    /// Position of each node in `list` (`u32::MAX` when offline).
    pos: Vec<u32>,
}

impl OnlineSet {
    fn new(n: usize) -> Self {
        OnlineSet {
            flags: vec![false; n],
            list: Vec::with_capacity(n),
            pos: vec![u32::MAX; n],
        }
    }

    #[inline]
    fn is_online(&self, node: NodeId) -> bool {
        self.flags[node.index()]
    }

    #[inline]
    fn count(&self) -> usize {
        self.list.len()
    }

    #[inline]
    fn list(&self) -> &[NodeId] {
        &self.list
    }

    fn set(&mut self, node: NodeId, up: bool) {
        let idx = node.index();
        if self.flags[idx] == up {
            return;
        }
        self.flags[idx] = up;
        if up {
            self.pos[idx] = self.list.len() as u32;
            self.list.push(node);
        } else {
            let pos = self.pos[idx];
            let last = *self.list.last().expect("online list underflow");
            self.list.swap_remove(pos as usize);
            if (pos as usize) < self.list.len() {
                self.pos[last.index()] = pos;
            }
            self.pos[idx] = u32::MAX;
        }
    }
}

/// Provides per-node availability (churn) information to the engine.
///
/// Implemented by `ta-churn`'s trace schedules; [`AlwaysOn`] is the trivial
/// failure-free model.
pub trait AvailabilityModel {
    /// Whether `node` is online at simulation start.
    fn initially_online(&self, node: NodeId) -> bool;

    /// Visits the up/down transitions of `node`, as `(time, goes_online)`
    /// pairs in strictly increasing time order, consistent with
    /// [`initially_online`](Self::initially_online) (states must
    /// alternate). This is the allocation-free path the engine uses at
    /// setup: implementations backed by stored schedules stream their
    /// slices directly instead of cloning one `Vec` per node.
    fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool));

    /// The transitions of `node` as an owned vector (convenience wrapper
    /// over [`for_each_transition`](Self::for_each_transition)).
    fn transitions(&self, node: NodeId) -> Vec<(SimTime, bool)> {
        let mut out = Vec::new();
        self.for_each_transition(node, &mut |time, up| out.push((time, up)));
        out
    }
}

/// The failure-free availability model: every node is online throughout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysOn;

impl AvailabilityModel for AlwaysOn {
    fn initially_online(&self, _node: NodeId) -> bool {
        true
    }

    fn for_each_transition(&self, _node: NodeId, _f: &mut dyn FnMut(SimTime, bool)) {}
}

/// Protocol callbacks invoked by the engine.
///
/// A driver serves one **block** of nodes: the whole network under
/// [`Simulation`], one contiguous slice of it per shard under
/// [`crate::shard::ShardedSimulation`]. Node-scoped callbacks (tick,
/// delivery, timer) only ever name nodes of the block; churn transitions
/// are reported for *every* node, so a driver that keeps per-node state
/// checks [`SimApi::owns`] before touching it.
///
/// All methods receive a [`SimApi`] giving access to the clock, the RNG, the
/// online set, and message sending. Default implementations ignore the
/// event, so simple drivers implement only what they need.
pub trait Driver {
    /// Message payload carried between nodes.
    type Msg;

    /// A round tick fired at an online node (one token-granting period Δ
    /// elapsed for this node).
    fn on_round_tick(&mut self, api: &mut SimApi<'_, Self::Msg>, node: NodeId);

    /// A message arrived at online node `to` (`from` may live in any
    /// block).
    fn on_message(
        &mut self,
        api: &mut SimApi<'_, Self::Msg>,
        from: NodeId,
        to: NodeId,
        msg: Self::Msg,
    );

    /// `node` came online. Fired on every block for every node: update
    /// full-network mirrors unconditionally, and run node-scoped reactions
    /// (which may draw randomness and send) only when
    /// [`api.owns(node)`](SimApi::owns) — always true under
    /// [`Simulation`].
    fn on_node_up(&mut self, api: &mut SimApi<'_, Self::Msg>, node: NodeId) {
        let _ = (api, node);
    }

    /// `node` went offline (same ownership contract as
    /// [`on_node_up`](Self::on_node_up)).
    fn on_node_down(&mut self, api: &mut SimApi<'_, Self::Msg>, node: NodeId) {
        let _ = (api, node);
    }

    /// Periodic metric sampling hook (enabled via
    /// [`SimConfigBuilder::sample_period`](crate::config::SimConfigBuilder::sample_period)),
    /// fired in the engine-global context: [`SimApi::rng`] is the global
    /// stream.
    fn on_sample(&mut self, api: &mut SimApi<'_, Self::Msg>) {
        let _ = api;
    }

    /// Periodic injection hook (enabled via
    /// [`SimConfigBuilder::injection_period`](crate::config::SimConfigBuilder::injection_period)),
    /// fired in the engine-global context; it may send from any node.
    fn on_inject(&mut self, api: &mut SimApi<'_, Self::Msg>) {
        let _ = api;
    }

    /// A one-shot timer scheduled through [`SimApi::schedule_timer`] fired
    /// at the node that scheduled it.
    fn on_timer(&mut self, api: &mut SimApi<'_, Self::Msg>, token: u64) {
        let _ = (api, token);
    }

    /// A tick or a delivery at `node` (a node of the block) is a few
    /// dozen events away: start loading the state its callback will touch
    /// (see [`prefetch`]). Called only on blocks of at least
    /// [`LOOKAHEAD_FROM_NODES`] nodes. A hint, never a read that changes
    /// results — it must not change state, draw randomness or send; the
    /// default does nothing.
    #[inline]
    fn prefetch(&self, node: NodeId) {
        let _ = node;
    }
}

/// Counters accumulated over a run.
///
/// A passive data record: all fields are public.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages passed to [`SimApi::send`].
    pub messages_sent: u64,
    /// Messages delivered to an online destination.
    pub messages_delivered: u64,
    /// Messages lost because the destination was offline at delivery time.
    pub messages_lost_offline: u64,
    /// Messages dropped by fault injection.
    pub messages_dropped_fault: u64,
    /// Round ticks delivered to drivers.
    pub ticks_fired: u64,
    /// Stale ticks discarded after churn transitions.
    pub ticks_stale: u64,
    /// Sampling callbacks fired.
    pub samples: u64,
    /// Injection callbacks fired.
    pub injections: u64,
    /// Total events processed.
    pub events_processed: u64,
}

impl SimStats {
    /// Accumulates another run's (or shard's) counters into this one.
    pub fn merge(&mut self, other: &SimStats) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_lost_offline += other.messages_lost_offline;
        self.messages_dropped_fault += other.messages_dropped_fault;
        self.ticks_fired += other.ticks_fired;
        self.ticks_stale += other.ticks_stale;
        self.samples += other.samples;
        self.injections += other.injections;
        self.events_processed += other.events_processed;
    }
}

/// Event payload of an engine's queue. The engine-global sample/inject
/// trains live with the run's coordinator, never in a queue.
#[derive(Debug)]
pub(crate) enum Ev<M> {
    Tick { node: NodeId, epoch: u32 },
    Deliver { from: NodeId, to: NodeId, msg: M },
    Up(NodeId),
    Down(NodeId),
    Timer { node: NodeId, token: u64 },
}

/// A delivery addressed outside the sending block, waiting in the
/// sender's outbox for the next mailbox deposit.
#[derive(Debug)]
pub(crate) struct OutMsg<M> {
    pub(crate) time: SimTime,
    pub(crate) key: u64,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

/// Whose callback is running: selects the stream [`SimApi::rng`] hands
/// out and the origin of [`SimApi::schedule_timer`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ctx {
    /// A callback scoped to a node of the block.
    Node(NodeId),
    /// A churn notification for a node of another block: the driver may
    /// update mirrors but must not draw randomness or send.
    Remote,
    /// A sample/inject callback, fired with every block quiescent.
    Global,
}

/// The state of one block of nodes `lo..hi`, shared with the driver during
/// callbacks through [`SimApi`]: the block's slice of streams, counters and
/// tick epochs, plus a full replica of the online bookkeeping (churn is
/// statically known, so every block replays all of it). The whole network
/// is the block `0..n`, whose outbox stays empty.
///
/// Deliberately does *not* own the event queue: callbacks append new events
/// to the `pending` buffer and the engine flushes it into its queue after
/// each same-time batch, while the queue's clock still stands at the batch
/// instant — which is what lets the scheduler read each push's delay off
/// its time. Scheduled events carry their `(origin, counter)` keys from the
/// moment they are created, so the flush order is irrelevant to the
/// observable event order.
pub(crate) struct Kernel<M> {
    pub(crate) plan: Arc<ShardPlan>,
    /// First node of the owned range `lo..lo + counters.len()` (the dense
    /// per-node vectors are offset by it).
    lo: usize,
    cfg: SimConfig,
    pub(crate) now: SimTime,
    /// Events scheduled during the current batch; flushed before the next
    /// queue drain. Capacity is reused across batches: steady-state, the
    /// hot path does not allocate.
    pending: Vec<(SimTime, u64, Ev<M>)>,
    pub(crate) outbox: Vec<OutMsg<M>>,
    /// Sends a barrier callback made on behalf of another block's node;
    /// the coordinator replays each on its owner's kernel.
    pub(crate) foreign: Vec<(NodeId, NodeId, M)>,
    /// Per-node engine randomness (tick phases; drop decisions charged to
    /// the sending node). Per-node streams keep engine decisions
    /// independent of cross-node event interleaving.
    engine_rngs: Vec<Xoshiro256pp>,
    /// Per-node protocol randomness: [`SimApi::rng`] in a callback scoped
    /// to node `v` (tick, delivery, churn) yields stream `v`.
    proto_rngs: Vec<Xoshiro256pp>,
    /// Protocol randomness of the sample/inject callbacks, which are not
    /// tied to one node (consumed on the first block's kernel only).
    proto_global: Xoshiro256pp,
    /// Per-node schedule counters: the `counter` half of
    /// [`order_key`]. Incremented every time the node originates an event.
    counters: Vec<u64>,
    /// Tick epoch per node; stale ticks carry an older epoch.
    tick_epoch: Vec<u32>,
    /// Full online mirror (all nodes), exact at every instant.
    online: OnlineSet,
    pub(crate) ctx: Ctx,
    pub(crate) stats: SimStats,
}

impl<M> Kernel<M> {
    /// Prefetches the engine's per-node state of `node` (a node of the
    /// block): its protocol stream, key counter, tick epoch and online flag.
    #[inline]
    fn prefetch(&self, node: NodeId) {
        let local = node.index().wrapping_sub(self.lo);
        prefetch(&self.proto_rngs, local);
        prefetch(&self.counters, local);
        prefetch(&self.tick_epoch, local);
        prefetch(&self.online.flags, node.index());
    }

    /// One compare: a node below `lo` wraps far past any block length.
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        node.index().wrapping_sub(self.lo) < self.counters.len()
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        debug_assert!(self.owns(node), "node {node} is outside this block");
        node.index() - self.lo
    }

    /// Consumes the next schedule counter of `node`, returning the packed
    /// event key.
    #[inline]
    fn next_key(&mut self, node: NodeId) -> u64 {
        let local = self.local(node);
        let c = &mut self.counters[local];
        let key = order_key(node.raw(), *c);
        *c += 1;
        key
    }

    /// The tick phasing draw: uniform in `(0, Δ]` (keeps the long-run
    /// grant rate at 1/Δ) or the synchronized lockstep.
    fn tick_delay(&mut self, node: NodeId) -> SimDuration {
        let delta = self.cfg.delta();
        match self.cfg.tick_phase() {
            TickPhase::Synchronized => delta,
            TickPhase::UniformRandom => {
                let local = self.local(node);
                SimDuration::from_micros(self.engine_rngs[local].below(delta.as_micros()) + 1)
            }
        }
    }

    fn schedule_tick(&mut self, node: NodeId, delay: SimDuration) {
        let epoch = self.tick_epoch[self.local(node)];
        let key = self.next_key(node);
        self.pending
            .push((self.now + delay, key, Ev::Tick { node, epoch }));
    }

    /// The protocol stream of the current callback context.
    #[inline]
    fn ctx_rng(&mut self) -> &mut Xoshiro256pp {
        match self.ctx {
            Ctx::Node(node) => {
                let local = self.local(node);
                &mut self.proto_rngs[local]
            }
            Ctx::Global => &mut self.proto_global,
            Ctx::Remote => panic!(
                "SimApi::rng is not available in a churn callback for a node \
                 of another block (its stream lives with its owner)"
            ),
        }
    }

    /// [`SimApi::send`]: the key and the drop decision belong to `from`'s
    /// counter and engine stream; where the delivery waits depends only on
    /// whether `to` is inside the block.
    pub(crate) fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let local = from.index().wrapping_sub(self.lo);
        if local >= self.counters.len() {
            debug_assert!(
                matches!(self.ctx, Ctx::Global),
                "driver sent from node {from}, which this block does not own"
            );
            self.foreign.push((from, to, msg));
            return;
        }
        self.stats.messages_sent += 1;
        let p = self.cfg.drop_probability();
        if p > 0.0 && self.engine_rngs[local].chance(p) {
            self.stats.messages_dropped_fault += 1;
            return;
        }
        let time = self.now + self.cfg.transfer_time();
        let key = order_key(from.raw(), self.counters[local]);
        self.counters[local] += 1;
        if self.owns(to) {
            self.pending
                .push((time, key, Ev::Deliver { from, to, msg }));
        } else {
            self.outbox.push(OutMsg {
                time,
                key,
                from,
                to,
                msg,
            });
        }
    }
}

/// The engine-facing API handed to [`Driver`] callbacks.
pub struct SimApi<'a, M> {
    pub(crate) kernel: &'a mut Kernel<M>,
}

impl<M> std::fmt::Debug for SimApi<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimApi")
            .field("first_node", &self.kernel.lo)
            .field("nodes", &self.kernel.counters.len())
            .field("now", &self.kernel.now)
            .field("online", &self.kernel.online.count())
            .finish()
    }
}

impl<'a, M> SimApi<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Network size (the whole network, not the driver's block).
    #[inline]
    pub fn n(&self) -> usize {
        self.kernel.cfg.n()
    }

    /// The simulation configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.kernel.cfg
    }

    /// The node partition of this run (one block under [`Simulation`]).
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.kernel.plan
    }

    /// Whether `node` belongs to the block this driver serves.
    #[inline]
    pub fn owns(&self, node: NodeId) -> bool {
        self.kernel.owns(node)
    }

    /// Whether `node` (any node, owned or not) is currently online.
    #[inline]
    pub fn is_online(&self, node: NodeId) -> bool {
        self.kernel.online.is_online(node)
    }

    /// Number of currently online nodes network-wide.
    #[inline]
    pub fn online_count(&self) -> usize {
        self.kernel.online.count()
    }

    /// The currently online nodes (unspecified order, but the same order
    /// for every shard count).
    #[inline]
    pub fn online_nodes(&self) -> &[NodeId] {
        self.kernel.online.list()
    }

    /// Protocol random number generator (deterministic per seed).
    ///
    /// In a node-scoped callback (tick, delivery, timer, churn of an owned
    /// node) this is the *per-node* stream of that node; in sample/inject
    /// callbacks it is the global stream. Per-node streams make protocol
    /// randomness independent of how same-time events at other nodes
    /// interleave — the property the shard-count invariance rests on.
    ///
    /// # Panics
    ///
    /// Panics in a churn callback for a node of another block
    /// ([`owns`](Self::owns) is false): that node's stream lives with its
    /// owner.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256pp {
        self.kernel.ctx_rng()
    }

    /// Draws a uniformly random online node (network-wide), or `None` if
    /// all are offline.
    pub fn random_online_node(&mut self) -> Option<NodeId> {
        let count = self.kernel.online.count();
        if count == 0 {
            return None;
        }
        let i = self.kernel.ctx_rng().below(count as u64) as usize;
        Some(self.kernel.online.list()[i])
    }

    /// Sends `msg` from `from` to `to`; it arrives `transfer_time` later if
    /// `to` is online at that instant. `to` may live in any block; `from`
    /// must be a node of this one, except in sample/inject callbacks, which
    /// may send on behalf of any node.
    #[inline]
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.kernel.send(from, to, msg);
    }

    /// Schedules [`Driver::on_timer`] with `token` after `delay`, at the
    /// node whose callback is running.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero: a zero-delay timer could fire "before"
    /// already-processed same-instant events, which would break the
    /// engine's deterministic tie order. Panics outside a node-scoped
    /// callback (sample/inject, churn of a node of another block): a timer
    /// belongs to a node.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: u64) {
        assert!(!delay.is_zero(), "timer delay must be positive");
        let Ctx::Node(node) = self.kernel.ctx else {
            panic!("timers can only be scheduled from a node's own callback");
        };
        let key = self.kernel.next_key(node);
        self.kernel
            .pending
            .push((self.kernel.now + delay, key, Ev::Timer { node, token }));
    }

    /// Statistics accumulated so far (this block's share under
    /// [`crate::shard::ShardedSimulation`]).
    #[inline]
    pub fn stats(&self) -> &SimStats {
        &self.kernel.stats
    }
}

/// One block's event loop: kernel + scheduler + driver.
pub(crate) struct Engine<D: Driver> {
    pub(crate) kernel: Kernel<D::Msg>,
    pub(crate) queue: LaneScheduler<Ev<D::Msg>>,
    pub(crate) driver: D,
    /// The same-time run currently being dispatched, drained from the
    /// queue in one [`EventQueue::drain_ready_before`] call.
    batch: ReadyBatch<Ev<D::Msg>>,
    /// Whether the block is large enough for the lookahead
    /// ([`LOOKAHEAD_FROM_NODES`]).
    lookahead: bool,
    /// Batch/window/mailbox self-profiling (no-op unless `TA_PROFILE=1`
    /// or forced on).
    pub(crate) profile: Profile,
}

impl<D: Driver> Engine<D> {
    /// Builds the engine of block `shard` of `plan`: the full initial
    /// online set, every node's churn transitions, and the first tick of
    /// each owned online node.
    pub(crate) fn new(
        plan: &Arc<ShardPlan>,
        shard: usize,
        cfg: &SimConfig,
        availability: &dyn AvailabilityModel,
        driver: D,
    ) -> Self {
        let n = cfg.n();
        let seed = cfg.seed();
        let range = plan.range(shard);
        let mut kernel = Kernel {
            plan: Arc::clone(plan),
            lo: range.start,
            cfg: cfg.clone(),
            now: SimTime::ZERO,
            pending: Vec::with_capacity(64),
            outbox: Vec::new(),
            foreign: Vec::new(),
            engine_rngs: range.clone().map(|i| engine_stream(seed, i)).collect(),
            proto_rngs: range.clone().map(|i| proto_stream(seed, i)).collect(),
            proto_global: proto_global_stream(seed),
            counters: vec![0; range.len()],
            tick_epoch: vec![0; range.len()],
            online: OnlineSet::new(n),
            ctx: Ctx::Remote,
            stats: SimStats::default(),
        };

        // Initial online set, then per-node schedules. The per-node order —
        // all of a node's churn transitions, then its first tick — pins the
        // node's counter assignment; because keys and streams are per-node,
        // every partition reproduces the identical schedule. Every block
        // replays every node's churn (so its mirror stays exact), but only
        // owned nodes get ticks and a stored counter.
        for node in node_ids(n) {
            if availability.initially_online(node) {
                kernel.online.set(node, true);
            }
        }
        for node in node_ids(n) {
            let mut counter = 0;
            availability.for_each_transition(node, &mut |time, up| {
                let key = order_key(node.raw(), counter);
                counter += 1;
                let ev = if up { Ev::Up(node) } else { Ev::Down(node) };
                kernel.pending.push((time, key, ev));
            });
            if kernel.owns(node) {
                let local = kernel.local(node);
                kernel.counters[local] = counter;
            }
        }
        for node in range.clone().map(NodeId::from_index) {
            if kernel.online.is_online(node) {
                let delay = kernel.tick_delay(node);
                kernel.schedule_tick(node, delay);
            }
        }
        let mut engine = Engine {
            kernel,
            queue: LaneScheduler::with_delays([cfg.delta(), cfg.transfer_time()]),
            driver,
            batch: ReadyBatch::new(),
            lookahead: range.len() >= LOOKAHEAD_FROM_NODES,
            profile: Profile::from_env(),
        };
        engine.flush_pending();
        engine
    }

    /// Moves buffered schedules into the queue, telling the profile how
    /// many a lane took and how many fell back to the heap (no pop runs in
    /// between, so the heap's growth is the fallback count).
    #[inline]
    pub(crate) fn flush_pending(&mut self) {
        let (total, before) = (self.kernel.pending.len(), self.queue.fallback_len());
        for (time, key, ev) in self.kernel.pending.drain(..) {
            self.queue.push_keyed(time, key, ev);
        }
        self.profile
            .pushes(total, self.queue.fallback_len() - before);
    }

    /// Events not yet processed (diagnostic).
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len() + self.kernel.pending.len()
    }

    /// Processes all events with `time <= until`, then parks the clock at
    /// `until`.
    ///
    /// The batch-drain event loop: one bounded queue drain hands out the
    /// whole earliest same-time run (no peek-then-pop double traversal),
    /// the clock advances once per run, and the deferred-push buffer
    /// flushes once per run. Every event scheduled during a dispatch lies
    /// strictly after the batch instant (all delays are positive), so
    /// consuming the run without re-consulting the queue is exact.
    pub(crate) fn run_until(&mut self, until: SimTime) {
        loop {
            self.queue.drain_ready_before(until, &mut self.batch);
            let Some(t) = self.batch.time() else { break };
            if self.lookahead {
                self.prefetch_ahead();
            }
            debug_assert!(t >= self.kernel.now, "time went backwards");
            self.kernel.now = t;
            self.kernel.stats.events_processed += self.batch.len() as u64;
            self.profile.batch(self.batch.len());
            self.consume_batch();
            self.flush_pending();
        }
        if until > self.kernel.now {
            self.kernel.now = until;
        }
    }

    /// Prefetches the state of the node of the entry [`LOOKAHEAD`] places
    /// ahead in each lane (the module's [lookahead](self#lookahead)).
    #[inline]
    fn prefetch_ahead(&self) {
        for (_, _, ev) in self.queue.lookahead(LOOKAHEAD).into_iter().flatten() {
            let node = match *ev {
                Ev::Tick { node, .. } => node,
                Ev::Deliver { to, .. } => to,
                _ => continue,
            };
            self.kernel.prefetch(node);
            self.driver.prefetch(node);
        }
    }

    /// Dispatches the drained batch, one event at a time in key order.
    fn consume_batch(&mut self) {
        let mut entries = std::mem::take(&mut self.batch.entries);
        for (_, _, ev) in entries.drain(..) {
            self.dispatch(ev);
        }
        self.batch.entries = entries;
    }

    fn dispatch(&mut self, ev: Ev<D::Msg>) {
        match ev {
            Ev::Tick { node, epoch } => {
                if self.kernel.tick_epoch[self.kernel.local(node)] != epoch {
                    self.kernel.stats.ticks_stale += 1;
                    return;
                }
                debug_assert!(self.kernel.online.is_online(node));
                self.kernel.stats.ticks_fired += 1;
                self.kernel.ctx = Ctx::Node(node);
                let mut api = SimApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_round_tick(&mut api, node);
                // Next tick, same epoch (cancelled if the node churns).
                let delta = self.kernel.cfg.delta();
                self.kernel.schedule_tick(node, delta);
            }
            Ev::Deliver { from, to, msg } => {
                if !self.kernel.online.is_online(to) {
                    self.kernel.stats.messages_lost_offline += 1;
                    return;
                }
                self.kernel.stats.messages_delivered += 1;
                self.kernel.ctx = Ctx::Node(to);
                let mut api = SimApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_message(&mut api, from, to, msg);
            }
            Ev::Up(node) => self.churn(node, true),
            Ev::Down(node) => self.churn(node, false),
            Ev::Timer { node, token } => {
                self.kernel.ctx = Ctx::Node(node);
                let mut api = SimApi {
                    kernel: &mut self.kernel,
                };
                self.driver.on_timer(&mut api, token);
            }
        }
    }

    /// One churn transition: every block applies it to its online mirror
    /// and tells its driver; the owning block also restarts (or cancels)
    /// the node's ticks.
    fn churn(&mut self, node: NodeId, up: bool) {
        let k = &mut self.kernel;
        let owned = k.owns(node);
        if !owned {
            // Replayed here only to keep the mirror exact: the merged
            // `events_processed` counts a transition once, at its owner.
            k.stats.events_processed -= 1;
        }
        if k.online.is_online(node) == up {
            return; // duplicate transition; ignore
        }
        k.online.set(node, up);
        if owned {
            let local = k.local(node);
            k.tick_epoch[local] += 1;
            if up {
                let delay = k.tick_delay(node);
                k.schedule_tick(node, delay);
            }
            k.ctx = Ctx::Node(node);
        } else {
            k.ctx = Ctx::Remote;
        }
        let mut api = SimApi { kernel: k };
        if up {
            self.driver.on_node_up(&mut api, node);
        } else {
            self.driver.on_node_down(&mut api, node);
        }
    }
}

/// A configured simulation run on one block: the engine for the whole
/// network `0..n` plus its driver, executed on the calling thread.
pub struct Simulation<D: Driver> {
    core: Core<D>,
}

/// The whole network is one block: it samples and injects for itself.
fn whole_sample<D: Driver>(blocks: &mut [&mut D], api: &mut SimApi<'_, D::Msg>) {
    blocks[0].on_sample(api);
}

fn whole_inject<D: Driver>(blocks: &mut [&mut D], api: &mut SimApi<'_, D::Msg>) {
    blocks[0].on_inject(api);
}

impl<D: Driver> Simulation<D> {
    /// Builds a simulation over `availability` with the given driver.
    ///
    /// Schedules initial round ticks for initially-online nodes, all churn
    /// transitions, and the sampling/injection trains if configured.
    pub fn new(cfg: SimConfig, availability: &dyn AvailabilityModel, driver: D) -> Self {
        let plan = ShardPlan::new(cfg.n(), 1);
        Simulation {
            core: Core::new(
                cfg,
                availability,
                plan,
                vec![driver],
                (whole_sample::<D>, whole_inject::<D>),
            ),
        }
    }

    /// Runs until the configured duration is reached (or the queue drains).
    pub fn run_to_end(&mut self) {
        self.core.run_whole_to_end();
    }

    /// Processes all events with `time <= until`, advancing the clock to
    /// `until`.
    ///
    /// Can be called repeatedly with increasing horizons to interleave
    /// simulation with external observation.
    pub fn run_until(&mut self, until: SimTime) {
        self.core.run_whole(until);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.core.engines[0].kernel.stats
    }

    /// The driver (protocol state), for inspection.
    pub fn driver(&self) -> &D {
        &self.core.engines[0].driver
    }

    /// Mutable access to the driver between run segments.
    pub fn driver_mut(&mut self) -> &mut D {
        &mut self.core.engines[0].driver
    }

    /// Consumes the simulation, returning the driver and final statistics.
    pub fn into_parts(self) -> (D, SimStats) {
        let (mut blocks, stats) = self.core.into_blocks();
        (blocks.pop().expect("the whole network is one block"), stats)
    }

    /// Self-profiling totals (empty unless profiling is enabled).
    pub fn profile(&self) -> &Profile {
        &self.core.engines[0].profile
    }

    /// Forces self-profiling on or off for this simulation, overriding
    /// the `TA_PROFILE` environment default (benches force it on for
    /// dedicated collection runs so measured runs stay untouched).
    pub fn set_profiling(&mut self, enabled: bool) {
        self.core.set_profiling(enabled);
    }

    /// Number of pending events (diagnostic).
    pub fn pending_events(&self) -> usize {
        self.core.pending_events()
    }

    /// Whether `run_to_end` has completed.
    pub fn is_finished(&self) -> bool {
        self.core.finished
    }

    /// Engine state, for in-crate tests.
    #[cfg(test)]
    fn kernel(&self) -> &Kernel<D::Msg> {
        &self.core.engines[0].kernel
    }
}

impl<D: Driver + std::fmt::Debug> std::fmt::Debug for Simulation<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("pending", &self.pending_events())
            .field("stats", self.stats())
            .field("driver", self.driver())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    /// Counts everything; replies to every message once.
    #[derive(Debug, Default)]
    struct Echo {
        ticks: Vec<(SimTime, NodeId)>,
        received: Vec<(SimTime, NodeId, NodeId, u32)>,
        ups: Vec<NodeId>,
        downs: Vec<NodeId>,
        samples: Vec<SimTime>,
        injections: u64,
        timers: Vec<u64>,
    }

    impl Driver for Echo {
        type Msg = u32;
        fn on_round_tick(&mut self, api: &mut SimApi<'_, u32>, node: NodeId) {
            self.ticks.push((api.now(), node));
        }
        fn on_message(&mut self, api: &mut SimApi<'_, u32>, from: NodeId, to: NodeId, msg: u32) {
            self.received.push((api.now(), from, to, msg));
        }
        fn on_node_up(&mut self, _api: &mut SimApi<'_, u32>, node: NodeId) {
            self.ups.push(node);
        }
        fn on_node_down(&mut self, _api: &mut SimApi<'_, u32>, node: NodeId) {
            self.downs.push(node);
        }
        fn on_sample(&mut self, api: &mut SimApi<'_, u32>) {
            self.samples.push(api.now());
        }
        fn on_inject(&mut self, _api: &mut SimApi<'_, u32>) {
            self.injections += 1;
        }
        fn on_timer(&mut self, _api: &mut SimApi<'_, u32>, token: u64) {
            self.timers.push(token);
        }
    }

    fn small_cfg(n: usize) -> SimConfig {
        SimConfig::builder(n)
            .delta(SimDuration::from_secs(10))
            .transfer_time(SimDuration::from_secs(1))
            .duration(SimDuration::from_secs(100))
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn every_online_node_ticks_once_per_delta() {
        let cfg = small_cfg(5);
        let mut sim = Simulation::new(cfg, &AlwaysOn, Echo::default());
        sim.run_to_end();
        // 100 s horizon, Δ = 10 s, first tick within (0, Δ] ⇒ 9 or 10 ticks.
        let echo = sim.driver();
        for node in node_ids(5) {
            let count = echo.ticks.iter().filter(|&&(_, id)| id == node).count();
            assert!((9..=10).contains(&count), "node {node}: {count} ticks");
        }
        assert_eq!(sim.stats().ticks_fired, echo.ticks.len() as u64);
    }

    #[test]
    fn synchronized_phase_ticks_at_multiples_of_delta() {
        let cfg = SimConfig::builder(3)
            .delta(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(30))
            .tick_phase(TickPhase::Synchronized)
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, Echo::default());
        sim.run_to_end();
        for &(t, _) in &sim.driver().ticks {
            assert_eq!(t.as_micros() % 10_000_000, 0, "tick at {t}");
        }
        // 3 nodes × ticks at 10, 20, 30 s.
        assert_eq!(sim.driver().ticks.len(), 9);
    }

    #[test]
    fn synchronized_same_tick_events_fire_in_node_order() {
        // All nodes tick at the same instants; the canonical tie order is
        // by origin node id (then per-origin counter).
        let cfg = SimConfig::builder(4)
            .delta(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(20))
            .tick_phase(TickPhase::Synchronized)
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, Echo::default());
        sim.run_to_end();
        let ticks = &sim.driver().ticks;
        assert_eq!(ticks.len(), 8);
        for (i, &(t, node)) in ticks.iter().enumerate() {
            assert_eq!(node.index(), i % 4, "tick {i} at {t} out of node order");
        }
    }

    #[test]
    fn messages_arrive_after_transfer_time() {
        struct OneShot;
        impl Driver for OneShot {
            type Msg = u32;
            fn on_round_tick(&mut self, api: &mut SimApi<'_, u32>, node: NodeId) {
                if node.index() == 0 && api.now() < SimTime::from_secs(15) {
                    api.send(node, NodeId::new(1), 42);
                }
            }
            fn on_message(
                &mut self,
                api: &mut SimApi<'_, u32>,
                from: NodeId,
                to: NodeId,
                msg: u32,
            ) {
                assert_eq!(from, NodeId::new(0));
                assert_eq!(to, NodeId::new(1));
                assert_eq!(msg, 42);
                // Delivery exactly transfer_time after a tick fired.
                assert_eq!(api.now().as_micros() % 1_000_000, 0);
            }
        }
        let cfg = SimConfig::builder(2)
            .delta(SimDuration::from_secs(10))
            .transfer_time(SimDuration::from_secs(1))
            .duration(SimDuration::from_secs(40))
            .tick_phase(TickPhase::Synchronized)
            .seed(3)
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, OneShot);
        sim.run_to_end();
        assert_eq!(sim.stats().messages_sent, 1);
        assert_eq!(sim.stats().messages_delivered, 1);
    }

    /// Availability with explicit transition lists.
    struct Scripted {
        initial: Vec<bool>,
        trans: Vec<Vec<(SimTime, bool)>>,
    }

    impl AvailabilityModel for Scripted {
        fn initially_online(&self, node: NodeId) -> bool {
            self.initial[node.index()]
        }
        fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool)) {
            for &(time, up) in &self.trans[node.index()] {
                f(time, up);
            }
        }
    }

    #[test]
    fn transitions_default_wrapper_collects() {
        let avail = Scripted {
            initial: vec![true],
            trans: vec![vec![
                (SimTime::from_secs(5), false),
                (SimTime::from_secs(9), true),
            ]],
        };
        assert_eq!(
            avail.transitions(NodeId::new(0)),
            vec![
                (SimTime::from_secs(5), false),
                (SimTime::from_secs(9), true)
            ]
        );
        assert!(AlwaysOn.transitions(NodeId::new(0)).is_empty());
    }

    #[test]
    fn churn_transitions_fire_and_suspend_ticks() {
        // Node 1 goes down at 25 s and up again at 65 s.
        let avail = Scripted {
            initial: vec![true, true],
            trans: vec![
                vec![],
                vec![
                    (SimTime::from_secs(25), false),
                    (SimTime::from_secs(65), true),
                ],
            ],
        };
        let cfg = small_cfg(2);
        let mut sim = Simulation::new(cfg, &avail, Echo::default());
        sim.run_to_end();
        let echo = sim.driver();
        assert_eq!(echo.downs, vec![NodeId::new(1)]);
        assert_eq!(echo.ups, vec![NodeId::new(1)]);
        // No tick for node 1 in the offline window [25, 65]: the Down
        // transition's key (assigned at setup, before any tick of that
        // node) precedes every tick's, so even a tick scheduled for
        // exactly 25 s is stale by the time it fires, and the first
        // post-rejoin tick lands strictly after 65 s.
        for &(t, id) in &echo.ticks {
            if id == NodeId::new(1) {
                let s = t.as_secs_f64();
                assert!(!(25.0..=65.0).contains(&s), "tick for offline node at {t}");
            }
        }
        assert!(
            sim.stats().ticks_stale > 0,
            "stale tick should be discarded"
        );
    }

    #[test]
    fn delivery_to_offline_node_is_lost() {
        struct SendToDead;
        impl Driver for SendToDead {
            type Msg = ();
            fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, node: NodeId) {
                // Node 1 is down from t=0; all sends must be lost.
                api.send(node, NodeId::new(1), ());
            }
            fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {
                panic!("offline node received a message");
            }
        }
        let avail = Scripted {
            initial: vec![true, false],
            trans: vec![vec![], vec![]],
        };
        let cfg = small_cfg(2);
        let mut sim = Simulation::new(cfg, &avail, SendToDead);
        sim.run_to_end();
        assert!(sim.stats().messages_sent > 0);
        assert_eq!(sim.stats().messages_delivered, 0);
        assert_eq!(sim.stats().messages_lost_offline, sim.stats().messages_sent);
    }

    #[test]
    fn sampling_and_injection_trains() {
        let cfg = SimConfig::builder(1)
            .delta(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(100))
            .sample_period(SimDuration::from_secs(10))
            .injection_period(SimDuration::from_secs(25))
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, Echo::default());
        sim.run_to_end();
        // Samples at 10,20,...,100 ⇒ 10 samples; injections at 25,50,75,100.
        assert_eq!(sim.driver().samples.len(), 10);
        assert_eq!(sim.driver().injections, 4);
    }

    #[test]
    fn timers_fire_once() {
        struct TimerOnce {
            fired: Vec<(SimTime, u64)>,
        }
        impl Driver for TimerOnce {
            type Msg = ();
            fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, _node: NodeId) {
                if self.fired.is_empty() && api.now() <= SimTime::from_secs(15) {
                    api.schedule_timer(SimDuration::from_secs(3), 77);
                }
            }
            fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
            fn on_timer(&mut self, api: &mut SimApi<'_, ()>, token: u64) {
                self.fired.push((api.now(), token));
            }
        }
        let cfg = small_cfg(1);
        let mut sim = Simulation::new(cfg, &AlwaysOn, TimerOnce { fired: vec![] });
        sim.run_to_end();
        assert_eq!(sim.driver().fired.len(), 1);
        assert_eq!(sim.driver().fired[0].1, 77);
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = |seed: u64| {
            let cfg = SimConfig::builder(20)
                .delta(SimDuration::from_secs(5))
                .duration(SimDuration::from_secs(200))
                .seed(seed)
                .build()
                .unwrap();
            let mut sim = Simulation::new(cfg, &AlwaysOn, Echo::default());
            sim.run_to_end();
            (sim.driver().ticks.clone(), *sim.stats())
        };
        let (t1, s1) = run(11);
        let (t2, s2) = run(11);
        let (t3, _) = run(12);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert_ne!(t1, t3, "different seeds should differ");
    }

    #[test]
    fn scheduler_reproduces_the_heap_engines_run() {
        // Ticks and sends ride the lanes, same-instant replies land in
        // them out of key order; the counters are those the engine
        // produced on `BinaryHeapQueue` alone.
        struct Chat;
        impl Driver for Chat {
            type Msg = u64;
            fn on_round_tick(&mut self, api: &mut SimApi<'_, u64>, node: NodeId) {
                let peer = api.random_online_node().unwrap();
                api.send(node, peer, api.now().as_micros());
            }
            fn on_message(&mut self, api: &mut SimApi<'_, u64>, from: NodeId, to: NodeId, m: u64) {
                if m.is_multiple_of(3) {
                    api.send(to, from, m + 1);
                }
            }
        }
        let cfg = SimConfig::builder(30)
            .delta(SimDuration::from_secs(7))
            .transfer_time(SimDuration::from_millis(1700))
            .duration(SimDuration::from_secs(500))
            .seed(5)
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, Chat);
        sim.run_to_end();
        assert_eq!(
            *sim.stats(),
            SimStats {
                messages_sent: 2853,
                messages_delivered: 2847,
                ticks_fired: 2142,
                events_processed: 4989,
                ..SimStats::default()
            }
        );
    }

    #[test]
    fn drop_probability_loses_messages() {
        struct Spam;
        impl Driver for Spam {
            type Msg = ();
            fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, node: NodeId) {
                for _ in 0..10 {
                    let peer = api.random_online_node().unwrap();
                    api.send(node, peer, ());
                }
            }
            fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
        }
        let cfg = SimConfig::builder(10)
            .delta(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(1000))
            .drop_probability(0.5)
            .seed(1)
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, Spam);
        sim.run_to_end();
        let s = sim.stats();
        let rate = s.messages_dropped_fault as f64 / s.messages_sent as f64;
        assert!((rate - 0.5).abs() < 0.05, "drop rate {rate}");
        // Some messages may still be in flight when the horizon is reached.
        let in_flight = s.messages_sent - s.messages_delivered - s.messages_dropped_fault;
        assert!(in_flight <= 10 * 10, "too many unresolved: {in_flight}");
    }

    #[test]
    fn run_until_is_incremental() {
        let cfg = small_cfg(3);
        let mut sim = Simulation::new(cfg, &AlwaysOn, Echo::default());
        sim.run_until(SimTime::from_secs(50));
        let halfway = sim.driver().ticks.len();
        assert!(halfway > 0);
        assert_eq!(sim.now(), SimTime::from_secs(50));
        sim.run_until(SimTime::from_secs(100));
        assert!(sim.driver().ticks.len() > halfway);
    }

    #[test]
    fn online_bookkeeping_is_consistent() {
        let avail = Scripted {
            initial: vec![true, false, true],
            trans: vec![
                vec![
                    (SimTime::from_secs(10), false),
                    (SimTime::from_secs(20), true),
                ],
                vec![(SimTime::from_secs(15), true)],
                vec![],
            ],
        };
        let cfg = small_cfg(3);
        let mut sim = Simulation::new(cfg, &avail, Echo::default());
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.kernel().online.count(), 2);
        sim.run_until(SimTime::from_secs(12));
        assert_eq!(sim.kernel().online.count(), 1);
        sim.run_until(SimTime::from_secs(17));
        assert_eq!(sim.kernel().online.count(), 2);
        sim.run_until(SimTime::from_secs(25));
        assert_eq!(sim.kernel().online.count(), 3);
        for node in node_ids(3) {
            assert!(sim.kernel().online.is_online(node));
        }
    }

    #[test]
    #[should_panic(expected = "timer delay must be positive")]
    fn zero_delay_timers_are_rejected() {
        struct BadTimer;
        impl Driver for BadTimer {
            type Msg = ();
            fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, _node: NodeId) {
                api.schedule_timer(SimDuration::ZERO, 1);
            }
            fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
        }
        let mut sim = Simulation::new(small_cfg(1), &AlwaysOn, BadTimer);
        sim.run_to_end();
    }

    #[test]
    #[should_panic(expected = "timers can only be scheduled from a node's own callback")]
    fn timers_outside_a_node_callback_are_rejected() {
        struct SampleTimer;
        impl Driver for SampleTimer {
            type Msg = ();
            fn on_round_tick(&mut self, _: &mut SimApi<'_, ()>, _: NodeId) {}
            fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
            fn on_sample(&mut self, api: &mut SimApi<'_, ()>) {
                api.schedule_timer(SimDuration::from_secs(1), 1);
            }
        }
        let cfg = SimConfig::builder(1)
            .duration(SimDuration::from_secs(100))
            .sample_period(SimDuration::from_secs(10))
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, SampleTimer);
        sim.run_to_end();
    }

    #[test]
    fn same_instant_deliveries_fire_in_key_order() {
        // Synchronized ticks: every node sends to node 0, then to node 1, at
        // the same instant, so all deliveries share one deadline. They fire
        // one `on_message` at a time in `(origin, counter)` key order:
        // sender by sender, each sender's message to node 0 before its
        // message to node 1.
        #[derive(Default)]
        struct Spy {
            deliveries: Vec<(NodeId, NodeId)>,
        }
        impl Driver for Spy {
            type Msg = ();
            fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, node: NodeId) {
                api.send(node, NodeId::new(0), ());
                api.send(node, NodeId::new(1), ());
            }
            fn on_message(&mut self, _: &mut SimApi<'_, ()>, from: NodeId, to: NodeId, _: ()) {
                self.deliveries.push((to, from));
            }
        }
        let n = 6;
        let cfg = SimConfig::builder(n)
            .delta(SimDuration::from_secs(10))
            .transfer_time(SimDuration::from_secs(1))
            .duration(SimDuration::from_secs(21))
            .tick_phase(TickPhase::Synchronized)
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg, &AlwaysOn, Spy::default());
        sim.run_to_end();
        // Two delivery instants (ticks at 10 s and 20 s, arrivals at 11 s
        // and 21 s), two messages per sender at each.
        let expect: Vec<(NodeId, NodeId)> = (0..2)
            .flat_map(|_| node_ids(n))
            .flat_map(|from| [(NodeId::new(0), from), (NodeId::new(1), from)])
            .collect();
        assert_eq!(sim.driver().deliveries, expect);
        assert_eq!(sim.stats().messages_delivered, 4 * n as u64);
    }

    #[test]
    fn per_node_streams_are_isolated() {
        // Extra randomness consumed at one node must not perturb another
        // node's draws — the property per-node streams exist for.
        #[derive(Default)]
        struct Greedy {
            draws: Vec<(NodeId, u64)>,
            hungry: bool,
        }
        impl Driver for Greedy {
            type Msg = ();
            fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, node: NodeId) {
                if self.hungry && node.index() == 0 {
                    // Node 0 burns extra draws.
                    let _ = api.rng().next();
                    let _ = api.rng().next();
                }
                let v = api.rng().next();
                self.draws.push((node, v));
            }
            fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
        }
        let run = |hungry: bool| {
            let mut sim = Simulation::new(
                small_cfg(3),
                &AlwaysOn,
                Greedy {
                    draws: vec![],
                    hungry,
                },
            );
            sim.run_to_end();
            let Greedy { draws, .. } = {
                let (d, _) = sim.into_parts();
                d
            };
            draws
        };
        let quiet = run(false);
        let noisy = run(true);
        for ((n1, v1), (n2, v2)) in quiet.iter().zip(&noisy) {
            assert_eq!(n1, n2, "tick order must not change");
            if n1.index() != 0 {
                assert_eq!(v1, v2, "node {n1} perturbed by node 0's draws");
            }
        }
    }
}
