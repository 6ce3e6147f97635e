//! The token account protocol adapter: Algorithm 4 as a simulator driver.
//!
//! [`TokenProtocol`] glues together the four layers of the reproduction:
//! the [`ta_sim`] engine (clock, transfer, churn), an overlay
//! [`Topology`] with online-aware peer sampling, a token
//! [`Strategy`], and an [`Application`]. It is the
//! executable form of Algorithm 4, with the strategy compiled once, at
//! construction, into a [`DecisionTable`] that every event decides
//! through:
//!
//! * round tick → `PROACTIVE(a)` decides between sending a fresh state
//!   copy to a random online neighbour and banking the token;
//! * message receipt → `UPDATESTATE` yields the usefulness, `REACTIVE(a,u)`
//!   (probabilistically rounded) decides how many state copies to send,
//!   burning that many tokens;
//! * rejoin after churn (optional) → a pull request to one online
//!   neighbour, answered with the neighbour's state *iff* it can spend a
//!   token (Section 4.1.2).
//!
//! When a send cannot be performed because no neighbour is online, the
//! token is banked (proactive case) or refunded (reactive case), keeping
//! the one-token-per-Δ accounting exact.
//!
//! # One body for every shard count
//!
//! A `TokenProtocol` value is a **node block**: the decision table, the
//! application block, the [`TokenNode`] accounts and counters of a
//! contiguous node range starting at `base`, plus the online-neighbour
//! mirror of that range (or of all nodes, if frozen and shared). As
//! constructed it is the block `0..n`, which
//! [`ta_sim::engine::Simulation`] runs whole;
//! [`ShardableDriver::split`](ta_sim::shard::ShardableDriver::split) (in
//! [`sharded`]) cuts it into S blocks of the same type, which run the same
//! [`Driver`] callbacks below. The two barrier-time bodies — recording a
//! sample, performing an injection — are written over a slice of blocks,
//! and the whole protocol is the one-element slice.

use std::sync::Arc;

#[path = "protocol_sharded.rs"]
pub mod sharded;
use ta_metrics::TimeSeries;
use ta_overlay::sampling::OnlineNeighbors;
use ta_overlay::Topology;
use ta_sim::engine::{prefetch, Driver, SimApi};
use ta_sim::NodeId;
use token_account::node::{RoundAction, TokenNode};
use token_account::{DecisionTable, Strategy, Usefulness};

use crate::app::Application;

/// Wire format: application payloads plus the pull-request control message.
#[derive(Debug, Clone)]
pub enum ProtocolMsg<M> {
    /// An application state copy.
    App(M),
    /// A rejoining node asking one neighbour for its state.
    PullRequest,
}

/// Where reactive messages are addressed.
///
/// The paper's Algorithm 4 sends every message to `selectPeer()`
/// ([`ReplyPolicy::RandomPeer`]). [`ReplyPolicy::SenderFirst`] is a
/// push–pull-flavoured variant: the *first* reactive message triggered by
/// an incoming message is addressed back to its sender (so a node that
/// pushed a stale update immediately receives the fresher one); any
/// remaining burst goes to random peers. Token accounting is unchanged.
///
/// The `ablation` experiment shows why Algorithm 4 chooses random
/// addressing: when the reactive burst is small (e.g. the simple
/// strategy's single message), answering the sender consumes the entire
/// budget on a pairwise bounce and destroys the exponential fan-out that
/// broadcast relies on — lag grows by an order of magnitude. A real
/// push–pull design needs a *separate* reply budget, which is exactly the
/// pull-request/one-token mechanism the paper adds for churn rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplyPolicy {
    /// Algorithm 4 as published: all sends to `selectPeer()`.
    #[default]
    RandomPeer,
    /// First reactive send answers the sender (push–pull variant; see the
    /// type-level discussion for why this hurts broadcast).
    SenderFirst,
}

/// Message counters of one protocol run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Proactive sends (round ticks that spent their token on a message).
    pub proactive_sent: u64,
    /// Reactive sends (token-burning responses).
    pub reactive_sent: u64,
    /// Round ticks that banked the token.
    pub tokens_banked: u64,
    /// Proactive sends skipped because no neighbour was online.
    pub proactive_skipped: u64,
    /// Reactive sends refunded because no neighbour was online.
    pub reactive_refunded: u64,
    /// Pull requests sent on rejoin.
    pub pull_requests: u64,
    /// Pull requests answered (a token was available).
    pub pull_replies: u64,
    /// Pull requests ignored (answering node had no token).
    pub pull_ignored: u64,
}

impl ProtocolStats {
    /// Total messages that actually left a node.
    pub fn total_sent(&self) -> u64 {
        self.proactive_sent + self.reactive_sent + self.pull_requests + self.pull_replies
    }

    /// Accumulates another run's (or shard's) counters into this one —
    /// the single place that knows every field, so a counter added later
    /// cannot be silently dropped from merged sharded results.
    pub fn merge(&mut self, other: &ProtocolStats) {
        self.proactive_sent += other.proactive_sent;
        self.reactive_sent += other.reactive_sent;
        self.tokens_banked += other.tokens_banked;
        self.proactive_skipped += other.proactive_skipped;
        self.reactive_refunded += other.reactive_refunded;
        self.pull_requests += other.pull_requests;
        self.pull_replies += other.pull_replies;
        self.pull_ignored += other.pull_ignored;
    }
}

/// Everything a finished run hands back to the harness.
#[derive(Debug)]
pub struct ProtocolResults<A> {
    /// The application, with its final state.
    pub app: A,
    /// The metric time series (one sample per configured sample period).
    pub metric: TimeSeries,
    /// Average token balance over online nodes, if recording was enabled.
    pub tokens: TimeSeries,
    /// Message counters.
    pub stats: ProtocolStats,
    /// Messages sent per transfer-time slot — the traffic histogram behind
    /// the paper's burstiness guarantee (Section 3.4). Index `i` counts
    /// sends in `[i·τ, (i+1)·τ)` where `τ` is the configured transfer
    /// time (Δ/100 in the paper's setup): fine enough to expose reactive
    /// cascades, which complete within a few transfer times.
    pub sends_per_slot: Vec<u64>,
    /// Sum of the final token balances over all nodes. Together with the
    /// counters this closes the books:
    /// `tokens_banked + proactive_skipped - reactive_sent - pull_replies
    /// == balances_sum` for every non-debt strategy (refunded reactive
    /// tokens cancel out).
    pub balances_sum: i64,
}

/// The Algorithm-4 driver. See the [module docs](self).
///
/// Any [`Strategy`], concrete or boxed, is compiled into a
/// [`DecisionTable`] at construction, so the per-event decisions are table
/// lookups whatever type the strategy arrived as.
pub struct TokenProtocol<A: Application> {
    table: DecisionTable,
    app: A,
    topo: Arc<Topology>,
    /// First node of the block (0 for the whole network).
    base: usize,
    /// Token accounts of the block's nodes.
    nodes: Vec<TokenNode>,
    /// Driver-side packed mirror of the online set (kept by up/down
    /// callbacks): O(1) uniform online-neighbour selection per send.
    ///
    /// Behind an [`Arc`] so failure-free runs of one grid can share one
    /// frozen mirror, which every block of a split protocol then holds; a
    /// mirror owned alone is cut into per-block pieces instead.
    peers: Arc<OnlineNeighbors>,
    pull_on_rejoin: bool,
    record_tokens: bool,
    react_to_injections: bool,
    reply_policy: ReplyPolicy,
    /// The sampled series (kept by the first block of a split protocol).
    metric: TimeSeries,
    tokens: TimeSeries,
    stats: ProtocolStats,
    /// Sends per transfer-time slot (burstiness histogram).
    sends_per_slot: Vec<u64>,
    /// Transfer-time slot length in µs, cached on first use (the config is
    /// not available at construction; 0 means "not yet cached").
    slot_len_us: u64,
}

impl<A: Application> TokenProtocol<A> {
    /// Builds the driver.
    ///
    /// `initial_online` must reflect the availability model's state at time
    /// zero (the engine reports only *transitions* through callbacks).
    /// Accounts start with zero tokens, as in Section 4.1.
    ///
    /// # Panics
    ///
    /// Panics if `initial_online.len()` differs from the topology size.
    pub fn new(
        topo: Arc<Topology>,
        strategy: impl Strategy + 'static,
        app: A,
        initial_online: Vec<bool>,
    ) -> Self {
        let peers = Arc::new(OnlineNeighbors::new(&topo, &initial_online));
        Self::with_shared_peers(topo, strategy, app, initial_online, peers)
    }

    /// Builds the driver around an existing online-neighbour mirror.
    ///
    /// The mirror must have been built for this topology and online set;
    /// failure-free experiment grids build it once per topology and share
    /// the frozen copy across every run (a churn transition would copy a
    /// shared mirror first, so sharing is always sound).
    ///
    /// # Panics
    ///
    /// Panics if `initial_online` does not match the topology size or the
    /// mirror's flags.
    pub fn with_shared_peers(
        topo: Arc<Topology>,
        strategy: impl Strategy + 'static,
        app: A,
        initial_online: Vec<bool>,
        peers: Arc<OnlineNeighbors>,
    ) -> Self {
        assert_eq!(
            initial_online.len(),
            topo.n(),
            "initial_online length must equal the node count"
        );
        assert_eq!(
            peers.online_flags(),
            &initial_online[..],
            "shared mirror does not match the initial online set"
        );
        let n = topo.n();
        TokenProtocol {
            table: DecisionTable::new(strategy),
            app,
            topo,
            base: 0,
            nodes: vec![TokenNode::new(0); n],
            peers,
            pull_on_rejoin: false,
            record_tokens: false,
            react_to_injections: false,
            reply_policy: ReplyPolicy::default(),
            metric: TimeSeries::new(),
            tokens: TimeSeries::new(),
            stats: ProtocolStats::default(),
            sends_per_slot: Vec::new(),
            slot_len_us: 0,
        }
    }

    /// Enables the Section 4.1.2 pull request on rejoin (push gossip churn
    /// scenario).
    pub fn with_pull_on_rejoin(mut self) -> Self {
        self.pull_on_rejoin = true;
        self
    }

    /// Records the average token balance at every sample (Figure 5).
    pub fn with_token_recording(mut self) -> Self {
        self.record_tokens = true;
        self
    }

    /// Selects where reactive bursts are addressed (see [`ReplyPolicy`]).
    pub fn with_reply_policy(mut self, policy: ReplyPolicy) -> Self {
        self.reply_policy = policy;
        self
    }

    /// Treats external injections as useful state changes that trigger the
    /// reactive function.
    ///
    /// Algorithm 4 reacts only to *messages*, so token-account strategies
    /// leave this off. The purely reactive reference, however, "send[s]
    /// messages whenever their state changes" (Section 1) — without this
    /// option it would sit silent forever in push gossip, where fresh data
    /// enters by injection rather than by message. Used by the
    /// `burstiness` and `faults` experiments for the reactive rows.
    pub fn with_injection_reaction(mut self) -> Self {
        self.react_to_injections = true;
        self
    }

    /// The application (for inspection mid-run).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Message counters so far.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Token balance of `node` (diagnostics and tests).
    pub fn balance(&self, node: NodeId) -> i64 {
        self.nodes[self.local(node)].balance()
    }

    /// Sum of all token balances (conservation checks; see
    /// [`ProtocolResults::balances_sum`]).
    pub fn balances_sum(&self) -> i64 {
        self.nodes.iter().map(TokenNode::balance).sum()
    }

    /// Finishes the run, yielding the recorded results.
    pub fn into_results(self) -> ProtocolResults<A> {
        let balances_sum = self.balances_sum();
        ProtocolResults {
            app: self.app,
            metric: self.metric,
            tokens: self.tokens,
            stats: self.stats,
            sends_per_slot: self.sends_per_slot,
            balances_sum,
        }
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        node.index() - self.base
    }

    /// Accounts `count` sends made at the current instant in the traffic
    /// histogram — every send of one delivery lands in the same
    /// transfer-time slot, so one bucket add covers them all. The
    /// histograms of the blocks of a split protocol sum elementwise to the
    /// whole one.
    fn record_sends(&mut self, api: &SimApi<'_, ProtocolMsg<A::Msg>>, count: u64) {
        if count == 0 {
            return;
        }
        if self.slot_len_us == 0 {
            // The config only becomes reachable through the API, so the
            // slot length is cached on the first send instead of at
            // construction; `max(1)` keeps the sentinel unreachable.
            self.slot_len_us = api.config().transfer_time().as_micros().max(1);
        }
        let bucket = (api.now().as_micros() / self.slot_len_us) as usize;
        if bucket >= self.sends_per_slot.len() {
            self.sends_per_slot.resize(bucket + 1, 0);
        }
        self.sends_per_slot[bucket] += count;
    }

    /// Sends one state copy from `node` to a random online neighbour.
    /// Returns whether a peer was available; the caller accounts the send.
    fn send_state(&mut self, api: &mut SimApi<'_, ProtocolMsg<A::Msg>>, node: NodeId) -> bool {
        match self.peers.select(node, api.rng()) {
            Some(peer) => {
                let msg = self.app.create_message(node);
                api.send(node, peer, ProtocolMsg::App(msg));
                true
            }
            None => false,
        }
    }

    /// Records one sample over the blocks of a protocol: the application
    /// metric `value` (computed by the caller, who knows whether the
    /// application is whole or split) and, if enabled, the average token
    /// balance over online nodes. The series live in the first block.
    fn record_sample(blocks: &mut [&mut Self], api: &SimApi<'_, ProtocolMsg<A::Msg>>, value: f64) {
        let time = api.now().as_secs_f64();
        let avg = blocks[0].record_tokens.then(|| {
            // Blocks are contiguous, so folding them in order is the
            // node-order fold; the sums are integers, so the division
            // below yields the same bits for every partition.
            let (sum, count) = blocks.iter().fold((0i64, 0usize), |acc, b| {
                let flags = &b.peers.online_flags()[b.base..b.base + b.nodes.len()];
                flags
                    .iter()
                    .zip(&b.nodes)
                    .filter(|(&up, _)| up)
                    .fold(acc, |(s, c), (_, node)| (s + node.balance(), c + 1))
            });
            if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            }
        });
        let first = &mut *blocks[0];
        first.metric.push(time, value);
        if let Some(avg) = avg {
            first.tokens.push(time, avg);
        }
    }

    /// Performs one injection over the blocks of a protocol: the owner of
    /// the drawn target takes the update (and, if enabled, reacts to it as
    /// to a useful message); every other block only hears that it
    /// happened.
    fn inject(blocks: &mut [&mut Self], api: &mut SimApi<'_, ProtocolMsg<A::Msg>>) {
        let Some(target) = api.random_online_node() else {
            return;
        };
        let now = api.now();
        let owner = api.plan().shard_of(target);
        for (s, b) in blocks.iter_mut().enumerate() {
            if s != owner {
                b.app.on_remote_inject(now);
            }
        }
        let b = &mut *blocks[owner];
        b.app.inject(target, now);
        if b.react_to_injections {
            let local = b.local(target);
            let burst = b.nodes[local].on_message(&b.table, Usefulness::Useful, api.rng());
            let mut sent = 0;
            for _ in 0..burst {
                if b.send_state(api, target) {
                    sent += 1;
                } else {
                    b.nodes[local].bank_token();
                    b.stats.reactive_refunded += 1;
                }
            }
            b.stats.reactive_sent += sent;
            b.record_sends(api, sent);
        }
    }
}

impl<A: Application> Driver for TokenProtocol<A> {
    type Msg = ProtocolMsg<A::Msg>;

    fn on_round_tick(&mut self, api: &mut SimApi<'_, Self::Msg>, node: NodeId) {
        let local = self.local(node);
        match self.nodes[local].on_round(&self.table, api.rng()) {
            RoundAction::SendProactive => {
                if self.send_state(api, node) {
                    self.stats.proactive_sent += 1;
                    self.record_sends(api, 1);
                } else {
                    // No online neighbour: bank the granted token instead.
                    self.nodes[local].bank_token();
                    self.stats.proactive_skipped += 1;
                }
            }
            RoundAction::SaveToken => {
                self.stats.tokens_banked += 1;
            }
        }
    }

    /// Handles one delivered protocol message at online node `to`. Every
    /// send it makes happens at this instant, so one histogram add covers
    /// them all.
    fn on_message(
        &mut self,
        api: &mut SimApi<'_, Self::Msg>,
        from: NodeId,
        to: NodeId,
        msg: Self::Msg,
    ) {
        let local = self.local(to);
        let mut sent = 0u64;
        match msg {
            ProtocolMsg::PullRequest => {
                // Section 4.1.2: answer with the latest state iff a token
                // is available; otherwise stay silent.
                if self.nodes[local].try_spend_one() {
                    let reply = self.app.create_message(to);
                    api.send(to, from, ProtocolMsg::App(reply));
                    sent += 1;
                    self.stats.pull_replies += 1;
                } else {
                    self.stats.pull_ignored += 1;
                }
            }
            ProtocolMsg::App(payload) => {
                let usefulness = self.app.update_state(to, from, &payload, api.now());
                let burst = self.nodes[local].on_message(&self.table, usefulness, api.rng());
                for i in 0..burst {
                    // Push–pull extension: the first reactive message may
                    // answer the sender directly instead of a random peer.
                    let answered_sender = i == 0
                        && self.reply_policy == ReplyPolicy::SenderFirst
                        && self.peers.is_online(from);
                    let peer = if answered_sender {
                        Some(from)
                    } else {
                        self.peers.select(to, api.rng())
                    };
                    match peer {
                        Some(peer) => {
                            let m = self.app.create_message(to);
                            api.send(to, peer, ProtocolMsg::App(m));
                            sent += 1;
                            self.stats.reactive_sent += 1;
                        }
                        None => {
                            // Token already burned for a send that cannot
                            // happen: refund it.
                            self.nodes[local].bank_token();
                            self.stats.reactive_refunded += 1;
                        }
                    }
                }
            }
        }
        self.record_sends(api, sent);
    }

    /// Prefetches what a tick or a delivery at `node` reads first: its
    /// account, its online-neighbour slice and its application state.
    #[inline]
    fn prefetch(&self, node: NodeId) {
        prefetch(&self.nodes, node.index().wrapping_sub(self.base));
        self.peers.prefetch(node);
        self.app.prefetch(node);
    }

    fn on_node_up(&mut self, api: &mut SimApi<'_, Self::Msg>, node: NodeId) {
        Arc::make_mut(&mut self.peers).set_online(&self.topo, node, true);
        if api.owns(node) {
            self.app.on_node_up(node, api.now());
            if self.pull_on_rejoin {
                if let Some(peer) = self.peers.select(node, api.rng()) {
                    api.send(node, peer, ProtocolMsg::PullRequest);
                    self.stats.pull_requests += 1;
                }
            }
        }
    }

    fn on_node_down(&mut self, api: &mut SimApi<'_, Self::Msg>, node: NodeId) {
        Arc::make_mut(&mut self.peers).set_online(&self.topo, node, false);
        if api.owns(node) {
            self.app.on_node_down(node, api.now());
        }
    }

    fn on_sample(&mut self, api: &mut SimApi<'_, Self::Msg>) {
        let value = self.app.metric(api.online_count(), api.now());
        Self::record_sample(&mut [self], api, value);
    }

    fn on_inject(&mut self, api: &mut SimApi<'_, Self::Msg>) {
        Self::inject(&mut [self], api);
    }
}

impl<A: Application + std::fmt::Debug> std::fmt::Debug for TokenProtocol<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenProtocol")
            .field("strategy", &self.table.strategy().label())
            .field("app", &self.app)
            .field("block", &(self.base..self.base + self.nodes.len()))
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ta_overlay::generators::k_out_random;
    use ta_sim::config::SimConfig;
    use ta_sim::engine::{AlwaysOn, Simulation};
    use ta_sim::rng::Xoshiro256pp;
    use ta_sim::{SimDuration, SimTime};
    use token_account::prelude::*;
    use token_account::Usefulness;

    /// A counting application: state is "how many messages seen".
    #[derive(Debug, Default)]
    struct Counter {
        seen: Vec<u64>,
    }

    impl Counter {
        fn new(n: usize) -> Self {
            Counter { seen: vec![0; n] }
        }
    }

    impl Application for Counter {
        type Msg = ();
        fn create_message(&mut self, _node: NodeId) {}
        fn update_state(
            &mut self,
            node: NodeId,
            _from: NodeId,
            _msg: &(),
            _now: SimTime,
        ) -> Usefulness {
            self.seen[node.index()] += 1;
            Usefulness::Useful
        }
        fn metric(&self, _online: usize, _now: SimTime) -> f64 {
            self.seen.iter().sum::<u64>() as f64
        }
        fn name(&self) -> &'static str {
            "counter"
        }
    }

    fn run_proto(
        strategy: Box<dyn Strategy>,
        n: usize,
        secs: u64,
    ) -> (ProtocolResults<Counter>, ta_sim::SimStats) {
        let cfg = SimConfig::builder(n)
            .delta(SimDuration::from_secs(10))
            .transfer_time(SimDuration::from_secs(1))
            .duration(SimDuration::from_secs(secs))
            .sample_period(SimDuration::from_secs(10))
            .seed(42)
            .build()
            .unwrap();
        let mut rng = Xoshiro256pp::stream(42, 1);
        let topo = Arc::new(k_out_random(n, 5.min(n - 1), &mut rng).unwrap());
        let proto = TokenProtocol::new(Arc::clone(&topo), strategy, Counter::new(n), vec![true; n])
            .with_token_recording();
        let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
        sim.run_to_end();
        let (proto, stats) = sim.into_parts();
        (proto.into_results(), stats)
    }

    #[test]
    fn purely_proactive_sends_once_per_tick() {
        let (results, stats) = run_proto(Box::new(PurelyProactive), 20, 300);
        assert_eq!(results.stats.proactive_sent, stats.ticks_fired);
        assert_eq!(results.stats.reactive_sent, 0);
        assert_eq!(results.stats.tokens_banked, 0);
    }

    #[test]
    fn simple_strategy_respects_global_rate() {
        // Rate limiting: total sends <= ticks + N·C (Section 3.4).
        let n = 20u64;
        let c = 5u64;
        let (results, stats) = run_proto(Box::new(SimpleTokenAccount::new(c)), n as usize, 600);
        let bound = stats.ticks_fired + n * c;
        assert!(
            results.stats.total_sent() <= bound,
            "sent {} > bound {bound}",
            results.stats.total_sent()
        );
        // And the system is live: messages do flow.
        assert!(results.stats.total_sent() > 0);
        assert!(results.stats.reactive_sent > 0);
    }

    #[test]
    fn token_conservation_holds() {
        // Real conservation: every token granted is either still on an
        // account or was burned by a send. Grants come from round-tick
        // banking, skipped proactive sends, and reactive refunds; burns
        // come from reactive sends (incl. the refunded ones, which cancel)
        // and pull replies. banked − spent must equal the sum of the final
        // balances exactly.
        let (results, _) = run_proto(
            Box::new(RandomizedTokenAccount::new(2, 6).unwrap()),
            10,
            1000,
        );
        let banked = results.stats.tokens_banked
            + results.stats.reactive_refunded
            + results.stats.proactive_skipped;
        let spent = results.stats.reactive_sent
            + results.stats.reactive_refunded
            + results.stats.pull_replies;
        assert!(
            banked >= spent,
            "non-debt strategies cannot overspend: banked {banked} < spent {spent}"
        );
        assert_eq!(
            (banked - spent) as i64,
            results.balances_sum,
            "token books must balance: banked {banked}, spent {spent}, \
             final balances {}",
            results.balances_sum
        );
        // And the run actually exercised the reactive path.
        assert!(results.stats.reactive_sent > 0);
    }

    #[test]
    fn balances_sum_visible_before_and_after_into_results() {
        let n = 8;
        let cfg = SimConfig::builder(n)
            .delta(SimDuration::from_secs(10))
            .transfer_time(SimDuration::from_secs(1))
            .duration(SimDuration::from_secs(200))
            .seed(3)
            .build()
            .unwrap();
        let mut rng = Xoshiro256pp::stream(3, 1);
        let topo = Arc::new(k_out_random(n, 3, &mut rng).unwrap());
        let proto = TokenProtocol::new(
            topo,
            Box::new(SimpleTokenAccount::new(4)) as Box<dyn Strategy>,
            Counter::new(n),
            vec![true; n],
        );
        let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
        sim.run_to_end();
        let live_sum = sim.driver().balances_sum();
        let per_node: i64 = (0..n)
            .map(|i| sim.driver().balance(NodeId::from_index(i)))
            .sum();
        assert_eq!(live_sum, per_node);
        let (proto, _) = sim.into_parts();
        assert_eq!(proto.into_results().balances_sum, live_sum);
    }

    #[test]
    fn metric_series_is_recorded_per_sample() {
        let (results, stats) = run_proto(Box::new(PurelyProactive), 10, 200);
        assert_eq!(results.metric.len() as u64, stats.samples);
        assert_eq!(results.tokens.len() as u64, stats.samples);
        // Counter metric is monotone in time.
        let v = results.metric.values();
        assert!(v.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn average_tokens_never_exceed_capacity() {
        let (results, _) = run_proto(
            Box::new(RandomizedTokenAccount::new(5, 10).unwrap()),
            30,
            2000,
        );
        for &v in results.tokens.values() {
            assert!((0.0..=10.0).contains(&v), "avg tokens {v}");
        }
    }

    #[test]
    fn boxed_and_concrete_strategies_are_bit_identical() {
        // Both compile to the same table: a concrete strategy and its
        // boxed erasure must consume identical randomness and produce
        // identical runs.
        let n = 25;
        let run = |boxed: bool| {
            let cfg = SimConfig::builder(n)
                .delta(SimDuration::from_secs(10))
                .transfer_time(SimDuration::from_secs(1))
                .duration(SimDuration::from_secs(500))
                .seed(9)
                .build()
                .unwrap();
            let mut rng = Xoshiro256pp::stream(9, 1);
            let topo = Arc::new(k_out_random(n, 5, &mut rng).unwrap());
            let strategy = RandomizedTokenAccount::new(2, 6).unwrap();
            if boxed {
                let proto = TokenProtocol::new(
                    topo,
                    Box::new(strategy) as Box<dyn Strategy>,
                    Counter::new(n),
                    vec![true; n],
                );
                let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
                sim.run_to_end();
                let (proto, stats) = sim.into_parts();
                (proto.into_results().stats, stats)
            } else {
                let proto = TokenProtocol::new(topo, strategy, Counter::new(n), vec![true; n]);
                let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
                sim.run_to_end();
                let (proto, stats) = sim.into_parts();
                (proto.into_results().stats, stats)
            }
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "initial_online length")]
    fn initial_online_must_match_topology() {
        let mut rng = Xoshiro256pp::stream(1, 1);
        let topo = Arc::new(k_out_random(5, 2, &mut rng).unwrap());
        let _ = TokenProtocol::new(
            topo,
            Box::new(PurelyProactive),
            Counter::new(5),
            vec![true; 3],
        );
    }
}
