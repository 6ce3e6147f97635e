//! The application interface of the token account framework.
//!
//! Section 3.2: "To implement our applications in the framework we have to
//! provide the application specific implementations of two methods:
//! `CREATEMESSAGE()` ... and `UPDATESTATE(m)` ... including "defining the
//! usefulness of the received message". The remaining methods are metric
//! and churn bookkeeping hooks used by the experiment harness.
//!
//! An application value holds the state of one **block** of nodes: the
//! whole network `0..n` as constructed, or — after
//! [`ShardableApplication::split`] — one contiguous slice of it, with the
//! per-node vectors offset by the block's first node id (`base`). Every
//! node-scoped callback names a node of the block; the protocol layer
//! routes it to the block that owns the node.

use ta_sim::shard::ShardPlan;
use ta_sim::{NodeId, SimTime};
use token_account::Usefulness;

/// An application running over the token account service.
pub trait Application {
    /// The message payload (a copy of the relevant node state).
    type Msg: Clone;

    /// `CREATEMESSAGE()`: constructs a message from `node`'s current state.
    fn create_message(&mut self, node: NodeId) -> Self::Msg;

    /// `UPDATESTATE(m)`: updates `node`'s state with a message received
    /// from `from` (a node of any block), returning its usefulness.
    fn update_state(
        &mut self,
        node: NodeId,
        from: NodeId,
        msg: &Self::Msg,
        now: SimTime,
    ) -> Usefulness;

    /// The application's performance metric at `now`, computed over the
    /// currently online population of size `online_count`. Only ever asked
    /// of a whole application; blocks answer together through
    /// [`ShardableApplication::metric_sharded`].
    fn metric(&self, online_count: usize, now: SimTime) -> f64;

    /// Injection hook: fresh external data arrives at `target` (used by
    /// push gossip, which receives a new update every 17.28 s).
    fn inject(&mut self, target: NodeId, now: SimTime) {
        let _ = (target, now);
    }

    /// An injection happened at a node of *another* block.
    ///
    /// Injections fire with every block quiescent, so this broadcast is
    /// race-free. Applications whose injection updates *global* state
    /// (push gossip's injection counter, which numbers every update
    /// network-wide) advance their replica of that state here so all
    /// blocks agree at the next sample; the node-local half of the
    /// injection stays with the owner's [`inject`](Self::inject). Purely
    /// node-local applications ignore it, and a whole application never
    /// hears it.
    fn on_remote_inject(&mut self, now: SimTime) {
        let _ = now;
    }

    /// `node` came online (metric bookkeeping; the paper computes metrics
    /// over online nodes only).
    fn on_node_up(&mut self, node: NodeId, now: SimTime) {
        let _ = (node, now);
    }

    /// `node` went offline.
    fn on_node_down(&mut self, node: NodeId, now: SimTime) {
        let _ = (node, now);
    }

    /// A message for block node `node` is a few dozen events away: start
    /// loading the state [`update_state`](Self::update_state) and
    /// [`create_message`](Self::create_message) will read for it (see
    /// [`ta_sim::engine::prefetch`]). Called only on large blocks. A hint,
    /// never a read that changes results; the default does nothing.
    #[inline]
    fn prefetch(&self, node: NodeId) {
        let _ = node;
    }

    /// Short application name for reports.
    fn name(&self) -> &'static str;
}

/// An application that can be cut into per-shard blocks of itself.
pub trait ShardableApplication: Application + Sized {
    /// Cuts the state into `plan.shards()` contiguous blocks, in shard
    /// order.
    fn split(self, plan: &ShardPlan) -> Vec<Self>;

    /// Reassembles the application (inverse of [`split`](Self::split)).
    fn merge(plan: &ShardPlan, blocks: Vec<Self>) -> Self;

    /// The performance metric over the blocks of one application, and the
    /// one implementation of it: [`Application::metric`] is this over
    /// `&[self]`. For the result to be the same bits for every partition,
    /// fold integer partials, or accumulate f64 by walking `blocks` in
    /// order (contiguous blocks make that node order).
    fn metric_sharded(blocks: &[&Self], online_count: usize, now: SimTime) -> f64;
}
