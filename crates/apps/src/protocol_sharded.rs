//! Cutting the Algorithm-4 driver into shards: [`TokenProtocol`] as a
//! [`ShardableDriver`].
//!
//! There is no second driver here. A block of a split protocol is a
//! [`TokenProtocol`] over a node range — its [`TokenNode`]s, its block of
//! the application state ([`ShardableApplication::split`]) and a handle to
//! the shared copy-on-churn online-neighbour mirror, which the engine's
//! replayed churn keeps exact in every block. The per-event bodies and the
//! two barrier-time bodies are those of `protocol.rs`; this file only cuts
//! the state, puts it back together, and supplies the one thing a split
//! application computes differently: its metric, through
//! [`ShardableApplication::metric_sharded`]. The two supplied f64 metrics
//! show the two ways to make that partition-invariant: `GossipLearning`
//! folds integer partials (order-free), `SgdGossipLearning` walks the
//! blocks in order so its f64 accumulation visits nodes in node-id order
//! (shards are contiguous blocks precisely to allow this).
//!
//! [`TokenNode`]: token_account::node::TokenNode

use std::sync::Arc;

use ta_sim::engine::SimApi;
use ta_sim::shard::{ShardPlan, ShardableDriver};

use super::TokenProtocol;
use crate::app::ShardableApplication;

impl<A: ShardableApplication> ShardableDriver for TokenProtocol<A> {
    fn split(self, plan: &ShardPlan) -> Vec<Self> {
        let apps = self.app.split(plan);
        assert_eq!(apps.len(), plan.shards(), "application split arity");
        // What the protocol recorded before the split stays with the first
        // block, so the merged sums are those of an unsplit run (it is all
        // empty in practice: the driver is split before the first event).
        let mut recorded = Some((self.metric, self.tokens, self.stats, self.sends_per_slot));
        apps.into_iter()
            .zip(plan.partition(self.nodes))
            .enumerate()
            .map(|(s, (app, nodes))| {
                let (metric, tokens, stats, sends_per_slot) = recorded.take().unwrap_or_default();
                TokenProtocol {
                    table: self.table.clone(),
                    app,
                    topo: Arc::clone(&self.topo),
                    base: plan.range(s).start,
                    nodes,
                    peers: Arc::clone(&self.peers),
                    pull_on_rejoin: self.pull_on_rejoin,
                    record_tokens: self.record_tokens,
                    react_to_injections: self.react_to_injections,
                    reply_policy: self.reply_policy,
                    metric,
                    tokens,
                    stats,
                    sends_per_slot,
                    slot_len_us: self.slot_len_us,
                }
            })
            .collect()
    }

    fn merge(plan: &ShardPlan, blocks: Vec<Self>) -> Self {
        let mut blocks = blocks.into_iter();
        // The first block carries the series; every replica of the mirror
        // saw the identical transition sequence, so its copy is as good as
        // any.
        let mut whole = blocks.next().expect("a plan has at least one shard");
        let mut apps = vec![whole.app];
        let mut nodes = whole.nodes;
        for b in blocks {
            apps.push(b.app);
            nodes.extend(b.nodes);
            whole.stats.merge(&b.stats);
            if b.sends_per_slot.len() > whole.sends_per_slot.len() {
                whole.sends_per_slot.resize(b.sends_per_slot.len(), 0);
            }
            for (acc, v) in whole.sends_per_slot.iter_mut().zip(&b.sends_per_slot) {
                *acc += v;
            }
            whole.slot_len_us = whole.slot_len_us.max(b.slot_len_us);
        }
        TokenProtocol {
            app: A::merge(plan, apps),
            nodes,
            ..whole
        }
    }

    fn on_sample_blocks(blocks: &mut [&mut Self], api: &mut SimApi<'_, Self::Msg>) {
        let value = {
            let apps: Vec<&A> = blocks.iter().map(|b| &b.app).collect();
            A::metric_sharded(&apps, api.online_count(), api.now())
        };
        Self::record_sample(blocks, api, value);
    }

    fn on_inject_blocks(blocks: &mut [&mut Self], api: &mut SimApi<'_, Self::Msg>) {
        Self::inject(blocks, api);
    }
}
