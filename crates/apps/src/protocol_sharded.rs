//! Cutting the Algorithm-4 driver into shards: [`TokenProtocol`] as a
//! [`ShardableDriver`].
//!
//! There is no second driver here. A block of a split protocol is a
//! [`TokenProtocol`] over a node range — its [`TokenNode`]s, its block of
//! the application state ([`ShardableApplication::split`]) and its piece of
//! the online-neighbour mirror, cut from the whole one (a frozen mirror
//! shared across runs stays shared instead), which the engine's replayed
//! churn keeps exact. The per-event bodies and the two barrier-time bodies
//! are those of `protocol.rs`; this file only cuts the state, puts it back
//! together, and supplies the one thing a split application computes
//! differently: its metric, through
//! [`ShardableApplication::metric_sharded`]. The two supplied f64 metrics
//! show the two ways to make that partition-invariant: `GossipLearning`
//! folds integer partials (order-free), `SgdGossipLearning` walks the
//! blocks in order so its f64 accumulation visits nodes in node-id order
//! (shards are contiguous blocks precisely to allow this).
//!
//! [`TokenNode`]: token_account::node::TokenNode

use std::sync::Arc;

use ta_overlay::sampling::OnlineNeighbors;
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
        // A mirror owned alone is cut; a frozen one stays whole and shared.
        let peers = match Arc::try_unwrap(self.peers) {
            Ok(mirror) => {
                let pieces = mirror.split((0..plan.shards()).map(|s| plan.range(s)));
                pieces.into_iter().map(Arc::new).collect()
            }
            Err(frozen) => vec![frozen; plan.shards()],
        };
        apps.into_iter()
            .zip(plan.partition(self.nodes))
            .zip(peers)
            .enumerate()
            .map(|(s, ((app, nodes), peers))| {
                let (metric, tokens, stats, sends_per_slot) = recorded.take().unwrap_or_default();
                TokenProtocol {
                    table: self.table.clone(),
                    app,
                    topo: Arc::clone(&self.topo),
                    base: plan.range(s).start,
                    nodes,
                    peers,
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
        // The first block carries the series.
        let mut whole = blocks.next().expect("a plan has at least one shard");
        let mut apps = vec![whole.app];
        let mut nodes = whole.nodes;
        let mut pieces = vec![whole.peers];
        for b in blocks {
            apps.push(b.app);
            nodes.extend(b.nodes);
            pieces.push(b.peers);
            whole.stats.merge(&b.stats);
            if b.sends_per_slot.len() > whole.sends_per_slot.len() {
                whole.sends_per_slot.resize(b.sends_per_slot.len(), 0);
            }
            for (acc, v) in whole.sends_per_slot.iter_mut().zip(&b.sends_per_slot) {
                *acc += v;
            }
            whole.slot_len_us = whole.slot_len_us.max(b.slot_len_us);
        }
        // A frozen mirror is whole in every block; cut pieces are joined.
        let peers = if pieces[0].range() == (0..plan.n()) {
            pieces.swap_remove(0)
        } else {
            Arc::new(OnlineNeighbors::join(
                pieces.into_iter().map(Arc::unwrap_or_clone),
            ))
        };
        TokenProtocol {
            app: A::merge(plan, apps),
            nodes,
            peers,
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ta_overlay::generators::k_out_random;
    use ta_overlay::sampling::OnlineNeighbors;
    use ta_sim::rng::Xoshiro256pp;
    use ta_sim::shard::{ShardPlan, ShardableDriver};
    use token_account::prelude::PurelyProactive;

    use crate::protocol::TokenProtocol;
    use crate::push_gossip::PushGossip;

    #[test]
    fn split_cuts_an_owned_mirror_and_keeps_a_frozen_one_shared() {
        let n = 30;
        let topo = Arc::new(k_out_random(n, 4, &mut Xoshiro256pp::stream(5, 0)).unwrap());
        let online: Vec<bool> = (0..n).map(|i| i % 4 != 0).collect();
        let plan = ShardPlan::new(n, 3);
        let app = || PushGossip::new(n, &online);

        // A mirror the protocol owns alone is cut, one unshared piece per
        // block, and joined back whole.
        let owned = TokenProtocol::new(Arc::clone(&topo), PurelyProactive, app(), online.clone());
        let blocks = owned.split(&plan);
        for (s, b) in blocks.iter().enumerate() {
            assert_eq!(
                Arc::strong_count(&b.peers),
                1,
                "block {s} shares its mirror"
            );
            assert_eq!(b.peers.range(), plan.range(s));
        }
        let whole = TokenProtocol::merge(&plan, blocks);
        assert_eq!(whole.peers.range(), 0..n);
        assert_eq!(whole.peers.online_flags(), &online[..]);

        // A frozen mirror shared across runs stays shared and whole.
        let frozen = Arc::new(OnlineNeighbors::new(&topo, &online));
        let shared = TokenProtocol::with_shared_peers(
            Arc::clone(&topo),
            PurelyProactive,
            app(),
            online.clone(),
            Arc::clone(&frozen),
        );
        let blocks = shared.split(&plan);
        assert!(blocks.iter().all(|b| Arc::ptr_eq(&b.peers, &frozen)));
        assert_eq!(Arc::strong_count(&frozen), 1 + plan.shards());
        let whole = TokenProtocol::merge(&plan, blocks);
        assert!(Arc::ptr_eq(&whole.peers, &frozen));
    }
}
