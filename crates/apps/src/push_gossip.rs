//! Push gossip broadcast (Section 2.3 / 4.1.2).
//!
//! A continuous stream of timestamped updates is injected into the network
//! (one every 17.28 s at a random online node); every node stores only the
//! freshest update it knows and pushes it onward. A received message is
//! useful iff it carries a fresher update than the locally stored one.
//!
//! **Metric** (eq. 7): the average *lag* over online nodes — the number of
//! injections between the globally freshest update and the one a node
//! stores. Multiplied by the injection period this is the average time lag
//! in seconds; the figure harness reports both.

use ta_sim::engine::prefetch;
use ta_sim::shard::ShardPlan;
use ta_sim::{NodeId, SimTime};
use token_account::Usefulness;

use crate::app::{Application, ShardableApplication};

/// A push gossip message: the timestamp (injection index) of an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateMsg {
    /// Injection sequence number; larger is fresher.
    pub id: u64,
}

/// The push gossip application state of one block of nodes.
///
/// `freshest` is global state: every injection increments it
/// network-wide. The block that owns the target advances it in
/// [`inject`](Application::inject) (and stores the update); every other
/// block advances its replica through
/// [`on_remote_inject`](Application::on_remote_inject) — injections fire
/// with every block quiescent, so the replicas agree whenever the metric
/// is sampled.
#[derive(Debug, Clone)]
pub struct PushGossip {
    /// First node of the block (0 for the whole network).
    base: usize,
    /// Freshest update id known per node; 0 = nothing yet (ids start at 1).
    latest: Vec<u64>,
    online: Vec<bool>,
    /// Σ latest over online nodes, maintained incrementally (O(1) metric).
    online_sum: u64,
    online_count: usize,
    /// Id of the last injected update (0 before the first injection).
    freshest: u64,
}

impl PushGossip {
    /// Creates the application for `n` nodes with the initial online set.
    ///
    /// # Panics
    ///
    /// Panics if `initial_online.len() != n`.
    pub fn new(n: usize, initial_online: &[bool]) -> Self {
        assert_eq!(initial_online.len(), n, "initial_online length mismatch");
        PushGossip {
            base: 0,
            latest: vec![0; n],
            online: initial_online.to_vec(),
            online_sum: 0,
            online_count: initial_online.iter().filter(|&&b| b).count(),
            freshest: 0,
        }
    }

    /// The freshest update id anywhere in the network.
    pub fn freshest(&self) -> u64 {
        self.freshest
    }

    /// The update id stored at `node` (0 if none).
    pub fn stored(&self, node: NodeId) -> u64 {
        self.latest[self.local(node)]
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        node.index() - self.base
    }

    fn store(&mut self, i: usize, id: u64) {
        let current = self.latest[i];
        if id > current {
            self.latest[i] = id;
            if self.online[i] {
                self.online_sum += id - current;
            }
        }
    }
}

impl Application for PushGossip {
    type Msg = UpdateMsg;

    fn create_message(&mut self, node: NodeId) -> UpdateMsg {
        UpdateMsg {
            id: self.latest[self.local(node)],
        }
    }

    fn update_state(
        &mut self,
        node: NodeId,
        _from: NodeId,
        msg: &UpdateMsg,
        _now: SimTime,
    ) -> Usefulness {
        let i = self.local(node);
        if msg.id > self.latest[i] {
            self.store(i, msg.id);
            Usefulness::Useful
        } else {
            Usefulness::NotUseful
        }
    }

    fn metric(&self, online_count: usize, now: SimTime) -> f64 {
        Self::metric_sharded(&[self], online_count, now)
    }

    #[inline]
    fn prefetch(&self, node: NodeId) {
        prefetch(&self.latest, node.index().wrapping_sub(self.base));
    }

    fn inject(&mut self, target: NodeId, _now: SimTime) {
        self.freshest += 1;
        let id = self.freshest;
        let i = self.local(target);
        self.store(i, id);
    }

    fn on_remote_inject(&mut self, _now: SimTime) {
        self.freshest += 1;
    }

    fn on_node_up(&mut self, node: NodeId, _now: SimTime) {
        let i = self.local(node);
        if !self.online[i] {
            self.online[i] = true;
            self.online_sum += self.latest[i];
            self.online_count += 1;
        }
    }

    fn on_node_down(&mut self, node: NodeId, _now: SimTime) {
        let i = self.local(node);
        if self.online[i] {
            self.online[i] = false;
            self.online_sum -= self.latest[i];
            self.online_count -= 1;
        }
    }

    fn name(&self) -> &'static str {
        "push-gossip"
    }
}

impl ShardableApplication for PushGossip {
    fn split(self, plan: &ShardPlan) -> Vec<PushGossip> {
        plan.partition(self.latest)
            .into_iter()
            .zip(plan.partition(self.online))
            .enumerate()
            .map(|(s, (latest, online))| PushGossip {
                base: plan.range(s).start,
                online_sum: latest
                    .iter()
                    .zip(&online)
                    .filter(|(_, &up)| up)
                    .map(|(&id, _)| id)
                    .sum(),
                online_count: online.iter().filter(|&&up| up).count(),
                latest,
                online,
                freshest: self.freshest,
            })
            .collect()
    }

    fn merge(_plan: &ShardPlan, blocks: Vec<PushGossip>) -> Self {
        debug_assert!(
            blocks.windows(2).all(|w| w[0].freshest == w[1].freshest),
            "freshest replicas diverged across blocks"
        );
        let mut whole = PushGossip::new(0, &[]);
        whole.freshest = blocks[0].freshest;
        for b in blocks {
            whole.latest.extend(b.latest);
            whole.online.extend(b.online);
            whole.online_sum += b.online_sum;
            whole.online_count += b.online_count;
        }
        whole
    }

    fn metric_sharded(blocks: &[&PushGossip], _online_count: usize, _now: SimTime) -> f64 {
        // eq. 7: t − (1/N) Σ t_i over the online population. The partials
        // are exact integers, so the single division below yields the same
        // bits for every partition.
        let sum: u64 = blocks.iter().map(|b| b.online_sum).sum();
        let count: usize = blocks.iter().map(|b| b.online_count).sum();
        if count == 0 {
            return 0.0;
        }
        blocks[0].freshest as f64 - sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> SimTime {
        SimTime::from_secs(100)
    }

    #[test]
    fn injections_advance_the_freshest_update() {
        let mut a = PushGossip::new(3, &[true; 3]);
        a.inject(NodeId::new(0), now());
        a.inject(NodeId::new(1), now());
        assert_eq!(a.freshest(), 2);
        assert_eq!(a.stored(NodeId::new(0)), 1);
        assert_eq!(a.stored(NodeId::new(1)), 2);
        assert_eq!(a.stored(NodeId::new(2)), 0);
    }

    #[test]
    fn fresher_update_is_useful_and_stored() {
        let mut a = PushGossip::new(2, &[true; 2]);
        let u = a.update_state(NodeId::new(0), NodeId::new(1), &UpdateMsg { id: 3 }, now());
        assert_eq!(u, Usefulness::Useful);
        assert_eq!(a.stored(NodeId::new(0)), 3);
    }

    #[test]
    fn stale_or_equal_update_is_useless() {
        let mut a = PushGossip::new(2, &[true; 2]);
        a.update_state(NodeId::new(0), NodeId::new(1), &UpdateMsg { id: 3 }, now());
        let u = a.update_state(NodeId::new(0), NodeId::new(1), &UpdateMsg { id: 3 }, now());
        assert_eq!(u, Usefulness::NotUseful);
        let u = a.update_state(NodeId::new(0), NodeId::new(1), &UpdateMsg { id: 2 }, now());
        assert_eq!(u, Usefulness::NotUseful);
        assert_eq!(a.stored(NodeId::new(0)), 3);
    }

    #[test]
    fn metric_is_the_average_lag() {
        let mut a = PushGossip::new(4, &[true; 4]);
        // Inject 10 updates, all landing at node 0.
        for _ in 0..10 {
            a.inject(NodeId::new(0), now());
        }
        // Nodes: 10, 0, 0, 0 ⇒ mean 2.5 ⇒ lag 7.5.
        assert!((a.metric(4, now()) - 7.5).abs() < 1e-9);
        // Spread the freshest to everyone: lag 0.
        for i in 1..4 {
            a.update_state(NodeId::new(i), NodeId::new(0), &UpdateMsg { id: 10 }, now());
        }
        assert!(a.metric(4, now()).abs() < 1e-9);
    }

    #[test]
    fn metric_ignores_offline_nodes() {
        let mut a = PushGossip::new(3, &[true, true, false]);
        for _ in 0..6 {
            a.inject(NodeId::new(0), now());
        }
        // Online: node0=6, node1=0 ⇒ lag = 6 − 3 = 3 (node 2 invisible).
        assert!((a.metric(2, now()) - 3.0).abs() < 1e-9);
        // Node 2 rejoins with nothing: lag = 6 − 2 = 4.
        a.on_node_up(NodeId::new(2), now());
        assert!((a.metric(3, now()) - 4.0).abs() < 1e-9);
        // Node 0 (the only holder of id 6) leaves: lag = 6 − 0 = 6.
        a.on_node_down(NodeId::new(0), now());
        assert!((a.metric(2, now()) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn create_message_copies_the_stored_update() {
        let mut a = PushGossip::new(2, &[true; 2]);
        a.inject(NodeId::new(1), now());
        assert_eq!(a.create_message(NodeId::new(1)), UpdateMsg { id: 1 });
        assert_eq!(a.create_message(NodeId::new(0)), UpdateMsg { id: 0 });
    }

    #[test]
    fn empty_online_population_has_zero_metric() {
        let a = PushGossip::new(2, &[false, false]);
        assert_eq!(a.metric(0, now()), 0.0);
    }

    #[test]
    fn split_merge_roundtrips_and_replicates_freshest() {
        let n = 11;
        let mut app = PushGossip::new(n, &[true; 11]);
        for i in 0..7 {
            app.inject(NodeId::from_index(i % n), now());
        }
        app.on_node_down(NodeId::from_index(2), now());
        let (before_latest, before_metric) = (app.latest.clone(), app.metric(10, now()));
        let plan = ShardPlan::new(n, 3);
        let mut shards = app.split(&plan);
        {
            let views: Vec<&PushGossip> = shards.iter().collect();
            let sharded_metric = PushGossip::metric_sharded(&views, 10, now());
            assert_eq!(sharded_metric.to_bits(), before_metric.to_bits());
        }
        // An injection at shard 1's node must keep every replica's
        // freshest in lockstep via on_remote_inject.
        let target = NodeId::from_index(plan.range(1).start);
        for (s, sh) in shards.iter_mut().enumerate() {
            if s == 1 {
                sh.inject(target, now());
            } else {
                sh.on_remote_inject(now());
            }
        }
        let merged = PushGossip::merge(&plan, shards);
        assert_eq!(merged.freshest(), 8);
        assert_eq!(merged.stored(target), 8);
        for (i, &before) in before_latest.iter().enumerate() {
            let node = NodeId::from_index(i);
            let expect = if node == target { 8 } else { before };
            assert_eq!(merged.stored(node), expect);
        }
    }

    #[test]
    fn injection_into_offline_target_keeps_sums_consistent() {
        // The engine only injects at online nodes, but the invariant must
        // hold even if an integration misuses the API.
        let mut a = PushGossip::new(2, &[true, false]);
        a.inject(NodeId::new(1), now());
        assert_eq!(a.online_sum, 0);
        a.on_node_up(NodeId::new(1), now());
        assert_eq!(a.online_sum, 1);
    }
}
