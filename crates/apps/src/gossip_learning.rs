//! Gossip learning (Section 2.2 / 4.1.1).
//!
//! Machine-learning models perform random walks; each visit trains the
//! model on the local example. As in the paper, "we did not implement any
//! actual machine learning tasks, but just simulated the age of the models
//! as this forms the basis of our performance metric": the state of a node
//! is the *age* of its current model — the number of nodes the model has
//! visited.
//!
//! **Usefulness** (Section 3.2): a received model is useful iff it is at
//! least as old as the local one; then it is "trained" (age + 1) and
//! stored, otherwise discarded.
//!
//! **Metric** (eq. 6): the mean over online nodes of `n_i(t) / n*(t)`,
//! where `n*(t) = t / transfer_time` is the age of a model forwarded with
//! zero delay ("hot potato"). 1.0 means reactive-optimal speed; the purely
//! proactive baseline reaches roughly `transfer_time/Δ`-scaled ages.

use ta_sim::shard::ShardPlan;
use ta_sim::{NodeId, SimDuration, SimTime};
use token_account::Usefulness;

use crate::app::{Application, ShardableApplication};

/// A gossip-learning model message: the model's age (visit count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelMsg {
    /// Number of nodes this model has visited.
    pub age: u64,
}

/// The gossip learning application state of one block of nodes.
#[derive(Debug, Clone)]
pub struct GossipLearning {
    /// First node of the block (0 for the whole network).
    base: usize,
    ages: Vec<u64>,
    online: Vec<bool>,
    /// Σ ages over online nodes, maintained incrementally so the metric is
    /// O(1) even at N = 500,000.
    online_age_sum: u64,
    online_count: usize,
    transfer: SimDuration,
}

impl GossipLearning {
    /// Creates the application for `n` nodes with the given message
    /// transfer time (the denominator scale of eq. 6) and the initial
    /// online set.
    ///
    /// # Panics
    ///
    /// Panics if `initial_online.len() != n` or the transfer time is zero.
    pub fn new(n: usize, transfer: SimDuration, initial_online: &[bool]) -> Self {
        assert_eq!(initial_online.len(), n, "initial_online length mismatch");
        assert!(!transfer.is_zero(), "transfer time must be positive");
        GossipLearning {
            base: 0,
            ages: vec![0; n],
            online: initial_online.to_vec(),
            online_age_sum: 0,
            online_count: initial_online.iter().filter(|&&b| b).count(),
            transfer,
        }
    }

    /// Age of the model currently stored at `node`.
    pub fn age(&self, node: NodeId) -> u64 {
        self.ages[self.local(node)]
    }

    /// All model ages of the block (for distribution analyses).
    pub fn ages(&self) -> &[u64] {
        &self.ages
    }

    /// The reactive-optimal age `n*(t) = t / transfer_time`.
    pub fn optimal_age(&self, now: SimTime) -> f64 {
        now.as_secs_f64() / self.transfer.as_secs_f64()
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        node.index() - self.base
    }
}

impl Application for GossipLearning {
    type Msg = ModelMsg;

    fn create_message(&mut self, node: NodeId) -> ModelMsg {
        ModelMsg {
            age: self.ages[self.local(node)],
        }
    }

    /// The age-update rule of Section 3.2: adopt-and-train iff at least as
    /// old.
    fn update_state(
        &mut self,
        node: NodeId,
        _from: NodeId,
        msg: &ModelMsg,
        _now: SimTime,
    ) -> Usefulness {
        let i = self.local(node);
        if msg.age >= self.ages[i] {
            let new_age = msg.age + 1;
            if self.online[i] {
                self.online_age_sum += new_age - self.ages[i];
            }
            self.ages[i] = new_age;
            Usefulness::Useful
        } else {
            Usefulness::NotUseful
        }
    }

    fn metric(&self, online_count: usize, now: SimTime) -> f64 {
        Self::metric_sharded(&[self], online_count, now)
    }

    fn on_node_up(&mut self, node: NodeId, _now: SimTime) {
        let i = self.local(node);
        if !self.online[i] {
            self.online[i] = true;
            self.online_age_sum += self.ages[i];
            self.online_count += 1;
        }
    }

    fn on_node_down(&mut self, node: NodeId, _now: SimTime) {
        let i = self.local(node);
        if self.online[i] {
            self.online[i] = false;
            self.online_age_sum -= self.ages[i];
            self.online_count -= 1;
        }
    }

    fn name(&self) -> &'static str {
        "gossip-learning"
    }
}

impl ShardableApplication for GossipLearning {
    fn split(self, plan: &ShardPlan) -> Vec<GossipLearning> {
        plan.partition(self.ages)
            .into_iter()
            .zip(plan.partition(self.online))
            .enumerate()
            .map(|(s, (ages, online))| GossipLearning {
                base: plan.range(s).start,
                online_age_sum: ages
                    .iter()
                    .zip(&online)
                    .filter(|(_, &up)| up)
                    .map(|(&a, _)| a)
                    .sum(),
                online_count: online.iter().filter(|&&up| up).count(),
                ages,
                online,
                transfer: self.transfer,
            })
            .collect()
    }

    fn merge(_plan: &ShardPlan, blocks: Vec<GossipLearning>) -> Self {
        let mut whole = GossipLearning::new(0, blocks[0].transfer, &[]);
        for b in blocks {
            whole.ages.extend(b.ages);
            whole.online.extend(b.online);
            whole.online_age_sum += b.online_age_sum;
            whole.online_count += b.online_count;
        }
        whole
    }

    fn metric_sharded(blocks: &[&GossipLearning], _online_count: usize, now: SimTime) -> f64 {
        // Eq. 6: mean relative age over online nodes. The partials are
        // integers, so any partition yields the same sums and the same
        // f64 result.
        let sum: u64 = blocks.iter().map(|b| b.online_age_sum).sum();
        let count: usize = blocks.iter().map(|b| b.online_count).sum();
        let optimal = now.as_secs_f64() / blocks[0].transfer.as_secs_f64();
        if optimal <= 0.0 || count == 0 {
            return 0.0;
        }
        sum as f64 / (count as f64 * optimal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(n: usize) -> GossipLearning {
        GossipLearning::new(n, SimDuration::from_secs_f64(1.728), &vec![true; n])
    }

    #[test]
    fn fresher_model_is_adopted_and_trained() {
        let mut a = app(3);
        let u = a.update_state(
            NodeId::new(0),
            NodeId::new(1),
            &ModelMsg { age: 5 },
            SimTime::from_secs(10),
        );
        assert_eq!(u, Usefulness::Useful);
        assert_eq!(a.age(NodeId::new(0)), 6);
    }

    #[test]
    fn equal_age_counts_as_useful() {
        // "usefulness is 0 if the current model is older than the received
        // model, and 1 otherwise" — equal age is useful.
        let mut a = app(2);
        a.ages[0] = 4;
        a.online_age_sum = 4;
        let u = a.update_state(
            NodeId::new(0),
            NodeId::new(1),
            &ModelMsg { age: 4 },
            SimTime::from_secs(1),
        );
        assert_eq!(u, Usefulness::Useful);
        assert_eq!(a.age(NodeId::new(0)), 5);
    }

    #[test]
    fn staler_model_is_discarded() {
        let mut a = app(2);
        a.ages[0] = 10;
        a.online_age_sum = 10;
        let u = a.update_state(
            NodeId::new(0),
            NodeId::new(1),
            &ModelMsg { age: 3 },
            SimTime::from_secs(1),
        );
        assert_eq!(u, Usefulness::NotUseful);
        assert_eq!(a.age(NodeId::new(0)), 10);
    }

    #[test]
    fn create_message_copies_state() {
        let mut a = app(2);
        a.ages[1] = 7;
        assert_eq!(a.create_message(NodeId::new(1)), ModelMsg { age: 7 });
        // Creating a message does not change state.
        assert_eq!(a.age(NodeId::new(1)), 7);
    }

    #[test]
    fn metric_is_relative_to_hot_potato_speed() {
        let mut a = app(2);
        // After 17.28 s the optimal model visited 10 nodes.
        let now = SimTime::from_secs_f64(17.28);
        assert!((a.optimal_age(now) - 10.0).abs() < 1e-9);
        a.ages = vec![5, 5];
        a.online_age_sum = 10;
        // Mean age 5 vs optimal 10 ⇒ 0.5.
        assert!((a.metric(2, now) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn metric_at_time_zero_is_zero() {
        let a = app(2);
        assert_eq!(a.metric(2, SimTime::ZERO), 0.0);
    }

    #[test]
    fn churn_bookkeeping_tracks_online_sum() {
        let mut a = GossipLearning::new(2, SimDuration::from_secs(1), &[true, false]);
        a.ages = vec![4, 6];
        a.online_age_sum = 4;
        let now = SimTime::from_secs(10);
        // Node 1 online: sum 10 over 2 nodes; optimal age = 10.
        a.on_node_up(NodeId::new(1), now);
        assert!((a.metric(2, now) - 0.5).abs() < 1e-9);
        // Node 0 offline: sum 6 over 1 node.
        a.on_node_down(NodeId::new(0), now);
        assert!((a.metric(1, now) - 0.6).abs() < 1e-9);
        // Duplicate transitions are idempotent.
        a.on_node_down(NodeId::new(0), now);
        assert!((a.metric(1, now) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn offline_updates_do_not_corrupt_online_sum() {
        let mut a = GossipLearning::new(2, SimDuration::from_secs(1), &[true, false]);
        // An update at the offline node (cannot happen through the engine,
        // but the invariant should hold regardless).
        a.update_state(
            NodeId::new(1),
            NodeId::new(0),
            &ModelMsg { age: 3 },
            SimTime::from_secs(1),
        );
        assert_eq!(a.online_age_sum, 0);
        a.on_node_up(NodeId::new(1), SimTime::from_secs(2));
        assert_eq!(a.online_age_sum, 4);
    }
}
