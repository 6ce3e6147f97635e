//! Real gossip learning: linear models trained by SGD on fully
//! distributed data.
//!
//! The paper's evaluation deliberately simulates only the *age* of the
//! walking models ("no actual machine learning task is necessary for this
//! metric"), because age determines learning speed. This module implements
//! the actual Algorithm 1 workload the paper describes — stochastic
//! gradient descent over a machine-learning database with **one training
//! example per node** [4, 5] — so the library is usable for real
//! decentralized learning and the age↔loss relationship is testable.
//!
//! The task is least-squares regression: example `(x_i, y_i)` with
//! `y_i = w*·x_i + noise`; a model walking the network applies one SGD
//! step per visit:
//!
//! ```text
//! w ← w − η (wᵀx_i − y_i) x_i
//! ```
//!
//! Usefulness mirrors the age rule of Section 3.2 (a model at least as
//! trained as the local one is adopted and trained). The metric is the
//! mean squared error of the *average* of the currently stored models over
//! the whole dataset — decentralized learning's standard progress measure.

use std::sync::Arc;

use rand::Rng;
use ta_sim::rng::Xoshiro256pp;
use ta_sim::{NodeId, SimTime};
use token_account::Usefulness;

use ta_sim::shard::ShardPlan;

use crate::app::{Application, ShardableApplication};

/// A walking linear model: weights plus its visit count (age).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Weight vector (including bias as the last component).
    pub weights: Vec<f64>,
    /// Number of SGD steps applied (the paper's age counter).
    pub age: u64,
}

impl LinearModel {
    /// A zero-initialized model of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        LinearModel {
            weights: vec![0.0; dim],
            age: 0,
        }
    }

    /// The prediction `wᵀx`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum()
    }

    /// One SGD step on `(x, y)` with learning rate `eta`.
    pub fn sgd_step(&mut self, x: &[f64], y: f64, eta: f64) {
        let err = self.predict(x) - y;
        for (w, v) in self.weights.iter_mut().zip(x) {
            *w -= eta * err * v;
        }
        self.age += 1;
    }
}

/// A synthetic fully distributed regression dataset: one example per node.
#[derive(Debug, Clone)]
pub struct RegressionData {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    true_weights: Vec<f64>,
}

impl RegressionData {
    /// Generates `n` examples of dimension `dim` (plus bias) from a random
    /// ground-truth weight vector with additive noise of the given
    /// standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `dim == 0`.
    pub fn generate(n: usize, dim: usize, noise: f64, seed: u64) -> Self {
        assert!(n > 0 && dim > 0, "dataset needs positive n and dim");
        let mut rng = Xoshiro256pp::stream(seed, 0x5da);
        let d = dim + 1; // bias column
        let true_weights: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let mut x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            x.push(1.0); // bias
            let clean: f64 = true_weights.iter().zip(&x).map(|(w, v)| w * v).sum();
            // Box–Muller normal noise.
            let u1: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.next_f64();
            let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            ys.push(clean + noise * gauss);
            xs.push(x);
        }
        RegressionData {
            xs,
            ys,
            true_weights,
        }
    }

    /// Number of examples (= nodes).
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the dataset is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Feature dimension including the bias column.
    pub fn dim(&self) -> usize {
        self.xs[0].len()
    }

    /// The example held by `node`.
    pub fn example(&self, node: NodeId) -> (&[f64], f64) {
        (&self.xs[node.index()], self.ys[node.index()])
    }

    /// The generating weights (for diagnostics).
    pub fn true_weights(&self) -> &[f64] {
        &self.true_weights
    }

    /// Mean squared error of `weights` over the whole dataset.
    pub fn mse(&self, weights: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (x, &y) in self.xs.iter().zip(&self.ys) {
            let pred: f64 = weights.iter().zip(x).map(|(w, v)| w * v).sum();
            acc += (pred - y) * (pred - y);
        }
        acc / self.len() as f64
    }
}

/// A walking model message: a shared, immutable weight snapshot plus the
/// age counter.
///
/// The weights sit behind an [`Arc`] shared with the sending node's own
/// model buffer, so creating and cloning messages — once per send in the
/// protocol layer, plus the clone the engine's event queue owns per
/// in-flight delivery — costs a reference-count bump instead of a fresh
/// `Vec<f64>`. A reactive burst of `k` sends is `k` refcount bumps and
/// **zero** allocations; copy-on-write at the receiver keeps value
/// semantics exact.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdMsg {
    weights: Arc<Vec<f64>>,
    age: u64,
}

impl SgdMsg {
    /// Builds a message from raw weights (tests and external tooling; the
    /// application itself shares its model buffers without this path).
    pub fn new(weights: Vec<f64>, age: u64) -> Self {
        SgdMsg {
            weights: Arc::new(weights),
            age,
        }
    }

    /// The snapshotted weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The model age at snapshot time.
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Whether two messages share one physical weight buffer (allocation
    /// accounting in tests).
    pub fn shares_buffer(&self, other: &SgdMsg) -> bool {
        Arc::ptr_eq(&self.weights, &other.weights)
    }
}

/// Gossip learning with real SGD models (Algorithm 1 with actual training):
/// the models of one block of nodes.
///
/// The per-node weight vectors live behind [`Arc`]s shared with outgoing
/// messages: `CREATEMESSAGE` is a refcount bump (zero copies, zero
/// allocations), and `UPDATESTATE` adoption is copy-on-write — when no
/// in-flight message still references the node's buffer, the adopted model
/// and its SGD step are written in a single fused pass over the existing
/// allocation; otherwise one fresh buffer is built in the same fused pass.
/// Either way a useful message costs one vector *write*, where the cloning
/// design paid two allocations plus two full copies per message.
#[derive(Debug, Clone)]
pub struct SgdGossipLearning {
    /// First node of the block (0 for the whole network).
    base: usize,
    /// The dataset, behind an [`Arc`] so the blocks of a partitioned run
    /// can share one copy (every node's example is needed for the global
    /// MSE).
    data: Arc<RegressionData>,
    /// Current weight vector per node, shared with in-flight messages.
    weights: Vec<Arc<Vec<f64>>>,
    /// Current model age per node.
    ages: Vec<u64>,
    eta: f64,
}

impl SgdGossipLearning {
    /// Creates the application: one zero model and one example per node.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not positive and finite.
    pub fn new(data: RegressionData, eta: f64) -> Self {
        assert!(
            eta.is_finite() && eta > 0.0,
            "learning rate must be positive"
        );
        let n = data.len();
        let dim = data.dim();
        SgdGossipLearning {
            base: 0,
            data: Arc::new(data),
            weights: (0..n).map(|_| Arc::new(vec![0.0; dim])).collect(),
            ages: vec![0; n],
            eta,
        }
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        node.index() - self.base
    }

    /// The weight vector currently stored at `node`.
    pub fn weights(&self, node: NodeId) -> &[f64] {
        &self.weights[self.local(node)]
    }

    /// The age of the model currently stored at `node`.
    pub fn age(&self, node: NodeId) -> u64 {
        self.ages[self.local(node)]
    }

    /// The model currently stored at `node`, as an owned [`LinearModel`]
    /// (convenience for diagnostics; copies the weights).
    pub fn model(&self, node: NodeId) -> LinearModel {
        LinearModel {
            weights: self.weights(node).to_vec(),
            age: self.age(node),
        }
    }

    /// Component-wise average of all stored models.
    pub fn average_model(&self) -> Vec<f64> {
        average_model_of(&[self])
    }

    /// MSE of the average model over the dataset (the reported metric).
    pub fn global_mse(&self) -> f64 {
        self.data.mse(&self.average_model())
    }

    /// Mean model age (comparable with the age-only simulation).
    pub fn mean_age(&self) -> f64 {
        self.ages.iter().map(|&a| a as f64).sum::<f64>() / self.ages.len() as f64
    }
}

impl Application for SgdGossipLearning {
    type Msg = SgdMsg;

    fn create_message(&mut self, node: NodeId) -> SgdMsg {
        // Zero-copy: the message shares the node's current buffer. The
        // buffer is immutable while shared (adoption below goes
        // copy-on-write), so in-flight messages keep value semantics.
        let i = self.local(node);
        SgdMsg {
            weights: Arc::clone(&self.weights[i]),
            age: self.ages[i],
        }
    }

    /// The fused adopt-and-train pass (Algorithm 1's `updateModel`):
    /// `out = msg − η·err·x` with the gradient evaluated on the incoming
    /// model — exactly clone-then-step without the intermediate copy.
    /// In-place when the node's buffer is unshared, copy-on-write otherwise
    /// (in-flight messages keep their snapshot).
    fn update_state(
        &mut self,
        node: NodeId,
        _from: NodeId,
        msg: &SgdMsg,
        _now: SimTime,
    ) -> Usefulness {
        let i = self.local(node);
        if msg.age < self.ages[i] {
            return Usefulness::NotUseful;
        }
        let (x, y) = self.data.example(node);
        let eta = self.eta;
        let err: f64 = msg.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() - y;
        let slot = &mut self.weights[i];
        match Arc::get_mut(slot) {
            // Unique buffer: rewrite it in place, no allocation. The
            // incoming message cannot alias it (aliasing implies a second
            // reference, and `get_mut` would have refused).
            Some(buf) => {
                for ((b, &m), &v) in buf.iter_mut().zip(msg.weights.iter()).zip(x) {
                    *b = m - eta * err * v;
                }
            }
            // Shared with in-flight messages: leave their snapshot
            // untouched and build the successor buffer directly.
            None => {
                *slot = Arc::new(
                    msg.weights
                        .iter()
                        .zip(x)
                        .map(|(&m, &v)| m - eta * err * v)
                        .collect(),
                );
            }
        }
        self.ages[i] = msg.age + 1;
        Usefulness::Useful
    }

    fn metric(&self, online_count: usize, now: SimTime) -> f64 {
        Self::metric_sharded(&[self], online_count, now)
    }

    fn name(&self) -> &'static str {
        "sgd-gossip-learning"
    }
}

/// Component-wise mean of the models of `blocks`, visited in block order —
/// which for the contiguous blocks of one application *is* node order, so
/// the f64 addition sequence is the same for every partition.
fn average_model_of(blocks: &[&SgdGossipLearning]) -> Vec<f64> {
    let n: usize = blocks.iter().map(|b| b.weights.len()).sum();
    let mut avg = vec![0.0; blocks[0].data.dim()];
    for m in blocks.iter().flat_map(|b| &b.weights) {
        for (a, w) in avg.iter_mut().zip(m.iter()) {
            *a += w;
        }
    }
    for a in avg.iter_mut() {
        *a /= n as f64;
    }
    avg
}

impl ShardableApplication for SgdGossipLearning {
    fn split(self, plan: &ShardPlan) -> Vec<SgdGossipLearning> {
        plan.partition(self.weights)
            .into_iter()
            .zip(plan.partition(self.ages))
            .enumerate()
            .map(|(s, (weights, ages))| SgdGossipLearning {
                base: plan.range(s).start,
                data: Arc::clone(&self.data),
                weights,
                ages,
                eta: self.eta,
            })
            .collect()
    }

    fn merge(_plan: &ShardPlan, blocks: Vec<SgdGossipLearning>) -> Self {
        let mut blocks = blocks.into_iter();
        let mut whole = blocks.next().expect("a plan has at least one shard");
        for b in blocks {
            whole.weights.extend(b.weights);
            whole.ages.extend(b.ages);
        }
        whole
    }

    fn metric_sharded(blocks: &[&SgdGossipLearning], _online_count: usize, _now: SimTime) -> f64 {
        blocks[0].data.mse(&average_model_of(blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> RegressionData {
        RegressionData::generate(n, 4, 0.01, 7)
    }

    #[test]
    fn dataset_is_deterministic_and_learnable() {
        let a = data(50);
        let b = data(50);
        assert_eq!(a.xs, b.xs);
        assert_eq!(a.ys, b.ys);
        // The true weights achieve near-noise-level MSE.
        assert!(a.mse(a.true_weights()) < 0.01);
        // The zero model does not.
        assert!(a.mse(&vec![0.0; a.dim()]) > 0.05);
    }

    #[test]
    fn sgd_step_reduces_pointwise_error() {
        let d = data(10);
        let mut m = LinearModel::zeros(d.dim());
        let (x, y) = d.example(NodeId::new(0));
        let before = (m.predict(x) - y).abs();
        m.sgd_step(x, y, 0.1);
        let after = (m.predict(x) - y).abs();
        assert!(after < before);
        assert_eq!(m.age, 1);
    }

    #[test]
    fn centralized_walk_converges() {
        // A single model visiting every node repeatedly (the reactive
        // ideal) must drive the global MSE near the noise floor.
        let d = data(60);
        let mut app = SgdGossipLearning::new(d, 0.2);
        let mut model = LinearModel::zeros(app.data.dim());
        for sweep in 0..60 {
            for i in 0..60 {
                let (x, y) = app.data.example(NodeId::new(i as u32));
                model.sgd_step(x, y, 0.2);
            }
            let _ = sweep;
        }
        assert!(app.data.mse(&model.weights) < 0.02);
        // Store it everywhere: global MSE reflects it.
        for w in app.weights.iter_mut() {
            *w = Arc::new(model.weights.clone());
        }
        assert!(app.global_mse() < 0.02);
    }

    #[test]
    fn fused_adoption_matches_clone_then_step() {
        // The single-pass adopt+train must equal the reference two-step
        // (clone, then sgd_step) bit for bit.
        let d = data(6);
        let mut app = SgdGossipLearning::new(d.clone(), 0.17);
        let incoming: Vec<f64> = (0..d.dim()).map(|j| 0.3 * j as f64 - 0.4).collect();
        let msg = SgdMsg::new(incoming.clone(), 5);
        app.update_state(NodeId::new(2), NodeId::new(0), &msg, SimTime::from_secs(1));
        let mut reference = LinearModel {
            weights: incoming,
            age: 5,
        };
        let (x, y) = d.example(NodeId::new(2));
        reference.sgd_step(x, y, 0.17);
        assert_eq!(app.weights(NodeId::new(2)), reference.weights.as_slice());
        assert_eq!(app.age(NodeId::new(2)), reference.age);
    }

    #[test]
    fn update_state_follows_the_age_rule() {
        let d = data(10);
        let mut app = SgdGossipLearning::new(d, 0.1);
        let now = SimTime::from_secs(1);
        let dim = app.data.dim();
        let walker = SgdMsg::new(vec![0.0; dim], 3);
        let u = app.update_state(NodeId::new(0), NodeId::new(1), &walker, now);
        assert_eq!(u, Usefulness::Useful);
        assert_eq!(app.age(NodeId::new(0)), 4);
        // An older (less trained) model is rejected.
        let stale = SgdMsg::new(vec![0.0; dim], 0);
        let u = app.update_state(NodeId::new(0), NodeId::new(1), &stale, now);
        assert_eq!(u, Usefulness::NotUseful);
        assert_eq!(app.age(NodeId::new(0)), 4);
    }

    #[test]
    fn burst_sends_share_one_buffer_with_zero_copies() {
        // k messages from an unchanged model are k Arc clones of the
        // node's own buffer: a reactive burst costs zero allocations.
        let mut app = SgdGossipLearning::new(data(5), 0.1);
        let a = app.create_message(NodeId::new(2));
        let b = app.create_message(NodeId::new(2));
        let c = app.create_message(NodeId::new(2));
        assert!(a.shares_buffer(&b) && b.shares_buffer(&c));
        assert_eq!(a.weights(), app.weights(NodeId::new(2)));
        assert_eq!(Arc::as_ptr(&a.weights), Arc::as_ptr(&app.weights[2]));
    }

    #[test]
    fn in_flight_messages_keep_value_semantics_across_adoption() {
        let mut app = SgdGossipLearning::new(data(5), 0.1);
        let before = app.create_message(NodeId::new(0));
        let incoming = SgdMsg::new(vec![0.5; app.data.dim()], 7);
        let u = app.update_state(
            NodeId::new(0),
            NodeId::new(1),
            &incoming,
            SimTime::from_secs(1),
        );
        assert_eq!(u, Usefulness::Useful);
        let after = app.create_message(NodeId::new(0));
        // Copy-on-write: the node moved to a fresh buffer because `before`
        // still holds the old one, whose contents must be unchanged.
        assert!(!after.shares_buffer(&before));
        assert_eq!(after.age(), 8);
        assert_eq!(before.age(), 0);
        assert_eq!(before.weights(), vec![0.0; app.data.dim()].as_slice());
        assert_eq!(after.weights(), app.weights(NodeId::new(0)));
        assert_ne!(after.weights(), before.weights());
    }

    #[test]
    fn adoption_reuses_the_node_weight_buffer_when_unshared() {
        // With no outstanding messages, copy-on-write degenerates to an
        // in-place rewrite: the node's buffer is never reallocated.
        let mut app = SgdGossipLearning::new(data(5), 0.1);
        let ptr_before = Arc::as_ptr(&app.weights[0]);
        for age in 1..20 {
            let msg = SgdMsg::new(vec![0.1 * age as f64; app.data.dim()], age);
            app.update_state(NodeId::new(0), NodeId::new(1), &msg, SimTime::from_secs(1));
        }
        assert_eq!(ptr_before, Arc::as_ptr(&app.weights[0]));
        assert_eq!(app.age(NodeId::new(0)), 20);
    }

    #[test]
    fn average_model_is_componentwise_mean() {
        let d = data(2);
        let dim = d.dim();
        let mut app = SgdGossipLearning::new(d, 0.1);
        app.weights[0] = Arc::new(vec![1.0; dim]);
        app.weights[1] = Arc::new(vec![3.0; dim]);
        assert_eq!(app.average_model(), vec![2.0; dim]);
        // The owned-model accessor mirrors the shared state.
        assert_eq!(app.model(NodeId::new(0)).weights, vec![1.0; dim]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_learning_rate() {
        let _ = SgdGossipLearning::new(data(5), 0.0);
    }
}
