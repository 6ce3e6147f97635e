//! Chaotic asynchronous power iteration (Section 2.4 / 4.1.3).
//!
//! The network computes the dominant eigenvector of the column-stochastic
//! matrix of its own overlay (Lubachevsky & Mitra's chaotic iteration,
//! Algorithm 3): node `i` buffers the last value `b_ki` received from each
//! in-neighbour `k`, computes `x_i = Σ_k A_ik · b_ki` with
//! `A_ik = 1/outdeg(k)`, and sends `x_i` to a sampled out-neighbour.
//!
//! **Usefulness** (Section 3.2): a message is useful iff it changes the
//! buffered value (and hence the local state).
//!
//! **Metric**: the angle between the current global iterate `x` and the
//! true dominant eigenvector, computed centrally at construction time
//! (Section 4.1.3). Zero means a perfect solution.

use std::sync::Arc;

use ta_overlay::spectral::{
    angle_between, dominant_eigenvector, NotStochasticError, REFERENCE_MAX_ITERS, REFERENCE_TOL,
};
use ta_overlay::Topology;
use ta_sim::{NodeId, SimTime};
use token_account::Usefulness;

use crate::app::Application;

/// A chaotic-iteration message: the sender's current weight `x_i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightMsg {
    /// The sender's current iterate value.
    pub x: f64,
}

/// The chaotic power iteration application state.
#[derive(Debug, Clone)]
pub struct ChaoticIteration {
    topo: Arc<Topology>,
    /// Buffered incoming values, CSR-aligned with the in-adjacency of the
    /// topology: `buffers[in_offset(i) + slot] = b_ki`.
    buffers: Vec<f64>,
    /// Per-node offsets into `buffers` (mirror of the topology in-CSR).
    offsets: Vec<usize>,
    /// The reference dominant eigenvector (L2-normalized).
    reference: Vec<f64>,
}

impl ChaoticIteration {
    /// Creates the application over `topo`, initializing all buffers to 1
    /// ("any positive value", Algorithm 3) and computing the reference
    /// eigenvector by centralized power iteration.
    ///
    /// # Errors
    ///
    /// Returns [`NotStochasticError`] if some node has out-degree zero
    /// (the matrix would not be column-stochastic).
    pub fn new(topo: Arc<Topology>) -> Result<Self, NotStochasticError> {
        let reference = dominant_eigenvector(&topo, REFERENCE_MAX_ITERS, REFERENCE_TOL)?;
        Ok(Self::with_reference(topo, reference))
    }

    /// Creates the application with a precomputed reference eigenvector.
    ///
    /// The reference only depends on the topology, so multi-run experiments
    /// compute it once and share it across runs instead of re-running the
    /// centralized power iteration per replica.
    ///
    /// # Panics
    ///
    /// Panics if `reference.len() != topo.n()`.
    pub fn with_reference(topo: Arc<Topology>, reference: Vec<f64>) -> Self {
        assert_eq!(
            reference.len(),
            topo.n(),
            "reference eigenvector length mismatch"
        );
        let n = topo.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for i in 0..n {
            let node = NodeId::from_index(i);
            let last = *offsets.last().expect("offsets never empty");
            offsets.push(last + topo.in_degree(node));
        }
        let total = *offsets.last().expect("offsets never empty");
        ChaoticIteration {
            topo,
            buffers: vec![1.0; total],
            offsets,
            reference,
        }
    }

    /// Re-initializes every buffer with a uniform random value in
    /// `(0.1, 2.0)`.
    ///
    /// Algorithm 3 initializes `b_ki` to "any positive value"; the constant
    /// 1.0 default is nearly the dominant eigenvector on near-regular
    /// graphs (a degenerate start), so experiments randomize the buffers to
    /// measure actual convergence.
    pub fn randomize_buffers<R: rand::Rng + ?Sized>(&mut self, rng: &mut R) {
        for b in &mut self.buffers {
            *b = 0.1 + 1.9 * rng.gen::<f64>();
        }
    }

    /// The current iterate `x_i` of `node`: `Σ_k b_ki / outdeg(k)`.
    pub fn value(&self, node: NodeId) -> f64 {
        let i = node.index();
        let in_neighbors = self.topo.in_neighbors(node);
        let base = self.offsets[i];
        let mut acc = 0.0;
        for (slot, &k) in in_neighbors.iter().enumerate() {
            acc += self.buffers[base + slot] / self.topo.out_degree(k) as f64;
        }
        acc
    }

    /// The full current iterate vector.
    pub fn vector(&self) -> Vec<f64> {
        (0..self.topo.n())
            .map(|i| self.value(NodeId::from_index(i)))
            .collect()
    }

    /// The reference dominant eigenvector.
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    /// Angle (radians) between the current iterate and the reference.
    ///
    /// This is [`angle_between`], so it reads exactly 0 below about
    /// 1.05e-8 rad and is never below 1.49e-8 otherwise: the metric
    /// bottoms out near 1.5e-8, not at machine precision.
    pub fn angle(&self) -> f64 {
        angle_between(&self.vector(), &self.reference)
    }
}

impl Application for ChaoticIteration {
    type Msg = WeightMsg;

    fn create_message(&mut self, node: NodeId) -> WeightMsg {
        WeightMsg {
            x: self.value(node),
        }
    }

    fn update_state(
        &mut self,
        node: NodeId,
        from: NodeId,
        msg: &WeightMsg,
        _now: SimTime,
    ) -> Usefulness {
        match self.topo.in_edge_index(node, from) {
            Some(slot) => {
                let idx = self.offsets[node.index()] + slot;
                let changed = self.buffers[idx] != msg.x;
                self.buffers[idx] = msg.x;
                // "usefulness is 1 iff the received message causes a change
                // in the local state."
                Usefulness::from_bool(changed)
            }
            // A weight from a non-in-neighbour cannot update the matrix
            // row; possible only through pull replies, which chaotic
            // iteration does not use.
            None => Usefulness::NotUseful,
        }
    }

    fn metric(&self, _online_count: usize, _now: SimTime) -> f64 {
        self.angle()
    }

    fn name(&self) -> &'static str {
        "chaotic-iteration"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_overlay::generators::{complete, watts_strogatz_strongly_connected};

    fn complete_app(n: usize) -> ChaoticIteration {
        ChaoticIteration::new(Arc::new(complete(n).unwrap())).unwrap()
    }

    #[test]
    fn initial_values_are_uniform() {
        let app = complete_app(4);
        // Every buffer is 1, outdeg = 3: x_i = 3 · (1/3) = 1.
        for i in 0..4 {
            assert!((app.value(NodeId::new(i)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn complete_graph_starts_at_the_fixed_point() {
        // The uniform vector is the dominant eigenvector of the complete
        // graph, so the initial angle is already ~0.
        let app = complete_app(5);
        assert!(app.angle() < 1e-9, "angle = {}", app.angle());
    }

    #[test]
    fn update_state_reports_change_as_useful() {
        let mut app = complete_app(3);
        let now = SimTime::from_secs(1);
        let u = app.update_state(NodeId::new(0), NodeId::new(1), &WeightMsg { x: 2.0 }, now);
        assert_eq!(u, Usefulness::Useful);
        // Same value again: no change, not useful.
        let u = app.update_state(NodeId::new(0), NodeId::new(1), &WeightMsg { x: 2.0 }, now);
        assert_eq!(u, Usefulness::NotUseful);
        // x_0 = (2 + 1)/2 ... complete(3): outdeg 2, in-neighbours {1, 2}:
        // x_0 = 2/2 + 1/2 = 1.5.
        assert!((app.value(NodeId::new(0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn message_from_non_neighbor_is_ignored() {
        // Ring 0 -> 1 -> 2 -> 0: node 0's only in-neighbour is 2.
        let topo = Arc::new(ta_overlay::generators::ring(3).unwrap());
        let mut app = ChaoticIteration::new(topo).unwrap();
        let now = SimTime::from_secs(1);
        let before = app.value(NodeId::new(0));
        let u = app.update_state(NodeId::new(0), NodeId::new(1), &WeightMsg { x: 9.0 }, now);
        assert_eq!(u, Usefulness::NotUseful);
        assert_eq!(app.value(NodeId::new(0)), before);
    }

    #[test]
    fn synchronous_sweeps_converge_on_small_world() {
        // Simulate perfect synchronous rounds by delivering every edge's
        // value each sweep; the angle must fall monotonically-ish to ~0.
        let topo = watts_strogatz_strongly_connected(100, 4, 0.05, 3, 20).unwrap();
        let topo = Arc::new(topo);
        let mut app = ChaoticIteration::new(Arc::clone(&topo)).unwrap();
        let now = SimTime::from_secs(1);
        let initial_angle = app.angle();
        for _ in 0..200 {
            // Snapshot then deliver x_k to every out-neighbour of k.
            let values: Vec<f64> = app.vector();
            for k in 0..100u32 {
                let from = NodeId::new(k);
                for &to in topo.out_neighbors(from) {
                    app.update_state(
                        to,
                        from,
                        &WeightMsg {
                            x: values[k as usize],
                        },
                        now,
                    );
                }
            }
        }
        let final_angle = app.angle();
        // The WS graph is chosen for *slow* mixing (Section 4.1.3), so two
        // hundred sweeps will not reach machine precision — two orders of
        // magnitude is already clear convergence.
        assert!(
            final_angle < initial_angle / 100.0 && final_angle < 1e-2,
            "angle {initial_angle} -> {final_angle}"
        );
    }

    #[test]
    fn create_message_carries_current_value() {
        let mut app = complete_app(3);
        let msg = app.create_message(NodeId::new(2));
        assert!((msg.x - app.value(NodeId::new(2))).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_out_degree_topologies() {
        let topo = Arc::new(Topology::from_edges(2, [(0, 1)]).unwrap());
        assert!(ChaoticIteration::new(topo).is_err());
    }
}
