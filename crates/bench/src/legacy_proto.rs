//! The old protocol hot path, kept as a benchmark
//! baseline (the same role [`crate::legacy_wheel`] plays for the slab
//! wheel rewrite).
//!
//! [`LegacyTokenProtocol`] reproduces the three per-event taxes the
//! protocol layer used to pay:
//!
//! 1. **boxed formulas** — the strategy lives behind `Box<dyn Strategy>`,
//!    and every decision evaluates `PROACTIVE`/`REACTIVE` through a
//!    virtual call and rounds in `f64` ([`formula_round`],
//!    [`formula_message`]) instead of looking a compiled decision table up;
//! 2. **two-pass peer selection** — every send scans the sender's
//!    neighbour list twice (count online, then `nth`), O(degree) per send;
//! 3. **per-send payload allocation** — [`CloningSgd`] clones the full
//!    weight vector on every `create_message` and twice more on adoption,
//!    exactly as the old `SgdGossipLearning` did.
//!
//! Only the paths the end-to-end benchmark exercises are implemented
//! (round ticks and application messages under a failure-free schedule);
//! the accounting is identical to the real driver on those paths, so the
//! two produce comparable event streams.

use std::sync::Arc;

use ta_apps::sgd::{LinearModel, RegressionData};
use ta_overlay::Topology;
use ta_sim::engine::{Driver, SimApi};
use ta_sim::rng::Xoshiro256pp;
use ta_sim::NodeId;
use token_account::rounding::rand_round;
use token_account::{Strategy, Usefulness};

/// One round tick evaluated from the formulas: returns whether the round
/// sends proactively, banking the token otherwise.
pub fn formula_round(strategy: &dyn Strategy, balance: &mut i64, rng: &mut Xoshiro256pp) -> bool {
    let send = rng.next_f64() < strategy.proactive(*balance);
    if !send {
        *balance += 1;
    }
    send
}

/// One message reaction evaluated from the formulas: returns the tokens
/// burned.
///
/// Debt-allowing strategies are not modelled: the burn is clamped to the
/// balance, where the real decision path lets such a strategy overdraw.
/// The baselines only drive non-debt strategies through it.
pub fn formula_message(
    strategy: &dyn Strategy,
    balance: &mut i64,
    usefulness: Usefulness,
    rng: &mut Xoshiro256pp,
) -> u64 {
    let x = rand_round(strategy.reactive(*balance, usefulness), rng).min((*balance).max(0) as u64);
    *balance -= x as i64;
    x
}

/// The old exact two-pass online selection: count, then `nth` (no
/// rejection sampling, no packed mirror).
pub fn two_pass_select_online(
    topo: &Topology,
    node: NodeId,
    online: &[bool],
    rng: &mut Xoshiro256pp,
) -> Option<NodeId> {
    let peers = topo.out_neighbors(node);
    let alive = peers.iter().filter(|p| online[p.index()]).count();
    if alive == 0 {
        return None;
    }
    let pick = rng.below(alive as u64) as usize;
    peers
        .iter()
        .filter(|p| online[p.index()])
        .nth(pick)
        .copied()
}

/// Gossip learning over real SGD models with the old value-copy message
/// semantics: one fresh `Vec<f64>` per send, two more per adoption.
#[derive(Debug)]
pub struct CloningSgd {
    data: RegressionData,
    models: Vec<LinearModel>,
    eta: f64,
}

impl CloningSgd {
    /// One zero model and one example per node.
    pub fn new(data: RegressionData, eta: f64) -> Self {
        let n = data.len();
        let dim = data.dim();
        CloningSgd {
            data,
            models: (0..n).map(|_| LinearModel::zeros(dim)).collect(),
            eta,
        }
    }

    /// Mean model age (workload sanity checks).
    pub fn mean_age(&self) -> f64 {
        self.models.iter().map(|m| m.age as f64).sum::<f64>() / self.models.len() as f64
    }

    fn create_message(&mut self, node: NodeId) -> LinearModel {
        self.models[node.index()].clone()
    }

    fn update_state(&mut self, node: NodeId, msg: &LinearModel) -> Usefulness {
        let current = &self.models[node.index()];
        if msg.age >= current.age {
            let mut adopted = msg.clone();
            let (x, y) = self.data.example(node);
            adopted.sgd_step(x, y, self.eta);
            self.models[node.index()] = adopted;
            Usefulness::Useful
        } else {
            Usefulness::NotUseful
        }
    }
}

/// The old Algorithm-4 driver: boxed formulas, two-pass selection,
/// cloning payloads, per-send transfer-time lookups.
#[derive(Debug)]
pub struct LegacyTokenProtocol {
    strategy: Box<dyn Strategy>,
    app: CloningSgd,
    topo: Arc<Topology>,
    balances: Vec<i64>,
    online: Vec<bool>,
    sends_per_slot: Vec<u64>,
    /// Sends performed (sanity checks against the modern driver).
    pub sent: u64,
}

impl LegacyTokenProtocol {
    /// Builds the driver over an always-online population.
    pub fn new(topo: Arc<Topology>, strategy: Box<dyn Strategy>, app: CloningSgd) -> Self {
        let n = topo.n();
        LegacyTokenProtocol {
            strategy,
            app,
            topo,
            balances: vec![0; n],
            online: vec![true; n],
            sends_per_slot: Vec::new(),
            sent: 0,
        }
    }

    /// The application, for post-run inspection.
    pub fn app(&self) -> &CloningSgd {
        &self.app
    }

    fn record_send(&mut self, api: &SimApi<'_, LinearModel>) {
        // Pre-PR behavior: the slot length is recomputed on every send.
        let slot_len = api.config().transfer_time().as_micros().max(1);
        let bucket = (api.now().as_micros() / slot_len) as usize;
        if bucket >= self.sends_per_slot.len() {
            self.sends_per_slot.resize(bucket + 1, 0);
        }
        self.sends_per_slot[bucket] += 1;
    }

    fn send_state(&mut self, api: &mut SimApi<'_, LinearModel>, node: NodeId) -> bool {
        match two_pass_select_online(&self.topo, node, &self.online, api.rng()) {
            Some(peer) => {
                let msg = self.app.create_message(node);
                api.send(node, peer, msg);
                self.record_send(api);
                self.sent += 1;
                true
            }
            None => false,
        }
    }
}

impl Driver for LegacyTokenProtocol {
    type Msg = LinearModel;

    fn on_round_tick(&mut self, api: &mut SimApi<'_, Self::Msg>, node: NodeId) {
        let i = node.index();
        if formula_round(&*self.strategy, &mut self.balances[i], api.rng())
            && !self.send_state(api, node)
        {
            self.balances[i] += 1;
        }
    }

    fn on_message(
        &mut self,
        api: &mut SimApi<'_, Self::Msg>,
        _from: NodeId,
        to: NodeId,
        msg: Self::Msg,
    ) {
        let usefulness = self.app.update_state(to, &msg);
        let i = to.index();
        let burst = formula_message(
            &*self.strategy,
            &mut self.balances[i],
            usefulness,
            api.rng(),
        );
        for _ in 0..burst {
            if !self.send_state(api, to) {
                self.balances[i] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_overlay::generators::k_out_random;
    use ta_sim::config::SimConfig;
    use ta_sim::engine::{AlwaysOn, Simulation};
    use ta_sim::paper;
    use token_account::prelude::*;

    #[test]
    fn legacy_driver_runs_and_learns() {
        let n = 60;
        let mut rng = Xoshiro256pp::stream(2, 0);
        let topo = Arc::new(k_out_random(n, 8, &mut rng).unwrap());
        let cfg = SimConfig::builder(n)
            .delta(paper::DELTA)
            .transfer_time(paper::TRANSFER_TIME)
            .duration(paper::DELTA * 30)
            .seed(5)
            .build()
            .unwrap();
        let data = RegressionData::generate(n, 4, 0.05, 3);
        let app = CloningSgd::new(data, 0.1);
        let strategy: Box<dyn Strategy> = Box::new(RandomizedTokenAccount::new(5, 10).unwrap());
        let proto = LegacyTokenProtocol::new(topo, strategy, app);
        let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
        sim.run_to_end();
        assert!(sim.driver().sent > 0);
        assert!(sim.driver().app().mean_age() > 1.0);
    }

    #[test]
    fn two_pass_matches_online_filter() {
        let mut rng = Xoshiro256pp::stream(4, 0);
        let topo = k_out_random(20, 6, &mut rng).unwrap();
        let online: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        for node in 0..20 {
            let id = NodeId::from_index(node);
            match two_pass_select_online(&topo, id, &online, &mut rng) {
                Some(p) => assert!(online[p.index()]),
                None => assert!(topo.out_neighbors(id).iter().all(|p| !online[p.index()])),
            }
        }
    }
}
