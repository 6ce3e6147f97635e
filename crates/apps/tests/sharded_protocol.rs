//! Digest equality of the full Algorithm-4 driver: a [`TokenProtocol`]
//! cut into shards must be byte-identical to the same protocol run whole
//! (S = 1, [`Simulation`]) for the shardable applications, every shard
//! count, and churn on/off — including the metric series (f64 bits), the token series, the
//! burstiness histogram, every counter, and the final application state.

use std::sync::Arc;

use ta_apps::gossip_learning::GossipLearning;
use ta_apps::protocol::{ProtocolResults, TokenProtocol};
use ta_apps::sgd::{RegressionData, SgdGossipLearning};
use ta_apps::{Application, ShardableApplication};
use ta_overlay::generators::k_out_random;
use ta_overlay::Topology;
use ta_sim::config::SimConfig;
use ta_sim::engine::{AvailabilityModel, Simulation};
use ta_sim::rng::Xoshiro256pp;
use ta_sim::shard::{ShardOpts, ShardedSimulation};
use ta_sim::{NodeId, SimDuration, SimStats, SimTime};
use token_account::prelude::*;

/// Scripted deterministic churn touching both shard-boundary-aligned and
/// off-grid instants.
struct Flap;

impl AvailabilityModel for Flap {
    fn initially_online(&self, node: NodeId) -> bool {
        node.index() % 7 != 3
    }
    fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool)) {
        let i = node.index() as u64;
        match i % 4 {
            0 => {
                f(SimTime::from_secs(30 + i % 11), false);
                f(SimTime::from_secs(90 + i % 5), true);
            }
            1 if i % 7 == 3 => f(SimTime::from_micros(45_000_000 + i * 77_001), true),
            2 => f(SimTime::from_secs(150), false),
            _ => {}
        }
    }
}

fn cfg(n: usize, seed: u64) -> SimConfig {
    SimConfig::builder(n)
        .delta(SimDuration::from_secs(20))
        .transfer_time(SimDuration::from_millis(1500))
        .duration(SimDuration::from_secs(400))
        .sample_period(SimDuration::from_secs(20))
        .injection_period(SimDuration::from_secs(13))
        .seed(seed)
        .build()
        .unwrap()
}

fn topo(n: usize, seed: u64) -> Arc<Topology> {
    let mut rng = Xoshiro256pp::stream(seed, 1);
    Arc::new(k_out_random(n, 6, &mut rng).unwrap())
}

/// Everything a run produces, reduced to exactly comparable form
/// (f64 compared by bits).
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    metric: Vec<(u64, u64)>,
    tokens: Vec<(u64, u64)>,
    stats: ta_apps::ProtocolStats,
    sim: SimStats,
    sends_per_slot: Vec<u64>,
    balances_sum: i64,
    app: Vec<u64>,
}

fn digest<A: ta_apps::Application>(
    results: ProtocolResults<A>,
    sim: SimStats,
    app_state: Vec<u64>,
) -> Digest {
    let bits = |ts: &ta_metrics::TimeSeries| {
        ts.times()
            .iter()
            .zip(ts.values())
            .map(|(&t, &v)| (t.to_bits(), v.to_bits()))
            .collect()
    };
    Digest {
        metric: bits(&results.metric),
        tokens: bits(&results.tokens),
        stats: results.stats,
        sim,
        sends_per_slot: results.sends_per_slot,
        balances_sum: results.balances_sum,
        app: app_state,
    }
}

fn build_gossip(
    n: usize,
    seed: u64,
    topo: &Arc<Topology>,
    churn: bool,
) -> TokenProtocol<GossipLearning> {
    let initial: Vec<bool> = (0..n)
        .map(|i| {
            if churn {
                Flap.initially_online(NodeId::from_index(i))
            } else {
                true
            }
        })
        .collect();
    let app = GossipLearning::new(n, SimDuration::from_millis(1500), &initial);
    let strategy = RandomizedTokenAccount::new(3, 8).unwrap();
    let mut proto = TokenProtocol::new(Arc::clone(topo), strategy, app, initial)
        .with_token_recording()
        .with_injection_reaction();
    if churn {
        proto = proto.with_pull_on_rejoin();
    }
    let _ = seed;
    proto
}

fn gossip_digest(n: usize, seed: u64, churn: bool, shards: Option<ShardOpts>) -> Digest {
    let topo = topo(n, seed);
    let proto = build_gossip(n, seed, &topo, churn);
    let config = cfg(n, seed);
    let avail: &dyn AvailabilityModel = if churn { &Flap } else { &ta_sim::AlwaysOn };
    let (proto, sim) = match shards {
        None => {
            let mut sim = Simulation::new(config, avail, proto);
            sim.run_to_end();
            sim.into_parts()
        }
        Some(opts) => {
            let mut sim = ShardedSimulation::new(config, avail, proto, opts);
            sim.run_to_end();
            sim.into_parts()
        }
    };
    let results = proto.into_results();
    let ages = results.app.ages().to_vec();
    digest(results, sim, ages)
}

#[test]
fn gossip_learning_sharded_is_byte_identical() {
    for churn in [false, true] {
        let serial = gossip_digest(60, 9, churn, None);
        assert!(serial.sim.messages_delivered > 0);
        if churn {
            assert!(serial.stats.pull_requests > 0, "churn run must pull");
        }
        for shards in [1, 2, 4] {
            let sharded = gossip_digest(60, 9, churn, Some(ShardOpts { shards, threads: 2 }));
            assert_eq!(serial, sharded, "gossip-learning churn={churn} S={shards}");
        }
    }
}

/// Push gossip is the injection-heavy application: every update enters
/// through the barrier-time inject hook, whose global counter each shard
/// replicates via `on_remote_inject`. The digest covers the lag metric
/// (f64 bits), counters, histograms, and the full per-node update state.
fn push_gossip_digest(n: usize, seed: u64, churn: bool, shards: Option<ShardOpts>) -> Digest {
    use ta_apps::push_gossip::PushGossip;
    let topo = topo(n, seed);
    let initial: Vec<bool> = (0..n)
        .map(|i| {
            if churn {
                Flap.initially_online(NodeId::from_index(i))
            } else {
                true
            }
        })
        .collect();
    let app = PushGossip::new(n, &initial);
    let strategy = RandomizedTokenAccount::new(3, 8).unwrap();
    let mut proto =
        TokenProtocol::new(Arc::clone(&topo), strategy, app, initial).with_token_recording();
    if churn {
        proto = proto.with_pull_on_rejoin();
    }
    let config = cfg(n, seed);
    let avail: &dyn AvailabilityModel = if churn { &Flap } else { &ta_sim::AlwaysOn };
    let (proto, sim) = match shards {
        None => {
            let mut sim = Simulation::new(config, avail, proto);
            sim.run_to_end();
            sim.into_parts()
        }
        Some(opts) => {
            let mut sim = ShardedSimulation::new(config, avail, proto, opts);
            sim.run_to_end();
            sim.into_parts()
        }
    };
    let results = proto.into_results();
    let state: Vec<u64> = (0..n)
        .map(|i| results.app.stored(NodeId::from_index(i)))
        .chain([results.app.freshest()])
        .collect();
    digest(results, sim, state)
}

#[test]
fn push_gossip_sharded_is_byte_identical() {
    for churn in [false, true] {
        let serial = push_gossip_digest(60, 21, churn, None);
        assert!(serial.sim.injections > 0, "workload must inject updates");
        assert!(serial.sim.messages_delivered > 0);
        for shards in [1, 2, 4] {
            let sharded = push_gossip_digest(60, 21, churn, Some(ShardOpts { shards, threads: 2 }));
            assert_eq!(serial, sharded, "push-gossip churn={churn} S={shards}");
        }
    }
}

#[test]
fn sgd_sharded_is_byte_identical_including_f64_metric() {
    let n = 40;
    let data = RegressionData::generate(n, 6, 0.05, 17);
    let run = |shards: Option<ShardOpts>| {
        let topo = topo(n, 3);
        let app = SgdGossipLearning::new(data.clone(), 0.15);
        let strategy = RandomizedTokenAccount::new(3, 8).unwrap();
        let proto = TokenProtocol::new(Arc::clone(&topo), strategy, app, vec![true; n]);
        let config = cfg(n, 3);
        let (proto, sim) = match shards {
            None => {
                let mut s = Simulation::new(config, &ta_sim::AlwaysOn, proto);
                s.run_to_end();
                s.into_parts()
            }
            Some(opts) => {
                let mut sim = ShardedSimulation::new(config, &ta_sim::AlwaysOn, proto, opts);
                sim.run_to_end();
                sim.into_parts()
            }
        };
        let results = proto.into_results();
        // Full model state, bit-exact.
        let weights: Vec<u64> = (0..n)
            .flat_map(|i| {
                results
                    .app
                    .weights(NodeId::from_index(i))
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect();
        digest(results, sim, weights)
    };
    let serial = run(None);
    assert!(!serial.metric.is_empty());
    for shards in [1, 2, 3, 4] {
        let sharded = run(Some(ShardOpts { shards, threads: 2 }));
        assert_eq!(serial, sharded, "sgd S={shards}");
    }
}

#[test]
fn shardable_app_split_merge_roundtrips() {
    use ta_sim::shard::ShardPlan;
    let n = 23;
    let plan = ShardPlan::new(n, 4);
    let mut app = GossipLearning::new(n, SimDuration::from_secs(1), &vec![true; n]);
    for i in 0..n {
        let msg = ta_apps::gossip_learning::ModelMsg { age: i as u64 * 3 };
        app.update_state(
            NodeId::from_index(i),
            NodeId::from_index((i + 1) % n),
            &msg,
            SimTime::from_secs(1),
        );
    }
    let before = app.ages().to_vec();
    let shards = app.split(&plan);
    let merged = GossipLearning::merge(&plan, shards);
    assert_eq!(merged.ages(), &before[..]);
}
