//! The engine's lookahead on blocks above its gate.
//!
//! Every other test of the suite runs blocks far below
//! `ta_sim::engine::LOOKAHEAD_FROM_NODES`, so none of them prefetches. This
//! one runs a push-gossip replica under smartphone churn whose blocks are
//! at least that large at every shard count it tries, for a few rounds,
//! and holds the cut runs to the whole one: the engine counters, the
//! metric series (by bits) and the final token balances must not depend
//! on the shard count. The sharded runs also merge cross-block mail into
//! the transfer lane, so this is that path at scale as well.
//!
//! The test picks its shard counts itself; CI runs it once more in a
//! release build, the code the benchmarks time.

use std::sync::Arc;

use ta::prelude::*;
use ta::sim::engine::LOOKAHEAD_FROM_NODES;
use ta::sim::paper;

/// Three blocks of exactly the gate's size: the smallest network whose
/// blocks all run the lookahead at S = 1, 2 and 3.
const N: usize = 3 * LOOKAHEAD_FROM_NODES;

const ROUNDS: u64 = 3;

/// The results a shard count must not change.
#[derive(Debug, PartialEq, Eq)]
struct Books {
    sim: SimStats,
    metric: Vec<(u64, u64)>,
    balances_sum: i64,
}

fn run(
    topo: &Arc<Topology>,
    schedule: &AvailabilitySchedule,
    cfg: &SimConfig,
    shards: usize,
) -> Books {
    let initial: Vec<bool> = (0..N)
        .map(|i| schedule.segment(NodeId::from_index(i)).initial_online)
        .collect();
    let proto = TokenProtocol::new(
        Arc::clone(topo),
        RandomizedTokenAccount::new(1, 2).unwrap(),
        PushGossip::new(N, &initial),
        initial,
    )
    .with_pull_on_rejoin();
    let (proto, sim) = if shards == 1 {
        let mut sim = Simulation::new(cfg.clone(), schedule, proto);
        sim.run_to_end();
        sim.into_parts()
    } else {
        let opts = ShardOpts { shards, threads: 2 };
        let mut sim = ShardedSimulation::new(cfg.clone(), schedule, proto, opts);
        sim.run_to_end();
        sim.into_parts()
    };
    let results = proto.into_results();
    Books {
        sim,
        metric: results
            .metric
            .times()
            .iter()
            .zip(results.metric.values())
            .map(|(t, v)| (t.to_bits(), v.to_bits()))
            .collect(),
        balances_sum: results.balances_sum,
    }
}

#[test]
fn large_blocks_give_one_result_for_every_shard_count() {
    let mut rng = Xoshiro256pp::stream(36, 1);
    let topo = Arc::new(k_out_random(N, 4, &mut rng).unwrap());
    let duration = paper::DELTA * ROUNDS;
    let schedule = SmartphoneTraceModel::default().generate(N, duration, 36);
    let cfg = SimConfig::builder(N)
        .delta(paper::DELTA)
        .transfer_time(paper::TRANSFER_TIME)
        .duration(duration)
        .sample_period(paper::DELTA)
        .injection_period(paper::UPDATE_INJECTION_PERIOD)
        .seed(36)
        .build()
        .unwrap();
    for shards in [1, 2, 3] {
        assert!(
            (0..shards).all(|s| ShardPlan::new(N, shards).range(s).len() >= LOOKAHEAD_FROM_NODES),
            "S = {shards} has a block below the lookahead gate"
        );
    }
    let whole = run(&topo, &schedule, &cfg, 1);
    // Spending from the second round on (randomized, A = 1, C = 2), with
    // reactive bursts after every injection: deliveries, and so mail
    // between blocks, are a good part of the events.
    assert!(
        whole.sim.messages_delivered as usize > N / 4,
        "{:?}",
        whole.sim
    );
    assert!(whole.sim.ticks_stale > 0, "churn is live");
    assert_eq!(whole.metric.len() as u64, ROUNDS);
    for shards in [2, 3] {
        assert_eq!(run(&topo, &schedule, &cfg, shards), whole, "S = {shards}");
    }
}
