//! Self-profiling coverage: the `Profile`-gated batch histogram of a
//! one-block run and the merged profile of a sharded one (including the
//! gate's always-on claim/steal/skip totals).

use ta_sim::prelude::*;

/// A protocol that gossips its node id to a random peer each round.
struct Shout;

impl Driver for Shout {
    type Msg = u32;
    fn on_round_tick(&mut self, api: &mut SimApi<'_, u32>, node: NodeId) {
        if let Some(peer) = api.random_online_node() {
            api.send(node, peer, node.raw());
        }
    }
    fn on_message(&mut self, _api: &mut SimApi<'_, u32>, _f: NodeId, _t: NodeId, _m: u32) {}
}

fn cfg(n: usize) -> SimConfig {
    SimConfig::builder(n)
        .seed(7)
        .duration(SimDuration::from_secs(120))
        .build()
        .unwrap()
}

#[test]
fn serial_profile_counts_every_processed_event() {
    let mut sim = Simulation::new(cfg(80), &AlwaysOn, Shout);
    sim.set_profiling(true);
    sim.run_to_end();
    let data = *sim.profile().data();
    assert!(!data.is_empty());
    // Every processed event went through exactly one recorded batch.
    assert_eq!(data.batch_events, sim.stats().events_processed);
    assert_eq!(data.batch_hist.iter().sum::<u64>(), data.batches);
    assert!(data.mean_batch() >= 1.0);
    // One block has no windows, claims, or mailboxes.
    assert_eq!((data.windows, data.claims, data.mailbox_drains), (0, 0, 0));
    // Profiling was forced on after construction, so the first ticks
    // (random phases, on the heap) are not in the count: what remains is
    // every later tick, one Δ after the last, and every send, one transfer
    // time out — all lane traffic.
    assert_eq!(data.fallback_pushes, 0);
    assert_eq!(
        data.lane_pushes,
        sim.stats().ticks_fired + sim.stats().messages_sent
    );
}

#[test]
fn disabled_profile_stays_empty() {
    let mut sim = Simulation::new(cfg(40), &AlwaysOn, Shout);
    sim.set_profiling(false);
    sim.run_to_end();
    assert!(sim.profile().data().is_empty());
}

/// A minimal shardable protocol: each node pings its successor every
/// round (half the traffic crosses shard boundaries with 2+ shards).
#[derive(Debug, Default)]
struct Ring {
    received: u64,
}

impl Driver for Ring {
    type Msg = u32;
    fn on_round_tick(&mut self, api: &mut SimApi<'_, u32>, node: NodeId) {
        let to = NodeId::from_index((node.index() + 1) % api.n());
        api.send(node, to, node.raw());
    }
    fn on_message(&mut self, _api: &mut SimApi<'_, u32>, _f: NodeId, _t: NodeId, _m: u32) {
        self.received += 1;
    }
}

impl ShardableDriver for Ring {
    fn split(self, plan: &ShardPlan) -> Vec<Ring> {
        let mut blocks: Vec<Ring> = (0..plan.shards()).map(|_| Ring::default()).collect();
        blocks[0].received = self.received;
        blocks
    }
    fn merge(_plan: &ShardPlan, blocks: Vec<Ring>) -> Self {
        Ring {
            received: blocks.iter().map(|b| b.received).sum(),
        }
    }
}

/// The sharded engine merges per-shard batch/window/mailbox data with
/// the gate totals; claims are counted even with profiling off.
#[test]
fn sharded_profile_merges_engines_and_gate() {
    let run = |profiled: bool| {
        let opts = ShardOpts {
            shards: 4,
            threads: 2,
        };
        let mut sim = ShardedSimulation::new(cfg(80), &AlwaysOn, Ring::default(), opts);
        sim.set_profiling(profiled);
        sim.run_to_end();
        (sim.profile(), sim.stats())
    };

    let (off, _) = run(false);
    assert!(off.claims > 0, "gate claims are always counted");
    assert_eq!(off.claims % 4, 0, "every window claims all four shards");
    assert_eq!(
        (off.batches, off.windows, off.mailbox_drains),
        (0, 0, 0),
        "engine-side profiling stays off by default"
    );

    let (on, stats) = run(true);
    assert_eq!(on.claims, off.claims, "work distribution is deterministic");
    assert_eq!(
        on.batch_events,
        stats.events_processed + churn_replicas(&on)
    );
    assert!(on.windows > 0 && on.window_ns > 0);
    assert!(on.mailbox_drains > 0);
    assert!(on.mailbox_messages > 0, "ring traffic crosses shards");
    assert!(on.mailbox_depth_max >= 1);
    // A mailbox deposit enters the queue a window after it was sent, as a
    // run merged into the transfer lane: it counts as lane pushes, beside
    // the ticks and the in-shard sends. Nothing falls back to the heap.
    assert_eq!(on.fallback_pushes, 0);
    assert_eq!(on.lane_pushes, stats.ticks_fired + stats.messages_sent);
    assert!(on.lane_pushes > on.mailbox_messages);
}

/// Replicated churn events are processed by every shard but merged stats
/// count them once; with [`AlwaysOn`] there are none, so the profile's
/// per-batch event count matches the merged stats exactly.
fn churn_replicas(_p: &ta_telemetry::ProfileData) -> u64 {
    0
}
