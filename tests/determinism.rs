//! Cross-crate determinism: a full experiment is a pure function of its
//! spec, regardless of thread scheduling, and the scheduler it runs on hands
//! events out in the order a plain binary heap would.

use ta::apps::protocol::ProtocolStats;
use ta::prelude::*;

fn spec(app: AppKind, seed: u64) -> ExperimentSpec {
    let mut spec =
        ExperimentSpec::paper_defaults(app, StrategySpec::Randomized { a: 5, c: 10 }, 120)
            .with_rounds(60)
            .with_runs(3)
            .with_seed(seed);
    if !matches!(app, AppKind::ChaoticIteration) {
        spec.topology = TopologyKind::KOut { k: 10 };
    }
    spec
}

#[test]
fn identical_specs_are_bit_identical() {
    for app in [AppKind::GossipLearning, AppKind::PushGossip] {
        let a = run_experiment(&spec(app, 5)).unwrap();
        let b = run_experiment(&spec(app, 5)).unwrap();
        assert_eq!(a.metric, b.metric, "{app:?} metric series diverged");
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.protocol, rb.protocol);
            assert_eq!(ra.sim, rb.sim);
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_experiment(&spec(AppKind::PushGossip, 5)).unwrap();
    let b = run_experiment(&spec(AppKind::PushGossip, 6)).unwrap();
    assert_ne!(a.metric, b.metric);
}

#[test]
fn churn_scenario_is_deterministic_too() {
    let s = spec(AppKind::PushGossip, 7).with_smartphone_churn();
    let a = run_experiment(&s).unwrap();
    let b = run_experiment(&s).unwrap();
    assert_eq!(a.metric, b.metric);
}

#[test]
fn scheduler_engine_reproduces_the_heap_engine_end_to_end() {
    // Which side of the scheduler an event lands on is engine-internal and
    // must not change any result: the expectations are those of the same
    // run on `BinaryHeapQueue` alone (commit a7d080a).
    use std::sync::Arc;

    let n = 80;
    let mut rng = Xoshiro256pp::stream(3, 1);
    let topo = Arc::new(k_out_random(n, 10, &mut rng).unwrap());
    let cfg = SimConfig::builder(n)
        .duration(SimDuration::from_secs(172_800 / 4))
        .sample_period(SimDuration::from_secs_f64(172.8))
        .injection_period(SimDuration::from_secs_f64(17.28))
        .seed(11)
        .build()
        .unwrap();
    let app = PushGossip::new(n, &vec![true; n]);
    let strategy: Box<dyn Strategy> = Box::new(GeneralizedTokenAccount::new(5, 10).unwrap());
    let proto = TokenProtocol::new(topo, strategy, app, vec![true; n]);
    let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
    sim.run_to_end();
    let (proto, stats) = sim.into_parts();
    let results = proto.into_results();
    assert_eq!(
        results.stats,
        ProtocolStats {
            proactive_sent: 715,
            reactive_sent: 18881,
            tokens_banked: 19285,
            ..ProtocolStats::default()
        }
    );
    assert_eq!(
        stats,
        SimStats {
            messages_sent: 19596,
            messages_delivered: 19596,
            ticks_fired: 20000,
            samples: 250,
            injections: 2500,
            events_processed: 42346,
            ..SimStats::default()
        }
    );
    let metric_bits = results
        .metric
        .values()
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits());
    assert_eq!(
        (results.metric.len(), metric_bits),
        (250, 2009206687318180746)
    );
}
