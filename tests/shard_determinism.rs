//! The `TA_SHARDS`/`TA_PIN` guarantee at the experiment-pipeline level:
//! the shard and pin knobs (like `TA_THREADS` before them) trade
//! wall-clock layout only — every experiment result is byte-identical for
//! every combination, one shard included.
//!
//! Queue-kind × churn × explicit shard-count digests live closer to the
//! engine (`crates/sim/tests/shard_equivalence.rs`,
//! `crates/apps/tests/sharded_protocol.rs`, and the runner's own tests);
//! this test exercises the environment knob end to end through
//! `run_experiment`, so the CI `TA_SHARDS` matrix entry has teeth.
//!
//! Environment mutation is confined to one test function (tests within a
//! binary run concurrently; two env-touching tests would race).

use ta::prelude::*;

fn spec(churn: bool) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_defaults(
        AppKind::GossipLearning,
        StrategySpec::Randomized { a: 5, c: 10 },
        90,
    )
    .with_rounds(40)
    .with_runs(2)
    .with_seed(13)
    .with_token_recording();
    spec.topology = TopologyKind::KOut { k: 8 };
    if churn {
        spec = spec.with_smartphone_churn();
    }
    spec
}

#[test]
fn ta_shards_never_changes_results() {
    for churn in [false, true] {
        let s = spec(churn);
        std::env::remove_var("TA_SHARDS");
        std::env::remove_var("TA_PIN");
        let reference = run_experiment(&s).unwrap();
        assert!(reference.runs.iter().all(|r| r.sim.messages_delivered > 0));
        for shards in ["1", "2", "4"] {
            std::env::set_var("TA_SHARDS", shards);
            for pin in ["0", "1"] {
                std::env::set_var("TA_PIN", pin);
                let result = run_experiment(&s).unwrap();
                assert_eq!(
                    reference.metric, result.metric,
                    "metric diverged at TA_SHARDS={shards} TA_PIN={pin} churn={churn}"
                );
                assert_eq!(reference.tokens, result.tokens);
                for (a, b) in reference.runs.iter().zip(&result.runs) {
                    assert_eq!(
                        a.protocol, b.protocol,
                        "TA_SHARDS={shards} TA_PIN={pin} churn={churn}"
                    );
                    assert_eq!(
                        a.sim, b.sim,
                        "TA_SHARDS={shards} TA_PIN={pin} churn={churn}"
                    );
                    assert_eq!(a.sends_per_slot, b.sends_per_slot);
                    assert_eq!(a.metric, b.metric);
                }
            }
            std::env::remove_var("TA_PIN");
        }
        std::env::remove_var("TA_SHARDS");
    }
}
