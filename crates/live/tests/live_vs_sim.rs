//! The acceptance gate of the live runtime: cross-validation against the
//! discrete-event simulator.
//!
//! Under the virtual clock the live runtime must reproduce the
//! simulator's aggregate send/burn/grant counters **exactly** — for
//! every strategy family the paper defines, every worker count, and
//! every account-shard count. Under real time, rates must agree within
//! tolerance while token conservation stays exact.

use ta_live::harness::{
    live_vs_sim, replay_realtime, replay_trace, run_sim_oracle, OracleWorkload,
};
use ta_sim::SimDuration;
use token_account::prelude::*;

/// Every strategy variant the workspace ships.
fn all_specs() -> [StrategySpec; 5] {
    [
        StrategySpec::Proactive,
        StrategySpec::Reactive { k: 2 },
        StrategySpec::Simple { c: 6 },
        StrategySpec::Generalized { a: 3, c: 8 },
        StrategySpec::Randomized { a: 2, c: 6 },
    ]
}

#[test]
fn exact_counter_equality_for_every_strategy_variant() {
    let workload = OracleWorkload::quick(30, 42);
    for spec in all_specs() {
        let cv = live_vs_sim(spec, &workload, 1, 4).unwrap();
        assert!(
            cv.exact_match(),
            "{spec:?}: sim {:?} != live {:?}",
            cv.sim,
            cv.live
        );
        // The workload must actually exercise the decision paths.
        assert!(cv.sim.counters.rounds > 0);
        assert!(cv.sim.counters.requests > 0);
        assert!(cv.sim.counters.conserves(cv.sim.balances_sum));
    }
}

#[test]
fn exact_equality_is_independent_of_workers_and_shards() {
    // Parallel replay must not perturb a single bit of the aggregate:
    // clients partition into disjoint blocks, so any interleaving of
    // workers yields the same per-client trajectories.
    let workload = OracleWorkload::quick(25, 7);
    let strategy = RandomizedTokenAccount::new(2, 6).unwrap();
    let (sim, trace) = run_sim_oracle(strategy, &workload);
    for workers in [1, 2, 3, 8] {
        for shards in [1, 2, 5, 32] {
            let live = replay_trace(strategy, &trace, workers, shards);
            assert_eq!(sim, live, "diverged at workers={workers} shards={shards}");
        }
    }
}

#[test]
fn exact_equality_under_debt_strategy() {
    // The purely reactive reference overdraws (force_spend): the live
    // atomic path must reproduce negative balance sums exactly too.
    let workload = OracleWorkload::quick(15, 5);
    let cv = live_vs_sim(StrategySpec::Reactive { k: 3 }, &workload, 4, 4).unwrap();
    assert!(cv.exact_match());
    assert!(
        cv.live.balances_sum < 0,
        "debt workload should end in the red: {}",
        cv.live.balances_sum
    );
}

#[test]
fn realtime_replay_agrees_distributionally_and_conserves_exactly() {
    // Wall-clock mode: requests replay at scaled wall times while the
    // granter generates rounds live. Scheduling noise moves individual
    // decisions, so only rates are comparable — but the token books must
    // still close exactly, which is the property CI smoke gates on.
    let workload = OracleWorkload {
        clients: 200,
        delta: SimDuration::from_secs(10),
        injection_period: SimDuration::from_millis(50),
        duration: SimDuration::from_secs(300),
        useful_probability: 0.8,
        seed: 13,
    };
    let strategy = RandomizedTokenAccount::new(2, 6).unwrap();
    let (sim, trace) = run_sim_oracle(strategy, &workload);
    // 300 virtual seconds at 150x ≈ 2 wall seconds.
    let rt = replay_realtime(strategy, &trace, 2, 8, workload.delta, 150.0);
    assert!(
        rt.conserves(),
        "realtime books must close: {:?}",
        rt.counters
    );
    assert!(rt.counters.rounds > 0, "granter never fired");

    // Distributional agreement: proactive sends per round decision and
    // reactive sends per request, live vs sim, within a generous
    // tolerance (the live granter uses its own stream and wall-clock
    // phase, so only the rates are comparable).
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let sim_proactive = ratio(sim.counters.proactive_sent, sim.counters.rounds);
    let live_proactive = ratio(rt.counters.proactive_sent, rt.counters.rounds);
    assert!(
        (sim_proactive - live_proactive).abs() <= 0.15 + 0.5 * sim_proactive,
        "proactive rate diverged: sim {sim_proactive:.3} vs live {live_proactive:.3}"
    );
    let sim_reactive = ratio(sim.counters.reactive_sent, sim.counters.requests);
    let live_reactive = ratio(rt.counters.reactive_sent, rt.counters.requests);
    assert!(
        (sim_reactive - live_reactive).abs() <= 0.15 + 0.5 * sim_reactive,
        "reactive rate diverged: sim {sim_reactive:.3} vs live {live_reactive:.3}"
    );
    // Every request of the trace was replayed (requests are exact even
    // under real time; only their timing is approximate).
    assert_eq!(rt.counters.requests, sim.counters.requests);
}
