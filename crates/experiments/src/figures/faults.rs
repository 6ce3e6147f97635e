//! Fault-injection extension: the proactive floor under message drops.
//!
//! Section 3.3.1 argues that the token-account proactive component "helps
//! maintain a certain level of communication rate naturally even under
//! high message drop rates, which is impossible in a purely reactive
//! implementation": lost messages stop triggering reactions, but the
//! accounts fill up and the proactive path revives traffic.
//!
//! This experiment (not a figure in the paper; an extension) runs push gossip under increasing drop probabilities and
//! reports the per-round message rate and the steady lag. The expected
//! shape: token-account strategies keep a send rate close to one message
//! per node per round at any drop rate, while the purely reactive
//! reference collapses.

use ta_metrics::Table;
use token_account::StrategySpec;

use crate::cli::FigureOpts;
use crate::figures::{summarize, FigureError};
use crate::report::Report;
use crate::runner::{prepare_topology, run_grid_prepared};
use crate::spec::{AppKind, ExperimentSpec};

/// Drop probabilities exercised.
pub const DROPS: &[f64] = &[0.0, 0.3, 0.6];

/// Strategies compared (the reactive reference uses k = 1).
pub fn strategies() -> Vec<StrategySpec> {
    vec![
        StrategySpec::Proactive,
        StrategySpec::Reactive { k: 1 },
        StrategySpec::Simple { c: 20 },
        StrategySpec::Generalized { a: 5, c: 20 },
        StrategySpec::Randomized { a: 10, c: 20 },
    ]
}

/// Runs the fault-injection experiment.
///
/// # Errors
///
/// Returns [`FigureError`] on simulation failures.
pub fn run(opts: &FigureOpts) -> Result<Report, FigureError> {
    let n = opts.effective_n(800, 5_000);
    let rounds = opts.effective_rounds(300);
    let runs = opts.effective_runs(2);
    let mut report = Report::new(
        "faults",
        format!(
            "push gossip under message drops (N={n}, {rounds} rounds, {runs} runs): send rate per node-round and steady lag"
        ),
    );
    let base = ExperimentSpec::paper_defaults(AppKind::PushGossip, StrategySpec::Proactive, n)
        .with_rounds(rounds)
        .with_runs(runs)
        .with_seed(opts.seed);
    let prepared = prepare_topology(&base)?;

    let mut table = Table::new(vec![
        "strategy".into(),
        "drop".into(),
        "sends/node-round".into(),
        "steady lag".into(),
    ]);
    // The whole (strategy × drop) grid runs as one flattened job list.
    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for strategy in strategies() {
        for &drop in DROPS {
            let mut spec = ExperimentSpec {
                strategy,
                ..base.clone()
            }
            .with_drop_probability(drop);
            if matches!(strategy, StrategySpec::Reactive { .. }) {
                // The reactive reference reacts to injections too —
                // otherwise it never bootstraps and the comparison is
                // trivial.
                spec = spec.with_injection_reaction();
            }
            cells.push((strategy, drop));
            specs.push(spec);
        }
    }
    let results = run_grid_prepared(&specs, &prepared)?;
    for ((strategy, drop), result) in cells.into_iter().zip(&results) {
        let sends_per_node_round =
            result.stats.mean_messages_sent / result.stats.mean_ticks.max(1.0);
        let lag = summarize(result).steady_mean;
        table.row(vec![
            strategy.label(),
            format!("{drop:.1}"),
            format!("{sends_per_node_round:.3}"),
            format!("{lag:.2}"),
        ]);
    }
    report.table("fault tolerance of the proactive floor", table);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use crate::spec::TopologyKind;

    /// The core claim: under drops, the simple token account keeps sending
    /// (proactive floor) while the purely reactive reference starves.
    #[test]
    fn proactive_floor_survives_drops_reactive_starves() {
        let mk = |strategy: StrategySpec, drop| {
            let mut spec = ExperimentSpec::paper_defaults(AppKind::PushGossip, strategy, 80)
                .with_rounds(100)
                .with_runs(1)
                .with_seed(8)
                .with_drop_probability(drop);
            spec.topology = TopologyKind::KOut { k: 8 };
            if matches!(strategy, StrategySpec::Reactive { .. }) {
                spec = spec.with_injection_reaction();
            }
            run_experiment(&spec).unwrap()
        };
        let simple = mk(StrategySpec::Simple { c: 20 }, 0.6);
        let reactive = mk(StrategySpec::Reactive { k: 1 }, 0.6);
        let simple_rate = simple.stats.mean_messages_sent / simple.stats.mean_ticks;
        let reactive_rate = reactive.stats.mean_messages_sent / reactive.stats.mean_ticks;
        assert!(
            simple_rate > 0.5,
            "simple token account rate collapsed: {simple_rate}"
        );
        assert!(
            reactive_rate < simple_rate / 2.0,
            "reactive should starve: {reactive_rate} vs {simple_rate}"
        );
    }
}
