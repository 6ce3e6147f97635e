//! Design-choice ablations.
//!
//! Two protocol-level knobs the paper fixes are made measurable here:
//!
//! * **Reply policy** — Algorithm 4 addresses every reactive message to a
//!   random peer; the push–pull extension answers the sender first
//!   (Section 2.3 calls push–pull "superior to push according to a number
//!   of performance metrics").
//! * **Round phasing** — the paper's system model allows synchronized or
//!   unsynchronized rounds; the engine supports both
//!   ([`TickPhase`]), and the lag of the *proactive baseline* is
//!   sensitive to it while token-account strategies are not.
//!
//! (The scheduler ablation — binary heap vs. timing wheel — is timing-only
//! and lives in `ta-bench`'s `event_queue`/`engine` benches; both produce
//! bit-identical simulations, which `tests/determinism.rs` asserts.)

use ta_apps::protocol::ReplyPolicy;
use ta_metrics::Table;
use ta_sim::config::TickPhase;
use token_account::StrategySpec;

use crate::cli::FigureOpts;
use crate::figures::{summarize, FigureError};
use crate::report::Report;
use crate::runner::{prepare_topology, run_grid_prepared};
use crate::spec::{AppKind, ExperimentSpec};

/// Runs both ablations on push gossip.
///
/// # Errors
///
/// Returns [`FigureError`] on simulation failures.
pub fn run(opts: &FigureOpts) -> Result<Report, FigureError> {
    let n = opts.effective_n(800, 5_000);
    let rounds = opts.effective_rounds(250);
    let runs = opts.effective_runs(2);
    let mut report = Report::new(
        "ablation",
        format!(
            "protocol design-choice ablations on push gossip (N={n}, {rounds} rounds, {runs} runs)"
        ),
    );
    let base = ExperimentSpec::paper_defaults(AppKind::PushGossip, StrategySpec::Proactive, n)
        .with_rounds(rounds)
        .with_runs(runs)
        .with_seed(opts.seed);
    let prepared = prepare_topology(&base)?;

    // Ablation 1: reactive reply addressing.
    let mut reply = Table::new(vec![
        "strategy".into(),
        "random peer (paper)".into(),
        "sender-first (push-pull)".into(),
        "change".into(),
    ]);
    let reply_strategies = [
        StrategySpec::Simple { c: 20 },
        StrategySpec::Generalized { a: 5, c: 20 },
        StrategySpec::Randomized { a: 10, c: 20 },
    ];
    // Flatten the (strategy × policy) grid into one parallel batch.
    let specs: Vec<ExperimentSpec> = reply_strategies
        .iter()
        .flat_map(|&strategy| {
            [ReplyPolicy::RandomPeer, ReplyPolicy::SenderFirst].map(|policy| {
                ExperimentSpec {
                    strategy,
                    ..base.clone()
                }
                .with_reply_policy(policy)
            })
        })
        .collect();
    let results = run_grid_prepared(&specs, &prepared)?;
    for (strategy, pair) in reply_strategies.iter().zip(results.chunks(2)) {
        let lags: Vec<f64> = pair.iter().map(|r| summarize(r).steady_mean).collect();
        reply.row(vec![
            strategy.label(),
            format!("{:.2}", lags[0]),
            format!("{:.2}", lags[1]),
            format!("{:+.1}%", (lags[1] / lags[0] - 1.0) * 100.0),
        ]);
    }
    report.table("steady lag by reply policy", reply);

    // Ablation 2: round phasing.
    let mut phasing = Table::new(vec![
        "strategy".into(),
        "unsynchronized (paper)".into(),
        "synchronized".into(),
        "change".into(),
    ]);
    let phasing_strategies = [
        StrategySpec::Proactive,
        StrategySpec::Simple { c: 20 },
        StrategySpec::Randomized { a: 10, c: 20 },
    ];
    let specs: Vec<ExperimentSpec> = phasing_strategies
        .iter()
        .flat_map(|&strategy| {
            [TickPhase::UniformRandom, TickPhase::Synchronized].map(|phase| {
                ExperimentSpec {
                    strategy,
                    ..base.clone()
                }
                .with_tick_phase(phase)
            })
        })
        .collect();
    let results = run_grid_prepared(&specs, &prepared)?;
    for (strategy, pair) in phasing_strategies.iter().zip(results.chunks(2)) {
        let lags: Vec<f64> = pair.iter().map(|r| summarize(r).steady_mean).collect();
        phasing.row(vec![
            strategy.label(),
            format!("{:.2}", lags[0]),
            format!("{:.2}", lags[1]),
            format!("{:+.1}%", (lags[1] / lags[0] - 1.0) * 100.0),
        ]);
    }
    report.table("steady lag by round phasing", phasing);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use crate::spec::TopologyKind;

    #[test]
    fn sender_first_does_not_break_rate_limiting() {
        let mut spec = ExperimentSpec::paper_defaults(
            AppKind::PushGossip,
            StrategySpec::Generalized { a: 5, c: 10 },
            80,
        )
        .with_rounds(60)
        .with_runs(1)
        .with_seed(3)
        .with_reply_policy(ReplyPolicy::SenderFirst);
        spec.topology = TopologyKind::KOut { k: 8 };
        let result = run_experiment(&spec).unwrap();
        for run in &result.runs {
            let bound = run.sim.ticks_fired + 80 * 10;
            assert!(run.protocol.total_sent() <= bound);
        }
    }

    #[test]
    fn both_policies_are_deterministic_and_distinct() {
        let mk = |policy| {
            let mut spec = ExperimentSpec::paper_defaults(
                AppKind::PushGossip,
                StrategySpec::Randomized { a: 5, c: 10 },
                80,
            )
            .with_rounds(60)
            .with_runs(1)
            .with_seed(3)
            .with_reply_policy(policy);
            spec.topology = TopologyKind::KOut { k: 8 };
            run_experiment(&spec).unwrap().metric
        };
        let random_a = mk(ReplyPolicy::RandomPeer);
        let random_b = mk(ReplyPolicy::RandomPeer);
        let sender = mk(ReplyPolicy::SenderFirst);
        assert_eq!(random_a, random_b);
        assert_ne!(random_a, sender);
    }
}
