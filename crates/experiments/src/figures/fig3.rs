//! Figure 3: token account strategies over the smartphone trace.
//!
//! Six panels — {gossip learning, push gossip} × {simple, generalized,
//! randomized} — over the (synthetic) smartphone availability trace.
//! Metrics are computed over online nodes only; tokens are granted only
//! while online; push gossip nodes send a pull request on rejoin
//! (Section 4.1.2).
//!
//! Expected shape: an apparent diurnal pattern on top of results "rather
//! consistent with those in the failure-free scenario" — very significant
//! improvement over the proactive baseline at the same communication cost.
//! (Chaotic iteration is excluded, as in the paper: convergence is not
//! well-defined under aggressive churn.)

use crate::cli::FigureOpts;
use crate::figures::fig2::{report_panel, run_panel};
use crate::figures::{Family, FigureError};
use crate::report::Report;
use crate::runner::prepare_topology;
use crate::spec::{AppKind, ExperimentSpec};
use token_account::StrategySpec;

/// The applications of Figure 3 (chaotic iteration excluded).
pub const APPS: [AppKind; 2] = [AppKind::GossipLearning, AppKind::PushGossip];

/// Runs the Figure 3 regeneration.
///
/// # Errors
///
/// Returns [`FigureError`] on simulation or I/O failures.
pub fn run(opts: &FigureOpts) -> Result<Report, FigureError> {
    // The diurnal pattern needs the full two-day horizon; scale N instead
    // of rounds at quick scale.
    let rounds = opts.effective_rounds(1000);
    let runs = opts.effective_runs(3);
    let n = opts.effective_n(1_000, 5_000);
    let mut report = Report::new(
        "fig3",
        format!("smartphone trace scenario, N={n}, {rounds} rounds, {runs} runs per curve"),
    );
    for app in APPS {
        let base = ExperimentSpec::paper_defaults(app, StrategySpec::Proactive, n)
            .with_rounds(rounds)
            .with_runs(runs)
            .with_seed(opts.seed)
            .with_smartphone_churn();
        // The families share the app's overlay: prepare it once.
        let prepared = prepare_topology(&base)?;
        for family in Family::ALL {
            let (a, f) = (app.name(), family.name());
            report_panel(
                &mut report,
                app,
                &run_panel(&base, family.representative(), &prepared)?,
                format!("{a} / {f} (trace)"),
                opts.out_dir.join(format!("fig3_{a}_{f}.dat")),
                &format!("Figure 3 panel: {a} with {f} strategies (smartphone trace, N={n})"),
            )?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use crate::spec::TopologyKind;

    #[test]
    fn trace_scenario_still_beats_proactive() {
        let mut base =
            ExperimentSpec::paper_defaults(AppKind::PushGossip, StrategySpec::Proactive, 100)
                .with_rounds(120)
                .with_runs(1)
                .with_seed(4)
                .with_smartphone_churn();
        base.topology = TopologyKind::KOut { k: 10 };
        let baseline = run_experiment(&base).unwrap();
        let token = run_experiment(&ExperimentSpec {
            strategy: StrategySpec::Generalized { a: 5, c: 10 },
            ..base
        })
        .unwrap();
        let horizon = baseline.metric.times().last().copied().unwrap();
        let b = baseline.metric.mean_value_from(horizon / 2.0).unwrap();
        let t = token.metric.mean_value_from(horizon / 2.0).unwrap();
        assert!(t < b, "trace scenario: token lag {t} vs proactive {b}");
    }
}
