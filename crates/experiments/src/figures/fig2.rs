//! Figure 2: token account strategies in the failure-free scenario.
//!
//! Nine panels — {gossip learning, push gossip, chaotic iteration} ×
//! {simple, generalized, randomized} — each showing the proactive baseline
//! and a representative selection of `(A, C)` combinations over 1000
//! rounds at N = 5000 (Watts–Strogatz N = 5000 for chaotic iteration).
//!
//! Expected shape (Section 4.2): *every* parameter combination beats the
//! proactive baseline significantly for gossip learning and push gossip,
//! and most do for chaotic iteration; push gossip is insensitive to the
//! parameters except `A = C`; gossip learning needs a large enough `C`.

use std::path::PathBuf;

use crate::cli::FigureOpts;
use crate::figures::{comparison_table, plot_series, Family, FigureError};
use crate::report::Report;
use crate::runner::{
    prepare_topology, run_grid_prepared, ExperimentResult, PreparedTopology, RunError,
};
use crate::spec::{AppKind, ExperimentSpec};
use token_account::StrategySpec;

/// The applications of Figure 2, in paper row order.
pub const APPS: [AppKind; 3] = [
    AppKind::GossipLearning,
    AppKind::PushGossip,
    AppKind::ChaoticIteration,
];

/// Runs one panel of Figures 2–4 over `prepared`, the topology of
/// `base_spec`: the proactive baseline first, then `strategies`. Returns
/// labelled results.
pub fn run_panel(
    base_spec: &ExperimentSpec,
    strategies: impl IntoIterator<Item = StrategySpec>,
    prepared: &PreparedTopology,
) -> Result<Vec<(String, ExperimentResult)>, RunError> {
    let strategies: Vec<StrategySpec> = std::iter::once(StrategySpec::Proactive)
        .chain(strategies)
        .collect();
    // One flattened (strategy × run) grid: the whole panel saturates the
    // worker pool instead of joining after each curve.
    let specs: Vec<ExperimentSpec> = strategies
        .iter()
        .map(|&strategy| ExperimentSpec {
            strategy,
            ..base_spec.clone()
        })
        .collect();
    let results = run_grid_prepared(&specs, prepared)?;
    Ok(strategies.iter().map(|s| s.label()).zip(results).collect())
}

/// Adds one panel of Figures 2–4 to `report`: its comparison table under
/// `title`, and its plot series as the `.dat` file `path`, headed by
/// `caption`.
pub fn report_panel(
    report: &mut Report,
    app: AppKind,
    entries: &[(String, ExperimentResult)],
    title: String,
    path: PathBuf,
    caption: &str,
) -> Result<(), FigureError> {
    report.table(title, comparison_table(app, entries));
    let labels: Vec<&str> = entries.iter().map(|(l, _)| l.as_str()).collect();
    let series: Vec<_> = entries.iter().map(|(_, r)| plot_series(app, r)).collect();
    ta_metrics::output::write_dat(&path, caption, &labels, &series)?;
    report.file(path);
    Ok(())
}

/// Runs the full Figure 2 regeneration.
///
/// # Errors
///
/// Returns [`FigureError`] on simulation or I/O failures.
pub fn run(opts: &FigureOpts) -> Result<Report, FigureError> {
    let rounds = opts.effective_rounds(250);
    let runs = opts.effective_runs(3);
    let mut report = Report::new(
        "fig2",
        format!("failure-free scenario, {rounds} rounds, {runs} runs per curve"),
    );
    for app in APPS {
        let n = opts.effective_n(1_000, 5_000);
        let base = ExperimentSpec::paper_defaults(app, StrategySpec::Proactive, n)
            .with_rounds(rounds)
            .with_runs(runs)
            .with_seed(opts.seed);
        // The three families share the app's overlay and, for chaotic
        // iteration, its reference eigenvector: prepare them once.
        let prepared = prepare_topology(&base)?;
        for family in Family::ALL {
            let (a, f) = (app.name(), family.name());
            report_panel(
                &mut report,
                app,
                &run_panel(&base, family.representative(), &prepared)?,
                format!("{a} / {f}"),
                opts.out_dir.join(format!("fig2_{a}_{f}.dat")),
                &format!("Figure 2 panel: {a} with {f} strategies (failure-free, N={n})"),
            )?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologyKind;

    #[test]
    fn one_panel_runs_and_every_strategy_beats_the_baseline() {
        let mut base =
            ExperimentSpec::paper_defaults(AppKind::GossipLearning, StrategySpec::Proactive, 80)
                .with_rounds(40)
                .with_runs(1)
                .with_seed(2);
        base.topology = TopologyKind::KOut { k: 8 };
        let prepared = prepare_topology(&base).unwrap();
        let entries = run_panel(&base, Family::Randomized.representative(), &prepared).unwrap();
        // Baseline + 6 representative combos.
        assert_eq!(entries.len(), 7);
        let baseline = entries[0].1.metric.last_value().unwrap();
        for (label, result) in &entries[1..] {
            let v = result.metric.last_value().unwrap();
            assert!(
                v > baseline,
                "{label} ({v}) should beat proactive ({baseline})"
            );
        }
    }
}
