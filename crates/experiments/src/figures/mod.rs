//! Regeneration of every figure in the paper's evaluation (Section 4).
//!
//! One module per figure, plus the Section 4.2 parameter sweep and the
//! fault-injection extension:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig1`] | Figure 1 — smartphone trace churn pattern |
//! | [`fig2`] | Figure 2 — three applications, failure-free, N = 5000 |
//! | [`fig3`] | Figure 3 — gossip learning & push gossip over the trace |
//! | [`fig4`] | Figure 4 — failure-free at N = 500,000 |
//! | [`fig5`] | Figure 5 — average tokens vs. mean-field prediction |
//! | [`sweep`] | Section 4.2 — the full `(A, C)` exploration |
//! | [`faults`] | Section 3.3.1 — proactive error correction under drops |
//! | [`ablation`] | design-choice ablations: reply policy, round phasing |
//! | [`burstiness`] | Sections 1/3.4 — per-round traffic histograms, peak-to-mean |
//!
//! Quick defaults finish in minutes on a laptop; `--full` switches to the
//! paper's scale. The *shape* of every comparison (who wins, by what
//! factor) is preserved at quick scale; each module's docs state the
//! expected shape, and README.md ("Regenerating the paper's figures")
//! gives the commands for both scales.

pub mod ablation;
pub mod burstiness;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod sweep;

use std::io;

use ta_metrics::{Table, TimeSeries};
use token_account::StrategySpec;

use crate::cli::Step;
use crate::runner::{ExperimentResult, RunError};
use crate::spec::AppKind;

/// Error running a figure module (simulation or I/O).
#[derive(Debug)]
pub enum FigureError {
    /// An experiment failed.
    Run(RunError),
    /// Writing a data file failed.
    Io(io::Error),
}

impl std::fmt::Display for FigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FigureError::Run(e) => write!(f, "experiment failed: {e}"),
            FigureError::Io(e) => write!(f, "write failed: {e}"),
        }
    }
}

impl std::error::Error for FigureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FigureError::Run(e) => Some(e),
            FigureError::Io(e) => Some(e),
        }
    }
}

impl From<RunError> for FigureError {
    fn from(e: RunError) -> Self {
        FigureError::Run(e)
    }
}

impl From<io::Error> for FigureError {
    fn from(e: io::Error) -> Self {
        FigureError::Io(e)
    }
}

/// Every figure, in the order the `all` binary runs them.
pub const ALL: [Step; 9] = [
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("sweep", sweep::run),
    ("faults", faults::run),
    ("ablation", ablation::run),
    ("burstiness", burstiness::run),
];

/// The representative `(A, C)` selection shown in Figures 2–4 (the text
/// names A=10/C=10, A=10/C=20, A=1/C=5, A=1/C=10, A=5/C=10, C=20, C=40).
pub const REPRESENTATIVE_AC: &[(u64, u64)] =
    &[(1, 5), (1, 10), (5, 10), (10, 10), (10, 20), (20, 40)];

/// Capacities for the simple strategy panels.
pub const SIMPLE_CS: &[u64] = &[1, 5, 10, 20, 40];

/// A strategy family of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Simple token account (Section 3.3.1).
    Simple,
    /// Generalized token account (Section 3.3.2).
    Generalized,
    /// Randomized token account (Section 3.3.3).
    Randomized,
}

impl Family {
    /// All three families.
    pub const ALL: [Family; 3] = [Family::Simple, Family::Generalized, Family::Randomized];

    /// Family name for file names and tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Simple => "simple",
            Family::Generalized => "generalized",
            Family::Randomized => "randomized",
        }
    }

    /// The representative strategy set of this family for the figures.
    pub fn representative(self) -> Vec<StrategySpec> {
        match self {
            Family::Simple => SIMPLE_CS
                .iter()
                .map(|&c| StrategySpec::Simple { c })
                .collect(),
            Family::Generalized => REPRESENTATIVE_AC
                .iter()
                .map(|&(a, c)| StrategySpec::Generalized { a, c })
                .collect(),
            Family::Randomized => REPRESENTATIVE_AC
                .iter()
                .map(|&(a, c)| StrategySpec::Randomized { a, c })
                .collect(),
        }
    }

    /// Builds a member of the family from `(A, C)`; the simple family only
    /// uses `C`.
    pub fn with_params(self, a: u64, c: u64) -> StrategySpec {
        match self {
            Family::Simple => StrategySpec::Simple { c },
            Family::Generalized => StrategySpec::Generalized { a, c },
            Family::Randomized => StrategySpec::Randomized { a, c },
        }
    }
}

/// Summary numbers of one experiment for the comparison tables.
#[derive(Debug, Clone, Copy)]
pub struct MetricSummary {
    /// Metric at the end of the horizon.
    pub final_value: f64,
    /// Mean over the second half of the horizon (steady state).
    pub steady_mean: f64,
}

/// Extracts [`MetricSummary`] from a result.
pub fn summarize(result: &ExperimentResult) -> MetricSummary {
    let series = &result.metric;
    let final_value = series.last_value().unwrap_or(f64::NAN);
    let horizon = series.times().last().copied().unwrap_or(0.0);
    let steady_mean = series.mean_value_from(horizon / 2.0).unwrap_or(final_value);
    MetricSummary {
        final_value,
        steady_mean,
    }
}

/// Speedup of `result` relative to `baseline` for the given application:
///
/// * gossip learning — ratio of steady relative-speed metrics (higher is
///   faster learning);
/// * push gossip — inverse ratio of steady lags (paper: "one third of the
///   delay" ⇒ speedup 3);
/// * chaotic iteration — ratio of the times at which each reaches the
///   baseline's final angle (how much sooner the token account variant got
///   as far as the baseline ever did); falls back to the angle ratio when
///   the baseline never stabilizes.
pub fn speedup(app: AppKind, result: &ExperimentResult, baseline: &ExperimentResult) -> f64 {
    let r = summarize(result);
    let b = summarize(baseline);
    match app {
        AppKind::GossipLearning => r.steady_mean / b.steady_mean,
        AppKind::PushGossip => b.steady_mean / r.steady_mean,
        AppKind::ChaoticIteration => {
            let target = b.final_value;
            match (
                result.metric.first_time_below(target),
                baseline.metric.times().last(),
            ) {
                (Some(t_result), Some(&t_baseline)) if t_result > 0.0 => t_baseline / t_result,
                _ => b.final_value / r.final_value,
            }
        }
    }
}

/// Builds the standard comparison table: one row per strategy with final
/// value, steady mean, speedup vs. the first (baseline) entry, and the
/// per-run message budget.
pub fn comparison_table(app: AppKind, entries: &[(String, ExperimentResult)]) -> Table {
    let mut table = Table::new(vec![
        "strategy".into(),
        "final".into(),
        "steady".into(),
        "speedup".into(),
        "msgs/run".into(),
    ]);
    let baseline = &entries[0].1;
    for (label, result) in entries {
        let s = summarize(result);
        table.row(vec![
            label.clone(),
            format!("{:.4}", s.final_value),
            format!("{:.4}", s.steady_mean),
            format!("{:.2}x", speedup(app, result, baseline)),
            format!("{:.0}", result.stats.mean_messages_sent),
        ]);
    }
    table
}

/// The metric series to plot for an app: push gossip is smoothed over 15
/// minutes as in the paper; others are raw.
pub fn plot_series(app: AppKind, result: &ExperimentResult) -> TimeSeries {
    match app {
        AppKind::PushGossip => result.metric.smooth(15.0 * 60.0),
        _ => result.metric.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use crate::spec::{ExperimentSpec, TopologyKind};

    fn mini(app: AppKind, strategy: StrategySpec) -> ExperimentResult {
        let mut spec = ExperimentSpec::paper_defaults(app, strategy, 50)
            .with_rounds(30)
            .with_runs(1)
            .with_seed(3);
        if !matches!(app, AppKind::ChaoticIteration) {
            spec.topology = TopologyKind::KOut { k: 5 };
        }
        run_experiment(&spec).unwrap()
    }

    #[test]
    fn families_enumerate_representative_sets() {
        assert_eq!(Family::Simple.representative().len(), SIMPLE_CS.len());
        assert_eq!(
            Family::Randomized.representative().len(),
            REPRESENTATIVE_AC.len()
        );
        assert_eq!(
            Family::Generalized.with_params(5, 10),
            StrategySpec::Generalized { a: 5, c: 10 }
        );
        assert_eq!(
            Family::Simple.with_params(5, 10),
            StrategySpec::Simple { c: 10 }
        );
    }

    #[test]
    fn gossip_learning_speedup_exceeds_one() {
        let base = mini(AppKind::GossipLearning, StrategySpec::Proactive);
        let tok = mini(
            AppKind::GossipLearning,
            StrategySpec::Randomized { a: 2, c: 5 },
        );
        assert!(speedup(AppKind::GossipLearning, &tok, &base) > 1.0);
        // Baseline vs itself is exactly 1.
        assert!((speedup(AppKind::GossipLearning, &base, &base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_table_has_one_row_per_entry() {
        let base = mini(AppKind::PushGossip, StrategySpec::Proactive);
        let tok = mini(AppKind::PushGossip, StrategySpec::Simple { c: 10 });
        let entries = vec![
            ("proactive".to_string(), base),
            ("simple(C=10)".to_string(), tok),
        ];
        let table = comparison_table(AppKind::PushGossip, &entries);
        assert_eq!(table.len(), 2);
        let text = table.render();
        assert!(text.contains("speedup"));
        assert!(text.contains("1.00x"));
    }

    #[test]
    fn plot_series_smooths_push_gossip_only() {
        let pg = mini(AppKind::PushGossip, StrategySpec::Simple { c: 5 });
        let gl = mini(AppKind::GossipLearning, StrategySpec::Simple { c: 5 });
        // Smoothing preserves the grid.
        assert_eq!(
            plot_series(AppKind::PushGossip, &pg).times(),
            pg.metric.times()
        );
        // Gossip learning series is returned untouched.
        assert_eq!(plot_series(AppKind::GossipLearning, &gl), gl.metric);
    }
}
