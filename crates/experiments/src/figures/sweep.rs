//! The Section 4.2 parameter exploration.
//!
//! "The parameter space included all the combinations defined by
//! A = 1, 2, 5, 10, 15, 20, 40 and C − A = 0, 1, 2, 5, 10, 15, 20, 40, 80."
//! This module runs the full grid for a family and prints the steady
//! metric per cell, making the paper's qualitative conclusions checkable:
//! every combination improves on the proactive baseline, `A = C` cells are
//! inferior for push gossip, and gossip learning wants a large enough `C`.

use ta_metrics::Table;
use token_account::StrategySpec;

use crate::cli::FigureOpts;
use crate::figures::{summarize, Family, FigureError};
use crate::report::Report;
use crate::runner::{prepare_topology, run_grid_prepared, PreparedTopology};
use crate::spec::{AppKind, ExperimentSpec};

/// The `A` values of the paper's grid.
pub const A_VALUES: &[u64] = &[1, 2, 5, 10, 15, 20, 40];

/// The `C − A` values of the paper's grid.
pub const C_MINUS_A_VALUES: &[u64] = &[0, 1, 2, 5, 10, 15, 20, 40, 80];

/// Runs the sweep for one application and family over `prepared`, the
/// topology of `base`; returns the grid table (rows: `A`; columns:
/// `C − A`) of steady metric values, with the proactive baseline in the
/// caption row.
///
/// # Errors
///
/// Returns [`FigureError`] on simulation failures.
pub fn run_grid(
    app: AppKind,
    family: Family,
    base: &ExperimentSpec,
    prepared: &PreparedTopology,
) -> Result<(f64, Table), FigureError> {
    debug_assert_eq!(app, base.app, "grid app must match the base spec");
    // The baseline and all 63 (A, C−A) cells flatten into one job grid, so
    // the bounded pool schedules every replica of every cell at once.
    let mut specs = vec![ExperimentSpec {
        strategy: StrategySpec::Proactive,
        ..base.clone()
    }];
    for &a in A_VALUES {
        for &d in C_MINUS_A_VALUES {
            specs.push(ExperimentSpec {
                strategy: family.with_params(a, a + d),
                ..base.clone()
            });
        }
    }
    let results = run_grid_prepared(&specs, prepared)?;
    let mut steady = results.iter().map(|r| summarize(r).steady_mean);
    let baseline_steady = steady.next().expect("baseline result present");

    let mut headers = vec!["A \\ C-A".to_string()];
    headers.extend(C_MINUS_A_VALUES.iter().map(|d| d.to_string()));
    let mut table = Table::new(headers);
    for &a in A_VALUES {
        let mut row = vec![a.to_string()];
        for _ in C_MINUS_A_VALUES {
            let cell = steady.next().expect("one result per grid cell");
            row.push(format!("{cell:.3}"));
        }
        table.row(row);
    }
    Ok((baseline_steady, table))
}

/// Runs the sweep. Quick default: gossip learning and push gossip with the
/// randomized family; `--full` adds chaotic iteration and the other
/// families.
///
/// # Errors
///
/// Returns [`FigureError`] on simulation failures.
pub fn run(opts: &FigureOpts) -> Result<Report, FigureError> {
    let n = opts.effective_n(500, 5_000);
    let rounds = opts.effective_rounds(150);
    let runs = opts.effective_runs(2);
    let apps: Vec<AppKind> = if opts.full {
        vec![
            AppKind::GossipLearning,
            AppKind::PushGossip,
            AppKind::ChaoticIteration,
        ]
    } else {
        vec![AppKind::GossipLearning, AppKind::PushGossip]
    };
    let families: Vec<Family> = if opts.full {
        Family::ALL.to_vec()
    } else {
        vec![Family::Randomized]
    };
    let mut report = Report::new(
        "sweep",
        format!(
            "Section 4.2 parameter exploration (N={n}, {rounds} rounds, {runs} runs per cell; steady metric per (A, C-A) cell)"
        ),
    );
    for &app in &apps {
        let base = ExperimentSpec::paper_defaults(app, StrategySpec::Proactive, n)
            .with_rounds(rounds)
            .with_runs(runs)
            .with_seed(opts.seed);
        // Every family runs over the app's one overlay (and reference
        // eigenvector): prepare it once.
        let prepared = prepare_topology(&base)?;
        for &family in &families {
            let (baseline, table) = run_grid(app, family, &base, &prepared)?;
            report.table(
                format!(
                    "{} / {} — proactive baseline steady metric: {baseline:.3}",
                    app.name(),
                    family.name()
                ),
                table,
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologyKind;

    #[test]
    fn tiny_grid_runs_and_beats_baseline_everywhere() {
        let mut base =
            ExperimentSpec::paper_defaults(AppKind::GossipLearning, StrategySpec::Proactive, 60)
                .with_rounds(30)
                .with_runs(1)
                .with_seed(6);
        base.topology = TopologyKind::KOut { k: 6 };
        // Shrink the grid through the public constants? The full grid is
        // 63 cells; at this scale that is still fast enough.
        let prepared = prepare_topology(&base).unwrap();
        let (baseline, table) = run_grid(
            AppKind::GossipLearning,
            Family::Randomized,
            &base,
            &prepared,
        )
        .unwrap();
        assert_eq!(table.len(), A_VALUES.len());
        assert!(baseline > 0.0);
        // Spot-check cells with A small enough to bootstrap within the 30
        // simulated rounds — accounts start empty, so a strategy with
        // A − 1 ≈ rounds never begins to send (the paper notes this
        // zero-initialization handicap for large C explicitly).
        let csv = table.to_csv();
        let mut checked = 0;
        for line in csv.lines().skip(1) {
            let mut cells = line.split(',');
            let a: u64 = cells.next().unwrap().parse().unwrap();
            if a > 5 {
                continue;
            }
            for cell in cells.take(3) {
                let v: f64 = cell.parse().unwrap();
                assert!(
                    v > baseline,
                    "A={a}: cell {v} should beat proactive baseline {baseline}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 9);
    }
}
