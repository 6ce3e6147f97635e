//! Figure 4: scalability — the failure-free scenario at N = 500,000.
//!
//! Four panels: {gossip learning, push gossip} × {generalized,
//! randomized}. The paper's headline observations:
//!
//! * push gossip stays "very robust to the parameter settings" — every
//!   `C > A` curve is nearly identical, with only a logarithmic delay
//!   increase from the larger diameter;
//! * gossip learning shows a *crossover*: the most aggressive reactive
//!   variants (`A = 1`) are among the worst in the small network (walks
//!   stall from finite-size effects) but among the best in the large one;
//! * `A = 5, C = 10` is a robust choice at every scale.
//!
//! The quick default runs N = 10,000 (the crossover is already visible);
//! `--full` runs the paper's N = 500,000.

use crate::cli::FigureOpts;
use crate::figures::fig2::{report_panel, run_panel};
use crate::figures::{Family, FigureError};
use crate::report::Report;
use crate::runner::prepare_topology;
use crate::spec::{AppKind, ExperimentSpec};
use token_account::StrategySpec;

/// The `(A, C)` set highlighted by the paper's Figure 4 discussion.
pub const LARGE_N_AC: &[(u64, u64)] = &[(1, 5), (1, 10), (5, 10), (10, 20)];

/// The applications of Figure 4.
pub const APPS: [AppKind; 2] = [AppKind::GossipLearning, AppKind::PushGossip];

/// Runs the Figure 4 regeneration.
///
/// # Errors
///
/// Returns [`FigureError`] on simulation or I/O failures.
pub fn run(opts: &FigureOpts) -> Result<Report, FigureError> {
    let n = opts.effective_n(10_000, 500_000);
    let rounds = opts.effective_rounds(150);
    let runs = opts.effective_runs(2);
    let mut report = Report::new(
        "fig4",
        format!("failure-free scenario at N={n}, {rounds} rounds, {runs} runs per curve"),
    );
    for app in APPS {
        let base = ExperimentSpec::paper_defaults(app, StrategySpec::Proactive, n)
            .with_rounds(rounds)
            .with_runs(runs)
            .with_seed(opts.seed);
        // The families share the app's overlay: prepare it once.
        let prepared = prepare_topology(&base)?;
        for family in [Family::Generalized, Family::Randomized] {
            let strategies = LARGE_N_AC.iter().map(|&(a, c)| family.with_params(a, c));
            let (a, f) = (app.name(), family.name());
            report_panel(
                &mut report,
                app,
                &run_panel(&base, strategies, &prepared)?,
                format!("{a} / {f} (N={n})"),
                opts.out_dir.join(format!("fig4_{a}_{f}.dat")),
                &format!("Figure 4 panel: {a} with {f} strategies (failure-free, N={n})"),
            )?;
        }
    }
    Ok(report)
}
