//! Runs the protocol design-choice ablations. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::ablation};

fn main() -> std::process::ExitCode {
    figure_main("ablation", &[("ablation", ablation::run)])
}
