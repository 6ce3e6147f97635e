//! Regenerates the paper's `sweep` artifact. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::sweep};

fn main() -> std::process::ExitCode {
    figure_main("sweep", &[("sweep", sweep::run)])
}
