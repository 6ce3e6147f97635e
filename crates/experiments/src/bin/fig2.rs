//! Regenerates the paper's `fig2` artifact. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::fig2};

fn main() -> std::process::ExitCode {
    figure_main("fig2", &[("fig2", fig2::run)])
}
