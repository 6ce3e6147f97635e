//! Regenerates the paper's `fig3` artifact. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::fig3};

fn main() -> std::process::ExitCode {
    figure_main("fig3", &[("fig3", fig3::run)])
}
