//! Regenerates the paper's `fig5` artifact. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::fig5};

fn main() -> std::process::ExitCode {
    figure_main("fig5", &[("fig5", fig5::run)])
}
