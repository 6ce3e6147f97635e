//! Regenerates the paper's `fig1` artifact. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::fig1};

fn main() -> std::process::ExitCode {
    figure_main("fig1", &[("fig1", fig1::run)])
}
