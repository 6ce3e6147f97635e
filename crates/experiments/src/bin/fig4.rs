//! Regenerates the paper's `fig4` artifact. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::fig4};

fn main() -> std::process::ExitCode {
    figure_main("fig4", &[("fig4", fig4::run)])
}
