//! Regenerates the paper's `faults` artifact. See `--help` for options.

use ta_experiments::{cli::figure_main, figures::faults};

fn main() -> std::process::ExitCode {
    figure_main("faults", &[("faults", faults::run)])
}
