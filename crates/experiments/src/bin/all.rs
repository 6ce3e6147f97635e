//! Regenerates every artifact of the paper's evaluation in sequence:
//! Figures 1-5, the Section 4.2 parameter sweep, the fault-injection
//! extension, and the design-choice ablations. See `--help` for shared
//! options.

use ta_experiments::{cli::figure_main, figures};

fn main() -> std::process::ExitCode {
    figure_main("all", &figures::ALL)
}
