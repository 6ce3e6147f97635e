//! Measures the per-round traffic shape of every strategy family vs. the
//! purely reactive flood (the Section 3.4 burstiness guarantee). See
//! `--help` for options.

use ta_experiments::{cli::figure_main, figures::burstiness};

fn main() -> std::process::ExitCode {
    figure_main("burstiness", &[("burstiness", burstiness::run)])
}
