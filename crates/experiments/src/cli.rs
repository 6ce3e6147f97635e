//! Minimal command-line options shared by the figure binaries.
//!
//! Every figure binary accepts the same flags:
//!
//! ```text
//! --n <nodes>       override the network size
//! --runs <k>        independent runs per configuration
//! --rounds <k>      proactive rounds to simulate (paper: 1000)
//! --seed <s>        master seed
//! --out <dir>       output directory for .dat files (default: results)
//! --shards <s>      intra-run shards per replica (default: auto)
//! --pin             pin intra-run shard workers to cores
//! --full            paper-scale defaults (N, rounds, runs as in the paper)
//! ```
//!
//! Parsing is hand-rolled to keep the dependency set to the offline
//! stand-ins under `vendor/` (the workspace builds with no crates.io
//! access; see the root `Cargo.toml`).

use std::fmt;
use std::path::PathBuf;

use ta_telemetry::EventLine;

/// Parsed figure options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureOpts {
    /// Explicit network-size override.
    pub n: Option<usize>,
    /// Explicit runs override.
    pub runs: Option<usize>,
    /// Explicit rounds override.
    pub rounds: Option<u64>,
    /// Master seed.
    pub seed: u64,
    /// Output directory for data files.
    pub out_dir: PathBuf,
    /// Use paper-scale defaults.
    pub full: bool,
    /// Intra-run shard count override (`--shards`): cuts every replica
    /// into this many shards. `None` lets the runner trade across-run vs.
    /// intra-run parallelism itself. Never affects results — a run is
    /// byte-identical for every shard count.
    pub shards: Option<usize>,
    /// Pin intra-run shard workers to cores (`--pin`, exported as
    /// `TA_PIN=1`). Wall-clock only; results are identical either way.
    pub pin: bool,
}

impl Default for FigureOpts {
    fn default() -> Self {
        FigureOpts {
            n: None,
            runs: None,
            rounds: None,
            seed: 1,
            out_dir: PathBuf::from("results"),
            full: false,
            shards: None,
            pin: false,
        }
    }
}

/// Error parsing figure options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOptsError(String);

impl fmt::Display for ParseOptsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (see --help)", self.0)
    }
}

impl ParseOptsError {
    /// True when this "error" is actually a `--help` request carrying
    /// the usage text: binaries print [`USAGE`] to stdout and exit 0.
    #[must_use]
    pub fn is_help(&self) -> bool {
        self.0 == USAGE
    }
}

impl std::error::Error for ParseOptsError {}

/// Prints a structured failure diagnostic to stderr, in the same
/// `event=<bin> ok=false detail=...` grammar the live runtime emits,
/// so harness logs stay machine-greppable end to end.
pub fn fail_event(bin: &str, detail: impl fmt::Display) {
    eprintln!(
        "{}",
        EventLine::new(bin)
            .kv("ok", false)
            .kv("detail", detail)
            .finish()
    );
}

/// The usage string printed by `--help`.
pub const USAGE: &str = "options:\n  --n <nodes>     network size override\n  --runs <k>      runs per configuration\n  --rounds <k>    proactive rounds (paper: 1000)\n  --seed <s>      master seed (default 1)\n  --out <dir>     output directory (default: results)\n  --shards <s>    intra-run shards per replica (default: auto; results\n                  are identical for every value)\n  --pin           pin intra-run shard workers to cores (wall-clock only)\n  --full          paper-scale defaults\n  --help          this text";

impl FigureOpts {
    /// Parses options from an argument iterator (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ParseOptsError`] on unknown flags or malformed values;
    /// `--help` also surfaces as an error carrying the usage text so
    /// binaries can print and exit.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ParseOptsError> {
        let mut opts = FigureOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value_for = |flag: &str| {
                it.next()
                    .ok_or_else(|| ParseOptsError(format!("{flag} needs a value")))
            };
            match arg.as_str() {
                "--n" => {
                    let v = value_for("--n")?;
                    opts.n = Some(
                        v.parse()
                            .map_err(|_| ParseOptsError(format!("bad --n value `{v}`")))?,
                    );
                }
                "--runs" => {
                    let v = value_for("--runs")?;
                    opts.runs = Some(
                        v.parse()
                            .map_err(|_| ParseOptsError(format!("bad --runs value `{v}`")))?,
                    );
                }
                "--rounds" => {
                    let v = value_for("--rounds")?;
                    opts.rounds = Some(
                        v.parse()
                            .map_err(|_| ParseOptsError(format!("bad --rounds value `{v}`")))?,
                    );
                }
                "--seed" => {
                    let v = value_for("--seed")?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| ParseOptsError(format!("bad --seed value `{v}`")))?;
                }
                "--out" => {
                    opts.out_dir = PathBuf::from(value_for("--out")?);
                }
                "--shards" => {
                    let v = value_for("--shards")?;
                    let s: usize = v
                        .parse()
                        .map_err(|_| ParseOptsError(format!("bad --shards value `{v}`")))?;
                    if s == 0 {
                        return Err(ParseOptsError("--shards must be at least 1".into()));
                    }
                    opts.shards = Some(s);
                }
                "--pin" => opts.pin = true,
                "--full" => opts.full = true,
                "--help" | "-h" => return Err(ParseOptsError(USAGE.to_string())),
                other => {
                    return Err(ParseOptsError(format!("unknown option `{other}`")));
                }
            }
        }
        Ok(opts)
    }

    /// Exports the parallelism knobs to the environment the runner reads
    /// (`TA_SHARDS`, `TA_PIN`): figure binaries call this once after parsing, so the
    /// whole figure pipeline — which threads specs through
    /// `run_grid_prepared` without plumbing options — sees the choice.
    pub fn export_parallelism(&self) {
        if let Some(s) = self.shards {
            std::env::set_var("TA_SHARDS", s.to_string());
        }
        if self.pin {
            std::env::set_var("TA_PIN", "1");
        }
    }

    /// Effective network size: explicit override, else paper scale under
    /// `--full`, else the quick default.
    pub fn effective_n(&self, quick: usize, paper: usize) -> usize {
        self.n.unwrap_or(if self.full { paper } else { quick })
    }

    /// Effective rounds (paper: 1000).
    pub fn effective_rounds(&self, quick: u64) -> u64 {
        self.rounds.unwrap_or(if self.full { 1000 } else { quick })
    }

    /// Effective runs (paper: 10).
    pub fn effective_runs(&self, quick: usize) -> usize {
        self.runs.unwrap_or(if self.full { 10 } else { quick })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigureOpts, ParseOptsError> {
        FigureOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, FigureOpts::default());
        assert_eq!(o.effective_n(1000, 5000), 1000);
        assert_eq!(o.effective_rounds(250), 250);
        assert_eq!(o.effective_runs(3), 3);
    }

    #[test]
    fn full_switches_to_paper_scale() {
        let o = parse(&["--full"]).unwrap();
        assert_eq!(o.effective_n(1000, 5000), 5000);
        assert_eq!(o.effective_rounds(250), 1000);
        assert_eq!(o.effective_runs(3), 10);
    }

    #[test]
    fn explicit_overrides_beat_full() {
        let o = parse(&["--full", "--n", "42", "--rounds", "7", "--runs", "2"]).unwrap();
        assert_eq!(o.effective_n(1000, 5000), 42);
        assert_eq!(o.effective_rounds(250), 7);
        assert_eq!(o.effective_runs(3), 2);
    }

    #[test]
    fn seed_and_out() {
        let o = parse(&["--seed", "99", "--out", "/tmp/x"]).unwrap();
        assert_eq!(o.seed, 99);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--n"]).is_err());
        assert!(parse(&["--n", "abc"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let help = parse(&["--help"]).unwrap_err();
        assert!(help.to_string().contains("--rounds"));
        assert!(help.to_string().contains("--shards"));
    }

    #[test]
    fn shards_parse_and_validate() {
        assert_eq!(parse(&["--shards", "4"]).unwrap().shards, Some(4));
        assert_eq!(parse(&[]).unwrap().shards, None);
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "x"]).is_err());
    }

    #[test]
    fn pin_parses_and_is_in_usage() {
        assert!(parse(&["--pin"]).unwrap().pin);
        assert!(!parse(&[]).unwrap().pin);
        assert!(USAGE.contains("--pin"));
    }

    #[test]
    fn help_is_distinguishable_from_real_errors() {
        assert!(parse(&["--help"]).unwrap_err().is_help());
        assert!(parse(&["-h"]).unwrap_err().is_help());
        assert!(!parse(&["--bogus"]).unwrap_err().is_help());
        assert!(!parse(&["--n", "abc"]).unwrap_err().is_help());
    }
}
