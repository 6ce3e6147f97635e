//! The one command-line parser of every binary in this crate.
//!
//! Each binary's options are a struct that implements [`Options`]. Its
//! [`Flag`] table names every flag, the kind of value the flag takes and
//! where the value goes, and the metavar, default and help that `--help`
//! shows. [`parse`] reads argv against the table in one loop, and
//! [`help`] renders the same table as `--help` and as README's "Flags"
//! reference. Only the rules that tie two flags together are code, in
//! [`Options::check`]. [`figure_main`] is the whole `main` of every
//! figure binary.
//!
//! Parsing is hand-rolled to keep the dependency set to the offline
//! stand-ins under `vendor/` (the workspace builds with no crates.io
//! access; see the root `Cargo.toml`).

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ta_live::health::OnJournalFail;
use ta_live::loadgen::{ArrivalMode, BurstMix, LoadGenConfig};
use ta_live::persist::FaultPlan;
use ta_telemetry::{print_line, EventLine};
use token_account::StrategySpec;

use crate::figures::FigureError;
use crate::report::Report;
use Kind::{Custom, HostPort, Int, Millis, Path, Real, Secs, Switch};

/// One command-line flag of the option struct `O`.
#[derive(Debug)]
pub struct Flag<O> {
    /// The flag as typed, dashes included.
    pub name: &'static str,
    /// The value's placeholder in `--help`; empty for a switch.
    pub metavar: &'static str,
    /// The default as `--help` shows it; empty when there is none.
    pub default: &'static str,
    /// What the flag does.
    pub help: &'static str,
    /// The value the flag takes, and where it goes.
    pub kind: Kind<O>,
}

/// The value a flag takes. Each kind carries the setter that stores the
/// parsed value into the option struct.
#[derive(Debug)]
pub enum Kind<O> {
    /// No value: giving the flag is the value.
    Switch(fn(&mut O)),
    /// A decimal integer in `lo..=hi`.
    Int(u64, u64, fn(&mut O, u64)),
    /// Finite seconds `>= 0` (`1.5`); `> 0` when the flag is `true`.
    Secs(bool, fn(&mut O, Duration)),
    /// Whole milliseconds, at least the given count.
    Millis(u64, fn(&mut O, Duration)),
    /// A finite real in `lo..=hi`; `0.0..=1.0` for a probability.
    Real(f64, f64, fn(&mut O, f64)),
    /// A filesystem path.
    Path(fn(&mut O, PathBuf)),
    /// A `host:port` address.
    HostPort(fn(&mut O, String)),
    /// Any other syntax: the setter parses the text itself.
    Custom(fn(&mut O, &str) -> Result<(), String>),
}

const fn flag<O>(
    name: &'static str,
    metavar: &'static str,
    default: &'static str,
    help: &'static str,
    kind: Kind<O>,
) -> Flag<O> {
    Flag {
        name,
        metavar,
        default,
        help,
        kind,
    }
}

/// The upper bound of an integer flag stored in a `usize`.
const USIZE: u64 = usize::MAX as u64;

impl<O> Kind<O> {
    /// Parses `v` and stores it into `o`; the error says what is wrong
    /// with the value.
    fn set(&self, o: &mut O, v: &str) -> Result<(), String> {
        match *self {
            Switch(set) => set(o),
            Int(lo, hi, set) => set(o, int(v, lo, hi)?),
            Secs(positive, set) => {
                let secs = real(v, 0.0, f64::MAX)?;
                let d = Duration::try_from_secs_f64(secs)
                    .map_err(|_| "must be a finite number of seconds >= 0".to_string())?;
                if positive && d.is_zero() {
                    return Err("must be positive".into());
                }
                set(o, d);
            }
            Millis(lo, set) => set(o, Duration::from_millis(int(v, lo, u64::MAX)?)),
            Real(lo, hi, set) => set(o, real(v, lo, hi)?),
            Path(set) => set(o, PathBuf::from(v)),
            HostPort(set) if v.contains(':') => set(o, v.to_string()),
            HostPort(_) => return Err("want host:port".into()),
            Custom(set) => set(o, v)?,
        }
        Ok(())
    }
}

/// Parses a decimal integer in `lo..=hi`.
fn int(v: &str, lo: u64, hi: u64) -> Result<u64, String> {
    let n: u64 = v.parse().map_err(|_| "not a whole number".to_string())?;
    match n {
        n if (lo..=hi).contains(&n) => Ok(n),
        _ if hi == u64::MAX => Err(format!("must be at least {lo}")),
        _ => Err(format!("must lie in [{lo}, {hi}]")),
    }
}

/// Parses a finite real in `lo..=hi`.
fn real(v: &str, lo: f64, hi: f64) -> Result<f64, String> {
    let x: f64 = v.trim().parse().map_err(|_| "not a number".to_string())?;
    match x {
        x if (lo..=hi).contains(&x) => Ok(x),
        _ if hi == f64::MAX => Err(format!("must be a finite number >= {lo}")),
        _ => Err(format!("must lie in [{lo}, {hi}]")),
    }
}

/// An option struct read from the command line through its flag table.
pub trait Options: Default + 'static {
    /// Every flag, in `--help` order.
    const FLAGS: &'static [Flag<Self>];

    /// The rules that tie flags together, applied after the last flag.
    ///
    /// # Errors
    ///
    /// A message naming the flags that do not go together.
    fn check(self) -> Result<Self, String> {
        Ok(self)
    }
}

/// Parses `args` (without the program name) into `O`, starting from
/// `O::default()`. A flag given twice keeps its last value. `Ok(None)`
/// means `--help` or `-h` was asked for.
///
/// # Errors
///
/// A message naming the flag at fault, or the token for an unknown flag.
pub fn parse<O: Options>(args: impl IntoIterator<Item = String>) -> Result<Option<O>, String> {
    let mut opts = O::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let Some(flag) = O::FLAGS.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown option `{arg}`"));
        };
        let value = match flag.kind {
            Switch(_) => String::new(),
            _ => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        flag.kind
            .set(&mut opts, &value)
            .map_err(|e| format!("{arg} `{value}`: {e}"))?;
    }
    opts.check().map(Some)
}

/// Column the help text wraps at.
const HELP_WIDTH: usize = 78;

/// Renders `O`'s flag table as its `--help` text: one entry per flag,
/// the help word-wrapped in a column of its own.
pub fn help<O: Options>() -> String {
    let mut entries: Vec<(String, String)> = O::FLAGS
        .iter()
        .map(|f| {
            let head = format!("  {} {}", f.name, f.metavar);
            let text = match f.default {
                "" => f.help.to_string(),
                d => format!("{} (default {d})", f.help),
            };
            (head.trim_end().to_string(), text)
        })
        .collect();
    entries.push(("  --help".into(), "this text".into()));
    let col = 2 + entries.iter().map(|e| e.0.len()).max().unwrap_or(0);
    let mut out = String::from("options:");
    for (head, text) in entries {
        out.push_str(&format!("\n{head:col$}"));
        let mut width = col;
        for word in text.split_whitespace() {
            let len = word.chars().count();
            if width > col && width + 1 + len > HELP_WIDTH {
                out.push_str(&format!("\n{:col$}", ""));
                width = col;
            }
            let sep = if width > col { " " } else { "" };
            out.push_str(&format!("{sep}{word}"));
            width += sep.len() + len;
        }
    }
    out
}

/// Reads `O` from this process's arguments. `--help` prints the help
/// text and yields exit code 0; a bad flag goes to `fail` and yields
/// exit code 1.
///
/// # Errors
///
/// The exit code the binary should end with instead of running.
pub fn from_args<O: Options>(fail: impl FnOnce(&str)) -> Result<O, ExitCode> {
    match parse(std::env::args().skip(1)) {
        Ok(Some(opts)) => Ok(opts),
        Ok(None) => {
            print_line(help::<O>());
            Err(ExitCode::SUCCESS)
        }
        Err(msg) => {
            fail(&format!("{msg} (see --help)"));
            Err(ExitCode::FAILURE)
        }
    }
}

/// Prints `event=<bin> ok=false detail=...` to stderr: the failure
/// grammar the live runtime emits, so harness logs stay greppable.
fn fail_event(bin: &str, detail: impl fmt::Display) {
    let line = EventLine::new(bin).kv("ok", false).kv("detail", detail);
    eprintln!("{}", line.finish());
}

/// One figure step: the name its failure reports under, and its run.
pub type Step = (&'static str, fn(&FigureOpts) -> Result<Report, FigureError>);

/// The whole `main` of a figure binary: reads [`FigureOpts`], then runs
/// each step and prints its report, with a blank line between two reports.
/// A failed step prints `event=<name> ok=false` to stderr and turns the
/// exit code to 1; the steps after it still run.
pub fn figure_main(bin: &str, steps: &[Step]) -> ExitCode {
    let opts = match from_args::<FigureOpts>(|msg| fail_event(bin, msg)) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    let mut code = ExitCode::SUCCESS;
    for (i, (name, run)) in steps.iter().enumerate() {
        if i > 0 {
            print_line("");
        }
        match run(&opts) {
            Ok(report) => report.print(),
            Err(e) => {
                fail_event(name, e);
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Options of every figure binary.
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
        }
    }
}

impl Options for FigureOpts {
    #[rustfmt::skip]
    const FLAGS: &'static [Flag<Self>] = &[
        flag("--n", "<nodes>", "", "network size override",
             Int(1, USIZE, |o, v| o.n = Some(v as usize))),
        flag("--runs", "<k>", "", "runs per configuration",
             Int(1, USIZE, |o, v| o.runs = Some(v as usize))),
        flag("--rounds", "<k>", "", "proactive rounds (paper: 1000)",
             Int(0, u64::MAX, |o, v| o.rounds = Some(v))),
        flag("--seed", "<s>", "1", "master seed", Int(0, u64::MAX, |o, v| o.seed = v)),
        flag("--out", "<dir>", "results", "output directory", Path(|o, v| o.out_dir = v)),
        flag("--full", "", "", "paper-scale defaults", Switch(|o| o.full = true)),
    ];
}

impl FigureOpts {
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

/// Options of the `live` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveOpts {
    /// The load generator's configuration. Under `--mode open` its
    /// rate is `rate`, whichever of the two flags comes first.
    pub cfg: LoadGenConfig,
    /// Virtual clients.
    pub clients: usize,
    /// Account shards.
    pub shards: usize,
    /// The strategy every account runs.
    pub strategy: StrategySpec,
    /// Open-loop requests per client per second (`--rate`).
    pub rate: f64,
    /// Hold the live decision path to the discrete-event engine first.
    pub crosscheck: bool,
    /// Durable mode: the journal and snapshot directory.
    pub journal_dir: Option<PathBuf>,
    /// Snapshot cadence.
    pub snapshot_every: Option<Duration>,
    /// Journal group-commit interval.
    pub commit: Duration,
    /// Fsync journal commits (off under `--no-fsync`).
    pub fsync: bool,
    /// Faults to inject; `None` defers to the `TA_FAULT` env var.
    pub fault: Option<FaultPlan>,
    /// What to do when the journal writer fails for good.
    pub on_journal_fail: OnJournalFail,
    /// Recover and verify `journal_dir`, then exit (`--recover`).
    pub recover_only: bool,
    /// Interval of the `ta-stats/v2` lines on stdout.
    pub stats_every: Option<Duration>,
    /// File the sampled decision trace drains to, as JSONL.
    pub trace_out: Option<PathBuf>,
    /// Trace every n-th decision (`--trace-sample`).
    pub trace_sample: Option<u32>,
    /// Address of the observability server.
    pub obs_listen: Option<String>,
}

impl Default for LiveOpts {
    fn default() -> Self {
        LiveOpts {
            cfg: LoadGenConfig {
                workers: 2,
                duration: Duration::from_secs(10),
                mode: ArrivalMode::Closed,
                useful_probability: 0.8,
                burst: None,
                round_period: Some(Duration::from_millis(1000)),
                seed: 1,
            },
            clients: 100_000,
            shards: 64,
            strategy: StrategySpec::Randomized { a: 5, c: 10 },
            rate: 10.0,
            crosscheck: false,
            journal_dir: None,
            snapshot_every: None,
            commit: Duration::from_millis(20),
            fsync: true,
            fault: None,
            on_journal_fail: OnJournalFail::default(),
            recover_only: false,
            stats_every: None,
            trace_out: None,
            trace_sample: None,
            obs_listen: None,
        }
    }
}

impl Options for LiveOpts {
    #[rustfmt::skip]
    const FLAGS: &'static [Flag<Self>] = &[
        flag("--workers", "<k>", "2", "worker threads",
             Int(1, USIZE, |o, v| o.cfg.workers = v as usize)),
        // The journal records client ids and range lengths as `u32`.
        flag("--clients", "<n>", "100000", "virtual clients",
             Int(1, u32::MAX as u64, |o, v| o.clients = v as usize)),
        flag("--duration-secs", "<s>", "10", "wall-clock run length",
             Secs(false, |o, v| o.cfg.duration = v)),
        flag("--strategy", "<spec>", "randomized:5,10", "proactive | reactive:<k> | simple:<C> | \
              generalized:<A>,<C> | randomized:<A>,<C>",
             Custom(|o, v| v.parse().map(|s| o.strategy = s))),
        flag("--mode", "<m>", "closed", "closed | open", Custom(|o, v| {
            o.cfg.mode = match v {
                "closed" => ArrivalMode::Closed,
                "open" => ArrivalMode::Open { rate_per_client: o.rate },
                other => return Err(format!("unknown mode `{other}`")),
            };
            Ok(())
        })),
        flag("--rate", "<r>", "10", "open-loop requests/client/sec",
             Real(0.0, f64::MAX, |o, v| o.rate = v)),
        flag("--burst", "<p>,<k>", "", "burst mix: probability p, size k (default off)",
             Custom(|o, v| parse_burst(v).map(|b| o.cfg.burst = Some(b)))),
        flag("--useful-prob", "<p>", "0.8", "probability a request is useful",
             Real(0.0, 1.0, |o, v| o.cfg.useful_probability = v)),
        flag("--shards", "<s>", "64", "account shards",
             Int(1, USIZE, |o, v| o.shards = v as usize)),
        flag("--round-ms", "<ms>", "1000", "granter round length Δ; 0 disables", Int(0, u64::MAX,
             |o, v| o.cfg.round_period = (v > 0).then(|| Duration::from_millis(v)))),
        flag("--seed", "<s>", "1", "master seed", Int(0, u64::MAX, |o, v| o.cfg.seed = v)),
        flag("--crosscheck", "", "", "first validate exact live-vs-sim counter equality",
             Switch(|o| o.crosscheck = true)),
        flag("--journal-dir", "<dir>", "", "durable mode: grant/spend journal + snapshots in \
              <dir>; an existing domain is recovered + resumed",
             Path(|o, v| o.journal_dir = Some(v))),
        flag("--snapshot-every", "<s>", "", "checkpoint the accounts every s seconds",
             Secs(true, |o, v| o.snapshot_every = Some(v))),
        flag("--commit-ms", "<ms>", "20", "journal group-commit interval",
             Millis(0, |o, v| o.commit = v)),
        flag("--no-fsync", "", "", "skip fsync on journal commits (tests only)",
             Switch(|o| o.fsync = false)),
        flag("--fault", "<list>", "", "inject faults, comma-separated (overrides the TA_FAULT env \
              var): kill_writer_mid_frame, drop_fsync, crash_mid_snapshot, poison_books, \
              torn_tail, corrupt_crc, corrupt_snapshot, io_error_n:<k> (k transient write \
              errors), enospc_after:<bytes> (disk full past a budget), slow_io_ms:<ms>, \
              writer_hang, granter_stall",
             Custom(|o, v| FaultPlan::parse(v).map(|f| o.fault = Some(f)))),
        flag("--on-journal-fail", "<policy>", "degrade", "policy when the journal writer fails \
              past its retry budget: degrade (keep admitting, durability suspended, writer \
              restarts when the disk recovers), halt (close admissions, finish cleanly), exit \
              (like halt, then exit 5)",
             Custom(|o, v| OnJournalFail::parse(v).map(|p| o.on_journal_fail = p))),
        flag("--recover", "", "", "recover + verify --journal-dir, then exit: 0 clean, 3 \
              conservation mismatch, 4 torn tail", Switch(|o| o.recover_only = true)),
        flag("--stats-every", "<ms>", "", "emit one schema-versioned JSON stats line \
              (ta-stats/v2) every <ms> milliseconds", Millis(1, |o, v| o.stats_every = Some(v))),
        flag("--trace-out", "<path>", "", "drain sampled decision-trace records to <path> as \
              JSONL (implies --trace-sample 1 unless set)", Path(|o, v| o.trace_out = Some(v))),
        flag("--trace-sample", "<n>", "", "sample every n-th admission decision into the trace \
              ring; 0 = counters only, no tracing",
             Int(0, u32::MAX as u64, |o, v| o.trace_sample = Some(v as u32))),
        flag("--obs-listen", "<addr>", "", "serve the observability line protocol on <addr> \
              (e.g. 127.0.0.1:9900): STATS one-shot, WATCH <ms> pushed stats, TRACE <n> \
              sampled decision records", HostPort(|o, v| o.obs_listen = Some(v))),
    ];

    fn check(mut self) -> Result<Self, String> {
        if let ArrivalMode::Open { rate_per_client } = &mut self.cfg.mode {
            *rate_per_client = self.rate;
        }
        if self.recover_only && self.journal_dir.is_none() {
            return Err("--recover needs --journal-dir".into());
        }
        Ok(self)
    }
}

impl LiveOpts {
    /// Telemetry is built when any introspection knob was given.
    pub fn telemetry_on(&self) -> bool {
        self.stats_every.is_some()
            || self.trace_out.is_some()
            || self.trace_sample.is_some()
            || self.obs_listen.is_some()
    }

    /// Effective sample interval: an explicit `--trace-sample` wins;
    /// `--trace-out` alone traces every decision; stats alone trace
    /// nothing (counters only).
    pub fn sample_interval(&self) -> u32 {
        self.trace_sample
            .unwrap_or(u32::from(self.trace_out.is_some()))
    }
}

/// Parses a `--burst` mix `p,k`: probability `p`, `k` requests a burst.
fn parse_burst(v: &str) -> Result<BurstMix, String> {
    let (p, k) = v.split_once(',').ok_or("want p,k")?;
    Ok(BurstMix {
        probability: real(p, 0.0, 1.0).map_err(|e| format!("p {e}"))?,
        size: k
            .trim()
            .parse()
            .map_err(|_| format!("bad burst size `{k}`"))?,
    })
}

/// Options of the `live_top` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopOpts {
    /// The observability server to watch (required).
    pub addr: String,
    /// The watch interval.
    pub every: Duration,
    /// Print one header and one rate row, then exit.
    pub once: bool,
}

impl Default for TopOpts {
    fn default() -> Self {
        TopOpts {
            addr: String::new(),
            every: Duration::from_millis(500),
            once: false,
        }
    }
}

impl Options for TopOpts {
    #[rustfmt::skip]
    const FLAGS: &'static [Flag<Self>] = &[
        flag("--addr", "<host:port>", "", "observability server to connect to (required)",
             HostPort(|o, v| o.addr = v)),
        flag("--every", "<ms>", "500", "watch interval in milliseconds",
             Millis(1, |o, v| o.every = v)),
        flag("--once", "", "", "print one header + one rate row, then exit",
             Switch(|o| o.once = true)),
    ];

    fn check(self) -> Result<Self, String> {
        if self.addr.is_empty() {
            return Err("--addr is required".into());
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_as<O: Options>(args: &[&str]) -> Result<O, String> {
        parse(args.iter().map(|s| s.to_string())).map(|o| o.expect("not a --help parse"))
    }

    fn fig(args: &[&str]) -> Result<FigureOpts, String> {
        parse_as(args)
    }

    fn live(args: &[&str]) -> Result<LiveOpts, String> {
        parse_as(args)
    }

    fn top(args: &[&str]) -> Result<TopOpts, String> {
        parse_as(args)
    }

    fn is_help<O: Options>(args: &[&str]) -> bool {
        matches!(parse::<O>(args.iter().map(|s| s.to_string())), Ok(None))
    }

    #[test]
    fn defaults() {
        let o = fig(&[]).unwrap();
        assert_eq!(o, FigureOpts::default());
        assert_eq!(o.effective_n(1000, 5000), 1000);
        assert_eq!(o.effective_rounds(250), 250);
        assert_eq!(o.effective_runs(3), 3);
    }

    #[test]
    fn full_switches_to_paper_scale() {
        let o = fig(&["--full"]).unwrap();
        assert_eq!(o.effective_n(1000, 5000), 5000);
        assert_eq!(o.effective_rounds(250), 1000);
        assert_eq!(o.effective_runs(3), 10);
    }

    #[test]
    fn explicit_overrides_beat_full() {
        let o = fig(&["--full", "--n", "42", "--rounds", "7", "--runs", "2"]).unwrap();
        assert_eq!(o.effective_n(1000, 5000), 42);
        assert_eq!(o.effective_rounds(250), 7);
        assert_eq!(o.effective_runs(3), 2);
    }

    #[test]
    fn seed_and_out() {
        let o = fig(&["--seed", "99", "--out", "/tmp/x"]).unwrap();
        assert_eq!(o.seed, 99);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        assert_eq!(fig(&["--seed", "3", "--seed", "4"]).unwrap().seed, 4);
        let o = live(&["--mode", "open", "--rate", "2", "--mode", "closed"]).unwrap();
        assert_eq!(o.cfg.mode, ArrivalMode::Closed);
    }

    #[test]
    fn errors_are_reported() {
        assert!(fig(&["--n"]).is_err());
        assert!(fig(&["--n", "abc"]).is_err());
        assert!(fig(&["--bogus"]).is_err());
        let help = help::<FigureOpts>();
        assert!(help.contains("--rounds"));
        assert!(help.contains("--full"));
        // Zero nodes or zero runs are usage errors naming the flag, not
        // panics deep in the runner.
        for (flag, bad) in [
            ("--runs", "0"),
            ("--n", "0"),
            ("--n", "-1"),
            ("--rounds", "nan"),
        ] {
            let err = fig(&[flag, bad]).unwrap_err();
            assert!(err.contains(flag), "{flag} {bad}: {err}");
        }
        assert_eq!(fig(&["--rounds", "0"]).unwrap().rounds, Some(0));
    }

    #[test]
    fn help_is_distinguishable_from_real_errors() {
        assert!(is_help::<FigureOpts>(&["--help"]));
        assert!(is_help::<FigureOpts>(&["-h"]));
        assert!(fig(&["--bogus"]).is_err());
        assert!(fig(&["--n", "abc"]).is_err());
    }

    #[test]
    fn live_defaults_and_overrides() {
        let o = live(&[]).unwrap();
        assert_eq!(o.cfg.workers, 2);
        assert_eq!(o.cfg.mode, ArrivalMode::Closed);
        assert!(!o.crosscheck);
        let o = live(&[
            "--workers",
            "4",
            "--clients",
            "500",
            "--duration-secs",
            "0.5",
            "--mode",
            "open",
            "--rate",
            "3.5",
            "--burst",
            "0.1,8",
            "--shards",
            "16",
            "--round-ms",
            "0",
            "--seed",
            "9",
            "--crosscheck",
        ])
        .unwrap();
        assert_eq!(o.cfg.workers, 4);
        assert_eq!(o.clients, 500);
        assert_eq!(
            o.cfg.mode,
            ArrivalMode::Open {
                rate_per_client: 3.5
            }
        );
        assert_eq!(
            o.cfg.burst,
            Some(BurstMix {
                probability: 0.1,
                size: 8
            })
        );
        assert_eq!(o.shards, 16);
        assert_eq!(o.cfg.round_period, None);
        assert_eq!(o.cfg.seed, 9);
        assert!(o.crosscheck);
        assert_eq!(o.journal_dir, None);
        assert!(o.fsync);
        assert!(!o.recover_only);
    }

    #[test]
    fn live_durability_flags_parse() {
        let o = live(&[
            "--journal-dir",
            "/tmp/ta-journal",
            "--snapshot-every",
            "0.25",
            "--commit-ms",
            "5",
            "--no-fsync",
            "--fault",
            "torn_tail,crash_mid_snapshot",
        ])
        .unwrap();
        assert_eq!(o.journal_dir, Some(PathBuf::from("/tmp/ta-journal")));
        assert_eq!(o.snapshot_every, Some(Duration::from_millis(250)));
        assert_eq!(o.commit, Duration::from_millis(5));
        assert!(!o.fsync);
        let f = o.fault.unwrap();
        assert!(f.torn_tail && f.crash_mid_snapshot);
        assert!(!f.poison_books);

        let o = live(&["--recover", "--journal-dir", "d"]).unwrap();
        assert!(o.recover_only);
        let help = help::<LiveOpts>();
        assert!(help.contains("--recover"));
        assert!(help.contains("--journal-dir"));
    }

    #[test]
    fn live_telemetry_flags_parse() {
        // Off by default: no registry, no threads, untouched hot path.
        let o = live(&[]).unwrap();
        assert!(!o.telemetry_on());
        assert_eq!(o.sample_interval(), 0);

        let o = live(&["--stats-every", "200"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.stats_every, Some(Duration::from_millis(200)));
        // Stats alone: counters only, no tracing.
        assert_eq!(o.sample_interval(), 0);

        // --trace-out alone traces every decision.
        let o = live(&["--trace-out", "/tmp/trace.jsonl"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.trace_out, Some(PathBuf::from("/tmp/trace.jsonl")));
        assert_eq!(o.sample_interval(), 1);

        // An explicit sample interval wins; 0 means counters only.
        let o = live(&["--trace-out", "t", "--trace-sample", "64"]).unwrap();
        assert_eq!(o.sample_interval(), 64);
        let o = live(&["--trace-sample", "0"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.sample_interval(), 0);

        // --obs-listen alone turns telemetry on (the server needs the
        // registry), and the address must look like host:port.
        let o = live(&["--obs-listen", "127.0.0.1:9900"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.obs_listen, Some("127.0.0.1:9900".to_string()));
        assert_eq!(o.sample_interval(), 0);
        assert!(live(&["--obs-listen", "9900"]).is_err());
        assert!(live(&["--obs-listen"]).is_err());

        assert!(live(&["--stats-every", "0"]).is_err());
        assert!(live(&["--stats-every", "nope"]).is_err());
        assert!(live(&["--trace-sample", "-1"]).is_err());
        let help = help::<LiveOpts>();
        assert!(help.contains("--stats-every"));
        assert!(help.contains("--trace-out"));
        assert!(help.contains("--trace-sample"));
        assert!(help.contains("--obs-listen"));
    }

    #[test]
    fn live_on_journal_fail_and_transient_faults_parse() {
        // Degrade is the default policy.
        let o = live(&[]).unwrap();
        assert_eq!(o.on_journal_fail, OnJournalFail::Degrade);
        for (flag, want) in [
            ("degrade", OnJournalFail::Degrade),
            ("halt", OnJournalFail::Halt),
            ("exit", OnJournalFail::Exit),
        ] {
            let o = live(&["--on-journal-fail", flag]).unwrap();
            assert_eq!(o.on_journal_fail, want);
        }
        assert!(live(&["--on-journal-fail", "panic"]).is_err());
        assert!(live(&["--on-journal-fail"]).is_err());

        let o = live(&[
            "--fault",
            "io_error_n:3,enospc_after:4096,slow_io_ms:2,writer_hang,granter_stall",
        ])
        .unwrap();
        let f = o.fault.unwrap();
        assert_eq!(f.io_error_n, 3);
        assert_eq!(f.enospc_after, 4096);
        assert_eq!(f.slow_io_ms, 2);
        assert!(f.writer_hang && f.granter_stall);
        assert!(live(&["--fault", "io_error_n"]).is_err());
        assert!(live(&["--fault", "enospc_after:zero"]).is_err());

        let help = help::<LiveOpts>();
        assert!(help.contains("--on-journal-fail"));
        assert!(help.contains("io_error_n"));
        assert!(help.contains("granter_stall"));
    }

    #[test]
    fn live_durability_flag_errors() {
        // --recover without a directory to recover is an error.
        assert!(live(&["--recover"]).is_err());
        assert!(live(&["--snapshot-every", "0"]).is_err());
        assert!(live(&["--snapshot-every", "nope"]).is_err());
        assert!(live(&["--fault", "bogus_mode"]).is_err());
        assert!(live(&["--commit-ms", "-1"]).is_err());
        for bad in ["inf", "nan", "-1", "1e300"] {
            let err = live(&["--snapshot-every", bad]).unwrap_err();
            assert!(err.contains("--snapshot-every"), "{err}");
        }
    }

    #[test]
    fn live_errors_are_reported() {
        assert!(live(&["--workers"]).is_err());
        assert!(live(&["--workers", "0"]).is_err());
        assert!(live(&["--mode", "sideways"]).is_err());
        assert!(live(&["--bogus"]).is_err());
        // Out-of-range values are errors naming the flag, not panics.
        for (flag, bad) in [
            ("--duration-secs", "inf"),
            ("--duration-secs", "nan"),
            ("--duration-secs", "-1"),
            ("--duration-secs", "1e300"),
            ("--rate", "nan"),
            ("--rate", "inf"),
            ("--rate", "-1"),
            ("--useful-prob", "7"),
            ("--useful-prob", "-0.1"),
            ("--useful-prob", "nan"),
            ("--burst", "1.5,4"),
            ("--burst", "nan,4"),
            ("--burst", "0.5,abc"),
            // Client ids are u32 in the journal.
            ("--clients", "4294967296"),
            ("--clients", "18446744073709551615"),
        ] {
            let err = live(&["--mode", "open", flag, bad]).unwrap_err();
            assert!(err.contains(flag), "{flag} {bad}: {err}");
        }
        // The edges stay valid: a zero-length run, zero rate, certainty,
        // the largest client count the journal can name.
        let opts = live(&["--duration-secs", "0", "--rate", "0", "--useful-prob", "1"]).unwrap();
        assert_eq!(opts.cfg.duration, Duration::ZERO);
        assert!(live(&["--burst", "0,4", "--useful-prob", "0"]).is_ok());
        assert_eq!(
            live(&["--clients", "4294967295"]).unwrap().clients,
            4_294_967_295
        );
        // --help is not an error: the binary prints usage and exits 0.
        assert!(is_help::<LiveOpts>(&["--help"]));
        assert!(help::<LiveOpts>().contains("--duration-secs"));
    }

    #[test]
    fn top_flags_parse_and_validate() {
        let o = top(&["--addr", "127.0.0.1:9900"]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:9900");
        assert_eq!(o.every, Duration::from_millis(500));
        assert!(!o.once);
        let o = top(&["--addr", "h:1", "--every", "200", "--once"]).unwrap();
        assert_eq!(o.every, Duration::from_millis(200));
        assert!(o.once);
        assert!(top(&[]).is_err());
        assert!(top(&["--addr", "h:1", "--every", "0"]).is_err());
        assert!(top(&["--bogus"]).is_err());
        assert!(help::<TopOpts>().contains("--once"));
        assert!(is_help::<TopOpts>(&["--help"]));
    }

    /// The flags the judged benchmark drives `live` with parse to the
    /// options it means.
    #[test]
    fn benchmark_flags_parse() {
        let o = live(&[
            "--workers",
            "1",
            "--strategy",
            "randomized:5,10",
            "--useful-prob",
            "0.8",
            "--burst",
            "0.05,8",
            "--shards",
            "64",
            "--round-ms",
            "100",
            "--seed",
            "29",
            "--clients",
            "100000",
            "--duration-secs",
            "2.5",
            "--journal-dir",
            "/tmp/j",
            "--snapshot-every",
            "1.25",
            "--stats-every",
            "625",
            "--trace-sample",
            "64",
            "--obs-listen",
            "127.0.0.1:0",
            "--mode",
            "open",
            "--rate",
            "0.2",
        ])
        .unwrap();
        let d = LiveOpts::default();
        let want = LiveOpts {
            cfg: LoadGenConfig {
                workers: 1,
                duration: Duration::from_millis(2500),
                mode: ArrivalMode::Open {
                    rate_per_client: 0.2,
                },
                useful_probability: 0.8,
                burst: Some(BurstMix {
                    probability: 0.05,
                    size: 8,
                }),
                round_period: Some(Duration::from_millis(100)),
                seed: 29,
            },
            clients: 100_000,
            shards: 64,
            strategy: StrategySpec::Randomized { a: 5, c: 10 },
            rate: 0.2,
            journal_dir: Some(PathBuf::from("/tmp/j")),
            snapshot_every: Some(Duration::from_millis(1250)),
            stats_every: Some(Duration::from_millis(625)),
            trace_sample: Some(64),
            obs_listen: Some("127.0.0.1:0".into()),
            ..d
        };
        assert_eq!(o, want);
        let o = live(&["--recover", "--journal-dir", "/tmp/j", "--mode", "closed"]).unwrap();
        assert!(o.recover_only && o.cfg.mode == ArrivalMode::Closed);
    }

    /// Every default `--help` shows is the one the parser starts from:
    /// giving it explicitly changes nothing.
    #[test]
    fn defaults_in_help_are_the_real_defaults() {
        fn check<O: Options + PartialEq + fmt::Debug>(base: &[&str]) {
            let plain = parse_as::<O>(base).unwrap();
            for f in O::FLAGS.iter().filter(|f| !f.default.is_empty()) {
                let args = [base, &[f.name, f.default]].concat();
                assert_eq!(parse_as::<O>(&args).unwrap(), plain, "{}", f.name);
            }
        }
        check::<FigureOpts>(&[]);
        check::<LiveOpts>(&[]);
        check::<TopOpts>(&["--addr", "h:1"]);
    }

    /// README's "Flags" reference is each table's `--help`, verbatim.
    #[test]
    fn readme_flags_match_the_tables() {
        let readme = include_str!("../../../README.md");
        for (bin, help) in [
            ("live", help::<LiveOpts>()),
            ("fig2", help::<FigureOpts>()),
            ("live_top", help::<TopOpts>()),
        ] {
            let block = format!("```text\n$ {bin} --help\n{help}\n```\n");
            assert!(
                readme.contains(&block),
                "README's `{bin} --help` block differs from its table; it should read:\n{block}"
            );
        }
    }
}
