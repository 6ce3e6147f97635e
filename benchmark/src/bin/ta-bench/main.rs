//! `ta-bench`: drives the six workloads of the judged benchmark.
//!
//! ```text
//! ta-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ta-bench [--seed <n>] [--smoke] [--traced] [--sets <k>]
//! ```
//!
//! With `--workload` it runs that one workload and prints, as the last
//! line of stdout, the result object the driver reads. Without it, it
//! runs all six — each in its own child process — and prints one table.
//! Run it through `benchmark/run.sh`, which builds what it needs first.

mod live;
mod sim;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

use ta_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use ta_benchmark::report::Outcome;
use ta_benchmark::spans::Spans;
use ta_benchmark::DEFAULT_SEED;

const USAGE: &str = "options:
  --workload <name>  run one workload and end with its result line:
                     live_mem_closed | live_prod_closed | live_prod_open |
                     live_recover | sim_paper_grid | sim_big_churn
  --seed <n>         workload seed (default 17; held-out seed 29)
  --seconds <s>      measured seconds per workload (default: run_seconds
                     of BENCHMARK.json)
  --trace <0|1>      0: end-to-end metrics, untraced (default);
                     1: spans, layer ladder and per-layer metrics
  --traced           same as --trace 1
  --smoke            shrink every workload (whole suite in <= 30 s) and
                     still make every correctness check
  --sets <k>         run the whole suite k times and fail if an end-to-end
                     median moved between sets by more than its bound
  --flip-byte        self-test: corrupt live_recover's journal after it is
                     built; the run must then report failures
  --help             this text";

/// Everything a workload needs to know about this invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The shipped `live` binary.
    pub live_bin: PathBuf,
    /// The layer ladder.
    pub layers_bin: PathBuf,
    /// This binary (sim workloads run in a child of it).
    pub self_bin: PathBuf,
    /// `benchmark/out`: traces and scratch directories.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Shrunk workloads.
    pub smoke: bool,
    /// Record spans, run the ladder, report per-layer metrics.
    pub traced: bool,
    /// Corrupt the recovery journal (self-test).
    pub flip_byte: bool,
}

impl Ctx {
    /// A fresh scratch directory under `out/tmp`, removed by the caller.
    pub fn scratch(&self, tag: &str) -> std::io::Result<PathBuf> {
        let dir = self
            .out_dir
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.parent().expect("has a parent"))?;
        Ok(dir)
    }
}

#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    sim_child: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    sets: usize,
    flip_byte: bool,
}

fn parse_opts<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Opts>, String> {
    let mut o = Opts {
        workload: None,
        sim_child: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        sets: 1,
        flip_byte: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (see --help)"));
                }
                o.workload = Some(w);
            }
            "--sim-child" => o.sim_child = Some(value("--sim-child")?),
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => match value("--trace")?.as_str() {
                "0" => o.traced = false,
                "1" => o.traced = true,
                other => return Err(format!("bad --trace `{other}` (want 0 or 1)")),
            },
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            "--sets" => {
                let v = value("--sets")?;
                o.sets = v.parse().map_err(|_| format!("bad --sets `{v}`"))?;
                if o.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--flip-byte" => o.flip_byte = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    Ok(Some(o))
}

/// Runs one workload in this process and prints its table, its trace and
/// its result line.
fn run_workload(name: &str, ctx: &Ctx) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        // One core would time-slice the load thread against the granter,
        // the journal writer and the pool: the numbers would mean nothing.
        eprintln!("ta-bench: refusing to measure on {cores} core (needs at least 2)");
        return ExitCode::FAILURE;
    }
    let mut spans = Spans::new();
    let root = spans.open(name, None);
    let mut outcome = match name {
        "live_mem_closed" => live::run_load(live::Kind::MemClosed, ctx, &mut spans, root),
        "live_prod_closed" => live::run_load(live::Kind::ProdClosed, ctx, &mut spans, root),
        "live_prod_open" => live::run_load(live::Kind::ProdOpen, ctx, &mut spans, root),
        "live_recover" => live::run_recover(ctx, &mut spans, root),
        "sim_paper_grid" | "sim_big_churn" => sim::run(name, ctx, &mut spans, root),
        other => unreachable!("workload `{other}` was validated"),
    };
    spans.close(root, 0);
    let decls = if ctx.traced {
        outcome.set("benchmark.host_cores", cores as f64, "");
        println!("spans of {name} (self = span minus what its children cover):");
        print!("{}", spans.render_table());
        let path = ctx.out_dir.join(format!("trace-{name}.jsonl"));
        match std::fs::create_dir_all(&ctx.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl(name)))
        {
            Ok(()) => println!("trace: {} spans -> {}", spans.spans().len(), path.display()),
            Err(e) => eprintln!("ta-bench: could not write {}: {e}", path.display()),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    println!(
        "{name} seed {} ({}{:.0} s measured): attempted {} failed {}",
        ctx.seed,
        if ctx.smoke { "smoke, " } else { "" },
        ctx.seconds,
        outcome.attempted,
        outcome.failed()
    );
    print!("{}", outcome.render(decls));
    println!("{}", outcome.result_line(decls));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("ta-bench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(workload) = &opts.sim_child {
        return sim::child_main(workload, opts.seed, opts.seconds.unwrap_or(1.0), opts.smoke);
    }
    let self_bin = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ta-bench: cannot locate itself: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bin_dir = self_bin.parent().expect("an executable has a directory");
    let seconds = match opts.seconds.or_else(suite::manifest_run_seconds) {
        Some(s) => s,
        None => {
            eprintln!("ta-bench: no --seconds and no BENCHMARK.json in the current directory");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        live_bin: bin_dir.join("live"),
        layers_bin: bin_dir.join("ta-bench-layers"),
        self_bin: self_bin.clone(),
        out_dir: PathBuf::from("benchmark/out"),
        seed: opts.seed,
        seconds,
        smoke: opts.smoke,
        traced: opts.traced,
        flip_byte: opts.flip_byte,
    };
    if !ctx.live_bin.exists() {
        eprintln!(
            "ta-bench: {} is missing (run benchmark/run.sh, which builds it)",
            ctx.live_bin.display()
        );
        return ExitCode::FAILURE;
    }
    match &opts.workload {
        Some(name) => run_workload(name, &ctx),
        None => suite::run(&ctx, opts.sets),
    }
}

/// Per-repetition samples by metric name.
pub type Samples = std::collections::BTreeMap<&'static str, Vec<f64>>;

/// Reports every sampled metric as the median of its repetitions.
pub fn set_samples(outcome: &mut Outcome, samples: &Samples) {
    for (name, values) in samples {
        outcome.set_median(name, values, "");
    }
}

/// Runs one group of ladder rungs in a `ta-bench-layers` child, adopts its
/// `metric <name> <value>` lines into `outcome` and its spans into
/// `spans`. `dir` is the journal directory the recovery rungs read.
pub fn run_ladder(
    ctx: &Ctx,
    group: &str,
    dir: Option<&std::path::Path>,
    outcome: &mut Outcome,
    spans: &mut Spans,
    parent: usize,
) {
    let Some(scratch) = outcome.check(
        ctx.scratch("ladder")
            .map_err(|e| format!("ladder scratch directory: {e}")),
    ) else {
        return;
    };
    let mut cmd = std::process::Command::new(&ctx.layers_bin);
    cmd.args(["--group", group, "--seed", &ctx.seed.to_string()])
        .arg("--scratch")
        .arg(&scratch);
    if let Some(dir) = dir {
        cmd.arg("--dir").arg(dir);
    }
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    let span = spans.open("benchmark.ladder", Some(parent));
    let started = spans.now_ns();
    let run = ta_benchmark::child::run_plain(cmd, std::time::Duration::from_secs(40));
    spans.close(span, 0);
    let _ = std::fs::remove_dir_all(&scratch);
    let result = match run {
        Ok(r) if r.ok() => {
            spans.import(r.lines.iter().map(String::as_str), span, started);
            for line in &r.lines {
                let mut words = line.split_ascii_whitespace();
                if let (Some("metric"), Some(name), Some(value)) =
                    (words.next(), words.next(), words.next())
                {
                    match (ta_benchmark::catalog::declared(name), value.parse::<f64>()) {
                        (Some((name, _)), Ok(v)) => outcome.set(name, v, "ladder"),
                        _ => eprintln!("ta-bench: ladder line not understood: {line}"),
                    }
                }
            }
            Ok(())
        }
        Ok(r) => Err(format!(
            "ladder group {group} exited {:?}{}",
            r.exit_code,
            if r.timed_out {
                " (killed: overtime)"
            } else {
                ""
            }
        )),
        Err(e) => Err(format!("ladder group {group} did not start: {e}")),
    };
    outcome.attempt(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_opts(args.iter().map(|s| s.to_string())).map(|o| o.expect("not --help"))
    }

    #[test]
    fn driver_command_line_parses() {
        let o = parse(&[
            "--workload",
            "live_recover",
            "--seed",
            "29",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("live_recover"));
        assert_eq!((o.seed, o.seconds, o.traced), (29, Some(12.0), true));
        let o = parse(&[]).unwrap();
        assert_eq!((o.seed, o.sets, o.traced, o.smoke), (17, 1, false, false));
        assert!(o.workload.is_none() && o.seconds.is_none());
    }

    #[test]
    fn bad_flags_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "nan"]).is_err());
        assert!(parse(&["--sets", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse_opts(["--help".to_string()]).unwrap().is_none());
    }
}
