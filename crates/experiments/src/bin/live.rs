//! The `live` binary: drive the concurrent wall-clock admission runtime.
//!
//! ```text
//! cargo run --release -p ta-experiments --bin live -- \
//!     --workers 2 --clients 10000 --duration-secs 10
//! ```
//!
//! Runs the `ta-live` load generator with the requested strategy and
//! arrival mix, prints a throughput/latency/counter summary, and **exits
//! non-zero if the token-conservation books do not close exactly**
//! (`tokens_banked − reactive_sent == Σ balances`) — the invariant CI's
//! smoke run gates on. `--crosscheck` additionally replays a small
//! virtual-clock trace against the discrete-event engine first and fails
//! on any counter mismatch.
//!
//! **Durable mode** (`--journal-dir`): every balance delta is published
//! through the CRC-framed grant/spend journal and the accounts are
//! checkpointed with epoch-fenced copy-on-write snapshots
//! (`--snapshot-every`). A directory that already holds a manifest is
//! recovered and resumed, so a killed run continues its books.
//! `--recover` verifies a directory and exits without running load,
//! with **distinct exit codes** CI can gate on:
//!
//! | exit | meaning |
//! |------|---------|
//! | 0    | clean: journal tail intact, books conserve exactly |
//! | 3    | conservation mismatch — recovered books do not close |
//! | 4    | torn tail / corruption — a damaged suffix was discarded |
//! | 5    | journal failed persistently under `--on-journal-fail exit` |
//! | 1    | anything else (I/O, bad flags, conservation after a run) |
//!
//! **Self-healing** (`--on-journal-fail`): every run carries a health
//! board — the journal writer, granter, trace bus, and stats pump
//! heartbeat on it, a supervisor marks stale components Degraded and
//! restarts a stalled granter, and the writer retries transient IO
//! errors with bounded backoff before enacting the chosen policy
//! (`degrade` keeps admitting with durability suspended, `halt` closes
//! admissions, `exit` additionally exits 5).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ta_live::harness::{live_vs_sim, OracleWorkload};
use ta_live::health::{HealthBoard, OnJournalFail};
use ta_live::loadgen::{run_loadgen, ArrivalMode, Attach, BurstMix, LoadGenConfig, LoadGenReport};
use ta_live::obs::{ObsServer, StatsPump, TraceBus};
use ta_live::persist::{
    recover, FaultPlan, PersistConfig, Persistence, RecoveryError, MANIFEST_FILE,
};
use ta_live::telem::c as tc;
use ta_live::{LiveRuntime, LiveTelemetry};
use ta_telemetry::{print_line, EventLine};
use token_account::{Strategy, StrategySpec};

/// Exit code: recovery found books that do not conserve.
const EXIT_CONSERVATION: u8 = 3;
/// Exit code: recovery had to discard a torn/corrupt suffix.
const EXIT_TRUNCATION: u8 = 4;
/// Exit code: the journal failed persistently and the policy was
/// `--on-journal-fail exit`.
const EXIT_JOURNAL_FAIL: u8 = 5;

const USAGE: &str = "options:
  --workers <k>        worker threads (default 2)
  --clients <n>        virtual clients (default 100000)
  --duration-secs <s>  wall-clock run length (default 10)
  --strategy <spec>    proactive | reactive:<k> | simple:<C> |
                       generalized:<A>,<C> | randomized:<A>,<C>
                       (default randomized:5,10)
  --mode <m>           closed | open (default closed)
  --rate <r>           open-loop requests/client/sec (default 10)
  --burst <p>,<k>      burst mix: probability p, size k (default off)
  --useful-prob <p>    probability a request is useful (default 0.8)
  --shards <s>         account shards (default 64)
  --round-ms <ms>      granter round length Δ; 0 disables (default 1000)
  --seed <s>           master seed (default 1)
  --crosscheck         first validate exact live-vs-sim counter equality
  --journal-dir <dir>  durable mode: grant/spend journal + snapshots in
                       <dir>; an existing domain is recovered + resumed
  --snapshot-every <s> checkpoint the accounts every s seconds
  --commit-ms <ms>     journal group-commit interval (default 20)
  --no-fsync           skip fsync on journal commits (tests only)
  --fault <list>       inject faults, comma-separated (overrides the
                       TA_FAULT env var): kill_writer_mid_frame,
                       drop_fsync, crash_mid_snapshot, poison_books,
                       torn_tail, corrupt_crc, corrupt_snapshot,
                       io_error_n:<k> (k transient write errors),
                       enospc_after:<bytes> (disk full past a budget),
                       slow_io_ms:<ms>, writer_hang, granter_stall
  --on-journal-fail <p> policy when the journal writer fails past its
                       retry budget: degrade (default; keep admitting,
                       durability suspended, writer restarts when the
                       disk recovers), halt (close admissions, finish
                       cleanly), exit (like halt, then exit 5)
  --recover            recover + verify --journal-dir, then exit:
                       0 clean, 3 conservation mismatch, 4 torn tail
  --stats-every <ms>   emit one schema-versioned JSON stats line
                       (ta-stats/v2) every <ms> milliseconds
  --trace-out <path>   drain sampled decision-trace records to <path>
                       as JSONL (implies --trace-sample 1 unless set)
  --trace-sample <n>   sample every n-th admission decision into the
                       trace ring; 0 = counters only, no tracing
  --obs-listen <addr>  serve the observability line protocol on <addr>
                       (e.g. 127.0.0.1:9900): STATS one-shot, WATCH <ms>
                       pushed stats, TRACE <n> sampled decision records
  --help               this text";

#[derive(Debug)]
struct Opts {
    cfg: LoadGenConfig,
    clients: usize,
    shards: usize,
    strategy: StrategySpec,
    crosscheck: bool,
    journal_dir: Option<PathBuf>,
    snapshot_every: Option<Duration>,
    commit: Duration,
    fsync: bool,
    fault: Option<FaultPlan>,
    on_journal_fail: OnJournalFail,
    recover_only: bool,
    stats_every: Option<Duration>,
    trace_out: Option<PathBuf>,
    trace_sample: Option<u32>,
    obs_listen: Option<String>,
}

impl Opts {
    /// Telemetry is built when any introspection knob was given.
    fn telemetry_on(&self) -> bool {
        self.stats_every.is_some()
            || self.trace_out.is_some()
            || self.trace_sample.is_some()
            || self.obs_listen.is_some()
    }

    /// Effective sample interval: an explicit `--trace-sample` wins;
    /// `--trace-out` alone traces every decision; stats alone trace
    /// nothing (counters only).
    fn sample_interval(&self) -> u32 {
        self.trace_sample
            .unwrap_or(u32::from(self.trace_out.is_some()))
    }
}

fn parse_strategy(s: &str) -> Result<StrategySpec, String> {
    let (name, params) = match s.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (s, None),
    };
    let nums = |p: Option<&str>, want: usize| -> Result<Vec<u64>, String> {
        let p = p.ok_or_else(|| format!("strategy `{name}` needs {want} parameter(s)"))?;
        let vals: Result<Vec<u64>, _> = p.split(',').map(|v| v.trim().parse()).collect();
        let vals = vals.map_err(|_| format!("bad strategy parameters `{p}`"))?;
        if vals.len() != want {
            return Err(format!("strategy `{name}` needs {want} parameter(s)"));
        }
        Ok(vals)
    };
    match name {
        "proactive" => Ok(StrategySpec::Proactive),
        "reactive" => Ok(StrategySpec::Reactive {
            k: nums(params, 1)?[0],
        }),
        "simple" => Ok(StrategySpec::Simple {
            c: nums(params, 1)?[0],
        }),
        "generalized" => {
            let v = nums(params, 2)?;
            Ok(StrategySpec::Generalized { a: v[0], c: v[1] })
        }
        "randomized" => {
            let v = nums(params, 2)?;
            Ok(StrategySpec::Randomized { a: v[0], c: v[1] })
        }
        other => Err(format!("unknown strategy `{other}`")),
    }
}

/// Parses `flag`'s value as seconds: finite, not negative, and small
/// enough for a [`Duration`].
fn parse_secs(flag: &str, v: &str) -> Result<Duration, String> {
    let secs: f64 = v.parse().map_err(|_| format!("bad {flag} `{v}`"))?;
    Duration::try_from_secs_f64(secs)
        .map_err(|_| format!("{flag} `{v}` must be a finite number of seconds >= 0"))
}

/// Parses `what`'s value as a probability in `[0, 1]`.
fn parse_prob(what: &str, v: &str) -> Result<f64, String> {
    let p: f64 = v.trim().parse().map_err(|_| format!("bad {what} `{v}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what} `{v}` must lie in [0, 1]"));
    }
    Ok(p)
}

/// Parses options; `Ok(None)` means `--help` was requested.
fn parse_opts<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Opts>, String> {
    let mut cfg = LoadGenConfig {
        workers: 2,
        duration: Duration::from_secs(10),
        mode: ArrivalMode::Closed,
        useful_probability: 0.8,
        burst: None,
        round_period: Some(Duration::from_millis(1000)),
        seed: 1,
    };
    let mut clients = 100_000;
    let mut shards = 64;
    let mut strategy = StrategySpec::Randomized { a: 5, c: 10 };
    let mut crosscheck = false;
    let mut rate = 10.0f64;
    let mut open = false;
    let mut journal_dir: Option<PathBuf> = None;
    let mut snapshot_every: Option<Duration> = None;
    let mut commit = Duration::from_millis(20);
    let mut fsync = true;
    let mut fault: Option<FaultPlan> = None;
    let mut on_journal_fail = OnJournalFail::default();
    let mut recover_only = false;
    let mut stats_every: Option<Duration> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_sample: Option<u32> = None;
    let mut obs_listen: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workers" => {
                let v = value("--workers")?;
                cfg.workers = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
                if cfg.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--clients" => {
                let v = value("--clients")?;
                clients = v.parse().map_err(|_| format!("bad --clients `{v}`"))?;
                if clients == 0 {
                    return Err("--clients must be at least 1".into());
                }
            }
            "--duration-secs" => {
                cfg.duration = parse_secs("--duration-secs", &value("--duration-secs")?)?;
            }
            "--strategy" => strategy = parse_strategy(&value("--strategy")?)?,
            "--mode" => match value("--mode")?.as_str() {
                "closed" => open = false,
                "open" => open = true,
                other => return Err(format!("unknown mode `{other}`")),
            },
            "--rate" => {
                let v = value("--rate")?;
                rate = v.parse().map_err(|_| format!("bad --rate `{v}`"))?;
                if !rate.is_finite() || rate < 0.0 {
                    return Err(format!("--rate `{v}` must be a finite rate >= 0"));
                }
            }
            "--burst" => {
                let v = value("--burst")?;
                let (p, k) = v
                    .split_once(',')
                    .ok_or_else(|| format!("bad --burst `{v}` (want p,k)"))?;
                cfg.burst = Some(BurstMix {
                    probability: parse_prob("--burst p", p)?,
                    size: k.trim().parse().map_err(|_| format!("bad burst k `{k}`"))?,
                });
            }
            "--useful-prob" => {
                cfg.useful_probability = parse_prob("--useful-prob", &value("--useful-prob")?)?;
            }
            "--shards" => {
                let v = value("--shards")?;
                shards = v.parse().map_err(|_| format!("bad --shards `{v}`"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--round-ms" => {
                let v = value("--round-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --round-ms `{v}`"))?;
                cfg.round_period = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--seed" => {
                let v = value("--seed")?;
                cfg.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--crosscheck" => crosscheck = true,
            "--journal-dir" => journal_dir = Some(PathBuf::from(value("--journal-dir")?)),
            "--snapshot-every" => {
                let every = parse_secs("--snapshot-every", &value("--snapshot-every")?)?;
                if every.is_zero() {
                    return Err("--snapshot-every must be positive".into());
                }
                snapshot_every = Some(every);
            }
            "--commit-ms" => {
                let v = value("--commit-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --commit-ms `{v}`"))?;
                commit = Duration::from_millis(ms);
            }
            "--no-fsync" => fsync = false,
            "--fault" => fault = Some(FaultPlan::parse(&value("--fault")?)?),
            "--on-journal-fail" => {
                on_journal_fail = OnJournalFail::parse(&value("--on-journal-fail")?)?;
            }
            "--recover" => recover_only = true,
            "--stats-every" => {
                let v = value("--stats-every")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --stats-every `{v}`"))?;
                if ms == 0 {
                    return Err("--stats-every must be at least 1 ms".into());
                }
                stats_every = Some(Duration::from_millis(ms));
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--trace-sample" => {
                let v = value("--trace-sample")?;
                trace_sample = Some(v.parse().map_err(|_| format!("bad --trace-sample `{v}`"))?);
            }
            "--obs-listen" => {
                let v = value("--obs-listen")?;
                if !v.contains(':') {
                    return Err(format!("bad --obs-listen `{v}` (want host:port)"));
                }
                obs_listen = Some(v);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    if open {
        cfg.mode = ArrivalMode::Open {
            rate_per_client: rate,
        };
    }
    if recover_only && journal_dir.is_none() {
        return Err("--recover needs --journal-dir".into());
    }
    Ok(Some(Opts {
        cfg,
        clients,
        shards,
        strategy,
        crosscheck,
        journal_dir,
        snapshot_every,
        commit,
        fsync,
        fault,
        on_journal_fail,
        recover_only,
        stats_every,
        trace_out,
        trace_sample,
        obs_listen,
    }))
}

/// Prints a diagnosis line to stderr (failures and damage reports go to
/// stderr; the happy path uses [`EventLine::emit`] on stdout).
fn fail_line(line: EventLine) {
    eprintln!("{}", line.finish());
}

/// Recovers + verifies a journal directory and maps the outcome onto
/// the gateable exit codes (`0` clean, `3` conservation, `4` torn
/// tail), printing a one-line diagnosis for each non-zero case.
fn report_recovery(dir: &std::path::Path) -> ExitCode {
    match recover(dir) {
        Ok(state) => {
            for t in &state.truncations {
                fail_line(EventLine::new("recovery_truncation").kv("detail", t));
            }
            EventLine::new("recovered")
                .kv("clients", state.clients)
                .kv("shards", state.shards)
                .kv("balances_sum", state.balances_sum())
                .kv("granted", state.granted_total())
                .kv("burned", state.burned_total())
                .kv("replayed", state.replayed)
                .kv(
                    "snapshot",
                    match state.snapshot_id {
                        Some(id) => format!("{id:#x}"),
                        None => "none".to_string(),
                    },
                )
                .emit();
            if state.truncations.is_empty() {
                EventLine::new("recovery")
                    .kv("ok", true)
                    .kv("detail", "journal tail intact, books conserve exactly")
                    .emit();
                ExitCode::SUCCESS
            } else {
                fail_line(
                    EventLine::new("recovery")
                        .kv("ok", false)
                        .kv("reason", "truncated")
                        .kv("discarded", state.truncations.len())
                        .kv("detail", "surviving prefix is verified and consistent"),
                );
                ExitCode::from(EXIT_TRUNCATION)
            }
        }
        Err(e) => recovery_failed(e),
    }
}

/// Prints the diagnosis of a failed recovery and maps it onto its exit
/// code (`3` conservation, `1` anything else).
fn recovery_failed(e: RecoveryError) -> ExitCode {
    let (reason, detail, code) = match e {
        RecoveryError::Conservation { detail } => ("conservation", detail, EXIT_CONSERVATION),
        e => ("error", e.to_string(), 1),
    };
    fail_line(
        EventLine::new("recovery")
            .kv("ok", false)
            .kv("reason", reason)
            .kv("detail", detail),
    );
    ExitCode::from(code)
}

/// Prints why the journal could not be opened (`reason` `open`) or
/// resumed (`resume`) and maps it onto exit code 1.
fn journal_failed(reason: &'static str) -> impl Fn(std::io::Error) -> ExitCode {
    move |e| {
        fail_line(
            EventLine::new("journal")
                .kv("ok", false)
                .kv("reason", reason)
                .kv("detail", e),
        );
        ExitCode::FAILURE
    }
}

/// Opens (or recovers + resumes) the durability domain under `dir` and
/// runs the load generator with the journal attached.
fn run_durable(
    opts: &Opts,
    dir: &std::path::Path,
    faults: FaultPlan,
    strategy: Box<dyn Strategy>,
    telem: Option<&LiveTelemetry>,
    board: &Arc<HealthBoard>,
) -> Result<LoadGenReport, ExitCode> {
    let mut pcfg = PersistConfig::new(dir);
    pcfg.group_commit = opts.commit;
    pcfg.snapshot_every = opts.snapshot_every;
    pcfg.fsync = opts.fsync;
    pcfg.faults = faults;

    let (runtime, persistence) = if dir.join(MANIFEST_FILE).exists() {
        let state = recover(dir).map_err(recovery_failed)?;
        for t in &state.truncations {
            fail_line(EventLine::new("recovery_truncation").kv("detail", t));
        }
        if state.clients != opts.clients {
            fail_line(
                EventLine::new("recovery")
                    .kv("ok", false)
                    .kv("reason", "geometry")
                    .kv("flag_clients", opts.clients)
                    .kv("manifest_clients", state.clients),
            );
            return Err(ExitCode::FAILURE);
        }
        EventLine::new("resumed")
            .kv("balances_sum", state.balances_sum())
            .kv("replayed", state.replayed)
            .kv("truncations", state.truncations.len())
            .emit();
        let p = Persistence::resume(&pcfg, &state).map_err(journal_failed("resume"))?;
        if let Some(t) = telem {
            t.note_recovery_replayed(state.replayed);
        }
        (LiveRuntime::from_recovered(strategy, &state), p)
    } else {
        let p =
            Persistence::open(&pcfg, opts.clients, opts.shards).map_err(journal_failed("open"))?;
        (LiveRuntime::new(strategy, opts.clients, opts.shards), p)
    };

    let with = Attach {
        persistence: Some(&persistence),
        telem,
        board: Some(board),
    };
    let report = run_loadgen(&runtime, &opts.cfg, with);
    EventLine::new("durable")
        .kv("snapshots", report.snapshots)
        .kv("snapshot_failures", report.snapshot_failures)
        .emit();
    match persistence.shutdown() {
        Ok(s) => EventLine::new("journal")
            .kv("ok", true)
            .kv("records", s.records)
            .kv("frames", s.frames)
            .kv("bytes", s.bytes)
            .kv("rotations", s.segments)
            .kv("fsyncs", s.syncs)
            .emit(),
        // Expected when a writer fault killed the journal thread.
        Err(e) => fail_line(
            EventLine::new("journal")
                .kv("ok", false)
                .kv("reason", "writer_died")
                .kv("detail", e),
        ),
    }
    if faults.wants_post_mortem() {
        match faults.apply_post_mortem(dir) {
            Ok(wounds) => {
                for w in wounds {
                    EventLine::new("fault").kv("applied", w).emit();
                }
            }
            Err(e) => {
                fail_line(EventLine::new("fault").kv("ok", false).kv("detail", e));
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => {
            print_line(USAGE);
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // The fault plan: --fault wins over the TA_FAULT env var.
    let faults = match opts.fault {
        Some(f) => f,
        None => match FaultPlan::from_env() {
            Ok(f) => f,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        },
    };

    if opts.recover_only {
        let dir = opts.journal_dir.as_deref().expect("checked in parse_opts");
        return report_recovery(dir);
    }

    if opts.crosscheck {
        // Exact gate before spending wall-clock time: the live decision
        // path must reproduce the discrete-event engine bit for bit under
        // the virtual clock.
        let workload = OracleWorkload::quick(50, opts.cfg.seed);
        match live_vs_sim(opts.strategy, &workload, opts.cfg.workers.max(1), 8) {
            Ok(cv) if cv.exact_match() => {
                EventLine::new("crosscheck")
                    .kv("ok", true)
                    .kv("rounds", cv.sim.counters.rounds)
                    .kv("requests", cv.sim.counters.requests)
                    .emit();
            }
            Ok(cv) => {
                fail_line(
                    EventLine::new("crosscheck")
                        .kv("ok", false)
                        .kv("sim", format!("{:?}", cv.sim))
                        .kv("live", format!("{:?}", cv.live)),
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("invalid strategy: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    print_line(format_args!(
        "live: strategy {}, {} clients, {} workers, {} account shards, {:?} for {:.1}s",
        opts.strategy.label(),
        opts.clients,
        opts.cfg.workers,
        opts.shards,
        opts.cfg.mode,
        opts.cfg.duration.as_secs_f64(),
    ));
    // Optional introspection: counters + stats lines + trace collector.
    let telem = opts.telemetry_on().then(|| {
        LiveTelemetry::new(
            opts.cfg.workers,
            opts.sample_interval(),
            LiveTelemetry::DEFAULT_RING_CAPACITY,
        )
    });
    let t0 = Instant::now();

    // Every run carries a health board: components heartbeat on it, the
    // supervisor enforces the --on-journal-fail policy, and stats lines
    // grow a `health` section.
    let board = HealthBoard::new(opts.on_journal_fail);
    if faults.granter_stall {
        board.arm_granter_stall();
    }

    // Stats pump: the single producer of ta-stats/v2 lines, feeding
    // stdout (--stats-every) and WATCH subscribers from one snapshot
    // stream, so `seq` stays one monotone sequence across sinks.
    let pump = match telem.as_ref() {
        Some(t) if opts.stats_every.is_some() || opts.obs_listen.is_some() => {
            let p = StatsPump::start(Arc::clone(t), t0, opts.stats_every);
            p.attach_health(Arc::clone(&board));
            Some(p)
        }
        _ => None,
    };

    // Trace bus: exclusive owner of the per-worker rings; drains them
    // into the --trace-out JSONL file and fans records out to TRACE
    // subscribers. Built whenever tracing is armed or the server could
    // arm it at runtime.
    let bus = match telem.as_ref() {
        Some(t) if t.gate().get() > 0 || opts.obs_listen.is_some() => {
            let b = TraceBus::start(t, opts.trace_out.clone());
            b.attach_health(Arc::clone(&board));
            Some(b)
        }
        _ => None,
    };

    let server = match (
        &opts.obs_listen,
        telem.as_ref(),
        pump.as_ref(),
        bus.as_ref(),
    ) {
        (Some(addr), Some(t), Some(p), Some(b)) => {
            match ObsServer::spawn(addr, t, Arc::clone(p), Arc::clone(b)) {
                Ok(s) => {
                    EventLine::new("obs").kv("listen", s.addr()).emit();
                    Some(s)
                }
                Err(e) => {
                    fail_line(EventLine::new("obs").kv("ok", false).kv("detail", e));
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => None,
    };

    let strategy = match opts.strategy.build() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid strategy: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = if let Some(dir) = opts.journal_dir.as_deref() {
        match run_durable(&opts, dir, faults, strategy, telem.as_deref(), &board) {
            Ok(r) => r,
            Err(code) => return code,
        }
    } else {
        let with = Attach {
            telem: telem.as_deref(),
            board: Some(&board),
            ..Attach::default()
        };
        run_loadgen(
            &LiveRuntime::new(strategy, opts.clients, opts.shards),
            &opts.cfg,
            with,
        )
    };

    // The run has returned (workers joined, all telemetry flushed):
    // finalize the stats stream (one last identical line to stdout and
    // every WATCH subscriber), close the trace books with an EOS trailer
    // per TRACE subscriber, then retire the server.
    if let Some(p) = pump.as_ref() {
        p.finalize();
    }
    if let Some(b) = bus.as_ref() {
        let snap = telem.as_ref().expect("bus implies telemetry").snapshot();
        match b.finish(&snap) {
            Ok(lines) => EventLine::new("trace")
                .kv("lines", lines)
                .kv("sampled", snap.counter(tc::TRACE_SAMPLED))
                .kv("dropped", snap.counter(tc::TRACE_DROPPED))
                .kv(
                    "out",
                    opts.trace_out
                        .as_ref()
                        .map_or("-".to_string(), |p| p.display().to_string()),
                )
                .emit(),
            Err(e) => {
                fail_line(EventLine::new("trace").kv("ok", false).kv("detail", e));
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(s) = server {
        s.shutdown();
    }

    let c = &report.counters;
    print_line(format_args!(
        "throughput: {:.0} decisions/sec total, {:.0}/sec/worker ({} decisions in {:.2}s)",
        report.decisions_per_sec(),
        report.decisions_per_sec_per_worker(),
        c.requests,
        report.wall.as_secs_f64(),
    ));
    let h = &report.histogram;
    // The open loop times every decision, the closed loop one in 64.
    print_line(format_args!(
        "decision latency ({} of {} decisions timed): p50 {}ns  p90 {}ns  p99 {}ns  \
         p99.9 {}ns  max {}ns  mean {:.0}ns",
        h.count(),
        c.requests,
        h.percentile(0.5),
        h.percentile(0.9),
        h.percentile(0.99),
        h.percentile(0.999),
        h.max(),
        h.mean(),
    ));
    print_line(format_args!(
        "counters: rounds {} (proactive {}, banked {}), requests {} \
         (reactive {}, held {}), balances_sum {}",
        c.rounds,
        c.proactive_sent,
        c.tokens_banked,
        c.requests,
        c.reactive_sent,
        c.reactive_held,
        report.balances_sum,
    ));

    // The health ledger: one machine-greppable line closing the
    // self-healing books (CI asserts these against the fault plan).
    if let Some(t) = telem.as_ref() {
        let snap = t.snapshot();
        EventLine::new("health")
            .kv("policy", opts.on_journal_fail)
            .kv("degradations", snap.counter(tc::HEALTH_DEGRADATIONS))
            .kv("io_retries", snap.counter(tc::JOURNAL_IO_RETRIES))
            .kv("io_errors", snap.counter(tc::JOURNAL_IO_ERRORS))
            .kv("dropped_records", snap.counter(tc::JOURNAL_DROPPED_RECORDS))
            .kv("writer_restarts", snap.counter(tc::JOURNAL_WRITER_RESTARTS))
            .kv("granter_restarts", snap.counter(tc::GRANTER_RESTARTS))
            .kv("faults_injected", snap.counter(tc::FAULTS_INJECTED))
            .kv(
                "durability",
                if board.durability_suspended() {
                    "suspended"
                } else {
                    "ok"
                },
            )
            .emit();
    }

    let conservation = EventLine::new("conservation")
        .kv("ok", report.conserves())
        .kv("tokens_banked", c.tokens_banked)
        .kv("reactive_sent", c.reactive_sent)
        .kv("balances_sum", report.balances_sum)
        .kv("initial", report.initial_balances_sum);
    if report.conserves() {
        conservation.emit();
        if board.abort_requested() {
            // The books closed, but the journal died under the `exit`
            // policy: make that visible as a distinct exit code.
            fail_line(
                EventLine::new("journal_policy")
                    .kv("policy", opts.on_journal_fail)
                    .kv("exit", EXIT_JOURNAL_FAIL),
            );
            return ExitCode::from(EXIT_JOURNAL_FAIL);
        }
        ExitCode::SUCCESS
    } else {
        fail_line(conservation);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_opts(args.iter().map(|s| s.to_string())).map(|o| o.expect("not a --help parse"))
    }

    #[test]
    fn defaults_and_overrides() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.cfg.workers, 2);
        assert_eq!(o.cfg.mode, ArrivalMode::Closed);
        assert!(!o.crosscheck);
        let o = parse(&[
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
    fn durability_flags_parse() {
        let o = parse(&[
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

        let o = parse(&["--recover", "--journal-dir", "d"]).unwrap();
        assert!(o.recover_only);
        // Distinct, documented exit codes for the two recovery outcomes.
        assert_ne!(EXIT_CONSERVATION, EXIT_TRUNCATION);
        assert!(USAGE.contains("--recover"));
        assert!(USAGE.contains("--journal-dir"));
    }

    #[test]
    fn telemetry_flags_parse() {
        // Off by default: no registry, no threads, untouched hot path.
        let o = parse(&[]).unwrap();
        assert!(!o.telemetry_on());
        assert_eq!(o.sample_interval(), 0);

        let o = parse(&["--stats-every", "200"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.stats_every, Some(Duration::from_millis(200)));
        // Stats alone: counters only, no tracing.
        assert_eq!(o.sample_interval(), 0);

        // --trace-out alone traces every decision.
        let o = parse(&["--trace-out", "/tmp/trace.jsonl"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.trace_out, Some(PathBuf::from("/tmp/trace.jsonl")));
        assert_eq!(o.sample_interval(), 1);

        // An explicit sample interval wins; 0 means counters only.
        let o = parse(&["--trace-out", "t", "--trace-sample", "64"]).unwrap();
        assert_eq!(o.sample_interval(), 64);
        let o = parse(&["--trace-sample", "0"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.sample_interval(), 0);

        // --obs-listen alone turns telemetry on (the server needs the
        // registry), and the address must look like host:port.
        let o = parse(&["--obs-listen", "127.0.0.1:9900"]).unwrap();
        assert!(o.telemetry_on());
        assert_eq!(o.obs_listen, Some("127.0.0.1:9900".to_string()));
        assert_eq!(o.sample_interval(), 0);
        assert!(parse(&["--obs-listen", "9900"]).is_err());
        assert!(parse(&["--obs-listen"]).is_err());

        assert!(parse(&["--stats-every", "0"]).is_err());
        assert!(parse(&["--stats-every", "nope"]).is_err());
        assert!(parse(&["--trace-sample", "-1"]).is_err());
        assert!(USAGE.contains("--stats-every"));
        assert!(USAGE.contains("--trace-out"));
        assert!(USAGE.contains("--trace-sample"));
        assert!(USAGE.contains("--obs-listen"));
    }

    #[test]
    fn on_journal_fail_and_transient_faults_parse() {
        // Degrade is the default policy.
        let o = parse(&[]).unwrap();
        assert_eq!(o.on_journal_fail, OnJournalFail::Degrade);
        for (flag, want) in [
            ("degrade", OnJournalFail::Degrade),
            ("halt", OnJournalFail::Halt),
            ("exit", OnJournalFail::Exit),
        ] {
            let o = parse(&["--on-journal-fail", flag]).unwrap();
            assert_eq!(o.on_journal_fail, want);
        }
        assert!(parse(&["--on-journal-fail", "panic"]).is_err());
        assert!(parse(&["--on-journal-fail"]).is_err());

        let o = parse(&[
            "--fault",
            "io_error_n:3,enospc_after:4096,slow_io_ms:2,writer_hang,granter_stall",
        ])
        .unwrap();
        let f = o.fault.unwrap();
        assert_eq!(f.io_error_n, 3);
        assert_eq!(f.enospc_after, 4096);
        assert_eq!(f.slow_io_ms, 2);
        assert!(f.writer_hang && f.granter_stall);
        assert!(parse(&["--fault", "io_error_n"]).is_err());
        assert!(parse(&["--fault", "enospc_after:zero"]).is_err());

        assert!(USAGE.contains("--on-journal-fail"));
        assert!(USAGE.contains("io_error_n"));
        assert!(USAGE.contains("granter_stall"));
        // The new exit code stays distinct from the recovery codes.
        assert_ne!(EXIT_JOURNAL_FAIL, EXIT_CONSERVATION);
        assert_ne!(EXIT_JOURNAL_FAIL, EXIT_TRUNCATION);
    }

    #[test]
    fn durability_flag_errors() {
        // --recover without a directory to recover is an error.
        assert!(parse(&["--recover"]).is_err());
        assert!(parse(&["--snapshot-every", "0"]).is_err());
        assert!(parse(&["--snapshot-every", "nope"]).is_err());
        assert!(parse(&["--fault", "bogus_mode"]).is_err());
        assert!(parse(&["--commit-ms", "-1"]).is_err());
        for bad in ["inf", "nan", "-1", "1e300"] {
            let err = parse(&["--snapshot-every", bad]).unwrap_err();
            assert!(err.contains("--snapshot-every"), "{err}");
        }
    }

    #[test]
    fn strategy_specs_parse() {
        assert_eq!(parse_strategy("proactive"), Ok(StrategySpec::Proactive));
        assert_eq!(
            parse_strategy("reactive:2"),
            Ok(StrategySpec::Reactive { k: 2 })
        );
        assert_eq!(
            parse_strategy("simple:10"),
            Ok(StrategySpec::Simple { c: 10 })
        );
        assert_eq!(
            parse_strategy("generalized:5,10"),
            Ok(StrategySpec::Generalized { a: 5, c: 10 })
        );
        assert_eq!(
            parse_strategy("randomized:5,10"),
            Ok(StrategySpec::Randomized { a: 5, c: 10 })
        );
        assert!(parse_strategy("bogus").is_err());
        assert!(parse_strategy("simple").is_err());
        assert!(parse_strategy("generalized:5").is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--mode", "sideways"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        // Out-of-range floats are errors naming the flag, not panics.
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
        ] {
            let err = parse(&["--mode", "open", flag, bad]).unwrap_err();
            assert!(err.contains(flag), "{flag} {bad}: {err}");
        }
        // The edges stay valid: a zero-length run, zero rate, certainty.
        let opts = parse(&["--duration-secs", "0", "--rate", "0", "--useful-prob", "1"]).unwrap();
        assert_eq!(opts.cfg.duration, Duration::ZERO);
        assert!(parse(&["--burst", "0,4", "--useful-prob", "0"]).is_ok());
        // --help is not an error: the binary prints usage and exits 0.
        assert_eq!(
            parse_opts(["--help".to_string()]).map(|o| o.is_none()),
            Ok(true)
        );
        assert!(USAGE.contains("--duration-secs"));
    }
}
