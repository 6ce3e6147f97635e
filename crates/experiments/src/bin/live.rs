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
//! `--journal-dir` makes the run durable: a grant/spend journal plus
//! snapshots, and a directory that already holds a manifest is recovered
//! and resumed. `--recover` only verifies a directory, and
//! `--on-journal-fail` picks what a persistently failing journal writer
//! does to the run. Each outcome has its own exit code (the `EXIT_*`
//! constants below, 1 for anything else); README's "Durability" and
//! "Failure policy" sections have the tables.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ta_experiments::cli::{self, LiveOpts};
use ta_live::harness::{live_vs_sim, OracleWorkload};
use ta_live::health::HealthBoard;
use ta_live::loadgen::{run_loadgen, Attach, LoadGenReport};
use ta_live::obs::{ObsServer, StatsPump, TraceBus};
use ta_live::persist::{
    recover, FaultPlan, PersistConfig, Persistence, RecoveryError, MANIFEST_FILE,
};
use ta_live::telem::c as tc;
use ta_live::{LiveRuntime, LiveTelemetry};
use ta_telemetry::{print_line, EventLine};
use token_account::Strategy;

/// Exit code: recovery found books that do not conserve.
const EXIT_CONSERVATION: u8 = 3;
/// Exit code: recovery had to discard a torn/corrupt suffix.
const EXIT_TRUNCATION: u8 = 4;
/// Exit code: the journal failed persistently and the policy was
/// `--on-journal-fail exit`.
const EXIT_JOURNAL_FAIL: u8 = 5;

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
    opts: &LiveOpts,
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
    let opts = match cli::from_args::<LiveOpts>(|msg| eprintln!("{msg}")) {
        Ok(opts) => opts,
        Err(code) => return code,
    };

    // The fault plan: --fault wins over the TA_FAULT env var.
    let faults = match opts.fault.map_or_else(FaultPlan::from_env, Ok) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if opts.recover_only {
        let dir = opts
            .journal_dir
            .as_deref()
            .expect("checked by LiveOpts::check");
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

    #[test]
    fn exit_codes_are_distinct() {
        // Distinct, documented exit codes for the recovery outcomes and
        // the journal policy.
        assert_ne!(EXIT_CONSERVATION, EXIT_TRUNCATION);
        assert_ne!(EXIT_JOURNAL_FAIL, EXIT_CONSERVATION);
        assert_ne!(EXIT_JOURNAL_FAIL, EXIT_TRUNCATION);
    }
}
