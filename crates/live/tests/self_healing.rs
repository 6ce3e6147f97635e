//! Self-healing acceptance tests: transient IO faults absorbed by the
//! retry envelope, and degraded-mode operation under a disk-full
//! outage.
//!
//! The two properties the supervision layer must deliver:
//!
//! * `io_error_n:<k>` faults are **fully absorbed**: every injected
//!   error is retried, nothing is dropped, and post-run recovery is
//!   bit-for-bit identical to a fault-free shutdown.
//! * Under `enospc_after:<bytes>` with the `degrade` policy the runtime
//!   **keeps admitting** while durability is suspended, the health
//!   board reports the writer Degraded→Failed→recovered, the writer
//!   restarts onto a fresh segment once space returns, and the
//!   recovered books still reconcile exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ta_live::persist::{recover, FaultPlan, PersistConfig, Persistence};
use ta_live::{
    run_loadgen, ArrivalMode, Attach, HealthBoard, HealthState, LiveRuntime, LiveTelemetry,
    LoadGenConfig, LoadGenReport, OnJournalFail,
};
use token_account::prelude::*;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ta-selfheal-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const CLIENTS: usize = 400;
const SHARDS: usize = 4;

fn loadgen_cfg(duration_ms: u64, seed: u64) -> LoadGenConfig {
    LoadGenConfig {
        workers: 2,
        duration: Duration::from_millis(duration_ms),
        mode: ArrivalMode::Closed,
        useful_probability: 0.8,
        burst: None,
        round_period: Some(Duration::from_millis(20)),
        seed,
    }
}

/// A fresh `CLIENTS` × `SHARDS` runtime under `p`'s journal, `telem` and
/// `board`.
fn supervised_run(
    strategy: impl Strategy + 'static,
    cfg: &LoadGenConfig,
    p: &Persistence,
    telem: &LiveTelemetry,
    board: &std::sync::Arc<HealthBoard>,
) -> LoadGenReport {
    let with = Attach {
        persistence: Some(p),
        telem: Some(telem),
        board: Some(board),
    };
    run_loadgen(&LiveRuntime::new(strategy, CLIENTS, SHARDS), cfg, with)
}

/// A fresh `CLIENTS` × `SHARDS` journal under `dir` with `faults`
/// injected: 2 ms group commit, 32-record buffers.
fn open_journal(dir: &std::path::Path, faults: &str) -> Persistence {
    let mut pcfg = PersistConfig::new(dir);
    pcfg.group_commit = Duration::from_millis(2);
    pcfg.buffer_cap = 32;
    pcfg.faults = FaultPlan::parse(faults).unwrap();
    Persistence::open(&pcfg, CLIENTS, SHARDS).unwrap()
}

fn counter(telem: &LiveTelemetry, name: &str) -> u64 {
    telem.snapshot().counter_by_name(name).unwrap_or(0)
}

#[test]
fn io_error_faults_are_fully_absorbed_by_retry() {
    const K: u32 = 4;
    let dir = temp_dir("ioerr");
    let p = open_journal(&dir, &format!("io_error_n:{K}"));
    let telem = LiveTelemetry::new(2, 0, 16);
    let board = HealthBoard::new(OnJournalFail::Degrade);
    let strategy = RandomizedTokenAccount::new(2, 6).unwrap();
    let report = supervised_run(strategy, &loadgen_cfg(250, 17), &p, &telem, &board);
    let stats = p.shutdown().expect("retries must absorb every error");

    assert!(report.conserves(), "live run broke conservation");
    assert!(stats.records > 0, "nothing was journalled");
    // Every injected error was retried; none escalated, none dropped.
    assert_eq!(counter(&telem, "faults_injected"), u64::from(K));
    assert_eq!(counter(&telem, "journal_io_errors"), u64::from(K));
    assert_eq!(counter(&telem, "journal_io_retries"), u64::from(K));
    assert_eq!(counter(&telem, "journal_dropped_records"), 0);
    assert_eq!(counter(&telem, "journal_writer_restarts"), 0);
    assert_eq!(
        board.state(ta_live::Component::JournalWriter),
        HealthState::Healthy,
        "the writer must clear its Degraded mark after recovering"
    );
    assert!(!board.durability_suspended());

    // Recovery is exact: zero lost records.
    let state = recover(&dir).unwrap();
    assert!(state.truncations.is_empty());
    assert_eq!(state.balances_sum(), report.balances_sum);
    assert_eq!(state.granted_total(), report.counters.tokens_banked);
    assert_eq!(state.burned_total(), report.counters.reactive_sent);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enospc_degrade_keeps_admitting_and_restarts_the_writer() {
    let dir = temp_dir("enospc");
    // Trip the outage early so the probe ladder (5 failed probes on
    // capped backoff, then space returns) fits inside the run.
    let p = open_journal(&dir, "enospc_after:4000");
    let telem = LiveTelemetry::new(2, 0, 16);
    let board = HealthBoard::new(OnJournalFail::Degrade);
    let cfg = loadgen_cfg(2_600, 29);
    let report = supervised_run(SimpleTokenAccount::new(6), &cfg, &p, &telem, &board);
    let stats = p.shutdown().unwrap();

    // The runtime kept admitting straight through the outage.
    assert!(report.conserves(), "degraded run broke conservation");
    assert!(
        report.counters.requests > 10_000,
        "admissions must continue under degrade: {} requests",
        report.counters.requests
    );
    // Durability was actually suspended (batches dropped and counted),
    // then the writer restarted onto a fresh segment when space
    // returned.
    assert!(counter(&telem, "journal_dropped_records") > 0);
    assert!(
        counter(&telem, "journal_writer_restarts") >= 1,
        "the writer never restarted"
    );
    assert!(counter(&telem, "health_degradations") >= 1);
    assert!(
        stats.segments >= 2,
        "a restart opens a fresh segment, saw {}",
        stats.segments
    );
    assert_eq!(
        board.state(ta_live::Component::JournalWriter),
        HealthState::Healthy,
        "the board must report the writer recovered"
    );
    assert!(!board.durability_suspended());
    assert!(board.admission_open());

    // The recovered books reconcile exactly even though a mid-run slice
    // of records was dropped: recovery folds what survived, and every
    // surviving record is a balanced delta.
    let state = recover(&dir).unwrap();
    assert_eq!(
        state.granted_total() as i64 - state.burned_total() as i64,
        state.balances_sum(),
        "recovered books must balance per the conservation law"
    );
    // Dropped records mean recovery can only lag the live run — it must
    // never invent tokens the run didn't see.
    assert!(state.granted_total() <= report.counters.tokens_banked);
    assert!(state.burned_total() <= report.counters.reactive_sent);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn halt_policy_closes_admissions_and_finishes_cleanly() {
    let dir = temp_dir("halt");
    let p = open_journal(&dir, "enospc_after:4000");
    let telem = LiveTelemetry::new(2, 0, 16);
    let board = HealthBoard::new(OnJournalFail::Halt);
    let cfg = loadgen_cfg(1_200, 31);
    let report = supervised_run(SimpleTokenAccount::new(6), &cfg, &p, &telem, &board);
    let _ = p.shutdown();

    // Admissions closed at the failure point and never reopened; the
    // run still finished cleanly and conserves.
    assert!(report.conserves(), "halted run broke conservation");
    assert!(!board.admission_open(), "halt must close admissions");
    assert!(
        report.wall < cfg.duration,
        "workers must leave at the halt (4 kB in), not at the deadline"
    );
    assert!(!board.abort_requested(), "halt is not exit");
    assert_eq!(
        counter(&telem, "journal_writer_restarts"),
        0,
        "halt must not restart the writer"
    );
    // What made it to disk before the halt still recovers consistently.
    let state = recover(&dir).unwrap();
    assert_eq!(
        state.granted_total() as i64 - state.burned_total() as i64,
        state.balances_sum()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn long_rounds_keep_the_granter_beating() {
    // Rounds and snapshots a second apart, far past the supervisor's
    // 300 ms heartbeat deadline: a granter that waited out its round
    // without beating would be marked Degraded and then restarted.
    let dir = temp_dir("long-rounds");
    let mut pcfg = PersistConfig::new(&dir);
    pcfg.snapshot_every = Some(Duration::from_secs(1));
    let p = Persistence::open(&pcfg, CLIENTS, SHARDS).unwrap();
    let telem = LiveTelemetry::new(2, 0, 16);
    let board = HealthBoard::new(OnJournalFail::Degrade);
    let mut cfg = loadgen_cfg(1_500, 37);
    cfg.round_period = Some(Duration::from_secs(1));
    let done = std::sync::atomic::AtomicBool::new(false);
    let (report, degraded) = std::thread::scope(|s| {
        let watch = s.spawn(|| {
            let mut degraded = false;
            while !done.load(Ordering::Acquire) {
                degraded |= board.state(ta_live::Component::Granter) != HealthState::Healthy;
                std::thread::sleep(Duration::from_millis(5));
            }
            degraded
        });
        let strategy = RandomizedTokenAccount::new(2, 6).unwrap();
        let report = supervised_run(strategy, &cfg, &p, &telem, &board);
        done.store(true, Ordering::Release);
        (report, watch.join().unwrap())
    });
    p.shutdown().unwrap();

    assert!(
        report.conserves(),
        "books must close: {:?}",
        report.counters
    );
    assert_eq!(
        report.counters.rounds, CLIENTS as u64,
        "one round, swept once"
    );
    assert_eq!(report.snapshots, 1);
    assert_eq!(counter(&telem, "granter_restarts"), 0);
    assert!(!degraded, "the granter was marked degraded while healthy");
    let state = recover(&dir).unwrap();
    assert_eq!(state.balances_sum(), report.balances_sum);
    assert_eq!(state.granted_total(), report.counters.tokens_banked);
    std::fs::remove_dir_all(&dir).unwrap();
}
