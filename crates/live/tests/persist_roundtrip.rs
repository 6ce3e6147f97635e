//! Durability round-trips: journalled runs → recovery must be exact.
//!
//! The driver here runs real concurrent traffic (workers calling
//! `admit_journaled`, a granter calling `round_sweep_journaled`, a
//! snapshotter freezing shards mid-burst) and then checks the strongest
//! possible property: after a clean shutdown, `recover` reproduces
//! every single client balance bit-for-bit; after a simulated crash or
//! an injected fault, recovery either equals the fold of the surviving
//! prefix (checked via the conservation books) or fails loudly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ta_live::persist::{recover, FaultPlan, PersistConfig, Persistence, RecoveryError};
use ta_live::{LiveCounters, LiveRuntime};
use ta_sim::rng::Xoshiro256pp;
use token_account::prelude::*;
use token_account::Usefulness;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ta-persist-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

struct DriveOutcome {
    balances: Vec<i64>,
    counters: LiveCounters,
    runtime: LiveRuntime,
    persistence: Option<Persistence>,
}

/// Drives `workers` admit threads + one granter + one snapshotter over
/// a journalled runtime, returning the final per-client balances.
fn drive(
    dir: &Path,
    clients: usize,
    shards: usize,
    workers: usize,
    iters: usize,
    faults: FaultPlan,
    snapshots: usize,
) -> DriveOutcome {
    let mut cfg = PersistConfig::new(dir);
    cfg.group_commit = Duration::from_millis(2);
    cfg.buffer_cap = 32;
    cfg.faults = faults;
    let rt = LiveRuntime::new(RandomizedTokenAccount::new(2, 6).unwrap(), clients, shards);
    let p = Persistence::open(&cfg, clients, shards).unwrap();

    let counters = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let rt = &rt;
            let mut j = p.handle();
            handles.push(scope.spawn(move || {
                let mut rng = Xoshiro256pp::stream(99, 1 + w as u64);
                let mut c = LiveCounters::default();
                for i in 0..iters {
                    let client = rng.below(clients as u64) as usize;
                    let useful = Usefulness::from_bool(i % 4 != 0);
                    rt.admit_journaled(client, useful, &mut rng, &mut c, &mut j);
                }
                c
            }));
        }
        let granter = {
            let rt = &rt;
            let mut j = p.handle();
            scope.spawn(move || {
                let mut rng = Xoshiro256pp::stream(99, u64::MAX);
                let mut c = LiveCounters::default();
                for _ in 0..8 {
                    for s in 0..rt.accounts().shard_count() {
                        rt.round_sweep_journaled(s, &mut rng, &mut c, |_| {}, &mut j);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                c
            })
        };
        let snapper = {
            let rt = &rt;
            let p = &p;
            scope.spawn(move || {
                for _ in 0..snapshots {
                    std::thread::sleep(Duration::from_millis(3));
                    let _ = p.snapshot(rt.accounts());
                }
            })
        };
        let mut total = LiveCounters::default();
        for h in handles {
            total.merge(&h.join().unwrap());
        }
        total.merge(&granter.join().unwrap());
        snapper.join().unwrap();
        total
    });

    DriveOutcome {
        balances: (0..clients)
            .map(|c| rt.accounts().account(c).balance())
            .collect(),
        counters,
        runtime: rt,
        persistence: Some(p),
    }
}

/// Drives one more granter round and `admits` reactive requests over
/// `out`'s runtime after its run ended — traffic no snapshot of the run
/// covers — and returns the live balances.
fn drive_past_last_snapshot(out: &mut DriveOutcome, p: &Persistence, admits: usize) -> Vec<i64> {
    let rt = &out.runtime;
    let clients = rt.accounts().len();
    let mut j = p.handle();
    let mut rng = Xoshiro256pp::stream(3, 1);
    for s in 0..rt.accounts().shard_count() {
        rt.round_sweep_journaled(s, &mut rng, &mut out.counters, |_| {}, &mut j);
    }
    for i in 0..admits {
        let useful = Usefulness::from_bool(i % 3 != 0);
        rt.admit_journaled(i % clients, useful, &mut rng, &mut out.counters, &mut j);
    }
    drop(j);
    (0..clients)
        .map(|c| rt.accounts().account(c).balance())
        .collect()
}

#[test]
fn clean_shutdown_recovers_every_balance_exactly() {
    for (workers, shards) in [(1, 1), (1, 4), (4, 4), (4, 16)] {
        let dir = temp_dir("clean");
        let mut out = drive(&dir, 200, shards, workers, 4_000, FaultPlan::default(), 3);
        let stats = out.persistence.take().unwrap().shutdown().unwrap();
        assert!(stats.records > 0, "nothing was journalled");

        let state = recover(&dir).unwrap();
        assert_eq!(
            state.balances, out.balances,
            "workers={workers} shards={shards}: balances diverged"
        );
        assert!(
            state.truncations.is_empty(),
            "clean shutdown must not truncate"
        );
        // The books equal the live counters: every banked token was a
        // +1 grant record, every reactive send a negative delta.
        assert_eq!(state.granted_total(), out.counters.tokens_banked);
        assert_eq!(state.burned_total(), out.counters.reactive_sent);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A journaled sweep's cost does not depend on the bank/send mix. Over
/// a 5,000-account shard whose sweep banks every other account (the
/// scattered pattern of the paper's operating point, where run-length
/// ranges cost one record per banked account), it publishes one record
/// per 1024 accounts in one frame of 144-byte records, and hands them
/// to the writer before the sweep returns — not when `buffer_cap`
/// records have piled up.
#[test]
fn a_sweeps_journal_cost_does_not_depend_on_the_bank_send_mix() {
    use ta_live::persist::{journal, RecoveredState};

    let n = 5_000;
    let dir = temp_dir("mix");
    let p = Persistence::open(&PersistConfig::new(&dir), n, 1).unwrap();
    // Balances 1, 0, 1, 0, …: `SimpleTokenAccount(1)` sends from a
    // balance of 1 and banks at 0, so the sweep banks every odd client.
    let start = RecoveredState {
        clients: n,
        shards: 1,
        balances: (0..n).map(|c| ((c + 1) % 2) as i64).collect(),
        granted: vec![0],
        burned: vec![0],
        next_seq: vec![0],
        snapshot_id: None,
        replayed: 0,
        truncations: Vec::new(),
    };
    let rt = LiveRuntime::from_recovered(SimpleTokenAccount::new(1), &start);
    let mut j = p.handle();
    let mut c = LiveCounters::default();
    let mut rng = Xoshiro256pp::stream(1, 1);
    rt.round_sweep_journaled(0, &mut rng, &mut c, |_| {}, &mut j);
    assert_eq!((c.tokens_banked, c.proactive_sent), (2_500, 2_500));

    let chunks = n.div_ceil(1024) as u64;
    assert_eq!(
        j.records_published(),
        chunks,
        "one record per 1024 accounts"
    );
    // The handle is still alive, so nothing was flushed on drop: what
    // the sync finds on disk the sweep itself handed to the writer.
    p.sync().unwrap();
    let bytes: u64 = journal::list_segments(&dir)
        .unwrap()
        .iter()
        .map(|(_, path)| std::fs::metadata(path).unwrap().len())
        .sum();
    assert!(
        bytes > 0 && bytes <= chunks * 144 + 16,
        "{bytes} journal bytes for {chunks} grant records"
    );
    drop(j);
    p.shutdown().unwrap();

    // The journal alone folds to exactly the granted bits.
    let state = recover(&dir).unwrap();
    let granted: Vec<i64> = (0..n).map(|c| (c % 2) as i64).collect();
    assert_eq!(state.balances, granted);
    assert_eq!((state.granted_total(), state.replayed), (2_500, chunks));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_after_recovery_continues_the_books() {
    let dir = temp_dir("resume");
    let mut out = drive(&dir, 100, 4, 2, 2_000, FaultPlan::default(), 2);
    out.persistence.take().unwrap().shutdown().unwrap();

    let state = recover(&dir).unwrap();
    let cfg = PersistConfig::new(&dir);
    let p = Persistence::resume(&cfg, &state).unwrap();
    let rt = LiveRuntime::from_recovered(SimpleTokenAccount::new(5), &state);
    assert_eq!(rt.balances_sum(), state.balances_sum());

    // Drive a little more traffic on the resumed domain.
    let mut j = p.handle();
    let mut rng = Xoshiro256pp::stream(7, 1);
    let mut c = LiveCounters::default();
    for s in 0..rt.accounts().shard_count() {
        rt.round_sweep_journaled(s, &mut rng, &mut c, |_| {}, &mut j);
    }
    for i in 0..500 {
        rt.admit_journaled(i % 100, Usefulness::Useful, &mut rng, &mut c, &mut j);
    }
    drop(j);
    p.shutdown().unwrap();

    let state2 = recover(&dir).unwrap();
    let want: Vec<i64> = (0..100)
        .map(|cl| rt.accounts().account(cl).balance())
        .collect();
    assert_eq!(state2.balances, want, "second-generation balances diverged");
    assert!(state2.truncations.is_empty());
    // Sequence numbers must not have collided: the second generation's
    // books extend the first's.
    assert_eq!(
        state2.granted_total(),
        state.granted_total() + c.tokens_banked
    );
    assert_eq!(
        state2.burned_total(),
        state.burned_total() + c.reactive_sent
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn simulated_crash_recovers_surviving_prefix() {
    let dir = temp_dir("crash");
    let mut out = drive(&dir, 150, 4, 2, 3_000, FaultPlan::default(), 2);
    // Kill the writer: pending (unwritten) batches are discarded.
    out.persistence.take().unwrap().simulate_crash();

    let state = recover(&dir).unwrap();
    // The fold of the surviving prefix conserves by construction; what
    // recovery must guarantee is that it *verified* that and that the
    // books never exceed what the live run produced.
    assert_eq!(
        state.granted_total() as i64 - state.burned_total() as i64,
        state.balances_sum()
    );
    assert!(state.granted_total() <= out.counters.tokens_banked);
    assert!(state.burned_total() <= out.counters.reactive_sent);
    for (c, (&rec, &live)) in state.balances.iter().zip(&out.balances).enumerate() {
        // Per-client balances may lag the live state (lost tail) but a
        // recovered balance never *invents* tokens the run didn't see.
        assert!(
            rec <= live + state.burned_total() as i64,
            "client {c}: recovered {rec} vs live {live}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writer_killed_mid_frame_leaves_recoverable_torn_tail() {
    let dir = temp_dir("midframe");
    let faults = FaultPlan {
        kill_writer_mid_frame: true,
        ..FaultPlan::default()
    };
    let mut out = drive(&dir, 100, 4, 2, 4_000, faults, 0);
    // The writer died on its own; shutdown just reaps it.
    let _ = out.persistence.take().unwrap().shutdown();

    let state = recover(&dir).unwrap();
    assert!(
        state
            .truncations
            .iter()
            .any(|t| t.to_string().contains("torn tail")),
        "expected a torn-tail truncation, got {:?}",
        state.truncations
    );
    assert_eq!(
        state.granted_total() as i64 - state.burned_total() as i64,
        state.balances_sum()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_snapshot_crash_falls_back() {
    let dir = temp_dir("midsnap");
    let faults = FaultPlan {
        crash_mid_snapshot: true,
        ..FaultPlan::default()
    };
    let mut out = drive(&dir, 100, 4, 2, 2_000, faults, 3);
    out.persistence.take().unwrap().shutdown().unwrap();

    let state = recover(&dir).unwrap();
    // The partial tmp is reported, never loaded.
    assert!(
        state
            .truncations
            .iter()
            .any(|t| t.to_string().contains("tmp")),
        "expected an abandoned-tmp report, got {:?}",
        state.truncations
    );
    assert_eq!(state.snapshot_id, None, "no snapshot ever completed");
    assert_eq!(
        state.balances, out.balances,
        "journal-only recovery must be exact"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poisoned_books_fail_loudly() {
    let dir = temp_dir("poison");
    let faults = FaultPlan {
        poison_books: true,
        ..FaultPlan::default()
    };
    let mut out = drive(&dir, 100, 4, 2, 2_000, faults, 2);
    out.persistence.take().unwrap().shutdown().unwrap();

    match recover(&dir) {
        Err(RecoveryError::Conservation { detail }) => {
            assert!(
                detail.contains("shard"),
                "diagnosis names the shard: {detail}"
            );
        }
        other => panic!("poisoned books must trip the conservation gate, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn post_mortem_mutilations_recover_or_fall_back() {
    // torn_tail and corrupt_crc on the newest segment recovery reads:
    // the prefix survives and conserves. corrupt_snapshot: recovery
    // falls back to an older snapshot (or zero) and still conserves.
    // Traffic after the run's last snapshot guarantees a non-empty
    // segment at or above its bound for the tail modes to damage.
    for mode in ["torn_tail", "corrupt_crc", "corrupt_snapshot"] {
        let dir = temp_dir(mode);
        let mut out = drive(&dir, 120, 4, 2, 3_000, FaultPlan::default(), 2);
        let p = out.persistence.take().unwrap();
        drive_past_last_snapshot(&mut out, &p, 500);
        p.shutdown().unwrap();

        let plan = FaultPlan::parse(mode).unwrap();
        let wounds = plan.apply_post_mortem(&dir).unwrap();
        assert!(!wounds.is_empty(), "{mode}: nothing was mutilated");

        let state = recover(&dir).unwrap_or_else(|e| panic!("{mode}: recovery refused: {e}"));
        assert_eq!(
            state.granted_total() as i64 - state.burned_total() as i64,
            state.balances_sum(),
            "{mode}: recovered books must balance"
        );
        assert!(
            !state.truncations.is_empty(),
            "{mode}: the wound must be reported"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn retention_keeps_two_snapshots_and_retires_segments() {
    let dir = temp_dir("retain");
    let mut out = drive(&dir, 100, 4, 2, 3_000, FaultPlan::default(), 5);
    out.persistence.take().unwrap().shutdown().unwrap();

    let snaps = ta_live::persist::snapshot::list_snapshot_files(&dir).unwrap();
    assert!(
        snaps.len() <= 2,
        "retention must keep at most two snapshots, found {}",
        snaps.len()
    );
    if snaps.len() == 2 {
        // Segments below the older snapshot's first_segment are gone.
        let older = ta_live::persist::snapshot::load(&snaps[0].1).unwrap();
        let segs = ta_live::persist::journal::list_segments(&dir).unwrap();
        assert!(
            segs.iter().all(|&(id, _)| id >= older.first_segment),
            "covered segments must be retired"
        );
    }
    let state = recover(&dir).unwrap();
    assert_eq!(state.balances, out.balances, "retention broke recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Drives a run with enough snapshots that two are retained, then ruins
/// the oldest retained segment — the one only the *older* snapshot
/// still needs. Returns the live balances, the two snapshot files
/// (older first) and the ruined segment.
fn drive_then_ruin_oldest_segment(dir: &Path) -> (Vec<i64>, [PathBuf; 2], PathBuf) {
    use ta_live::persist::{journal, snapshot};

    let mut out = drive(dir, 100, 4, 2, 3_000, FaultPlan::default(), 5);
    out.persistence.take().unwrap().shutdown().unwrap();

    let snaps = snapshot::list_snapshot_files(dir).unwrap();
    assert_eq!(snaps.len(), 2, "two snapshots are retained");
    let older = snapshot::load(&snaps[0].1).unwrap();
    let newer = snapshot::load(&snaps[1].1).unwrap();
    let (oldest, path) = journal::list_segments(dir).unwrap().swap_remove(0);
    assert_eq!(oldest, older.first_segment);
    assert!(oldest < newer.first_segment);
    // Whatever it held (possibly nothing), it now starts with garbage.
    std::fs::write(&path, b"not a journal frame").unwrap();
    (out.balances, [snaps[0].1.clone(), snaps[1].1.clone()], path)
}

#[test]
fn damage_below_the_base_snapshot_is_never_read() {
    let dir = temp_dir("skip-old");
    let (balances, _, _) = drive_then_ruin_oldest_segment(&dir);

    // The newest snapshot's `first_segment` lies above the ruined
    // segment: nothing recovery needs is in it, so it is not opened.
    let state = recover(&dir).unwrap();
    assert_eq!(state.balances, balances, "recovery must stay exact");
    assert!(
        state.truncations.is_empty(),
        "nothing usable was discarded: {:?}",
        state.truncations
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn falling_back_a_snapshot_lowers_the_segment_bound_with_it() {
    use ta_live::persist::{snapshot, TruncationReason};

    let dir = temp_dir("skip-fallback");
    let (_, [older, newer], ruined) = drive_then_ruin_oldest_segment(&dir);
    let wounds = FaultPlan::parse("corrupt_snapshot")
        .unwrap()
        .apply_post_mortem(&dir)
        .unwrap();
    assert_eq!(wounds.len(), 1);

    // Now the older snapshot is the base, and replay starts at *its*
    // first segment — the ruined one — so the damage is found and
    // reported exactly as before (the binary's exit 4).
    let state = recover(&dir).unwrap();
    assert_eq!(
        state.snapshot_id,
        Some(snapshot::load(&older).unwrap().id),
        "fell back to the older snapshot"
    );
    let reason_for = |file: &Path| {
        state
            .truncations
            .iter()
            .find(|t| t.file == file)
            .map(|t| &t.reason)
    };
    assert!(matches!(
        reason_for(&newer),
        Some(TruncationReason::BadSnapshot { .. })
    ));
    assert_eq!(
        reason_for(&ruined),
        Some(&TruncationReason::CorruptFrame { kept: 0 })
    );
    assert!(
        state
            .truncations
            .iter()
            .any(|t| t.reason == TruncationReason::UnreachableSegment),
        "segments past the damage are unreachable: {:?}",
        state.truncations
    );
    assert_eq!(state.replayed, 0);
    assert_eq!(
        state.granted_total() as i64 - state.burned_total() as i64,
        state.balances_sum()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_bound_is_tight_once_producers_stop() {
    use ta_live::persist::journal::{self, FramePayload};
    use ta_live::persist::snapshot;

    let dir = temp_dir("tight");
    let mut out = drive(&dir, 200, 4, 2, 3_000, FaultPlan::default(), 2);
    let p = out.persistence.take().unwrap();
    // More traffic after the run's last snapshot, so the segment the
    // writer is on holds records when the next snapshot starts.
    let balances = drive_past_last_snapshot(&mut out, &p, 1_000);

    // Every producer has flushed and left: the snapshot covers every
    // record there is, so nothing at or above its bound may predate it.
    let info = p.snapshot(out.runtime.accounts()).unwrap();
    p.shutdown().unwrap();
    let snap = snapshot::load(&snapshot::snapshot_path(&dir, info.id)).unwrap();

    let segments = journal::list_segments(&dir).unwrap();
    assert!(segments.iter().any(|&(id, _)| id < snap.first_segment));
    for (id, path) in segments.iter().filter(|&&(id, _)| id >= snap.first_segment) {
        let scan = journal::scan_segment(&std::fs::read(path).unwrap());
        assert_eq!(scan.error, None, "segment {id}");
        for frame in &scan.frames {
            let watermark = snap.shards[frame.shard as usize].watermark;
            let seqs: Vec<u64> = match &frame.payload {
                FramePayload::Deltas(recs) => recs.iter().map(|r| r.seq).collect(),
                FramePayload::Grants(recs) => recs.iter().map(|r| r.seq).collect(),
            };
            assert!(
                seqs.iter().all(|&seq| seq >= watermark),
                "segment {id} (bound {}) holds shard {} records below its watermark \
                 {watermark}: the snapshot already contains them",
                snap.first_segment,
                frame.shard
            );
        }
    }

    // So the segments below the bound are dead weight: without them
    // recovery is still exact, and has nothing to replay.
    for (id, path) in &segments {
        if *id < snap.first_segment {
            std::fs::remove_file(path).unwrap();
        }
    }
    let state = recover(&dir).unwrap();
    assert_eq!(state.snapshot_id, Some(info.id));
    assert_eq!(state.balances, balances);
    assert!(state.truncations.is_empty(), "{:?}", state.truncations);
    assert_eq!(state.replayed, 0);
    assert_eq!(state.granted_total(), out.counters.tokens_banked);
    assert_eq!(state.burned_total(), out.counters.reactive_sent);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn degraded_writer_still_gets_its_snapshot_written() {
    use ta_live::{HealthBoard, OnJournalFail};

    let dir = temp_dir("degraded-snap");
    let mut cfg = PersistConfig::new(&dir);
    cfg.group_commit = Duration::from_millis(2);
    cfg.buffer_cap = 32;
    // The disk fills after 1000 bytes and stays full for six attempts:
    // the writer drains (drops batches) for over a second of probes.
    cfg.faults = FaultPlan::parse("enospc_after:1000").unwrap();
    let p = Persistence::open(&cfg, 200, 4).unwrap();
    p.attach_health(HealthBoard::new(OnJournalFail::Degrade));
    let rt = LiveRuntime::new(RandomizedTokenAccount::new(2, 6).unwrap(), 200, 4);

    let mut j = p.handle();
    let mut rng = Xoshiro256pp::stream(5, 1);
    let mut c = LiveCounters::default();
    for round in 0..4 {
        for s in 0..rt.accounts().shard_count() {
            rt.round_sweep_journaled(s, &mut rng, &mut c, |_| {}, &mut j);
        }
        for i in 0..500 {
            let useful = Usefulness::from_bool((i + round) % 3 != 0);
            rt.admit_journaled(i % 200, useful, &mut rng, &mut c, &mut j);
        }
    }
    drop(j);
    assert!(p.sync().is_err(), "the writer must be draining by now");

    // The draining writer refuses the rotation; the snapshot is still
    // written (bounded by the segment the writer is on) and the refusal
    // is reported.
    assert!(p.snapshot(rt.accounts()).is_err());
    let snaps = ta_live::persist::snapshot::list_snapshot_files(&dir).unwrap();
    assert_eq!(snaps.len(), 1, "the snapshot file must be written");
    let balances: Vec<i64> = (0..200)
        .map(|cl| rt.accounts().account(cl).balance())
        .collect();
    let _ = p.shutdown();

    // The journal lost the drained batches, but the snapshot holds the
    // exact live state and nothing was stamped after it.
    let state = recover(&dir).unwrap();
    assert_eq!(state.snapshot_id, Some(snaps[0].0));
    assert_eq!(state.balances, balances);
    assert_eq!(state.granted_total(), c.tokens_banked);
    assert_eq!(state.burned_total(), c.reactive_sent);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn loadgen_cfg() -> ta_live::LoadGenConfig {
    ta_live::LoadGenConfig {
        workers: 2,
        duration: Duration::from_millis(150),
        mode: ta_live::ArrivalMode::Closed,
        useful_probability: 0.8,
        burst: None,
        round_period: Some(Duration::from_millis(20)),
        seed: 11,
    }
}

/// `run_loadgen` over `runtime` with `p`'s journal attached.
fn journaled_run(
    runtime: &LiveRuntime,
    cfg: &ta_live::LoadGenConfig,
    p: &Persistence,
) -> ta_live::LoadGenReport {
    let with = ta_live::Attach {
        persistence: Some(p),
        ..ta_live::Attach::default()
    };
    ta_live::run_loadgen(runtime, cfg, with)
}

#[test]
fn durable_loadgen_runs_and_recovers() {
    let dir = temp_dir("loadgen");
    let cfg = loadgen_cfg();
    let mut pcfg = PersistConfig::new(&dir);
    pcfg.group_commit = Duration::from_millis(5);
    pcfg.snapshot_every = Some(Duration::from_millis(30));
    let p = Persistence::open(&pcfg, 2_000, 8).unwrap();
    let runtime = LiveRuntime::new(RandomizedTokenAccount::new(2, 6).unwrap(), 2_000, 8);
    let report = journaled_run(&runtime, &cfg, &p);
    let stats = p.shutdown().unwrap();
    assert!(
        report.conserves(),
        "durable run broke conservation: {:?}",
        report.counters
    );
    assert!(report.counters.requests > 0);
    assert!(stats.records > 0);
    // A snapshot waits out every producer's epoch. The saturated closed
    // loop steps out of its epoch once per chunk; if it did not, exactly
    // one snapshot would get through, when the workers leave at the end.
    assert!(
        report.snapshots >= 2,
        "snapshots waited for the end of the run: {} done, {} failed",
        report.snapshots,
        report.snapshot_failures
    );

    let state = recover(&dir).unwrap();
    assert!(state.truncations.is_empty());
    assert_eq!(state.balances_sum(), report.balances_sum);
    assert_eq!(state.granted_total(), report.counters.tokens_banked);
    assert_eq!(state.burned_total(), report.counters.reactive_sent);

    // Resume the same domain and keep going: conservation must hold
    // across the generation boundary.
    pcfg.snapshot_every = None;
    let p2 = Persistence::resume(&pcfg, &state).unwrap();
    let runtime2 = LiveRuntime::from_recovered(RandomizedTokenAccount::new(2, 6).unwrap(), &state);
    let report2 = journaled_run(&runtime2, &cfg, &p2);
    p2.shutdown().unwrap();
    assert_eq!(report2.initial_balances_sum, state.balances_sum());
    assert_eq!((report2.snapshots, report2.snapshot_failures), (0, 0));
    assert!(report2.conserves(), "resumed run broke conservation");
    let state2 = recover(&dir).unwrap();
    assert_eq!(state2.balances_sum(), report2.balances_sum);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn more_shards_than_clients_runs_and_recovers() {
    // The runtime clamps 64 shards to one per client; the manifest must
    // record the same layout, or the run refuses the journal.
    let dir = temp_dir("clamp");
    let mut pcfg = PersistConfig::new(&dir);
    pcfg.group_commit = Duration::from_millis(5);
    pcfg.snapshot_every = Some(Duration::from_millis(30));
    let p = Persistence::open(&pcfg, 10, 64).unwrap();
    assert_eq!(p.manifest().shards, 10);
    let runtime = LiveRuntime::new(RandomizedTokenAccount::new(2, 6).unwrap(), 10, 64);
    let report = journaled_run(&runtime, &loadgen_cfg(), &p);
    p.shutdown().unwrap();
    assert!(report.conserves(), "{:?}", report.counters);
    assert!(report.counters.requests > 0);

    let state = recover(&dir).unwrap();
    assert!(state.truncations.is_empty());
    assert_eq!((state.clients, state.shards), (10, 10));
    let balances: Vec<i64> = (0..10)
        .map(|c| runtime.accounts().account(c).balance())
        .collect();
    assert_eq!(state.balances, balances);
    assert_eq!(state.balances_sum(), report.balances_sum);
    assert_eq!(state.granted_total(), report.counters.tokens_banked);
    assert_eq!(state.burned_total(), report.counters.reactive_sent);
    std::fs::remove_dir_all(&dir).unwrap();
}
