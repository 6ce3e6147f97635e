//! The `bench_live` harness: machine-readable live-runtime perf tracking.
//!
//! Measures, in one process and one run:
//!
//! * **loadgen** — closed-loop admission decisions/sec of the full live
//!   stack (sharded atomic accounts + granter thread + latency
//!   histogram) at 1, 2, and 4 workers, total and per worker. The
//!   committed baseline documents the ≥ 1M decisions/sec/worker
//!   acceptance bar on the sharded-atomic path;
//! * **contended** — the adversarial case: 4 workers hammering 64
//!   shared accounts, with the account map in a single shard vs. 64
//!   cache-line-aware shards;
//! * **granter_sweep** — accounts/sec of the per-shard batched Δ grant
//!   over one million accounts;
//! * **histogram_record** — samples/sec of the allocation-free
//!   log-linear latency histogram's record path;
//! * **replay** — events/sec of the virtual-clock live-vs-sim replay
//!   (the cross-validation harness itself);
//! * **persist** — durability overhead and recovery speed: the same
//!   closed-loop run with the grant/spend journal off vs. on (the
//!   `persist_journal_on_vs_off` speedup documents the ≤ 10% admit
//!   overhead bar), and `recover()` records/sec at two journal lengths
//!   (recovery time scales with the tail, not the history: `recover`
//!   opens only segments at or above the base snapshot's
//!   `first_segment`, and retention retires the ones below the older
//!   retained snapshot's);
//! * **telemetry** — introspection overhead: the same closed loop with
//!   no registry, with counters only (`--trace-sample 0`), with 1-in-64
//!   decision tracing, and with the full observability plane scraped
//!   over TCP (an active `WATCH 200` + `TRACE 64` subscriber for the
//!   whole run); `counters_only_vs_off` documents the ≥ 0.95×
//!   acceptance bar for the always-on counter path, and
//!   `obs_scraped_vs_traced_s64` the same ≥ 0.95× bar for serving a
//!   live scraper.
//!
//! Results are written as `BENCH_live.json` (override with `--out PATH`);
//! `--test` runs each workload briefly (CI smoke), `--diff BASELINE`
//! prints the shared non-failing comparison. The `meta` section records
//! the measuring host's core count — multi-worker rows on a 1-core
//! container measure time-slicing, not scaling, exactly like
//! `BENCH_sim.json`'s threaded shard rows.

use std::fmt::Write as _;
use std::time::Duration;

use std::hint::black_box;
use ta_live::harness::{replay_trace, run_sim_oracle, OracleWorkload};
use ta_live::histogram::LatencyHistogram;
use ta_live::loadgen::{run_loadgen, ArrivalMode, Attach, BurstMix, LoadGenConfig, LoadGenReport};
use ta_live::obs::{ObsServer, StatsPump, TraceBus};
use ta_live::persist::{recover, PersistConfig, Persistence};
use ta_live::runtime::LiveRuntime;
use ta_live::{LiveCounters, LiveTelemetry};
use ta_sim::rng::Xoshiro256pp;
use token_account::prelude::*;

use crate::report::{find, host_cores, json_section, measure_events_per_sec, Sample};

/// Workload scale of one run (reported in the `scale` section; ids stay
/// mode-independent so the CI smoke diff lines up against the committed
/// full-mode baseline).
fn scales(smoke: bool) -> (usize, Duration, usize) {
    if smoke {
        // (clients, loadgen duration, granter-sweep accounts)
        (10_000, Duration::from_millis(200), 100_000)
    } else {
        (100_000, Duration::from_secs(2), 1_000_000)
    }
}

fn loadgen_cfg(smoke: bool, workers: usize) -> LoadGenConfig {
    let (_, duration, _) = scales(smoke);
    LoadGenConfig {
        workers,
        duration,
        mode: ArrivalMode::Closed,
        useful_probability: 0.8,
        burst: Some(BurstMix {
            probability: 0.05,
            size: 8,
        }),
        round_period: Some(Duration::from_millis(100)),
        seed: 17,
    }
}

/// [`run_loadgen`] over `clients` accounts in 64 shards, with `telem`
/// attached.
fn closed_run(
    strategy: impl Strategy + 'static,
    cfg: &LoadGenConfig,
    clients: usize,
    telem: Option<&LiveTelemetry>,
) -> LoadGenReport {
    let with = Attach {
        telem,
        ..Attach::default()
    };
    run_loadgen(&LiveRuntime::new(strategy, clients, 64), cfg, with)
}

fn bench_loadgen(smoke: bool) -> Vec<Sample> {
    let (clients, _, _) = scales(smoke);
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let mut samples = Vec::new();
    for workers in [1usize, 2, 4] {
        let runtime = LiveRuntime::new(strategy, clients, 64);
        let report = run_loadgen(&runtime, &loadgen_cfg(smoke, workers), Attach::default());
        assert!(report.conserves(), "loadgen books must close");
        samples.push(Sample {
            id: format!("loadgen/closed_w{workers}"),
            value: report.decisions_per_sec(),
        });
        samples.push(Sample {
            id: format!("loadgen/closed_w{workers}_per_worker"),
            value: report.decisions_per_sec_per_worker(),
        });
    }
    // Contended: every worker hits the same tiny account set; the only
    // difference between the two rows is the account-map sharding.
    for (id, shards) in [
        ("contended/single_shard_w4", 1),
        ("contended/sharded_w4", 64),
    ] {
        let runtime = LiveRuntime::new(strategy, 64, shards);
        let report = run_loadgen(&runtime, &loadgen_cfg(smoke, 4), Attach::default());
        assert!(report.conserves(), "contended books must close");
        samples.push(Sample {
            id: id.into(),
            value: report.decisions_per_sec(),
        });
    }
    samples
}

fn bench_granter(smoke: bool) -> Sample {
    let (_, _, accounts) = scales(smoke);
    let runtime = LiveRuntime::new(
        RandomizedTokenAccount::new(5, 10).expect("valid strategy"),
        accounts,
        64,
    );
    let mut rng = Xoshiro256pp::stream(23, 0);
    let mut counters = LiveCounters::default();
    let value = measure_events_per_sec(
        || {
            let mut swept = 0u64;
            for s in 0..runtime.accounts().shard_count() {
                swept += runtime.round_sweep(s, &mut rng, &mut counters, |_| {});
            }
            swept
        },
        smoke,
    );
    black_box(counters.rounds);
    Sample {
        id: "granter_sweep".into(),
        value,
    }
}

fn bench_histogram(smoke: bool) -> Sample {
    let mut h = LatencyHistogram::new();
    let iters: u64 = if smoke { 100_000 } else { 2_000_000 };
    let value = measure_events_per_sec(
        || {
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..iters {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.record(x & 0xf_ffff);
            }
            iters
        },
        smoke,
    );
    black_box(h.count());
    Sample {
        id: "histogram_record".into(),
        value,
    }
}

fn bench_replay(smoke: bool) -> Sample {
    let clients = if smoke { 100 } else { 400 };
    let workload = OracleWorkload {
        clients,
        injection_period: ta_sim::SimDuration::from_millis(100),
        ..OracleWorkload::quick(clients, 29)
    };
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let (sim, trace) = run_sim_oracle(strategy, &workload);
    let events = trace.events.len() as u64;
    let value = measure_events_per_sec(
        || {
            let live = replay_trace(strategy, &trace, 2, 16);
            assert_eq!(live, sim, "replay must stay exact while being timed");
            events
        },
        smoke,
    );
    Sample {
        id: "replay/virtual_clock".into(),
        value,
    }
}

fn bench_persist(smoke: bool) -> Vec<Sample> {
    let (clients, _, _) = scales(smoke);
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let cfg = loadgen_cfg(smoke, 2);
    let scratch = std::env::temp_dir().join(format!("ta-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut samples = Vec::new();

    // The same closed loop, journal off vs. on: the admit path adds one
    // epoch-cell toggle + a buffered record per decision; everything
    // else (framing, CRC, fsync) rides the async writer thread.
    let off = closed_run(strategy, &cfg, clients, None);
    assert!(off.conserves(), "journal-off books must close");
    samples.push(Sample {
        id: "closed_w2_journal_off".into(),
        value: off.decisions_per_sec(),
    });

    let dir = scratch.join("overhead");
    let p = Persistence::open(&PersistConfig::new(&dir), clients, 64).expect("open journal");
    let with = Attach {
        persistence: Some(&p),
        ..Attach::default()
    };
    let on = run_loadgen(&LiveRuntime::new(strategy, clients, 64), &cfg, with);
    assert!(on.conserves(), "journal-on books must close");
    p.shutdown().expect("clean journal shutdown");
    samples.push(Sample {
        id: "closed_w2_journal_on".into(),
        value: on.decisions_per_sec(),
    });

    // Recovery speed at two journal lengths: records replayed per
    // second of `recover()` wall clock (manifest + scan + fold + the
    // conservation check). Doubling the tail should roughly double the
    // time — visible as the two rows staying in the same decade.
    let (short, long) = if smoke {
        (20_000u64, 80_000u64)
    } else {
        (100_000u64, 400_000u64)
    };
    for (id, records) in [
        ("recovery_replay_short", short),
        ("recovery_replay_long", long),
    ] {
        let dir = scratch.join(id.rsplit('/').next().unwrap());
        let (rclients, rshards) = (10_000usize, 16usize);
        let p = Persistence::open(&PersistConfig::new(&dir), rclients, rshards)
            .expect("open recovery journal");
        let block = rclients.div_ceil(rshards);
        let mut h = p.handle();
        for i in 0..records {
            let shard = (i % rshards as u64) as usize;
            let client = shard * block + (i as usize / rshards) % block;
            h.enter(shard);
            h.record(shard, client as u32, 1);
            h.exit();
        }
        drop(h);
        let stats = p.shutdown().expect("clean journal shutdown");
        assert_eq!(stats.records, records, "every record must reach disk");
        let value = measure_events_per_sec(
            || {
                let state = recover(&dir).expect("recovery must succeed");
                assert_eq!(state.replayed, records);
                records
            },
            smoke,
        );
        samples.push(Sample {
            id: id.into(),
            value,
        });
    }
    let _ = std::fs::remove_dir_all(&scratch);
    samples
}

fn bench_telemetry(smoke: bool) -> Vec<Sample> {
    let (clients, _, _) = scales(smoke);
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let cfg = loadgen_cfg(smoke, 2);
    let mut samples = Vec::new();

    // The closed-loop reference with no registry at all.
    let off = closed_run(strategy, &cfg, clients, None);
    assert!(off.conserves(), "telemetry-off books must close");
    samples.push(Sample {
        id: "closed_w2_telemetry_off".into(),
        value: off.decisions_per_sec(),
    });

    // Counters only (`--trace-sample 0`): per decision the hot path pays
    // one relaxed load + two branches; deltas are published every 256
    // decisions. The acceptance bar is ≥ 0.95× of the row above.
    let telem = LiveTelemetry::new(cfg.workers, 0, LiveTelemetry::DEFAULT_RING_CAPACITY);
    let counters_only = closed_run(strategy, &cfg, clients, Some(&telem));
    assert!(counters_only.conserves(), "counters-only books must close");
    let snap = telem.snapshot();
    assert_eq!(
        snap.counter_by_name("admit_requests"),
        Some(counters_only.counters.requests),
        "registry totals must equal the run's own books"
    );
    samples.push(Sample {
        id: "closed_w2_counters_only".into(),
        value: counters_only.decisions_per_sec(),
    });

    // Tracing at the CI smoke sample rate (1-in-64) on top.
    let telem = LiveTelemetry::new(cfg.workers, 64, LiveTelemetry::DEFAULT_RING_CAPACITY);
    let traced = closed_run(strategy, &cfg, clients, Some(&telem));
    assert!(traced.conserves(), "traced books must close");
    samples.push(Sample {
        id: "closed_w2_traced_s64".into(),
        value: traced.decisions_per_sec(),
    });

    // The full observability plane under an active scraper: stats pump,
    // trace bus, and the TCP server, with one connection holding
    // `WATCH 200` and another holding `TRACE 64` for the whole run.
    // Same 1-in-64 gate as the row above, so the delta is purely the
    // obs plane + scraper.
    let telem = LiveTelemetry::new(cfg.workers, 64, LiveTelemetry::DEFAULT_RING_CAPACITY);
    let pump = StatsPump::start(
        std::sync::Arc::clone(&telem),
        std::time::Instant::now(),
        None,
    );
    let bus = TraceBus::start(&telem, None);
    let server = ObsServer::spawn(
        "127.0.0.1:0",
        &telem,
        std::sync::Arc::clone(&pump),
        std::sync::Arc::clone(&bus),
    )
    .expect("bind obs server on loopback");
    let addr = server.addr();
    let watch = std::thread::spawn(move || drain_obs_stream(addr, "WATCH 200\n"));
    let trace = std::thread::spawn(move || drain_obs_stream(addr, "TRACE 64\n"));
    let scraped = closed_run(strategy, &cfg, clients, Some(&telem));
    assert!(scraped.conserves(), "scraped books must close");
    pump.finalize();
    bus.finish(&telem.snapshot()).expect("trace bus finish");
    server.shutdown();
    let watch_lines = watch.join().expect("watch subscriber");
    let trace_lines = trace.join().expect("trace subscriber");
    assert!(
        watch_lines > 0 && trace_lines > 0,
        "subscribers must have received data ({watch_lines} watch, {trace_lines} trace)"
    );
    samples.push(Sample {
        id: "closed_w2_obs_scraped".into(),
        value: scraped.decisions_per_sec(),
    });

    // The on/off closed-loop ratio the acceptance bar reads directly.
    samples.push(Sample {
        id: "counters_only_vs_off".into(),
        value: counters_only.decisions_per_sec() / off.decisions_per_sec(),
    });
    // Acceptance bar ≥ 0.95 on multi-core hosts: serving a live
    // WATCH + TRACE scraper may cost at most 5% of the equivalently-
    // traced closed loop — the drop-and-count queues exist precisely so
    // a subscriber never back-pressures admission. On a 1-core
    // container (see `meta`/`host_cores`) the pump, bus, server, and
    // subscriber threads time-slice against the workers, so the ratio
    // there measures scheduling, not the obs plane's cost.
    samples.push(Sample {
        id: "obs_scraped_vs_traced_s64".into(),
        value: scraped.decisions_per_sec() / traced.decisions_per_sec(),
    });
    samples
}

/// Connects to the obs server, issues one streaming verb, and reads
/// lines until the server closes the stream; returns the line count.
fn drain_obs_stream(addr: std::net::SocketAddr, verb: &str) -> u64 {
    use std::io::{BufRead, BufReader, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect obs server");
    conn.write_all(verb.as_bytes()).expect("send verb");
    let mut lines = 0u64;
    for line in BufReader::new(conn).lines() {
        if line.is_err() {
            break;
        }
        lines += 1;
    }
    lines
}

/// Runs every section and writes the JSON report; returns the report text.
pub fn run(smoke: bool, out_path: &str) -> String {
    let (clients, duration, granter_accounts) = scales(smoke);
    eprintln!(
        "bench_live: loadgen ({})...",
        if smoke { "smoke" } else { "full" }
    );
    let mut live_samples = bench_loadgen(smoke);
    eprintln!("bench_live: granter sweep...");
    live_samples.push(bench_granter(smoke));
    eprintln!("bench_live: histogram...");
    live_samples.push(bench_histogram(smoke));
    eprintln!("bench_live: live-vs-sim replay...");
    live_samples.push(bench_replay(smoke));
    eprintln!("bench_live: persist (journal overhead + recovery)...");
    let persist_samples = bench_persist(smoke);
    eprintln!("bench_live: telemetry (counters / tracing overhead)...");
    let telemetry_samples = bench_telemetry(smoke);

    let speedups = vec![
        Sample {
            id: "loadgen_w2_vs_w1".into(),
            value: find(&live_samples, "loadgen/closed_w2")
                / find(&live_samples, "loadgen/closed_w1"),
        },
        Sample {
            id: "loadgen_w4_vs_w1".into(),
            value: find(&live_samples, "loadgen/closed_w4")
                / find(&live_samples, "loadgen/closed_w1"),
        },
        Sample {
            id: "contended_sharded_vs_single_shard".into(),
            value: find(&live_samples, "contended/sharded_w4")
                / find(&live_samples, "contended/single_shard_w4"),
        },
        // ≥ 0.9 is the acceptance bar: journaling every grant/spend may
        // cost at most 10% of closed-loop admission throughput.
        Sample {
            id: "persist_journal_on_vs_off".into(),
            value: find(&persist_samples, "closed_w2_journal_on")
                / find(&persist_samples, "closed_w2_journal_off"),
        },
    ];
    let scale_samples = vec![
        Sample {
            id: "clients".into(),
            value: clients as f64,
        },
        Sample {
            id: "loadgen_duration_secs".into(),
            value: duration.as_secs_f64(),
        },
        Sample {
            id: "granter_accounts".into(),
            value: granter_accounts as f64,
        },
        Sample {
            id: "host_cores".into(),
            value: host_cores() as f64,
        },
    ];

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ta-bench-live/v1\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        out,
        "  \"units\": {{ \"live\": \"decisions/sec (granter_sweep: accounts/sec, replay: events/sec)\", \"persist\": \"decisions/sec (recovery_replay_*: records/sec)\", \"telemetry\": \"decisions/sec (counters_only_vs_off, obs_scraped_vs_traced_s64: ratio)\", \"speedup\": \"ratio\" }},"
    );
    json_section(&mut out, "scale", &scale_samples, false);
    json_section(&mut out, "live", &live_samples, false);
    json_section(&mut out, "persist", &persist_samples, false);
    json_section(&mut out, "telemetry", &telemetry_samples, false);
    json_section(&mut out, "speedup", &speedups, true);
    out.push('}');
    out.push('\n');

    match std::fs::write(out_path, &out) {
        Ok(()) => eprintln!("bench_live: wrote {out_path}"),
        Err(e) => {
            eprintln!("bench_live: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    out
}

/// CLI entry: `bench_live [--test] [--out PATH] [--diff BASELINE]`.
pub fn run_from_args() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--test" || a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_live.json".to_string());
    let diff_base = args
        .iter()
        .position(|a| a == "--diff")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let report = run(smoke, &out_path);
    println!("{report}");
    if let Some(base) = diff_base {
        if !crate::report::diff_report(&report, &base, &["scale/", "speedup/"]) {
            eprintln!("bench_live: report schema drifted from {base}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed_and_complete() {
        let dir = std::env::temp_dir().join(format!("ta-bench-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_live.json");
        let report = run(true, path.to_str().unwrap());
        assert!(report.starts_with('{') && report.trim_end().ends_with('}'));
        for key in [
            "\"scale\"",
            "\"live\"",
            "\"speedup\"",
            "host_cores",
            "loadgen/closed_w1",
            "loadgen/closed_w1_per_worker",
            "loadgen/closed_w2",
            "loadgen/closed_w4",
            "contended/single_shard_w4",
            "contended/sharded_w4",
            "granter_sweep",
            "histogram_record",
            "replay/virtual_clock",
            "\"persist\"",
            "closed_w2_journal_off",
            "closed_w2_journal_on",
            "recovery_replay_short",
            "recovery_replay_long",
            "\"telemetry\"",
            "closed_w2_telemetry_off",
            "closed_w2_counters_only",
            "closed_w2_traced_s64",
            "closed_w2_obs_scraped",
            "counters_only_vs_off",
            "obs_scraped_vs_traced_s64",
            "loadgen_w2_vs_w1",
            "contended_sharded_vs_single_shard",
            "persist_journal_on_vs_off",
        ] {
            assert!(report.contains(key), "missing {key} in report:\n{report}");
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
