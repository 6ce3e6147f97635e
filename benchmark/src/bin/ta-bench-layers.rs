//! `ta-bench-layers`: the layer ladder.
//!
//! Single-threaded replays of one seeded request stream through each
//! layer's public functions, bottom to top, so that the difference between
//! two rungs is the cost of the layer the upper one adds. Calls are timed
//! in batches of 4096 (a per-call `Instant` pair costs as much as an
//! admission) and a rung reports the median batch.
//!
//! ```text
//! ta-bench-layers --group live|recovery|sim --seed <n> --scratch <dir>
//!                 [--dir <journal dir>] [--smoke]
//! ```
//!
//! Prints `metric <name> <value>` lines and the spans of its rungs, for
//! `ta-bench` to adopt. This binary is the only part of the benchmark that
//! names functions inside the layer crates; README.md lists them.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ta_benchmark::spans::Spans;
use ta_benchmark::stats::median;
use ta_churn::synthetic::SmartphoneTraceModel;
use ta_live::accounts::ShardedAccounts;
use ta_live::counters::LiveCounters;
use ta_live::histogram::LatencyHistogram;
use ta_live::persist::journal::{list_segments, scan_segment};
use ta_live::persist::snapshot::{list_snapshot_files, load};
use ta_live::persist::{recover, PersistConfig, Persistence};
use ta_live::runtime::LiveRuntime;
use ta_live::telem::{c, h};
use ta_live::LiveTelemetry;
use ta_overlay::generators::k_out_random;
use ta_overlay::sampling::OnlineNeighbors;
use ta_sim::config::SimConfig;
use ta_sim::engine::{AlwaysOn, Driver, SimApi, Simulation};
use ta_sim::queue::{EventQueue, ReadyBatch};
use ta_sim::rng::Xoshiro256pp;
use ta_sim::time::SimTime;
use ta_sim::wheel::TimingWheel;
use ta_sim::{paper, NodeId};
use token_account::prelude::*;

/// Calls per timed batch.
const BATCH: usize = 4096;
/// The load workloads' account count and sharding.
const CLIENTS: usize = 100_000;
const SHARDS: usize = 64;

/// One request of the replayed stream.
#[derive(Clone, Copy)]
struct Request {
    client: u32,
    useful: bool,
}

/// The load generator's request mix, made once from the seed: uniform
/// clients, 5 % of arrivals a burst of 8 to one client, 80 % useful.
fn request_stream(seed: u64, len: usize, clients: usize) -> Vec<Request> {
    let mut rng = Xoshiro256pp::stream(seed, 1);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let client = rng.below(clients as u64) as u32;
        let burst = if rng.chance(0.05) { 8 } else { 1 };
        for _ in 0..burst {
            out.push(Request {
                client,
                useful: rng.chance(0.8),
            });
        }
    }
    out.truncate(len);
    out
}

/// Rung bookkeeping: spans, and the metric lines printed at the end.
struct Ladder {
    spans: Spans,
    smoke: bool,
    seed: u64,
    scratch: PathBuf,
}

impl Ladder {
    /// Runs one rung under a span and prints its metric.
    fn rung(&mut self, metric: &str, ops: u64, body: impl FnOnce(&Ladder) -> f64) {
        let span = self.spans.open(&format!("rung.{metric}"), None);
        let value = body(self);
        self.spans.close(span, ops);
        println!("metric {metric} {value}");
    }

    /// Batches of the request stream (1M requests outside `--smoke`).
    fn stream_batches(&self) -> usize {
        if self.smoke {
            16
        } else {
            256
        }
    }

    /// Timed batches per rung: the stream replayed eight times, so that a
    /// rung lasts ~150 ms and one scheduler hiccup cannot reach its median.
    fn batches(&self) -> usize {
        self.stream_batches() * if self.smoke { 1 } else { 8 }
    }
}

/// Median nanoseconds per call of `batch`, which makes [`BATCH`] calls;
/// `between` runs untimed after every batch.
fn ns_per_call(
    batches: usize,
    mut batch: impl FnMut(usize),
    mut between: impl FnMut(usize),
) -> f64 {
    let mut times = Vec::with_capacity(batches);
    for b in 0..batches {
        let t0 = Instant::now();
        batch(b);
        times.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        between(b);
    }
    median(&times).unwrap_or(0.0)
}

/// Median of three (one when `smoke`) timed runs of `f`, in milliseconds.
fn median_ms(smoke: bool, mut f: impl FnMut()) -> f64 {
    let runs = if smoke { 1 } else { 3 };
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Next value of a xorshift stream: cheap pseudo-latencies to record.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn strategy() -> RandomizedTokenAccount {
    RandomizedTokenAccount::new(5, 10).expect("valid strategy")
}

fn usefulness(r: Request) -> Usefulness {
    Usefulness::from_bool(r.useful)
}

/// The live group: `core` -> `live.accounts` -> `live.runtime` ->
/// `live.persist`, plus the books the hot path keeps (`live.histogram`,
/// `telemetry`). Every replay grants one shard's worth of tokens after
/// every second batch — about 0.19 tokens per request, the token-starved
/// mix of the closed-loop workloads.
fn live_group(l: &mut Ladder) {
    let batches = l.batches();
    let stream = request_stream(l.seed, l.stream_batches() * BATCH, CLIENTS);
    // Batch `b` of a rung replays batch `b` of the stream, wrapping around.
    let stream_batch = |b: usize| {
        let at = b % (stream.len() / BATCH) * BATCH;
        &stream[at..at + BATCH]
    };
    let ops = (batches * BATCH) as u64;
    let per_shard = CLIENTS.div_ceil(SHARDS);

    l.rung("core.decide_message_ns", ops, |l| {
        let accounts: Vec<AtomicTokenAccount> =
            (0..CLIENTS).map(|_| AtomicTokenAccount::new(0)).collect();
        let strat = LiveStrategy::new(strategy());
        let mut rng = Xoshiro256pp::stream(l.seed, 2);
        let mut grant_rng = Xoshiro256pp::stream(l.seed, 3);
        ns_per_call(
            batches,
            |b| {
                for r in stream_batch(b) {
                    black_box(strat.decide_message(
                        &accounts[r.client as usize],
                        usefulness(*r),
                        &mut rng,
                    ));
                }
            },
            |b| {
                if b % 2 == 1 {
                    let lo = (b / 2 % SHARDS) * per_shard;
                    for a in &accounts[lo..(lo + per_shard).min(CLIENTS)] {
                        black_box(strat.decide_round(a, &mut grant_rng));
                    }
                }
            },
        )
    });

    l.rung("core.decide_round_ns", ops, |l| {
        let accounts: Vec<AtomicTokenAccount> =
            (0..CLIENTS).map(|_| AtomicTokenAccount::new(0)).collect();
        let strat = LiveStrategy::new(strategy());
        let mut rng = Xoshiro256pp::stream(l.seed, 3);
        ns_per_call(
            batches,
            |b| {
                let lo = b * BATCH % (CLIENTS - BATCH);
                for a in &accounts[lo..lo + BATCH] {
                    black_box(strat.decide_round(a, &mut rng));
                }
            },
            |_| {},
        )
    });

    for (metric, clients) in [
        ("live.accounts.lookup_ns", CLIENTS),
        ("live.accounts.lookup_1m_ns", 1_000_000),
    ] {
        l.rung(metric, ops, |l| {
            let accounts = ShardedAccounts::new(clients, SHARDS);
            let mut rng = Xoshiro256pp::stream(l.seed, 4);
            let picks: Vec<u32> = (0..stream.len())
                .map(|_| rng.below(clients as u64) as u32)
                .collect();
            let mut sum = 0i64;
            let ns = ns_per_call(
                batches,
                |b| {
                    let at = b % (picks.len() / BATCH) * BATCH;
                    for &c in &picks[at..at + BATCH] {
                        sum += accounts.account(c as usize).balance();
                    }
                },
                |_| {},
            );
            black_box(sum);
            ns
        });
    }

    l.rung("live.runtime.admit_ns", ops, |l| {
        let rt = LiveRuntime::new(strategy(), CLIENTS, SHARDS);
        let mut rng = Xoshiro256pp::stream(l.seed, 2);
        let mut grant_rng = Xoshiro256pp::stream(l.seed, 3);
        let mut counters = LiveCounters::default();
        let mut grants = LiveCounters::default();
        let ns = ns_per_call(
            batches,
            |b| {
                for r in stream_batch(b) {
                    black_box(rt.admit(r.client as usize, usefulness(*r), &mut rng, &mut counters));
                }
            },
            |b| {
                if b % 2 == 1 {
                    rt.round_sweep(b / 2 % SHARDS, &mut grant_rng, &mut grants, |_| {});
                }
            },
        );
        black_box((counters.requests, grants.rounds));
        ns
    });

    l.rung("live.runtime.admit_journaled_ns", ops, |l| {
        let p = Persistence::open(
            &PersistConfig::new(l.scratch.join("admit")),
            CLIENTS,
            SHARDS,
        )
        .expect("open journal");
        let rt = LiveRuntime::new(strategy(), CLIENTS, SHARDS);
        let mut rng = Xoshiro256pp::stream(l.seed, 2);
        let mut grant_rng = Xoshiro256pp::stream(l.seed, 3);
        let mut counters = LiveCounters::default();
        let mut grants = LiveCounters::default();
        let mut journal = p.handle();
        let mut granter_journal = p.handle();
        let ns = ns_per_call(
            batches,
            |b| {
                // As the load generator does: one bulk epoch per 256
                // admissions, so the per-admit `enter` nests for free.
                for chunk in stream_batch(b).chunks(256) {
                    journal.enter_bulk();
                    for r in chunk {
                        black_box(rt.admit_journaled(
                            r.client as usize,
                            usefulness(*r),
                            &mut rng,
                            &mut counters,
                            &mut journal,
                        ));
                    }
                    journal.exit();
                }
            },
            |b| {
                if b % 2 == 1 {
                    rt.round_sweep_journaled(
                        b / 2 % SHARDS,
                        &mut grant_rng,
                        &mut grants,
                        |_| {},
                        &mut granter_journal,
                    );
                }
            },
        );
        drop((journal, granter_journal));
        p.shutdown().expect("clean journal shutdown");
        black_box((counters.requests, grants.rounds));
        ns
    });

    let passes = if l.smoke { 4 } else { 40 };
    l.rung(
        "live.runtime.sweep_ns_per_account",
        (passes * CLIENTS) as u64,
        |l| {
            let rt = LiveRuntime::new(strategy(), CLIENTS, SHARDS);
            let mut rng = Xoshiro256pp::stream(l.seed, 3);
            let mut counters = LiveCounters::default();
            let mut times = Vec::new();
            for _ in 0..passes {
                for s in 0..rt.accounts().shard_count() {
                    let t0 = Instant::now();
                    let swept = rt.round_sweep(s, &mut rng, &mut counters, |_| {});
                    times.push(t0.elapsed().as_nanos() as f64 / swept as f64);
                }
            }
            black_box(counters.rounds);
            median(&times).unwrap_or(0.0)
        },
    );

    l.rung(
        "live.runtime.sweep_journaled_ns_per_account",
        (passes * CLIENTS) as u64,
        |l| {
            let p = Persistence::open(
                &PersistConfig::new(l.scratch.join("sweep")),
                CLIENTS,
                SHARDS,
            )
            .expect("open journal");
            let rt = LiveRuntime::new(strategy(), CLIENTS, SHARDS);
            let mut rng = Xoshiro256pp::stream(l.seed, 3);
            let mut counters = LiveCounters::default();
            let mut journal = p.handle();
            let mut times = Vec::new();
            for _ in 0..passes {
                for s in 0..rt.accounts().shard_count() {
                    let t0 = Instant::now();
                    let swept =
                        rt.round_sweep_journaled(s, &mut rng, &mut counters, |_| {}, &mut journal);
                    times.push(t0.elapsed().as_nanos() as f64 / swept as f64);
                }
            }
            drop(journal);
            p.shutdown().expect("clean journal shutdown");
            black_box(counters.rounds);
            median(&times).unwrap_or(0.0)
        },
    );

    l.rung("live.histogram.record_ns", ops, |_| {
        let mut hist = LatencyHistogram::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let ns = ns_per_call(
            batches,
            |_| {
                for _ in 0..BATCH {
                    hist.record(xorshift(&mut x) & 0x3ff);
                }
            },
            |_| {},
        );
        black_box(hist.count());
        ns
    });

    // One pass over the stream only: every call here is a record, and the
    // writer thread has to put them all on disk.
    let journal_batches = l.stream_batches();
    l.rung(
        "live.persist.journal.record_ns",
        (journal_batches * BATCH) as u64,
        |l| {
            let p = Persistence::open(
                &PersistConfig::new(l.scratch.join("record")),
                CLIENTS,
                SHARDS,
            )
            .expect("open journal");
            let mut journal = p.handle();
            let ns = ns_per_call(
                journal_batches,
                |b| {
                    for r in stream_batch(b) {
                        let shard = r.client as usize / per_shard;
                        journal.enter(shard);
                        journal.record(shard, r.client, -1);
                        journal.exit();
                    }
                },
                |_| {},
            );
            drop(journal);
            p.shutdown().expect("clean journal shutdown");
            ns
        },
    );

    l.rung(
        "live.persist.journal.record_range_ns",
        (journal_batches * BATCH) as u64,
        |l| {
            let p = Persistence::open(
                &PersistConfig::new(l.scratch.join("range")),
                CLIENTS,
                SHARDS,
            )
            .expect("open journal");
            let mut journal = p.handle();
            let ns = ns_per_call(
                journal_batches,
                |b| {
                    for r in stream_batch(b) {
                        let shard = r.client as usize / per_shard;
                        journal.enter(shard);
                        journal.record_range(shard, (shard * per_shard) as u32, 16);
                        journal.exit();
                    }
                },
                |_| {},
            );
            drop(journal);
            p.shutdown().expect("clean journal shutdown");
            ns
        },
    );

    let snap_clients = if l.smoke { 100_000 } else { 1_000_000 };
    l.rung("live.persist.snapshot.write_ms", snap_clients as u64, |l| {
        let p = Persistence::open(
            &PersistConfig::new(l.scratch.join("snapshot")),
            snap_clients,
            SHARDS,
        )
        .expect("open journal");
        let accounts = ShardedAccounts::new(snap_clients, SHARDS);
        let ms = median_ms(l.smoke, || {
            p.snapshot(&accounts).expect("snapshot");
        });
        p.shutdown().expect("clean journal shutdown");
        ms
    });

    let telem = LiveTelemetry::new(1, 0, LiveTelemetry::DEFAULT_RING_CAPACITY);
    l.rung("telemetry.counter_add_ns", ops, |_| {
        let handle = telem.registry().handle(0);
        ns_per_call(
            batches,
            |_| {
                for _ in 0..BATCH {
                    handle.add(c::ADMIT_REQUESTS, 1);
                }
            },
            |_| {},
        )
    });
    l.rung("telemetry.hist_record_ns", ops, |_| {
        let handle = telem.registry().handle(0);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        ns_per_call(
            batches,
            |_| {
                for _ in 0..BATCH {
                    handle.hist_record(h::ADMIT_NS, xorshift(&mut x) & 0x3ff);
                }
            },
            |_| {},
        )
    });
    l.rung("telemetry.snapshot_us", 200, |_| {
        let times: Vec<f64> = (0..200)
            .map(|_| {
                let t0 = Instant::now();
                black_box(telem.snapshot());
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&times).unwrap_or(0.0)
    });
}

/// The recovery group, on the directory `live_recover` built: the whole
/// `recover()`, and its two big parts on their own.
fn recovery_group(l: &mut Ladder, dir: &Path) {
    let mut replayed = 0u64;
    let mut recover_ms = 0.0;
    l.rung("live.persist.recovery.recover_ms", 1, |l| {
        recover_ms = median_ms(l.smoke, || {
            replayed = recover(dir).expect("recovery must succeed").replayed;
        });
        recover_ms
    });
    println!(
        "metric live.persist.recovery.records_per_s {}",
        replayed as f64 / (recover_ms / 1e3).max(1e-9)
    );
    l.rung("live.persist.recovery.snapshot_load_ms", 1, |l| {
        let snapshots = list_snapshot_files(dir).expect("list snapshots");
        let (_, newest) = snapshots.last().expect("the directory holds a snapshot");
        median_ms(l.smoke, || {
            black_box(load(newest).expect("snapshot loads"));
        })
    });
    l.rung("live.persist.recovery.scan_mb_per_s", 1, |l| {
        // The largest segment: the newest may hold only the shutdown flush.
        let bytes = list_segments(dir)
            .expect("list segments")
            .iter()
            .map(|(_, path)| std::fs::read(path).expect("read segment"))
            .max_by_key(Vec::len)
            .expect("the directory holds a segment");
        let ms = median_ms(l.smoke, || {
            black_box(scan_segment(&bytes).frames.len());
        });
        bytes.len() as f64 / 1e6 / (ms / 1e3).max(1e-9)
    });
}

/// A protocol-free driver: every tick sends one message to a random
/// online peer, deliveries are counted and dropped — the engine and its
/// queue with no strategy or application on top.
struct Echo {
    delivered: u64,
}

impl Driver for Echo {
    type Msg = u64;
    fn on_round_tick(&mut self, api: &mut SimApi<'_, u64>, node: NodeId) {
        if let Some(peer) = api.random_online_node() {
            api.send(node, peer, node.raw() as u64);
        }
    }
    fn on_message(&mut self, _api: &mut SimApi<'_, u64>, _from: NodeId, _to: NodeId, msg: u64) {
        self.delivered = self.delivered.wrapping_add(msg);
    }
}

/// Steady push/pop churn on a timing wheel holding 10k pending events;
/// one call = one pop and one push.
fn wheel_churn(batches: usize, offsets: &[u64]) -> f64 {
    const PENDING: usize = 10_000;
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut now = 0u64;
    let mut acc = 0u64;
    for (i, &off) in offsets.iter().take(PENDING).enumerate() {
        wheel.push(SimTime::from_micros(now + off), i as u64);
    }
    let mut next = offsets.iter().cycle().skip(PENDING);
    let ns = ns_per_call(
        batches,
        |_| {
            for i in 0..BATCH {
                let popped = wheel.pop().expect("the wheel stays non-empty");
                now = popped.time.as_micros();
                acc ^= popped.event;
                let off = next.next().expect("cycle never ends");
                wheel.push(SimTime::from_micros(now + off), i as u64);
            }
        },
        |_| {},
    );
    black_box(acc);
    ns
}

/// The simulator group: `sim.queue` -> `sim.engine`, and the set-up layers
/// `overlay` and `churn`.
fn sim_group(l: &mut Ladder) {
    let batches = l.batches();
    let ops = (batches * BATCH) as u64;

    // The protocol's pattern: transfers of 1.728 s and ticks of 172.8 s.
    l.rung("sim.queue.push_pop_ns", ops, |l| {
        let mut rng = Xoshiro256pp::stream(l.seed, 13);
        let offsets: Vec<u64> = (0..20_000)
            .map(|_| {
                if rng.chance(0.5) {
                    172_800_000
                } else {
                    1_728_000
                }
            })
            .collect();
        wheel_churn(batches, &offsets)
    });
    l.rung("sim.queue.push_pop_uniform_ns", ops, |l| {
        let mut rng = Xoshiro256pp::stream(l.seed, 11);
        let offsets: Vec<u64> = (0..20_000).map(|_| rng.below(400_000_000)).collect();
        wheel_churn(batches, &offsets)
    });

    // Dense waves: BATCH events share one deadline and leave in one drain.
    l.rung("sim.queue.drain_ns_per_event", ops, |_| {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut ready = ReadyBatch::new();
        let mut acc = 0u64;
        let mut times = Vec::with_capacity(batches);
        for wave in 0..batches as u64 {
            let t = SimTime::from_micros((wave + 1) * 1_728_000);
            for j in 0..BATCH as u64 {
                wheel.push(t, j);
            }
            let t0 = Instant::now();
            wheel.drain_ready(&mut ready);
            for (_, _, event) in ready.drain() {
                acc ^= event;
            }
            times.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        }
        black_box(acc);
        median(&times).unwrap_or(0.0)
    });

    let (n, rounds) = if l.smoke { (500, 40) } else { (5000, 200) };
    l.rung("sim.engine.dispatch_ns_per_event", 0, |l| {
        let mut per_event = Vec::new();
        for _ in 0..if l.smoke { 1 } else { 3 } {
            let cfg = SimConfig::builder(n)
                .delta(paper::DELTA)
                .transfer_time(paper::TRANSFER_TIME)
                .duration(paper::DELTA * rounds)
                .seed(l.seed)
                .build()
                .expect("valid config");
            let mut sim = Simulation::new(cfg, &AlwaysOn, Echo { delivered: 0 });
            let t0 = Instant::now();
            sim.run_to_end();
            per_event.push(t0.elapsed().as_nanos() as f64 / sim.stats().events_processed as f64);
            black_box(sim.driver().delivered);
        }
        median(&per_event).unwrap_or(0.0)
    });

    let big = if l.smoke { 20_000 } else { 200_000 };
    let mut topo = None;
    l.rung("overlay.generate_ms", big as u64, |l| {
        median_ms(l.smoke, || {
            let mut rng = Xoshiro256pp::stream(l.seed, 0x70);
            topo = Some(Arc::new(
                k_out_random(big, paper::OUT_DEGREE, &mut rng).expect("k-out overlay"),
            ));
        })
    });
    let topo = topo.expect("generated above");
    l.rung("overlay.sample_online_ns", ops, |l| {
        let peers = OnlineNeighbors::new(&topo, &vec![true; big]);
        let mut rng = Xoshiro256pp::stream(l.seed, 5);
        let nodes: Vec<NodeId> = (0..l.stream_batches() * BATCH)
            .map(|_| NodeId::from_index(rng.below(big as u64) as usize))
            .collect();
        ns_per_call(
            batches,
            |b| {
                let at = b % (nodes.len() / BATCH) * BATCH;
                for &node in &nodes[at..at + BATCH] {
                    black_box(peers.select(node, &mut rng));
                }
            },
            |_| {},
        )
    });
    l.rung("churn.schedule_build_ms", big as u64, |l| {
        median_ms(l.smoke, || {
            black_box(SmartphoneTraceModel::default().generate(big, paper::DELTA * 40, l.seed));
        })
    });
}

fn main() -> ExitCode {
    let mut group = None;
    let mut seed = ta_benchmark::DEFAULT_SEED;
    let mut scratch = None;
    let mut dir = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--group" => group = args.next(),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--scratch" => scratch = args.next().map(PathBuf::from),
            "--dir" => dir = args.next().map(PathBuf::from),
            "--smoke" => smoke = true,
            other => {
                eprintln!("ta-bench-layers: unknown option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(scratch) = scratch else {
        eprintln!("ta-bench-layers: --scratch <dir> is required");
        return ExitCode::FAILURE;
    };
    let mut ladder = Ladder {
        spans: Spans::new(),
        smoke,
        seed,
        scratch,
    };
    match (group.as_deref(), dir) {
        (Some("live"), _) => live_group(&mut ladder),
        (Some("recovery"), Some(dir)) => recovery_group(&mut ladder, &dir),
        (Some("sim"), _) => sim_group(&mut ladder),
        _ => {
            eprintln!("ta-bench-layers: --group live | recovery --dir <journal dir> | sim");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", ladder.spans.export());
    ExitCode::SUCCESS
}
