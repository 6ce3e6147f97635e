//! The `bench_sim` harness: machine-readable simulator perf tracking.
//!
//! Measures, in one process and one run:
//!
//! * **event_queue** — steady-state push/pop churn throughput (events/sec)
//!   of the engine's lane scheduler beside the binary heap it falls back
//!   to, on the uniform (all fallback) and the protocol-periodic (all
//!   lanes) offset mixes;
//! * **batch** — dense same-time waves through the binary heap, popped per
//!   event or drained as one batch;
//! * **engine** — end-to-end engine throughput (processed events/sec) for a
//!   lean echo driver (engine-bound) and a real push gossip protocol run;
//! * **protocol** — the protocol-layer hot path: node steps decided by
//!   the boxed formulas vs. the compiled decision table, online peer sampling under
//!   churn (two-pass scan vs. rejection fallback vs. packed mirror), and
//!   the end-to-end SGD gossip-learning workload against the
//!   [`crate::legacy_proto`] baseline;
//! * **shard** — intra-run sharding: multi-shard scaling at S ∈ {2, 4}
//!   against the one-block run (results are byte-identical across all of
//!   them; only wall-clock differs — on a single-core container the
//!   multi-shard rows measure the per-window synchronization tax, not a
//!   speedup);
//! * **shard_sync** — per-window synchronization in isolation: the
//!   channel-pipeline dispatch vs. the retired two-`Barrier::wait`
//!   rendezvous on empty windows, plus engine rows at S ∈ {2, 4} ×
//!   threads ∈ {1, 2, 4};
//! * **sweep** — wall-clock seconds for a micro parameter sweep through the
//!   bounded-pool grid executor.
//!
//! Results are written as `BENCH_sim.json` (override with `--out PATH`) so
//! the perf trajectory is tracked from PR to PR; `--test` runs each
//! workload once and writes the file with `"mode": "smoke"` (values are
//! still measured, just from a single iteration — good enough for CI to
//! validate the harness, not for comparisons). `--diff BASELINE.json`
//! additionally prints a non-failing comparison of every metric present in
//! both reports (CI runs it against the committed `BENCH_sim.json` so perf
//! regressions are visible in PR logs).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use std::hint::black_box;
use ta_apps::protocol::TokenProtocol;
use ta_apps::push_gossip::PushGossip;
use ta_apps::sgd::{RegressionData, SgdGossipLearning};
use ta_experiments::runner::{prepare_topology, run_grid_prepared};
use ta_experiments::spec::{AppKind, ExperimentSpec, TopologyKind};
use ta_overlay::generators::k_out_random;
use ta_overlay::sampling::{OnlineNeighbors, PeerSampler};
use ta_sim::config::SimConfig;
use ta_sim::engine::{AlwaysOn, Driver, SimApi, Simulation};
use ta_sim::paper;
use ta_sim::queue::{BinaryHeapQueue, EventQueue, LaneScheduler};
use ta_sim::rng::Xoshiro256pp;
use ta_sim::time::SimTime;
use ta_sim::NodeId;
use token_account::node::TokenNode;
use token_account::prelude::*;

use crate::legacy_proto::{
    formula_message, formula_round, two_pass_select_online, CloningSgd, LegacyTokenProtocol,
};
use crate::report::{find, json_section, measure_events_per_sec, Sample};

/// Pending events kept in flight during queue churn.
const PENDING: usize = 10_000;
/// Push/pop pairs per queue-churn invocation.
const OPS: usize = 100_000;

/// Steady-state churn of push/pop pairs against `queue`; returns events
/// processed (pushes + pops).
fn queue_churn<Q: EventQueue<u64>>(mut queue: Q, offsets: &[u64]) -> u64 {
    let mut now = 0u64;
    let mut acc = 0u64;
    for (i, &off) in offsets.iter().take(PENDING).enumerate() {
        queue.push(SimTime::from_micros(now + off), i as u64);
    }
    for (i, &off) in offsets.iter().cycle().skip(PENDING).take(OPS).enumerate() {
        let popped = queue.pop().expect("queue stays non-empty");
        now = popped.time.as_micros();
        acc ^= popped.event;
        queue.push(SimTime::from_micros(now + off), i as u64);
    }
    black_box(acc);
    (PENDING + 2 * OPS) as u64
}

fn uniform_offsets(n: usize) -> Vec<u64> {
    let mut rng = Xoshiro256pp::stream(11, 0);
    (0..n).map(|_| rng.below(400_000_000)).collect()
}

/// The protocol pattern: mostly 1.728 s transfers plus Δ = 172.8 s ticks.
fn periodic_offsets(n: usize) -> Vec<u64> {
    let mut rng = Xoshiro256pp::stream(13, 0);
    (0..n)
        .map(|_| {
            if rng.chance(0.5) {
                172_800_000
            } else {
                1_728_000
            }
        })
        .collect()
}

fn bench_event_queue(smoke: bool) -> Vec<Sample> {
    let workloads = [
        ("uniform", uniform_offsets(PENDING + OPS)),
        ("periodic", periodic_offsets(PENDING + OPS)),
    ];
    let mut samples = Vec::new();
    for (name, offsets) in &workloads {
        samples.push(Sample {
            id: format!("binary_heap/{name}"),
            value: measure_events_per_sec(|| queue_churn(BinaryHeapQueue::new(), offsets), smoke),
        });
        samples.push(Sample {
            id: format!("scheduler/{name}"),
            value: measure_events_per_sec(|| queue_churn(LaneScheduler::new(), offsets), smoke),
        });
    }
    samples
}

/// Dense same-time waves through the binary heap: each wave pushes `k`
/// events sharing one deadline Δ out, consumed either per event (`pop`) or
/// as one contiguous [`EventQueue::drain_ready`] batch. The pair isolates
/// the dispatch tax the batch-drain engine loop removes.
fn dense_wave(batched: bool, waves: u64, k: u64) -> u64 {
    use ta_sim::queue::{order_key, ReadyBatch};
    let mut queue = BinaryHeapQueue::new();
    let mut batch = ReadyBatch::new();
    let mut now = 0u64;
    let mut acc = 0u64;
    for w in 0..waves {
        let t = SimTime::from_micros(now + 172_800_000);
        for j in 0..k {
            queue.push_keyed(t, order_key(j as u32, w), j);
        }
        if batched {
            queue.drain_ready(&mut batch);
            debug_assert_eq!(batch.len() as u64, k);
            for (_, _, e) in batch.drain() {
                acc ^= e;
            }
        } else {
            while let Some(s) = queue.pop() {
                acc ^= s.event;
            }
        }
        now = t.as_micros();
    }
    black_box(acc);
    2 * waves * k
}

/// The `batch` section: contiguous same-time drains vs per-event pops on
/// dense waves.
fn bench_batch(smoke: bool) -> Vec<Sample> {
    let (waves, k) = if smoke { (50, 1_024) } else { (400, 4_096) };
    [("pop", false), ("drain", true)]
        .into_iter()
        .map(|(mode, batched)| Sample {
            id: format!("dense_wave/binary_heap/{mode}"),
            value: measure_events_per_sec(|| dense_wave(batched, waves, k), smoke),
        })
        .collect()
}

/// A protocol-free driver: every tick sends one message to a random online
/// peer; deliveries are counted and dropped. Isolates the engine + queue
/// hot path from strategy/application work.
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

fn engine_echo_run(n: usize, rounds: u64) -> u64 {
    let cfg = SimConfig::builder(n)
        .delta(paper::DELTA)
        .transfer_time(paper::TRANSFER_TIME)
        .duration(paper::DELTA * rounds)
        .seed(42)
        .build()
        .expect("valid bench config");
    let mut sim = Simulation::new(cfg, &AlwaysOn, Echo { delivered: 0 });
    sim.run_to_end();
    black_box(sim.driver().delivered);
    sim.stats().events_processed
}

fn engine_gossip_run(topo: &Arc<ta_overlay::Topology>, rounds: u64) -> u64 {
    let n = topo.n();
    let cfg = SimConfig::builder(n)
        .delta(paper::DELTA)
        .transfer_time(paper::TRANSFER_TIME)
        .duration(paper::DELTA * rounds)
        .sample_period(paper::DELTA)
        .injection_period(paper::UPDATE_INJECTION_PERIOD)
        .seed(3)
        .build()
        .expect("valid bench config");
    let app = PushGossip::new(n, &vec![true; n]);
    // (A=5, C=10) so accounts fill within a handful of rounds and the run
    // is message-dominated — with (10, 20) and a short horizon nothing
    // ever gets sent and the "protocol" bench degenerates to bare ticks.
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let proto = TokenProtocol::new(Arc::clone(topo), strategy, app, vec![true; n]);
    let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
    sim.run_to_end();
    sim.stats().events_processed
}

/// Workload scale parameters of one run, reported in the JSON `scale`
/// section. Sample ids stay mode-independent so the CI smoke diff can
/// line every metric up against the committed full-mode baseline (values
/// differ in scale — the diff is informational — but a vanished speedup
/// is visible instead of the rows silently failing to match).
/// `host_cores` records the measurement context (BENCH_live already
/// does): multi-core regenerations are distinguishable from 1-core
/// container runs.
fn scale_samples(smoke: bool) -> Vec<Sample> {
    let ((echo_n, echo_rounds), (gossip_n, gossip_rounds), (sgd_n, sgd_dim, sgd_rounds)) =
        scales(smoke);
    [
        ("echo_n", echo_n as f64),
        ("echo_rounds", echo_rounds as f64),
        ("push_gossip_n", gossip_n as f64),
        ("push_gossip_rounds", gossip_rounds as f64),
        ("sgd_n", sgd_n as f64),
        ("sgd_dim", sgd_dim as f64),
        ("sgd_rounds", sgd_rounds as f64),
        ("host_cores", crate::report::host_cores() as f64),
    ]
    .into_iter()
    .map(|(id, value)| Sample {
        id: id.into(),
        value,
    })
    .collect()
}

#[allow(clippy::type_complexity)]
fn scales(smoke: bool) -> ((usize, u64), (usize, u64), (usize, usize, u64)) {
    if smoke {
        ((1_000, 2), (200, 6), (100, 32, 10))
    } else {
        ((10_000, 8), (2_000, 24), (500, 256, 60))
    }
}

fn bench_engine(smoke: bool) -> Vec<Sample> {
    let ((echo_n, echo_rounds), (gossip_n, gossip_rounds), _) = scales(smoke);
    let mut rng = Xoshiro256pp::stream(5, 0);
    let topo =
        Arc::new(k_out_random(gossip_n, paper::OUT_DEGREE, &mut rng).expect("valid topology"));
    vec![
        Sample {
            id: "echo/scheduler".into(),
            value: measure_events_per_sec(|| engine_echo_run(echo_n, echo_rounds), smoke),
        },
        Sample {
            id: "push_gossip/scheduler".into(),
            value: measure_events_per_sec(|| engine_gossip_run(&topo, gossip_rounds), smoke),
        },
    ]
}

/// Algorithm-4 node steps (one round tick + one message reaction)
/// evaluated from the formulas through a `&dyn Strategy`: the decision
/// path before decision tables.
fn node_steps_boxed(strategy: &dyn Strategy, iters: u64) -> u64 {
    let mut balance = 0;
    let mut rng = Xoshiro256pp::stream(17, 0);
    for _ in 0..iters {
        black_box(formula_round(strategy, &mut balance, &mut rng));
        black_box(formula_message(
            strategy,
            &mut balance,
            Usefulness::Useful,
            &mut rng,
        ));
    }
    2 * iters
}

/// The same node steps through the strategy's compiled decision table.
fn node_steps_monomorphized(table: &DecisionTable, iters: u64) -> u64 {
    let mut node = TokenNode::new(0);
    let mut rng = Xoshiro256pp::stream(17, 0);
    for _ in 0..iters {
        black_box(node.on_round(table, &mut rng));
        black_box(node.on_message(table, Usefulness::Useful, &mut rng));
    }
    2 * iters
}

/// Selections per second under churn: every `flip_every` selections one
/// random node flips its online state. `mode` picks the sampler.
fn sampling_churn_run(
    topo: &Arc<ta_overlay::Topology>,
    mode: &str,
    selections: u64,
    online_fraction: f64,
) -> u64 {
    let n = topo.n();
    let mut rng = Xoshiro256pp::stream(23, 0);
    let mut online: Vec<bool> = (0..n).map(|_| rng.chance(online_fraction)).collect();
    online[0] = true; // keep at least one node up
    let mut mirror = OnlineNeighbors::new(topo, &online);
    let sampler = PeerSampler::new(topo);
    let flip_every = 16u64;
    let mut acc = 0u64;
    for i in 0..selections {
        if i % flip_every == 0 {
            let v = rng.below(n as u64) as usize;
            let up = !online[v];
            online[v] = up;
            mirror.set_online(topo, NodeId::from_index(v), up);
        }
        let node = NodeId::from_index((i % n as u64) as usize);
        let picked = match mode {
            "two_pass" => two_pass_select_online(topo, node, &online, &mut rng),
            "rejection_fallback" => sampler.select_online(node, &online, &mut rng),
            "packed_mirror" => mirror.select(node, &mut rng),
            _ => unreachable!("unknown sampling mode"),
        };
        if let Some(p) = picked {
            acc = acc.wrapping_add(p.raw() as u64);
        }
    }
    black_box(acc);
    selections
}

/// End-to-end SGD gossip learning through the modern allocation-free,
/// decision-table protocol path.
fn sgd_run_modern(topo: &Arc<ta_overlay::Topology>, data: &RegressionData, rounds: u64) -> u64 {
    let n = topo.n();
    let cfg = SimConfig::builder(n)
        .delta(paper::DELTA)
        .transfer_time(paper::TRANSFER_TIME)
        .duration(paper::DELTA * rounds)
        .seed(29)
        .build()
        .expect("valid bench config");
    let app = SgdGossipLearning::new(data.clone(), 0.1);
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let proto = TokenProtocol::new(Arc::clone(topo), strategy, app, vec![true; n]);
    let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
    sim.run_to_end();
    black_box(sim.driver().app().mean_age());
    sim.stats().events_processed
}

/// The same workload through the pre-PR baseline: boxed dispatch, two-pass
/// selection, cloning payloads ([`crate::legacy_proto`]).
fn sgd_run_legacy(topo: &Arc<ta_overlay::Topology>, data: &RegressionData, rounds: u64) -> u64 {
    let n = topo.n();
    let cfg = SimConfig::builder(n)
        .delta(paper::DELTA)
        .transfer_time(paper::TRANSFER_TIME)
        .duration(paper::DELTA * rounds)
        .seed(29)
        .build()
        .expect("valid bench config");
    let app = CloningSgd::new(data.clone(), 0.1);
    let strategy: Box<dyn Strategy> =
        Box::new(RandomizedTokenAccount::new(5, 10).expect("valid strategy"));
    let proto = LegacyTokenProtocol::new(Arc::clone(topo), strategy, app);
    let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
    sim.run_to_end();
    black_box(sim.driver().app().mean_age());
    sim.stats().events_processed
}

fn bench_protocol(smoke: bool) -> Vec<Sample> {
    let mut samples = Vec::new();

    // Decision micro: identical decisions, from the boxed formulas or
    // from the compiled table.
    let iters = if smoke { 20_000 } else { 2_000_000 };
    let concrete = RandomizedTokenAccount::new(10, 20).expect("valid strategy");
    let boxed: Box<dyn Strategy> = Box::new(concrete);
    let table = DecisionTable::new(concrete);
    samples.push(Sample {
        id: "node_step/boxed".into(),
        value: measure_events_per_sec(|| node_steps_boxed(boxed.as_ref(), iters), smoke),
    });
    samples.push(Sample {
        id: "node_step/monomorphized".into(),
        value: measure_events_per_sec(|| node_steps_monomorphized(&table, iters), smoke),
    });

    // Peer sampling under churn, with a minority of neighbours online (the
    // regime where scans hurt and rejection sampling misses often).
    let (sample_n, selections) = if smoke {
        (500, 20_000)
    } else {
        (2_000, 400_000)
    };
    let mut rng = Xoshiro256pp::stream(19, 0);
    let sample_topo =
        Arc::new(k_out_random(sample_n, paper::OUT_DEGREE, &mut rng).expect("valid topology"));
    for mode in ["two_pass", "rejection_fallback", "packed_mirror"] {
        samples.push(Sample {
            id: format!("sampling_churn/{mode}"),
            value: measure_events_per_sec(
                || sampling_churn_run(&sample_topo, mode, selections, 0.3),
                smoke,
            ),
        });
    }

    // End-to-end SGD gossip learning: modern vs. legacy hot path. Long
    // enough that accounts fill and messages dominate the event mix, with
    // a model payload on the scale the cloning cost actually shows.
    let (_, _, (sgd_n, sgd_dim, sgd_rounds)) = scales(smoke);
    let mut rng = Xoshiro256pp::stream(21, 0);
    let sgd_topo =
        Arc::new(k_out_random(sgd_n, paper::OUT_DEGREE, &mut rng).expect("valid topology"));
    let sgd_data = RegressionData::generate(sgd_n, sgd_dim, 0.05, 31);
    samples.push(Sample {
        id: "sgd/legacy_boxed_cloning".into(),
        value: measure_events_per_sec(|| sgd_run_legacy(&sgd_topo, &sgd_data, sgd_rounds), smoke),
    });
    samples.push(Sample {
        id: "sgd/monomorphized_arc".into(),
        value: measure_events_per_sec(|| sgd_run_modern(&sgd_topo, &sgd_data, sgd_rounds), smoke),
    });
    samples
}

/// One gossip-learning (age-only) run, whole (`None`) or cut into shards;
/// returns events processed. The workload is message-dominated
/// (accounts fill within a few rounds) so cross-shard traffic is heavy —
/// the honest case for the per-window synchronization overhead.
fn shard_gossip_run(
    topo: &Arc<ta_overlay::Topology>,
    rounds: u64,
    mode: Option<(usize, usize)>,
) -> u64 {
    use ta_apps::gossip_learning::GossipLearning;
    use ta_sim::shard::{ShardOpts, ShardedSimulation};
    let n = topo.n();
    let cfg = SimConfig::builder(n)
        .delta(paper::DELTA)
        .transfer_time(paper::TRANSFER_TIME)
        .duration(paper::DELTA * rounds)
        .sample_period(paper::DELTA)
        .seed(37)
        .build()
        .expect("valid bench config");
    let app = GossipLearning::new(n, paper::TRANSFER_TIME, &vec![true; n]);
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let proto = TokenProtocol::new(Arc::clone(topo), strategy, app, vec![true; n]);
    match mode {
        None => {
            let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
            sim.run_to_end();
            sim.stats().events_processed
        }
        Some((shards, threads)) => {
            let opts = ShardOpts { shards, threads };
            let mut sim = ShardedSimulation::new(cfg, &AlwaysOn, proto, opts);
            sim.run_to_end();
            sim.stats().events_processed
        }
    }
}

/// Windows/sec through one synchronization point, pure rendezvous cost
/// (no simulation work at all — the empty-window case):
///
/// * `barrier` replays the retired engine's per-window discipline — two
///   `std::sync::Barrier::wait` rendezvous per window across all workers
///   plus the coordinator;
/// * `channel` runs the pipeline's dispatch — one mpsc work send per
///   worker and one shared done-channel receive each, which is the entire
///   traffic of a window the gate skips.
fn sync_windows(mode: &str, workers: usize, windows: u64) -> u64 {
    match mode {
        "barrier" => {
            let barrier = std::sync::Barrier::new(workers + 1);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        for _ in 0..windows {
                            barrier.wait();
                            barrier.wait();
                        }
                    });
                }
                for _ in 0..windows {
                    barrier.wait();
                    barrier.wait();
                }
            });
        }
        "channel" => {
            use std::sync::mpsc;
            std::thread::scope(|scope| {
                let (done_tx, done_rx) = mpsc::channel::<()>();
                let mut txs = Vec::with_capacity(workers);
                for _ in 0..workers {
                    let (tx, rx) = mpsc::channel::<()>();
                    let done = done_tx.clone();
                    txs.push(tx);
                    scope.spawn(move || {
                        while rx.recv().is_ok() {
                            if done.send(()).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(done_tx);
                for _ in 0..windows {
                    for tx in &txs {
                        tx.send(()).expect("worker alive");
                    }
                    for _ in 0..workers {
                        done_rx.recv().expect("worker alive");
                    }
                }
            });
        }
        _ => unreachable!("unknown sync mode"),
    }
    windows
}

/// The cores the `shard` / `shard_sync` rows were measured on, recorded
/// inside each section: their thread axes mean speedup only with at least
/// as many cores as threads, and the two sections may be regenerated on a
/// different host than the rest of the report.
fn host_cores_sample() -> Sample {
    Sample {
        id: "host_cores".into(),
        value: crate::report::host_cores() as f64,
    }
}

/// The `shard_sync` section: per-window synchronization overhead of the
/// channel pipeline against the retired barrier rendezvous. The
/// `empty_window` micro isolates the pure sync cost (windows/sec, no
/// simulation work); the `engine` rows run the real gossip workload
/// through the pipeline at S ∈ {2, 4} × threads ∈ {1, 2, 4} — on a
/// single-core container the thread axis measures scheduling overhead,
/// not speedup (see ROADMAP on cross-regeneration comparisons).
fn bench_shard_sync(smoke: bool) -> Vec<Sample> {
    let windows = if smoke { 500 } else { 5_000 };
    let mut samples = vec![host_cores_sample()];
    for workers in [2usize, 4] {
        for mode in ["barrier", "channel"] {
            samples.push(Sample {
                id: format!("empty_window/{mode}_w{workers}"),
                value: measure_events_per_sec(|| sync_windows(mode, workers, windows), smoke),
            });
        }
    }
    let (n, rounds) = if smoke { (300, 6) } else { (1_000, 16) };
    let mut rng = Xoshiro256pp::stream(43, 0);
    let topo = Arc::new(k_out_random(n, paper::OUT_DEGREE, &mut rng).expect("valid topology"));
    for shards in [2usize, 4] {
        for threads in [1usize, 2, 4] {
            samples.push(Sample {
                id: format!("engine/s{shards}_t{threads}"),
                value: measure_events_per_sec(
                    || shard_gossip_run(&topo, rounds, Some((shards, threads))),
                    smoke,
                ),
            });
            // Work-distribution counts from one representative run: the
            // gate counts claims/steals/skips unconditionally (they live
            // under the gate lock), so no profiling env is needed. A
            // steal is a claim by a worker other than the shard's home
            // worker (`shard % threads`): zero whenever threads ≥ shards.
            let prof = shard_gossip_profile(&topo, rounds, shards, threads);
            for (what, value) in [
                ("gate_claims", prof.claims),
                ("gate_steals", prof.steals),
                ("gate_skipped", prof.skipped_windows),
            ] {
                samples.push(Sample {
                    id: format!("{what}/s{shards}_t{threads}"),
                    value: value as f64,
                });
            }
        }
    }
    samples
}

/// Runs the sharded gossip workload once and returns its profile block
/// (only the unconditional gate counts are meaningful without
/// `TA_PROFILE=1`).
fn shard_gossip_profile(
    topo: &Arc<ta_overlay::Topology>,
    rounds: u64,
    shards: usize,
    threads: usize,
) -> ta_telemetry::ProfileData {
    use ta_apps::gossip_learning::GossipLearning;
    use ta_sim::shard::{ShardOpts, ShardedSimulation};
    let n = topo.n();
    let cfg = SimConfig::builder(n)
        .delta(paper::DELTA)
        .transfer_time(paper::TRANSFER_TIME)
        .duration(paper::DELTA * rounds)
        .sample_period(paper::DELTA)
        .seed(37)
        .build()
        .expect("valid bench config");
    let app = GossipLearning::new(n, paper::TRANSFER_TIME, &vec![true; n]);
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let proto = TokenProtocol::new(Arc::clone(topo), strategy, app, vec![true; n]);
    let opts = ShardOpts { shards, threads };
    let mut sim = ShardedSimulation::new(cfg, &AlwaysOn, proto, opts);
    sim.run_to_end();
    sim.profile()
}

/// The `shard` section: the one-block run (`gossip/serial_engine`, an id
/// kept from when that was a separate engine, so the ledger's ratios stay
/// comparable) and multi-shard scaling at S ∈ {2, 4}. All runs are
/// byte-identical in results; only wall-clock differs.
fn bench_shard(smoke: bool) -> Vec<Sample> {
    let (n, rounds) = if smoke { (300, 6) } else { (2_000, 24) };
    let mut rng = Xoshiro256pp::stream(41, 0);
    let topo = Arc::new(k_out_random(n, paper::OUT_DEGREE, &mut rng).expect("valid topology"));
    let mut samples = vec![host_cores_sample()];
    samples.push(Sample {
        id: "gossip/serial_engine".into(),
        value: measure_events_per_sec(|| shard_gossip_run(&topo, rounds, None), smoke),
    });
    for (id, shards, threads) in [
        // s2_t1 runs two shards inline on the coordinator thread: it
        // isolates the window/gate machinery from thread context
        // switches (the two are indistinguishable in s2_t2 on one core).
        ("gossip/s2_t1", 2, 1),
        ("gossip/s2_t2", 2, 2),
        ("gossip/s4_t4", 4, 4),
    ] {
        samples.push(Sample {
            id: id.into(),
            value: measure_events_per_sec(
                || shard_gossip_run(&topo, rounds, Some((shards, threads))),
                smoke,
            ),
        });
    }
    samples
}

/// Times a micro sweep through the bounded-pool grid executor.
fn bench_sweep(smoke: bool) -> (f64, usize, usize) {
    let runs = 2;
    let mut base = ExperimentSpec::paper_defaults(
        AppKind::PushGossip,
        StrategySpec::Proactive,
        if smoke { 60 } else { 200 },
    )
    .with_rounds(if smoke { 10 } else { 40 })
    .with_runs(runs)
    .with_seed(7);
    base.topology = TopologyKind::KOut { k: 8 };
    let strategies = [
        StrategySpec::Proactive,
        StrategySpec::Simple { c: 10 },
        StrategySpec::Simple { c: 20 },
        StrategySpec::Generalized { a: 5, c: 10 },
        StrategySpec::Randomized { a: 5, c: 10 },
        StrategySpec::Randomized { a: 10, c: 20 },
    ];
    let specs: Vec<ExperimentSpec> = strategies
        .iter()
        .map(|&strategy| ExperimentSpec {
            strategy,
            ..base.clone()
        })
        .collect();
    let prepared = prepare_topology(&base).expect("bench topology generates");
    let start = Instant::now();
    let results = run_grid_prepared(&specs, &prepared).expect("bench sweep runs");
    let wall = start.elapsed().as_secs_f64();
    black_box(results.len());
    (
        wall,
        specs.len() * runs,
        ta_experiments::pool::max_workers(),
    )
}

/// Runs every section and writes the JSON report; returns the report text.
pub fn run(smoke: bool, out_path: &str) -> String {
    eprintln!(
        "bench_sim: event_queue ({})...",
        if smoke { "smoke" } else { "full" }
    );
    let queue_samples = bench_event_queue(smoke);
    eprintln!("bench_sim: batch...");
    let batch_samples = bench_batch(smoke);
    eprintln!("bench_sim: engine...");
    let engine_samples = bench_engine(smoke);
    eprintln!("bench_sim: protocol...");
    let protocol_samples = bench_protocol(smoke);
    eprintln!("bench_sim: shard...");
    let shard_samples = bench_shard(smoke);
    eprintln!("bench_sim: shard_sync...");
    let shard_sync_samples = bench_shard_sync(smoke);
    eprintln!("bench_sim: sweep...");
    let (sweep_wall, sweep_jobs, workers) = bench_sweep(smoke);

    // Headline speedups: the scheduler vs. its binary-heap fallback alone,
    // same run.
    let speedups = {
        let mut v = Vec::new();
        for name in ["uniform", "periodic"] {
            v.push(Sample {
                id: format!("event_queue_{name}_scheduler_vs_binary_heap"),
                value: find(&queue_samples, &format!("scheduler/{name}"))
                    / find(&queue_samples, &format!("binary_heap/{name}")),
            });
        }
        // Protocol-layer headlines: dispatch, sampling, end-to-end.
        v.push(Sample {
            id: "protocol_node_step_monomorphized_vs_boxed".into(),
            value: find(&protocol_samples, "node_step/monomorphized")
                / find(&protocol_samples, "node_step/boxed"),
        });
        v.push(Sample {
            id: "protocol_sampling_packed_vs_two_pass".into(),
            value: find(&protocol_samples, "sampling_churn/packed_mirror")
                / find(&protocol_samples, "sampling_churn/two_pass"),
        });
        v.push(Sample {
            id: "protocol_sampling_packed_vs_rejection".into(),
            value: find(&protocol_samples, "sampling_churn/packed_mirror")
                / find(&protocol_samples, "sampling_churn/rejection_fallback"),
        });
        v.push(Sample {
            id: "protocol_sgd_end_to_end_vs_legacy".into(),
            value: find(&protocol_samples, "sgd/monomorphized_arc")
                / find(&protocol_samples, "sgd/legacy_boxed_cloning"),
        });
        // What drain_ready buys over per-event pops on dense waves.
        v.push(Sample {
            id: "batch_dense_wave_drain_vs_pop_binary_heap".into(),
            value: find(&batch_samples, "dense_wave/binary_heap/drain")
                / find(&batch_samples, "dense_wave/binary_heap/pop"),
        });
        for (id, sample) in [
            ("shard_s2_vs_serial_engine", "gossip/s2_t2"),
            ("shard_s4_vs_serial_engine", "gossip/s4_t4"),
        ] {
            v.push(Sample {
                id: id.into(),
                value: find(&shard_samples, sample) / find(&shard_samples, "gossip/serial_engine"),
            });
        }
        // Per-window sync overhead: the pipeline's channel dispatch vs the
        // retired two-wait barrier rendezvous, pure-sync case.
        for w in [2, 4] {
            v.push(Sample {
                id: format!("shard_sync_channel_vs_barrier_w{w}"),
                value: find(&shard_sync_samples, &format!("empty_window/channel_w{w}"))
                    / find(&shard_sync_samples, &format!("empty_window/barrier_w{w}")),
            });
        }
        v
    };

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ta-bench-sim/v1\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        out,
        "  \"units\": {{ \"event_queue\": \"events/sec\", \"batch\": \"events/sec\", \"engine\": \"events/sec\", \"protocol\": \"events/sec\", \"shard\": \"events/sec\", \"shard_sync\": \"windows/sec (empty_window) or events/sec (engine)\", \"speedup\": \"ratio\", \"sweep\": \"seconds\" }},"
    );
    json_section(&mut out, "scale", &scale_samples(smoke), false);
    json_section(&mut out, "event_queue", &queue_samples, false);
    json_section(&mut out, "batch", &batch_samples, false);
    json_section(&mut out, "engine", &engine_samples, false);
    json_section(&mut out, "protocol", &protocol_samples, false);
    json_section(&mut out, "shard", &shard_samples, false);
    json_section(&mut out, "shard_sync", &shard_sync_samples, false);
    json_section(&mut out, "speedup", &speedups, false);
    let _ = writeln!(out, "  \"sweep\": {{");
    let _ = writeln!(out, "    \"wall_clock_seconds\": {sweep_wall:.3},");
    let _ = writeln!(out, "    \"jobs\": {sweep_jobs},");
    let _ = writeln!(out, "    \"pool_workers\": {workers}");
    let _ = writeln!(out, "  }}");
    out.push('}');
    out.push('\n');

    match std::fs::write(out_path, &out) {
        Ok(()) => eprintln!("bench_sim: wrote {out_path}"),
        Err(e) => {
            eprintln!("bench_sim: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    out
}

/// Prints a metric-by-metric comparison of `current` against the
/// baseline report at `baseline_path` (typically the committed
/// `BENCH_sim.json`). Value movement never fails; returns `false` on
/// report **schema** drift — a section name present in only one of the
/// two reports (see [`crate::report::section_drift`]) — so a harness
/// refactor cannot silently drop a comparison family like the `batch`
/// rows.
#[must_use]
pub fn diff_report(current: &str, baseline_path: &str) -> bool {
    crate::report::diff_report(
        current,
        baseline_path,
        &[
            "sweep/",
            "speedup/",
            "scale/",
            "shard/host_cores",
            "shard_sync/host_cores",
        ],
    )
}

/// CLI entry: `bench_sim [--test] [--out PATH] [--diff BASELINE]`.
pub fn run_from_args() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--test" || a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let diff_base = args
        .iter()
        .position(|a| a == "--diff")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let report = run(smoke, &out_path);
    println!("{report}");
    if let Some(base) = diff_base {
        if !diff_report(&report, &base) {
            eprintln!("bench_sim: report schema drifted from {base}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed_and_complete() {
        let dir = std::env::temp_dir().join(format!("ta-bench-sim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sim.json");
        let report = run(true, path.to_str().unwrap());
        assert!(report.starts_with('{') && report.trim_end().ends_with('}'));
        for key in [
            "\"scale\"",
            "host_cores",
            "\"batch\"",
            "dense_wave/binary_heap/pop",
            "dense_wave/binary_heap/drain",
            "batch_dense_wave_drain_vs_pop_binary_heap",
            "echo/scheduler",
            "push_gossip/scheduler",
            "sgd/legacy_boxed_cloning",
            "sgd/monomorphized_arc",
            "\"event_queue\"",
            "\"engine\"",
            "\"protocol\"",
            "\"speedup\"",
            "\"sweep\"",
            "binary_heap/periodic",
            "scheduler/periodic",
            "event_queue_periodic_scheduler_vs_binary_heap",
            "node_step/boxed",
            "node_step/monomorphized",
            "sampling_churn/two_pass",
            "sampling_churn/rejection_fallback",
            "sampling_churn/packed_mirror",
            "protocol_node_step_monomorphized_vs_boxed",
            "protocol_sampling_packed_vs_two_pass",
            "protocol_sgd_end_to_end_vs_legacy",
            "\"shard\"",
            "gossip/serial_engine",
            "gossip/s2_t1",
            "gossip/s2_t2",
            "gossip/s4_t4",
            "shard_s2_vs_serial_engine",
            "\"shard_sync\"",
            "empty_window/barrier_w2",
            "empty_window/channel_w2",
            "empty_window/barrier_w4",
            "empty_window/channel_w4",
            "engine/s2_t1",
            "engine/s2_t2",
            "engine/s2_t4",
            "engine/s4_t1",
            "engine/s4_t2",
            "engine/s4_t4",
            "shard_sync_channel_vs_barrier_w2",
            "shard_sync_channel_vs_barrier_w4",
            "wall_clock_seconds",
        ] {
            assert!(report.contains(key), "missing {key} in report:\n{report}");
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diff_report_survives_missing_baseline() {
        // Must not panic or fail on a nonexistent path.
        assert!(diff_report("{}", "/nonexistent/baseline.json"));
    }

    #[test]
    fn diff_report_fails_on_section_drift() {
        let dir = std::env::temp_dir().join(format!("ta-bench-drift-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("baseline.json");
        std::fs::write(
            &base_path,
            "{\n  \"engine\": {\n    \"x\": 1.0\n  },\n  \"batch\": {\n    \"y\": 2.0\n  }\n}\n",
        )
        .unwrap();
        // Same sections: passes.
        let ok =
            "{\n  \"engine\": {\n    \"x\": 9.0\n  },\n  \"batch\": {\n    \"y\": 8.0\n  }\n}\n";
        assert!(diff_report(ok, base_path.to_str().unwrap()));
        // Dropped `batch` section: schema drift, must fail.
        let dropped = "{\n  \"engine\": {\n    \"x\": 9.0\n  }\n}\n";
        assert!(!diff_report(dropped, base_path.to_str().unwrap()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
