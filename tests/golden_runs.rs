//! Absolute pins of the engine's behaviour.
//!
//! Most equivalence tests in the workspace compare two executions with
//! each other (scheduler against heap, S shards against one). This one
//! holds constants: an FNV-1a digest over `SimStats`, `ProtocolStats`, the
//! bit patterns of the metric and token series, `sends_per_slot` and
//! `balances_sum`, for every cell of
//!
//! {gossip learning, push gossip (plain, pull-on-rejoin, injection
//! reaction), SGD gossip learning, chaotic iteration}
//! × {proactive, simple, generalized, randomized}
//! × {failure-free, smartphone churn} × `drop_probability` ∈ {0, 0.3},
//!
//! which the engine must reproduce at S = 1, and which every shardable
//! cell must reproduce at S ∈ {2, 3, 4} × T ∈ {1, 2}. A second table pins
//! the experiment runner end to end, whatever shard layout the runner
//! picks for the pool it finds (CI runs it on two and on four workers).
//!
//! The constants were generated by the serial `Simulation` event loop of
//! commit 23bb7fb, the last one that had a serial loop of its own, on
//! `BinaryHeapQueue` alone. They
//! are never regenerated: a mismatch means the engine's observable
//! behaviour moved.

use std::sync::Arc;

use ta_apps::chaotic::ChaoticIteration;
use ta_apps::gossip_learning::GossipLearning;
use ta_apps::protocol::{ProtocolStats, TokenProtocol};
use ta_apps::push_gossip::PushGossip;
use ta_apps::sgd::{RegressionData, SgdGossipLearning};
use ta_apps::{Application, ShardableApplication};
use ta_churn::{AvailabilitySchedule, SmartphoneTraceModel};
use ta_experiments::{run_experiment, AppKind, ExperimentSpec, TopologyKind};
use ta_metrics::TimeSeries;
use ta_overlay::generators::k_out_random;
use ta_overlay::Topology;
use ta_sim::config::SimConfig;
use ta_sim::engine::{SimStats, Simulation};
use ta_sim::rng::Xoshiro256pp;
use ta_sim::shard::{ShardOpts, ShardedSimulation};
use ta_sim::{NodeId, SimDuration};
use token_account::StrategySpec;

const N: usize = 40;
const DELTA: SimDuration = SimDuration::from_micros(172_800_000);
/// A fifth of Δ instead of the paper's hundredth: a twentieth of the
/// windows for the sharded cells to synchronise on, the same code paths.
const TRANSFER: SimDuration = SimDuration::from_micros(34_560_000);
const ROUNDS: u64 = 20;

const STRATEGIES: [(&str, StrategySpec); 4] = [
    ("proactive", StrategySpec::Proactive),
    ("simple", StrategySpec::Simple { c: 10 }),
    ("generalized", StrategySpec::Generalized { a: 5, c: 10 }),
    ("randomized", StrategySpec::Randomized { a: 5, c: 10 }),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn series(&mut self, ts: &TimeSeries) {
        self.word(ts.len() as u64);
        for (t, v) in ts.iter() {
            self.word(t.to_bits());
            self.word(v.to_bits());
        }
    }

    fn sim(&mut self, s: &SimStats) {
        for w in [
            s.messages_sent,
            s.messages_delivered,
            s.messages_lost_offline,
            s.messages_dropped_fault,
            s.ticks_fired,
            s.ticks_stale,
            s.samples,
            s.injections,
            s.events_processed,
        ] {
            self.word(w);
        }
    }

    fn protocol(&mut self, p: &ProtocolStats) {
        for w in [
            p.proactive_sent,
            p.reactive_sent,
            p.tokens_banked,
            p.proactive_skipped,
            p.reactive_refunded,
            p.pull_requests,
            p.pull_replies,
            p.pull_ignored,
        ] {
            self.word(w);
        }
    }

    fn slots(&mut self, slots: &[u64]) {
        self.word(slots.len() as u64);
        for &s in slots {
            self.word(s);
        }
    }
}

fn digest_of<A: Application>(proto: TokenProtocol<A>, sim: SimStats) -> u64 {
    let r = proto.into_results();
    let mut h = Fnv::new();
    h.sim(&sim);
    h.protocol(&r.stats);
    h.series(&r.metric);
    h.series(&r.tokens);
    h.slots(&r.sends_per_slot);
    h.word(r.balances_sum as u64);
    h.0
}

/// Protocol options of one cell, beyond application and strategy.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Plain,
    PullOnRejoin,
    InjectionReaction,
}

/// One run of one cell. `opts` is `None` for the S = 1 `Simulation`.
struct Cell<'a, A> {
    cfg: SimConfig,
    schedule: &'a AvailabilitySchedule,
    topo: &'a Arc<Topology>,
    app: A,
    variant: Variant,
    opts: Option<ShardOpts>,
}

impl<A: Application> Cell<'_, A> {
    fn protocol(self, strategy: StrategySpec) -> (SimConfig, TokenProtocol<A>) {
        let initial = initial_online(self.schedule);
        let strategy = strategy.build().expect("golden strategies are valid");
        let proto = TokenProtocol::new(Arc::clone(self.topo), strategy, self.app, initial)
            .with_token_recording();
        let proto = match self.variant {
            Variant::Plain => proto,
            Variant::PullOnRejoin => proto.with_pull_on_rejoin(),
            Variant::InjectionReaction => proto.with_pull_on_rejoin().with_injection_reaction(),
        };
        (self.cfg, proto)
    }
}

fn initial_online(schedule: &AvailabilitySchedule) -> Vec<bool> {
    (0..schedule.n())
        .map(|i| schedule.segment(NodeId::from_index(i)).initial_online)
        .collect()
}

/// S = 1 through `Simulation`: any application.
fn whole<A: Application>(strategy: StrategySpec, cell: Cell<'_, A>) -> u64 {
    let schedule = cell.schedule;
    let (cfg, proto) = cell.protocol(strategy);
    let mut sim = Simulation::new(cfg, schedule, proto);
    sim.run_to_end();
    let (proto, stats) = sim.into_parts();
    digest_of(proto, stats)
}

/// S ≥ 1 through `ShardedSimulation` when the cell carries shard options:
/// shardable applications.
fn dispatch<A>(strategy: StrategySpec, cell: Cell<'_, A>) -> u64
where
    A: ShardableApplication + Send,
    A::Msg: Send,
{
    let Some(opts) = cell.opts else {
        return whole(strategy, cell);
    };
    let schedule = cell.schedule;
    let (cfg, proto) = cell.protocol(strategy);
    let mut sim = ShardedSimulation::new(cfg, schedule, proto, opts);
    sim.run_to_end();
    let (proto, stats) = sim.into_parts();
    digest_of(proto, stats)
}

fn config(drop: f64, inject: bool) -> SimConfig {
    let mut b = SimConfig::builder(N)
        .delta(DELTA)
        .transfer_time(TRANSFER)
        .duration(DELTA * ROUNDS)
        .sample_period(DELTA)
        .drop_probability(drop)
        .seed(0x601d);
    if inject {
        b = b.injection_period(DELTA / 10);
    }
    b.build().expect("valid golden config")
}

fn topology() -> Arc<Topology> {
    let mut rng = Xoshiro256pp::stream(0x601d, 1);
    Arc::new(k_out_random(N, 6, &mut rng).expect("valid k-out overlay"))
}

fn schedule(churn: bool) -> AvailabilitySchedule {
    if churn {
        // Ten times the default churn rate: a 20-round run is one hour of
        // the two-day trace, and most nodes should flip in it.
        let model = SmartphoneTraceModel {
            churn_rate_mean: 2.2,
            churn_rate_amplitude: 0.8,
            ..SmartphoneTraceModel::default()
        };
        model.generate(N, DELTA * ROUNDS, 0x601d)
    } else {
        AvailabilitySchedule::always_on(N)
    }
}

/// The shard layouts every shardable cell must reproduce its constant
/// under: S x T.
fn layouts() -> impl Iterator<Item = ShardOpts> {
    [2, 3, 4]
        .into_iter()
        .flat_map(|shards| [1, 2].map(|threads| ShardOpts { shards, threads }))
}

/// Runs every cell of one application family and compares with `golden`,
/// listing the whole measured table on any mismatch (that is also how the
/// table was first produced).
///
/// `run(strategy, variant, churn, drop, opts)` executes one cell; `opts` is
/// `None` for the S = 1 engine and never `Some` for unshardable families.
fn check_family(
    family: &str,
    variants: &[VariantCells],
    shardable: bool,
    golden: &[u64],
    run: impl Fn(StrategySpec, Variant, bool, f64, Option<ShardOpts>) -> u64,
) {
    let mut measured = Vec::new();
    let mut failures = Vec::new();
    for &(vname, variant, grid) in variants {
        for &(sname, strategy) in &STRATEGIES {
            for &(churn, drop) in grid {
                {
                    let label = format!("{family}{vname}/{sname}/churn={churn}/drop={drop}");
                    let want = golden.get(measured.len()).copied();
                    let whole = run(strategy, variant, churn, drop, None);
                    measured.push((label.clone(), whole));
                    if want != Some(whole) {
                        failures.push(format!("{label}: S=1 {whole:#018x}, want {want:x?}"));
                        continue;
                    }
                    if !shardable {
                        continue;
                    }
                    for opts in layouts() {
                        let got = run(strategy, variant, churn, drop, Some(opts));
                        if got != whole {
                            failures.push(format!("{label}: {opts:?} {got:#018x}"));
                        }
                    }
                }
            }
        }
    }
    if !failures.is_empty() || measured.len() != golden.len() {
        let table: Vec<String> = measured
            .iter()
            .map(|(label, d)| format!("    {d:#018x}, // {label}"))
            .collect();
        panic!(
            "{} golden mismatches in `{family}`:\n{}\nmeasured table:\n{}",
            failures.len(),
            failures.join("\n"),
            table.join("\n")
        );
    }
}

/// `(smartphone churn, drop_probability)` pairs.
type Grid = &'static [(bool, f64)];
/// A label suffix, the protocol options, and the grid they run on.
type VariantCells = (&'static str, Variant, Grid);

const FULL_GRID: Grid = &[(false, 0.0), (false, 0.3), (true, 0.0), (true, 0.3)];
const PLAIN: [VariantCells; 1] = [("", Variant::Plain, FULL_GRID)];

#[test]
fn gossip_learning_cells() {
    let topo = topology();
    check_family(
        "gossip-learning",
        &PLAIN,
        true,
        &GOSSIP_LEARNING,
        |strategy, variant, churn, drop, opts| {
            let schedule = schedule(churn);
            let app = GossipLearning::new(N, TRANSFER, &initial_online(&schedule));
            let cell = Cell {
                cfg: config(drop, false),
                schedule: &schedule,
                topo: &topo,
                app,
                variant,
                opts,
            };
            dispatch(strategy, cell)
        },
    );
}

#[test]
fn push_gossip_cells() {
    let topo = topology();
    check_family(
        "push-gossip",
        &[
            ("", Variant::Plain, FULL_GRID),
            // A pull request needs a rejoin.
            ("+pull", Variant::PullOnRejoin, &[(true, 0.0), (true, 0.3)]),
            (
                "+pull+react",
                Variant::InjectionReaction,
                &[(false, 0.0), (true, 0.3)],
            ),
        ],
        true,
        &PUSH_GOSSIP,
        |strategy, variant, churn, drop, opts| {
            let schedule = schedule(churn);
            let app = PushGossip::new(N, &initial_online(&schedule));
            let cell = Cell {
                cfg: config(drop, true),
                schedule: &schedule,
                topo: &topo,
                app,
                variant,
                opts,
            };
            dispatch(strategy, cell)
        },
    );
}

#[test]
fn sgd_gossip_learning_cells() {
    let topo = topology();
    let data = RegressionData::generate(N, 4, 0.05, 0x601d);
    check_family(
        "sgd",
        &PLAIN,
        true,
        &SGD,
        |strategy, variant, churn, drop, opts| {
            let schedule = schedule(churn);
            let app = SgdGossipLearning::new(data.clone(), 0.15);
            let cell = Cell {
                cfg: config(drop, false),
                schedule: &schedule,
                topo: &topo,
                app,
                variant,
                opts,
            };
            dispatch(strategy, cell)
        },
    );
}

#[test]
fn chaotic_iteration_cells() {
    let topo = topology();
    check_family(
        "chaotic",
        &PLAIN,
        false,
        &CHAOTIC,
        |strategy, variant, churn, drop, opts| {
            let schedule = schedule(churn);
            let mut app = ChaoticIteration::new(Arc::clone(&topo)).expect("k-out is stochastic");
            app.randomize_buffers(&mut Xoshiro256pp::stream(0x601d, 2));
            let cell = Cell {
                cfg: config(drop, false),
                schedule: &schedule,
                topo: &topo,
                app,
                variant,
                opts,
            };
            assert!(cell.opts.is_none(), "chaotic iteration is not shardable");
            whole(strategy, cell)
        },
    );
}

/// The experiment runner end to end (`run_experiment`, two replicas per
/// cell on the pool): whatever `TA_THREADS` says, and so whatever shard
/// layout the runner picks, these are the numbers.
#[test]
fn runner_cells() {
    let mut measured = Vec::new();
    for app in [
        AppKind::GossipLearning,
        AppKind::PushGossip,
        AppKind::ChaoticIteration,
    ] {
        for &(sname, strategy) in &STRATEGIES {
            for churn in [false, true] {
                for drop in [0.0, 0.3] {
                    let mut spec = ExperimentSpec::paper_defaults(app, strategy, 60)
                        .with_rounds(30)
                        .with_runs(2)
                        .with_seed(0x601d)
                        .with_token_recording()
                        .with_drop_probability(drop);
                    if !matches!(app, AppKind::ChaoticIteration) {
                        spec.topology = TopologyKind::KOut { k: 8 };
                    }
                    if churn {
                        spec = spec.with_smartphone_churn();
                    }
                    let result = run_experiment(&spec).expect("golden specs are valid");
                    let mut h = Fnv::new();
                    h.series(&result.metric);
                    h.series(&result.tokens);
                    for run in &result.runs {
                        h.sim(&run.sim);
                        h.protocol(&run.protocol);
                        h.series(&run.metric);
                        h.series(&run.tokens);
                        h.slots(&run.sends_per_slot);
                    }
                    let label = format!("{}/{sname}/churn={churn}/drop={drop}", app.name());
                    measured.push((label, h.0));
                }
            }
        }
    }
    let got: Vec<u64> = measured.iter().map(|&(_, d)| d).collect();
    if got != RUNNER {
        let table: Vec<String> = measured
            .iter()
            .map(|(label, d)| format!("    {d:#018x}, // {label}"))
            .collect();
        panic!(
            "runner golden mismatch; measured table:\n{}",
            table.join("\n")
        );
    }
}

const GOSSIP_LEARNING: [u64; 16] = [
    0x088cad66cc686ed5, // gossip-learning/proactive/churn=false/drop=0
    0x5833aeea53454f9e, // gossip-learning/proactive/churn=false/drop=0.3
    0xbba91f67ef1bd293, // gossip-learning/proactive/churn=true/drop=0
    0x46999207239466f3, // gossip-learning/proactive/churn=true/drop=0.3
    0x5aa966b4ac9dab65, // gossip-learning/simple/churn=false/drop=0
    0xffa4903212b9133a, // gossip-learning/simple/churn=false/drop=0.3
    0xf3b0e20eb8f78231, // gossip-learning/simple/churn=true/drop=0
    0x98e15f8229fa4edd, // gossip-learning/simple/churn=true/drop=0.3
    0x2389eda69342350e, // gossip-learning/generalized/churn=false/drop=0
    0x4d42d1b53ac739d6, // gossip-learning/generalized/churn=false/drop=0.3
    0xd778e253dde26f95, // gossip-learning/generalized/churn=true/drop=0
    0x8baa3d7dd88391e2, // gossip-learning/generalized/churn=true/drop=0.3
    0x4bbc336ef9cd7f62, // gossip-learning/randomized/churn=false/drop=0
    0x10b8aba8f162e7fc, // gossip-learning/randomized/churn=false/drop=0.3
    0x234326ae04494442, // gossip-learning/randomized/churn=true/drop=0
    0x984ce68881831fd1, // gossip-learning/randomized/churn=true/drop=0.3
];
const PUSH_GOSSIP: [u64; 32] = [
    0x7c4b866254e56a0b, // push-gossip/proactive/churn=false/drop=0
    0x7016eabc32ce58a9, // push-gossip/proactive/churn=false/drop=0.3
    0x64a6e9f182bca670, // push-gossip/proactive/churn=true/drop=0
    0x253af881eb14937e, // push-gossip/proactive/churn=true/drop=0.3
    0xc48f71b65744579e, // push-gossip/simple/churn=false/drop=0
    0x3f80f43f617dc4da, // push-gossip/simple/churn=false/drop=0.3
    0x5bb797cc181648b4, // push-gossip/simple/churn=true/drop=0
    0x68ff75e14f30e4e2, // push-gossip/simple/churn=true/drop=0.3
    0x2a970a8a3313e395, // push-gossip/generalized/churn=false/drop=0
    0x691c6dc0803059ed, // push-gossip/generalized/churn=false/drop=0.3
    0x9d4c71daafb65d90, // push-gossip/generalized/churn=true/drop=0
    0xc748f2655e3f4956, // push-gossip/generalized/churn=true/drop=0.3
    0xaa8bffb776ba1141, // push-gossip/randomized/churn=false/drop=0
    0xd44d5e891dd9c435, // push-gossip/randomized/churn=false/drop=0.3
    0x6bdd4019f1979643, // push-gossip/randomized/churn=true/drop=0
    0xd31a8995fb613658, // push-gossip/randomized/churn=true/drop=0.3
    0x645ba9398bd6b9e0, // push-gossip+pull/proactive/churn=true/drop=0
    0x07a596bbb3a6e21a, // push-gossip+pull/proactive/churn=true/drop=0.3
    0xecff2443ece0e4a1, // push-gossip+pull/simple/churn=true/drop=0
    0x94f2d17faf02e373, // push-gossip+pull/simple/churn=true/drop=0.3
    0xdbde92780c5b9d70, // push-gossip+pull/generalized/churn=true/drop=0
    0x46a182e02186b9e5, // push-gossip+pull/generalized/churn=true/drop=0.3
    0xa8933725c81f0c84, // push-gossip+pull/randomized/churn=true/drop=0
    0x881d08855f4cb948, // push-gossip+pull/randomized/churn=true/drop=0.3
    0x7c4b866254e56a0b, // push-gossip+pull+react/proactive/churn=false/drop=0
    0x07a596bbb3a6e21a, // push-gossip+pull+react/proactive/churn=true/drop=0.3
    0x883e0fb30437e538, // push-gossip+pull+react/simple/churn=false/drop=0
    0x2998a276bee399c1, // push-gossip+pull+react/simple/churn=true/drop=0.3
    0x7df74162c213fccc, // push-gossip+pull+react/generalized/churn=false/drop=0
    0x2df9572d490abd72, // push-gossip+pull+react/generalized/churn=true/drop=0.3
    0x3b7290da7b8c1f2a, // push-gossip+pull+react/randomized/churn=false/drop=0
    0x9c58132352ac808a, // push-gossip+pull+react/randomized/churn=true/drop=0.3
];
const SGD: [u64; 16] = [
    0xf0dc32a26e2dbf52, // sgd/proactive/churn=false/drop=0
    0xb00ced16286ab078, // sgd/proactive/churn=false/drop=0.3
    0x2e78ee775f4030a1, // sgd/proactive/churn=true/drop=0
    0xca47a8463785533c, // sgd/proactive/churn=true/drop=0.3
    0x6b6ec3a40a349df8, // sgd/simple/churn=false/drop=0
    0xbffab8db70a8c406, // sgd/simple/churn=false/drop=0.3
    0x122b1fe1cc823933, // sgd/simple/churn=true/drop=0
    0x8d7b9f97500583f7, // sgd/simple/churn=true/drop=0.3
    0x0ddf7e793a60d051, // sgd/generalized/churn=false/drop=0
    0x2f27dd21fd31ea0d, // sgd/generalized/churn=false/drop=0.3
    0xe1748086c7854450, // sgd/generalized/churn=true/drop=0
    0xf480a31fc5f0535b, // sgd/generalized/churn=true/drop=0.3
    0x9e4a9afaf909c7be, // sgd/randomized/churn=false/drop=0
    0xd8cf11ba9b5f2b69, // sgd/randomized/churn=false/drop=0.3
    0x32b0f344a345f905, // sgd/randomized/churn=true/drop=0
    0x4dab90be790dee58, // sgd/randomized/churn=true/drop=0.3
];
const CHAOTIC: [u64; 16] = [
    0x2fd411f1cd7b9692, // chaotic/proactive/churn=false/drop=0
    0x39d5858a52fa1652, // chaotic/proactive/churn=false/drop=0.3
    0xe91c515d3831dd8a, // chaotic/proactive/churn=true/drop=0
    0x0a0121ff07e6d6da, // chaotic/proactive/churn=true/drop=0.3
    0x0f0bd7e1bbdf6fb3, // chaotic/simple/churn=false/drop=0
    0xf114a4646058634d, // chaotic/simple/churn=false/drop=0.3
    0x6dbb08268e6c381f, // chaotic/simple/churn=true/drop=0
    0xf6476d1c1aeb374e, // chaotic/simple/churn=true/drop=0.3
    0xb226bdfe46131262, // chaotic/generalized/churn=false/drop=0
    0x15e7d673166cada9, // chaotic/generalized/churn=false/drop=0.3
    0x57f9711ccbda3451, // chaotic/generalized/churn=true/drop=0
    0xbd2a66f5e40b3b95, // chaotic/generalized/churn=true/drop=0.3
    0x7aa913907389854f, // chaotic/randomized/churn=false/drop=0
    0xd172a98248b96517, // chaotic/randomized/churn=false/drop=0.3
    0x2289af2c630226bf, // chaotic/randomized/churn=true/drop=0
    0xac456f0d5733a823, // chaotic/randomized/churn=true/drop=0.3
];
const RUNNER: [u64; 48] = [
    0x844bcd9d31f6b639, // gossip-learning/proactive/churn=false/drop=0
    0xc32d1b0ba78f3dd0, // gossip-learning/proactive/churn=false/drop=0.3
    0xd841f90456183902, // gossip-learning/proactive/churn=true/drop=0
    0x92474a793922c1de, // gossip-learning/proactive/churn=true/drop=0.3
    0x3a8484635b58c54c, // gossip-learning/simple/churn=false/drop=0
    0xd328bb123ac8203f, // gossip-learning/simple/churn=false/drop=0.3
    0xbc46a0b35ab88b98, // gossip-learning/simple/churn=true/drop=0
    0xc6d1a0fb026c1366, // gossip-learning/simple/churn=true/drop=0.3
    0xd9939d75ab1ae897, // gossip-learning/generalized/churn=false/drop=0
    0xeae7c723dea6179c, // gossip-learning/generalized/churn=false/drop=0.3
    0x542f66a6c50ab289, // gossip-learning/generalized/churn=true/drop=0
    0xa1c0137282795215, // gossip-learning/generalized/churn=true/drop=0.3
    0x9010ba7d13c7ec4c, // gossip-learning/randomized/churn=false/drop=0
    0x1a5260c4521a0fec, // gossip-learning/randomized/churn=false/drop=0.3
    0xc97b6ca68b466d18, // gossip-learning/randomized/churn=true/drop=0
    0xb1babd63aa9f9836, // gossip-learning/randomized/churn=true/drop=0.3
    0x1ed1836fe19fe8fb, // push-gossip/proactive/churn=false/drop=0
    0xfa414864bcd5eff8, // push-gossip/proactive/churn=false/drop=0.3
    0xe1fbe22a043a48fa, // push-gossip/proactive/churn=true/drop=0
    0x8d1f9d1adffc8c2b, // push-gossip/proactive/churn=true/drop=0.3
    0xd8d0ef1ff4ba7e82, // push-gossip/simple/churn=false/drop=0
    0x921fd276f11316af, // push-gossip/simple/churn=false/drop=0.3
    0x26db1c6c97b742b3, // push-gossip/simple/churn=true/drop=0
    0xff5743ed8bfa3948, // push-gossip/simple/churn=true/drop=0.3
    0xecfabe94a0d5bfe4, // push-gossip/generalized/churn=false/drop=0
    0x437e99b5026f4ece, // push-gossip/generalized/churn=false/drop=0.3
    0x2c39d050741e1d57, // push-gossip/generalized/churn=true/drop=0
    0xabf352c8b142f726, // push-gossip/generalized/churn=true/drop=0.3
    0xe13e062b74a97da5, // push-gossip/randomized/churn=false/drop=0
    0x938516f6be0807be, // push-gossip/randomized/churn=false/drop=0.3
    0x32a317ad309cefff, // push-gossip/randomized/churn=true/drop=0
    0xb16add8065929b05, // push-gossip/randomized/churn=true/drop=0.3
    0x6680b1ea7101c0f5, // chaotic-iteration/proactive/churn=false/drop=0
    0xafe92568a06fffcc, // chaotic-iteration/proactive/churn=false/drop=0.3
    0xcf27d49344b11c3a, // chaotic-iteration/proactive/churn=true/drop=0
    0xb57e11e87974bce0, // chaotic-iteration/proactive/churn=true/drop=0.3
    0x71bd9e25b6f38ace, // chaotic-iteration/simple/churn=false/drop=0
    0x5c93aa24fd76a5be, // chaotic-iteration/simple/churn=false/drop=0.3
    0xc97ef7cab84fbb3f, // chaotic-iteration/simple/churn=true/drop=0
    0x27c040e5c84ef6e2, // chaotic-iteration/simple/churn=true/drop=0.3
    0xa7a390d09957540a, // chaotic-iteration/generalized/churn=false/drop=0
    0x106c5aa7faea5a39, // chaotic-iteration/generalized/churn=false/drop=0.3
    0x5bf5f2958445cf11, // chaotic-iteration/generalized/churn=true/drop=0
    0xebc2f4245554348b, // chaotic-iteration/generalized/churn=true/drop=0.3
    0xfab0634e3e8b6da2, // chaotic-iteration/randomized/churn=false/drop=0
    0x9e8aa39614a132d2, // chaotic-iteration/randomized/churn=false/drop=0.3
    0xe938728fcbbd20e3, // chaotic-iteration/randomized/churn=true/drop=0
    0x31f7f3eefafb508d, // chaotic-iteration/randomized/churn=true/drop=0.3
];
