//! The sharded engine's core guarantee, exercised at the `ta-sim` level
//! with a toy protocol that touches every event type: ticks, deliveries,
//! reactive replies, timers, churn, sampling, injection, and fault drops.
//! Serial and sharded runs must be **byte-identical** for every shard
//! count, thread count, pin setting, and queue implementation — including
//! when tail-stealing between home lanes is doing the load balancing (the
//! imbalanced-topology test below) — and a shard must never leave its
//! home worker when there are as many workers as shards.

use ta_sim::config::{QueueKind, SimConfig};
use ta_sim::engine::{AvailabilityModel, Driver, SimApi, Simulation};
use ta_sim::shard::{
    BarrierApi, ShardApi, ShardDriver, ShardOpts, ShardPlan, ShardableDriver, ShardedSimulation,
};
use ta_sim::{NodeId, SimDuration, SimStats, SimTime};

/// Toy protocol state: two per-node counters plus a sampled series.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Toy {
    counts: Vec<u64>,
    accs: Vec<u64>,
    samples: Vec<(u64, u64)>,
}

impl Toy {
    fn new(n: usize) -> Self {
        Toy {
            counts: vec![0; n],
            accs: vec![0; n],
            samples: Vec::new(),
        }
    }
}

/// Shared per-event logic so the serial and sharded implementations cannot
/// drift: everything is expressed against the node-local slices.
fn toy_tick(count: &mut u64, rng_draw: u64, node: NodeId, n: usize) -> (NodeId, u64) {
    *count += 1;
    let to = NodeId::from_index((node.index() + 1 + (rng_draw % 5) as usize) % n);
    (to, rng_draw)
}

fn timer_token(node: NodeId, msg: u64) -> u64 {
    ((node.raw() as u64) << 32) | (msg & 0xffff)
}

impl Driver for Toy {
    type Msg = u64;

    fn on_round_tick(&mut self, api: &mut SimApi<'_, u64>, node: NodeId) {
        let draw = api.rng().next();
        let (to, msg) = toy_tick(&mut self.counts[node.index()], draw, node, api.n());
        api.send(node, to, msg);
    }

    fn on_message(&mut self, api: &mut SimApi<'_, u64>, from: NodeId, to: NodeId, msg: u64) {
        self.accs[to.index()] = self.accs[to.index()].wrapping_add(msg);
        if msg.is_multiple_of(3) {
            api.send(to, from, msg / 3 + 1);
        }
        if msg.is_multiple_of(16) {
            let delay = SimDuration::from_millis(1 + msg % 900);
            api.schedule_timer(delay, timer_token(to, msg));
        }
    }

    fn on_timer(&mut self, api: &mut SimApi<'_, u64>, token: u64) {
        let node = NodeId::new((token >> 32) as u32);
        self.accs[node.index()] ^= token;
        let draw = api.rng().next();
        let to = NodeId::from_index((node.index() + 2) % api.n());
        api.send(node, to, draw | 1);
    }

    fn on_node_up(&mut self, _api: &mut SimApi<'_, u64>, node: NodeId) {
        self.counts[node.index()] += 1000;
    }

    fn on_node_down(&mut self, _api: &mut SimApi<'_, u64>, node: NodeId) {
        self.counts[node.index()] += 1_000_000;
    }

    fn on_sample(&mut self, api: &mut SimApi<'_, u64>) {
        let total: u64 = self
            .counts
            .iter()
            .zip(&self.accs)
            .map(|(c, a)| c.wrapping_add(*a))
            .fold(0u64, |s, v| s.wrapping_add(v));
        self.samples.push((api.now().as_micros(), total));
    }

    fn on_inject(&mut self, api: &mut SimApi<'_, u64>) {
        if let Some(target) = api.random_online_node() {
            self.accs[target.index()] = self.accs[target.index()].wrapping_add(7);
            let draw = api.rng().next();
            let to = NodeId::from_index((target.index() + 2) % api.n());
            api.send(target, to, draw);
        }
    }
}

/// One shard's block of the toy state.
#[derive(Debug)]
struct ToyShard {
    base: usize,
    counts: Vec<u64>,
    accs: Vec<u64>,
}

impl ToyShard {
    #[inline]
    fn l(&self, node: NodeId) -> usize {
        node.index() - self.base
    }
}

#[derive(Debug)]
struct ToyGlobal {
    samples: Vec<(u64, u64)>,
}

impl ShardDriver for ToyShard {
    type Msg = u64;

    fn on_round_tick(&mut self, api: &mut ShardApi<'_, u64>, node: NodeId) {
        let draw = api.rng().next();
        let local = self.l(node);
        let (to, msg) = toy_tick(&mut self.counts[local], draw, node, api.n());
        api.send(node, to, msg);
    }

    fn on_message(&mut self, api: &mut ShardApi<'_, u64>, from: NodeId, to: NodeId, msg: u64) {
        let local = self.l(to);
        self.accs[local] = self.accs[local].wrapping_add(msg);
        if msg.is_multiple_of(3) {
            api.send(to, from, msg / 3 + 1);
        }
        if msg.is_multiple_of(16) {
            let delay = SimDuration::from_millis(1 + msg % 900);
            api.schedule_timer(delay, timer_token(to, msg));
        }
    }

    fn on_timer(&mut self, api: &mut ShardApi<'_, u64>, node: NodeId, token: u64) {
        let local = self.l(node);
        self.accs[local] ^= token;
        let draw = api.rng().next();
        let to = NodeId::from_index((node.index() + 2) % api.n());
        api.send(node, to, draw | 1);
    }

    fn on_node_up(&mut self, _api: &mut ShardApi<'_, u64>, node: NodeId, owned: bool) {
        if owned {
            let local = self.l(node);
            self.counts[local] += 1000;
        }
    }

    fn on_node_down(&mut self, _api: &mut ShardApi<'_, u64>, node: NodeId, owned: bool) {
        if owned {
            let local = self.l(node);
            self.counts[local] += 1_000_000;
        }
    }
}

impl ShardableDriver for Toy {
    type Shard = ToyShard;
    type Global = ToyGlobal;

    fn split(self, plan: &ShardPlan) -> (ToyGlobal, Vec<ToyShard>) {
        let mut counts = self.counts;
        let mut accs = self.accs;
        let mut shards = Vec::with_capacity(plan.shards());
        for s in (0..plan.shards()).rev() {
            let range = plan.range(s);
            shards.push(ToyShard {
                base: range.start,
                counts: counts.split_off(range.start),
                accs: accs.split_off(range.start),
            });
        }
        shards.reverse();
        (
            ToyGlobal {
                samples: self.samples,
            },
            shards,
        )
    }

    fn merge(_plan: &ShardPlan, global: ToyGlobal, shards: Vec<ToyShard>) -> Self {
        let mut counts = Vec::new();
        let mut accs = Vec::new();
        for s in shards {
            counts.extend(s.counts);
            accs.extend(s.accs);
        }
        Toy {
            counts,
            accs,
            samples: global.samples,
        }
    }

    fn on_sample(
        global: &mut ToyGlobal,
        shards: &mut [&mut ToyShard],
        api: &mut BarrierApi<'_, u64>,
    ) {
        // Integer fold in shard order == node order (contiguous blocks):
        // bitwise-equal to the serial sample.
        let total = shards
            .iter()
            .flat_map(|s| s.counts.iter().zip(&s.accs))
            .map(|(c, a)| c.wrapping_add(*a))
            .fold(0u64, |s, v| s.wrapping_add(v));
        global.samples.push((api.now().as_micros(), total));
    }

    fn on_inject(
        _global: &mut ToyGlobal,
        shards: &mut [&mut ToyShard],
        api: &mut BarrierApi<'_, u64>,
    ) {
        if let Some(target) = api.random_online_node() {
            let shard = &mut shards[api.plan().shard_of(target)];
            let local = shard.l(target);
            shard.accs[local] = shard.accs[local].wrapping_add(7);
            let draw = api.rng().next();
            let to = NodeId::from_index((target.index() + 2) % api.n());
            api.send(target, to, draw);
        }
    }
}

/// Scripted churn: roughly a third of the nodes bounce, some transitions
/// landing exactly on window boundaries (multiples of the 1 s transfer
/// time) to probe the barrier edge cases.
struct Bouncy {
    n: usize,
}

impl AvailabilityModel for Bouncy {
    fn initially_online(&self, node: NodeId) -> bool {
        node.index() % 5 != 4
    }
    fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool)) {
        let i = node.index();
        match i % 3 {
            0 => {
                // Down/up pair with boundary-aligned times.
                f(SimTime::from_secs(40 + (i as u64 % 7)), false);
                f(SimTime::from_secs(120), true);
            }
            1 if i % 5 == 4 => {
                // Initially-offline node joining mid-run, off-boundary.
                f(SimTime::from_micros(77_777_000 + i as u64 * 13_000), true);
            }
            _ => {}
        }
        let _ = self.n;
    }
}

fn cfg(n: usize, queue: QueueKind, seed: u64, drop: f64) -> SimConfig {
    SimConfig::builder(n)
        .delta(SimDuration::from_secs(10))
        .transfer_time(SimDuration::from_secs(1))
        .duration(SimDuration::from_secs(600))
        .sample_period(SimDuration::from_secs(25))
        .injection_period(SimDuration::from_secs(7))
        .queue(queue)
        .seed(seed)
        .drop_probability(drop)
        .build()
        .unwrap()
}

fn run_serial(n: usize, queue: QueueKind, seed: u64, drop: f64, churn: bool) -> (Toy, SimStats) {
    let config = cfg(n, queue, seed, drop);
    let mut sim = if churn {
        Simulation::new(config, &Bouncy { n }, Toy::new(n))
    } else {
        Simulation::new(config, &ta_sim::AlwaysOn, Toy::new(n))
    };
    sim.run_to_end();
    sim.into_parts()
}

#[allow(clippy::too_many_arguments)]
fn run_sharded(
    n: usize,
    queue: QueueKind,
    seed: u64,
    drop: f64,
    churn: bool,
    shards: usize,
    threads: usize,
) -> (Toy, SimStats) {
    let config = cfg(n, queue, seed, drop);
    let mut sim = if churn {
        ShardedSimulation::new(config, &Bouncy { n }, Toy::new(n), shards, threads)
    } else {
        ShardedSimulation::new(config, &ta_sim::AlwaysOn, Toy::new(n), shards, threads)
    };
    sim.run_to_end();
    sim.into_parts()
}

#[test]
fn sharded_matches_serial_across_shards_queues_and_churn() {
    let n = 48;
    for queue in [QueueKind::Heap, QueueKind::Wheel] {
        for churn in [false, true] {
            let (toy, stats) = run_serial(n, queue, 42, 0.0, churn);
            assert!(stats.messages_delivered > 0);
            assert!(stats.samples > 0 && stats.injections > 0);
            if churn {
                assert!(stats.ticks_stale > 0 || stats.messages_lost_offline > 0);
            }
            for shards in [1, 2, 3, 4] {
                let (stoy, sstats) = run_sharded(n, queue, 42, 0.0, churn, shards, 1);
                assert_eq!(
                    toy, stoy,
                    "{queue:?} churn={churn} S={shards} state diverged"
                );
                assert_eq!(
                    stats, sstats,
                    "{queue:?} churn={churn} S={shards} stats diverged"
                );
            }
        }
    }
}

#[test]
fn thread_count_never_changes_results() {
    let n = 40;
    let (toy, stats) = run_serial(n, QueueKind::Wheel, 7, 0.0, true);
    for threads in [1, 2, 4, 8] {
        let (stoy, sstats) = run_sharded(n, QueueKind::Wheel, 7, 0.0, true, 4, threads);
        assert_eq!(toy, stoy, "threads={threads} state diverged");
        assert_eq!(stats, sstats, "threads={threads} stats diverged");
    }
}

#[test]
fn full_shards_threads_pin_matrix_matches_serial() {
    // The acceptance matrix of the channel pipeline: every
    // S × threads × pin combination — inline path, single worker,
    // stealing workers, oversubscribed workers, pinned or not — produces
    // the serial engine's bytes. Shard affinity rides along: every
    // shard-window drain is claimed exactly once, and with one lane per
    // shard (or a single participant) no shard ever changes threads.
    let n = 40;
    let (toy, stats) = run_serial(n, QueueKind::Wheel, 7, 0.0, true);
    for shards in [1, 2, 3, 4] {
        for threads in [1, 2, 4] {
            for pin in [false, true] {
                let config = cfg(n, QueueKind::Wheel, 7, 0.0);
                let opts = ShardOpts {
                    shards,
                    threads,
                    pin,
                };
                let mut sim =
                    ShardedSimulation::with_opts(config, &Bouncy { n }, Toy::new(n), opts);
                sim.set_profiling(true);
                sim.run_to_end();
                let profile = sim.profile();
                // `windows` counts shard-window drains (gate windows × S).
                assert_eq!(
                    profile.claims, profile.windows,
                    "S={shards} T={threads} pin={pin} claims"
                );
                assert_eq!(shards > 1, profile.windows > 0);
                if threads == 1 || threads >= shards {
                    assert_eq!(profile.steals, 0, "S={shards} T={threads} pin={pin} steals");
                }
                let (stoy, sstats) = sim.into_parts();
                assert_eq!(toy, stoy, "S={shards} T={threads} pin={pin} diverged");
                assert_eq!(stats, sstats, "S={shards} T={threads} pin={pin} stats");
            }
        }
    }
}

/// Availability that concentrates nearly all event traffic on the first
/// node block: shards past the first start with every node offline (no
/// ticks, no timers — their windows drain instantly), so with `S > T`
/// workers tail-stealing off the hot shard's lane is the only thing
/// keeping them busy. A few cold nodes come online late so stolen shards
/// also grow real work mid-run.
struct HotBlock {
    hot: usize,
}

impl AvailabilityModel for HotBlock {
    fn initially_online(&self, node: NodeId) -> bool {
        node.index() < self.hot
    }
    fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool)) {
        let i = node.index();
        if i >= self.hot && i.is_multiple_of(7) {
            f(SimTime::from_secs(200 + (i as u64 % 13) * 3), true);
        }
    }
}

#[test]
fn work_stealing_on_imbalanced_shards_is_exact() {
    let n = 48;
    let hot = 12; // exactly shard 0 when S = 4
    let avail = HotBlock { hot };
    for queue in [QueueKind::Heap, QueueKind::Wheel] {
        let config = cfg(n, queue, 23, 0.0);
        let mut serial = Simulation::new(config, &avail, Toy::new(n));
        serial.run_to_end();
        let (toy, stats) = serial.into_parts();
        assert!(stats.messages_delivered > 0);
        assert!(
            stats.messages_lost_offline > 0,
            "hot nodes must be sending into the cold blocks"
        );
        for shards in [2, 4] {
            for threads in [2, 4] {
                for pin in [false, true] {
                    let config = cfg(n, queue, 23, 0.0);
                    let opts = ShardOpts {
                        shards,
                        threads,
                        pin,
                    };
                    let mut sim = ShardedSimulation::with_opts(config, &avail, Toy::new(n), opts);
                    sim.run_to_end();
                    // How many claims migrate depends on timing; that they
                    // are a subset of the claims does not.
                    let profile = sim.profile();
                    assert!(profile.claims > 0 && profile.steals <= profile.claims);
                    let (stoy, sstats) = sim.into_parts();
                    assert_eq!(
                        toy, stoy,
                        "{queue:?} S={shards} T={threads} pin={pin} diverged"
                    );
                    assert_eq!(stats, sstats, "{queue:?} S={shards} T={threads} pin={pin}");
                }
            }
        }
    }
}

#[test]
fn fault_injection_drops_identically() {
    let n = 32;
    let (toy, stats) = run_serial(n, QueueKind::Heap, 11, 0.3, false);
    assert!(stats.messages_dropped_fault > 0);
    for shards in [2, 4] {
        let (stoy, sstats) = run_sharded(n, QueueKind::Heap, 11, 0.3, false, shards, 2);
        assert_eq!(toy, stoy);
        assert_eq!(stats, sstats);
    }
}

#[test]
fn worker_panics_propagate_instead_of_deadlocking() {
    // A driver callback that panics on a worker thread must surface as a
    // panic from run_to_end, not leave the coordinator parked forever on
    // the window barrier.
    #[derive(Debug)]
    struct Bomb;
    struct BombShard {
        last: usize,
    }
    impl Driver for Bomb {
        type Msg = ();
        fn on_round_tick(&mut self, _: &mut SimApi<'_, ()>, _: NodeId) {}
        fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
    }
    impl ShardDriver for BombShard {
        type Msg = ();
        fn on_round_tick(&mut self, api: &mut ShardApi<'_, ()>, node: NodeId) {
            if node.index() == self.last && api.now() > SimTime::from_secs(30) {
                panic!("boom at {node}");
            }
        }
        fn on_message(&mut self, _: &mut ShardApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
    }
    impl ShardableDriver for Bomb {
        type Shard = BombShard;
        type Global = ();
        fn split(self, plan: &ShardPlan) -> ((), Vec<BombShard>) {
            (
                (),
                (0..plan.shards())
                    .map(|s| BombShard {
                        last: plan.range(s).end - 1,
                    })
                    .collect(),
            )
        }
        fn merge(_plan: &ShardPlan, _g: (), _shards: Vec<BombShard>) -> Self {
            Bomb
        }
    }
    // Both pin settings: the channel pipeline must poison the window gate,
    // release the idle workers, and re-raise on the coordinator instead of
    // leaving anyone parked on a gate that will never open. The third
    // case lands the panic on a spinning peer: shard 1 holds only offline
    // nodes, so its worker drains nothing, is back at the gate within a
    // microsecond of every window opening, and is inside its spin budget
    // when the few-event drain of shard 0 blows up.
    for (idle_peer, shards, pin) in [(false, 4, false), (false, 4, true), (true, 2, false)] {
        let config = cfg(24, QueueKind::Heap, 3, 0.0);
        // Run under a watchdog: a waiter the poison failed to release
        // would otherwise hang the test binary instead of failing it.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let run = std::thread::spawn(move || {
            let _hangs_up_when_the_run_ends = tx;
            let avail: &dyn AvailabilityModel = if idle_peer {
                &HotBlock { hot: 12 }
            } else {
                &ta_sim::AlwaysOn
            };
            let opts = ShardOpts {
                shards,
                threads: 2,
                pin,
            };
            let mut sim = ShardedSimulation::with_opts(config, avail, Bomb, opts);
            sim.run_to_end();
        });
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(120)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
            "S={shards} pin={pin}: the pipeline deadlocked"
        );
        let result = run.join();
        let payload = result.expect_err("the driver panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("boom"),
            "S={shards} pin={pin}: unexpected panic payload: {msg}"
        );
    }
}

#[test]
fn seeds_still_differentiate_sharded_runs() {
    let a = run_sharded(30, QueueKind::Wheel, 1, 0.0, false, 3, 2);
    let b = run_sharded(30, QueueKind::Wheel, 2, 0.0, false, 3, 2);
    assert_ne!(a.0, b.0);
}

#[test]
fn offline_at_delivery_is_lost_across_shard_boundaries() {
    // Adversarial: node 0 (shard 0) sends to node `n-1` (last shard) at
    // t = 9.5 s; the target drops offline at t = 10 s, exactly one window
    // boundary before the delivery at t = 10.5 s. The loss must be
    // detected on the owning shard with its exact-at-that-instant mirror —
    // identically to the serial engine.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Probe {
        got: u64,
    }
    struct ProbeShard {
        got: u64,
    }
    impl Driver for Probe {
        type Msg = u64;
        fn on_round_tick(&mut self, api: &mut SimApi<'_, u64>, node: NodeId) {
            let n = api.n();
            if node.index() == 0 {
                api.send(node, NodeId::from_index(n - 1), api.now().as_micros());
            }
        }
        fn on_message(&mut self, _api: &mut SimApi<'_, u64>, _f: NodeId, _t: NodeId, m: u64) {
            self.got = self.got.wrapping_add(m);
        }
    }
    impl ShardDriver for ProbeShard {
        type Msg = u64;
        fn on_round_tick(&mut self, api: &mut ShardApi<'_, u64>, node: NodeId) {
            let n = api.n();
            if node.index() == 0 {
                api.send(node, NodeId::from_index(n - 1), api.now().as_micros());
            }
        }
        fn on_message(&mut self, _api: &mut ShardApi<'_, u64>, _f: NodeId, _t: NodeId, m: u64) {
            self.got = self.got.wrapping_add(m);
        }
    }
    impl ShardableDriver for Probe {
        type Shard = ProbeShard;
        type Global = ();
        fn split(self, plan: &ShardPlan) -> ((), Vec<ProbeShard>) {
            let mut shards: Vec<ProbeShard> =
                (0..plan.shards()).map(|_| ProbeShard { got: 0 }).collect();
            shards[plan.shards() - 1].got = self.got;
            ((), shards)
        }
        fn merge(_plan: &ShardPlan, _g: (), shards: Vec<ProbeShard>) -> Self {
            Probe {
                got: shards
                    .iter()
                    .map(|s| s.got)
                    .fold(0u64, |a, b| a.wrapping_add(b)),
            }
        }
    }
    struct FlickerLast {
        n: usize,
    }
    impl AvailabilityModel for FlickerLast {
        fn initially_online(&self, _node: NodeId) -> bool {
            true
        }
        fn for_each_transition(&self, node: NodeId, f: &mut dyn FnMut(SimTime, bool)) {
            if node.index() == self.n - 1 {
                // Offline exactly at a window boundary, back much later.
                f(SimTime::from_secs(10), false);
                f(SimTime::from_secs(25), true);
            }
        }
    }
    let n = 16;
    let config = SimConfig::builder(n)
        .delta(SimDuration::from_millis(9_500))
        .transfer_time(SimDuration::from_secs(1))
        .duration(SimDuration::from_secs(40))
        .tick_phase(ta_sim::TickPhase::Synchronized)
        .seed(5)
        .build()
        .unwrap();
    let avail = FlickerLast { n };
    let mut serial = Simulation::new(config.clone(), &avail, Probe::default());
    serial.run_to_end();
    let (sp, ss) = serial.into_parts();
    assert!(
        ss.messages_lost_offline > 0,
        "scenario must actually lose a boundary-crossing message"
    );
    for shards in [2, 4] {
        let mut sharded =
            ShardedSimulation::new(config.clone(), &avail, Probe::default(), shards, 2);
        sharded.run_to_end();
        let (pp, ps) = sharded.into_parts();
        assert_eq!(sp, pp, "S={shards}");
        assert_eq!(ss, ps, "S={shards}");
    }
}
