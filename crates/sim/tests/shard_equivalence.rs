//! The engine's core guarantee, exercised at the `ta-sim` level with a toy
//! protocol that touches every event type: ticks, deliveries, reactive
//! replies, timers, churn, sampling, injection, and fault drops. The same
//! driver cut into S blocks must be **byte-identical** to its S = 1 run
//! for every shard count and thread count — including when
//! tail-stealing between home lanes is doing the load balancing (the
//! imbalanced-topology test below) — and a shard must never leave its home
//! worker when there are as many workers as shards.

use ta_sim::config::SimConfig;
use ta_sim::engine::{AvailabilityModel, Driver, SimApi, Simulation};
use ta_sim::shard::{ShardOpts, ShardPlan, ShardableDriver, ShardedSimulation};
use ta_sim::{NodeId, SimDuration, SimStats, SimTime};

/// Toy protocol state of one block of nodes: two per-node counters, plus
/// the sampled series (kept by the first block).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Toy {
    base: usize,
    counts: Vec<u64>,
    accs: Vec<u64>,
    samples: Vec<(u64, u64)>,
}

impl Toy {
    fn new(n: usize) -> Self {
        Toy {
            base: 0,
            counts: vec![0; n],
            accs: vec![0; n],
            samples: Vec::new(),
        }
    }

    #[inline]
    fn l(&self, node: NodeId) -> usize {
        node.index() - self.base
    }
}

fn timer_token(node: NodeId, msg: u64) -> u64 {
    ((node.raw() as u64) << 32) | (msg & 0xffff)
}

impl Driver for Toy {
    type Msg = u64;

    fn on_round_tick(&mut self, api: &mut SimApi<'_, u64>, node: NodeId) {
        let draw = api.rng().next();
        let local = self.l(node);
        self.counts[local] += 1;
        let to = NodeId::from_index((node.index() + 1 + (draw % 5) as usize) % api.n());
        api.send(node, to, draw);
    }

    fn on_message(&mut self, api: &mut SimApi<'_, u64>, from: NodeId, to: NodeId, msg: u64) {
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

    fn on_timer(&mut self, api: &mut SimApi<'_, u64>, token: u64) {
        let node = NodeId::new((token >> 32) as u32);
        let local = self.l(node);
        self.accs[local] ^= token;
        let draw = api.rng().next();
        let to = NodeId::from_index((node.index() + 2) % api.n());
        api.send(node, to, draw | 1);
    }

    fn on_node_up(&mut self, api: &mut SimApi<'_, u64>, node: NodeId) {
        if api.owns(node) {
            let local = self.l(node);
            self.counts[local] += 1000;
        }
    }

    fn on_node_down(&mut self, api: &mut SimApi<'_, u64>, node: NodeId) {
        if api.owns(node) {
            let local = self.l(node);
            self.counts[local] += 1_000_000;
        }
    }

    fn on_sample(&mut self, api: &mut SimApi<'_, u64>) {
        Self::on_sample_blocks(&mut [self], api);
    }

    fn on_inject(&mut self, api: &mut SimApi<'_, u64>) {
        Self::on_inject_blocks(&mut [self], api);
    }
}

impl ShardableDriver for Toy {
    fn split(self, plan: &ShardPlan) -> Vec<Toy> {
        let mut samples = Some(self.samples);
        plan.partition(self.counts)
            .into_iter()
            .zip(plan.partition(self.accs))
            .enumerate()
            .map(|(s, (counts, accs))| Toy {
                base: plan.range(s).start,
                counts,
                accs,
                samples: samples.take().unwrap_or_default(),
            })
            .collect()
    }

    fn merge(_plan: &ShardPlan, blocks: Vec<Toy>) -> Self {
        let mut whole = Toy::default();
        for b in blocks {
            whole.counts.extend(b.counts);
            whole.accs.extend(b.accs);
            whole.samples.extend(b.samples);
        }
        whole
    }

    fn on_sample_blocks(blocks: &mut [&mut Toy], api: &mut SimApi<'_, u64>) {
        // Integer fold in shard order == node order (contiguous blocks):
        // bitwise the one-block sample.
        let total = blocks
            .iter()
            .flat_map(|b| b.counts.iter().zip(&b.accs))
            .map(|(c, a)| c.wrapping_add(*a))
            .fold(0u64, |s, v| s.wrapping_add(v));
        blocks[0].samples.push((api.now().as_micros(), total));
    }

    fn on_inject_blocks(blocks: &mut [&mut Toy], api: &mut SimApi<'_, u64>) {
        if let Some(target) = api.random_online_node() {
            let block = &mut blocks[api.plan().shard_of(target)];
            let local = block.l(target);
            block.accs[local] = block.accs[local].wrapping_add(7);
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

fn cfg(n: usize, seed: u64, drop: f64) -> SimConfig {
    SimConfig::builder(n)
        .delta(SimDuration::from_secs(10))
        .transfer_time(SimDuration::from_secs(1))
        .duration(SimDuration::from_secs(600))
        .sample_period(SimDuration::from_secs(25))
        .injection_period(SimDuration::from_secs(7))
        .seed(seed)
        .drop_probability(drop)
        .build()
        .unwrap()
}

fn run_serial(n: usize, seed: u64, drop: f64, churn: bool) -> (Toy, SimStats) {
    let config = cfg(n, seed, drop);
    let mut sim = if churn {
        Simulation::new(config, &Bouncy { n }, Toy::new(n))
    } else {
        Simulation::new(config, &ta_sim::AlwaysOn, Toy::new(n))
    };
    sim.run_to_end();
    sim.into_parts()
}

fn run_sharded(
    n: usize,
    seed: u64,
    drop: f64,
    churn: bool,
    shards: usize,
    threads: usize,
) -> (Toy, SimStats) {
    let config = cfg(n, seed, drop);
    let opts = ShardOpts { shards, threads };
    let mut sim = if churn {
        ShardedSimulation::new(config, &Bouncy { n }, Toy::new(n), opts)
    } else {
        ShardedSimulation::new(config, &ta_sim::AlwaysOn, Toy::new(n), opts)
    };
    sim.run_to_end();
    sim.into_parts()
}

#[test]
fn sharded_matches_serial_across_shards_and_churn() {
    let n = 48;
    for churn in [false, true] {
        let (toy, stats) = run_serial(n, 42, 0.0, churn);
        assert!(stats.messages_delivered > 0);
        assert!(stats.samples > 0 && stats.injections > 0);
        if churn {
            assert!(stats.ticks_stale > 0 || stats.messages_lost_offline > 0);
        }
        for shards in [1, 2, 3, 4] {
            let (stoy, sstats) = run_sharded(n, 42, 0.0, churn, shards, 1);
            assert_eq!(toy, stoy, "churn={churn} S={shards} state diverged");
            assert_eq!(stats, sstats, "churn={churn} S={shards} stats diverged");
        }
    }
}

#[test]
fn thread_count_never_changes_results() {
    let n = 40;
    let (toy, stats) = run_serial(n, 7, 0.0, true);
    for threads in [1, 2, 4, 8] {
        let (stoy, sstats) = run_sharded(n, 7, 0.0, true, 4, threads);
        assert_eq!(toy, stoy, "threads={threads} state diverged");
        assert_eq!(stats, sstats, "threads={threads} stats diverged");
    }
}

#[test]
fn full_shards_threads_matrix_matches_serial() {
    // The acceptance matrix of the channel pipeline: every S × threads
    // combination — inline path, single worker, stealing workers,
    // oversubscribed workers — produces the bytes of the S = 1 run. A
    // shard's home lane rides along: every shard-window drain is claimed
    // exactly once, and with one lane per shard (or a single participant)
    // no shard ever changes threads.
    let n = 40;
    let (toy, stats) = run_serial(n, 7, 0.0, true);
    for shards in [1, 2, 3, 4] {
        for threads in [1, 2, 4] {
            let config = cfg(n, 7, 0.0);
            let opts = ShardOpts { shards, threads };
            let mut sim = ShardedSimulation::new(config, &Bouncy { n }, Toy::new(n), opts);
            sim.set_profiling(true);
            sim.run_to_end();
            let profile = sim.profile();
            // `windows` counts shard-window drains (gate windows × S).
            assert_eq!(
                profile.claims, profile.windows,
                "S={shards} T={threads} claims"
            );
            assert_eq!(shards > 1, profile.windows > 0);
            if threads == 1 || threads >= shards {
                assert_eq!(profile.steals, 0, "S={shards} T={threads} steals");
            }
            let (stoy, sstats) = sim.into_parts();
            assert_eq!(toy, stoy, "S={shards} T={threads} diverged");
            assert_eq!(stats, sstats, "S={shards} T={threads} stats");
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
    let config = cfg(n, 23, 0.0);
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
            let config = cfg(n, 23, 0.0);
            let opts = ShardOpts { shards, threads };
            let mut sim = ShardedSimulation::new(config, &avail, Toy::new(n), opts);
            sim.run_to_end();
            // How many claims migrate depends on timing; that they are a
            // subset of the claims does not.
            let profile = sim.profile();
            assert!(profile.claims > 0 && profile.steals <= profile.claims);
            let (stoy, sstats) = sim.into_parts();
            assert_eq!(toy, stoy, "S={shards} T={threads} diverged");
            assert_eq!(stats, sstats, "S={shards} T={threads}");
        }
    }
}

#[test]
fn fault_injection_drops_identically() {
    let n = 32;
    let (toy, stats) = run_serial(n, 11, 0.3, false);
    assert!(stats.messages_dropped_fault > 0);
    for shards in [2, 4] {
        let (stoy, sstats) = run_sharded(n, 11, 0.3, false, shards, 2);
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
    struct Bomb {
        last: usize,
    }
    impl Driver for Bomb {
        type Msg = ();
        fn on_round_tick(&mut self, api: &mut SimApi<'_, ()>, node: NodeId) {
            if node.index() == self.last && api.now() > SimTime::from_secs(30) {
                panic!("boom at {node}");
            }
        }
        fn on_message(&mut self, _: &mut SimApi<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
    }
    impl ShardableDriver for Bomb {
        fn split(self, plan: &ShardPlan) -> Vec<Bomb> {
            (0..plan.shards())
                .map(|s| Bomb {
                    last: plan.range(s).end - 1,
                })
                .collect()
        }
        fn merge(plan: &ShardPlan, _blocks: Vec<Bomb>) -> Self {
            Bomb { last: plan.n() - 1 }
        }
    }
    // The channel pipeline must poison the window gate, release the idle
    // workers, and re-raise on the coordinator instead of leaving anyone
    // parked on a gate that will never open. The second case lands the
    // panic on a spinning peer: shard 1 holds only offline
    // nodes, so its worker drains nothing, is back at the gate within a
    // microsecond of every window opening, and is inside its spin budget
    // when the few-event drain of shard 0 blows up.
    for (idle_peer, shards) in [(false, 4), (true, 2)] {
        let config = cfg(24, 3, 0.0);
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
            let opts = ShardOpts { shards, threads: 2 };
            let mut sim = ShardedSimulation::new(config, avail, Bomb { last: 23 }, opts);
            sim.run_to_end();
        });
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(120)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
            "S={shards}: the pipeline deadlocked"
        );
        let result = run.join();
        let payload = result.expect_err("the driver panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("boom"),
            "S={shards}: unexpected panic payload: {msg}"
        );
    }
}

#[test]
fn seeds_still_differentiate_sharded_runs() {
    let a = run_sharded(30, 1, 0.0, false, 3, 2);
    let b = run_sharded(30, 2, 0.0, false, 3, 2);
    assert_ne!(a.0, b.0);
}

#[test]
fn offline_at_delivery_is_lost_across_shard_boundaries() {
    // Adversarial: node 0 (shard 0) sends to node `n-1` (last shard) at
    // t = 9.5 s; the target drops offline at t = 10 s, exactly one window
    // boundary before the delivery at t = 10.5 s. The loss must be
    // detected on the owning shard with its exact-at-that-instant mirror —
    // identically to the one-block run.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Probe {
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
    impl ShardableDriver for Probe {
        fn split(self, plan: &ShardPlan) -> Vec<Probe> {
            let mut blocks: Vec<Probe> = (0..plan.shards()).map(|_| Probe::default()).collect();
            blocks[plan.shards() - 1].got = self.got;
            blocks
        }
        fn merge(_plan: &ShardPlan, blocks: Vec<Probe>) -> Self {
            Probe {
                got: blocks
                    .iter()
                    .map(|b| b.got)
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
        let opts = ShardOpts { shards, threads: 2 };
        let mut sharded = ShardedSimulation::new(config.clone(), &avail, Probe::default(), opts);
        sharded.run_to_end();
        let (pp, ps) = sharded.into_parts();
        assert_eq!(sp, pp, "S={shards}");
        assert_eq!(ss, ps, "S={shards}");
    }
}
