//! Live-vs-sim cross-validation: the simulator as the runtime's oracle.
//!
//! The same *(strategy × arrival trace)* is executed twice:
//!
//! 1. **Sim side** — [`run_sim_oracle`] drives the discrete-event engine
//!    ([`ta_sim::engine::Simulation`]) with an [`AdmissionDriver`]: every
//!    node is one client whose round ticks come from the engine's Δ
//!    timer train and whose requests arrive through the engine's
//!    injection train (delivered as messages one transfer time later, so
//!    the reactive decision runs in the client's own event context).
//!    Decisions are made by the *sequential* Algorithm-4 state machine
//!    ([`TokenNode`]) with one private xoshiro stream per client, and
//!    every decided event is recorded into an [`ArrivalTrace`].
//! 2. **Live side** — [`replay_trace`] feeds the recorded trace to the
//!    concurrent runtime ([`LiveRuntime`]): worker threads partition the
//!    clients into contiguous blocks and replay each client's events in
//!    trace (= virtual time) order through the atomic
//!    accounts, with per-client streams constructed identically.
//!
//! Because a client's account is touched only by the worker owning it,
//! and each client's event subsequence replays in order, the live run is
//! a *deterministic* function of the trace for any worker count — so the
//! aggregate send/burn/grant counters and the final balance sum must
//! equal the simulator's **exactly**. [`replay_realtime`] additionally
//! replays the request arrivals against the wall clock with the granter
//! thread supplying rounds, where only distributional agreement (rates
//! within a tolerance) plus exact token conservation can be promised.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::Rng;

use ta_sim::config::SimConfig;
use ta_sim::engine::{AlwaysOn, Driver, SimApi, Simulation};
use ta_sim::rng::Xoshiro256pp;
use ta_sim::{NodeId, SimDuration};
use token_account::node::{RoundAction, TokenNode};
use token_account::spec::StrategySpec;
use token_account::{DecisionTable, InvalidStrategyError, Strategy, Usefulness};

use crate::counters::LiveCounters;
use crate::runtime::LiveRuntime;

/// Stream namespace of per-client decision randomness, shared verbatim by
/// the sim driver and the live replay (the whole point: both sides draw
/// the same numbers in the same per-client order).
const DECISION_STREAM: u64 = 7 << 40;

/// The decision stream of `client` under `seed`.
#[inline]
fn decision_stream(seed: u64, client: usize) -> Xoshiro256pp {
    Xoshiro256pp::stream(seed, DECISION_STREAM | client as u64)
}

/// One recorded admission event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event, microseconds.
    pub time_us: u64,
    /// The client (sim node) it happened at.
    pub client: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// The two admission events of Algorithm 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A round tick (grant-or-send decision).
    Round,
    /// A request arrival of the given usefulness.
    Request {
        /// Whether the request was useful (`u = 1`).
        useful: bool,
    },
}

/// A recorded *(strategy × arrival)* workload: globally time-ordered
/// admission events plus everything a replay needs to reproduce the
/// decisions bit for bit.
#[derive(Debug, Clone)]
pub struct ArrivalTrace {
    /// Events in the simulator's dispatch (= virtual time) order.
    pub events: Vec<TraceEvent>,
    /// Number of clients.
    pub clients: usize,
    /// Seed of the per-client decision streams.
    pub decision_seed: u64,
}

/// Counters plus final balances of one side of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideOutcome {
    /// Aggregate admission counters.
    pub counters: LiveCounters,
    /// Sum of the final account balances.
    pub balances_sum: i64,
}

/// The sim-side driver: sequential Algorithm 4 over engine events, with
/// trace recording (see the [module docs](self)).
pub struct AdmissionDriver {
    table: DecisionTable,
    nodes: Vec<TokenNode>,
    rngs: Vec<Xoshiro256pp>,
    useful_probability: f64,
    counters: LiveCounters,
    trace: Vec<TraceEvent>,
}

impl AdmissionDriver {
    /// Builds the driver for `clients` zero-balance nodes.
    pub fn new(
        strategy: impl Strategy + 'static,
        clients: usize,
        decision_seed: u64,
        useful_probability: f64,
    ) -> Self {
        AdmissionDriver {
            table: DecisionTable::new(strategy),
            nodes: vec![TokenNode::new(0); clients],
            rngs: (0..clients)
                .map(|c| decision_stream(decision_seed, c))
                .collect(),
            useful_probability,
            counters: LiveCounters::default(),
            trace: Vec::new(),
        }
    }

    /// Outcome of the run so far.
    pub fn outcome(&self) -> SideOutcome {
        SideOutcome {
            counters: self.counters,
            balances_sum: self.nodes.iter().map(TokenNode::balance).sum(),
        }
    }
}

impl std::fmt::Debug for AdmissionDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionDriver")
            .field("strategy", &self.table.strategy().label())
            .field("clients", &self.nodes.len())
            .field("counters", &self.counters)
            .field("trace_events", &self.trace.len())
            .finish()
    }
}

impl Driver for AdmissionDriver {
    /// Request usefulness rides the message payload.
    type Msg = bool;

    fn on_round_tick(&mut self, api: &mut SimApi<'_, bool>, node: NodeId) {
        let i = node.index();
        self.trace.push(TraceEvent {
            time_us: api.now().as_micros(),
            client: node.raw(),
            kind: TraceKind::Round,
        });
        self.counters.rounds += 1;
        match self.nodes[i].on_round(&self.table, &mut self.rngs[i]) {
            RoundAction::SendProactive => self.counters.proactive_sent += 1,
            RoundAction::SaveToken => self.counters.tokens_banked += 1,
        }
    }

    fn on_message(&mut self, api: &mut SimApi<'_, bool>, _from: NodeId, to: NodeId, useful: bool) {
        let i = to.index();
        self.trace.push(TraceEvent {
            time_us: api.now().as_micros(),
            client: to.raw(),
            kind: TraceKind::Request { useful },
        });
        self.counters.requests += 1;
        let burst = self.nodes[i].on_message(
            &self.table,
            Usefulness::from_bool(useful),
            &mut self.rngs[i],
        );
        if burst == 0 {
            self.counters.reactive_held += 1;
        } else {
            self.counters.reactive_sent += burst;
        }
    }

    fn on_inject(&mut self, api: &mut SimApi<'_, bool>) {
        // A request enters the system: target and usefulness are drawn
        // from the engine's *global* stream (recorded in the trace, so
        // the replay never re-draws them), then delivered one transfer
        // time later in the target's own event context.
        if let Some(target) = api.random_online_node() {
            let useful = api.rng().gen::<f64>() < self.useful_probability;
            api.send(target, target, useful);
        }
    }
}

/// Parameters of the sim-oracle workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleWorkload {
    /// Clients (sim nodes).
    pub clients: usize,
    /// Proactive round length Δ.
    pub delta: SimDuration,
    /// Request injection period (one request per period at a random
    /// client).
    pub injection_period: SimDuration,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Probability that a request is useful.
    pub useful_probability: f64,
    /// Master seed (engine schedule + decision streams).
    pub seed: u64,
}

impl OracleWorkload {
    /// A small workload exercising all decision paths.
    pub fn quick(clients: usize, seed: u64) -> Self {
        OracleWorkload {
            clients,
            delta: SimDuration::from_secs(10),
            injection_period: SimDuration::from_millis(400),
            duration: SimDuration::from_secs(600),
            useful_probability: 0.8,
            seed,
        }
    }
}

/// Runs the discrete-event oracle, returning its counters and the
/// recorded trace.
///
/// # Panics
///
/// Panics if the workload parameters fail [`SimConfig`] validation.
pub fn run_sim_oracle(
    strategy: impl Strategy + 'static,
    w: &OracleWorkload,
) -> (SideOutcome, ArrivalTrace) {
    let cfg = SimConfig::builder(w.clients)
        .delta(w.delta)
        .transfer_time(SimDuration::from_micros((w.delta.as_micros() / 100).max(1)))
        .duration(w.duration)
        .injection_period(w.injection_period)
        .seed(w.seed)
        .build()
        .expect("valid oracle workload");
    let driver = AdmissionDriver::new(strategy, w.clients, w.seed, w.useful_probability);
    let mut sim = Simulation::new(cfg, &AlwaysOn, driver);
    sim.run_to_end();
    let (driver, _) = sim.into_parts();
    let outcome = driver.outcome();
    (
        outcome,
        ArrivalTrace {
            events: driver.trace,
            clients: w.clients,
            decision_seed: w.seed,
        },
    )
}

/// Replays a recorded trace through the concurrent runtime under the
/// virtual clock: `workers` threads each own a contiguous client block
/// and process their clients' events in trace order. Deterministic and
/// *exactly* equal to the sim side for every worker and shard count.
pub fn replay_trace(
    strategy: impl Strategy + 'static,
    trace: &ArrivalTrace,
    workers: usize,
    account_shards: usize,
) -> SideOutcome {
    let runtime = LiveRuntime::new(strategy, trace.clients, account_shards);
    let workers = workers.clamp(1, trace.clients.max(1));
    let block = trace.clients.div_ceil(workers);
    // One O(events) prepass buckets each worker's event indices (in
    // trace order, so per-client order is preserved); workers then walk
    // only their own share instead of scanning — and skipping — the
    // whole trace each.
    assert!(trace.events.len() < u32::MAX as usize, "trace too long");
    let mut shares: Vec<Vec<u32>> = vec![Vec::new(); workers];
    for (i, ev) in trace.events.iter().enumerate() {
        shares[ev.client as usize / block].push(i as u32);
    }
    let counters = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let runtime = &runtime;
                let lo = (w * block).min(trace.clients);
                let hi = ((w + 1) * block).min(trace.clients);
                let events = &trace.events;
                let share = &shares[w];
                let seed = trace.decision_seed;
                scope.spawn(move || {
                    let mut rngs: Vec<Xoshiro256pp> =
                        (lo..hi).map(|c| decision_stream(seed, c)).collect();
                    let mut counters = LiveCounters::default();
                    for &i in share {
                        let ev = &events[i as usize];
                        let client = ev.client as usize;
                        let rng = &mut rngs[client - lo];
                        match ev.kind {
                            TraceKind::Round => {
                                runtime.round(client, rng, &mut counters);
                            }
                            TraceKind::Request { useful } => {
                                runtime.admit(
                                    client,
                                    Usefulness::from_bool(useful),
                                    rng,
                                    &mut counters,
                                );
                            }
                        }
                    }
                    counters
                })
            })
            .collect();
        let mut merged = LiveCounters::default();
        for h in handles {
            merged.merge(&h.join().unwrap());
        }
        merged
    });
    SideOutcome {
        counters,
        balances_sum: runtime.balances_sum(),
    }
}

/// Outcome of a wall-clock realtime replay.
#[derive(Debug, Clone, Copy)]
pub struct RealtimeOutcome {
    /// Merged counters (workers + granter).
    pub counters: LiveCounters,
    /// Final balance sum.
    pub balances_sum: i64,
    /// Wall-clock time spent.
    pub wall: Duration,
}

impl RealtimeOutcome {
    /// Exact conservation must hold even under real time.
    pub fn conserves(&self) -> bool {
        self.counters.is_consistent() && self.counters.conserves(self.balances_sum)
    }
}

/// Replays the trace's *request* arrivals against the wall clock
/// (virtual microseconds divided by `speedup`), while a granter thread
/// generates rounds live every `delta / speedup`. Decisions race
/// wall-clock time, so only distributional agreement with the sim is
/// expected — plus exact token conservation, which holds under any
/// interleaving.
pub fn replay_realtime(
    strategy: impl Strategy + 'static,
    trace: &ArrivalTrace,
    workers: usize,
    account_shards: usize,
    delta: SimDuration,
    speedup: f64,
) -> RealtimeOutcome {
    let runtime = LiveRuntime::new(strategy, trace.clients, account_shards);
    let workers = workers.clamp(1, trace.clients.max(1));
    let block = trace.clients.div_ceil(workers);
    // Bucket each worker's *request* indices up front (rounds come from
    // the granter here), so workers walk their own share in time order
    // instead of scanning the whole trace.
    assert!(trace.events.len() < u32::MAX as usize, "trace too long");
    let mut shares: Vec<Vec<u32>> = vec![Vec::new(); workers];
    for (i, ev) in trace.events.iter().enumerate() {
        if matches!(ev.kind, TraceKind::Request { .. }) {
            shares[ev.client as usize / block].push(i as u32);
        }
    }
    let horizon_us = trace.events.last().map(|e| e.time_us).unwrap_or(0);
    let wall_of = |us: u64| Duration::from_secs_f64(us as f64 / 1e6 / speedup);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let counters = std::thread::scope(|scope| {
        let granter = {
            let runtime = &runtime;
            let stop = &stop;
            let period = wall_of(delta.as_micros()).max(Duration::from_micros(100));
            scope.spawn(move || {
                let mut rng = Xoshiro256pp::stream(0x9e3779, 0);
                let mut counters = LiveCounters::default();
                let mut next = period;
                while !stop.load(Ordering::Acquire) {
                    let now = start.elapsed();
                    if now < next {
                        std::thread::sleep((next - now).min(Duration::from_millis(2)));
                        continue;
                    }
                    for s in 0..runtime.accounts().shard_count() {
                        runtime.round_sweep(s, &mut rng, &mut counters, |_| {});
                    }
                    next += period;
                }
                counters
            })
        };
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let runtime = &runtime;
                let lo = (w * block).min(trace.clients);
                let hi = ((w + 1) * block).min(trace.clients);
                let events = &trace.events;
                let share = &shares[w];
                let seed = trace.decision_seed;
                scope.spawn(move || {
                    let mut rngs: Vec<Xoshiro256pp> =
                        (lo..hi).map(|c| decision_stream(seed, c)).collect();
                    let mut counters = LiveCounters::default();
                    for &i in share {
                        let ev = &events[i as usize];
                        let client = ev.client as usize;
                        let TraceKind::Request { useful } = ev.kind else {
                            unreachable!("shares hold request events only");
                        };
                        let at = wall_of(ev.time_us);
                        let mut now = start.elapsed();
                        while now < at {
                            if at - now > Duration::from_millis(2) {
                                std::thread::sleep(at - now - Duration::from_millis(1));
                            } else {
                                std::hint::spin_loop();
                            }
                            now = start.elapsed();
                        }
                        let rng = &mut rngs[client - lo];
                        runtime.admit(client, Usefulness::from_bool(useful), rng, &mut counters);
                    }
                    counters
                })
            })
            .collect();
        let mut merged = LiveCounters::default();
        for h in handles {
            merged.merge(&h.join().unwrap());
        }
        // Let the granter cover the full horizon before stopping it.
        let full = wall_of(horizon_us);
        while start.elapsed() < full {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        merged.merge(&granter.join().unwrap());
        merged
    });
    RealtimeOutcome {
        counters,
        balances_sum: runtime.balances_sum(),
        wall: start.elapsed(),
    }
}

/// The result of one full live-vs-sim comparison.
#[derive(Debug)]
pub struct CrossValidation {
    /// The simulator's counters.
    pub sim: SideOutcome,
    /// The live runtime's counters under the virtual clock.
    pub live: SideOutcome,
}

impl CrossValidation {
    /// Whether the two sides agree exactly.
    pub fn exact_match(&self) -> bool {
        self.sim == self.live
    }
}

/// Runs the full cross-validation for one strategy: sim oracle, then a
/// virtual-clock replay with the given parallelism.
///
/// # Errors
///
/// Propagates [`InvalidStrategyError`] from the strategy constructor.
pub fn live_vs_sim(
    spec: StrategySpec,
    workload: &OracleWorkload,
    workers: usize,
    account_shards: usize,
) -> Result<CrossValidation, InvalidStrategyError> {
    let (sim, trace) = run_sim_oracle(spec.build()?, workload);
    let live = replay_trace(spec.build()?, &trace, workers, account_shards);
    Ok(CrossValidation { sim, live })
}

#[cfg(test)]
mod tests {
    use super::*;
    use token_account::prelude::*;

    #[test]
    fn oracle_records_a_consistent_trace() {
        let w = OracleWorkload::quick(20, 3);
        let (outcome, trace) = run_sim_oracle(SimpleTokenAccount::new(5), &w);
        assert!(outcome.counters.is_consistent());
        assert!(outcome.counters.conserves(outcome.balances_sum));
        assert_eq!(trace.clients, 20);
        let rounds = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Round)
            .count() as u64;
        let requests = trace.events.len() as u64 - rounds;
        assert_eq!(rounds, outcome.counters.rounds);
        assert_eq!(requests, outcome.counters.requests);
        assert!(
            trace
                .events
                .windows(2)
                .all(|w| w[0].time_us <= w[1].time_us),
            "trace must be time-ordered"
        );
        assert!(requests > 0 && rounds > 0);
    }

    #[test]
    fn replay_is_exact_for_single_worker() {
        let w = OracleWorkload::quick(20, 11);
        let cv = live_vs_sim(StrategySpec::Randomized { a: 2, c: 6 }, &w, 1, 1).unwrap();
        assert!(cv.exact_match(), "sim {:?} != live {:?}", cv.sim, cv.live);
    }
}
