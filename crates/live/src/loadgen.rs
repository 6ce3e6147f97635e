//! Closed- and open-loop load generation against the live runtime.
//!
//! Each worker thread owns a contiguous block of virtual clients and an
//! independent xoshiro256++ stream, and drives admission decisions
//! against the shared [`LiveRuntime`]:
//!
//! * **Closed loop** — back-to-back decisions as fast as the runtime
//!   admits them: the throughput mode. The loop is a thin client: the
//!   deadline, the health board, the journal's epoch and the telemetry
//!   flush are visited once per chunk of `CHUNK` (256) arrivals, so a run
//!   overshoots its deadline, or a closed board, by one chunk (~10 µs) at
//!   most; and the clock pair around `admit` is taken on one decision in
//!   64, since a decision is ~20 ns and a clock read more than that.
//! * **Open loop** — Poisson arrivals at a configured per-client rate
//!   (the worker samples exponential gaps for the merged process of its
//!   whole block, which is distributionally identical to independent
//!   per-client processes), optionally mixed with bursts: with
//!   probability `burst.probability` an arrival brings `burst.size`
//!   back-to-back requests to the same client — the adversarial pattern
//!   token accounts exist to absorb. Pacing reads the clock per arrival
//!   anyway and this is the latency mode, so **every** decision is timed,
//!   deadline and board are checked per arrival, and the epoch is left
//!   around every wait; only the flush goes by the chunk.
//!
//! Both modes run one request step, so [`LoadGenReport::histogram`] holds
//! `Σ_workers ⌈requests_w / 64⌉` samples after a closed run and `requests`
//! after an open one.
//!
//! A granter thread applies the per-round Δ grant in contiguous batches
//! per shard ([`LiveRuntime::round_sweep`]). Decision latencies go into
//! per-worker [`LatencyHistogram`]s (no allocation, no sharing); counters
//! are per-worker [`LiveCounters`] merged at the end, and the report
//! closes the token-conservation books exactly — under any interleaving —
//! via [`LiveCounters::conserves`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use token_account::Usefulness;

use ta_sim::rng::Xoshiro256pp;
use ta_telemetry::mono_ns;

use crate::counters::LiveCounters;
use crate::health::{Component, HealthBoard, BEAT_EVERY, COMPONENTS};
use crate::histogram::LatencyHistogram;
use crate::persist::{JournalHandle, Persistence};
use crate::runtime::LiveRuntime;
use crate::signal::StopSignal;
use crate::telem::{c, h, LaneFlush, LiveTelemetry, WorkerTelem};

/// How request arrivals are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// Back-to-back decisions (throughput measurement).
    Closed,
    /// Poisson arrivals at this expected rate per client per second.
    Open {
        /// Expected requests per client per second.
        rate_per_client: f64,
    },
}

/// Bursty-arrival mix: some arrivals bring a back-to-back run of
/// requests to one client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstMix {
    /// Probability that an arrival is a burst.
    pub probability: f64,
    /// Requests per burst.
    pub size: u32,
}

/// Load-generator configuration. The client count and the shard layout
/// are the runtime's own ([`LiveRuntime::accounts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenConfig {
    /// Worker threads (each owns a contiguous client block).
    pub workers: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Arrival pacing.
    pub mode: ArrivalMode,
    /// Probability that a request is useful (`u = 1`).
    pub useful_probability: f64,
    /// Optional bursty mix on top of the base arrivals.
    pub burst: Option<BurstMix>,
    /// Round length Δ of the granter thread; `None` disables granting
    /// (pure drain benchmarks).
    pub round_period: Option<Duration>,
    /// Master seed for every worker/granter stream.
    pub seed: u64,
}

/// The merged outcome of a load-generator run.
#[derive(Debug)]
pub struct LoadGenReport {
    /// Merged counters (workers + granter).
    pub counters: LiveCounters,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time actually spent.
    pub wall: Duration,
    /// Merged decision-latency histogram (nanoseconds): every decision
    /// of an open loop, one in 64 of a closed loop's.
    pub histogram: LatencyHistogram,
    /// Sum of the final account balances.
    pub balances_sum: i64,
    /// Sum of the balances the run *started* from (non-zero only for
    /// runs resumed from a recovered state).
    pub initial_balances_sum: i64,
    /// Snapshots completed (zero without a journal).
    pub snapshots: u64,
    /// Snapshot attempts that failed: I/O errors or injected faults
    /// (zero without a journal).
    pub snapshot_failures: u64,
}

impl LoadGenReport {
    /// Admission (request) decisions per second, all workers together.
    pub fn decisions_per_sec(&self) -> f64 {
        self.counters.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Admission decisions per second per worker.
    pub fn decisions_per_sec_per_worker(&self) -> f64 {
        self.decisions_per_sec() / self.workers.max(1) as f64
    }

    /// Whether the token books close exactly
    /// (`tokens_banked − reactive_sent == balances_sum` net of any
    /// recovered starting balances).
    pub fn conserves(&self) -> bool {
        self.counters.is_consistent()
            && self
                .counters
                .conserves(self.balances_sum - self.initial_balances_sum)
    }
}

/// What a [`run_loadgen`] run attaches besides the runtime; every part
/// is optional, and `Attach::default()` runs bare load.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attach<'a> {
    /// The journal: every worker and the granter publish their balance
    /// deltas through per-thread [`JournalHandle`]s, and a snapshotter
    /// checkpoints the accounts every
    /// [`PersistConfig::snapshot_every`](crate::persist::PersistConfig::snapshot_every).
    /// Its manifest must describe the runtime's geometry. The caller
    /// keeps ownership: call [`Persistence::shutdown`] (or
    /// [`Persistence::sync`]) afterwards to make the tail durable.
    pub persistence: Option<&'a Persistence>,
    /// Telemetry: workers publish counter deltas to its registry and
    /// sampled decisions to its trace rings while the run is in flight;
    /// the journal writer and snapshot freezes are instrumented too.
    pub telem: Option<&'a LiveTelemetry>,
    /// Supervision: a health supervisor runs alongside, granter and
    /// worker heartbeats and admission gating go through the board, the
    /// granter watchdog is armed, and the journal writer gets IO
    /// retry/backoff and the `--on-journal-fail` policy.
    pub board: Option<&'a Arc<HealthBoard>>,
}

/// Runs load against `runtime` for `cfg.duration`: spawns the granter,
/// the workers, the snapshotter (journal with a snapshot cadence only)
/// and the health supervisor (board only). Build the runtime with
/// [`LiveRuntime::new`] for a fresh start, or
/// [`LiveRuntime::from_recovered`] to resume a recovered journal.
///
/// # Panics
///
/// If `cfg.workers` is zero, if the attached journal's manifest does not
/// describe `runtime`'s geometry, or with a worker's own panic.
pub fn run_loadgen(runtime: &LiveRuntime, cfg: &LoadGenConfig, with: Attach<'_>) -> LoadGenReport {
    assert!(cfg.workers >= 1, "need at least one worker");
    let Attach {
        persistence,
        telem,
        board,
    } = with;
    if let Some(p) = persistence {
        let (m, accounts) = (p.manifest(), runtime.accounts());
        assert_eq!(
            (m.clients, m.shards),
            (accounts.len(), accounts.shard_count()),
            "the journal's manifest does not match the runtime's geometry"
        );
        if let Some(t) = telem {
            p.attach_telemetry(t.persist_handle());
        }
    }
    if let Some(b) = board {
        if let Some(p) = persistence {
            p.attach_health(Arc::clone(b));
        }
        if let Some(t) = telem {
            b.attach_telemetry(t.control_handle());
        }
    }
    let board = board.map(Arc::as_ref);
    let initial_balances_sum = runtime.balances_sum();
    let stop = StopSignal::new();
    let granter_shared = GranterShared::default();
    let start = Instant::now();
    let granter = cfg.round_period.map(|period| Granter {
        runtime,
        seed: cfg.seed,
        period,
        start,
        stop: &stop,
        shared: &granter_shared,
        persistence,
        telem,
        board,
    });

    let (worker_outcomes, (snapshots, snapshot_failures)) = std::thread::scope(|scope| {
        let first_granter = granter.map(|g| g.spawn(scope, 0));
        let supervisor = board.map(|board| {
            let stop = &stop;
            scope.spawn(move || supervisor_loop(scope, stop, board, granter))
        });

        let snapper = persistence.and_then(|p| {
            let every = p.cfg().snapshot_every?;
            let stop = &stop;
            Some(scope.spawn(move || {
                let (mut done, mut failed) = (0, 0);
                let mut next = every;
                loop {
                    let now = start.elapsed();
                    if now < next {
                        if stop.wait_for(next - now) {
                            break;
                        }
                        continue;
                    }
                    match p.snapshot(runtime.accounts()) {
                        Ok(_) => done += 1,
                        Err(_) => failed += 1,
                    }
                    next += every;
                }
                (done, failed)
            }))
        });

        let clients = runtime.accounts().len();
        let block = clients.div_ceil(cfg.workers);
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let lo = (w * block).min(clients);
                let client = Client {
                    runtime,
                    cfg,
                    lo,
                    block: (((w + 1) * block).min(clients) - lo) as u64,
                    rng: Xoshiro256pp::stream(cfg.seed, 1 + w as u64),
                    counters: LiveCounters::default(),
                    histogram: LatencyHistogram::new(),
                    journal: persistence.map(Persistence::handle),
                    telem: telem.map(|t| t.worker(w)),
                    in_epoch: false,
                    untimed: 0,
                };
                scope.spawn(move || client.run(board))
            })
            .collect();
        // A worker that panicked must not strand the helper threads: they
        // only end on `stop`, so it is raised before any panic travels on.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop.stop();
        if let Some(g) = first_granter {
            g.join().unwrap();
        }
        if let Some(s) = supervisor {
            s.join().unwrap();
        }
        let snapshots = snapper.map_or((0, 0), |s| s.join().unwrap());
        let outcomes: Vec<_> = joined
            .into_iter()
            .map(|w| w.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        (outcomes, snapshots)
    });
    let wall = start.elapsed();

    let mut counters = granter_shared.counters.into_inner().unwrap();
    let mut histogram = LatencyHistogram::new();
    for (c, h) in &worker_outcomes {
        counters.merge(c);
        histogram.merge(h);
    }
    LoadGenReport {
        counters,
        workers: cfg.workers,
        wall,
        histogram,
        balances_sum: runtime.balances_sum(),
        initial_balances_sum,
        snapshots,
        snapshot_failures,
    }
}

/// Stream id of generation-0 of the granter (distinct from every
/// worker's `1 + w`); replacement generation `g` uses
/// `GRANTER_STREAM - g` so it never replays randomness the superseded
/// instance already consumed.
const GRANTER_STREAM: u64 = u64::MAX;

/// How often the supervisor sweeps the health board.
const SUPERVISOR_SWEEP: Duration = Duration::from_millis(25);
/// Heartbeat staleness past which an armed component is marked Degraded.
const HEARTBEAT_DEADLINE_NS: u64 = 300_000_000;
// A helper that heartbeats waits at most `BEAT_EVERY`: several beats per
// deadline, whatever its next duty.
const _: () = assert!(4 * BEAT_EVERY.as_nanos() <= HEARTBEAT_DEADLINE_NS as u128);
/// Granter staleness past which the watchdog spawns a replacement.
const GRANTER_RESTART_NS: u64 = 450_000_000;
/// Restart budget and spacing: self-healing, not a restart storm.
const GRANTER_RESTART_MAX: u32 = 5;
const GRANTER_RESTART_COOLDOWN: Duration = Duration::from_millis(500);
/// How long the injected `granter_stall` fault plays dead — past the
/// watchdog threshold, so a restart is guaranteed.
const GRANTER_STALL: Duration = Duration::from_millis(900);

/// State shared by every granter generation and the supervisor.
#[derive(Debug, Default)]
pub(crate) struct GranterShared {
    /// Next unswept round index. A granter claims round `r` with a CAS
    /// `r → r+1` *before* sweeping, so even while a stalled generation
    /// and its replacement overlap, no round's grants are ever applied
    /// twice — conservation holds across restarts by construction.
    round_claim: AtomicU64,
    /// Current granter generation; the supervisor bumps it to supersede
    /// a stalled instance, which exits when it next observes the bump.
    generation: AtomicU64,
    /// Every generation merges its counters here on exit.
    pub(crate) counters: Mutex<LiveCounters>,
}

/// The granter of one run: the Δ schedule and what every generation of
/// it shares. Round `r` is due `period · (r + 1)` after `start`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Granter<'a> {
    pub(crate) runtime: &'a LiveRuntime,
    /// Generation `g` draws from stream `GRANTER_STREAM - g` of this seed.
    pub(crate) seed: u64,
    pub(crate) period: Duration,
    pub(crate) start: Instant,
    pub(crate) stop: &'a StopSignal,
    pub(crate) shared: &'a GranterShared,
    pub(crate) persistence: Option<&'a Persistence>,
    pub(crate) telem: Option<&'a LiveTelemetry>,
    pub(crate) board: Option<&'a HealthBoard>,
}

impl<'a> Granter<'a> {
    /// Spawns one generation onto the run's scope.
    pub(crate) fn spawn<'env>(
        self,
        scope: &'a std::thread::Scope<'a, 'env>,
        generation: u64,
    ) -> std::thread::ScopedJoinHandle<'a, ()> {
        scope.spawn(move || granter_loop(self, generation))
    }
}

/// One granter generation: claims rounds off the shared counter and
/// sweeps them until stopped or superseded. Between rounds it waits on
/// the stop signal until the next round is due, or for one beat when a
/// board watches it.
fn granter_loop(granter: Granter<'_>, generation: u64) {
    let Granter {
        runtime,
        seed,
        period,
        start,
        stop,
        shared,
        persistence,
        telem,
        board,
    } = granter;
    let mut journal = persistence.map(Persistence::handle);
    let mut flush = telem.map(|t| LaneFlush::new(t.granter_handle()));
    let mut rng = Xoshiro256pp::stream(seed, GRANTER_STREAM - generation);
    let mut counters = LiveCounters::default();
    let period_ns = period.as_nanos().max(1) as u64;
    let beat = board.map_or(Duration::MAX, |_| BEAT_EVERY);
    while !stop.is_stopped() && shared.generation.load(Ordering::Acquire) == generation {
        if let Some(b) = board {
            b.beat(Component::Granter);
        }
        let round = shared.round_claim.load(Ordering::Acquire);
        let due = Duration::from_nanos(period_ns.saturating_mul(round + 1));
        let now = start.elapsed();
        if now < due {
            stop.wait_for((due - now).min(beat));
            continue;
        }
        if shared
            .round_claim
            .compare_exchange(round, round + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue; // another generation already owns this round
        }
        let sweep_start = Instant::now();
        let mut swept = 0u64;
        for s in 0..runtime.accounts().shard_count() {
            // Proactive sends would leave through a transport here; the
            // load generator only accounts them.
            swept += match journal.as_mut() {
                Some(j) => runtime.round_sweep_journaled(s, &mut rng, &mut counters, |_| {}, j),
                None => runtime.round_sweep(s, &mut rng, &mut counters, |_| {}),
            };
            if let Some(b) = board {
                b.beat(Component::Granter);
            }
        }
        if let Some(f) = flush.as_mut() {
            // One delta publish per whole-accounts pass: the sweep loop
            // itself stays untouched. Jitter is how late past its
            // deadline this pass started; sweep duration is the
            // whole-accounts walk above.
            f.handle()
                .add(c::GRANTER_SWEEPS, runtime.accounts().shard_count() as u64);
            f.handle().add(c::GRANTER_ACCOUNTS, swept);
            f.handle()
                .hist_record(h::ROUND_JITTER_NS, (now - due).as_nanos() as u64);
            f.handle()
                .hist_record(h::GRANTER_SWEEP_NS, sweep_start.elapsed().as_nanos() as u64);
            f.flush(&counters);
        }
        if let Some(b) = board {
            if b.take_granter_stall() {
                // Injected fault: go dark past the watchdog deadline (a
                // stop still ends it). The supervisor spawns a fresh
                // generation; this one exits via the generation check.
                stop.wait_for(GRANTER_STALL);
            }
        }
    }
    if let Some(f) = flush.as_mut() {
        f.flush(&counters);
    }
    shared.counters.lock().unwrap().merge(&counters);
}

/// The health supervisor: sweeps the board every [`SUPERVISOR_SWEEP`]
/// until stopped, and restarts the granter when its beat goes stale.
fn supervisor_loop<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    stop: &StopSignal,
    board: &HealthBoard,
    granter: Option<Granter<'scope>>,
) {
    let mut replacements = Vec::new();
    let mut restarts = 0u32;
    let mut cooldown_until = Instant::now();
    while !stop.wait_for(SUPERVISOR_SWEEP) {
        let now_ns = mono_ns();
        for component in COMPONENTS {
            board.supervise_beat(component, now_ns, HEARTBEAT_DEADLINE_NS);
        }
        let beat = board.last_beat_ns(Component::Granter);
        if let Some(granter) = granter {
            if beat != 0
                && now_ns.saturating_sub(beat) > GRANTER_RESTART_NS
                && restarts < GRANTER_RESTART_MAX
                && Instant::now() >= cooldown_until
            {
                // Supersede the stalled generation: it exits (and merges
                // its counters) when it next wakes; the shared round
                // claim guarantees the overlap can't double-grant.
                let generation = granter.shared.generation.fetch_add(1, Ordering::AcqRel) + 1;
                board.count(c::GRANTER_RESTARTS);
                replacements.push(granter.spawn(scope, generation));
                restarts += 1;
                cooldown_until = Instant::now() + GRANTER_RESTART_COOLDOWN;
            }
        }
    }
    for r in replacements {
        let _ = r.join();
    }
}

/// Arrivals per chunk — the worker's one stride. Per chunk: the deadline
/// and [`HealthBoard::admission_open`] check (closed loop), one step out
/// of the journal's epoch, one telemetry flush. Per decision: the draws,
/// the admit call, the trace-sample hook.
const CHUNK: u32 = 256;
/// The closed loop reads the clock around one decision in this many: at
/// ~20 ns a decision, timing each one measures the clock.
const CLOSED_TIMED_1_IN: u32 = 64;

/// One worker: a contiguous client block `lo..lo + block` with its own
/// stream, books and handles.
struct Client<'a> {
    runtime: &'a LiveRuntime,
    cfg: &'a LoadGenConfig,
    lo: usize,
    block: u64,
    rng: Xoshiro256pp,
    counters: LiveCounters,
    histogram: LatencyHistogram,
    journal: Option<JournalHandle>,
    telem: Option<WorkerTelem>,
    in_epoch: bool,
    /// Decisions left before the next timed one.
    untimed: u32,
}

impl Client<'_> {
    /// One arrival — the step both arrival modes share: picks a client,
    /// draws the burst and each request's usefulness, admits, offers the
    /// decision to the trace sampler. Decisions `0, n, 2n, …` of the
    /// worker are timed, `n = timed_1_in`.
    #[inline]
    fn request(&mut self, timed_1_in: u32) {
        let runtime = self.runtime;
        let client = self.lo + self.rng.below(self.block) as usize;
        let requests = match self.cfg.burst {
            Some(b) if self.rng.chance(b.probability) => b.size.max(1),
            _ => 1,
        };
        for _ in 0..requests {
            let usefulness = Usefulness::from_bool(self.rng.chance(self.cfg.useful_probability));
            let t0 = (self.untimed == 0).then(Instant::now);
            let (rng, counters) = (&mut self.rng, &mut self.counters);
            let decision = match self.journal.as_mut() {
                Some(j) => runtime.admit_journaled(client, usefulness, rng, counters, j),
                None => runtime.admit(client, usefulness, rng, counters),
            };
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                self.histogram.record(ns);
                if let Some(t) = self.telem.as_mut() {
                    t.record_admit(ns);
                }
                self.untimed = timed_1_in;
            }
            self.untimed -= 1;
            if let Some(t) = self.telem.as_mut() {
                t.trace(client, decision, || {
                    runtime.accounts().account(client).balance()
                });
            }
        }
    }

    /// Durable runs hold the producer's epoch across a run of admissions
    /// (`hold`), so the two seq-cst fence operations amortize over it, and
    /// leave it before any wait.
    #[inline]
    fn epoch(&mut self, hold: bool) {
        if let (Some(j), true) = (self.journal.as_mut(), hold != self.in_epoch) {
            if hold {
                j.enter_bulk();
            } else {
                j.exit();
            }
            self.in_epoch = hold;
        }
    }

    /// Chunk boundary: one idle window for a waiting snapshotter to slip
    /// through, and the counter deltas go to the registry.
    fn end_chunk(&mut self) {
        self.epoch(false);
        if let Some(t) = self.telem.as_mut() {
            t.flush(&self.counters);
        }
    }

    /// Drives the block until the deadline, or until the board closes
    /// admissions (halt/exit policy).
    fn run(mut self, board: Option<&HealthBoard>) -> (LiveCounters, LatencyHistogram) {
        if self.block == 0 {
            return (self.counters, self.histogram); // more workers than clients
        }
        let (cfg, start) = (self.cfg, Instant::now());
        let live = |now| now < cfg.duration && board.is_none_or(HealthBoard::admission_open);
        match cfg.mode {
            ArrivalMode::Closed => {
                while live(start.elapsed()) {
                    self.epoch(true);
                    for _ in 0..CHUNK {
                        self.request(CLOSED_TIMED_1_IN);
                    }
                    self.end_chunk();
                }
            }
            // Exponential gaps for the merged Poisson process of the block.
            // Per arrival here: the clock, the deadline, the board.
            ArrivalMode::Open { rate_per_client } => {
                let rate = rate_per_client * self.block as f64;
                let mut next_arrival = Duration::ZERO;
                'run: loop {
                    for _ in 0..CHUNK {
                        let now = start.elapsed();
                        if !live(now) || rate <= 0.0 {
                            break 'run; // over, or nothing will ever arrive
                        }
                        let gap = -(1.0 - self.rng.next_f64()).ln() / rate;
                        // A gap past `Duration::MAX` lands after any deadline.
                        let Some(next) = Duration::try_from_secs_f64(gap)
                            .ok()
                            .and_then(|gap| next_arrival.checked_add(gap))
                        else {
                            break 'run;
                        };
                        next_arrival = next;
                        if next_arrival > now {
                            let wait = next_arrival - now;
                            if start.elapsed() + wait >= cfg.duration {
                                break 'run;
                            }
                            self.epoch(false); // never sleep inside the epoch
                            if wait > Duration::from_millis(2) {
                                std::thread::sleep(wait - Duration::from_millis(1));
                            }
                            while start.elapsed() < next_arrival {
                                std::hint::spin_loop();
                            }
                        }
                        self.epoch(true);
                        self.request(1);
                    }
                    self.end_chunk();
                }
            }
        }
        self.end_chunk();
        (self.counters, self.histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use token_account::prelude::*;

    /// 500 clients in 8 shards.
    fn runtime(strategy: impl Strategy + 'static) -> LiveRuntime {
        LiveRuntime::new(strategy, 500, 8)
    }

    /// A run with nothing attached.
    fn bare(strategy: impl Strategy + 'static, cfg: &LoadGenConfig) -> LoadGenReport {
        run_loadgen(&runtime(strategy), cfg, Attach::default())
    }

    fn tiny(mode: ArrivalMode) -> LoadGenConfig {
        LoadGenConfig {
            workers: 2,
            duration: Duration::from_millis(150),
            mode,
            useful_probability: 0.8,
            burst: Some(BurstMix {
                probability: 0.1,
                size: 4,
            }),
            round_period: Some(Duration::from_millis(20)),
            seed: 42,
        }
    }

    #[test]
    fn closed_loop_conserves_and_reports() {
        let report = bare(
            RandomizedTokenAccount::new(2, 6).unwrap(),
            &tiny(ArrivalMode::Closed),
        );
        assert!(
            report.conserves(),
            "books must close: {:?}",
            report.counters
        );
        assert!(report.counters.requests > 0);
        assert!(report.counters.rounds > 0, "granter must have swept");
        assert_eq!((report.snapshots, report.snapshot_failures), (0, 0));
        // The sampling law: each worker times its decisions 0, 64, 128, …,
        // so count = Σ_w ⌈requests_w / 64⌉, bounded from the merged total.
        let (timed, requests) = (report.histogram.count(), report.counters.requests);
        let n = u64::from(CLOSED_TIMED_1_IN);
        assert!(
            requests.div_ceil(n) <= timed && timed <= requests / n + report.workers as u64,
            "{timed} timed decisions of {requests}"
        );
        assert!(report.decisions_per_sec() > 0.0);
        assert!(report.decisions_per_sec_per_worker() <= report.decisions_per_sec());
    }

    #[test]
    fn open_loop_rate_is_roughly_respected() {
        let mut cfg = tiny(ArrivalMode::Open {
            rate_per_client: 200.0,
        });
        cfg.burst = None;
        cfg.duration = Duration::from_millis(300);
        let report = bare(SimpleTokenAccount::new(10), &cfg);
        assert!(report.conserves());
        // 500 clients × 200/s × 0.3 s = 30k expected arrivals; the loop
        // may lag on a loaded machine but must be in the right decade.
        assert!(
            report.counters.requests > 3_000,
            "open loop too slow: {} requests",
            report.counters.requests
        );
        // The latency mode times every arrival.
        assert_eq!(report.histogram.count(), report.counters.requests);
    }

    #[test]
    fn zero_duration_makes_no_decisions() {
        for mode in [
            ArrivalMode::Closed,
            ArrivalMode::Open {
                rate_per_client: 200.0,
            },
        ] {
            let mut cfg = tiny(mode);
            cfg.duration = Duration::ZERO;
            let report = bare(SimpleTokenAccount::new(10), &cfg);
            assert_eq!(report.counters.requests, 0, "{mode:?}");
            assert_eq!(report.histogram.count(), 0, "{mode:?}");
            assert!(report.conserves());
        }
    }

    #[test]
    fn tiny_open_loop_rate_makes_no_decisions() {
        // Every gap overflows a `Duration` (or the deadline): no arrival.
        for rate_per_client in [1e-300, 1e-12, f64::MIN_POSITIVE] {
            let mut cfg = tiny(ArrivalMode::Open { rate_per_client });
            cfg.duration = Duration::from_millis(20);
            let report = bare(SimpleTokenAccount::new(10), &cfg);
            assert_eq!(report.counters.requests, 0, "{rate_per_client}");
            assert!(report.conserves());
        }
    }

    #[test]
    fn closed_loop_overshoots_its_deadline_by_at_most_a_chunk() {
        let mut cfg = tiny(ArrivalMode::Closed);
        cfg.duration = Duration::from_millis(50);
        // No granter: the wall is the workers alone. A chunk is ~10 µs; the
        // slack is for thread start and a busy host, and the best of three
        // runs discards a descheduled worker.
        cfg.round_period = None;
        let wall = (0..3)
            .map(|_| bare(SimpleTokenAccount::new(10), &cfg).wall)
            .min()
            .unwrap();
        assert!(wall >= cfg.duration, "stopped early: {wall:?}");
        assert!(
            wall < cfg.duration + Duration::from_millis(10),
            "overshot: {wall:?}"
        );
    }

    #[test]
    fn more_workers_than_clients_conserves_and_stays_on_real_clients() {
        // Blocks of ⌈5/4⌉ = 2: workers 0–2 own 0..2, 2..4, 4..5; worker 3
        // owns the empty block 5..5 and must sit the run out.
        let mut cfg = tiny(ArrivalMode::Closed);
        cfg.workers = 4;
        cfg.duration = Duration::from_millis(40);
        let telem = LiveTelemetry::new(cfg.workers, 1, 1 << 12);
        let with = Attach {
            telem: Some(&telem),
            ..Attach::default()
        };
        let rt = LiveRuntime::new(SimpleTokenAccount::new(10), 5, 8);
        let report = run_loadgen(&rt, &cfg, with);
        assert!(report.conserves(), "{:?}", report.counters);
        assert!(report.counters.requests > 0);
        let mut out = Vec::new();
        for mut cons in telem.take_consumers() {
            cons.drain(&mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.client < 5));
    }

    /// A strategy whose first reactive evaluation panics. It is unbounded
    /// and allows no debt, so its table has no rows: the formulas decide
    /// every balance, inside the worker.
    #[derive(Debug, Clone)]
    struct PanickingStrategy;

    impl Strategy for PanickingStrategy {
        fn proactive(&self, _balance: i64) -> f64 {
            0.0
        }
        fn reactive(&self, _balance: i64, _usefulness: Usefulness) -> f64 {
            panic!("reactive blew up")
        }
        fn capacity(&self) -> token_account::Capacity {
            token_account::Capacity::Unbounded
        }
        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    #[test]
    fn a_panicking_worker_ends_the_run_with_its_own_panic() {
        // Granter and supervisor only end on `stop`: a worker panic that
        // unwinds past it would leave the scope waiting on them forever.
        let mut cfg = tiny(ArrivalMode::Closed);
        cfg.duration = Duration::from_secs(30);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let board = HealthBoard::new(crate::health::OnJournalFail::Degrade);
            let run = std::panic::AssertUnwindSafe(|| {
                let with = Attach {
                    board: Some(&board),
                    ..Attach::default()
                };
                run_loadgen(&runtime(PanickingStrategy), &cfg, with)
            });
            let _ = tx.send(std::panic::catch_unwind(run).map(|_| ()));
        });
        let payload = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the run must return, not block on its helper threads")
            .expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"reactive blew up"));
    }

    #[test]
    fn closing_admissions_stops_a_closed_run_at_once_and_conserves() {
        use crate::health::OnJournalFail;
        let mut cfg = tiny(ArrivalMode::Closed);
        cfg.duration = Duration::from_secs(30);
        let telem = LiveTelemetry::new(cfg.workers, 0, 0);
        let board = HealthBoard::new(OnJournalFail::Halt);
        let (report, closed_at) = std::thread::scope(|s| {
            let run = s.spawn(|| {
                let with = Attach {
                    telem: Some(&telem),
                    board: Some(&board),
                    ..Attach::default()
                };
                let rt = runtime(RandomizedTokenAccount::new(2, 6).unwrap());
                run_loadgen(&rt, &cfg, with)
            });
            while telem.snapshot().counter(c::ADMIT_REQUESTS) == 0 {
                std::thread::yield_now();
            }
            board.journal_failed(); // the halt policy closes admissions
            let closed_at = Instant::now();
            (run.join().unwrap(), closed_at)
        });
        // Workers leave within a chunk; the stop wakes every helper at once.
        assert!(closed_at.elapsed() < Duration::from_secs(2));
        assert!(report.wall < cfg.duration);
        assert!(
            report.conserves(),
            "books must close: {:?}",
            report.counters
        );
        assert_eq!(
            telem.snapshot().counter(c::ADMIT_REQUESTS),
            report.counters.requests
        );
    }

    #[test]
    fn observed_run_registry_matches_merged_counters_exactly() {
        let cfg = tiny(ArrivalMode::Closed);
        let telem = LiveTelemetry::new(cfg.workers, 1, 1 << 16);
        let with = Attach {
            telem: Some(&telem),
            ..Attach::default()
        };
        let rt = runtime(RandomizedTokenAccount::new(2, 6).unwrap());
        let report = run_loadgen(&rt, &cfg, with);
        assert!(report.conserves());
        let snap = telem.snapshot();
        let m = &report.counters;
        assert_eq!(snap.counter(c::ADMIT_REQUESTS), m.requests);
        assert_eq!(snap.counter(c::ADMIT_REACTIVE_SENT), m.reactive_sent);
        assert_eq!(snap.counter(c::ADMIT_REACTIVE_HELD), m.reactive_held);
        assert_eq!(snap.counter(c::ROUND_ROUNDS), m.rounds);
        assert_eq!(snap.counter(c::ROUND_PROACTIVE_SENT), m.proactive_sent);
        assert_eq!(snap.counter(c::ROUND_TOKENS_BANKED), m.tokens_banked);
        assert_eq!(snap.counter(c::GRANTER_ACCOUNTS), m.rounds);
        // The registry's `admit_ns` is the merge of the workers' own
        // histograms, bucket for bucket: each timed sample goes to both.
        let (admit, own) = (snap.hist(h::ADMIT_NS), &report.histogram);
        assert_eq!(
            (admit.count(), admit.sum(), admit.max()),
            (own.count(), own.sum(), own.max())
        );
        assert_eq!(admit.buckets(), own.buckets());
        // Sample interval 1: every decision sampled; ring accounting
        // closes against the sampled total.
        assert_eq!(snap.counter(c::TRACE_SAMPLED), m.requests);
        let mut out = Vec::new();
        for mut cons in telem.take_consumers() {
            cons.drain(&mut out);
        }
        assert_eq!(
            out.len() as u64 + snap.counter(c::TRACE_DROPPED),
            snap.counter(c::TRACE_SAMPLED)
        );
    }

    #[test]
    fn supervised_run_restarts_a_stalled_granter_and_conserves() {
        use crate::health::{HealthBoard, OnJournalFail};
        let mut cfg = tiny(ArrivalMode::Closed);
        // Long enough for: first sweep (~20ms) → injected 900ms stall →
        // watchdog restart (~450ms in) → replacement sweeps more rounds.
        cfg.duration = Duration::from_millis(1500);
        let telem = LiveTelemetry::new(cfg.workers, 0, 0);
        let board = HealthBoard::new(OnJournalFail::Degrade);
        board.arm_granter_stall();
        let with = Attach {
            telem: Some(&telem),
            board: Some(&board),
            ..Attach::default()
        };
        let rt = LiveRuntime::new(RandomizedTokenAccount::new(2, 6).unwrap(), 200, 8);
        let report = run_loadgen(&rt, &cfg, with);
        assert!(
            report.conserves(),
            "books must close across a granter restart: {:?}",
            report.counters
        );
        assert!(report.counters.rounds > 0, "granter must have swept");
        let snap = telem.snapshot();
        assert!(
            snap.counter(c::GRANTER_RESTARTS) >= 1,
            "watchdog must have restarted the stalled granter"
        );
        // The replacement beat again, so the supervisor walked the
        // granter back to Healthy before the run ended.
        assert_eq!(
            board.state(crate::health::Component::Granter),
            crate::health::HealthState::Healthy
        );
        // Registry totals still agree with the merged counters even
        // though two generations contributed.
        assert_eq!(snap.counter(c::ROUND_ROUNDS), report.counters.rounds);
        assert_eq!(
            snap.counter(c::ROUND_TOKENS_BANKED),
            report.counters.tokens_banked
        );
    }

    #[test]
    fn spec_dispatch_runs_every_family() {
        let mut cfg = tiny(ArrivalMode::Closed);
        cfg.duration = Duration::from_millis(40);
        for spec in [
            StrategySpec::Proactive,
            StrategySpec::Reactive { k: 2 },
            StrategySpec::Simple { c: 10 },
            StrategySpec::Generalized { a: 5, c: 10 },
            StrategySpec::Randomized { a: 5, c: 10 },
        ] {
            let report = bare(spec.build().unwrap(), &cfg);
            assert!(report.conserves(), "{spec:?} failed conservation");
        }
        assert!(StrategySpec::Reactive { k: 0 }.build().is_err());
    }
}
