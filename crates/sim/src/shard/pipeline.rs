//! The coordinator of a run: the blocks' engines, the engine-global event
//! trains, and — for more than one shard — the barrier-free pipeline.
//!
//! A [`Core`] over one block runs it straight through on the calling
//! thread ([`Core::run_whole`]): to each engine-global instant, fire, go
//! on. Over several blocks [`Core::run_to_end`] spawns the persistent
//! workers once, then drives the run as a sequence of dispatches over
//! per-worker channels:
//!
//! * [`Work::Segment`] — a run of consecutive full windows with no
//!   engine-global event inside. Workers advance window-to-window through
//!   the [`super::exchange`] gate on their own; the coordinator sleeps on
//!   the done channel, completely off the hot path.
//! * [`Work::Part`] — an inclusive run up to an engine-global instant (or
//!   the horizon). Once every worker reports done the fleet is quiescent
//!   and the coordinator fires the sample/inject callbacks with all
//!   shards parked.
//!
//! One done message per worker per dispatch is the only coordinator-side
//! synchronization; within a segment the per-window cost is a single gate
//! pass.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use ta_telemetry::{Profile, ProfileData};

use super::exchange::{GateStats, SegCtl, SegOutcome};
use super::worker::{self, Work};
use super::ShardPlan;
use crate::config::SimConfig;
use crate::engine::{AvailabilityModel, Ctx, Driver, Engine, Kernel, SimApi, SimStats};
use crate::queue::{order_key, GLOBAL_ORIGIN};
use crate::time::{SimDuration, SimTime};

/// A barrier-time callback over every block of the run.
pub(crate) type Barrier<B> = fn(&mut [&mut B], &mut SimApi<'_, <B as Driver>::Msg>);

/// The sample and the inject callback of a run.
pub(crate) type Barriers<B> = (Barrier<B>, Barrier<B>);

/// Engine-global events the coordinator owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GlobalEv {
    Sample,
    Inject,
}

/// The engine-global event trains — periodic sample and inject — and the
/// callbacks they fire. Their keys carry [`GLOBAL_ORIGIN`], so they sort
/// after every node event of their instant: "run every block through `t`,
/// then fire the globals at `t`" is exact.
struct Trains<B: Driver> {
    barriers: Barriers<B>,
    sample_period: Option<SimDuration>,
    injection_period: Option<SimDuration>,
    counter: u64,
    /// Pending firings (one per configured train; scanned linearly).
    pending: Vec<(SimTime, u64, GlobalEv)>,
}

impl<B: Driver> Trains<B> {
    fn new(cfg: &SimConfig, barriers: Barriers<B>) -> Self {
        let mut trains = Trains {
            barriers,
            sample_period: cfg.sample_period(),
            injection_period: cfg.injection_period(),
            counter: 0,
            pending: Vec::new(),
        };
        // Sample first: at a shared instant it fires before the inject.
        for ev in [GlobalEv::Sample, GlobalEv::Inject] {
            trains.schedule(SimTime::ZERO, ev);
        }
        trains
    }

    /// Schedules the firing of `ev` one period after `from`, if its train
    /// is configured (one global key per firing).
    fn schedule(&mut self, from: SimTime, ev: GlobalEv) {
        let period = match ev {
            GlobalEv::Sample => self.sample_period,
            GlobalEv::Inject => self.injection_period,
        };
        if let Some(period) = period {
            let key = order_key(GLOBAL_ORIGIN, self.counter);
            self.counter += 1;
            self.pending.push((from + period, key, ev));
        }
    }

    /// Earliest pending firing (unbounded; callers bound it against the
    /// horizon and window edge themselves).
    fn next(&self) -> Option<SimTime> {
        self.pending.iter().map(|&(t, ..)| t).min()
    }

    /// Fires every pending global event scheduled exactly at `t`, in key
    /// order, with all blocks quiescent at `t`.
    fn fire_at(&mut self, engines: &mut [&mut Engine<B>], plan: &ShardPlan, t: SimTime) {
        let (mut kernels, mut blocks): (Vec<&mut Kernel<B::Msg>>, Vec<&mut B>) = engines
            .iter_mut()
            .map(|e| (&mut e.kernel, &mut e.driver))
            .unzip();
        while let Some(i) = (0..self.pending.len())
            .filter(|&i| self.pending[i].0 == t)
            .min_by_key(|&i| self.pending[i].1)
        {
            let (_, _, ev) = self.pending.swap_remove(i);
            // The first block's kernel replays every churn event, so its
            // online bookkeeping is the network's; it also keeps the
            // global stream and the books of the global events.
            let k0 = &mut *kernels[0];
            debug_assert_eq!(k0.now, t);
            k0.stats.events_processed += 1;
            k0.ctx = Ctx::Global;
            let callback = match ev {
                GlobalEv::Sample => {
                    k0.stats.samples += 1;
                    self.barriers.0
                }
                GlobalEv::Inject => {
                    k0.stats.injections += 1;
                    self.barriers.1
                }
            };
            callback(&mut blocks, &mut SimApi { kernel: k0 });
            // Sends made on behalf of other blocks' nodes: each is charged
            // to its sender's counter and engine stream, by its owner.
            let mut foreign = std::mem::take(&mut kernels[0].foreign);
            for (from, to, msg) in foreign.drain(..) {
                kernels[plan.shard_of(from)].send(from, to, msg);
            }
            kernels[0].foreign = foreign;
            self.schedule(t, ev);
        }
        for e in engines {
            e.flush_pending();
        }
    }
}

/// Channel ends the coordinator dispatches through (absent for the
/// single-worker inline path).
struct Dispatch {
    txs: Vec<Sender<Work>>,
    done: Receiver<()>,
}

impl Dispatch {
    /// Sends `work` to every worker and waits until each reports done —
    /// after which the fleet is quiescent and gate/engine state is the
    /// coordinator's to touch.
    fn run(&self, work: Work) {
        for tx in &self.txs {
            // A send can only fail if a worker died outside its
            // catch_unwind (a pipeline bug, not a driver panic); the
            // done-count below still drains whatever is left.
            let _ = tx.send(work);
        }
        for _ in 0..self.txs.len() {
            if self.done.recv().is_err() {
                break;
            }
        }
    }
}

pub(crate) struct Core<B: Driver> {
    pub(crate) plan: Arc<ShardPlan>,
    end: SimTime,
    transfer: SimDuration,
    /// One engine per block, in shard order.
    pub(crate) engines: Vec<Engine<B>>,
    trains: Trains<B>,
    /// Gate work-distribution totals accumulated across dispatches (the
    /// gate itself lives only for one `run_to_end`).
    gate_stats: GateStats,
    pub(crate) finished: bool,
}

impl<B: Driver> Core<B> {
    pub(crate) fn new(
        cfg: SimConfig,
        availability: &dyn AvailabilityModel,
        plan: ShardPlan,
        blocks: Vec<B>,
        barriers: Barriers<B>,
    ) -> Self {
        let plan = Arc::new(plan);
        let engines = blocks
            .into_iter()
            .enumerate()
            .map(|(s, block)| Engine::new(&plan, s, &cfg, availability, block))
            .collect();
        Core {
            plan,
            end: SimTime::ZERO + cfg.duration(),
            transfer: cfg.transfer_time(),
            engines,
            trains: Trains::new(&cfg, barriers),
            gate_stats: GateStats::default(),
            finished: false,
        }
    }

    /// The S = 1 run: nothing to exchange, so the one block runs straight
    /// to each engine-global instant and then to `until` — no window, no
    /// gate, no thread. Incremental: call again with a later `until`.
    pub(crate) fn run_whole(&mut self, until: SimTime) {
        let [engine] = &mut self.engines[..] else {
            unreachable!("the whole network is one block");
        };
        while let Some(t) = self.trains.next().filter(|&t| t <= until) {
            engine.run_until(t);
            self.trains.fire_at(&mut [&mut *engine], &self.plan, t);
        }
        engine.run_until(until);
    }

    pub(crate) fn run_whole_to_end(&mut self) {
        self.run_whole(self.end);
        self.finished = true;
    }

    /// Current virtual time of a run between dispatches.
    pub(crate) fn now(&self) -> SimTime {
        if self.finished {
            self.end
        } else {
            self.engines[0].kernel.now
        }
    }

    pub(crate) fn pending_events(&self) -> usize {
        let queued: usize = self.engines.iter().map(Engine::pending_events).sum();
        queued + self.trains.pending.len()
    }

    pub(crate) fn merged_stats(&self) -> SimStats {
        let mut stats = SimStats::default();
        for e in &self.engines {
            stats.merge(&e.kernel.stats);
        }
        stats
    }

    /// Self-profiling totals merged across shards, plus the gate's
    /// always-on claim/steal/skip counts.
    pub(crate) fn merged_profile(&self) -> ProfileData {
        let mut data = ProfileData::default();
        for e in &self.engines {
            data.merge(e.profile.data());
        }
        data.claims += self.gate_stats.claims;
        data.steals += self.gate_stats.steals;
        data.skipped_windows += self.gate_stats.skipped;
        data
    }

    /// Forces batch/window/mailbox profiling on or off for every engine
    /// (overrides the `TA_PROFILE` environment default).
    pub(crate) fn set_profiling(&mut self, enabled: bool) {
        for e in &mut self.engines {
            e.profile = Profile::forced(enabled);
        }
    }

    /// Consumes the run: the blocks in shard order, and the merged
    /// statistics.
    pub(crate) fn into_blocks(self) -> (Vec<B>, SimStats) {
        let stats = self.merged_stats();
        (self.engines.into_iter().map(|e| e.driver).collect(), stats)
    }
}

impl<B: Driver + Send> Core<B>
where
    B::Msg: Send,
{
    /// Runs to the horizon on up to `threads` worker threads (clamped to
    /// `[1, shards]`).
    pub(crate) fn run_to_end(&mut self, threads: usize) {
        if self.finished {
            return;
        }
        let shards = self.engines.len();
        if shards == 1 {
            return self.run_whole_to_end();
        }
        let end = self.end;
        let workers = threads.clamp(1, shards);
        // Worker threads share the engines through mutexes while the
        // coordinator keeps `&mut self` for everything else; the scope
        // guarantees the workers are gone before the engines move back.
        let engines: Vec<_> = std::mem::take(&mut self.engines)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let ctl = SegCtl::new(shards, workers);
        if workers == 1 {
            // Inline: the coordinator is the only participant; the same
            // gate code runs claims and window advances single-threaded.
            self.coordinate(&engines, &ctl, end, None);
        } else {
            let transfer = self.transfer;
            std::thread::scope(|scope| {
                let (done_tx, done_rx) = channel::<()>();
                let mut txs = Vec::with_capacity(workers);
                for w in 0..workers {
                    let (tx, rx) = channel::<Work>();
                    txs.push(tx);
                    let done = done_tx.clone();
                    let (engines, ctl) = (&engines, &ctl);
                    scope.spawn(move || worker::worker_loop(w, rx, done, engines, ctl, transfer));
                }
                drop(done_tx);
                let dispatch = Dispatch { txs, done: done_rx };
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.coordinate(&engines, &ctl, end, Some(&dispatch));
                }));
                // Close the work channels before (re-)raising anything:
                // workers fall out of their recv loop, so the scope's
                // implicit join cannot deadlock.
                drop(dispatch);
                if let Err(payload) = outcome {
                    std::panic::resume_unwind(payload);
                }
            });
        }
        let g = ctl.gate_stats();
        self.gate_stats.claims += g.claims;
        self.gate_stats.steals += g.steals;
        self.gate_stats.skipped += g.skipped;
        self.engines = engines
            .into_iter()
            .map(|e| e.into_inner().expect("shard engine lock poisoned"))
            .collect();
        self.finished = true;
    }

    /// The coordinator loop: alternates worker-driven segments with
    /// part-runs to engine-global instants. `dispatch` is `Some` when
    /// worker threads execute the windows, `None` for inline execution.
    fn coordinate(
        &mut self,
        engines: &[Mutex<Engine<B>>],
        ctl: &SegCtl<B::Msg>,
        end: SimTime,
        dispatch: Option<&Dispatch>,
    ) {
        let transfer = self.transfer;
        let mut scratch = worker::Scratch::new(engines.len());
        let mut window_start = SimTime::ZERO;
        loop {
            // Global events strictly inside the next window fire
            // chronologically, interleaved with inclusive part-window runs
            // (node events at the same instant precede them by key order,
            // so "run through t, then fire globals at t" is exact).
            let wb = window_start + transfer;
            let global = self.trains.next();
            if let Some(t) = global.filter(|&t| t <= end && t < wb) {
                Self::run_part(engines, ctl, dispatch, &mut scratch, t);
                let mut guards: Vec<_> = engines
                    .iter()
                    .map(|e| e.lock().expect("shard engine lock poisoned"))
                    .collect();
                let mut refs: Vec<_> = guards.iter_mut().map(|g| &mut **g).collect();
                self.trains.fire_at(&mut refs, &self.plan, t);
                continue;
            }
            if wb > end {
                Self::run_part(engines, ctl, dispatch, &mut scratch, end);
                break;
            }
            // At least one full window fits: hand the fleet a segment.
            ctl.arm(window_start);
            match dispatch {
                Some(d) => {
                    d.run(Work::Segment { global, end });
                    if let Some(payload) = ctl.take_panic() {
                        std::panic::resume_unwind(payload);
                    }
                }
                None => worker::run_segment(engines, ctl, 0, global, end, transfer, &mut scratch),
            }
            match ctl
                .take_outcome()
                .expect("segment finished without an outcome")
            {
                SegOutcome::RunDone => break,
                SegOutcome::Continue { next_start } => window_start = next_start,
            }
        }
    }

    /// Runs every shard inclusively up to `t` and waits for quiescence.
    fn run_part(
        engines: &[Mutex<Engine<B>>],
        ctl: &SegCtl<B::Msg>,
        dispatch: Option<&Dispatch>,
        scratch: &mut worker::Scratch<B::Msg>,
        t: SimTime,
    ) {
        ctl.arm(t);
        match dispatch {
            Some(d) => {
                d.run(Work::Part { t });
                if let Some(payload) = ctl.take_panic() {
                    std::panic::resume_unwind(payload);
                }
            }
            None => worker::run_part(engines, ctl, 0, t, scratch),
        }
    }
}
