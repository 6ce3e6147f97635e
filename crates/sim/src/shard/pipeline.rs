//! The coordinator side of the barrier-free pipeline.
//!
//! [`SCore::run_to_end`] spawns the persistent workers once, then drives
//! the run as a sequence of dispatches over per-worker channels:
//!
//! * [`Work::Segment`] — a run of consecutive full windows with no
//!   engine-global event inside. Workers advance window-to-window through
//!   the [`super::exchange`] gate on their own; the coordinator sleeps on
//!   the done channel, completely off the hot path.
//! * [`Work::Part`] — an inclusive run up to an engine-global instant (or
//!   the horizon). Once every worker reports done the fleet is quiescent
//!   and the coordinator fires the sample/inject callbacks with all
//!   shards parked, exactly like the serial engine's global events.
//!
//! One done message per worker per dispatch is the only coordinator-side
//! synchronization; within a segment the per-window cost is a single gate
//! pass instead of the old two full `std::sync::Barrier` rendezvous plus
//! a serial coordinator exchange.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use ta_telemetry::ProfileData;

use super::exchange::{GateStats, SegCtl, SegOutcome};
use super::worker::{self, ShardEngine, Work};
use super::{BarrierApi, SEv, ShardOpts, ShardPlan, ShardableDriver};
use crate::config::SimConfig;
use crate::engine::{proto_global_stream, AvailabilityModel, SimStats};
use crate::ids::NodeId;
use crate::queue::{order_key, EventQueue, GLOBAL_ORIGIN};
use crate::rng::Xoshiro256pp;
use crate::time::SimTime;

/// Engine-global events the coordinator owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GlobalEv {
    Sample,
    Inject,
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

pub(super) struct SCore<D: ShardableDriver, Q: EventQueue<SEv<D::Msg>>> {
    pub(super) plan: Arc<ShardPlan>,
    pub(super) cfg: SimConfig,
    pub(super) threads: usize,
    pub(super) pin: bool,
    pub(super) engines: Vec<Mutex<ShardEngine<D::Shard, Q>>>,
    pub(super) global: D::Global,
    proto_global: Xoshiro256pp,
    global_counter: u64,
    /// Pending engine-global events (at most a few entries; scanned
    /// linearly).
    globals: Vec<(SimTime, u64, GlobalEv)>,
    /// Samples/injections fired and their events_processed contribution.
    gstats: SimStats,
    /// Scratch buffer of barrier-callback sends (capacity reused).
    sends_scratch: Vec<(NodeId, NodeId, D::Msg)>,
    /// Inline-path mailbox/deposit scratch (the coordinator acts as the
    /// only worker when `threads <= 1`).
    scratch: worker::Scratch<D::Msg>,
    /// Gate work-distribution totals accumulated across dispatches (the
    /// gate itself lives only for one `run_to_end`).
    gate_stats: GateStats,
    pub(super) now: SimTime,
    pub(super) finished: bool,
}

impl<D: ShardableDriver, Q: EventQueue<SEv<D::Msg>> + Send> SCore<D, Q> {
    pub(super) fn new<F: FnMut() -> Q>(
        cfg: SimConfig,
        availability: &dyn AvailabilityModel,
        driver: D,
        opts: ShardOpts,
        mut make_queue: F,
    ) -> Self {
        let plan = Arc::new(ShardPlan::new(cfg.n(), opts.shards));
        let seed = cfg.seed();
        let (global, shard_drivers) = driver.split(&plan);
        assert_eq!(
            shard_drivers.len(),
            plan.shards(),
            "ShardableDriver::split must produce one piece per shard"
        );
        let engines: Vec<_> = shard_drivers
            .into_iter()
            .enumerate()
            .map(|(s, d)| {
                Mutex::new(ShardEngine::new(
                    &plan,
                    s,
                    &cfg,
                    availability,
                    d,
                    make_queue(),
                ))
            })
            .collect();
        let proto_global = proto_global_stream(seed);
        let plan_shards = plan.shards();
        let mut core = SCore {
            plan,
            threads: if opts.threads == 0 {
                crate::affinity::available_cores()
            } else {
                opts.threads
            },
            pin: opts.pin,
            engines,
            global,
            proto_global,
            global_counter: 0,
            globals: Vec::new(),
            gstats: SimStats::default(),
            sends_scratch: Vec::new(),
            scratch: worker::Scratch::new(plan_shards),
            gate_stats: GateStats::default(),
            now: SimTime::ZERO,
            finished: false,
            cfg,
        };
        // The sample/inject trains, with the serial engine's key order
        // (sample scheduled first).
        if let Some(p) = core.cfg.sample_period() {
            let key = core.next_global_key();
            core.globals
                .push((SimTime::ZERO + p, key, GlobalEv::Sample));
        }
        if let Some(p) = core.cfg.injection_period() {
            let key = core.next_global_key();
            core.globals
                .push((SimTime::ZERO + p, key, GlobalEv::Inject));
        }
        core
    }

    #[inline]
    fn next_global_key(&mut self) -> u64 {
        let key = order_key(GLOBAL_ORIGIN, self.global_counter);
        self.global_counter += 1;
        key
    }

    /// Earliest pending global event (unbounded; callers bound it against
    /// the horizon and window edge themselves).
    fn next_global(&self) -> Option<(SimTime, u64)> {
        self.globals.iter().map(|&(t, k, _)| (t, k)).min()
    }

    pub(super) fn run_to_end(&mut self) {
        if self.finished {
            return;
        }
        let end = SimTime::ZERO + self.cfg.duration();
        let shards = self.plan.shards();
        let workers = self.threads.clamp(1, shards);
        // Move the engines into a local so worker threads can borrow the
        // mutexes while the coordinator keeps `&mut self` for everything
        // else; the scope guarantees the workers are gone before the
        // engines move back.
        let engines = std::mem::take(&mut self.engines);
        let ctl = SegCtl::new(shards, workers);
        if workers <= 1 {
            // Inline: the coordinator is the only participant; the same
            // gate code runs claims and window advances single-threaded.
            self.coordinate(&engines, &ctl, end, None);
        } else {
            let pin = self.pin;
            let transfer = self.cfg.transfer_time();
            std::thread::scope(|scope| {
                let (done_tx, done_rx) = channel::<()>();
                let mut txs = Vec::with_capacity(workers);
                for w in 0..workers {
                    let (tx, rx) = channel::<Work>();
                    txs.push(tx);
                    let done = done_tx.clone();
                    let engines = &engines;
                    let ctl = &ctl;
                    scope.spawn(move || {
                        worker::worker_loop(w, rx, done, engines, ctl, transfer, pin)
                    });
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
        self.engines = engines;
        self.now = end;
        self.finished = true;
    }

    /// The coordinator loop: alternates worker-driven segments with
    /// part-runs to engine-global instants. `dispatch` is `Some` when
    /// worker threads execute the windows, `None` for inline execution.
    fn coordinate(
        &mut self,
        engines: &[Mutex<ShardEngine<D::Shard, Q>>],
        ctl: &SegCtl<D::Msg>,
        end: SimTime,
        dispatch: Option<&Dispatch>,
    ) {
        if self.plan.shards() == 1 {
            // Windowless fast path: nothing to exchange, run straight to
            // each global instant and then the horizon.
            loop {
                match self.next_global().filter(|&(t, _)| t <= end) {
                    Some((t, _)) => {
                        self.run_part(engines, ctl, dispatch, t);
                        self.fire_globals_at(engines, t);
                    }
                    None => {
                        self.run_part(engines, ctl, dispatch, end);
                        break;
                    }
                }
            }
            return;
        }
        let transfer = self.cfg.transfer_time();
        let mut window_start = SimTime::ZERO;
        loop {
            // Global events strictly inside the next window fire
            // chronologically, interleaved with inclusive part-window runs
            // (node events at the same instant precede them by key order,
            // so "run through t, then fire globals at t" is exact).
            let wb = window_start + transfer;
            if let Some((t, _)) = self.next_global().filter(|&(t, _)| t <= end && t < wb) {
                self.run_part(engines, ctl, dispatch, t);
                self.fire_globals_at(engines, t);
                continue;
            }
            if wb > end {
                self.run_part(engines, ctl, dispatch, end);
                break;
            }
            // At least one full window fits: hand the fleet a segment.
            let global = self.next_global().map(|(t, _)| t);
            match self.run_segment(engines, ctl, dispatch, window_start, global, end) {
                SegOutcome::RunDone => break,
                SegOutcome::Continue { next_start } => window_start = next_start,
            }
        }
    }

    /// Runs one segment of full windows across the fleet and returns why
    /// it stopped.
    fn run_segment(
        &mut self,
        engines: &[Mutex<ShardEngine<D::Shard, Q>>],
        ctl: &SegCtl<D::Msg>,
        dispatch: Option<&Dispatch>,
        start: SimTime,
        global: Option<SimTime>,
        end: SimTime,
    ) -> SegOutcome {
        ctl.arm(start);
        match dispatch {
            Some(d) => {
                d.run(Work::Segment { global, end });
                if let Some(payload) = ctl.take_panic() {
                    std::panic::resume_unwind(payload);
                }
            }
            None => {
                let transfer = self.cfg.transfer_time();
                worker::run_segment(engines, ctl, 0, global, end, transfer, &mut self.scratch);
            }
        }
        ctl.take_outcome()
            .expect("segment finished without an outcome")
    }

    /// Runs every shard inclusively up to `t` and waits for quiescence.
    fn run_part(
        &mut self,
        engines: &[Mutex<ShardEngine<D::Shard, Q>>],
        ctl: &SegCtl<D::Msg>,
        dispatch: Option<&Dispatch>,
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
            None => worker::run_part(engines, ctl, 0, t, &mut self.scratch),
        }
    }

    /// Fires every pending global event scheduled exactly at `t`, in key
    /// order, with all shards quiescent.
    fn fire_globals_at(&mut self, engines: &[Mutex<ShardEngine<D::Shard, Q>>], t: SimTime) {
        self.now = t;
        // Lock every shard once for the whole instant (Sample and Inject
        // due at the same `t` share the stop) and split the borrows:
        // kernels/queues for send routing, drivers for the callbacks.
        let mut guards: Vec<_> = engines
            .iter()
            .map(|e| e.lock().expect("shard engine lock poisoned"))
            .collect();
        let mut kernels = Vec::with_capacity(guards.len());
        let mut queues = Vec::with_capacity(guards.len());
        let mut drivers = Vec::with_capacity(guards.len());
        for g in guards.iter_mut() {
            let e = &mut **g;
            kernels.push(&mut e.kernel);
            queues.push(&mut e.queue);
            drivers.push(&mut e.driver);
        }
        loop {
            let due = self
                .globals
                .iter()
                .enumerate()
                .filter(|(_, &(time, _, _))| time == t)
                .min_by_key(|(_, &(_, key, _))| key)
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let (_, _, ev) = self.globals.swap_remove(i);
            self.gstats.events_processed += 1;

            let sends = {
                // Shard 0's kernel replays every churn event exactly like
                // the serial engine, so its online bookkeeping *is* the
                // serial engine's at this instant.
                let (online, online_list) = {
                    let k0 = &*kernels[0];
                    (k0.online.flags(), k0.online.list())
                };
                let mut api = BarrierApi {
                    now: t,
                    cfg: &self.cfg,
                    plan: &self.plan,
                    online,
                    online_list,
                    rng: &mut self.proto_global,
                    sends: std::mem::take(&mut self.sends_scratch),
                };
                match ev {
                    GlobalEv::Sample => {
                        self.gstats.samples += 1;
                        <D as ShardableDriver>::on_sample(&mut self.global, &mut drivers, &mut api);
                    }
                    GlobalEv::Inject => {
                        self.gstats.injections += 1;
                        <D as ShardableDriver>::on_inject(&mut self.global, &mut drivers, &mut api);
                    }
                }
                api.sends
            };
            // Route buffered sends in order, charging each to the sending
            // node's counter and engine stream — the exact consumption
            // order of the serial engine's global-context sends.
            let transfer = self.cfg.transfer_time();
            let p = self.cfg.drop_probability();
            let mut sends = sends;
            for (from, to, msg) in sends.drain(..) {
                let src = self.plan.shard_of(from);
                let k = &mut *kernels[src];
                k.stats.messages_sent += 1;
                if p > 0.0 {
                    let local = from.index() - k.base;
                    if k.engine_rngs[local].chance(p) {
                        k.stats.messages_dropped_fault += 1;
                        continue;
                    }
                }
                let key = k.next_key(from);
                let dst = self.plan.shard_of(to);
                queues[dst].push_keyed(t + transfer, key, SEv::Deliver { from, to, msg });
            }
            self.sends_scratch = sends;
            // Reschedule the train, with the serial engine's counter
            // consumption (one global key per firing).
            let period = match ev {
                GlobalEv::Sample => self.cfg.sample_period(),
                GlobalEv::Inject => self.cfg.injection_period(),
            }
            .expect("global event without a configured period");
            let key = {
                let k = order_key(GLOBAL_ORIGIN, self.global_counter);
                self.global_counter += 1;
                k
            };
            self.globals.push((t + period, key, ev));
        }
    }

    pub(super) fn merged_stats(&self) -> SimStats {
        let mut stats = self.gstats;
        for e in &self.engines {
            stats.merge(&e.lock().expect("shard engine lock poisoned").kernel.stats);
        }
        stats
    }

    /// Self-profiling totals merged across shards, plus the gate's
    /// always-on claim/steal/skip counts.
    pub(super) fn merged_profile(&self) -> ProfileData {
        let mut data = ProfileData::default();
        for e in &self.engines {
            data.merge(e.lock().expect("shard engine lock poisoned").profile.data());
        }
        data.claims += self.gate_stats.claims;
        data.steals += self.gate_stats.steals;
        data.skipped_windows += self.gate_stats.skipped;
        data
    }

    /// Forces batch/window/mailbox profiling on or off for every shard
    /// engine (overrides the `TA_PROFILE` environment default).
    pub(super) fn set_profiling(&mut self, enabled: bool) {
        for e in &mut self.engines {
            e.get_mut().expect("shard engine lock poisoned").profile =
                ta_telemetry::Profile::forced(enabled);
        }
    }

    pub(super) fn into_parts(self) -> (D, SimStats) {
        let stats = self.merged_stats();
        let shards: Vec<D::Shard> = self
            .engines
            .into_iter()
            .map(|e| e.into_inner().expect("shard engine lock poisoned").driver)
            .collect();
        (D::merge(&self.plan, self.global, shards), stats)
    }
}
