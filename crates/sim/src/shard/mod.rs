//! Sharded deterministic parallel simulation: intra-run parallelism with
//! transfer-time lookahead.
//!
//! [`ShardedSimulation`] partitions the nodes of one run across `S` shards
//! — contiguous node-id blocks — and gives each block its own
//! [`crate::engine`] event loop: its own event queue, its own per-node
//! [`Xoshiro256pp`](crate::rng::Xoshiro256pp) streams, and its own block
//! of driver state (one piece of a [`ShardableDriver`]). It is the same
//! loop [`Simulation`] runs for the single block `0..n`; nothing in this
//! module dispatches an event. Shards execute windows of
//! `[t, t + transfer_time)` independently; cross-shard sends are deposited
//! in per-shard mailboxes and drained at window boundaries. This is classic
//! conservative-synchronization parallel discrete-event simulation, and
//! the engine's own semantics provide the lookahead: *every* cross-node
//! effect travels as a message delivered exactly `transfer_time` later, so
//! no event inside a window can influence another shard within the same
//! window.
//!
//! # Execution: a channel pipeline, not a barrier
//!
//! With one shard there is nothing to exchange: the run is the S = 1 loop
//! on the calling thread — no window, no gate, no mailbox, no thread.
//! Otherwise workers are spawned once per run and stay hot: the coordinator
//! sends [`pipeline`]-level work messages (a *segment* of consecutive full
//! windows, or a *part-window* run up to an engine-global instant) over
//! per-worker channels and collects one finished message per worker per
//! dispatch. Within a segment the only synchronization is the per-window
//! gate in [`exchange`]: workers claim whole shard-window drains by **home
//! lane** — shard `s` belongs to worker `s % workers`, and a worker drains
//! its own lane first — deposit cross-shard mail into the destination
//! shards' mailboxes, and the last finisher of a window advances the
//! pipeline — including the empty-window skip — without waking the
//! coordinator at all. Waiters at the gate spin on a window-epoch atomic
//! for a few tens of microseconds (a shard-window is ~100 µs) before
//! parking on the condvar. Engine-global events (samples, injections) are
//! the only points where the coordinator touches shard state, and they are
//! rare (every `sample_period`, typically hundreds of windows apart).
//!
//! A shard leaves its home worker under one condition only: another worker
//! has exhausted its own lane *and* the home worker is at that moment busy
//! draining an earlier shard of the same window (tail-balancing, possible
//! only when `S > T`). The reason is cache residency: a shard's queue,
//! buffers and per-node arrays are far larger than the per-window work
//! done on them, so a shard that hops threads every window drags its
//! working set from one core's L2 to the other's and drains slower on two
//! threads than on one. With `S == T` every shard stays on one thread for
//! the whole run.
//!
//! # Exactness, not just determinism
//!
//! Results are **byte-identical to S = 1** — the run [`Simulation`]
//! executes — for every shard count and every worker-thread count; and
//! S = 1 is pinned to the serial engine this workspace used to carry by
//! the constants of `tests/golden_runs.rs`.
//! Every source of ordering and randomness in the engine is
//! *shard-invariant*:
//!
//! * ties in event time fire in `(origin node, per-origin counter)` key
//!   order ([`crate::queue::order_key`]) — a total order every shard can
//!   compute locally for the events it owns;
//! * randomness is drawn from per-node streams (plus one global stream for
//!   the barrier-time sample/inject callbacks), so what one node draws
//!   never depends on what another node did;
//! * churn is statically known ([`AvailabilityModel`]), so every shard
//!   replays *all* nodes' transitions — keeping an exact full mirror of
//!   the online set with zero communication — while only the owning shard
//!   runs the driver's node-scoped reaction;
//! * engine-global events (metric samples, injections) sort after all
//!   node events of their instant and run with every shard quiescent,
//!   where the coordinator can merge metrics in node order (see
//!   [`ShardableDriver::on_sample_blocks`]);
//! * lane claims and tail-steals hand out *whole* shard-window drains:
//!   each shard-window executes on exactly one thread, so the keys fix
//!   the pop order no matter which worker ran it.
//!
//! # When to shard
//!
//! Sharding buys wall-clock parallelism *within one run*; the experiment
//! harness's worker pool buys it *across* runs. Prefer across-run
//! parallelism while there are at least as many (spec × run) jobs as
//! cores; shard when a single huge-N scenario must saturate the machine.
//! `ta-experiments`' `run_grid_prepared` makes that trade for every
//! replica and caps the product of the two layers at the core count. A
//! shard-window must hold enough events to pay for its gate pass: at
//! n = 100 000 two shards on two cores run 1.6× the single block, at
//! n = 2 000 they run at 0.6–0.8× of it. Shard big runs, not small ones.

mod exchange;
pub(crate) mod pipeline;
mod worker;

use crate::config::SimConfig;
use crate::engine::{AvailabilityModel, Driver, SimApi, SimStats};
use crate::ids::NodeId;
use crate::time::SimTime;

use pipeline::Core;

#[cfg(doc)]
use crate::engine::Simulation;

/// The contiguous-block node partition of a sharded run.
///
/// Shard `s` owns the node-id range `[s·n/S, (s+1)·n/S)`. Contiguous
/// blocks (rather than round-robin striping) matter for exactness: metric
/// merges that fold shard partials in shard order visit nodes in exactly
/// the node-id order a single block does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    shards: usize,
    /// Block boundaries: shard `s` owns `[bounds[s], bounds[s + 1])`.
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// Builds a plan for `n` nodes over `shards` shards (clamped to
    /// `[1, n]`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or exceeds the `u32` node-id space.
    pub fn new(n: usize, shards: usize) -> Self {
        assert!(n > 0, "cannot shard an empty network");
        assert!(u32::try_from(n).is_ok(), "network exceeds u32 node ids");
        let shards = shards.clamp(1, n);
        let bounds = (0..=shards).map(|s| (s * n / shards) as u32).collect();
        ShardPlan { n, shards, bounds }
    }

    /// Network size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node`.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        let i = node.index();
        debug_assert!(i < self.n);
        // Blocks are near-uniform: start from the proportional guess and
        // fix up (off by at most one step in practice; the loops are exact
        // regardless).
        let mut s = (i * self.shards / self.n).min(self.shards - 1);
        while self.bounds[s + 1] as usize <= i {
            s += 1;
        }
        while (self.bounds[s] as usize) > i {
            s -= 1;
        }
        s
    }

    /// The node-index range shard `shard` owns.
    #[inline]
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        self.bounds[shard] as usize..self.bounds[shard + 1] as usize
    }

    /// Cuts a per-node vector (one entry per node, in node order) into
    /// the per-shard blocks of this plan.
    ///
    /// # Panics
    ///
    /// Panics if `items.len() != n`.
    pub fn partition<T>(&self, mut items: Vec<T>) -> Vec<Vec<T>> {
        assert_eq!(items.len(), self.n, "one entry per node");
        let mut blocks: Vec<Vec<T>> = (0..self.shards)
            .rev()
            .map(|s| items.split_off(self.bounds[s] as usize))
            .collect();
        blocks.reverse();
        blocks
    }
}

/// A driver that can be cut into independent per-shard blocks.
///
/// Every block is the same type as the whole: a driver whose per-node
/// state covers `plan.range(s)` instead of `0..n`, running the same
/// [`Driver`] callbacks on the same [`SimApi`]. The split/merge pair must
/// round-trip the driver's state, and the two barrier callbacks must
/// reproduce the whole driver's [`Driver::on_sample`]/[`Driver::on_inject`]
/// *bitwise* (fold integer partials, or walk blocks in order so f64
/// accumulation visits nodes in node-id order — shards are contiguous
/// blocks precisely to make that possible). The natural way to get that
/// is to write the barrier callbacks once, over blocks, and let the
/// `Driver` hooks call them with the one-block slice `&mut [self]`.
pub trait ShardableDriver: Driver + Sized {
    /// Cuts the driver into `plan.shards()` blocks, in shard order.
    /// Coordinator-side state (metric series and whatever else the barrier
    /// callbacks accumulate) stays with one of them, conventionally the
    /// first. Only called for more than one shard: a one-shard run takes
    /// the driver as it is.
    fn split(self, plan: &ShardPlan) -> Vec<Self>;

    /// Reassembles the driver after the run (inverse of
    /// [`split`](Self::split)).
    fn merge(plan: &ShardPlan, blocks: Vec<Self>) -> Self;

    /// The periodic metric sample over all blocks, fired at an
    /// engine-global instant with every shard quiescent. `api` is in the
    /// engine-global context of [`Driver::on_sample`].
    fn on_sample_blocks(blocks: &mut [&mut Self], api: &mut SimApi<'_, Self::Msg>) {
        let _ = (blocks, api);
    }

    /// The periodic injection over all blocks, fired at an engine-global
    /// instant. `api` may send from any node of any block.
    fn on_inject_blocks(blocks: &mut [&mut Self], api: &mut SimApi<'_, Self::Msg>) {
        let _ = (blocks, api);
    }
}

/// Execution options of a sharded run (partition width, worker threads).
/// Both trade wall-clock only: results are byte-identical for every
/// combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOpts {
    /// Number of shards (clamped to `[1, n]`).
    pub shards: usize,
    /// Worker threads (clamped to `[1, shards]`).
    pub threads: usize,
}

/// One run partitioned across S ≥ 1 shards of a [`ShardableDriver`].
///
/// See the [module docs](self) for semantics and the exactness argument.
pub struct ShardedSimulation<D: ShardableDriver> {
    core: Core<D>,
    opts: ShardOpts,
}

impl<D: ShardableDriver> ShardedSimulation<D> {
    /// Builds a sharded simulation over `availability` with the given
    /// driver, partitioned into `opts.shards` blocks (clamped to `[1, n]`)
    /// and executed on up to `opts.threads` worker threads (thread count
    /// never affects results).
    pub fn new(
        cfg: SimConfig,
        availability: &dyn AvailabilityModel,
        driver: D,
        opts: ShardOpts,
    ) -> Self {
        let plan = ShardPlan::new(cfg.n(), opts.shards);
        // One shard is the driver as constructed: nothing to cut.
        let blocks = if plan.shards() == 1 {
            vec![driver]
        } else {
            driver.split(&plan)
        };
        assert_eq!(
            blocks.len(),
            plan.shards(),
            "ShardableDriver::split must produce one block per shard"
        );
        let barriers: pipeline::Barriers<D> = (D::on_sample_blocks, D::on_inject_blocks);
        ShardedSimulation {
            core: Core::new(cfg, availability, plan, blocks, barriers),
            opts,
        }
    }

    /// Runs until the configured duration is reached. The bounds are
    /// those of the worker threads a run with more than one shard spawns.
    pub fn run_to_end(&mut self)
    where
        D: Send,
        D::Msg: Send,
    {
        self.core.run_to_end(self.opts.threads);
    }

    /// Current virtual time (the horizon once finished).
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.core.plan.shards()
    }

    /// Whether [`run_to_end`](Self::run_to_end) has completed.
    pub fn is_finished(&self) -> bool {
        self.core.finished
    }

    /// Statistics merged across shards (identical for every shard count).
    pub fn stats(&self) -> SimStats {
        self.core.merged_stats()
    }

    /// Self-profiling totals merged across shards. Claim/steal/skip
    /// counts are always collected (one add under an already-held gate
    /// lock); batch-size histograms, window wall time, and mailbox
    /// depths require profiling (`TA_PROFILE=1` or
    /// [`set_profiling`](Self::set_profiling)).
    pub fn profile(&self) -> ta_telemetry::ProfileData {
        self.core.merged_profile()
    }

    /// Forces self-profiling on or off for every shard engine,
    /// overriding the `TA_PROFILE` environment default.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.core.set_profiling(enabled);
    }

    /// Consumes the simulation, reassembling the driver and returning it
    /// with the merged statistics.
    pub fn into_parts(self) -> (D, SimStats) {
        let plan = std::sync::Arc::clone(&self.core.plan);
        let (mut blocks, stats) = self.core.into_blocks();
        let driver = if blocks.len() == 1 {
            blocks.pop().expect("length checked")
        } else {
            D::merge(&plan, blocks)
        };
        (driver, stats)
    }
}

impl<D: ShardableDriver> std::fmt::Debug for ShardedSimulation<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("opts", &self.opts)
            .field("now", &self.now())
            .field("finished", &self.is_finished())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_blocks_are_contiguous_and_cover() {
        for n in [1usize, 2, 7, 10, 101, 1000] {
            for s in [1usize, 2, 3, 4, 7, 64, 1000] {
                let plan = ShardPlan::new(n, s);
                let eff = plan.shards();
                assert!(eff <= n && eff >= 1);
                let mut covered = 0usize;
                for shard in 0..eff {
                    let r = plan.range(shard);
                    assert_eq!(r.start, covered, "gap before shard {shard}");
                    covered = r.end;
                    for i in r {
                        assert_eq!(plan.shard_of(NodeId::from_index(i)), shard);
                    }
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn plan_blocks_are_balanced() {
        let plan = ShardPlan::new(1003, 4);
        let sizes: Vec<usize> = (0..4).map(|s| plan.range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1003);
        assert!(sizes.iter().all(|&x| (250..=251).contains(&x)), "{sizes:?}");
    }

    #[test]
    fn partition_cuts_at_the_plan_bounds() {
        let plan = ShardPlan::new(11, 3);
        let blocks = plan.partition((0..11).collect());
        assert_eq!(blocks.len(), 3);
        for (s, block) in blocks.iter().enumerate() {
            assert_eq!(block, &plan.range(s).collect::<Vec<_>>());
        }
        // One block is the whole vector.
        assert_eq!(ShardPlan::new(4, 1).partition(vec![7; 4]), [vec![7; 4]]);
    }

    #[test]
    fn plan_clamps_shard_count() {
        assert_eq!(ShardPlan::new(3, 10).shards(), 3);
        assert_eq!(ShardPlan::new(3, 0).shards(), 1);
    }
}
