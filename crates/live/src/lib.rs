//! # ta-live — the concurrent wall-clock token-account runtime
//!
//! Everything else in this workspace executes the paper's algorithms
//! inside a discrete-event simulator. This crate is the *deployment*
//! layer: a multi-threaded runtime that serves token-account admission
//! decisions for millions of virtual clients at wall-clock speed, with
//! the simulator retained as its oracle.
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`accounts`] | [`ShardedAccounts`]: lock-free atomic accounts in one allocation, partitioned into shards |
//! | [`runtime`] | [`LiveRuntime`]: the compiled-table admission hot path + granter sweeps |
//! | [`loadgen`] | [`run_loadgen`], the one way to run load: closed/open-loop arrivals, Poisson & bursty mixes, latency histograms, and whatever the run's [`Attach`] names — journal + snapshotter, telemetry, health supervisor |
//! | [`histogram`] | allocation-free HDR-style log-linear [`LatencyHistogram`] |
//! | [`counters`] | [`LiveCounters`] and the exact token-conservation books |
//! | [`harness`] | live-vs-sim cross-validation: trace recording, exact virtual-clock replay, wall-clock distributional replay |
//! | [`persist`] | durability: CRC-framed grant/spend journal, epoch-fenced copy-on-write snapshots, verified crash recovery, fault injection |
//! | [`health`] | component supervision: per-component health state machines (Healthy → Degraded → Failed) fed by heartbeats, the `--on-journal-fail` degraded-mode policy, watchdog-driven restarts |
//! | [`telem`] | optional runtime introspection: counter catalog, latency-histogram catalog, per-worker trace rings, sampling gate (`ta-telemetry`-backed) |
//! | [`obs`] | the networked observability plane: [`StatsPump`] (one `ta-stats/v2` producer, N sinks), [`TraceBus`] (trace fan-out with exact drop accounting), [`ObsServer`] (`STATS`/`WATCH`/`TRACE` line protocol over TCP) |
//!
//! The decision hot path is wait-free for grants (`fetch_add`) and
//! lock-free for spends (a CAS loop that can never overdraw), performs
//! no allocation, and decides by integer comparisons against the
//! strategy's [`DecisionTable`](token_account::DecisionTable), compiled
//! once per run — no float math, no virtual calls.
//!
//! **Validation.** The [`harness`] runs the same *(strategy × arrival
//! trace)* through the discrete-event engine and the live runtime:
//! driven by the virtual clock, the aggregate send/burn/grant counters
//! agree **exactly** (for every strategy family, worker count, and shard
//! count); driven by the wall clock, rates agree within tolerance while
//! token conservation still holds exactly. See
//! `crates/live/tests/live_vs_sim.rs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accounts;
pub mod counters;
pub mod harness;
pub mod health;
pub mod histogram;
pub mod loadgen;
pub mod obs;
pub mod persist;
pub mod runtime;
mod signal;
pub mod telem;

pub use accounts::ShardedAccounts;
pub use counters::LiveCounters;
pub use harness::{
    live_vs_sim, replay_realtime, replay_trace, run_sim_oracle, ArrivalTrace, CrossValidation,
    OracleWorkload, TraceEvent, TraceKind,
};
pub use health::{Component, HealthBoard, HealthState, OnJournalFail};
pub use histogram::LatencyHistogram;
pub use loadgen::{run_loadgen, ArrivalMode, Attach, BurstMix, LoadGenConfig, LoadGenReport};
pub use obs::{ObsServer, StatsPump, TraceBus, TraceSub};
pub use persist::{
    recover, FaultPlan, JournalHandle, JournalStats, PersistConfig, Persistence, RecoveredState,
    RecoveryError,
};
pub use runtime::LiveRuntime;
pub use telem::LiveTelemetry;
