//! # ta — token account algorithms (ICDCS 2018), full reproduction
//!
//! Facade crate re-exporting the workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] (`token-account`) | the paper's contribution: accounts, strategies, Algorithm 4, mean-field analysis |
//! | [`telemetry`] (`ta-telemetry`) | dependency-free counters, decision-trace rings, self-profiling |
//! | [`sim`] (`ta-sim`) | deterministic discrete-event engine (PeerSim substitute) |
//! | [`overlay`] (`ta-overlay`) | k-out & Watts–Strogatz overlays, peer sampling, spectral tools |
//! | [`churn`] (`ta-churn`) | availability schedules & the synthetic smartphone trace |
//! | [`apps`] (`ta-apps`) | gossip learning, push gossip, chaotic power iteration |
//! | [`metrics`] (`ta-metrics`) | time series, statistics, tables |
//! | [`live`] (`ta-live`) | concurrent wall-clock admission runtime, cross-validated against the sim |
//! | [`experiments`] (`ta-experiments`) | figure-regeneration harness |
//!
//! See the repository README for a quickstart and `examples/` for runnable
//! scenarios; the README's "Layout" table maps every paper artifact to
//! its crate, and `crates/experiments/src/figures/mod.rs` every figure to
//! its module.
//!
//! ```
//! use ta::prelude::*;
//!
//! // The Section 4.3 closed form: randomized equilibrium ≈ A.
//! let strategy = RandomizedTokenAccount::new(10, 20)?;
//! assert!((strategy.predicted_equilibrium() - 9.52).abs() < 0.01);
//! # Ok::<(), ta::core::InvalidStrategyError>(())
//! ```

#![warn(missing_docs)]

/// The paper's contribution: the `token-account` crate.
pub use token_account as core;

/// Zero-overhead runtime introspection: counters, tracing, profiling.
pub use ta_telemetry as telemetry;

/// The discrete-event simulation substrate.
pub use ta_sim as sim;

/// Overlay topologies, sampling, and spectral tools.
pub use ta_overlay as overlay;

/// Availability traces and churn models.
pub use ta_churn as churn;

/// The three applications and the protocol adapter.
pub use ta_apps as apps;

/// Time series, statistics, and reporting.
pub use ta_metrics as metrics;

/// The concurrent wall-clock admission runtime.
pub use ta_live as live;

/// The figure-regeneration harness.
pub use ta_experiments as experiments;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use ta_apps::{
        Application, ChaoticIteration, GossipLearning, ProtocolResults, PushGossip, ReplyPolicy,
        SgdGossipLearning, TokenProtocol,
    };
    pub use ta_churn::{AvailabilitySchedule, SmartphoneTraceModel};
    pub use ta_experiments::{
        run_experiment, AppKind, ChurnKind, ExperimentSpec, FigureOpts, TopologyKind,
    };
    pub use ta_live::{
        ArrivalMode, LiveCounters, LiveRuntime, LoadGenConfig, OracleWorkload, ShardedAccounts,
    };
    pub use ta_metrics::{OnlineStats, Table, TimeSeries};
    pub use ta_overlay::{
        generators::{complete, k_out_random, ring, watts_strogatz},
        OnlineNeighbors, Topology,
    };
    pub use ta_sim::prelude::*;
    pub use token_account::prelude::*;
}
