//! # ta-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the PeerSim substitute used by the token account
//! reproduction (Danner & Jelasity, ICDCS 2018). It provides:
//!
//! * [`time`] — integer-microsecond virtual time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`rng`] — pinned, reproducible random number generation
//!   ([`rng::Xoshiro256pp`], [`rng::SplitMix64`]).
//! * [`queue`] — the pending-event set: [`queue::LaneScheduler`], one FIFO
//!   lane per fixed delay (Δ, transfer time) in front of a binary heap,
//!   and the heap itself, which the tests hold the scheduler to.
//! * [`engine`] — the one event loop: round ticks, message transfer,
//!   churn, one-shot timers over a block of nodes; [`Simulation`] runs it
//!   for the whole network ([`Driver`], [`SimApi`]).
//! * [`shard`] — intra-run parallelism: [`ShardedSimulation`] cuts one run
//!   into shards, each the same event loop over its block, synchronized
//!   by transfer-time lookahead windows; results are byte-identical to
//!   [`Simulation`] for every shard and thread count.
//! * [`paper`] — the timing constants of the paper's experimental setup.
//!
//! # Quickstart
//!
//! ```
//! use ta_sim::prelude::*;
//!
//! /// A protocol that gossips its node id to a random peer each round.
//! struct Shout;
//!
//! impl Driver for Shout {
//!     type Msg = u32;
//!     fn on_round_tick(&mut self, api: &mut SimApi<'_, u32>, node: NodeId) {
//!         if let Some(peer) = api.random_online_node() {
//!             api.send(node, peer, node.raw());
//!         }
//!     }
//!     fn on_message(&mut self, _api: &mut SimApi<'_, u32>, _f: NodeId, _t: NodeId, _m: u32) {}
//! }
//!
//! let cfg = SimConfig::builder(100).seed(1).build()?;
//! let mut sim = Simulation::new(cfg, &AlwaysOn, Shout);
//! sim.run_to_end();
//! assert!(sim.stats().messages_delivered > 0);
//! # Ok::<(), ta_sim::config::InvalidConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod ids;
pub mod paper;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod time;
pub mod wheel;

pub use config::{SimConfig, TickPhase};
pub use engine::{AlwaysOn, AvailabilityModel, Driver, SimApi, SimStats, Simulation};
pub use ids::NodeId;
pub use shard::{ShardOpts, ShardPlan, ShardableDriver, ShardedSimulation};
pub use time::{SimDuration, SimTime};

/// Convenient glob import for driver implementations.
pub mod prelude {
    pub use crate::config::{SimConfig, TickPhase};
    pub use crate::engine::{AlwaysOn, AvailabilityModel, Driver, SimApi, SimStats, Simulation};
    pub use crate::ids::NodeId;
    pub use crate::rng::Xoshiro256pp;
    pub use crate::shard::{ShardOpts, ShardPlan, ShardableDriver, ShardedSimulation};
    pub use crate::time::{SimDuration, SimTime};
}
