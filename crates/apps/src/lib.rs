//! # ta-apps — the paper's three applications over the token account service
//!
//! * [`gossip_learning::GossipLearning`] — random-walking models trained at
//!   every visit (Algorithm 1; metric eq. 6).
//! * [`push_gossip::PushGossip`] — continuous broadcast of timestamped
//!   updates (Algorithm 2; metric eq. 7; pull-on-rejoin under churn).
//! * [`chaotic::ChaoticIteration`] — asynchronous power iteration on the
//!   overlay's column-stochastic matrix (Algorithm 3; angle metric).
//!
//! All three implement [`app::Application`] (the paper's
//! `CREATEMESSAGE`/`UPDATESTATE` API) and run under
//! [`protocol::TokenProtocol`], the executable form of Algorithm 4 that
//! plugs into the [`ta_sim`] engine.
//!
//! ```
//! use std::sync::Arc;
//! use ta_apps::protocol::TokenProtocol;
//! use ta_apps::push_gossip::PushGossip;
//! use ta_overlay::generators::k_out_random;
//! use ta_sim::prelude::*;
//! use token_account::prelude::*;
//!
//! let n = 100;
//! let mut rng = Xoshiro256pp::stream(7, 0);
//! let topo = Arc::new(k_out_random(n, 20, &mut rng)?);
//! let cfg = SimConfig::builder(n)
//!     .duration(SimDuration::from_secs(3600))
//!     .sample_period(SimDuration::from_secs(600))
//!     .injection_period(SimDuration::from_secs_f64(17.28))
//!     .seed(7)
//!     .build()?;
//! let app = PushGossip::new(n, &vec![true; n]);
//! // Compiled into a decision table here; a `Box<dyn Strategy>` picked at
//! // run time compiles to the same table.
//! let strategy = RandomizedTokenAccount::new(10, 20)?;
//! let proto = TokenProtocol::new(topo, strategy, app, vec![true; n]);
//! let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
//! sim.run_to_end();
//! let results = sim.into_parts().0.into_results();
//! assert!(results.metric.len() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod chaotic;
pub mod gossip_learning;
pub mod protocol;
pub mod push_gossip;
pub mod sgd;

pub use app::{Application, ShardableApplication};
pub use chaotic::ChaoticIteration;
pub use gossip_learning::GossipLearning;
pub use protocol::{ProtocolMsg, ProtocolResults, ProtocolStats, ReplyPolicy, TokenProtocol};
pub use push_gossip::PushGossip;
pub use sgd::SgdGossipLearning;
