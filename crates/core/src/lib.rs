//! # token-account — the token account algorithms of Danner & Jelasity
//!
//! This crate implements the primary contribution of *"Token Account
//! Algorithms: The Best of the Proactive and Reactive Worlds"* (ICDCS
//! 2018): an application-layer traffic-shaping service that spans the
//! design space between purely proactive (fixed-rate, round-based) and
//! purely reactive (flooding) communication.
//!
//! Each node holds a [`account::TokenAccount`]; one token is granted per
//! round Δ. A [`strategy::Strategy`] supplies the two functions that define
//! an algorithm in the family:
//!
//! * `PROACTIVE(a)` — probability of a periodic send at balance `a`;
//! * `REACTIVE(a, u)` — messages to send in reaction to a message of
//!   usefulness `u`.
//!
//! [`table::DecisionTable`] compiles a strategy into per-balance
//! thresholds and runs Algorithm 4 over them, for the simulator's
//! [`node::TokenNode`] and the live runtime's atomic accounts alike;
//! [`strategies`] provides the paper's implementations (simple,
//! generalized, randomized, plus both pure extremes); [`meanfield`] carries
//! the Section 4.3 analysis; [`validate`] checks the Section 3.1 contract.
//!
//! The crate is substrate-independent: it knows nothing about simulators,
//! overlays, or clocks, so the same logic can drive a real deployment.
//!
//! # Example: one node, one round, one message
//!
//! ```
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//! use token_account::prelude::*;
//!
//! let strategy = RandomizedTokenAccount::new(10, 20)?;
//! let table = DecisionTable::new(strategy);
//! let mut node = TokenNode::new(0);
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // Round tick: with an empty account the node always banks the token
//! // (proactive probability is 0 below A − 1 = 9 tokens).
//! assert_eq!(node.on_round(&table, &mut rng), RoundAction::SaveToken);
//!
//! // Useful message: spends Bernoulli-rounded balance/A tokens.
//! let sends = node.on_message(&table, Usefulness::Useful, &mut rng);
//! assert!(sends <= 1);
//!
//! // The burst bound of Section 3.4 holds by construction.
//! assert_eq!(strategy.capacity().burst_bound(1000), Some(1020));
//! # Ok::<(), token_account::error::InvalidStrategyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod account;
pub mod atomic;
pub mod error;
pub mod live;
pub mod meanfield;
pub mod node;
pub mod rounding;
pub mod spec;
pub mod strategies;
pub mod strategy;
pub mod table;
pub mod usefulness;
pub mod validate;

pub use account::TokenAccount;
pub use atomic::AtomicTokenAccount;
pub use error::InvalidStrategyError;
pub use live::{Decision, LiveStrategy};
pub use node::{RoundAction, TokenNode};
pub use spec::StrategySpec;
pub use strategy::{Capacity, Strategy};
pub use table::DecisionTable;
pub use usefulness::Usefulness;

/// Convenient glob import for framework users.
pub mod prelude {
    pub use crate::account::TokenAccount;
    pub use crate::atomic::AtomicTokenAccount;
    pub use crate::live::{Decision, LiveStrategy};
    pub use crate::meanfield::{randomized_equilibrium, MeanFieldModel};
    pub use crate::node::{RoundAction, TokenNode};
    pub use crate::rounding::rand_round;
    pub use crate::spec::StrategySpec;
    pub use crate::strategies::{
        GeneralizedTokenAccount, PurelyProactive, PurelyReactive, RandomizedTokenAccount,
        SimpleTokenAccount,
    };
    pub use crate::strategy::{Capacity, Strategy};
    pub use crate::table::DecisionTable;
    pub use crate::usefulness::Usefulness;
}
