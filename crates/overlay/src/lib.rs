//! # ta-overlay — overlay topologies, peer sampling and spectral tools
//!
//! Substrate crate of the token account reproduction providing the fixed
//! communication overlays of the paper's evaluation (Section 4.1):
//!
//! * [`graph::Topology`] — immutable CSR digraph: the in-adjacency, each
//!   edge once, plus out-degrees.
//! * [`generators`] — the random 20-out network, the Watts–Strogatz
//!   small-world ring (4 nearest neighbours, rewire p = 0.01), plus ring and
//!   complete graphs for tests.
//! * [`sampling::OnlineNeighbors`] — the `selectPeer()` black box,
//!   online-aware, and the one copy of the out-lists.
//! * [`analysis`] — BFS, strong connectivity, degree stats, diameter.
//! * [`spectral`] — column-stochastic normalization and the reference
//!   dominant eigenvector for chaotic power iteration.
//!
//! ```
//! use ta_overlay::generators::k_out_random;
//! use ta_overlay::analysis::is_strongly_connected;
//! use ta_sim::rng::Xoshiro256pp;
//! use rand::SeedableRng;
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(42);
//! let topo = k_out_random(1_000, 20, &mut rng)?;
//! assert!(is_strongly_connected(&topo));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod generators;
pub mod graph;
pub mod sampling;
pub mod spectral;

pub use analysis::{degree_stats, is_strongly_connected, DegreeStats};
pub use generators::{complete, k_out_random, ring, watts_strogatz};
pub use graph::Topology;
pub use sampling::OnlineNeighbors;
