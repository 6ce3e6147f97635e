//! # ta-bench — benchmarks for the token account reproduction
//!
//! The `benches/` directory holds the criterion harnesses:
//!
//! | Bench | What it measures |
//! |-------|------------------|
//! | `strategy` | proactive/reactive kernels of all five strategies, `randRound`, Algorithm-4 node steps |
//! | `event_queue` | the engine's lane scheduler vs. the binary heap it falls back to |
//! | `engine` | end-to-end simulator throughput (events/second) |
//! | `overlay` | k-out and Watts–Strogatz generation, reference eigenvector |
//! | `churn` | synthetic smartphone trace generation |
//! | `figures` | scaled-down regenerations of Figures 1, 2 and 5 (per-figure wall time) |
//!
//! Run with `cargo bench -p ta-bench` (or `cargo bench --workspace`).
//!
//! The library carries two support pieces:
//!
//! * [`bench_sim`] — the `bench_sim` binary's harness, which measures
//!   queue, engine, and protocol throughput plus sweep wall-clock and
//!   writes a machine-readable `BENCH_sim.json` for PR-to-PR perf
//!   tracking: `cargo run --release -p ta-bench --bin bench_sim` (add
//!   `--test` for the CI smoke mode, `--diff PATH` for a non-failing
//!   comparison against a committed baseline);
//! * [`legacy_proto`] — the old protocol driver (boxed strategy formulas,
//!   two-pass peer selection, cloning payloads), kept
//!   as the baseline the allocation-free protocol path is measured
//!   against.

pub mod bench_live;
pub mod bench_sim;
pub mod legacy_proto;
pub mod report;

/// Common scale constants shared by the benches so results are comparable
/// across runs.
pub mod scales {
    /// Node count for micro-scale simulation benches.
    pub const BENCH_N: usize = 200;
    /// Rounds for micro-scale simulation benches.
    pub const BENCH_ROUNDS: u64 = 50;
}
