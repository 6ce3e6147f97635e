//! # ta-bench — benchmarks for the token account reproduction
//!
//! The library carries the harnesses behind the two binaries and one
//! baseline:
//!
//! * [`bench_sim`] — the `bench_sim` binary's harness, which measures
//!   queue, engine, and protocol throughput plus sweep wall-clock and
//!   writes a machine-readable `BENCH_sim.json` for PR-to-PR perf
//!   tracking: `cargo run --release -p ta-bench --bin bench_sim` (add
//!   `--test` for the CI smoke mode, `--diff PATH` for a non-failing
//!   comparison against a committed baseline);
//! * [`bench_live`] — the `bench_live` binary's harness, the same for the
//!   live runtime (`BENCH_live.json`);
//! * [`legacy_proto`] — the old protocol driver (boxed strategy formulas,
//!   two-pass peer selection, cloning payloads), kept
//!   as the baseline the allocation-free protocol path is measured
//!   against.

pub mod bench_live;
pub mod bench_sim;
pub mod legacy_proto;
pub mod report;
