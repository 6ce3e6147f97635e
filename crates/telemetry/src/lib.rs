//! # ta-telemetry — zero-overhead runtime introspection
//!
//! Dependency-free observability primitives shared by the live runtime,
//! the simulation engines, and the bench/CI harnesses:
//!
//! * [`Registry`] — cache-line-padded per-lane (worker/shard) relaxed
//!   atomic counters, gauges, and log-linear histogram instruments
//!   registered by static name, snapshot-read by an epoch-consistent
//!   sweep (the same single-writer-merge idiom as `LiveCounters`): every
//!   cell is written by exactly one lane and is monotonic, so successive
//!   [`Registry::snapshot`] sweeps never observe torn or decreasing
//!   totals.
//! * [`LatencyHistogram`] — the owned, allocation-free HDR-style
//!   log-linear histogram (32 sub-buckets per octave, ~3% relative
//!   precision) behind both per-worker latency books and the registry's
//!   registered histogram instruments; p50/p90/p99/p999 extraction and
//!   bucket-exact merge.
//! * [`TraceRing`] — a fixed-capacity SPSC ring of compact binary
//!   [`TraceRecord`]s with exact push/drop accounting, drained by a
//!   collector thread. Producers sample decisions 1-in-N through a
//!   [`Sampler`] whose off state (`N = 0`) compiles to one branch on a
//!   cached relaxed load.
//! * [`Profile`] — self-profiling for the sim engines (batch-size
//!   histograms, window wall time, work-steal claims, empty-window skips,
//!   mailbox depths); a no-op unless `TA_PROFILE=1` (or forced on).
//! * [`EventLine`] / [`stats_line`] — the one parseable output grammar:
//!   `event=... key=value` diagnostics and the schema-versioned JSON
//!   stats line emitted by `live --stats-every`.
//!
//! The crate holds no policy: which counters exist, where rings attach,
//! and when snapshots run is decided by the callers. Everything here is
//! `std`-only.

#![warn(missing_docs)]

mod event;
pub mod hist;
mod profile;
mod registry;
mod ring;

pub use event::{print_line, stats_line, stats_line_with, EventLine, STATS_SCHEMA};
pub use hist::LatencyHistogram;
pub use profile::{Profile, ProfileData, BATCH_BUCKETS};
pub use registry::{Handle, Registry, Snapshot};
pub use ring::{
    trace_ring, SampleGate, Sampler, TraceConsumer, TraceProducer, TraceRecord, TraceRing,
};

/// Pads (and aligns) `T` to 128 bytes so adjacent values never share a
/// cache line, even under adjacent-line prefetching.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

/// Monotonic nanosecond clock for trace timestamps: nanoseconds since the
/// first call in this process (one lazily-initialized `Instant` anchor).
#[inline]
pub fn mono_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    Instant::now().duration_since(anchor).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_ns_is_monotonic() {
        let a = mono_ns();
        let b = mono_ns();
        assert!(b >= a);
    }

    #[test]
    fn cache_padded_is_big_enough() {
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 128);
    }
}
