//! Live-runtime telemetry: the counter catalog, per-worker trace rings,
//! and the sampling gate.
//!
//! [`LiveTelemetry`] owns one `ta-telemetry` [`Registry`] with a lane
//! per worker plus three helper lanes (granter, journal writer,
//! control), and one SPSC [`TraceRing`](ta_telemetry::TraceRing) per
//! worker. Attaching it to a load-generator run is optional and — by
//! design — nearly free:
//!
//! * Workers accumulate into their existing thread-local
//!   [`LiveCounters`] exactly as before and publish *deltas* to their
//!   registry lane once per load-generator chunk
//!   ([`WorkerTelem::flush`]), so the hot path gains one sampler check
//!   per decision ([`WorkerTelem::trace`]). A timed decision's latency
//!   goes straight into the lane's `admit_ns` buckets
//!   ([`WorkerTelem::record_admit`]): publishing costs O(samples), not
//!   O(buckets).
//! * Decision tracing is gated by a [`SampleGate`]: at `N = 0` the
//!   per-decision cost is a single relaxed load and a branch; at
//!   `N = k` every `k`-th decision reads the post-decision balance and
//!   pushes one 32-byte record into the worker's ring.
//! * The journal writer, snapshotter, and recovery path publish through
//!   a [`Handle`] stashed in the persistence domain (see
//!   [`crate::persist::Persistence::attach_telemetry`]); those paths
//!   are off the admission hot path entirely.
//!
//! The catalog below is the single source of truth for counter/gauge
//! slot indices; a unit test pins the constants to the name arrays.

use std::sync::{Arc, Mutex};

use ta_telemetry::{
    mono_ns, trace_ring, Handle, Registry, SampleGate, Sampler, Snapshot, TraceConsumer,
    TraceProducer, TraceRecord,
};
use token_account::live::Decision;

use crate::counters::LiveCounters;

/// Counter slot indices, in [`COUNTERS`] order.
pub mod c {
    /// Admission decisions made by workers.
    pub const ADMIT_REQUESTS: usize = 0;
    /// Reactive messages sent (tokens burned).
    pub const ADMIT_REACTIVE_SENT: usize = 1;
    /// Requests that admitted nothing.
    pub const ADMIT_REACTIVE_HELD: usize = 2;
    /// Round decisions (granter sweep entries).
    pub const ROUND_ROUNDS: usize = 3;
    /// Rounds that resolved to a proactive send.
    pub const ROUND_PROACTIVE_SENT: usize = 4;
    /// Rounds that banked their token.
    pub const ROUND_TOKENS_BANKED: usize = 5;
    /// Whole-shard granter sweeps completed.
    pub const GRANTER_SWEEPS: usize = 6;
    /// Accounts walked by granter sweeps.
    pub const GRANTER_ACCOUNTS: usize = 7;
    /// Producer batches handed to the journal writer.
    pub const JOURNAL_BATCHES: usize = 8;
    /// Delta frames encoded by the writer.
    pub const JOURNAL_FRAMES_DELTA: usize = 9;
    /// Grant frames ("TAJG") encoded by the writer. The name
    /// (`journal_frames_range`) predates the grant frame, which replaced
    /// the run-length range frame; it stays because stats readers key
    /// on it.
    pub const JOURNAL_FRAMES_RANGE: usize = 10;
    /// Bytes of encoded delta frames.
    pub const JOURNAL_BYTES_DELTA: usize = 11;
    /// Bytes of encoded grant frames (named `journal_bytes_range`, like
    /// [`JOURNAL_FRAMES_RANGE`]).
    pub const JOURNAL_BYTES_RANGE: usize = 12;
    /// Group commits that wrote pending bytes.
    pub const JOURNAL_FLUSHES: usize = 13;
    /// Wall nanoseconds spent in commit `write(2)` calls.
    pub const JOURNAL_FLUSH_NS: usize = 14;
    /// fsync calls issued by the writer.
    pub const JOURNAL_FSYNCS: usize = 15;
    /// Wall nanoseconds spent in fsync calls.
    pub const JOURNAL_FSYNC_NS: usize = 16;
    /// Shard freezes taken by the snapshotter.
    pub const SNAPSHOT_FREEZES: usize = 17;
    /// Wall nanoseconds shards spent frozen (fence raise → lift).
    pub const SNAPSHOT_FREEZE_NS: usize = 18;
    /// Journal records replayed during crash recovery.
    pub const RECOVERY_REPLAYED: usize = 19;
    /// Decisions sampled into trace rings (pushed + dropped).
    pub const TRACE_SAMPLED: usize = 20;
    /// Sampled decisions whose verdict was a reactive send.
    pub const TRACE_SAMPLED_SENT: usize = 21;
    /// Sampled decisions whose verdict was a hold.
    pub const TRACE_SAMPLED_HELD: usize = 22;
    /// Sampled records dropped because a ring was full.
    pub const TRACE_DROPPED: usize = 23;
    /// Connections accepted by the observability server.
    pub const OBS_CONNECTIONS: usize = 24;
    /// `STATS` one-shot requests served over the wire.
    pub const OBS_STATS_REQUESTS: usize = 25;
    /// Stats lines pushed to `WATCH` subscribers.
    pub const OBS_WATCH_LINES: usize = 26;
    /// Trace records streamed to `TRACE` subscribers.
    pub const OBS_TRACE_STREAMED: usize = 27;
    /// Stats lines dropped because a `WATCH` connection queue was full.
    pub const OBS_DROPPED_WATCH: usize = 28;
    /// Trace records dropped because a `TRACE` connection queue was full.
    pub const OBS_DROPPED_TRACE: usize = 29;
    /// Journal commit attempts retried after a retryable IO error.
    pub const JOURNAL_IO_RETRIES: usize = 30;
    /// IO errors observed by the journal writer (retryable or not).
    pub const JOURNAL_IO_ERRORS: usize = 31;
    /// Journal records dropped while durability was suspended.
    pub const JOURNAL_DROPPED_RECORDS: usize = 32;
    /// Journal writer restarts onto a fresh segment after a failure.
    pub const JOURNAL_WRITER_RESTARTS: usize = 33;
    /// Granter sweep threads restarted by the supervisor.
    pub const GRANTER_RESTARTS: usize = 34;
    /// Health state transitions toward a worse state (per component).
    pub const HEALTH_DEGRADATIONS: usize = 35;
    /// Transient faults injected by the IO shim (`FaultPlan`).
    pub const FAULTS_INJECTED: usize = 36;
}

/// Gauge slot indices, in [`GAUGES`] order.
pub mod g {
    /// Producer batches enqueued to the journal writer and not yet
    /// encoded (incremented by producers, decremented by the writer).
    pub const JOURNAL_QUEUE_DEPTH: usize = 0;
    /// Journal writer health (0 healthy, 1 degraded, 2 failed).
    pub const HEALTH_JOURNAL_WRITER: usize = 1;
    /// Granter health (0 healthy, 1 degraded, 2 failed).
    pub const HEALTH_GRANTER: usize = 2;
    /// Trace collector health (0 healthy, 1 degraded, 2 failed).
    pub const HEALTH_TRACE_BUS: usize = 3;
    /// Stats pump health (0 healthy, 1 degraded, 2 failed).
    pub const HEALTH_STATS_PUMP: usize = 4;
    /// 1 while durability is suspended (degrade policy), else 0.
    pub const DURABILITY_SUSPENDED: usize = 5;
}

/// The counter catalog (slot order is the [`c`] constants' order).
pub const COUNTERS: &[&str] = &[
    "admit_requests",
    "admit_reactive_sent",
    "admit_reactive_held",
    "round_rounds",
    "round_proactive_sent",
    "round_tokens_banked",
    "granter_sweeps",
    "granter_accounts",
    "journal_batches",
    "journal_frames_delta",
    "journal_frames_range",
    "journal_bytes_delta",
    "journal_bytes_range",
    "journal_flushes",
    "journal_flush_ns",
    "journal_fsyncs",
    "journal_fsync_ns",
    "snapshot_freezes",
    "snapshot_freeze_ns",
    "recovery_replayed",
    "trace_sampled",
    "trace_sampled_sent",
    "trace_sampled_held",
    "trace_dropped",
    "obs_connections",
    "obs_stats_requests",
    "obs_watch_lines",
    "obs_trace_streamed",
    "obs_dropped_watch",
    "obs_dropped_trace",
    "journal_io_retries",
    "journal_io_errors",
    "journal_dropped_records",
    "journal_writer_restarts",
    "granter_restarts",
    "health_degradations",
    "faults_injected",
];

/// The gauge catalog (slot order is the [`g`] constants' order).
pub const GAUGES: &[&str] = &[
    "journal_queue_depth",
    "health_journal_writer",
    "health_granter",
    "health_trace_bus",
    "health_stats_pump",
    "durability_suspended",
];

/// Histogram slot indices, in [`HISTS`] order. All values are wall
/// nanoseconds; together they attribute where a decision's time goes —
/// the admit call itself, the durability pipeline behind it
/// (enqueue→commit wait, fsync), and the granter's round cadence
/// (sweep duration, deadline punctuality).
pub mod h {
    /// Admission (`admit`/`admit_journaled`) call latency per decision.
    pub const ADMIT_NS: usize = 0;
    /// Journal batch enqueue→group-commit wait (send to durable write).
    pub const JOURNAL_COMMIT_NS: usize = 1;
    /// Individual fsync call duration (named `fsync_ns` on the wire; the
    /// counter catalog already owns `journal_fsync_ns` for the total).
    pub const FSYNC_NS: usize = 2;
    /// Whole-accounts granter sweep duration (all shards, one pass).
    pub const GRANTER_SWEEP_NS: usize = 3;
    /// Round-deadline punctuality jitter: how late past its deadline a
    /// sweep pass actually started.
    pub const ROUND_JITTER_NS: usize = 4;
}

/// The histogram catalog (slot order is the [`h`] constants' order).
pub const HISTS: &[&str] = &[
    "admit_ns",
    "journal_commit_ns",
    "fsync_ns",
    "granter_sweep_ns",
    "round_jitter_ns",
];

/// Helper lanes appended after the per-worker lanes.
const GRANTER_LANE: usize = 0;
const PERSIST_LANE: usize = 1;
const CONTROL_LANE: usize = 2;
const EXTRA_LANES: usize = 3;

/// Telemetry state for one live run (see the [module docs](self)).
/// Build once, share via `Arc`, attach to a run with the `_observed`
/// load-generator entry points.
#[derive(Debug)]
pub struct LiveTelemetry {
    registry: Arc<Registry>,
    gate: Arc<SampleGate>,
    workers: usize,
    producers: Mutex<Vec<Option<TraceProducer>>>,
    consumers: Mutex<Vec<Option<TraceConsumer>>>,
}

impl LiveTelemetry {
    /// Default per-worker trace-ring capacity (slots).
    pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

    /// Builds telemetry for `workers` worker lanes with the given trace
    /// sample interval (`0` = tracing off) and per-worker ring capacity.
    pub fn new(workers: usize, sample: u32, ring_capacity: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let (producers, consumers) = (0..workers)
            .map(|_| {
                let (p, cons) = trace_ring(ring_capacity);
                (Some(p), Some(cons))
            })
            .unzip();
        Arc::new(LiveTelemetry {
            registry: Registry::with_hists(COUNTERS, GAUGES, HISTS, workers + EXTRA_LANES),
            gate: SampleGate::new(sample),
            workers,
            producers: Mutex::new(producers),
            consumers: Mutex::new(consumers),
        })
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One epoch-consistent counter sweep.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The shared trace sampling gate (runtime-adjustable).
    pub fn gate(&self) -> &Arc<SampleGate> {
        &self.gate
    }

    /// Worker lanes this telemetry was built for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The granter thread's lane handle.
    pub fn granter_handle(&self) -> Handle {
        self.registry.handle(self.workers + GRANTER_LANE)
    }

    /// The persistence lane handle (journal writer, snapshotter, and
    /// producer queue accounting — multi-writer, which the registry's
    /// relaxed `fetch_add` cells tolerate; these paths are rare).
    pub fn persist_handle(&self) -> Handle {
        self.registry.handle(self.workers + PERSIST_LANE)
    }

    /// The control lane handle (recovery notes, collector accounting).
    pub fn control_handle(&self) -> Handle {
        self.registry.handle(self.workers + CONTROL_LANE)
    }

    /// Records journal replay progress from a completed recovery.
    pub fn note_recovery_replayed(&self, records: u64) {
        self.control_handle().add(c::RECOVERY_REPLAYED, records);
    }

    /// Takes every remaining trace consumer (collector-thread side).
    /// Consumers already taken are skipped, so a collector and a final
    /// drain cannot double-own a ring.
    pub fn take_consumers(&self) -> Vec<TraceConsumer> {
        let mut slots = self.consumers.lock().expect("consumer registry");
        slots.iter_mut().filter_map(Option::take).collect()
    }

    /// Builds worker `w`'s per-thread telemetry state, taking ownership
    /// of its trace-ring producer.
    pub(crate) fn worker(&self, w: usize) -> WorkerTelem {
        let producer = self
            .producers
            .lock()
            .expect("producer registry")
            .get_mut(w)
            .and_then(Option::take);
        WorkerTelem {
            flush: LaneFlush::new(self.registry.handle(w.min(self.workers - 1))),
            sampler: Sampler::new(Arc::clone(&self.gate)),
            producer,
            sampled: 0,
            sampled_sent: 0,
            sampled_held: 0,
            last_dropped: 0,
        }
    }
}

/// Publishes [`LiveCounters`] deltas to one registry lane: keeps the
/// last-published copy and adds the difference, so the thread's own
/// counters stay the plain non-atomic hot-path accumulators they always
/// were.
#[derive(Debug)]
pub(crate) struct LaneFlush {
    handle: Handle,
    last: LiveCounters,
}

impl LaneFlush {
    pub(crate) fn new(handle: Handle) -> Self {
        LaneFlush {
            handle,
            last: LiveCounters::default(),
        }
    }

    pub(crate) fn handle(&self) -> &Handle {
        &self.handle
    }

    /// Publishes everything `now` gained since the last flush.
    pub(crate) fn flush(&mut self, now: &LiveCounters) {
        let h = &self.handle;
        h.add(c::ADMIT_REQUESTS, now.requests - self.last.requests);
        h.add(
            c::ADMIT_REACTIVE_SENT,
            now.reactive_sent - self.last.reactive_sent,
        );
        h.add(
            c::ADMIT_REACTIVE_HELD,
            now.reactive_held - self.last.reactive_held,
        );
        h.add(c::ROUND_ROUNDS, now.rounds - self.last.rounds);
        h.add(
            c::ROUND_PROACTIVE_SENT,
            now.proactive_sent - self.last.proactive_sent,
        );
        h.add(
            c::ROUND_TOKENS_BANKED,
            now.tokens_banked - self.last.tokens_banked,
        );
        self.last = *now;
    }
}

/// One worker thread's telemetry state: its lane flusher, its sampler,
/// and (when tracing) its ring producer.
#[derive(Debug)]
pub(crate) struct WorkerTelem {
    flush: LaneFlush,
    sampler: Sampler,
    producer: Option<TraceProducer>,
    sampled: u64,
    sampled_sent: u64,
    sampled_held: u64,
    last_dropped: u64,
}

impl WorkerTelem {
    /// Per-decision hook: one sampler check; a hit reads the
    /// post-decision balance (`balance_after` is evaluated only then) and
    /// pushes one record into the worker's ring.
    #[inline]
    pub(crate) fn trace(
        &mut self,
        client: usize,
        decision: Decision,
        balance_after: impl FnOnce() -> i64,
    ) {
        if self.sampler.hit() {
            self.sample(client, decision, balance_after());
        }
    }

    #[cold]
    fn sample(&mut self, client: usize, decision: Decision, balance_after: i64) {
        let (verdict, cost) = match decision {
            Decision::ReactiveSend(x) => (TraceRecord::SENT, x as u32),
            _ => (TraceRecord::HELD, 0),
        };
        self.sampled += 1;
        if verdict == TraceRecord::SENT {
            self.sampled_sent += 1;
        } else {
            self.sampled_held += 1;
        }
        if let Some(p) = self.producer.as_mut() {
            p.push(TraceRecord {
                mono_ns: mono_ns(),
                balance_after,
                client: client as u32,
                cost,
                verdict,
            });
        }
    }

    /// One timed decision's latency, into the lane's `admit_ns`.
    #[inline]
    pub(crate) fn record_admit(&self, ns: u64) {
        self.flush.handle().hist_record(h::ADMIT_NS, ns);
    }

    /// Per-chunk (and worker-exit) publish: everything `counters` — the
    /// worker's own running books — gained since the last call, plus the
    /// sampling tallies.
    pub(crate) fn flush(&mut self, counters: &LiveCounters) {
        self.flush.flush(counters);
        let h = self.flush.handle();
        h.add(c::TRACE_SAMPLED, std::mem::take(&mut self.sampled));
        h.add(
            c::TRACE_SAMPLED_SENT,
            std::mem::take(&mut self.sampled_sent),
        );
        h.add(
            c::TRACE_SAMPLED_HELD,
            std::mem::take(&mut self.sampled_held),
        );
        if let Some(p) = self.producer.as_ref() {
            let dropped = p.ring().dropped();
            h.add(c::TRACE_DROPPED, dropped - self.last_dropped);
            self.last_dropped = dropped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_constants_match_names() {
        assert_eq!(COUNTERS[c::ADMIT_REQUESTS], "admit_requests");
        assert_eq!(COUNTERS[c::ADMIT_REACTIVE_SENT], "admit_reactive_sent");
        assert_eq!(COUNTERS[c::ADMIT_REACTIVE_HELD], "admit_reactive_held");
        assert_eq!(COUNTERS[c::ROUND_ROUNDS], "round_rounds");
        assert_eq!(COUNTERS[c::ROUND_PROACTIVE_SENT], "round_proactive_sent");
        assert_eq!(COUNTERS[c::ROUND_TOKENS_BANKED], "round_tokens_banked");
        assert_eq!(COUNTERS[c::GRANTER_SWEEPS], "granter_sweeps");
        assert_eq!(COUNTERS[c::GRANTER_ACCOUNTS], "granter_accounts");
        assert_eq!(COUNTERS[c::JOURNAL_BATCHES], "journal_batches");
        assert_eq!(COUNTERS[c::JOURNAL_FRAMES_DELTA], "journal_frames_delta");
        assert_eq!(COUNTERS[c::JOURNAL_FRAMES_RANGE], "journal_frames_range");
        assert_eq!(COUNTERS[c::JOURNAL_BYTES_DELTA], "journal_bytes_delta");
        assert_eq!(COUNTERS[c::JOURNAL_BYTES_RANGE], "journal_bytes_range");
        assert_eq!(COUNTERS[c::JOURNAL_FLUSHES], "journal_flushes");
        assert_eq!(COUNTERS[c::JOURNAL_FLUSH_NS], "journal_flush_ns");
        assert_eq!(COUNTERS[c::JOURNAL_FSYNCS], "journal_fsyncs");
        assert_eq!(COUNTERS[c::JOURNAL_FSYNC_NS], "journal_fsync_ns");
        assert_eq!(COUNTERS[c::SNAPSHOT_FREEZES], "snapshot_freezes");
        assert_eq!(COUNTERS[c::SNAPSHOT_FREEZE_NS], "snapshot_freeze_ns");
        assert_eq!(COUNTERS[c::RECOVERY_REPLAYED], "recovery_replayed");
        assert_eq!(COUNTERS[c::TRACE_SAMPLED], "trace_sampled");
        assert_eq!(COUNTERS[c::TRACE_SAMPLED_SENT], "trace_sampled_sent");
        assert_eq!(COUNTERS[c::TRACE_SAMPLED_HELD], "trace_sampled_held");
        assert_eq!(COUNTERS[c::TRACE_DROPPED], "trace_dropped");
        assert_eq!(COUNTERS[c::OBS_CONNECTIONS], "obs_connections");
        assert_eq!(COUNTERS[c::OBS_STATS_REQUESTS], "obs_stats_requests");
        assert_eq!(COUNTERS[c::OBS_WATCH_LINES], "obs_watch_lines");
        assert_eq!(COUNTERS[c::OBS_TRACE_STREAMED], "obs_trace_streamed");
        assert_eq!(COUNTERS[c::OBS_DROPPED_WATCH], "obs_dropped_watch");
        assert_eq!(COUNTERS[c::OBS_DROPPED_TRACE], "obs_dropped_trace");
        assert_eq!(COUNTERS[c::JOURNAL_IO_RETRIES], "journal_io_retries");
        assert_eq!(COUNTERS[c::JOURNAL_IO_ERRORS], "journal_io_errors");
        assert_eq!(
            COUNTERS[c::JOURNAL_DROPPED_RECORDS],
            "journal_dropped_records"
        );
        assert_eq!(
            COUNTERS[c::JOURNAL_WRITER_RESTARTS],
            "journal_writer_restarts"
        );
        assert_eq!(COUNTERS[c::GRANTER_RESTARTS], "granter_restarts");
        assert_eq!(COUNTERS[c::HEALTH_DEGRADATIONS], "health_degradations");
        assert_eq!(COUNTERS[c::FAULTS_INJECTED], "faults_injected");
        assert_eq!(COUNTERS.len(), 37);
        assert_eq!(GAUGES[g::JOURNAL_QUEUE_DEPTH], "journal_queue_depth");
        assert_eq!(GAUGES[g::HEALTH_JOURNAL_WRITER], "health_journal_writer");
        assert_eq!(GAUGES[g::HEALTH_GRANTER], "health_granter");
        assert_eq!(GAUGES[g::HEALTH_TRACE_BUS], "health_trace_bus");
        assert_eq!(GAUGES[g::HEALTH_STATS_PUMP], "health_stats_pump");
        assert_eq!(GAUGES[g::DURABILITY_SUSPENDED], "durability_suspended");
        assert_eq!(GAUGES.len(), 6);
        assert_eq!(HISTS[h::ADMIT_NS], "admit_ns");
        assert_eq!(HISTS[h::JOURNAL_COMMIT_NS], "journal_commit_ns");
        assert_eq!(HISTS[h::FSYNC_NS], "fsync_ns");
        assert_eq!(HISTS[h::GRANTER_SWEEP_NS], "granter_sweep_ns");
        assert_eq!(HISTS[h::ROUND_JITTER_NS], "round_jitter_ns");
        assert_eq!(HISTS.len(), 5);
    }

    #[test]
    fn lane_flush_publishes_exact_deltas() {
        let t = LiveTelemetry::new(2, 0, 16);
        let mut flush = LaneFlush::new(t.registry().handle(0));
        let mut counters = LiveCounters {
            requests: 10,
            reactive_sent: 4,
            reactive_held: 6,
            ..LiveCounters::default()
        };
        flush.flush(&counters);
        counters.requests += 5;
        counters.reactive_sent += 2;
        counters.reactive_held += 3;
        counters.rounds += 7;
        counters.tokens_banked += 7;
        flush.flush(&counters);
        let snap = t.snapshot();
        assert_eq!(snap.counter(c::ADMIT_REQUESTS), 15);
        assert_eq!(snap.counter(c::ADMIT_REACTIVE_SENT), 6);
        assert_eq!(snap.counter(c::ADMIT_REACTIVE_HELD), 9);
        assert_eq!(snap.counter(c::ROUND_ROUNDS), 7);
        assert_eq!(snap.counter(c::ROUND_TOKENS_BANKED), 7);
    }

    #[test]
    fn worker_telem_samples_and_counts_exactly() {
        let t = LiveTelemetry::new(1, 1, 1024);
        let mut wt = t.worker(0);
        let mut counters = LiveCounters::default();
        let mut hist = ta_telemetry::LatencyHistogram::new();
        for i in 0..600u64 {
            counters.requests += 1;
            hist.record(100 + i);
            wt.record_admit(100 + i);
            let d = if i % 3 == 0 {
                counters.reactive_sent += 2;
                Decision::ReactiveSend(2)
            } else {
                counters.reactive_held += 1;
                Decision::Hold
            };
            wt.trace(i as usize, d, || 42 - i as i64);
            if i % 256 == 255 {
                wt.flush(&counters);
            }
        }
        wt.flush(&counters);
        let snap = t.snapshot();
        assert_eq!(snap.counter(c::ADMIT_REQUESTS), 600);
        assert_eq!(
            snap.hist(h::ADMIT_NS),
            &hist,
            "admit_ns is the worker's histogram"
        );
        assert_eq!(snap.counter(c::TRACE_SAMPLED), 600);
        assert_eq!(snap.counter(c::TRACE_SAMPLED_SENT), 200);
        assert_eq!(snap.counter(c::TRACE_SAMPLED_HELD), 400);
        assert_eq!(snap.counter(c::TRACE_DROPPED), 0);
        let mut out = Vec::new();
        for mut cons in t.take_consumers() {
            cons.drain(&mut out);
        }
        assert_eq!(out.len(), 600);
        let sent: u64 = out
            .iter()
            .filter(|r| r.verdict == TraceRecord::SENT)
            .map(|r| u64::from(r.cost))
            .sum();
        assert_eq!(sent, counters.reactive_sent);
        assert_eq!(out[0].balance_after, 42);
    }

    #[test]
    fn consumers_are_taken_once() {
        let t = LiveTelemetry::new(3, 0, 16);
        assert_eq!(t.take_consumers().len(), 3);
        assert!(t.take_consumers().is_empty());
    }
}
