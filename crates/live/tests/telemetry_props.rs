//! Property tests: the decision trace is a faithful sub-sample of the
//! admission stream.
//!
//! At sample interval 1 with a ring large enough to never drop, the
//! drained trace records *are* the request stream: reconstructing
//! admit/deny totals from them must reproduce the exact
//! [`LiveCounters`] books the run reported — same request count, same
//! held count, and the same total reactive tokens sent. Anything less
//! means the trace path lies about what the runtime did, which would
//! poison every analysis built on `--trace-out`.

use std::time::Duration;

use proptest::prelude::*;

use ta_live::telem::c;
use ta_live::{
    run_loadgen, ArrivalMode, Attach, LiveRuntime, LiveTelemetry, LoadGenConfig, LoadGenReport,
};
use ta_telemetry::TraceRecord;
use token_account::StrategySpec;

fn cfg(workers: usize, seed: u64) -> LoadGenConfig {
    LoadGenConfig {
        workers,
        duration: Duration::from_millis(30),
        mode: ArrivalMode::Closed,
        useful_probability: 0.8,
        burst: None,
        round_period: Some(Duration::from_millis(5)),
        seed,
    }
}

/// A run of `spec` over `clients` accounts in `shards` shards, with
/// `telem` attached.
fn observed(
    spec: StrategySpec,
    clients: usize,
    shards: usize,
    cfg: &LoadGenConfig,
    telem: &LiveTelemetry,
) -> LoadGenReport {
    let runtime = LiveRuntime::new(spec.build().unwrap(), clients, shards);
    let with = Attach {
        telem: Some(telem),
        ..Attach::default()
    };
    run_loadgen(&runtime, cfg, with)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Run a real multi-threaded observed load generation at sample
    /// interval 1 and reconstruct the admit/deny totals from the
    /// drained trace: they equal the run's own merged counters exactly.
    #[test]
    fn trace_reconstructs_admission_totals(
        clients in 64usize..512,
        workers in 1usize..5,
        shards_pow in 0u32..5,
        k in 1u64..5,
        seed in any::<u64>(),
    ) {
        let cfg = cfg(workers, seed);
        // Large enough that a 30 ms closed-loop run can never wrap.
        let telem = LiveTelemetry::new(cfg.workers, 1, 1 << 20);
        let report =
            observed(StrategySpec::Reactive { k }, clients, 1 << shards_pow, &cfg, &telem);
        prop_assert!(report.conserves());

        let mut records: Vec<TraceRecord> = Vec::new();
        for mut cons in telem.take_consumers() {
            cons.drain(&mut records);
        }
        let snap = telem.snapshot();
        prop_assert_eq!(snap.counter(c::TRACE_DROPPED), 0);
        prop_assert_eq!(snap.counter(c::TRACE_SAMPLED), report.counters.requests);

        // Reconstruct the books from the trace alone.
        let held = records
            .iter()
            .filter(|r| r.verdict == TraceRecord::HELD)
            .count() as u64;
        let sent_requests = records
            .iter()
            .filter(|r| r.verdict == TraceRecord::SENT)
            .count() as u64;
        let sent_tokens: u64 = records
            .iter()
            .filter(|r| r.verdict == TraceRecord::SENT)
            .map(|r| u64::from(r.cost))
            .sum();

        let m = &report.counters;
        prop_assert_eq!(records.len() as u64, m.requests);
        prop_assert_eq!(held, m.reactive_held);
        prop_assert_eq!(sent_requests, m.requests - m.reactive_held);
        prop_assert_eq!(sent_tokens, m.reactive_sent);

        // Each record's client id is in range.
        for r in &records {
            prop_assert!((r.client as usize) < clients);
        }
    }

    /// Sampling 1-in-N never distorts accounting: sampled counters and
    /// drained records still close exactly (`drained + dropped ==
    /// sampled`), and sampled totals never exceed the full totals.
    #[test]
    fn sampled_trace_accounting_closes(
        n in prop_oneof![Just(2u32), Just(7), Just(64)],
        seed in any::<u64>(),
    ) {
        let cfg = cfg(2, seed);
        let telem = LiveTelemetry::new(cfg.workers, n, 1 << 12);
        let report = observed(StrategySpec::Simple { c: 8 }, 256, 8, &cfg, &telem);
        prop_assert!(report.conserves());

        let mut records: Vec<TraceRecord> = Vec::new();
        for mut cons in telem.take_consumers() {
            cons.drain(&mut records);
        }
        let snap = telem.snapshot();
        prop_assert_eq!(
            records.len() as u64 + snap.counter(c::TRACE_DROPPED),
            snap.counter(c::TRACE_SAMPLED)
        );
        prop_assert!(snap.counter(c::TRACE_SAMPLED) <= report.counters.requests);
        prop_assert!(
            snap.counter(c::TRACE_SAMPLED_SENT) + snap.counter(c::TRACE_SAMPLED_HELD)
                == snap.counter(c::TRACE_SAMPLED)
        );
        // Exact every-Nth per worker: each worker samples
        // floor(requests_w / N) + (1 if requests_w % N >= 1 for the
        // first hit) — bounded above by requests / N + workers.
        prop_assert!(
            snap.counter(c::TRACE_SAMPLED)
                <= report.counters.requests / u64::from(n) + cfg.workers as u64
        );
    }
}
