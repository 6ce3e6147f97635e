//! Satellite coverage: snapshot-read consistency of the counter registry
//! under concurrent writers, and SPSC ring accounting exactness under a
//! live producer/consumer pair.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use ta_telemetry::{trace_ring, LatencyHistogram, Registry, TraceRecord};

const COUNTERS: &[&str] = &["a", "b", "c"];
const GAUGES: &[&str] = &["g"];
const HISTS: &[&str] = &["lat_ns"];

/// Readers sweeping concurrently with 8 writer threads never observe a
/// torn or decreasing total, and the final sweep is exact.
#[test]
fn snapshots_never_tear_or_decrease_under_8_writers() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 400_000;
    let reg = Registry::new(COUNTERS, GAUGES, WRITERS);
    let stop = Arc::new(AtomicBool::new(false));
    // The writers start after the reader's first sweep: otherwise they
    // can all finish before the reader first runs.
    let start = &Barrier::new(WRITERS + 1);

    let sweeps = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|lane| {
                let h = reg.handle(lane);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        h.incr(0);
                        h.add(1, 3);
                        if i % 16 == 0 {
                            h.add(2, 1);
                        }
                        // Gauge churns but each lane nets +1 per iteration.
                        h.gauge_add(0, 2);
                        h.gauge_add(0, -1);
                    }
                })
            })
            .collect();
        let stop_reader = Arc::clone(&stop);
        let reg_reader = Arc::clone(&reg);
        let reader = s.spawn(move || {
            let mut sweeps = 0u64;
            let mut last = [0u64; 3];
            loop {
                let snap = reg_reader.snapshot();
                let now = [snap.counter(0), snap.counter(1), snap.counter(2)];
                for (i, (&prev, &cur)) in last.iter().zip(now.iter()).enumerate() {
                    assert!(
                        cur >= prev,
                        "counter {i} decreased across sweeps: {prev} -> {cur}"
                    );
                }
                last = now;
                sweeps += 1;
                if sweeps == 1 {
                    start.wait();
                }
                if stop_reader.load(Ordering::Relaxed) {
                    break;
                }
            }
            sweeps
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap()
    });
    assert!(sweeps > 0, "reader must have swept at least once");

    let snap = reg.snapshot();
    assert_eq!(snap.counter(0), WRITERS as u64 * PER_WRITER);
    assert_eq!(snap.counter(1), 3 * WRITERS as u64 * PER_WRITER);
    assert_eq!(snap.gauge(0), (WRITERS as u64 * PER_WRITER) as i64);
}

/// Exact final totals after all writers join.
#[test]
fn final_sweep_is_exact() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 100_000;
    let reg = Registry::new(COUNTERS, GAUGES, WRITERS);
    std::thread::scope(|s| {
        for lane in 0..WRITERS {
            let h = reg.handle(lane);
            s.spawn(move || {
                for _ in 0..PER_WRITER {
                    h.incr(0);
                    h.gauge_add(0, 5);
                    h.gauge_add(0, -4);
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.counter(0), WRITERS as u64 * PER_WRITER);
    assert_eq!(snap.gauge(0), (WRITERS as u64 * PER_WRITER) as i64);
}

/// Readers sweeping concurrently with 8 histogram writers never observe
/// decreasing books, and the final sweep is bucket-exact against an
/// owned oracle histogram fed the same samples.
#[test]
fn hist_snapshots_stay_consistent_under_8_writers() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 200_000;
    let reg = Registry::with_hists(COUNTERS, GAUGES, HISTS, WRITERS);
    let stop = Arc::new(AtomicBool::new(false));
    // As above: the writers wait for the reader's first sweep.
    let start = &Barrier::new(WRITERS + 1);

    // Deterministic per-writer sample: spreads across several octaves.
    let sample = |i: u64| (i % 1024) + 1;

    let sweeps = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|lane| {
                let h = reg.handle(lane);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        h.hist_record(0, sample(i));
                    }
                })
            })
            .collect();
        let stop_reader = Arc::clone(&stop);
        let reg_reader = Arc::clone(&reg);
        let reader = s.spawn(move || {
            let mut sweeps = 0u64;
            let (mut last_count, mut last_sum, mut last_max) = (0u64, 0u64, 0u64);
            loop {
                let snap = reg_reader.snapshot();
                let hist = snap.hist(0);
                assert!(hist.count() >= last_count, "count decreased");
                assert!(hist.sum() >= last_sum, "sum decreased");
                assert!(hist.max() >= last_max, "max decreased");
                // Quantiles stay ordered on every (possibly mid-write)
                // sweep; each lane block is relaxed-atomic, never torn.
                assert!(hist.percentile(0.5) <= hist.percentile(0.99));
                assert!(hist.percentile(0.99) <= hist.percentile(0.999));
                (last_count, last_sum, last_max) = (hist.count(), hist.sum(), hist.max());
                sweeps += 1;
                if sweeps == 1 {
                    start.wait();
                }
                if stop_reader.load(Ordering::Relaxed) {
                    break;
                }
            }
            sweeps
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap()
    });
    assert!(sweeps > 0, "reader must have swept at least once");

    let mut oracle = LatencyHistogram::new();
    for _ in 0..WRITERS {
        for i in 0..PER_WRITER {
            oracle.record(sample(i));
        }
    }
    let snap = reg.snapshot();
    let hist = snap.hist(0);
    assert_eq!(hist.count(), oracle.count());
    assert_eq!(hist.sum(), oracle.sum());
    assert_eq!(hist.max(), oracle.max());
    assert_eq!(hist.buckets(), oracle.buckets());
    assert_eq!(
        snap.hist_by_name("lat_ns").map(LatencyHistogram::count),
        Some(oracle.count())
    );
}

/// A concurrent producer/consumer pair over a small ring: every pushed
/// record is either drained (in order, no duplicates) or counted dropped.
#[test]
fn ring_accounting_exact_with_concurrent_drain() {
    const N: u64 = 500_000;
    let (mut producer, mut consumer) = trace_ring(256);
    let done = Arc::new(AtomicBool::new(false));
    let done_consumer = Arc::clone(&done);

    let drainer = std::thread::spawn(move || {
        let mut out = Vec::new();
        loop {
            consumer.drain(&mut out);
            if done_consumer.load(Ordering::Acquire) {
                consumer.drain(&mut out);
                break;
            }
        }
        (out, consumer)
    });

    let mut accepted = 0u64;
    for i in 0..N {
        if producer.push(TraceRecord {
            mono_ns: i,
            client: i as u32,
            cost: 1,
            verdict: TraceRecord::SENT,
            balance_after: 0,
        }) {
            accepted += 1;
        }
    }
    done.store(true, Ordering::Release);
    let (out, consumer) = drainer.join().unwrap();

    assert_eq!(producer.ring().pushed(), N);
    assert_eq!(accepted + producer.ring().dropped(), N);
    assert_eq!(out.len() as u64, accepted, "every accepted record drains");
    assert_eq!(
        consumer.ring().pushed() - consumer.ring().dropped(),
        out.len() as u64
    );
    // Strictly increasing timestamps prove order with no duplication.
    assert!(out.windows(2).all(|w| w[0].mono_ns < w[1].mono_ns));
}
