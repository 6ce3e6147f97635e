//! Scheduler ablation: the engine's lane scheduler vs. the binary heap it
//! falls back to.
//!
//! Two workloads: a uniformly random offset mix (no push matches a lane, so
//! the scheduler is the heap plus its merge), and the round-based pattern
//! that dominates the token account protocols (every pending event is
//! either a Δ round tick or a transfer-delay delivery, so every push is an
//! `O(1)` lane append).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ta_sim::queue::{BinaryHeapQueue, EventQueue, LaneScheduler};
use ta_sim::rng::Xoshiro256pp;
use ta_sim::time::SimTime;

const PENDING: usize = 10_000;
const OPS: usize = 20_000;

/// Drives `queue` through a steady-state churn of push/pop pairs.
fn churn<Q: EventQueue<u64>>(mut queue: Q, offsets: &[u64]) -> u64 {
    let mut now = 0u64;
    let mut acc = 0u64;
    // Pre-fill.
    for (i, &off) in offsets.iter().take(PENDING).enumerate() {
        queue.push(SimTime::from_micros(now + off), i as u64);
    }
    for (i, &off) in offsets.iter().cycle().skip(PENDING).take(OPS).enumerate() {
        let popped = queue.pop().expect("queue stays non-empty");
        now = popped.time.as_micros();
        acc ^= popped.event;
        queue.push(SimTime::from_micros(now + off), i as u64);
    }
    acc
}

fn uniform_offsets(n: usize) -> Vec<u64> {
    let mut rng = Xoshiro256pp::stream(11, 0);
    (0..n).map(|_| rng.below(400_000_000)).collect()
}

/// The protocol pattern: mostly 1.728 s transfers plus Δ = 172.8 s ticks.
fn periodic_offsets(n: usize) -> Vec<u64> {
    let mut rng = Xoshiro256pp::stream(13, 0);
    (0..n)
        .map(|_| {
            if rng.chance(0.5) {
                172_800_000
            } else {
                1_728_000
            }
        })
        .collect()
}

fn bench_queues(c: &mut Criterion) {
    let workloads: [(&str, Vec<u64>); 2] = [
        ("uniform", uniform_offsets(PENDING + OPS)),
        ("periodic", periodic_offsets(PENDING + OPS)),
    ];
    let mut group = c.benchmark_group("event_queue");
    for (workload, offsets) in &workloads {
        group.bench_with_input(
            BenchmarkId::new("binary_heap", workload),
            offsets,
            |b, offsets| {
                b.iter(|| black_box(churn(BinaryHeapQueue::new(), offsets)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scheduler", workload),
            offsets,
            |b, offsets| {
                b.iter(|| black_box(churn(LaneScheduler::new(), offsets)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_queues);
criterion_main!(benches);
