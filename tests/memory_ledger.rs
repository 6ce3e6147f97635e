//! The simulator's byte ledger: what one churn replica keeps per node.
//!
//! A counting global allocator measures the heap bytes each structure of
//! a replica holds once it is built, at n = 20,000 on the paper's 20-out
//! overlay under smartphone churn (the `sim_big_churn` workload at a fifth
//! of its size), and the heap peak of the whole run. Every edge is stored
//! once in the topology (its in-adjacency) and once in the run's
//! online-neighbour mirror (the out-lists); the churn schedule is flat.
//! The ceilings are those layouts' sizes, so a second copy of the edges, a
//! per-node `Vec`, or spare capacity left behind fails the test:
//!
//! * topology ≤ 4·E + 8·(n + 1) B (in-CSR and out-offsets);
//! * schedule ≤ 5 B per node + 8 B per transition;
//! * mirror ≤ 4·E + 9·n B.
//!
//! `cargo test --test memory_ledger -- --nocapture` prints the ledger.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ta::churn::SmartphoneTraceModel;
use ta::core::StrategySpec;
use ta::experiments::runner::build_topology;
use ta::experiments::{run_experiment, AppKind, ExperimentSpec};
use ta::overlay::OnlineNeighbors;
use ta::sim::engine::AvailabilityModel;
use ta::sim::NodeId;

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Builds `T` and returns it with the heap bytes it still holds.
fn held<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    let built = build();
    (built, LIVE.load(Relaxed) - before)
}

fn report(what: &str, bytes: usize, n: usize, bound: &str) {
    let per_node = bytes as f64 / n as f64;
    println!("ledger {what:<9} {bytes:>9} B  {per_node:>6.1} B/node  ({bound})");
}

#[test]
fn a_churn_replica_stores_each_edge_once_per_layer() {
    let spec = ExperimentSpec::paper_defaults(
        AppKind::PushGossip,
        StrategySpec::Randomized { a: 5, c: 10 },
        20_000,
    )
    .with_rounds(40)
    .with_runs(1)
    .with_seed(17)
    .with_smartphone_churn();
    let n = spec.n;

    let (topo, topo_bytes) = held(|| build_topology(&spec).unwrap());
    let edges = topo.edge_count();
    assert_eq!(edges, 20 * n);
    let topo_ceiling = 4 * edges + 8 * (n + 1);
    report(
        "topology",
        topo_bytes,
        n,
        &format!("ceiling {topo_ceiling} B"),
    );

    let model = SmartphoneTraceModel::default();
    let (schedule, schedule_bytes) = held(|| model.generate(n, spec.duration, 17));
    let transitions = schedule.transition_count();
    assert!(
        transitions > n / 10,
        "churn is live: {transitions} transitions"
    );
    let schedule_ceiling = 5 * n + 8 * transitions;
    report(
        "schedule",
        schedule_bytes,
        n,
        &format!("ceiling {schedule_ceiling} B"),
    );

    let initial: Vec<bool> = (0..n)
        .map(|i| schedule.initially_online(NodeId::from_index(i)))
        .collect();
    let (mirror, mirror_bytes) = held(|| OnlineNeighbors::new(&topo, &initial));
    let mirror_ceiling = 4 * edges + 9 * n;
    report(
        "mirror",
        mirror_bytes,
        n,
        &format!("ceiling {mirror_ceiling} B"),
    );
    drop((topo, schedule, mirror, initial));

    // The whole replica, built and run by the experiment runner: its heap
    // peak above what was live before it started. Printed, not asserted:
    // the shard layout, and with it the peak, follows the pool's size.
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let result = run_experiment(&spec).unwrap();
    assert!(result.stats.mean_ticks > 0.0);
    report("run peak", PEAK.load(Relaxed) - base, n, "not bounded here");

    assert!(topo_bytes <= topo_ceiling, "topology: {topo_bytes} B");
    assert!(
        schedule_bytes <= schedule_ceiling,
        "schedule: {schedule_bytes} B"
    );
    assert!(mirror_bytes <= mirror_ceiling, "mirror: {mirror_bytes} B");
}
