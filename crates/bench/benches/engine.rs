//! End-to-end simulator throughput: a full token-account push gossip run
//! at micro scale.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ta_apps::protocol::TokenProtocol;
use ta_apps::push_gossip::PushGossip;
use ta_bench::scales::{BENCH_N, BENCH_ROUNDS};
use ta_overlay::generators::k_out_random;
use ta_overlay::Topology;
use ta_sim::config::SimConfig;
use ta_sim::engine::{AlwaysOn, Simulation};
use ta_sim::paper;
use ta_sim::rng::Xoshiro256pp;
use token_account::prelude::*;

fn run_once(topo: &Arc<Topology>) -> u64 {
    let n = topo.n();
    let cfg = SimConfig::builder(n)
        .duration(paper::DELTA * BENCH_ROUNDS)
        .sample_period(paper::DELTA)
        .injection_period(paper::UPDATE_INJECTION_PERIOD)
        .seed(3)
        .build()
        .expect("valid bench config");
    let app = PushGossip::new(n, &vec![true; n]);
    let strategy: Box<dyn Strategy> =
        Box::new(RandomizedTokenAccount::new(10, 20).expect("valid strategy"));
    let proto = TokenProtocol::new(Arc::clone(topo), strategy, app, vec![true; n]);
    let mut sim = Simulation::new(cfg, &AlwaysOn, proto);
    sim.run_to_end();
    sim.stats().events_processed
}

fn bench_engine(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::stream(5, 0);
    let topo = Arc::new(k_out_random(BENCH_N, 20, &mut rng).expect("valid topology"));
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(20);
    group.bench_function("push_gossip_run", |b| b.iter(|| black_box(run_once(&topo))));
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
