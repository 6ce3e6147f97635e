//! Micro-benchmarks of the strategy kernels: the `PROACTIVE`/`REACTIVE`
//! evaluations and probabilistic rounding a decision table is compiled
//! from, and the Algorithm-4 node steps that decide through the table —
//! the per-event cost every simulated message pays.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use ta_sim::rng::Xoshiro256pp;
use token_account::prelude::*;

fn strategies() -> Vec<(&'static str, Box<dyn Strategy>)> {
    vec![
        ("proactive", Box::new(PurelyProactive)),
        (
            "reactive_k1",
            Box::new(PurelyReactive::if_useful(1).unwrap()),
        ),
        ("simple_c20", Box::new(SimpleTokenAccount::new(20))),
        (
            "generalized_a10_c20",
            Box::new(GeneralizedTokenAccount::new(10, 20).unwrap()),
        ),
        (
            "randomized_a10_c20",
            Box::new(RandomizedTokenAccount::new(10, 20).unwrap()),
        ),
    ]
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy_kernels");
    for (name, strategy) in strategies() {
        group.bench_function(format!("proactive/{name}"), |b| {
            let mut balance = 0i64;
            b.iter(|| {
                balance = (balance + 1) % 21;
                black_box(strategy.proactive(black_box(balance)))
            });
        });
        group.bench_function(format!("reactive/{name}"), |b| {
            let mut balance = 0i64;
            b.iter(|| {
                balance = (balance + 1) % 21;
                black_box(strategy.reactive(black_box(balance), Usefulness::Useful))
            });
        });
    }
    group.finish();
}

fn bench_rand_round(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    c.bench_function("rand_round", |b| {
        b.iter(|| black_box(rand_round(black_box(2.37), &mut rng)))
    });
}

fn bench_node_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("token_node");
    for (name, strategy) in strategies() {
        if strategy.allows_debt() {
            continue; // the debt path is not the hot loop
        }
        let table = DecisionTable::new(strategy);
        group.bench_function(format!("round_and_message/{name}"), |b| {
            let mut node = TokenNode::new(0);
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            b.iter(|| {
                node.on_round(&table, &mut rng);
                black_box(node.on_message(&table, Usefulness::Useful, &mut rng))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_rand_round, bench_node_steps);
criterion_main!(benches);
