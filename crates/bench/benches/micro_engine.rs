//! Criterion micro-benchmarks: engine throughput.
//!
//! Raw software speed of the two engine realizations — the clock-driven
//! simulator (packets per simulated clock are fixed; this measures
//! wall-clock per simulated packet) and the real-threaded engine of
//! `clue-router` (actual Mpps on this machine).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use clue_compress::onrtc;
use clue_core::engine::{Engine, EngineConfig};
use clue_fib::gen::FibGen;
use clue_router::RouterConfig;
use clue_traffic::PacketGen;

fn bench_engines(c: &mut Criterion) {
    let fib = onrtc(&FibGen::new(9).routes(50_000).generate());
    let trace = PacketGen::new(10).generate(&fib, 50_000);

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);

    group.bench_function("clock_sim_4chips", |b| {
        b.iter(|| {
            let mut engine = Engine::clue(&fib, 1024, EngineConfig::default());
            black_box(engine.run(black_box(&trace)))
        });
    });
    group.bench_function("threaded_4chips", |b| {
        b.iter(|| {
            black_box(clue_router::run(
                &fib,
                black_box(&trace),
                &[],
                &RouterConfig::default(),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
