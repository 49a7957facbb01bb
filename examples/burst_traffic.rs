//! Bursty traffic and the worst-case mapping: Dynamic Redundancy at work.
//!
//! Recreates the paper's adversarial experiment (Table II → Figure 15):
//! profile a Zipf trace over 32 even partitions, map the eight hottest
//! onto chip 1, and watch DRed rebalance the load. Also sweeps the DRed
//! size to show the hit-rate / speedup relationship (Figures 16–17) and
//! cross-validates the clock model against the real-thread engine.
//!
//! ```sh
//! cargo run --release --example burst_traffic
//! ```

use clue::compress::onrtc;
use clue::core::engine::{Engine, EngineConfig};
use clue::core::theory::worst_case_speedup;
use clue::core::DredConfig;
use clue::fib::gen::FibGen;
use clue::partition::{EvenRangePartition, Indexer};
use clue::router::RouterConfig;
use clue::traffic::workload::{adversarial_mapping, chip_shares, profile};
use clue::traffic::PacketGen;

fn main() {
    println!("== bursty traffic under the adversarial mapping ==\n");
    let fib = onrtc(&FibGen::new(77).routes(100_000).generate());
    let trace = PacketGen::new(78)
        .zipf_exponent(1.1)
        .generate(&fib, 500_000);

    // 32 even partitions; profile the trace; stack the hottest on chip 0.
    let parts = EvenRangePartition::split(&fib, 32);
    let (buckets, index) = parts.into_parts();
    let counts = profile(&trace, 32, |a| index.bucket_of(a));
    let mapping = adversarial_mapping(&counts, 4);
    let original = chip_shares(&counts, &mapping, 4);
    println!(
        "offered per-chip load (adversarial): {:?}",
        original
            .iter()
            .map(|s| format!("{:.2}%", s * 100.0))
            .collect::<Vec<_>>()
    );

    // Run the engine: DRed must flatten the service distribution.
    let cfg = EngineConfig::default();
    let idx = index.clone();
    let mut engine = Engine::from_buckets(
        &buckets,
        move |a| idx.bucket_of(a),
        mapping.clone(),
        DredConfig::Clue {
            capacity: 1024,
            exclude_home: true,
        },
        cfg,
    );
    let (report, _) = engine.run(&trace);
    println!(
        "serviced per-chip after DRed balancing: {:?}",
        report
            .chip_shares()
            .iter()
            .map(|s| format!("{:.2}%", s * 100.0))
            .collect::<Vec<_>>()
    );
    println!(
        "speedup {:.2}x at hit rate {:.1}% (theory floor: {:.2}x)\n",
        report.speedup(cfg.service_clocks),
        report.scheme.hit_rate() * 100.0,
        worst_case_speedup(cfg.chips, report.scheme.hit_rate())
    );

    // Sweep DRed size: hit rate and speedup (Figures 16–17 in one table).
    println!(
        "{:>10} {:>10} {:>10} {:>12}",
        "DRed size", "hit rate", "speedup", "(N-1)h+1"
    );
    for dred in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let idx = index.clone();
        let mut engine = Engine::from_buckets(
            &buckets,
            move |a| idx.bucket_of(a),
            mapping.clone(),
            DredConfig::Clue {
                capacity: dred,
                exclude_home: true,
            },
            cfg,
        );
        let (r, _) = engine.run(&trace);
        let h = r.scheme.hit_rate();
        println!(
            "{:>10} {:>9.1}% {:>9.2}x {:>11.2}x",
            dred,
            h * 100.0,
            r.speedup(cfg.service_clocks),
            worst_case_speedup(cfg.chips, h)
        );
    }

    // Cross-validate with real threads.
    let treport = clue::router::run(&fib, &trace[..200_000], &[], &RouterConfig::default());
    println!(
        "\nthreaded engine: {} packets in {:?} ({:.1} Mpps software throughput)",
        treport.snapshot.completions,
        treport.elapsed,
        treport.snapshot.completions as f64 / treport.elapsed.as_secs_f64() / 1e6
    );
}
