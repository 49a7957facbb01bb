//! Live concurrent router: real threads, batched coalesced updates,
//! epoch handoff, and a JSON stats snapshot.
//!
//! Where `router_sim` drives the *clock-accurate* engine, this example
//! runs the `clue-router` runtime — one OS thread per chip racing a
//! single update-plane thread — on a seeded workload, then verifies the
//! final FIB against offline sequential replay and prints the
//! aggregated statistics the `clue serve` subcommand exposes.
//!
//! ```sh
//! cargo run --release --example live_router
//! ```

use clue::core::BackendKind;
use clue::fib::gen::FibGen;
use clue::router::{run, OverflowPolicy, RouterConfig};
use clue::traffic::{PacketGen, UpdateGen};

fn main() {
    println!("== CLUE live router ==");

    let rib = FibGen::new(300).routes(50_000).generate();
    let packets = PacketGen::new(301).generate(&rib, 300_000);
    let updates = UpdateGen::new(302).generate(&rib, 12_000);
    println!(
        "workload: {} routes, {} packets, {} updates",
        rib.len(),
        packets.len(),
        updates.len()
    );

    let cfg = RouterConfig {
        workers: 4,
        dred_capacity: 2048,
        batch_size: 64,
        update_queue: 1024,
        overflow: OverflowPolicy::Block,
        snapshot_every: None,
        faults: None,
        backend: BackendKind::default(),
    };
    let report = run(&rib, &packets, &updates, &cfg);

    let s = &report.snapshot;
    println!(
        "\ncompleted {}/{} lookups in {:.1} ms ({:.0} pps)",
        s.completions,
        s.arrivals,
        report.elapsed.as_secs_f64() * 1e3,
        s.completions as f64 / report.elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "lookup latency ns: p50 {} | p90 {} | p99 {} | max {}",
        s.lookup_ns.quantile(0.5),
        s.lookup_ns.quantile(0.9),
        s.lookup_ns.quantile(0.99),
        s.lookup_ns.max(),
    );
    println!(
        "update plane: {} received -> {} applied over {} batches / {} epochs ({:.1}% coalesced away, {} dropped)",
        s.updates_received,
        s.updates_applied,
        s.batches,
        s.epochs,
        s.coalesce_ratio * 100.0,
        s.update_drops,
    );
    println!("dynamic redundancy {} entries", report.dynamic_redundancy);

    // The runtime's contract: the concurrent run lands on exactly the
    // sequential final FIB.
    let mut expect = rib.clone();
    for &u in &updates {
        expect.apply(u);
    }
    let got: Vec<_> = report.final_table.iter().collect();
    let want: Vec<_> = expect.iter().collect();
    assert_eq!(
        got, want,
        "concurrent final FIB diverged from sequential replay"
    );
    println!(
        "final FIB verified against sequential replay: {} routes -> {} compressed",
        report.final_table.len(),
        report.final_compressed.len()
    );

    println!("\nstats snapshot:\n{}", s.to_json());
}
