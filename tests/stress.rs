//! Stress and corner-case integration tests.
//!
//! Every test draws its workload from one of the named seed constants
//! below, and every assertion message names the seed involved, so a
//! failure report alone is enough to reproduce the exact workload
//! (`FibGen::new(seed)` / `PacketGen::new(seed)` / `UpdateGen::new(seed)`
//! are fully deterministic).

use clue::compress::{onrtc, CompressedFib};
use clue::core::engine::{Engine, EngineConfig};
use clue::core::update_pipeline::CluePipeline;
use clue::fib::gen::FibGen;
use clue::fib::{RouteTable, Update};
use clue::router::RouterConfig;
use clue::traffic::{PacketGen, UpdateGen, UpdateMix};

/// FIB seed for the hot-drift router-service stress.
const SEED_DRIFT_FIB: u64 = 7001;
/// Packet seed for the hot-drift router-service stress.
const SEED_DRIFT_TRACE: u64 = 7002;
/// FIB seed for the latency-statistics consistency check.
const SEED_LATENCY_FIB: u64 = 7003;
/// Packet seed for the latency-statistics consistency check.
const SEED_LATENCY_TRACE: u64 = 7004;
/// FIB seed for the withdraw-everything storm.
const SEED_WITHDRAW_FIB: u64 = 7005;
/// FIB seed for the announce-from-empty storm.
const SEED_ANNOUNCE_FIB: u64 = 7006;
/// FIB seed for the mixed-churn marathon.
const SEED_CHURN_FIB: u64 = 7007;
/// Update seed for the mixed-churn marathon.
const SEED_CHURN_UPDATES: u64 = 7008;
/// FIB seed for the bucket-granularity comparison.
const SEED_BUCKETS_FIB: u64 = 7009;
/// Packet seed for the bucket-granularity comparison.
const SEED_BUCKETS_TRACE: u64 = 7010;

/// The live router service answers every address correctly when the
/// hot set drifts mid-trace.
#[test]
fn router_service_correct_under_hot_drift() {
    let fib = onrtc(&FibGen::new(SEED_DRIFT_FIB).routes(5_000).generate());
    let trace = PacketGen::new(SEED_DRIFT_TRACE)
        .zipf_exponent(1.3)
        .hot_drift(10_000, 0.5)
        .generate(&fib, 60_000);
    let reference = fib.to_trie();
    let cfg = RouterConfig {
        workers: 4,
        dred_capacity: 256,
        ..RouterConfig::default()
    };
    let report = clue::router::run(&fib, &trace, &[], &cfg);
    assert_eq!(
        report.snapshot.completions,
        trace.len() as u64,
        "seeds fib={SEED_DRIFT_FIB} trace={SEED_DRIFT_TRACE}"
    );
    for (&addr, nh) in trace.iter().zip(&report.results) {
        assert_eq!(
            *nh,
            reference.lookup(addr).map(|(_, &v)| v),
            "addr {addr:#010x}, seeds fib={SEED_DRIFT_FIB} trace={SEED_DRIFT_TRACE}"
        );
    }
}

/// The clock engine's latency histogram is consistent with its queue
/// statistics: completions counted, p99 ≥ p50, and latencies bounded by
/// the run length.
#[test]
fn latency_statistics_are_consistent() {
    let fib = onrtc(&FibGen::new(SEED_LATENCY_FIB).routes(4_000).generate());
    let trace = PacketGen::new(SEED_LATENCY_TRACE).generate(&fib, 30_000);
    let cfg = EngineConfig::default();
    let mut engine = Engine::clue(&fib, 512, cfg);
    let (report, _) = engine.run(&trace);
    let ctx = format!("seeds fib={SEED_LATENCY_FIB} trace={SEED_LATENCY_TRACE}");
    assert_eq!(report.latency.count(), report.completions, "{ctx}");
    assert!(
        report.latency.quantile(0.99) >= report.latency.quantile(0.5),
        "{ctx}"
    );
    assert!(report.latency.max() <= report.clocks, "{ctx}");
    // Mean queueing is reflected in mean latency: a packet's latency is
    // at least its service time.
    assert!(
        report.latency.mean() + 0.5 >= f64::from(cfg.service_clocks) / 2.0,
        "{ctx}"
    );
}

/// Withdraw-everything storm: the pipeline drains to an empty table and
/// the TCAM follows exactly.
#[test]
fn withdraw_storm_drains_to_empty() {
    let fib = FibGen::new(SEED_WITHDRAW_FIB).routes(2_000).generate();
    let mut pipeline = CluePipeline::new(&fib, 4, 128, fib.len() * 4);
    let routes: Vec<_> = fib.iter().collect();
    for r in &routes {
        pipeline.apply(Update::Withdraw { prefix: r.prefix });
    }
    assert_eq!(pipeline.tcam_entries(), 0, "seed fib={SEED_WITHDRAW_FIB}");
    assert!(pipeline.tcam_synced(), "seed fib={SEED_WITHDRAW_FIB}");
    assert_eq!(
        pipeline.fib().original_len(),
        0,
        "seed fib={SEED_WITHDRAW_FIB}"
    );
    assert_eq!(
        pipeline.fib().compressed_len(),
        0,
        "seed fib={SEED_WITHDRAW_FIB}"
    );
}

/// Rebuild-from-empty: announce a full table one route at a time; the
/// incremental compressed table must equal the one-shot compression.
#[test]
fn announce_storm_builds_the_compressed_table() {
    let fib = FibGen::new(SEED_ANNOUNCE_FIB).routes(2_000).generate();
    let mut cf = CompressedFib::new(&RouteTable::new());
    for r in fib.iter() {
        cf.apply(Update::Announce {
            prefix: r.prefix,
            next_hop: r.next_hop,
        });
    }
    assert_eq!(
        cf.compressed_table(),
        onrtc(&fib),
        "seed fib={SEED_ANNOUNCE_FIB}"
    );
}

/// A churn trace that interleaves all three update kinds heavily keeps
/// every invariant across thousands of steps (slow-path regression net
/// for the incremental engine).
#[test]
fn mixed_churn_marathon() {
    let fib = FibGen::new(SEED_CHURN_FIB).routes(5_000).generate();
    let updates = UpdateGen::new(SEED_CHURN_UPDATES)
        .mix(UpdateMix {
            reannounce: 1.0,
            announce_new: 1.0,
            withdraw: 1.0,
        })
        .churn_skew(1.2)
        .generate(&fib, 10_000);
    let mut cf = CompressedFib::new(&fib);
    let mut reference = fib.clone();
    for (i, &u) in updates.iter().enumerate() {
        cf.apply(u);
        reference.apply(u);
        if i % 2_500 == 2_499 {
            assert_eq!(
                cf.compressed_table(),
                onrtc(&reference),
                "step {i}, seeds fib={SEED_CHURN_FIB} updates={SEED_CHURN_UPDATES}"
            );
            assert!(
                cf.compressed_table().is_non_overlapping(),
                "step {i}, seeds fib={SEED_CHURN_FIB} updates={SEED_CHURN_UPDATES}"
            );
        }
    }
    assert_eq!(
        cf.original_len(),
        reference.len(),
        "seeds fib={SEED_CHURN_FIB} updates={SEED_CHURN_UPDATES}"
    );
}

/// Engine with many buckets per chip and the neutral mapping behaves
/// like the one-bucket-per-chip engine on the same traffic.
#[test]
fn bucket_granularity_does_not_change_results() {
    let fib = onrtc(&FibGen::new(SEED_BUCKETS_FIB).routes(4_000).generate());
    let trace = PacketGen::new(SEED_BUCKETS_TRACE).generate(&fib, 20_000);
    let reference = fib.to_trie();
    let cfg = EngineConfig::default();
    for engine in [
        &mut Engine::clue(&fib, 512, cfg),
        &mut Engine::clue_with_buckets(&fib, 32, 512, cfg),
    ] {
        let (report, outcomes) = engine.run(&trace);
        assert_eq!(
            report.arrivals,
            trace.len() as u64,
            "seeds fib={SEED_BUCKETS_FIB} trace={SEED_BUCKETS_TRACE}"
        );
        for (&addr, outcome) in trace.iter().zip(&outcomes) {
            if let clue::core::Outcome::Forwarded(nh) = *outcome {
                assert_eq!(
                    nh,
                    reference.lookup(addr).map(|(_, &v)| v),
                    "addr {addr:#010x}, seeds fib={SEED_BUCKETS_FIB} trace={SEED_BUCKETS_TRACE}"
                );
            }
        }
    }
}
