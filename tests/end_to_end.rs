//! End-to-end integration: the full CLUE stack against ground truth.
//!
//! Every packet that the 4-chip engine forwards must receive exactly the
//! next hop the *original, uncompressed* routing table assigns — across
//! compression, partitioning, load balancing, DRed caching, and
//! bouncing.

use clue::compress::{onrtc, CompressedFib};
use clue::core::engine::{Engine, EngineConfig};
use clue::core::update_pipeline::CluePipeline;
use clue::core::{DredConfig, Outcome};
use clue::fib::gen::FibGen;
use clue::fib::RouteTable;
use clue::partition::{EvenRangePartition, Indexer};
use clue::router::RouterConfig;
use clue::traffic::{PacketGen, UpdateGen};

fn build() -> (RouteTable, RouteTable, Vec<u32>) {
    let rib = FibGen::new(1001).routes(20_000).generate();
    let compressed = onrtc(&rib);
    let trace = PacketGen::new(1002).generate(&rib, 100_000);
    (rib, compressed, trace)
}

#[test]
fn engine_forwards_like_the_uncompressed_table() {
    let (rib, compressed, trace) = build();
    let reference = rib.to_trie();
    let mut engine = Engine::clue(&compressed, 1024, EngineConfig::default());
    let (report, outcomes) = engine.run(&trace);
    assert_eq!(report.arrivals, trace.len() as u64);
    let mut forwarded = 0u64;
    for (&addr, outcome) in trace.iter().zip(&outcomes) {
        if let Outcome::Forwarded(nh) = *outcome {
            forwarded += 1;
            assert_eq!(
                nh,
                reference.lookup(addr).map(|(_, &v)| v),
                "compressed+parallel lookup diverged at {addr:#x}"
            );
        }
    }
    assert!(forwarded > 0);
    assert_eq!(forwarded, report.completions);
}

#[test]
fn adversarial_mapping_still_forwards_correctly() {
    let (rib, compressed, trace) = build();
    let reference = rib.to_trie();
    let parts = EvenRangePartition::split(&compressed, 8);
    let (buckets, index) = parts.into_parts();
    // All eight buckets on chip 0: maximal diversion + bouncing.
    let mut engine = Engine::from_buckets(
        &buckets,
        move |a| index.bucket_of(a),
        vec![0; 8],
        DredConfig::Clue {
            capacity: 512,
            exclude_home: true,
        },
        EngineConfig::default(),
    );
    let (report, outcomes) = engine.run(&trace);
    assert!(report.diversions > 0);
    assert!(report.scheme.hits > 0, "DRed must serve traffic here");
    for (&addr, outcome) in trace.iter().zip(&outcomes) {
        if let Outcome::Forwarded(nh) = *outcome {
            assert_eq!(nh, reference.lookup(addr).map(|(_, &v)| v));
        }
    }
}

#[test]
fn clpl_scheme_forwards_correctly_too() {
    let (rib, compressed, trace) = build();
    let reference = rib.to_trie();
    let parts = EvenRangePartition::split(&compressed, 4);
    let (buckets, index) = parts.into_parts();
    let mut engine = Engine::from_buckets(
        &buckets,
        move |a| index.bucket_of(a),
        vec![0, 0, 0, 0],
        DredConfig::Clpl {
            capacity: 512,
            sram_trie: compressed.to_trie(),
        },
        EngineConfig::default(),
    );
    let (report, outcomes) = engine.run(&trace[..50_000]);
    assert!(report.scheme.control_plane_interactions > 0);
    for (&addr, outcome) in trace.iter().zip(&outcomes) {
        if let Outcome::Forwarded(nh) = *outcome {
            assert_eq!(nh, reference.lookup(addr).map(|(_, &v)| v));
        }
    }
}

#[test]
fn threaded_and_clocked_engines_agree_with_reference() {
    let (rib, compressed, trace) = build();
    let reference = rib.to_trie();
    let treport = clue::router::run(&compressed, &trace[..50_000], &[], &RouterConfig::default());
    assert_eq!(treport.snapshot.completions, 50_000);
    for (&addr, nh) in trace[..50_000].iter().zip(&treport.results) {
        assert_eq!(*nh, reference.lookup(addr).map(|(_, &v)| v));
    }
}

#[test]
fn update_storm_preserves_forwarding_equivalence() {
    let (rib, _, _) = build();
    let updates = UpdateGen::new(1003).generate(&rib, 3_000);
    let probes = PacketGen::new(1004).generate(&rib, 500);

    let mut pipeline = CluePipeline::new(&rib, 4, 512, 65_536);
    let mut reference = rib.clone();
    for (i, &u) in updates.iter().enumerate() {
        pipeline.apply(u);
        reference.apply(u);
        // Periodically verify the full equivalence of compressed state.
        if i % 500 == 499 {
            let ref_trie = reference.to_trie();
            let comp_trie = pipeline.fib().compressed().clone();
            for &addr in &probes {
                assert_eq!(
                    comp_trie.lookup(addr).map(|(_, &v)| v),
                    ref_trie.lookup(addr).map(|(_, &v)| v),
                    "divergence at {addr:#x} after update {i}"
                );
            }
            assert!(pipeline.tcam_synced());
        }
    }
}

#[test]
fn compression_plus_update_equals_update_plus_compression() {
    // Commutativity at the table level: updating then compressing gives
    // the same result as the incremental engine.
    let rib = FibGen::new(1005).routes(5_000).generate();
    let updates = UpdateGen::new(1006).generate(&rib, 1_000);
    let mut incremental = CompressedFib::new(&rib);
    let mut replayed = rib.clone();
    for &u in &updates {
        incremental.apply(u);
        replayed.apply(u);
    }
    assert_eq!(incremental.compressed_table(), onrtc(&replayed));
}
