//! End-to-end integration: a seeded workload through the live router.
//!
//! Pins down the three contract properties of the runtime:
//!
//! 1. **determinism** — with blocking backpressure, the final FIB
//!    equals the sequential application of the update trace, and two
//!    runs of the same seeds agree exactly, regardless of thread
//!    interleaving;
//! 2. **conservation** — every packet submitted in a lookup batch
//!    completes (arrivals == completions; updates are the only
//!    droppable input and drops are accounted);
//! 3. **observability** — the final stats snapshot is non-empty and
//!    internally consistent.

use clue_compress::onrtc;
use clue_fib::{gen::FibGen, Route, RouteTable, Update};
use clue_router::{run, OverflowPolicy, RouterConfig, RouterService, SubmitOutcome};
use clue_traffic::{PacketGen, UpdateGen};

fn workload() -> (RouteTable, Vec<u32>, Vec<Update>) {
    let fib = FibGen::new(1001).routes(4_000).generate();
    let packets = PacketGen::new(1002).generate(&fib, 40_000);
    let updates = UpdateGen::new(1003).generate(&fib, 2_500);
    (fib, packets, updates)
}

fn routes(t: &RouteTable) -> Vec<Route> {
    t.iter().collect()
}

#[test]
fn seeded_run_is_deterministic_and_conserves_packets() {
    let (fib, packets, updates) = workload();
    let cfg = RouterConfig {
        workers: 4,
        batch_size: 32,
        overflow: OverflowPolicy::Block,
        ..RouterConfig::default()
    };

    let a = run(&fib, &packets, &updates, &cfg);
    let b = run(&fib, &packets, &updates, &cfg);

    // 1. Determinism: both runs and the offline sequential replay agree.
    let mut expect = fib.clone();
    for &u in &updates {
        expect.apply(u);
    }
    assert_eq!(routes(&a.final_table), routes(&expect));
    assert_eq!(routes(&a.final_table), routes(&b.final_table));
    assert_eq!(
        routes(&a.final_compressed),
        routes(&onrtc(&expect)),
        "compressed form must track the sequential table"
    );
    assert_eq!(routes(&a.final_compressed), routes(&b.final_compressed));

    // 2. Conservation: zero lost packets, all updates ingested.
    assert!(a.packets_conserved(), "arrivals != completions");
    assert_eq!(a.snapshot.arrivals, packets.len() as u64);
    assert_eq!(a.snapshot.updates_received, updates.len() as u64);
    assert_eq!(a.snapshot.update_drops, 0, "Block policy never drops");
    assert_eq!(
        a.snapshot.updates_received,
        a.snapshot.updates_applied
            + a.snapshot.updates_superseded
            + a.snapshot.updates_cancelled
            + a.snapshot.updates_elided,
        "every ingested update is applied or accounted as absorbed"
    );

    // 3. Observability: the snapshot is non-empty and well-formed.
    let s = &a.snapshot;
    assert_eq!(s.workers, 4);
    assert_eq!(s.lookup_ns.count(), packets.len() as u64);
    assert!(s.lookup_ns.quantile(0.99) >= s.lookup_ns.quantile(0.5));
    assert!(s.ttf_batch_ns.count() > 0, "batches must record TTF");
    assert!(s.epochs > 0, "updates must publish epochs");
    assert!(s.per_worker_serviced.iter().all(|&n| n > 0), "idle worker");
    let json = s.to_json();
    for key in [
        "\"p99\":",
        "\"ttf_batch_ns\":",
        "\"coalesce_ratio\":",
        "\"dropped\":0",
    ] {
        assert!(json.contains(key), "snapshot JSON missing {key}");
    }
}

#[test]
fn every_result_is_a_plausible_next_hop() {
    // Lookups race updates, so a packet may resolve against any epoch;
    // but every *completed* lookup must still return either a next hop
    // from the FIB's alphabet or a genuine miss under some epoch. With
    // announce-heavy churn over a generated FIB, misses stay rare.
    let (fib, packets, updates) = workload();
    let report = run(
        &fib,
        &packets[..20_000],
        &updates[..1_000],
        &RouterConfig::default(),
    );
    assert!(report.packets_conserved());
    let misses = report.results.iter().filter(|r| r.is_none()).count();
    assert!(
        misses < report.results.len() / 10,
        "{misses} misses out of {} lookups",
        report.results.len()
    );
    assert!(report.elapsed.as_nanos() > 0);
}

#[test]
fn tiled_backend_serves_and_converges_like_the_default() {
    // The tiled plane takes the incremental path (persistent TileSet +
    // Arc-snapshot epochs) instead of per-bucket recompiles; the
    // externally observable contract must not change.
    let (fib, packets, updates) = workload();
    let cfg = RouterConfig {
        workers: 4,
        batch_size: 32,
        overflow: OverflowPolicy::Block,
        backend: clue_core::BackendKind::Tiled,
        ..RouterConfig::default()
    };
    let report = run(&fib, &packets[..20_000], &updates[..1_500], &cfg);
    assert!(report.packets_conserved());
    let mut expect = fib.clone();
    for &u in &updates[..1_500] {
        expect.apply(u);
    }
    assert_eq!(routes(&report.final_table), routes(&expect));
    assert_eq!(routes(&report.final_compressed), routes(&onrtc(&expect)));
    assert!(report.snapshot.epochs > 0, "updates must publish epochs");
    let misses = report.results.iter().filter(|r| r.is_none()).count();
    assert!(
        misses < report.results.len() / 10,
        "{misses} misses out of {} tiled lookups",
        report.results.len()
    );
}

#[test]
fn dynamic_redundancy_stays_bounded() {
    // The paper's headline: updates may force cut-spanning replicas,
    // but the count stays a sliver of the table. 2.5k updates over a
    // 4k-route table must not replicate more than a few percent.
    let (fib, _, updates) = workload();
    let report = run(&fib, &[], &updates, &RouterConfig::default());
    let table = report.final_compressed.len() as u64;
    assert!(
        report.dynamic_redundancy <= table / 10,
        "replicas {} vs table {}",
        report.dynamic_redundancy,
        table
    );
}

#[test]
fn updates_submitted_while_the_update_plane_builds_apply_in_order() {
    // `start` returns once the lookup planes exist; the update thread
    // then builds the compressed trie and the TCAM model. Updates
    // submitted at once queue behind that build (a small queue, so the
    // submitter blocks on it), and lookups answer from epoch 0 meanwhile.
    let fib = FibGen::new(2001).routes(50_000).generate();
    let packets = PacketGen::new(2002).generate(&fib, 4_000);
    let updates = UpdateGen::new(2003).generate(&fib, 3_000);
    let cfg = RouterConfig {
        update_queue: 8,
        overflow: OverflowPolicy::Block,
        ..RouterConfig::default()
    };
    let svc = RouterService::start(&fib, &cfg);
    let early = svc.lookup_batch(packets.clone());
    for &u in &updates {
        assert_eq!(svc.submit_update(u), SubmitOutcome::Accepted);
    }
    let report = svc.drain();

    let reference = onrtc(&fib).to_trie();
    for (&addr, nh) in packets.iter().zip(&early) {
        assert_eq!(
            *nh,
            reference.lookup(addr).map(|(_, &v)| v),
            "addr {addr:#x}"
        );
    }
    let mut expect = fib.clone();
    for &u in &updates {
        expect.apply(u);
    }
    assert_eq!(routes(&report.final_table), routes(&expect));
    assert_eq!(routes(&report.final_compressed), routes(&onrtc(&expect)));
    assert_eq!(report.snapshot.update_drops, 0, "Block policy never drops");
    assert_eq!(report.snapshot.updates_received, updates.len() as u64);
    assert_eq!(report.snapshot.arrivals, packets.len() as u64);
    assert_eq!(report.snapshot.completions, report.snapshot.arrivals);
}
