//! One boot base per durable boot: the trie and ONRTC cover a snapshot's
//! integrity check builds are what the router serves, the snapshot bytes
//! `open` validated are what replication streams first, and a checkpoint
//! sends both back to the file.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use clue_compress::{onrtc, onrtc_routes, CompressedFib};
use clue_fib::gen::FibGen;
use clue_fib::{RouteTable, Update};
use clue_partition::RangeIndex;
use clue_router::{
    BootBase, CheckpointView, JournalBatch, RecoveredState, RouterConfig, RouterService,
    SubmitOutcome, UpdateJournal,
};
use clue_store::{snapshot_name, Store, StoreConfig};
use clue_traffic::UpdateGen;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clue-base-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Asserts `base` is `table`'s original trie and ONRTC cover.
fn assert_base_of(base: &BootBase, table: &RouteTable) {
    let trie = table.to_trie();
    assert!(base.0.iter().eq(trie.iter()), "original trie");
    assert_eq!(base.1, onrtc_routes(&trie), "ONRTC cover");
}

/// Seeds a fresh dir with `fib` for the default router's chips.
fn seed(dir: &Path, fib: &RouteTable) -> (Store, RecoveredState) {
    let chips = RouterConfig::default().workers;
    let (store, state, recovered) =
        Store::open_or_seed(dir, StoreConfig::default(), Some(fib), chips).unwrap();
    assert!(!recovered, "fresh dir");
    (store, state)
}

#[test]
fn open_or_seed_returns_the_base_of_its_fib() {
    let dir = temp_dir("seed");
    let fib = FibGen::new(41).routes(3_000).generate();
    let (_store, state) = seed(&dir, &fib);
    assert_eq!(state.table, fib);
    assert_base_of(
        state
            .base
            .as_ref()
            .expect("a seeded state carries its base"),
        &fib,
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_service_booted_from_the_seed_base_answers_like_start() {
    let dir = temp_dir("answers");
    let fib = FibGen::new(42).routes(3_000).generate();
    let (_store, state) = seed(&dir, &fib);
    let cfg = RouterConfig::default();
    let from_base = RouterService::start_recovered(state, &cfg, None);
    let from_table = RouterService::start(&fib, &cfg);
    // Both ends of every cover entry and the addresses just outside it:
    // every cut and every change of next hop lies on one of them.
    let probes: Vec<u32> = onrtc(&fib)
        .iter()
        .flat_map(|r| {
            let (lo, hi) = (r.prefix.low(), r.prefix.high());
            [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1)]
        })
        .collect();
    assert_eq!(
        from_base.lookup_batch(probes.clone()),
        from_table.lookup_batch(probes)
    );
    let (a, b) = (from_base.drain(), from_table.drain());
    assert_eq!(a.final_table, b.final_table);
    assert_eq!(a.final_compressed, b.final_compressed);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_base_after_open_hands_over_the_bytes_on_disk() {
    let dir = temp_dir("stream");
    let fib = FibGen::new(43).routes(2_000).generate();
    let (mut store, _) = seed(&dir, &fib);
    let on_disk = fs::read(dir.join(snapshot_name(0))).unwrap();
    let base = store.stream_base().unwrap();
    assert_eq!((base.jseq, base.tail.len()), (0, 0));
    assert!(base.snapshot == on_disk, "the validated bytes, as on disk");
    // The bytes were handed over; a second call reads the file again.
    assert!(store.stream_base().unwrap().snapshot == on_disk);
    fs::remove_dir_all(&dir).unwrap();
}

/// After a checkpoint the cached bytes are stale: `stream_base` must read
/// and validate the new snapshot file, so a corrupt one is refused.
#[test]
fn stream_base_after_a_checkpoint_validates_the_new_file() {
    let dir = temp_dir("checkpoint");
    let fib = FibGen::new(44).routes(2_000).generate();
    let (mut store, _) = seed(&dir, &fib);
    let ops = UpdateGen::new(45).generate(&fib, 8);
    store
        .append(&JournalBatch {
            epoch: 0,
            seq_hw: 8,
            raw: 8,
            ops: &ops,
        })
        .unwrap();
    let mut table = fib.clone();
    for &u in &ops {
        table.apply(u);
    }
    let original = table.to_trie();
    let cover = onrtc_routes(&original);
    let cuts = RangeIndex::even(&cover, RouterConfig::default().workers)
        .cuts()
        .to_vec();
    let fib = CompressedFib::from_parts(original, &cover);
    store
        .checkpoint(&CheckpointView {
            epoch: 1,
            seq_hw: 8,
            fib: &fib,
            cuts: &cuts,
        })
        .unwrap();
    assert_eq!(store.snapshot_jseq(), 1);
    let path = dir.join(snapshot_name(1));
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&path, &bytes).unwrap();
    let err = store
        .stream_base()
        .expect_err("a corrupt snapshot is never streamed");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_clean_restart_boots_from_the_snapshot_base_and_a_replayed_tail_builds_its_own() {
    let dir = temp_dir("restart");
    let fib = FibGen::new(46).routes(2_000).generate();
    let trace: Vec<Update> = UpdateGen::new(47).generate(&fib, 300);
    let (store, state) = seed(&dir, &fib);
    let svc =
        RouterService::start_recovered(state, &RouterConfig::default(), Some(Box::new(store)));
    for &u in &trace {
        assert_eq!(svc.submit_update(u), SubmitOutcome::Accepted);
    }
    let report = svc.drain();

    // The drain checkpointed: nothing to replay, so the state carries the
    // base the snapshot's validation built.
    let (mut store, rec) = Store::open(&dir, StoreConfig::default()).unwrap();
    let rec = rec.expect("recovers");
    assert_eq!(rec.replayed, 0);
    assert_eq!(rec.table, report.final_table);
    let state = rec.into_state();
    assert_base_of(
        state.base.as_ref().expect("clean restart"),
        &report.final_table,
    );

    // One journaled batch on top: the snapshot's base no longer matches
    // the recovered table, so none is handed on.
    let ops = UpdateGen::new(48).generate(&report.final_table, 4);
    store
        .append(&JournalBatch {
            epoch: state.epoch,
            seq_hw: state.seq_hw + 4,
            raw: 4,
            ops: &ops,
        })
        .unwrap();
    drop(store);
    let (_store, rec) = Store::open(&dir, StoreConfig::default()).unwrap();
    let rec = rec.expect("recovers");
    assert_eq!(rec.replayed, 1);
    assert!(rec.into_state().base.is_none(), "a replayed tail");
    fs::remove_dir_all(&dir).unwrap();
}
