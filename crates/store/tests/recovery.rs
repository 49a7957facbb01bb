//! End-to-end recovery: a journaled `RouterService` over a real data
//! dir, restarted cleanly, after a simulated crash, and after tail
//! corruption, each time asserting the recovered table equals the
//! sequential oracle at the exact trace prefix the journal preserved.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use clue_fib::gen::FibGen;
use clue_fib::{RouteTable, Update};
use clue_router::{
    CheckpointView, JournalBatch, RouterConfig, RouterService, SubmitOutcome, UpdateJournal,
};
use clue_store::{list_segments, Store, StoreConfig, SEGMENT_BYTES};
use clue_traffic::UpdateGen;

/// A store whose drain "crashes": every append and checkpoint is real,
/// but the final drain-time checkpoint never happens, leaving the WAL
/// tail on disk exactly as a killed process would.
struct CrashStore(Store);

impl UpdateJournal for CrashStore {
    fn append(&mut self, batch: &JournalBatch<'_>) -> io::Result<()> {
        self.0.append(batch)
    }
    fn wants_checkpoint(&self) -> bool {
        self.0.wants_checkpoint()
    }
    fn checkpoint(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        self.0.checkpoint(view)
    }
    fn on_drain(&mut self, _view: &CheckpointView<'_>) -> io::Result<()> {
        Ok(())
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clue-recov-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn workload(seed: u64, routes: usize, updates: usize) -> (RouteTable, Vec<Update>) {
    let fib = FibGen::new(seed).routes(routes).generate();
    let trace = UpdateGen::new(seed + 1).generate(&fib, updates);
    (fib, trace)
}

fn oracle(fib: &RouteTable, trace: &[Update]) -> RouteTable {
    let mut t = fib.clone();
    for &u in trace {
        t.apply(u);
    }
    t
}

/// Runs a journaled service over the whole trace with per-update
/// sequence tags 1..=n; `crash` suppresses the drain checkpoint.
fn run_journaled(dir: &Path, fib: &RouteTable, trace: &[Update], cfg: StoreConfig, crash: bool) {
    let (mut store, recovery) = Store::open(dir, cfg).unwrap();
    assert!(recovery.is_none(), "expected a fresh dir");
    let rcfg = RouterConfig {
        batch_size: 8,
        ..RouterConfig::default()
    };
    store.init_from_table(fib, rcfg.workers).unwrap();
    let journal: Box<dyn UpdateJournal> = if crash {
        Box::new(CrashStore(store))
    } else {
        Box::new(store)
    };
    let svc = RouterService::start_with_journal(fib, &rcfg, journal);
    for (i, &u) in trace.iter().enumerate() {
        assert_eq!(
            svc.submit_update_tagged(u, i as u64 + 1),
            SubmitOutcome::Accepted
        );
    }
    let report = svc.drain();
    assert_eq!(report.final_table, oracle(fib, trace));
    assert!(report.snapshot.journal_appends > 0);
    assert_eq!(report.snapshot.journal_errors, 0);
}

#[test]
fn clean_shutdown_replays_nothing() {
    let dir = temp_dir("clean");
    let (fib, trace) = workload(61, 400, 300);
    run_journaled(&dir, &fib, &trace, StoreConfig::default(), false);

    let (_store, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
    let rec = recovery.expect("initialized dir recovers");
    assert_eq!(rec.replayed, 0, "drain checkpoint covers the whole journal");
    assert!(!rec.truncated);
    assert_eq!(rec.seq_hw, trace.len() as u64);
    assert_eq!(rec.raw_applied, trace.len() as u64);
    assert_eq!(rec.table, oracle(&fib, &trace));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_replays_only_the_post_snapshot_tail() {
    let dir = temp_dir("crash");
    let (fib, trace) = workload(71, 400, 300);
    let cfg = StoreConfig {
        snapshot_every: 8,
        fsync: false,
    };
    run_journaled(&dir, &fib, &trace, cfg, true);

    let (_store, recovery) = Store::open(&dir, cfg).unwrap();
    let rec = recovery.expect("crashed dir recovers");
    assert!(!rec.truncated, "every record was fully written");
    assert!(
        rec.replayed <= cfg.snapshot_every,
        "replay ({}) must be bounded by the post-snapshot tail",
        rec.replayed,
    );
    // Every batch was journaled before the crash point (drain applied
    // them all), so recovery reaches the full oracle.
    assert_eq!(rec.seq_hw, trace.len() as u64);
    assert_eq!(rec.raw_applied, trace.len() as u64);
    assert_eq!(rec.table, oracle(&fib, &trace));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_rotates_past_segment_bytes_and_recovers_across_the_boundary() {
    let dir = temp_dir("rotate");
    let (fib, trace) = workload(111, 2_000, 8_000);
    let cfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    let (mut store, _) = Store::open(&dir, cfg).unwrap();
    store
        .init_from_table(&fib, RouterConfig::default().workers)
        .unwrap();
    // Append the trace's halves in turn until the writer has rotated
    // once: each record is tens of KiB, so the second segment opens
    // about a hundred records in and holds just the one that opened it.
    let mut expected = fib.clone();
    let mut records = 0u64;
    while list_segments(&dir).unwrap().len() < 2 {
        let ops = trace.chunks(4_000).nth(records as usize % 2).unwrap();
        records += 1;
        store
            .append(&JournalBatch {
                epoch: records,
                seq_hw: records,
                raw: ops.len() as u32,
                ops,
            })
            .unwrap();
        ops.iter().for_each(|&u| expected.apply(u));
    }
    drop(store);
    let segments = list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 2);
    assert!(fs::metadata(&segments[0]).unwrap().len() >= SEGMENT_BYTES);

    let (_store, recovery) = Store::open(&dir, cfg).unwrap();
    let rec = recovery.expect("journaled dir recovers");
    assert!(!rec.truncated);
    assert_eq!(rec.replayed, records, "every record, across both segments");
    assert_eq!(rec.seq_hw, records);
    assert_eq!(rec.table, expected);
    fs::remove_dir_all(&dir).unwrap();
}

fn newest_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".clog"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("crash run leaves a WAL tail")
}

#[test]
fn torn_tail_is_skipped_and_recovery_lands_on_a_trace_prefix() {
    let dir = temp_dir("torn");
    let (fib, trace) = workload(81, 400, 300);
    // No mid-run checkpoints: the whole journal is the tail.
    let cfg = StoreConfig {
        snapshot_every: 100_000,
        fsync: false,
    };
    run_journaled(&dir, &fib, &trace, cfg, true);

    // Tear the final record, as a crash mid-write would.
    let seg = newest_segment(&dir);
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

    let (_store, recovery) = Store::open(&dir, cfg).unwrap();
    let rec = recovery.expect("torn dir still recovers");
    assert!(rec.truncated, "the torn record must be detected");
    assert!(rec.raw_applied < trace.len() as u64);
    // Scan-to-last-valid leaves state equal to the sequential oracle
    // at exactly the raw_applied trace prefix.
    assert_eq!(
        rec.table,
        oracle(&fib, &trace[..rec.raw_applied as usize]),
        "recovered table must be a trace prefix",
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_tail_record_is_skipped_without_panic() {
    let dir = temp_dir("flip");
    let (fib, trace) = workload(91, 400, 300);
    let cfg = StoreConfig {
        snapshot_every: 100_000,
        fsync: false,
    };
    run_journaled(&dir, &fib, &trace, cfg, true);

    let seg = newest_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    let at = bytes.len() - 11;
    bytes[at] ^= 0x10;
    fs::write(&seg, &bytes).unwrap();

    let (_store, recovery) = Store::open(&dir, cfg).unwrap();
    let rec = recovery.expect("flipped dir still recovers");
    assert!(rec.truncated);
    assert_eq!(rec.table, oracle(&fib, &trace[..rec.raw_applied as usize]),);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_service_continues_to_the_full_oracle() {
    let dir = temp_dir("continue");
    let (fib, trace) = workload(101, 400, 300);
    let cfg = StoreConfig {
        snapshot_every: 16,
        fsync: false,
    };
    // First life: crash partway through the trace (journal the first
    // 200 updates, then die without the drain checkpoint).
    {
        let (mut store, recovery) = Store::open(&dir, cfg).unwrap();
        assert!(recovery.is_none());
        let rcfg = RouterConfig {
            batch_size: 8,
            ..RouterConfig::default()
        };
        store.init_from_table(&fib, rcfg.workers).unwrap();
        let svc = RouterService::start_with_journal(&fib, &rcfg, Box::new(CrashStore(store)));
        for (i, &u) in trace[..200].iter().enumerate() {
            svc.submit_update_tagged(u, i as u64 + 1);
        }
        let _ = svc.drain();
    }

    // Second life: recover, resume the trace from where the journal
    // says the first life got to, drain cleanly.
    {
        let (store, recovery) = Store::open(&dir, cfg).unwrap();
        let rec = recovery.expect("crashed dir recovers");
        assert_eq!(rec.raw_applied, 200);
        assert_eq!(rec.seq_hw, 200);
        let rcfg = RouterConfig {
            batch_size: 8,
            ..RouterConfig::default()
        };
        let resume_at = rec.raw_applied as usize;
        let seq0 = rec.seq_hw;
        let svc = RouterService::start_recovered(rec.into_state(), &rcfg, Some(Box::new(store)));
        for (i, &u) in trace[resume_at..].iter().enumerate() {
            svc.submit_update_tagged(u, seq0 + i as u64 + 1);
        }
        let report = svc.drain();
        assert_eq!(report.final_table, oracle(&fib, &trace));
    }

    // Third life: a clean reopen sees the full trace, zero replay.
    let (_store, recovery) = Store::open(&dir, cfg).unwrap();
    let rec = recovery.expect("recovers");
    assert_eq!(rec.replayed, 0);
    assert_eq!(rec.raw_applied, trace.len() as u64);
    assert_eq!(rec.seq_hw, trace.len() as u64);
    assert_eq!(rec.table, oracle(&fib, &trace));
    fs::remove_dir_all(&dir).unwrap();
}
