//! The [`Store`]: a data directory holding WAL segments and snapshots,
//! implementing [`UpdateJournal`] so `RouterService` journals straight
//! into it, plus the recovery path that rebuilds router state from the
//! newest valid snapshot and the contiguous journal tail after it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};

use clue_compress::onrtc;
use clue_fib::RouteTable;
use clue_partition::EvenRangePartition;
use clue_router::{CheckpointView, JournalBatch, RecoveredState, UpdateJournal};

use crate::snapshot::{list_snapshots, newest_valid_snapshot, write_snapshot, Snapshot};
use crate::wal::{encode_record, list_segments, scan_dir, segment_name, WalRecord};

/// Tunables for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate to a fresh WAL segment past this many bytes.
    pub segment_bytes: u64,
    /// Ask for a checkpoint after this many journal appends.
    pub snapshot_every: u64,
    /// `fsync` each append (disable only for benchmarks/tests that
    /// measure the in-memory path).
    pub fsync: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 4 * 1024 * 1024,
            snapshot_every: 64,
            fsync: true,
        }
    }
}

/// Everything recovery learned from the data dir, plus the replay
/// bookkeeping the conformance oracle asserts on.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The recovered original table (snapshot + replayed tail).
    pub table: RouteTable,
    /// Safe epoch number to resume from (past any published epoch).
    pub epoch: u64,
    /// Recovered ingress-sequence high-water (what resuming clients
    /// are told was acked).
    pub seq_hw: u64,
    /// Chip count the snapshot was taken with.
    pub chips: u32,
    /// Partition cut points stored in the snapshot.
    pub cuts: Vec<u32>,
    /// Journal position the loaded snapshot covers.
    pub snapshot_jseq: u64,
    /// Next journal sequence number the store will write.
    pub next_jseq: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Raw updates those replayed records absorb.
    pub raw_replayed: u64,
    /// Cumulative raw updates in the recovered state — the exact
    /// prefix of the original update trace this table corresponds to.
    pub raw_applied: u64,
    /// Whether the scan hit a torn/corrupt tail or a sequence gap.
    pub truncated: bool,
    /// Newer snapshots that failed validation and were skipped.
    pub snapshots_skipped: u64,
}

/// A consistent streaming view of a data dir: the newest valid
/// snapshot's raw bytes plus the contiguous journal tail after it.
/// This is the state a replication hub ships to a joining follower.
#[derive(Debug, Clone)]
pub struct StreamBase {
    /// Journal position the snapshot covers (records ≤ `jseq` are
    /// folded in).
    pub jseq: u64,
    /// The snapshot file's raw bytes, CRC and all — followers validate
    /// with [`crate::decode_snapshot`] after reassembly.
    pub snapshot: Vec<u8>,
    /// Journal records after `jseq`, in jseq order.
    pub tail: Vec<WalRecord>,
}

impl Recovery {
    /// The recovered state in the form `RouterService::start_recovered`
    /// consumes.
    #[must_use]
    pub fn into_state(self) -> RecoveredState {
        RecoveredState {
            table: self.table,
            epoch: self.epoch,
            seq_hw: self.seq_hw,
        }
    }
}

struct SegmentWriter {
    file: File,
    written: u64,
}

/// A durable data directory: WAL segments + snapshots.
///
/// One `Store` owns the directory's write side. Open it, boot a
/// `RouterService` from the returned [`Recovery`] (if any), and hand
/// the store in as the service's [`UpdateJournal`].
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    writer: Option<SegmentWriter>,
    next_jseq: u64,
    snapshot_jseq: u64,
    appends_since_snapshot: u64,
    raw_total: u64,
}

impl Store {
    /// Opens (creating if needed) the data dir and recovers whatever
    /// state it holds.
    ///
    /// Returns `Ok((store, None))` for a fresh directory — the caller
    /// must seed it with [`init_from_table`](Self::init_from_table)
    /// before journaling — and `Ok((store, Some(recovery)))` when a
    /// valid snapshot was found. Recovery loads the newest snapshot
    /// that validates (falling back past corrupt ones), then replays
    /// the contiguous WAL tail after it.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` when journal segments exist but
    /// no snapshot validates (the base state is unrecoverable).
    pub fn open(dir: &Path, cfg: StoreConfig) -> io::Result<(Store, Option<Recovery>)> {
        fs::create_dir_all(dir)?;
        let (newest, skipped) = newest_valid_snapshot(dir)?;
        let Some((_, snap)) = newest else {
            if skipped > 0 || !list_segments(dir)?.is_empty() {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    "data dir has journal segments but no valid snapshot to base them on",
                ));
            }
            let store = Store {
                dir: dir.to_path_buf(),
                cfg,
                writer: None,
                next_jseq: 1,
                snapshot_jseq: 0,
                appends_since_snapshot: 0,
                raw_total: 0,
            };
            return Ok((store, None));
        };

        let scan = scan_dir(dir, snap.jseq)?;
        let mut table = snap.table.clone();
        let mut epoch = snap.epoch;
        let mut seq_hw = snap.seq_hw;
        let mut raw_replayed = 0u64;
        for rec in &scan.records {
            for &op in &rec.ops {
                table.apply(op);
            }
            // rec.epoch is the epoch *before* the batch applied; the
            // batch may have published rec.epoch + 1. Resuming past it
            // keeps epoch numbers monotone across the restart.
            epoch = epoch.max(rec.epoch + 1);
            seq_hw = seq_hw.max(rec.seq_hw);
            raw_replayed += u64::from(rec.raw);
        }
        let replayed = scan.records.len() as u64;
        let next_jseq = snap.jseq + replayed + 1;
        let recovery = Recovery {
            table,
            epoch,
            seq_hw,
            chips: snap.chips,
            cuts: snap.cuts,
            snapshot_jseq: snap.jseq,
            next_jseq,
            replayed,
            raw_replayed,
            raw_applied: snap.raw_total + raw_replayed,
            truncated: scan.truncated,
            snapshots_skipped: skipped,
        };
        let store = Store {
            dir: dir.to_path_buf(),
            cfg,
            writer: None,
            next_jseq,
            snapshot_jseq: snap.jseq,
            appends_since_snapshot: replayed,
            raw_total: recovery.raw_applied,
        };
        Ok((store, Some(recovery)))
    }

    /// The durable boot every serving tier runs: opens `dir` and returns
    /// the state to start the router from — what the dir recovers to
    /// (`true`; `fib` is ignored), or, for a fresh dir, `fib` seeded as
    /// snapshot 0 for `chips` workers and read back (`false`), so both
    /// branches feed `RouterService::start_recovered` the same way.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidInput` for a fresh dir with no `fib`.
    pub fn open_or_seed(
        dir: &Path,
        cfg: StoreConfig,
        fib: Option<&RouteTable>,
        chips: usize,
    ) -> io::Result<(Store, RecoveredState, bool)> {
        let (mut store, recovery) = Store::open(dir, cfg)?;
        if let Some(rec) = recovery {
            return Ok((store, rec.into_state(), true));
        }
        let fib = fib.ok_or_else(|| {
            io::Error::new(
                ErrorKind::InvalidInput,
                format!("{} is a fresh data dir; seed it with a FIB", dir.display()),
            )
        })?;
        store.init_from_table(fib, chips)?;
        let (store, rec) = Store::open(dir, cfg)?;
        let rec = rec.ok_or_else(|| {
            io::Error::other("freshly seeded store did not recover its own snapshot")
        })?;
        Ok((store, rec.into_state(), false))
    }

    /// Seeds a fresh data dir with snapshot 0 of `table` (partitioned
    /// for `chips` workers, empty DReds), the base every later journal
    /// record builds on.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` if the dir already holds state.
    pub fn init_from_table(&mut self, table: &RouteTable, chips: usize) -> io::Result<()> {
        if self.next_jseq != 1 || self.snapshot_has_been_written()? {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "data dir is already initialized",
            ));
        }
        let compressed = onrtc(table);
        let cuts = EvenRangePartition::split(&compressed, chips)
            .index()
            .cuts()
            .to_vec();
        let snap = Snapshot {
            jseq: 0,
            epoch: 0,
            seq_hw: 0,
            raw_total: 0,
            chips: chips as u32,
            cuts,
            table: table.clone(),
            compressed,
            dreds: vec![Vec::new(); chips],
        };
        write_snapshot(&self.dir, &snap)?;
        Ok(())
    }

    fn snapshot_has_been_written(&self) -> io::Result<bool> {
        Ok(!list_snapshots(&self.dir)?.is_empty())
    }

    /// The directory this store owns.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The next journal sequence number to be written.
    #[must_use]
    pub fn next_jseq(&self) -> u64 {
        self.next_jseq
    }

    /// Journal position of the newest valid snapshot.
    #[must_use]
    pub fn snapshot_jseq(&self) -> u64 {
        self.snapshot_jseq
    }

    fn writer(&mut self) -> io::Result<&mut SegmentWriter> {
        let rotate = self
            .writer
            .as_ref()
            .is_some_and(|w| w.written >= self.cfg.segment_bytes);
        if self.writer.is_none() || rotate {
            // Always a *fresh* segment named by the next jseq: after a
            // crash the previous segment's torn tail stays where it is
            // and the scan resumes the sequence at this boundary.
            let path = self.dir.join(segment_name(self.next_jseq));
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?;
            self.writer = Some(SegmentWriter { file, written: 0 });
        }
        Ok(self.writer.as_mut().expect("just ensured"))
    }

    fn write_checkpoint(&mut self, snap: &Snapshot) -> io::Result<()> {
        write_snapshot(&self.dir, snap)?;
        self.snapshot_jseq = snap.jseq;
        self.appends_since_snapshot = 0;
        // Every journaled record is ≤ snap.jseq, so the whole log is
        // superseded: drop the segments and start fresh on next append.
        self.writer = None;
        for seg in list_segments(&self.dir)? {
            fs::remove_file(seg)?;
        }
        Ok(())
    }

    /// Reads the segment-streaming base for replication: the raw bytes
    /// of the snapshot at [`snapshot_jseq`](Self::snapshot_jseq) plus
    /// the decoded journal tail after it. Called between appends (the
    /// store owns the write side, so the view is consistent).
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` when the current snapshot file
    /// does not validate (a standby must never be seeded from a
    /// corrupt base).
    pub fn stream_base(&self) -> io::Result<StreamBase> {
        let path = self
            .dir
            .join(crate::snapshot::snapshot_name(self.snapshot_jseq));
        let snapshot = fs::read(&path)?;
        crate::snapshot::decode_snapshot(&snapshot)?;
        let scan = scan_dir(&self.dir, self.snapshot_jseq)?;
        Ok(StreamBase {
            jseq: self.snapshot_jseq,
            snapshot,
            tail: scan.records,
        })
    }

    /// Writes a snapshot assembled from a completed [`Recovery`] and
    /// prunes the journal — the offline compaction behind
    /// `clue snapshot`.
    ///
    /// # Errors
    ///
    /// I/O failures writing the snapshot or pruning segments.
    pub fn checkpoint_recovery(&mut self, rec: &Recovery) -> io::Result<()> {
        let compressed = onrtc(&rec.table);
        let cuts = EvenRangePartition::split(&compressed, rec.chips as usize)
            .index()
            .cuts()
            .to_vec();
        let snap = Snapshot {
            jseq: self.next_jseq - 1,
            epoch: rec.epoch,
            seq_hw: rec.seq_hw,
            raw_total: rec.raw_applied,
            chips: rec.chips,
            cuts,
            table: rec.table.clone(),
            compressed,
            dreds: vec![Vec::new(); rec.chips as usize],
        };
        self.write_checkpoint(&snap)
    }
}

impl UpdateJournal for Store {
    fn append(&mut self, batch: &JournalBatch<'_>) -> io::Result<()> {
        let rec = WalRecord {
            jseq: self.next_jseq,
            epoch: batch.epoch,
            seq_hw: batch.seq_hw,
            raw: batch.raw,
            ops: batch.ops.to_vec(),
        };
        let bytes = encode_record(&rec);
        let fsync = self.cfg.fsync;
        let w = self.writer()?;
        w.file.write_all(&bytes)?;
        if fsync {
            w.file.sync_data()?;
        }
        w.written += bytes.len() as u64;
        self.next_jseq += 1;
        self.appends_since_snapshot += 1;
        self.raw_total += u64::from(batch.raw);
        Ok(())
    }

    fn wants_checkpoint(&self) -> bool {
        self.appends_since_snapshot >= self.cfg.snapshot_every
    }

    fn checkpoint(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        let snap = Snapshot {
            jseq: self.next_jseq - 1,
            epoch: view.epoch,
            seq_hw: view.seq_hw,
            raw_total: self.raw_total,
            chips: view.cuts.len() as u32 + 1,
            cuts: view.cuts.to_vec(),
            table: view.table.clone(),
            compressed: view.compressed.clone(),
            dreds: vec![Vec::new(); view.cuts.len() + 1],
        };
        self.write_checkpoint(&snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_fib::{NextHop, Prefix, Route};

    #[test]
    fn fresh_dir_requires_init_before_state_exists() {
        let dir = std::env::temp_dir().join(format!("clue-store-fresh-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (mut store, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(recovery.is_none());
        let table: RouteTable = (0..8u32)
            .map(|i| Route::new(Prefix::new(i << 28, 4), NextHop(i as u16)))
            .collect();
        store.init_from_table(&table, 2).unwrap();
        assert!(store.init_from_table(&table, 2).is_err(), "double init");
        drop(store);

        let (_store, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        let rec = recovery.expect("initialized dir recovers");
        assert_eq!(rec.table, table);
        assert_eq!(rec.replayed, 0);
        assert_eq!(rec.chips, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_or_seed_seeds_once_then_recovers() {
        let dir = std::env::temp_dir().join(format!("clue-store-seed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = StoreConfig::default();
        let err = Store::open_or_seed(&dir, cfg, None, 2)
            .err()
            .expect("no fib");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        let table: RouteTable = (0..8u32)
            .map(|i| Route::new(Prefix::new(i << 28, 4), NextHop(i as u16)))
            .collect();
        let (store, state, recovered) = Store::open_or_seed(&dir, cfg, Some(&table), 2).unwrap();
        assert!(!recovered);
        assert_eq!((&state.table, state.epoch, state.seq_hw), (&table, 0, 0));
        drop(store);
        let (_store, state, recovered) = Store::open_or_seed(&dir, cfg, None, 2).unwrap();
        assert!(recovered);
        assert_eq!(state.table, table);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_without_a_base_snapshot_is_rejected() {
        let dir = std::env::temp_dir().join(format!("clue-store-nobase-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(segment_name(1)), b"anything").unwrap();
        assert!(Store::open(&dir, StoreConfig::default()).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
