//! The [`Store`]: a data directory holding WAL segments and snapshots,
//! implementing [`UpdateJournal`] so `RouterService` journals straight
//! into it, plus the recovery path that rebuilds router state from the
//! newest valid snapshot and the contiguous journal tail after it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};

use clue_compress::onrtc_routes;
use clue_fib::{NextHop, Route, RouteTable, Trie};
use clue_partition::RangeIndex;
use clue_router::{BootBase, CheckpointView, JournalBatch, RecoveredState, UpdateJournal};

use crate::snapshot::{
    list_snapshots, newest_valid, snapshot_name, write_snapshot_bytes, SnapshotRef, Validated,
};
use crate::wal::{encode_batch, list_segments, scan_dir, segment_name, WalRecord};

/// The writer rotates to a fresh WAL segment past this many bytes.
pub const SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Tunables for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Ask for a checkpoint after this many journal appends.
    pub snapshot_every: u64,
    /// `fsync` each append (disable only for benchmarks/tests that
    /// measure the in-memory path).
    pub fsync: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
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
    /// `table`'s boot base as the snapshot's integrity check built it;
    /// kept only when no record was replayed on top.
    base: Option<BootBase>,
}

/// A consistent streaming view of a data dir: the newest valid
/// snapshot's raw bytes plus the contiguous journal tail after it.
/// This is the state a replication hub ships to a joining follower.
#[derive(Debug, Clone)]
pub struct StreamBase {
    /// Journal position the snapshot covers (records ≤ `jseq` are
    /// folded in).
    pub jseq: u64,
    /// The snapshot file's raw bytes, CRC and all, validated by the
    /// store — followers validate again with [`crate::decode_snapshot`]
    /// after reassembly.
    pub snapshot: Vec<u8>,
    /// Journal records after `jseq`, in jseq order.
    pub tail: Vec<WalRecord>,
}

impl Recovery {
    /// The recovered state in the form `RouterService::start_recovered`
    /// consumes, with the boot base validation built when the journal
    /// tail was empty (so the router builds none).
    #[must_use]
    pub fn into_state(self) -> RecoveredState {
        RecoveredState {
            table: self.table,
            epoch: self.epoch,
            seq_hw: self.seq_hw,
            base: self.base,
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
    /// The bytes of the snapshot at `snapshot_jseq` as `open` read and
    /// validated them, until [`stream_base`](Self::stream_base) takes
    /// them or a checkpoint supersedes them.
    snapshot_bytes: Option<Vec<u8>>,
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
        let (newest, skipped) = newest_valid(dir)?;
        let Some(Validated {
            snap, bytes, base, ..
        }) = newest
        else {
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
                snapshot_bytes: None,
            };
            return Ok((store, None));
        };

        let scan = scan_dir(dir, snap.jseq)?;
        let mut table = snap.table;
        let mut epoch = snap.epoch;
        let mut seq_hw = snap.seq_hw;
        let mut raw_replayed = 0u64;
        for rec in &scan.records {
            rec.replay_onto(&mut table, &mut epoch, &mut seq_hw);
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
            base: (replayed == 0).then_some(base),
        };
        let store = Store {
            dir: dir.to_path_buf(),
            cfg,
            writer: None,
            next_jseq,
            snapshot_jseq: snap.jseq,
            appends_since_snapshot: replayed,
            raw_total: recovery.raw_applied,
            snapshot_bytes: Some(bytes),
        };
        Ok((store, Some(recovery)))
    }

    /// The durable boot every serving tier runs: opens `dir` and returns
    /// the state to start the router from — what the dir recovers to
    /// (`true`; `fib` is ignored), or, for a fresh dir, `fib` seeded as
    /// snapshot 0 for `chips` workers and read back (`false`), so both
    /// branches feed `RouterService::start_recovered` the same way. The
    /// router serves what the read-back validated: a state with an empty
    /// journal tail carries the trie and cover the snapshot's integrity
    /// check built, so a seeded boot builds them twice (seed, read-back)
    /// and a clean restart once.
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
        let bytes = encode_table_snapshot(0, 0, 0, 0, table, chips as u32);
        write_snapshot_bytes(&self.dir, 0, &bytes)?;
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
            .is_some_and(|w| w.written >= SEGMENT_BYTES);
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

    /// Journals `batch` as the next record, as
    /// [`UpdateJournal::append`] does, and returns the record's jseq
    /// and the bytes written: what a replication hub ships verbatim.
    ///
    /// # Errors
    ///
    /// I/O failures writing or syncing the segment.
    pub fn append_record(&mut self, batch: &JournalBatch<'_>) -> io::Result<(u64, Vec<u8>)> {
        let jseq = self.next_jseq;
        let bytes = encode_batch(jseq, batch);
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
        Ok((jseq, bytes))
    }

    /// The drain checkpoint: a snapshot of `view` unless the newest
    /// one already covers every journaled record (no append since it,
    /// and no replayed tail after it), so a clean drain restarts with
    /// an empty replay tail either way. Returns whether it wrote one.
    ///
    /// # Errors
    ///
    /// As [`UpdateJournal::checkpoint`].
    pub fn checkpoint_if_behind(&mut self, view: &CheckpointView<'_>) -> io::Result<bool> {
        if self.appends_since_snapshot == 0 {
            return Ok(false);
        }
        self.checkpoint(view)?;
        Ok(true)
    }

    /// Writes the encoded snapshot at `jseq`, then prunes the journal
    /// and every snapshot but it and the one the store held before it.
    fn write_checkpoint(&mut self, jseq: u64, bytes: &[u8]) -> io::Result<()> {
        write_snapshot_bytes(&self.dir, jseq, bytes)?;
        let prev = self.snapshot_jseq;
        self.snapshot_jseq = jseq;
        self.snapshot_bytes = None;
        self.appends_since_snapshot = 0;
        // Every journaled record is ≤ jseq, so the whole log is
        // superseded: drop the segments and start fresh on next append.
        self.writer = None;
        for seg in list_segments(&self.dir)? {
            fs::remove_file(seg)?;
        }
        // Keep the new snapshot and `prev`, which `open` validated or
        // this store wrote: recovery falls back to it past a corrupt
        // newest one. Any other file is older, or corrupt and skipped
        // by recovery. A rewrite at `prev` keeps the older files, one of
        // which is then the fallback. Names are fixed-width hex, so they
        // compare as their jseqs. Best-effort: the checkpoint is already
        // durable.
        let (new, fallback) = (snapshot_name(jseq), snapshot_name(prev));
        for old in list_snapshots(&self.dir).unwrap_or_default() {
            let name = old.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let stale = if jseq == prev {
                name > new.as_str()
            } else {
                name != new && name != fallback
            };
            if stale {
                let _ = fs::remove_file(old);
            }
        }
        Ok(())
    }

    /// Reads the segment-streaming base for replication: the raw bytes
    /// of the snapshot at [`snapshot_jseq`](Self::snapshot_jseq) plus
    /// the decoded journal tail after it. Called between appends (the
    /// store owns the write side, so the view is consistent). The first
    /// call after [`open`](Self::open) hands over the bytes `open`
    /// validated; any later call, and every call after a checkpoint,
    /// reads the file and validates it again.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` when the current snapshot file
    /// does not validate (a standby must never be seeded from a
    /// corrupt base).
    pub fn stream_base(&mut self) -> io::Result<StreamBase> {
        let snapshot = match self.snapshot_bytes.take() {
            Some(bytes) => bytes,
            None => {
                let path = self.dir.join(snapshot_name(self.snapshot_jseq));
                let bytes = fs::read(&path)?;
                crate::snapshot::decode_snapshot(&bytes)?;
                bytes
            }
        };
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
        let jseq = self.next_jseq - 1;
        let bytes = encode_table_snapshot(
            jseq,
            rec.epoch,
            rec.seq_hw,
            rec.raw_applied,
            &rec.table,
            rec.chips,
        );
        self.write_checkpoint(jseq, &bytes)
    }
}

/// Encodes a snapshot of `table` with these [`Snapshot`] positions,
/// split for `chips` workers, with empty DReds: the compressed table is
/// the ONRTC cover and the cuts its even split, and `table` is encoded
/// where it lies.
///
/// [`Snapshot`]: crate::Snapshot
fn encode_table_snapshot(
    jseq: u64,
    epoch: u64,
    seq_hw: u64,
    raw_total: u64,
    table: &RouteTable,
    chips: u32,
) -> Vec<u8> {
    let cover = onrtc_routes(&table.to_trie());
    let index = RangeIndex::even(&cover, chips as usize);
    SnapshotRef {
        jseq,
        epoch,
        seq_hw,
        raw_total,
        chips,
        cuts: index.cuts(),
        table: (table.len(), table.iter()),
        compressed: (cover.len(), cover.iter().copied()),
        dreds: &vec![Vec::new(); chips as usize],
    }
    .encode()
}

/// `trie`'s length and its routes in [`RouteTable`] order.
fn routes(trie: &Trie<NextHop>) -> (usize, impl Iterator<Item = Route> + '_) {
    (trie.len(), trie.iter().map(|(p, &nh)| Route::new(p, nh)))
}

impl UpdateJournal for Store {
    fn append(&mut self, batch: &JournalBatch<'_>) -> io::Result<()> {
        self.append_record(batch).map(drop)
    }

    fn wants_checkpoint(&self) -> bool {
        self.appends_since_snapshot >= self.cfg.snapshot_every
    }

    fn checkpoint(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        let jseq = self.next_jseq - 1;
        let bytes = SnapshotRef {
            jseq,
            epoch: view.epoch,
            seq_hw: view.seq_hw,
            raw_total: self.raw_total,
            chips: view.cuts.len() as u32 + 1,
            cuts: view.cuts,
            table: routes(view.fib.original()),
            compressed: routes(view.fib.compressed()),
            dreds: &vec![Vec::new(); view.cuts.len() + 1],
        }
        .encode();
        self.write_checkpoint(jseq, &bytes)
    }

    fn on_drain(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        self.checkpoint_if_behind(view).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_compress::CompressedFib;
    use clue_fib::Prefix;

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

    /// The seed snapshot is written from borrowed tables; it must hold
    /// what a [`Snapshot`] assembled from `onrtc` and the even-range
    /// partition holds, cuts included, over an uneven split.
    ///
    /// [`Snapshot`]: crate::Snapshot
    #[test]
    fn seed_snapshot_holds_the_compressed_table_and_its_even_cuts() {
        let dir = std::env::temp_dir().join(format!("clue-store-seedbytes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (mut store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
        let table = clue_fib::gen::FibGen::new(5).routes(3_001).generate();
        store.init_from_table(&table, 4).unwrap();
        let compressed = clue_compress::onrtc(&table);
        let want = crate::Snapshot {
            jseq: 0,
            epoch: 0,
            seq_hw: 0,
            raw_total: 0,
            chips: 4,
            cuts: clue_partition::EvenRangePartition::split(&compressed, 4)
                .index()
                .cuts()
                .to_vec(),
            table,
            compressed,
            dreds: vec![Vec::new(); 4],
        };
        let path = dir.join(snapshot_name(0));
        assert_eq!(
            fs::read(&path).unwrap(),
            crate::encode_snapshot(&want),
            "byte-identical to the Snapshot encoding"
        );
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

    /// A drain writes a snapshot only when the newest one is behind the
    /// journal: after a replayed tail, not after a clean restart.
    #[test]
    fn drain_checkpoints_only_a_journal_the_snapshot_does_not_cover() {
        use std::os::unix::fs::MetadataExt;

        let dir = std::env::temp_dir().join(format!("clue-store-drain-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = StoreConfig::default();
        let table = clue_fib::gen::FibGen::new(7).routes(500).generate();
        let (mut store, state, _) = Store::open_or_seed(&dir, cfg, Some(&table), 2).unwrap();
        let (original, cover) = state.base.expect("a validated base");
        let index = RangeIndex::even(&cover, 2);
        let fib = CompressedFib::from_parts(original, &cover);
        let view = CheckpointView {
            epoch: 0,
            seq_hw: 0,
            fib: &fib,
            cuts: index.cuts(),
        };
        let inode = |jseq| fs::metadata(dir.join(snapshot_name(jseq))).unwrap().ino();

        let seeded = inode(0);
        store.on_drain(&view).unwrap();
        assert_eq!(inode(0), seeded, "a clean drain rewrote the snapshot");

        // Journal one batch that changes nothing, then crash.
        let batch = JournalBatch {
            epoch: 0,
            seq_hw: 1,
            raw: 1,
            ops: &[clue_fib::Update::Withdraw {
                prefix: Prefix::new(u32::MAX, 32),
            }],
        };
        store.append(&batch).unwrap();
        drop(store);
        let (mut store, rec) = Store::open(&dir, cfg).unwrap();
        assert_eq!(rec.unwrap().replayed, 1);
        store.on_drain(&view).unwrap();
        let (_, rec) = Store::open(&dir, cfg).unwrap();
        let rec = rec.unwrap();
        assert_eq!((rec.snapshot_jseq, rec.replayed), (1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint encodes the update thread's tries where they lie; the
    /// file must be the bytes its materialised [`Snapshot`] encodes to.
    /// The updates leave prefixes nested in the original table, where an
    /// in-order trie walk would emit a covered prefix before its cover.
    ///
    /// [`Snapshot`]: crate::Snapshot
    #[test]
    fn a_checkpoint_from_the_tries_encodes_like_its_snapshot() {
        let dir = std::env::temp_dir().join(format!("clue-store-viewbytes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = StoreConfig::default();
        let table = clue_fib::gen::FibGen::new(11).routes(3_000).generate();
        let (mut store, state, _) = Store::open_or_seed(&dir, cfg, Some(&table), 4).unwrap();
        let (original, cover) = state.base.expect("a validated base");
        let index = RangeIndex::even(&cover, 4);
        let mut fib = CompressedFib::from_parts(original, &cover);
        let ops = clue_traffic::UpdateGen::new(12).generate(&table, 600);
        for &op in &ops {
            fib.apply(op);
        }
        let nested = fib.original().iter().filter(|&(p, _)| {
            p.child(clue_fib::Bit::Zero)
                .is_some_and(|zero| fib.original().iter_subtree(zero).next().is_some())
        });
        assert!(nested.count() > 0, "no prefix covers one in its 0-half");
        let batch = JournalBatch {
            epoch: 0,
            seq_hw: 600,
            raw: 600,
            ops: &ops,
        };
        store.append(&batch).unwrap();
        let view = CheckpointView {
            epoch: 1,
            seq_hw: 600,
            fib: &fib,
            cuts: index.cuts(),
        };
        store.checkpoint(&view).unwrap();
        let want = crate::Snapshot {
            jseq: 1,
            epoch: 1,
            seq_hw: 600,
            raw_total: 600,
            chips: 4,
            cuts: index.cuts().to_vec(),
            table: RouteTable::from_trie(fib.original()),
            compressed: fib.compressed_table(),
            dreds: vec![Vec::new(); 4],
        };
        let path = dir.join(snapshot_name(1));
        assert_eq!(fs::read(&path).unwrap(), crate::encode_snapshot(&want));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint keeps the snapshot it writes and the one before it,
    /// and recovery falls back to that one when the newest is corrupt.
    #[test]
    fn checkpoints_keep_the_newest_snapshot_and_one_fallback() {
        let dir = std::env::temp_dir().join(format!("clue-store-prune-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = StoreConfig::default();
        let table = clue_fib::gen::FibGen::new(13).routes(500).generate();
        let (mut store, state, _) = Store::open_or_seed(&dir, cfg, Some(&table), 2).unwrap();
        let (original, cover) = state.base.expect("a validated base");
        let index = RangeIndex::even(&cover, 2);
        let fib = CompressedFib::from_parts(original, &cover);
        for seq_hw in 1..=5 {
            let batch = JournalBatch {
                epoch: 0,
                seq_hw,
                raw: 1,
                ops: &[clue_fib::Update::Withdraw {
                    prefix: Prefix::new(u32::MAX, 32),
                }],
            };
            store.append(&batch).unwrap();
            let view = CheckpointView {
                epoch: 0,
                seq_hw,
                fib: &fib,
                cuts: index.cuts(),
            };
            store.checkpoint(&view).unwrap();
            assert!(list_snapshots(&dir).unwrap().len() <= 2);
        }
        drop(store);
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 2);
        let mut newest = fs::read(&snaps[0]).unwrap();
        let mid = newest.len() / 2;
        newest[mid] ^= 0x10;
        fs::write(&snaps[0], &newest).unwrap();
        let (_, rec) = Store::open(&dir, cfg).unwrap();
        let rec = rec.expect("the fallback recovers");
        assert_eq!((rec.snapshot_jseq, rec.snapshots_skipped), (4, 1));
        assert_eq!(rec.table, table);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Corrupt snapshots above the recovery base (one, or two as an
    /// unpruned older dir may hold) do not count as the fallback: the
    /// checkpoint after the fallback boot keeps itself and the base it
    /// recovered from, and deletes the corrupt files.
    #[test]
    fn a_checkpoint_after_a_fallback_keeps_the_recovered_base() {
        for corrupt in 1..=2u64 {
            let dir = std::env::temp_dir().join(format!(
                "clue-store-prune-fallback-{corrupt}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            let cfg = StoreConfig::default();
            let table = clue_fib::gen::FibGen::new(17).routes(500).generate();
            let (store, _, _) = Store::open_or_seed(&dir, cfg, Some(&table), 2).unwrap();
            drop(store);
            for jseq in 0..corrupt {
                fs::write(dir.join(snapshot_name(10 + jseq)), b"not a snapshot").unwrap();
            }
            let (mut store, rec) = Store::open(&dir, cfg).unwrap();
            let rec = rec.expect("the seed recovers");
            assert_eq!((rec.snapshot_jseq, rec.snapshots_skipped), (0, corrupt));
            let (original, cover) = rec.into_state().base.expect("a validated base");
            let index = RangeIndex::even(&cover, 2);
            let fib = CompressedFib::from_parts(original, &cover);
            for seq_hw in 1..=3 {
                let batch = JournalBatch {
                    epoch: 0,
                    seq_hw,
                    raw: 1,
                    ops: &[clue_fib::Update::Withdraw {
                        prefix: Prefix::new(u32::MAX, 32),
                    }],
                };
                store.append(&batch).unwrap();
            }
            let view = CheckpointView {
                epoch: 0,
                seq_hw: 3,
                fib: &fib,
                cuts: index.cuts(),
            };
            store.on_drain(&view).unwrap();
            drop(store);
            let snaps = list_snapshots(&dir).unwrap();
            assert_eq!(
                snaps,
                [dir.join(snapshot_name(3)), dir.join(snapshot_name(0))]
            );
            fs::write(&snaps[0], b"bit rot").unwrap();
            let (_, rec) = Store::open(&dir, cfg).unwrap();
            let rec = rec.expect("the recovered base is still there");
            assert_eq!((rec.snapshot_jseq, rec.snapshots_skipped), (0, 1));
            assert_eq!(rec.table, table);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// `clue snapshot` over a dir with no journal tail rewrites the
    /// snapshot it recovered at the same jseq; the older files stay, so
    /// the dir still has a fallback.
    #[test]
    fn a_rewrite_in_place_keeps_the_older_snapshots() {
        let dir = std::env::temp_dir().join(format!("clue-store-rewrite-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = StoreConfig::default();
        let table = clue_fib::gen::FibGen::new(19).routes(300).generate();
        let (mut store, _, _) = Store::open_or_seed(&dir, cfg, Some(&table), 2).unwrap();
        let ops = [clue_fib::Update::Withdraw {
            prefix: Prefix::new(u32::MAX, 32),
        }];
        let batch = JournalBatch {
            epoch: 0,
            seq_hw: 1,
            raw: 1,
            ops: &ops,
        };
        store.append(&batch).unwrap();
        drop(store);
        let (mut store, rec) = Store::open(&dir, cfg).unwrap();
        store.checkpoint_recovery(&rec.unwrap()).unwrap();
        drop(store);
        let (mut store, rec) = Store::open(&dir, cfg).unwrap();
        let rec = rec.unwrap();
        assert_eq!((rec.snapshot_jseq, rec.replayed), (1, 0));
        store.checkpoint_recovery(&rec).unwrap();
        assert_eq!(list_snapshots(&dir).unwrap().len(), 2);
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
