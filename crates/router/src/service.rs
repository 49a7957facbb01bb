//! The long-running router service: the same thread topology as
//! [`runtime::run`](crate::runtime::run), exposed as a handle that
//! accepts work incrementally instead of as two pre-staged slices.
//!
//! [`RouterService`] owns the lookup workers and the update plane.
//! Callers — the in-process [`runtime::run`] harness as much as the
//! `clue-net` TCP frontend — push updates one at a time through the
//! bounded ingress (so the configured [`OverflowPolicy`] decides between
//! blocking backpressure and counted drops at the *caller's* seam) and
//! submit lookup batches. Figure 1's Indexing Logic runs on the calling
//! thread: [`RouterService::lookup_batch`] splits its batch by home chip
//! and sends one job per chip it touches to that chip's worker, then
//! writes the answers back in submission order.
//!
//! Shutdown is a graceful drain ([`RouterService::drain`]): drain owns
//! the service, so no batch is in flight; the home FIFOs and the
//! ingress close, the workers exit, the update plane applies whatever is
//! still queued and publishes the final epoch, and the joined outcome is
//! returned as a [`RouterReport`].

use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use clue_core::update_pipeline::CluePipeline;
use clue_core::BackendKind;
use clue_fib::{NextHop, Route, RouteTable, Update};
use clue_partition::{EvenRangePartition, Indexer, RangeIndex};
use clue_tile::{TileConfig, TileSet};
use parking_lot::Mutex;

use crate::coalesce::coalesce;
use crate::epoch::{EpochCell, EpochState};
use crate::faults::WriteStall;
use crate::journal::{CheckpointView, JournalBatch, RecoveredState, UpdateJournal};
use crate::runtime::{OverflowPolicy, RouterConfig, RouterReport};
use crate::stats::{RouterStats, StatsSnapshot};

/// One batch's share for one chip, queued on that chip's FIFO. The
/// worker answers every slot in place and sends the buffer back.
struct Job {
    slots: Vec<Slot>,
    reply: Sender<Reply>,
    t0: Instant,
}

/// One address of a job: its position in the caller's batch, and the
/// answer once the worker has resolved it.
#[derive(Clone)]
struct Slot {
    pos: usize,
    addr: u32,
    nh: Option<NextHop>,
}

/// A served job's slots, back to the caller with the chip that served
/// them.
type Reply = (usize, Vec<Slot>);

/// A caller's reusable scratch: a reply channel and one slot buffer per
/// chip. One batch holds it at a time, so every reply on its channel
/// belongs to that batch; between batches it waits in the service's
/// pool with its buffers' capacity kept.
struct Scratch {
    reply_tx: Sender<Reply>,
    reply_rx: Receiver<Reply>,
    /// Indexed by chip; empty while that chip's job is out.
    per_chip: Vec<Vec<Slot>>,
}

impl Scratch {
    fn new(chips: usize) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        Scratch {
            reply_tx,
            reply_rx,
            per_chip: vec![Vec::new(); chips],
        }
    }
}

/// One ingress item: an update and its frame-closing tag (0 = none),
/// or just the tag when the closing update itself was shed.
type Ingress = (Option<Update>, u64);

/// The journaled-sequence high-water mark: a monotone counter the
/// update thread advances after each successful journal append, which
/// frontends wait on before acknowledging a batch (ack ⇒ journaled).
/// The vendored `parking_lot` shim has no `Condvar`, so this uses std.
struct SeqWater {
    hw: StdMutex<u64>,
    cv: Condvar,
}

impl SeqWater {
    fn new(initial: u64) -> Self {
        SeqWater {
            hw: StdMutex::new(initial),
            cv: Condvar::new(),
        }
    }

    fn advance(&self, to: u64) {
        let mut hw = self.hw.lock().expect("seq water not poisoned");
        if to > *hw {
            *hw = to;
            self.cv.notify_all();
        }
    }

    fn wait_for(&self, seq: u64, timeout: Duration) -> bool {
        let hw = self.hw.lock().expect("seq water not poisoned");
        let (hw, _) = self
            .cv
            .wait_timeout_while(hw, timeout, |hw| *hw < seq)
            .expect("seq water not poisoned");
        *hw >= seq
    }
}

/// State shared by every router thread.
struct Shared {
    epochs: EpochCell,
    stats: RouterStats,
    journaled: SeqWater,
}

/// What the update thread hands back when it drains out.
pub(crate) struct UpdateOutcome {
    pub(crate) final_table: RouteTable,
    pub(crate) final_compressed: RouteTable,
    pub(crate) dynamic_redundancy: u64,
}

/// Outcome of submitting one update to the bounded ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The update entered the ingress queue (possibly after blocking).
    Accepted,
    /// [`OverflowPolicy::DropNewest`] rejected it; the drop is counted
    /// in [`StatsSnapshot::update_drops`].
    Dropped,
}

/// A live, incrementally-fed router: workers and update plane behind a
/// handle. See the module docs for the drain contract.
pub struct RouterService {
    /// One home FIFO per chip; cleared at drain, which stops the
    /// workers.
    fifo_tx: Vec<Sender<Job>>,
    /// The fixed cuts that map an address to its home chip.
    index: RangeIndex,
    /// Idle caller scratch, one per concurrent `lookup_batch` so far.
    scratch: Mutex<Vec<Scratch>>,
    ingress_tx: Option<Sender<Ingress>>,
    overflow: OverflowPolicy,
    shared: Arc<Shared>,
    started: Instant,
    /// Dropped at drain, which wakes the printer at once.
    stop_printer: Option<Sender<()>>,
    workers: Vec<JoinHandle<()>>,
    update_thread: Option<JoinHandle<UpdateOutcome>>,
    printer: Option<JoinHandle<()>>,
    journal_active: bool,
}

impl RouterService {
    /// Boots the full thread topology over `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is empty or `cfg` is degenerate (any zero
    /// size), exactly like [`runtime::run`](crate::runtime::run).
    #[must_use]
    pub fn start(table: &RouteTable, cfg: &RouterConfig) -> Self {
        Self::start_inner(table, 0, 0, cfg, None)
    }

    /// Boots like [`start`](Self::start) with a write-ahead journal on
    /// the update plane: every coalesced batch goes through
    /// [`UpdateJournal::append`] before it is applied.
    ///
    /// # Panics
    ///
    /// Same conditions as [`start`](Self::start).
    #[must_use]
    pub fn start_with_journal(
        table: &RouteTable,
        cfg: &RouterConfig,
        journal: Box<dyn UpdateJournal>,
    ) -> Self {
        Self::start_inner(table, 0, 0, cfg, Some(journal))
    }

    /// Boots from a [`RecoveredState`]: epoch numbering resumes after
    /// `state.epoch`, and the journaled high-water starts at
    /// `state.seq_hw` (so a frontend advertises the recovered ack
    /// position to resuming clients).
    ///
    /// # Panics
    ///
    /// Same conditions as [`start`](Self::start).
    #[must_use]
    pub fn start_recovered(
        state: &RecoveredState,
        cfg: &RouterConfig,
        journal: Option<Box<dyn UpdateJournal>>,
    ) -> Self {
        Self::start_inner(&state.table, state.epoch, state.seq_hw, cfg, journal)
    }

    fn start_inner(
        table: &RouteTable,
        epoch0: u64,
        seq_hw0: u64,
        cfg: &RouterConfig,
        journal: Option<Box<dyn UpdateJournal>>,
    ) -> Self {
        assert!(!table.is_empty(), "need a routing table to serve");
        assert!(
            cfg.workers > 0 && cfg.dred_capacity > 0 && cfg.batch_size > 0 && cfg.update_queue > 0,
            "router config sizes must be positive"
        );

        let mut pipeline =
            CluePipeline::new(table, cfg.workers, cfg.dred_capacity, table.len() + 1024);
        let compressed0 = pipeline.fib().compressed_table();
        let index: RangeIndex = EvenRangePartition::split(&compressed0, cfg.workers)
            .index()
            .clone();
        // Tiled backend: one persistent maintainer tracks the compressed
        // table across batches, so each publish rewrites only the touched
        // tiles and snapshots the rest by `Arc` instead of recompiling
        // every bucket from scratch. It is born here and lives in the
        // update thread.
        let tileset0 = (cfg.backend == BackendKind::Tiled).then(|| {
            let routes: Vec<Route> = compressed0.iter().collect();
            TileSet::build(TileConfig::default(), &routes)
        });
        let first_epoch = match &tileset0 {
            Some(ts) => EpochState::from_tileset(epoch0, ts, &index, cfg.workers),
            None => EpochState::build(epoch0, &compressed0, &index, cfg.workers, cfg.backend),
        };

        let shared = Arc::new(Shared {
            epochs: EpochCell::new(first_epoch),
            stats: RouterStats::new(cfg.workers),
            journaled: SeqWater::new(seq_hw0),
        });

        let (ingress_tx, ingress_rx) = bounded::<Ingress>(cfg.update_queue);

        // Home FIFOs are unbounded: every caller blocks on its reply, so
        // a FIFO holds at most one job per concurrent caller.
        let mut fifo_tx: Vec<Sender<Job>> = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for chip in 0..cfg.workers {
            let (tx, fifo) = unbounded::<Job>();
            fifo_tx.push(tx);
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || {
                worker_loop(chip, &shared, &fifo);
            }));
        }

        let journal_active = journal.is_some();
        let update_thread = {
            let shared = Arc::clone(&shared);
            let index = index.clone();
            let cfg = *cfg;
            let mut mirror = table.clone();
            std::thread::spawn(move || {
                update_loop(
                    &mut pipeline,
                    &mut mirror,
                    &ingress_rx,
                    &shared,
                    &index,
                    &cfg,
                    tileset0,
                    Durability {
                        journal,
                        epoch: epoch0,
                        seq_hw: seq_hw0,
                    },
                );
                UpdateOutcome {
                    final_table: mirror,
                    final_compressed: pipeline.fib().compressed_table(),
                    dynamic_redundancy: shared.epochs.load().replicated,
                }
            })
        };

        let (stop_printer, stop_rx) = bounded::<()>(1);
        let printer = cfg.snapshot_every.map(|every| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                // Parks on the stop channel, so drain wakes it at once.
                while stop_rx.recv_timeout(every) == Err(RecvTimeoutError::Timeout) {
                    println!("{}", shared.stats.snapshot().to_json());
                }
            })
        });

        RouterService {
            fifo_tx,
            index,
            scratch: Mutex::new(Vec::new()),
            ingress_tx: Some(ingress_tx),
            overflow: cfg.overflow,
            shared,
            started: Instant::now(),
            stop_printer: Some(stop_printer),
            workers,
            update_thread: Some(update_thread),
            printer,
            journal_active,
        }
    }

    /// Submits one update to the bounded ingress under the configured
    /// overflow policy: blocks until space frees up (`Block`) or rejects
    /// and counts the drop (`DropNewest`).
    pub fn submit_update(&self, update: Update) -> SubmitOutcome {
        self.submit_update_tagged(update, 0)
    }

    /// Like [`submit_update`](Self::submit_update); a nonzero `seq`
    /// says this update **closes** the submitter's frame `seq`. When
    /// the batch draining it is journaled, the journaled high-water
    /// advances to at least `seq`, which
    /// [`wait_journaled`](Self::wait_journaled) observes — the
    /// durability handshake a network frontend needs to hold acks until
    /// the covering batch is on disk. A frame of several updates tags
    /// only its last one (the others pass 0): the update plane cuts
    /// batches wherever the queue happens to end, so a tag on an
    /// earlier update would cover the frame before its tail is
    /// journaled. If the closing update is shed under `DropNewest`, its
    /// tag still enters the queue, in order, behind whatever the frame
    /// had accepted.
    pub fn submit_update_tagged(&self, update: Update, seq: u64) -> SubmitOutcome {
        let tx = self.ingress_tx.as_ref().expect("service not drained");
        // The update thread outlives every submitter (it exits only
        // when drain() closes this channel).
        match self.overflow {
            OverflowPolicy::Block => {
                tx.send((Some(update), seq)).expect("update thread alive");
                SubmitOutcome::Accepted
            }
            OverflowPolicy::DropNewest => match tx.try_send((Some(update), seq)) {
                Ok(()) => SubmitOutcome::Accepted,
                Err(TrySendError::Full(_)) => {
                    self.shared.stats.count_update_drop();
                    if seq != 0 {
                        tx.send((None, seq)).expect("update thread alive");
                    }
                    SubmitOutcome::Dropped
                }
                Err(TrySendError::Disconnected(_)) => unreachable!("update thread alive"),
            },
        }
    }

    /// Blocks until the journaled sequence high-water reaches `seq` or
    /// `timeout` elapses; returns whether it did. Trivially true when
    /// the service runs without a journal (nothing to wait for) or for
    /// untagged submissions (`seq == 0`).
    #[must_use]
    pub fn wait_journaled(&self, seq: u64, timeout: Duration) -> bool {
        if !self.journal_active || seq == 0 {
            return true;
        }
        self.shared.journaled.wait_for(seq, timeout)
    }

    /// Resolves a batch of addresses on their home chips and blocks
    /// until every result is back, in submission order.
    ///
    /// The batch is split by home chip on the calling thread, and each
    /// chip it touches gets one job. In steady state the returned
    /// vector is the only allocation: the slot buffers and the reply
    /// channel come from a pooled `Scratch`.
    #[must_use]
    pub fn lookup_batch(&self, addrs: Vec<u32>) -> Vec<Option<NextHop>> {
        if addrs.is_empty() {
            return Vec::new();
        }
        let mut scratch = self
            .scratch
            .lock()
            .pop()
            .unwrap_or_else(|| Scratch::new(self.fifo_tx.len()));
        for (pos, &addr) in addrs.iter().enumerate() {
            scratch.per_chip[self.index.bucket_of(addr)].push(Slot {
                pos,
                addr,
                nh: None,
            });
        }
        self.shared.stats.count_arrivals(addrs.len() as u64);
        let t0 = Instant::now();
        let mut jobs = 0;
        for (chip, slots) in scratch.per_chip.iter_mut().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let fifo = &self.fifo_tx[chip];
            self.shared
                .stats
                .worker(chip)
                .queue_depth
                .record(fifo.len() as u64);
            let job = Job {
                slots: std::mem::take(slots),
                reply: scratch.reply_tx.clone(),
                t0,
            };
            fifo.send(job).expect("worker alive");
            jobs += 1;
        }
        let mut results = vec![None; addrs.len()];
        for _ in 0..jobs {
            let (chip, mut slots) = scratch.reply_rx.recv().expect("worker replies");
            for s in &slots {
                results[s.pos] = s.nh;
            }
            slots.clear();
            scratch.per_chip[chip] = slots;
        }
        self.scratch.lock().push(scratch);
        results
    }

    /// A point-in-time aggregated stats snapshot, enriched with the
    /// published lookup plane's identity (backend, epoch, entry count,
    /// heap footprint, dynamic redundancy).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.shared.stats.snapshot();
        let epoch = self.shared.epochs.load();
        snap.plane = Some(crate::stats::PlaneInfo {
            backend: epoch.backend,
            epoch: epoch.epoch,
            entries: epoch.entries,
            heap_bytes: epoch.planes.iter().map(|p| p.heap_bytes()).sum(),
            replicated: epoch.replicated,
        });
        snap
    }

    /// The currently published epoch number.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.epochs.version()
    }

    /// Gracefully drains the service: stops accepting work, completes
    /// every pending lookup, applies every queued update, publishes the
    /// final epoch, and joins all threads.
    #[must_use]
    pub fn drain(mut self) -> RouterReport {
        self.shutdown_threads()
    }

    fn shutdown_threads(&mut self) -> RouterReport {
        // No batch is in flight (this runs with the only handle), so
        // closing the home FIFOs stops the workers; closing the ingress
        // lets the update thread apply the backlog and exit.
        self.fifo_tx.clear();
        self.ingress_tx = None;
        for w in self.workers.drain(..) {
            w.join().expect("worker exits cleanly");
        }
        let outcome = self
            .update_thread
            .take()
            .expect("drained once")
            .join()
            .expect("update thread exits cleanly");
        self.stop_printer = None;
        if let Some(p) = self.printer.take() {
            p.join().expect("printer exits cleanly");
        }
        RouterReport {
            snapshot: self.shared.stats.snapshot(),
            results: Vec::new(),
            final_table: outcome.final_table,
            final_compressed: outcome.final_compressed,
            dynamic_redundancy: outcome.dynamic_redundancy,
            elapsed: self.started.elapsed(),
        }
    }
}

impl Drop for RouterService {
    fn drop(&mut self) {
        // A dropped (never-drained) service still shuts down cleanly;
        // the report is simply discarded.
        if self.update_thread.is_some() {
            let _ = self.shutdown_threads();
        }
    }
}

/// The durability side of the update plane, threaded into the loop.
struct Durability {
    journal: Option<Box<dyn UpdateJournal>>,
    epoch: u64,
    seq_hw: u64,
}

/// The update plane: drain → coalesce → journal → apply → publish →
/// (maybe) checkpoint.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn update_loop(
    pipeline: &mut CluePipeline,
    mirror: &mut RouteTable,
    ingress: &Receiver<Ingress>,
    shared: &Shared,
    index: &RangeIndex,
    cfg: &RouterConfig,
    mut tileset: Option<TileSet>,
    durability: Durability,
) {
    let batch_size = cfg.batch_size;
    let workers = cfg.workers;
    let mut stall = cfg.faults.map(WriteStall::new);
    let Durability {
        mut journal,
        mut epoch,
        mut seq_hw,
    } = durability;
    while let Ok((first, tag0)) = ingress.recv() {
        // One quiescent window: whatever is already queued, up to the cap
        // (a bare closing tag adds its seq and no update).
        let mut batch = Vec::with_capacity(batch_size);
        let mut tag_hw = tag0;
        batch.extend(first);
        while batch.len() < batch_size {
            match ingress.try_recv() {
                Ok((u, tag)) => {
                    batch.extend(u);
                    tag_hw = tag_hw.max(tag);
                }
                Err(_) => break,
            }
        }

        let coalesced = coalesce(&batch, mirror);
        seq_hw = seq_hw.max(tag_hw);

        // Write-ahead: the batch hits the journal before the table, so
        // a crash between here and the publish below replays it. Only
        // a successful append advances the ack high-water.
        if let Some(j) = journal.as_mut() {
            let record = JournalBatch {
                epoch,
                seq_hw,
                raw: coalesced.raw as u32,
                ops: &coalesced.ops,
            };
            match j.append(&record) {
                Ok(()) => {
                    shared.stats.count_journal_append();
                    shared.journaled.advance(seq_hw);
                }
                Err(_) => shared.stats.count_journal_error(),
            }
        }

        let mut batch_ttf_ns = 0.0f64;
        let mut touched = false;
        for &op in &coalesced.ops {
            mirror.apply(op);
            let (sample, diff) = pipeline.apply_with_diff(op);
            if let Some(ws) = &mut stall {
                // The TCAM-write-stall seam: stretch the window between
                // entry writes and the epoch publish below.
                ws.on_ops(diff.op_count() as u64);
            }
            batch_ttf_ns += sample.total_ns();
            shared
                .stats
                .update()
                .ttf_update_ns
                .record(sample.total_ns() as u64);
            touched = touched || !diff.is_empty();
            if let Some(ts) = tileset.as_mut() {
                ts.apply(&diff);
            }
        }

        {
            let mut u = shared.stats.update();
            u.received += coalesced.raw as u64;
            u.applied += coalesced.ops.len() as u64;
            u.superseded += coalesced.superseded as u64;
            u.cancelled += coalesced.cancelled as u64;
            u.elided += coalesced.elided as u64;
            u.batches += 1;
            u.ttf_batch_ns.record(batch_ttf_ns as u64);
        }

        // Publish the batch as one atomic epoch (skip if nothing moved).
        if touched {
            epoch += 1;
            let state = match &tileset {
                Some(ts) => EpochState::from_tileset(epoch, ts, index, workers),
                None => EpochState::build(
                    epoch,
                    &pipeline.fib().compressed_table(),
                    index,
                    workers,
                    cfg.backend,
                ),
            };
            shared.epochs.publish(state);
            shared.stats.update().epochs += 1;
        }

        // Epoch-boundary snapshot: the journal decides when enough tail
        // has accumulated; the view is consistent because this thread is
        // the only writer and sits between batches.
        if let Some(j) = journal.as_mut() {
            if j.wants_checkpoint() {
                let compressed = pipeline.fib().compressed_table();
                let view = CheckpointView {
                    epoch,
                    seq_hw,
                    table: mirror,
                    compressed: &compressed,
                    cuts: index.cuts(),
                };
                if j.checkpoint(&view).is_err() {
                    shared.stats.count_journal_error();
                }
            }
        }
    }

    // Clean drain: give the journal a final checkpoint opportunity so a
    // graceful restart replays nothing (crash harnesses override this).
    if let Some(j) = journal.as_mut() {
        let compressed = pipeline.fib().compressed_table();
        let view = CheckpointView {
            epoch,
            seq_hw,
            table: mirror,
            compressed: &compressed,
            cuts: index.cuts(),
        };
        if j.on_drain(&view).is_err() {
            shared.stats.count_journal_error();
        }
    }
}

/// One chip: serves its home FIFO from the current epoch's plane until
/// drain drops the FIFO's sender.
fn worker_loop(chip: usize, shared: &Shared, fifo: &Receiver<Job>) {
    let mut epoch = shared.epochs.load();
    while let Ok(Job {
        mut slots,
        reply,
        t0,
    }) = fifo.recv()
    {
        for slot in &mut slots {
            // Per address, so `run`'s one large batch still races the
            // update stream.
            shared.epochs.refresh(&mut epoch);
            slot.nh = epoch.planes[chip].next_hop(slot.addr);
        }
        let n = slots.len() as u64;
        let ns = t0.elapsed().as_nanos() as u64;
        {
            let mut w = shared.stats.worker(chip);
            w.serviced += n;
            for _ in 0..n {
                w.lookup_ns.record(ns);
            }
        }
        shared.stats.count_completions(n);
        // The caller waits for every job it sent; a caller that
        // panicked meanwhile is not this worker's error.
        let _ = reply.send((chip, slots));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_compress::onrtc;
    use clue_fib::gen::FibGen;
    use clue_traffic::{PacketGen, UpdateGen};

    #[test]
    fn incremental_submission_reaches_sequential_fib() {
        let fib = FibGen::new(11).routes(1_000).generate();
        let updates = UpdateGen::new(12).generate(&fib, 800);
        let svc = RouterService::start(&fib, &RouterConfig::default());
        for &u in &updates {
            assert_eq!(svc.submit_update(u), SubmitOutcome::Accepted);
        }
        let report = svc.drain();
        let mut expect = fib.clone();
        for &u in &updates {
            expect.apply(u);
        }
        assert_eq!(report.final_table, expect);
        assert_eq!(report.final_compressed, onrtc(&expect));
        assert_eq!(report.snapshot.updates_received, updates.len() as u64);
    }

    #[test]
    fn interleaved_lookup_batches_return_in_order() {
        let fib = FibGen::new(21).routes(1_500).generate();
        let packets = PacketGen::new(22).generate(&fib, 6_000);
        let reference = onrtc(&fib).to_trie();
        let svc = RouterService::start(&fib, &RouterConfig::default());
        for chunk in packets.chunks(700) {
            let got = svc.lookup_batch(chunk.to_vec());
            assert_eq!(got.len(), chunk.len());
            for (&addr, nh) in chunk.iter().zip(&got) {
                assert_eq!(
                    *nh,
                    reference.lookup(addr).map(|(_, &v)| v),
                    "addr {addr:#x}"
                );
            }
        }
        let report = svc.drain();
        assert_eq!(report.snapshot.arrivals, packets.len() as u64);
        assert_eq!(report.snapshot.completions, packets.len() as u64);
    }

    /// Several batches per thread, so pooled scratch passes between
    /// callers: a reused buffer must never hand one caller another
    /// caller's answers.
    #[test]
    fn concurrent_batches_from_many_threads_all_complete() {
        let fib = FibGen::new(31).routes(1_000).generate();
        let reference = std::sync::Arc::new(onrtc(&fib).to_trie());
        let svc = std::sync::Arc::new(RouterService::start(&fib, &RouterConfig::default()));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let svc = std::sync::Arc::clone(&svc);
            let reference = std::sync::Arc::clone(&reference);
            let fib = fib.clone();
            joins.push(std::thread::spawn(move || {
                let packets = PacketGen::new(100 + t).generate(&fib, 2_000);
                for (i, chunk) in packets.chunks(250).enumerate() {
                    let got = svc.lookup_batch(chunk.to_vec());
                    assert_eq!(got.len(), chunk.len());
                    for (&addr, nh) in chunk.iter().zip(&got) {
                        assert_eq!(
                            *nh,
                            reference.lookup(addr).map(|(_, &v)| v),
                            "thread {t} batch {i} addr {addr:#x}"
                        );
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let svc = std::sync::Arc::into_inner(svc).expect("all clones joined");
        let report = svc.drain();
        assert_eq!(report.snapshot.arrivals, 8_000);
        assert_eq!(report.snapshot.completions, 8_000);
    }

    /// A batch sends one job to each chip it touches, so `queue_depth`
    /// gets one sample per touched chip, not one per address.
    #[test]
    fn a_batch_spanning_k_chips_records_k_queue_depth_samples() {
        let fib = FibGen::new(33).routes(1_000).generate();
        let packets = PacketGen::new(34).generate(&fib, 4_000);
        let svc = RouterService::start(&fib, &RouterConfig::default());
        let mut recorded = 0;
        for k in 1..=svc.fifo_tx.len() {
            // 64 addresses whose home chips are exactly 0..k.
            let batch: Vec<u32> = packets
                .iter()
                .copied()
                .filter(|&a| svc.index.bucket_of(a) < k)
                .take(64)
                .collect();
            let mut chips: Vec<usize> = batch.iter().map(|&a| svc.index.bucket_of(a)).collect();
            chips.sort_unstable();
            chips.dedup();
            assert_eq!(chips.len(), k, "the trace covers chips 0..{k}");
            let _ = svc.lookup_batch(batch);
            recorded += k as u64;
            assert_eq!(svc.stats().queue_depth.count(), recorded);
        }
        let report = svc.drain();
        assert_eq!(report.snapshot.completions, report.snapshot.arrivals);
    }

    #[test]
    fn drop_newest_reports_rejections() {
        let fib = FibGen::new(41).routes(800).generate();
        let updates = UpdateGen::new(42).generate(&fib, 3_000);
        let cfg = RouterConfig {
            update_queue: 4,
            batch_size: 2,
            overflow: OverflowPolicy::DropNewest,
            ..RouterConfig::default()
        };
        let svc = RouterService::start(&fib, &cfg);
        let mut dropped = 0u64;
        for &u in &updates {
            if svc.submit_update(u) == SubmitOutcome::Dropped {
                dropped += 1;
            }
        }
        let report = svc.drain();
        assert_eq!(report.snapshot.update_drops, dropped);
        assert_eq!(
            report.snapshot.updates_received + report.snapshot.update_drops,
            updates.len() as u64,
        );
    }

    /// A journal whose appends report `(raw, seq_hw)` and then block
    /// until the test releases them one by one (or drops the gate).
    struct GatedJournal {
        entered: Sender<(u32, u64)>,
        release: Receiver<()>,
    }

    impl UpdateJournal for GatedJournal {
        fn append(&mut self, batch: &JournalBatch<'_>) -> std::io::Result<()> {
            let _ = self.entered.send((batch.raw, batch.seq_hw));
            let _ = self.release.recv();
            Ok(())
        }
    }

    /// Long enough for the update thread to get anywhere it is going.
    const TICK: Duration = Duration::from_secs(5);

    /// A journaled service behind a [`GatedJournal`], and a 5-update
    /// frame to feed it.
    struct Gated {
        // First, so a failed assertion opens the gate before `svc`
        // joins its update thread.
        release: Sender<()>,
        entered: Receiver<(u32, u64)>,
        frame: Vec<Update>,
        svc: RouterService,
    }

    fn gated(cfg: &RouterConfig) -> Gated {
        let fib = FibGen::new(61).routes(500).generate();
        let frame = UpdateGen::new(62).generate(&fib, 5);
        let (entered_tx, entered) = unbounded();
        let (release, release_rx) = unbounded();
        let journal = Box::new(GatedJournal {
            entered: entered_tx,
            release: release_rx,
        });
        let svc = RouterService::start_with_journal(&fib, cfg, journal);
        Gated {
            release,
            entered,
            frame,
            svc,
        }
    }

    /// ROADMAP 5(f): a frame that straddles batches is covered by the
    /// journaled high-water only once the append holding its last
    /// update has returned.
    #[test]
    fn frame_is_journaled_only_with_the_batch_holding_its_last_update() {
        let cfg = RouterConfig {
            batch_size: 2,
            ..RouterConfig::default()
        };
        let Gated {
            release,
            entered,
            frame,
            svc,
        } = gated(&cfg);
        let seq = 7;
        for (i, &u) in frame.iter().enumerate() {
            let tag = if i + 1 == frame.len() { seq } else { 0 };
            assert_eq!(svc.submit_update_tagged(u, tag), SubmitOutcome::Accepted);
        }
        let mut journaled = 0;
        while journaled < frame.len() {
            let (raw, seq_hw) = entered.recv_timeout(TICK).unwrap();
            journaled += raw as usize;
            // This append has not returned: the frame is not covered,
            // and only the record holding its tail may claim it.
            assert!(!svc.wait_journaled(seq, Duration::ZERO));
            assert_eq!(seq_hw, if journaled == frame.len() { seq } else { 0 });
            release.send(()).unwrap();
        }
        assert!(svc.wait_journaled(seq, TICK));
        drop(svc.drain());
    }

    /// A frame whose closing update is shed under `DropNewest` is still
    /// closed, in order, behind the updates it did get accepted.
    #[test]
    fn shed_closing_update_still_closes_its_frame() {
        let cfg = RouterConfig {
            batch_size: 2,
            update_queue: 2,
            overflow: OverflowPolicy::DropNewest,
            ..RouterConfig::default()
        };
        let Gated {
            release,
            entered,
            frame,
            svc,
        } = gated(&cfg);
        let seq = 7;
        // The first update's append parks the update thread, so the
        // queue (2 slots) takes the next two and sheds the last two.
        assert_eq!(svc.submit_update(frame[0]), SubmitOutcome::Accepted);
        assert_eq!(entered.recv_timeout(TICK).unwrap(), (1, 0));
        assert_eq!(svc.submit_update(frame[1]), SubmitOutcome::Accepted);
        assert_eq!(svc.submit_update(frame[2]), SubmitOutcome::Accepted);
        assert_eq!(svc.submit_update(frame[3]), SubmitOutcome::Dropped);
        std::thread::scope(|s| {
            // Blocks until the queue has room for the closing tag.
            s.spawn(|| {
                assert_eq!(
                    svc.submit_update_tagged(frame[4], seq),
                    SubmitOutcome::Dropped
                );
            });
            // The shed update is counted before its tag blocks, so open
            // the gate only then: released earlier, the update thread
            // could drain the queue before the closing update arrives.
            while svc.stats().update_drops < 2 {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
        });
        assert_eq!(entered.recv_timeout(TICK).unwrap(), (2, 0));
        assert!(!svc.wait_journaled(seq, Duration::ZERO));
        release.send(()).unwrap();
        assert_eq!(entered.recv_timeout(TICK).unwrap(), (0, seq));
        assert!(!svc.wait_journaled(seq, Duration::ZERO));
        release.send(()).unwrap();
        assert!(svc.wait_journaled(seq, TICK));
        assert_eq!(svc.drain().snapshot.update_drops, 2);
    }

    #[test]
    fn drain_wakes_the_stats_printer_at_once() {
        let fib = FibGen::new(81).routes(200).generate();
        let cfg = RouterConfig {
            snapshot_every: Some(Duration::from_secs(10)),
            ..RouterConfig::default()
        };
        let svc = RouterService::start(&fib, &cfg);
        let t0 = Instant::now();
        drop(svc.drain());
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "drain took {took:?}");
    }

    #[test]
    fn undrained_service_shuts_down_on_drop() {
        let fib = FibGen::new(51).routes(200).generate();
        let svc = RouterService::start(&fib, &RouterConfig::default());
        let _ = svc.lookup_batch(vec![0x0A00_0001]);
        drop(svc); // must not hang or panic
    }
}
