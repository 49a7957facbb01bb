//! The long-running router service: the same thread topology as
//! [`runtime::run`](crate::runtime::run), exposed as a handle that
//! accepts work incrementally instead of as two pre-staged slices.
//!
//! [`RouterService`] owns the lookup workers, the dispatcher, and the
//! update plane. Callers — the in-process [`runtime::run`]
//! harness as much as the `clue-net` TCP frontend — push updates one at
//! a time through the bounded ingress (so the configured
//! [`OverflowPolicy`] decides between blocking backpressure and counted
//! drops at the *caller's* seam) and submit lookup batches that are
//! dispatched per-address to the home chip's worker and returned in
//! order.
//!
//! Shutdown is a graceful drain ([`RouterService::drain`]): the lookup
//! and ingress channels close, the dispatcher completes every pending
//! batch and quiesces the workers, the update plane applies whatever is
//! still queued and publishes the final epoch, and the joined outcome is
//! returned as a [`RouterReport`].

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use clue_core::update_pipeline::CluePipeline;
use clue_core::BackendKind;
use clue_fib::{NextHop, Route, RouteTable, Update};
use clue_partition::{EvenRangePartition, Indexer, RangeIndex};
use clue_tile::{TileConfig, TileSet};

use crate::coalesce::coalesce;
use crate::epoch::{EpochCell, EpochState};
use crate::faults::WriteStall;
use crate::journal::{CheckpointView, JournalBatch, RecoveredState, UpdateJournal};
use crate::runtime::{OverflowPolicy, RouterConfig, RouterReport};
use crate::stats::{RouterStats, StatsSnapshot};

/// One lookup queued on its home chip's FIFO.
struct Job {
    addr: u32,
    tag: u64,
    t0: Instant,
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

/// One submitted lookup batch awaiting dispatch.
struct LookupRequest {
    addrs: Vec<u32>,
    reply: Sender<Vec<Option<NextHop>>>,
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

/// A live, incrementally-fed router: workers, dispatcher, and update
/// plane behind a handle. See the module docs for the drain contract.
pub struct RouterService {
    lookup_tx: Option<Sender<LookupRequest>>,
    ingress_tx: Option<Sender<Ingress>>,
    overflow: OverflowPolicy,
    shared: Arc<Shared>,
    started: Instant,
    /// Dropped at drain, which wakes the printer at once.
    stop_printer: Option<Sender<()>>,
    dispatcher: Option<JoinHandle<()>>,
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

        let (done_tx, done_rx) = unbounded::<(u64, Option<NextHop>)>();
        let (ingress_tx, ingress_rx) = bounded::<Ingress>(cfg.update_queue);
        let (lookup_tx, lookup_rx) = unbounded::<LookupRequest>();

        // Home FIFOs are unbounded: every caller blocks on its reply, so
        // in-flight lookups are already bounded by the callers.
        let mut fifo_tx: Vec<Sender<Job>> = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for chip in 0..cfg.workers {
            let (tx, fifo) = unbounded::<Job>();
            fifo_tx.push(tx);
            let shared = Arc::clone(&shared);
            let done = done_tx.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(chip, &shared, &fifo, &done);
            }));
        }
        drop(done_tx);

        let dispatcher = {
            let shared = Arc::clone(&shared);
            let index = index.clone();
            std::thread::spawn(move || {
                dispatcher_loop(&shared, &lookup_rx, &done_rx, &fifo_tx, &index);
            })
        };

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
            lookup_tx: Some(lookup_tx),
            ingress_tx: Some(ingress_tx),
            overflow: cfg.overflow,
            shared,
            started: Instant::now(),
            stop_printer: Some(stop_printer),
            dispatcher: Some(dispatcher),
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

    /// Dispatches a batch of addresses through the lookup plane and
    /// blocks until every result is back, in submission order.
    #[must_use]
    pub fn lookup_batch(&self, addrs: Vec<u32>) -> Vec<Option<NextHop>> {
        if addrs.is_empty() {
            return Vec::new();
        }
        let (reply_tx, reply_rx) = bounded(1);
        self.lookup_tx
            .as_ref()
            .expect("service not drained")
            .send(LookupRequest {
                addrs,
                reply: reply_tx,
            })
            .expect("dispatcher alive");
        reply_rx.recv().expect("dispatcher replies")
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
        // Closing the lookup channel lets the dispatcher finish pending
        // batches and quiesce the workers; closing the ingress lets the
        // update thread apply the backlog and exit.
        self.lookup_tx = None;
        self.ingress_tx = None;
        if let Some(d) = self.dispatcher.take() {
            d.join().expect("dispatcher exits cleanly");
        }
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

/// The dispatcher: pulls lookup batches, pushes per-address jobs onto
/// their home chips' FIFOs, and assembles completions back into
/// in-order replies. Once the lookup channel closes and the last pending
/// batch completes, it exits; dropping its FIFO senders stops the
/// workers.
fn dispatcher_loop(
    shared: &Shared,
    lookup_rx: &Receiver<LookupRequest>,
    done_rx: &Receiver<(u64, Option<NextHop>)>,
    fifo_tx: &[Sender<Job>],
    index: &RangeIndex,
) {
    struct Pending {
        results: Vec<Option<NextHop>>,
        remaining: usize,
        reply: Sender<Vec<Option<NextHop>>>,
    }

    let mut pending: HashMap<u32, Pending> = HashMap::new();
    let mut next_id: u32 = 0;
    let mut open = true;

    let complete = |pending: &mut HashMap<u32, Pending>, tag: u64, nh: Option<NextHop>| {
        let id = (tag >> 32) as u32;
        let i = (tag & 0xFFFF_FFFF) as usize;
        if let Some(p) = pending.get_mut(&id) {
            p.results[i] = nh;
            p.remaining -= 1;
            if p.remaining == 0 {
                let p = pending.remove(&id).expect("just seen");
                // A caller that gave up on the reply is not an error.
                let _ = p.reply.send(p.results);
            }
        }
    };

    loop {
        if open {
            crossbeam::channel::select! {
                recv(lookup_rx) -> msg => match msg {
                    Ok(req) => {
                        if req.addrs.is_empty() {
                            let _ = req.reply.send(Vec::new());
                            continue;
                        }
                        let id = next_id;
                        next_id = next_id.wrapping_add(1);
                        pending.insert(id, Pending {
                            results: vec![None; req.addrs.len()],
                            remaining: req.addrs.len(),
                            reply: req.reply,
                        });
                        for (i, &addr) in req.addrs.iter().enumerate() {
                            let tag = (u64::from(id) << 32) | i as u64;
                            dispatch_one(shared, fifo_tx, index, addr, tag);
                        }
                    }
                    Err(_) => open = false,
                },
                recv(done_rx) -> msg => match msg {
                    Ok((tag, nh)) => complete(&mut pending, tag, nh),
                    Err(_) => break,
                },
            }
        } else {
            if pending.is_empty() {
                break;
            }
            match done_rx.recv() {
                Ok((tag, nh)) => complete(&mut pending, tag, nh),
                Err(_) => break,
            }
        }
    }
}

/// Dispatches one address to its home chip's FIFO (Figure 1's Indexing
/// Logic; the clock model in `clue_core::engine` adds the balancer).
fn dispatch_one(shared: &Shared, fifo_tx: &[Sender<Job>], index: &RangeIndex, addr: u32, tag: u64) {
    shared.stats.count_arrival();
    let home = index.bucket_of(addr);
    shared
        .stats
        .worker(home)
        .queue_depth
        .record(fifo_tx[home].len() as u64);
    let job = Job {
        addr,
        tag,
        t0: Instant::now(),
    };
    fifo_tx[home].send(job).expect("worker alive");
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
/// the dispatcher drops the FIFO's sender.
fn worker_loop(
    chip: usize,
    shared: &Shared,
    fifo: &Receiver<Job>,
    done: &Sender<(u64, Option<NextHop>)>,
) {
    let mut epoch = shared.epochs.load();
    while let Some(Job { addr, tag, t0 }) = next_job(fifo) {
        shared.epochs.refresh(&mut epoch);
        let nh = epoch.planes[chip].next_hop(addr);
        {
            let mut w = shared.stats.worker(chip);
            w.serviced += 1;
            w.lookup_ns.record(t0.elapsed().as_nanos() as u64);
        }
        shared.stats.count_completion();
        done.send((tag, nh)).expect("dispatcher alive");
    }
}

/// The next job on `fifo`, or `None` once the dispatcher has dropped it.
/// An empty FIFO yields the CPU once before parking: the dispatcher may
/// still be pushing the rest of this batch, and parking after every job
/// would cost a wake-up per address.
fn next_job(fifo: &Receiver<Job>) -> Option<Job> {
    fifo.try_recv().ok().or_else(|| {
        std::thread::yield_now();
        fifo.recv().ok()
    })
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

    #[test]
    fn concurrent_batches_from_many_threads_all_complete() {
        let fib = FibGen::new(31).routes(1_000).generate();
        let svc = std::sync::Arc::new(RouterService::start(&fib, &RouterConfig::default()));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let svc = std::sync::Arc::clone(&svc);
            let fib = fib.clone();
            joins.push(std::thread::spawn(move || {
                let packets = PacketGen::new(100 + t).generate(&fib, 2_000);
                let got = svc.lookup_batch(packets.clone());
                assert_eq!(got.len(), packets.len());
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
