//! The router's metrics registry and its JSON snapshots.
//!
//! Every worker owns a slot of per-thread [`Histogram`]s behind a
//! mutex, taken once per job by the worker, once per send by the
//! caller recording the FIFO depth, and by the snapshot reader;
//! the update plane has one more slot; hard counters are atomics. A
//! [`StatsSnapshot`] is a consistent-enough point-in-time aggregation —
//! worker histograms are merged with [`Histogram::merge`] — rendered
//! through the workspace's one JSON writer, [`clue_core::json`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use clue_core::json;
use clue_core::lookup::BackendKind;
use clue_core::metrics::Histogram;

/// Per-worker mutable metrics.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Per lookup, the send-to-answered latency of the job that carried
    /// it (every lookup of a job shares its job's sample), nanoseconds.
    pub lookup_ns: Histogram,
    /// This chip's home-FIFO depth, in jobs, seen as each job was sent
    /// to it: one sample per chip a batch touches.
    pub queue_depth: Histogram,
    /// Lookups serviced by this worker.
    pub serviced: u64,
}

/// Update-plane mutable metrics.
#[derive(Debug, Default)]
pub struct UpdateStats {
    /// Time-to-fresh of each applied update (all three stages), ns.
    pub ttf_update_ns: Histogram,
    /// Summed TTF of each applied batch, ns.
    pub ttf_batch_ns: Histogram,
    /// Raw updates taken off the ingress queue.
    pub received: u64,
    /// Updates that survived coalescing and reached the pipeline.
    pub applied: u64,
    /// Updates absorbed by a later op on the same prefix.
    pub superseded: u64,
    /// Announce-then-withdraw pairs that annihilated.
    pub cancelled: u64,
    /// No-op announcements elided.
    pub elided: u64,
    /// Batches applied (including all-absorbed ones).
    pub batches: u64,
    /// Epochs published (batches that changed the table).
    pub epochs: u64,
}

/// The registry all router threads report into.
#[derive(Debug)]
pub struct RouterStats {
    workers: Vec<Mutex<WorkerStats>>,
    update: Mutex<UpdateStats>,
    arrivals: AtomicU64,
    completions: AtomicU64,
    update_drops: AtomicU64,
    journal_appends: AtomicU64,
    journal_errors: AtomicU64,
}

impl RouterStats {
    /// Creates a registry with `workers` worker slots.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        RouterStats {
            workers: (0..workers)
                .map(|_| Mutex::new(WorkerStats::default()))
                .collect(),
            update: Mutex::new(UpdateStats::default()),
            arrivals: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            update_drops: AtomicU64::new(0),
            journal_appends: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
        }
    }

    /// Locks worker `i`'s slot for recording.
    pub fn worker(&self, i: usize) -> MutexGuard<'_, WorkerStats> {
        self.workers[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the update-plane slot for recording.
    pub fn update(&self) -> MutexGuard<'_, UpdateStats> {
        self.update.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts `n` lookups submitted in one batch.
    pub fn count_arrivals(&self, n: u64) {
        self.arrivals.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` lookups completed by one job.
    pub fn count_completions(&self, n: u64) {
        self.completions.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one update rejected by the ingress overflow policy.
    pub fn count_update_drop(&self) {
        self.update_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates dropped so far (backpressure accounting).
    #[must_use]
    pub fn update_drops(&self) -> u64 {
        self.update_drops.load(Ordering::Relaxed)
    }

    /// Counts one batch journaled to the write-ahead log.
    pub fn count_journal_append(&self) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed journal append or checkpoint.
    pub fn count_journal_error(&self) {
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time aggregated snapshot.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut lookup_ns = Histogram::new();
        let mut queue_depth = Histogram::new();
        let mut per_worker_serviced = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let w = w.lock().unwrap_or_else(PoisonError::into_inner);
            lookup_ns.merge(&w.lookup_ns);
            queue_depth.merge(&w.queue_depth);
            per_worker_serviced.push(w.serviced);
        }
        let u = self.update();
        let absorbed = u.received.saturating_sub(u.applied);
        StatsSnapshot {
            workers: self.workers.len(),
            lookup_ns,
            queue_depth,
            per_worker_serviced,
            ttf_update_ns: u.ttf_update_ns.clone(),
            ttf_batch_ns: u.ttf_batch_ns.clone(),
            updates_received: u.received,
            updates_applied: u.applied,
            updates_superseded: u.superseded,
            updates_cancelled: u.cancelled,
            updates_elided: u.elided,
            batches: u.batches,
            epochs: u.epochs,
            coalesce_ratio: if u.received == 0 {
                0.0
            } else {
                absorbed as f64 / u.received as f64
            },
            arrivals: self.arrivals.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            diversions: 0,
            dred_hits: 0,
            dred_misses: 0,
            update_drops: self.update_drops.load(Ordering::Relaxed),
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
            plane: None,
        }
    }
}

/// What the currently published lookup plane looks like: which backend
/// compiled it, how big it is, and what it costs in memory. Collected
/// from the live [`EpochState`](crate::EpochState) by
/// [`RouterService::stats`](crate::RouterService::stats); `None` in
/// snapshots taken straight off a [`RouterStats`] registry, which has
/// no view of the epoch.
#[derive(Debug, Clone)]
pub struct PlaneInfo {
    /// Backend compiling every per-chip plane of this epoch.
    pub backend: BackendKind,
    /// The published epoch number.
    pub epoch: u64,
    /// Entries in the compressed table the epoch was built from.
    pub entries: usize,
    /// Total heap bytes across all per-chip planes.
    pub heap_bytes: usize,
    /// Routes stored in more than one bucket (dynamic redundancy).
    pub replicated: u64,
}

/// An immutable aggregated view, renderable as JSON.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Worker count.
    pub workers: usize,
    /// Merged lookup-latency histogram (ns).
    pub lookup_ns: Histogram,
    /// Merged home-FIFO depth histogram, in jobs, sampled at each send.
    pub queue_depth: Histogram,
    /// Lookups serviced per worker.
    pub per_worker_serviced: Vec<u64>,
    /// Per-update TTF histogram (ns).
    pub ttf_update_ns: Histogram,
    /// Per-batch TTF histogram (ns).
    pub ttf_batch_ns: Histogram,
    /// Raw updates ingested.
    pub updates_received: u64,
    /// Updates applied post-coalescing.
    pub updates_applied: u64,
    /// Updates absorbed by a later op on the same prefix.
    pub updates_superseded: u64,
    /// Annihilated announce-then-withdraw pairs.
    pub updates_cancelled: u64,
    /// Elided no-op announcements.
    pub updates_elided: u64,
    /// Batches processed.
    pub batches: u64,
    /// Epochs published.
    pub epochs: u64,
    /// Fraction of ingested updates absorbed before the pipeline.
    pub coalesce_ratio: f64,
    /// Lookups submitted to the service.
    pub arrivals: u64,
    /// Lookups completed.
    pub completions: u64,
    /// Always 0: the live router never diverts (Figure 1's diversion
    /// lives in `clue_core::engine`). Kept for snapshot readers.
    pub diversions: u64,
    /// Always 0, like [`diversions`](Self::diversions).
    pub dred_hits: u64,
    /// Always 0, like [`diversions`](Self::diversions).
    pub dred_misses: u64,
    /// Updates rejected by the ingress overflow policy.
    pub update_drops: u64,
    /// Batches journaled to the write-ahead log (0 without a journal).
    pub journal_appends: u64,
    /// Failed journal appends/checkpoints (acks held back, batches
    /// still applied).
    pub journal_errors: u64,
    /// The published lookup plane (backend, size, heap) — filled by
    /// [`RouterService::stats`](crate::RouterService::stats), `None`
    /// from a bare registry snapshot.
    pub plane: Option<PlaneInfo>,
}

impl StatsSnapshot {
    /// Renders the snapshot as a single JSON object (one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let updates = json::object()
            .int("received", self.updates_received)
            .int("applied", self.updates_applied)
            .int("superseded", self.updates_superseded)
            .int("cancelled", self.updates_cancelled)
            .int("elided", self.updates_elided)
            .int("batches", self.batches)
            .int("epochs", self.epochs)
            .fixed("coalesce_ratio", self.coalesce_ratio, 4)
            .int("dropped", self.update_drops)
            .finish();
        let overflow = json::object().int("update_drops", self.update_drops);
        let journal = json::object()
            .int("appends", self.journal_appends)
            .int("errors", self.journal_errors)
            .finish();
        let packets = json::object()
            .int("arrivals", self.arrivals)
            .int("completions", self.completions)
            .int("diversions", self.diversions)
            .int("dred_hits", self.dred_hits)
            .int("dred_misses", self.dred_misses)
            .finish();
        let plane = self.plane.as_ref().map(|p| {
            json::object()
                .str("backend", p.backend.name())
                .int("epoch", p.epoch)
                .int("entries", p.entries as u64)
                .int("heap_bytes", p.heap_bytes as u64)
                .int("replicated", p.replicated)
                .finish()
        });
        json::object()
            .int("workers", self.workers as u64)
            .raw("lookup_ns", &self.lookup_ns.to_json())
            .raw("queue_depth", &self.queue_depth.to_json())
            .raw(
                "per_worker_serviced",
                &json::array(&self.per_worker_serviced),
            )
            .raw("ttf_update_ns", &self.ttf_update_ns.to_json())
            .raw("ttf_batch_ns", &self.ttf_batch_ns.to_json())
            .raw("updates", &updates)
            .raw("overflow", &overflow.finish())
            .raw("journal", &journal)
            .raw("packets", &packets)
            .raw("plane", plane.as_deref().unwrap_or("null"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merges_worker_histograms() {
        let stats = RouterStats::new(3);
        stats.worker(0).lookup_ns.record(100);
        stats.worker(1).lookup_ns.record(1_000);
        stats.worker(2).lookup_ns.record(10_000);
        stats.worker(0).serviced = 5;
        stats.worker(2).serviced = 7;
        let s = stats.snapshot();
        assert_eq!(s.lookup_ns.count(), 3);
        assert_eq!(s.lookup_ns.min(), 100);
        assert_eq!(s.lookup_ns.max(), 10_000);
        assert_eq!(s.per_worker_serviced, vec![5, 0, 7]);
    }

    #[test]
    fn coalesce_ratio_tracks_absorption() {
        let stats = RouterStats::new(1);
        {
            let mut u = stats.update();
            u.received = 100;
            u.applied = 60;
        }
        let s = stats.snapshot();
        assert!((s.coalesce_ratio - 0.4).abs() < 1e-9);
        assert_eq!(RouterStats::new(1).snapshot().coalesce_ratio, 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let stats = RouterStats::new(2);
        stats.worker(0).lookup_ns.record(42);
        stats.worker(1).serviced = 7;
        {
            let mut u = stats.update();
            u.received = 3;
            u.applied = 2;
        }
        stats.count_arrivals(1);
        stats.count_completions(1);
        stats.count_update_drop();
        let empty = "{\"count\":0,\"min\":0,\"mean\":0.0,\"p50\":0,\"p90\":0,\"p99\":0,\"max\":0}";
        let doc = |plane: &str| {
            [
                "{\"workers\":2,\"lookup_ns\":",
                "{\"count\":1,\"min\":42,\"mean\":42.0,\"p50\":32,\"p90\":32,\"p99\":32,\"max\":42}",
                ",\"queue_depth\":",
                empty,
                ",\"per_worker_serviced\":[0,7],\"ttf_update_ns\":",
                empty,
                ",\"ttf_batch_ns\":",
                empty,
                ",\"updates\":{\"received\":3,\"applied\":2,\"superseded\":0,\"cancelled\":0,\
                 \"elided\":0,\"batches\":0,\"epochs\":0,\"coalesce_ratio\":0.3333,\"dropped\":1},\
                 \"overflow\":{\"update_drops\":1},\"journal\":{\"appends\":0,\"errors\":0},\
                 \"packets\":{\"arrivals\":1,\"completions\":1,\"diversions\":0,\"dred_hits\":0,\
                 \"dred_misses\":0},\"plane\":",
                plane,
                "}",
            ]
            .concat()
        };
        let mut snap = stats.snapshot();
        assert_eq!(snap.to_json(), doc("null"));
        snap.plane = Some(PlaneInfo {
            backend: BackendKind::Tcam,
            epoch: 4,
            entries: 900,
            heap_bytes: 12_345,
            replicated: 3,
        });
        assert_eq!(
            snap.to_json(),
            doc("{\"backend\":\"tcam\",\"epoch\":4,\"entries\":900,\"heap_bytes\":12345,\"replicated\":3}")
        );
    }
}
