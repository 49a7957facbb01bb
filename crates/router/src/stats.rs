//! The router's metrics registry and its JSON snapshots.
//!
//! Every worker owns a slot of per-thread [`Histogram`]s behind a
//! `parking_lot` mutex, taken once per job by the worker, once per send
//! by the caller recording the FIFO depth, and by the snapshot reader;
//! the update plane has one more slot; hard counters are atomics. A
//! [`StatsSnapshot`] is a consistent-enough point-in-time aggregation —
//! worker histograms are merged with [`Histogram::merge`] — rendered to
//! JSON by hand (the workspace deliberately carries no serde).

use std::sync::atomic::{AtomicU64, Ordering};

use clue_core::lookup::BackendKind;
use clue_core::metrics::Histogram;
use parking_lot::Mutex;

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
    pub fn worker(&self, i: usize) -> parking_lot::MutexGuard<'_, WorkerStats> {
        self.workers[i].lock()
    }

    /// Locks the update-plane slot for recording.
    pub fn update(&self) -> parking_lot::MutexGuard<'_, UpdateStats> {
        self.update.lock()
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
            let w = w.lock();
            lookup_ns.merge(&w.lookup_ns);
            queue_depth.merge(&w.queue_depth);
            per_worker_serviced.push(w.serviced);
        }
        let u = self.update.lock();
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

impl PlaneInfo {
    /// Renders as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"backend\":\"{}\",\"epoch\":{},\"entries\":{},\
             \"heap_bytes\":{},\"replicated\":{}}}",
            self.backend.name(),
            self.epoch,
            self.entries,
            self.heap_bytes,
            self.replicated,
        )
    }
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
        let serviced = self
            .per_worker_serviced
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"workers\":{},\"lookup_ns\":{},\"queue_depth\":{},\
             \"per_worker_serviced\":[{}],\
             \"ttf_update_ns\":{},\"ttf_batch_ns\":{},\
             \"updates\":{{\"received\":{},\"applied\":{},\"superseded\":{},\
             \"cancelled\":{},\"elided\":{},\"batches\":{},\"epochs\":{},\
             \"coalesce_ratio\":{:.4},\"dropped\":{}}},\
             \"overflow\":{{\"update_drops\":{}}},\
             \"journal\":{{\"appends\":{},\"errors\":{}}},\
             \"packets\":{{\"arrivals\":{},\"completions\":{},\"diversions\":{},\
             \"dred_hits\":{},\"dred_misses\":{}}},\
             \"plane\":{}}}",
            self.workers,
            self.lookup_ns.to_json(),
            self.queue_depth.to_json(),
            serviced,
            self.ttf_update_ns.to_json(),
            self.ttf_batch_ns.to_json(),
            self.updates_received,
            self.updates_applied,
            self.updates_superseded,
            self.updates_cancelled,
            self.updates_elided,
            self.batches,
            self.epochs,
            self.coalesce_ratio,
            self.update_drops,
            self.update_drops,
            self.journal_appends,
            self.journal_errors,
            self.arrivals,
            self.completions,
            self.diversions,
            self.dred_hits,
            self.dred_misses,
            self.plane
                .as_ref()
                .map_or_else(|| "null".to_string(), PlaneInfo::to_json),
        )
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
        stats.count_arrivals(1);
        stats.count_completions(1);
        stats.count_update_drop();
        let json = stats.snapshot().to_json();
        // Balanced braces/brackets and the headline fields present.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"lookup_ns\":",
            "\"ttf_batch_ns\":",
            "\"coalesce_ratio\":",
            "\"dropped\":1",
            "\"overflow\":{\"update_drops\":1}",
            "\"journal\":{\"appends\":0,\"errors\":0}",
            "\"arrivals\":1",
            "\"completions\":1",
            "\"p99\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("NaN"));
    }
}
