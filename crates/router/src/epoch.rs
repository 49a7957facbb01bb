//! Epoch-style published state for the lookup workers.
//!
//! The update plane never mutates a structure a worker is reading.
//! Instead, after each applied batch it rebuilds the per-worker lookup
//! planes from the new compressed table and publishes them as one
//! immutable [`EpochState`] behind an `Arc`. Workers load an atomic
//! epoch counter (`Acquire`, paired with the publisher's `Release`)
//! once per packet and, only when it moved, swap
//! their local `Arc` for the new one — so every worker observes a batch
//! atomically (all of its entry changes or none) and two workers can
//! never serve lookups from different halves of one batch *published*
//! state.
//!
//! Each per-worker plane is one [`LookupPlane`] backend, selected by
//! [`BackendKind`]: the cycle-cost TCAM sim (the default, the paper's
//! hardware model), the flattened multibit trie, or the entropy-style
//! compressed FIB. Because a plane is built fresh from the post-batch
//! compressed table and never touched again, every backend gets the
//! paper's update semantics for free — the epoch swap *is* the update.
//!
//! Partition cuts are **fixed at start-up** (CLUE's even-range split of
//! the initial compressed table). Updates shift route boundaries, so a
//! later route may *span* a cut; such a route is replicated into every
//! bucket it touches. Because ONRTC output is non-overlapping, the
//! route matching an address always contains it, hence lives in (a
//! replica of) the address's own bucket — lookups stay local to one
//! worker. The replica count is the *dynamic redundancy* the paper's
//! title promises to keep small; [`EpochState::replicated`] exposes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clue_core::lookup::{build_plane, BackendKind, LookupPlane};
use clue_fib::{Route, RouteTable};
use clue_partition::{Indexer, RangeIndex};
use clue_tile::TileSet;
use parking_lot::Mutex;

/// One immutable generation of the lookup plane's view.
#[derive(Debug)]
pub struct EpochState {
    /// Monotonic generation number (0 = initial table).
    pub epoch: u64,
    /// One lookup plane per worker, holding its bucket of the
    /// compressed table (plus replicas of cut-spanning routes).
    pub planes: Vec<Box<dyn LookupPlane>>,
    /// Which backend the planes were built with.
    pub backend: BackendKind,
    /// Entries in the compressed table this epoch was built from.
    pub entries: usize,
    /// Routes stored in more than one bucket (extra copies only):
    /// the dynamic redundancy introduced by updates since start-up.
    pub replicated: u64,
}

impl EpochState {
    /// Builds an epoch by distributing `compressed` (which must be
    /// non-overlapping) over `workers` buckets along `index`'s fixed
    /// cuts, replicating any route that spans a cut, then compiling
    /// each bucket into a `backend` lookup plane.
    ///
    /// # Panics
    ///
    /// Panics if `workers` disagrees with `index.bucket_count()`.
    #[must_use]
    pub fn build(
        epoch: u64,
        compressed: &RouteTable,
        index: &RangeIndex,
        workers: usize,
        backend: BackendKind,
    ) -> Self {
        // The tiled backend's builder lives upstream of clue-core; make
        // sure it is registered before any build_plane(Tiled) below.
        clue_tile::install();
        assert_eq!(
            index.bucket_count(),
            workers,
            "index must have one bucket per worker"
        );
        let mut buckets: Vec<Vec<Route>> = (0..workers).map(|_| Vec::new()).collect();
        let mut replicated = 0u64;
        for r in compressed.iter() {
            let first = index.bucket_of(r.prefix.low());
            let last = index.bucket_of(r.prefix.high());
            replicated += (last - first) as u64;
            for bucket in &mut buckets[first..=last] {
                bucket.push(r);
            }
        }
        let planes = buckets
            .iter()
            .map(|routes| build_plane(backend, routes))
            .collect();
        EpochState {
            epoch,
            planes,
            backend,
            entries: compressed.len(),
            replicated,
        }
    }

    /// Builds a tiled epoch from a live [`TileSet`] maintainer without
    /// recompiling anything: each worker's plane is an `Arc` snapshot
    /// of the tiles overlapping its bucket range. A tile that straddles
    /// a partition cut is *shared* between the adjacent planes (one
    /// `Arc`, two planes); `replicated` counts those extra memberships
    /// — the tiled analogue of cut-spanning route copies.
    ///
    /// # Panics
    ///
    /// Panics if `workers` disagrees with `index.bucket_count()`.
    #[must_use]
    pub fn from_tileset(epoch: u64, set: &TileSet, index: &RangeIndex, workers: usize) -> Self {
        clue_tile::install();
        assert_eq!(
            index.bucket_count(),
            workers,
            "index must have one bucket per worker"
        );
        let cuts = index.cuts();
        let mut planes: Vec<Box<dyn LookupPlane>> = Vec::with_capacity(workers);
        for b in 0..workers {
            let lo = if b == 0 { 0 } else { cuts[b - 1] };
            let hi = if b + 1 == workers {
                u32::MAX
            } else {
                cuts[b] - 1
            };
            planes.push(Box::new(set.plane_for_range(lo, hi)));
        }
        let replicated = cuts
            .iter()
            .filter(|&&c| set.tiles()[set.tile_of(c)].start() < c)
            .count() as u64;
        EpochState {
            epoch,
            planes,
            backend: BackendKind::Tiled,
            entries: set.route_count(),
            replicated,
        }
    }
}

/// The publish/subscribe cell workers read epochs through.
///
/// `current` holds the latest `Arc<EpochState>`; `version` mirrors its
/// epoch number so readers can detect staleness with one `Acquire`
/// atomic load instead of taking the lock on every packet.
#[derive(Debug)]
pub struct EpochCell {
    current: Mutex<Arc<EpochState>>,
    version: AtomicU64,
}

impl EpochCell {
    /// Creates the cell with an initial epoch.
    #[must_use]
    pub fn new(initial: EpochState) -> Self {
        EpochCell {
            version: AtomicU64::new(initial.epoch),
            current: Mutex::new(Arc::new(initial)),
        }
    }

    /// Publishes a new epoch (update thread only).
    ///
    /// The lock is written *before* the version so a reader that
    /// observes the new version is guaranteed to load the new state.
    pub fn publish(&self, state: EpochState) {
        let epoch = state.epoch;
        *self.current.lock() = Arc::new(state);
        self.version.store(epoch, Ordering::Release);
    }

    /// The currently published epoch number (one `Acquire` load).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Loads the current state (takes the lock briefly).
    #[must_use]
    pub fn load(&self) -> Arc<EpochState> {
        Arc::clone(&self.current.lock())
    }

    /// Refreshes `local` if a newer epoch has been published; returns
    /// whether it changed. Workers call this once per packet.
    pub fn refresh(&self, local: &mut Arc<EpochState>) -> bool {
        if self.version() == local.epoch {
            return false;
        }
        *local = self.load();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_fib::{NextHop, Prefix};
    use clue_partition::EvenRangePartition;

    fn disjoint_table(count: u32) -> RouteTable {
        (0..count)
            .map(|i| (Prefix::new(i << 16, 16), NextHop((i % 5) as u16)))
            .collect()
    }

    #[test]
    fn initial_epoch_has_zero_redundancy() {
        let t = disjoint_table(32);
        let index = EvenRangePartition::split(&t, 4).index().clone();
        let e = EpochState::build(0, &t, &index, 4, BackendKind::Tcam);
        assert_eq!(e.replicated, 0, "cuts fall on route boundaries");
        assert_eq!(e.planes.len(), 4);
        let held: usize = e.planes.iter().map(|p| p.len()).sum();
        assert_eq!(held, t.len());
    }

    #[test]
    fn cut_spanning_route_is_replicated_and_found_locally() {
        let t = disjoint_table(32);
        let index = EvenRangePartition::split(&t, 4).index().clone();
        // A later update merges a wide route across every cut.
        let mut evolved = RouteTable::new();
        evolved.insert(Prefix::new(0, 4), NextHop(9));
        for backend in BackendKind::ALL {
            let e = EpochState::build(1, &evolved, &index, 4, backend);
            assert_eq!(e.replicated, 3, "one copy per extra bucket spanned");
            // Every address's own bucket can resolve it locally.
            for addr in [0u32, 9 << 16, 17 << 16, 30 << 16] {
                let b = index.bucket_of(addr);
                assert_eq!(
                    e.planes[b].next_hop(addr),
                    Some(NextHop(9)),
                    "addr {addr:#x} must resolve in bucket {b} ({backend})"
                );
            }
        }
    }

    #[test]
    fn every_backend_agrees_on_the_published_partition() {
        let t = disjoint_table(64);
        let index = EvenRangePartition::split(&t, 4).index().clone();
        let states: Vec<EpochState> = BackendKind::ALL
            .iter()
            .map(|&k| EpochState::build(0, &t, &index, 4, k))
            .collect();
        for addr in (0u32..64 << 16).step_by(1 << 12) {
            let b = index.bucket_of(addr);
            let answers: Vec<_> = states.iter().map(|e| e.planes[b].lookup(addr)).collect();
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "backends disagree at {addr:#x}: {answers:?}"
            );
        }
    }

    #[test]
    fn cell_publish_is_observed_via_refresh() {
        let t = disjoint_table(8);
        let index = EvenRangePartition::split(&t, 2).index().clone();
        let cell = EpochCell::new(EpochState::build(0, &t, &index, 2, BackendKind::Tcam));
        let mut local = cell.load();
        assert!(!cell.refresh(&mut local), "nothing published yet");
        cell.publish(EpochState::build(1, &t, &index, 2, BackendKind::Tcam));
        assert!(cell.refresh(&mut local));
        assert_eq!(local.epoch, 1);
        assert!(!cell.refresh(&mut local), "already current");
    }

    #[test]
    fn tileset_epoch_matches_full_rebuild() {
        let t = disjoint_table(64);
        let index = EvenRangePartition::split(&t, 4).index().clone();
        let routes: Vec<Route> = t.iter().collect();
        let set = clue_tile::TileSet::build(clue_tile::TileConfig::with_capacity(16), &routes);
        let inc = EpochState::from_tileset(1, &set, &index, 4);
        let full = EpochState::build(1, &t, &index, 4, BackendKind::Tiled);
        assert_eq!(inc.backend, BackendKind::Tiled);
        assert_eq!(inc.entries, t.len());
        for addr in (0u32..64 << 16).step_by(1 << 11) {
            let b = index.bucket_of(addr);
            assert_eq!(
                inc.planes[b].next_hop(addr),
                full.planes[b].next_hop(addr),
                "addr {addr:#x} in bucket {b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one bucket per worker")]
    fn build_rejects_mismatched_worker_count() {
        let t = disjoint_table(8);
        let index = EvenRangePartition::split(&t, 2).index().clone();
        let _ = EpochState::build(0, &t, &index, 3, BackendKind::Tcam);
    }
}
