//! Tiled TCAM scale-out: multi-million-prefix tables over fixed-size
//! tiles.
//!
//! A single TCAM chip holds the ONRTC-compressed table only up to its
//! slot budget; past that, MashUp (arXiv 2204.09813) packs the table
//! into fixed-size **tiles** and routes each lookup through two levels:
//! an **index tile** maps the address to the one leaf tile that can
//! hold its match, and the **leaf tile** resolves the longest match
//! locally. Because the per-tile content is the flattened LPM function
//! of the whole table restricted to the tile's address range (the
//! range-cut primitive of "On Ranges and Partitions in Optimal TCAMs",
//! arXiv 2212.13283), a route whose range spans several tiles is
//! *represented* in each — the tiling analogue of CLUE's dynamic
//! redundancy — and every tile is independently correct.
//!
//! That independence is what buys fast update at scale: the
//! [`TileSet`] maintainer keeps the master route trie plus the tile
//! array, and an update rewrites **only the tiles whose address range
//! it touches** (typically one), splitting a tile that overflows its
//! capacity and merging adjacent underfull tiles, instead of
//! recompressing and reloading the whole table. [`TiledPlane`] is the
//! immutable snapshot view: tiles are shared by `Arc`, so publishing a
//! new epoch after a one-tile rewrite copies one tile and reuses the
//! rest.
//!
//! Occupancy invariant: a live tile holds between 1 and
//! `capacity` intervals; a fresh build and every split aim at
//! `capacity / 2` so each tile has headroom before the next split, and
//! merges fire only when two neighbours fit in `capacity / 2` together,
//! so a merge never produces a tile that immediately wants to split
//! (hysteresis).

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::sync::Arc;

use clue_compress::{range_cover, TableDiff};
use clue_core::{BackendKind, LookupPlane};
use clue_fib::{NextHop, Route, Trie};
use clue_partition::capacity_cuts;

/// Tuning for a tiled plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Maximum flattened LPM intervals per tile. A tile that exceeds
    /// this after an update is split; fresh builds and splits fill
    /// tiles to half of it.
    pub capacity: usize,
}

impl TileConfig {
    /// Default tile capacity (intervals per tile).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A config with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a tile must be able to split).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "tile capacity must be at least 2");
        TileConfig { capacity }
    }

    /// The fill a fresh build or a split aims for: half the capacity,
    /// so every tile starts with headroom.
    #[must_use]
    pub fn fill_target(self) -> usize {
        (self.capacity / 2).max(1)
    }

    /// Two adjacent tiles merge only if their combined intervals fit
    /// in this bound — equal to the fill target, so a merged tile is
    /// no fuller than a freshly split one.
    #[must_use]
    pub fn merge_limit(self) -> usize {
        self.fill_target()
    }
}

impl Default for TileConfig {
    /// `DEFAULT_CAPACITY` intervals, overridable via the
    /// `CLUE_TILE_CAPACITY` environment variable (used by the bench
    /// sweep and by `--backend tiled` runs that want a different tile
    /// geometry without a new flag on every subcommand).
    fn default() -> Self {
        let capacity = std::env::var("CLUE_TILE_CAPACITY")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c| c >= 2)
            .unwrap_or(Self::DEFAULT_CAPACITY);
        TileConfig { capacity }
    }
}

/// One leaf tile: the flattened LPM function over `[start, end]`.
///
/// `entries` are `(interval start, label)` pairs in ascending order;
/// the label (the matched route, or `None` for a miss) holds until the
/// next entry's start. `entries[0].0 == start` always, so a tile
/// answers any address in its range without consulting its neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    start: u32,
    end: u32,
    entries: Vec<(u32, Option<Route>)>,
}

impl Tile {
    /// First address this tile covers.
    #[must_use]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Last address this tile covers (inclusive).
    #[must_use]
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Flattened intervals stored (the tile's occupancy numerator).
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.entries.len()
    }

    /// Longest-prefix match for `addr`, which must lie in
    /// `[start, end]`.
    #[must_use]
    pub fn lookup(&self, addr: u32) -> Option<Route> {
        debug_assert!(self.start <= addr && addr <= self.end);
        let i = self.entries.partition_point(|&(s, _)| s <= addr) - 1;
        self.entries[i].1
    }

    fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(u32, Option<Route>)>()
    }
}

/// Rewrite work one [`TileSet::apply`] performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TileChurn {
    /// Tiles written this apply (rebuilt in place, split products, and
    /// merge products).
    pub tiles_rewritten: usize,
    /// Splits performed (an overflowing tile becoming `k` tiles counts
    /// `k - 1`).
    pub splits: usize,
    /// Merges performed (each merge removes one tile).
    pub merges: usize,
}

impl TileChurn {
    fn absorb(&mut self, other: TileChurn) {
        self.tiles_rewritten += other.tiles_rewritten;
        self.splits += other.splits;
        self.merges += other.merges;
    }
}

/// The incremental tile maintainer: master route trie + tile array.
///
/// Built once from a route snapshot; [`apply`](Self::apply) then keeps
/// the tiles in sync with a [`TableDiff`] per update batch, rewriting
/// only the affected tiles. [`plane`](Self::plane) snapshots the
/// current tiles (by `Arc`) into an immutable [`TiledPlane`].
#[derive(Debug)]
pub struct TileSet {
    cfg: TileConfig,
    trie: Trie<NextHop>,
    /// Contiguous, ascending, covering `[0, u32::MAX]` with no gaps.
    tiles: Vec<Arc<Tile>>,
    total: TileChurn,
}

impl TileSet {
    /// Builds the tile set over `routes` (overlap allowed; tiles
    /// resolve the longest match, like every other backend).
    #[must_use]
    pub fn build(cfg: TileConfig, routes: &[Route]) -> Self {
        let trie: Trie<NextHop> = routes.iter().map(|r| (r.prefix, r.next_hop)).collect();
        let intervals = range_cover(&trie, 0, u32::MAX);
        let starts: Vec<u32> = intervals.iter().map(|&(s, _)| s).collect();
        let cuts = capacity_cuts(&starts, cfg.fill_target());
        let mut tiles = Vec::with_capacity(cuts.len() + 1);
        let mut rest = intervals.as_slice();
        for (i, &cut) in cuts.iter().enumerate() {
            let n = rest.partition_point(|&(s, _)| s < cut);
            let end = cut - 1;
            tiles.push(Arc::new(Tile {
                start: rest[0].0,
                end,
                entries: rest[..n].to_vec(),
            }));
            rest = &rest[n..];
            debug_assert_eq!(rest[0].0, cut, "cut {i} not on an interval start");
        }
        tiles.push(Arc::new(Tile {
            start: rest[0].0,
            end: u32::MAX,
            entries: rest.to_vec(),
        }));
        TileSet {
            cfg,
            trie,
            tiles,
            total: TileChurn::default(),
        }
    }

    /// The config this set was built with.
    #[must_use]
    pub fn config(&self) -> TileConfig {
        self.cfg
    }

    /// Routes currently represented.
    #[must_use]
    pub fn route_count(&self) -> usize {
        self.trie.len()
    }

    /// Leaf tiles currently live.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Cumulative churn over every `apply` since build.
    #[must_use]
    pub fn total_churn(&self) -> TileChurn {
        self.total
    }

    /// Mean fill fraction: stored intervals over total tile capacity.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let stored: usize = self.tiles.iter().map(|t| t.occupied()).sum();
        stored as f64 / (self.tiles.len() * self.cfg.capacity) as f64
    }

    /// Index-tile step: which leaf tile covers `addr`.
    #[must_use]
    pub fn tile_of(&self, addr: u32) -> usize {
        self.tiles.partition_point(|t| t.start <= addr) - 1
    }

    /// The live tiles, ascending by range (for diagnostics and tests).
    #[must_use]
    pub fn tiles(&self) -> &[Arc<Tile>] {
        &self.tiles
    }

    /// Applies one batch diff, rewriting only the tiles whose address
    /// range the changed prefixes touch, and splitting/merging as
    /// occupancy demands. Returns what was rewritten.
    ///
    /// `diff` must be a canonical set-diff — each prefix in at most one
    /// of the three lists — which is the shape `CompressedFib::apply`
    /// emits. (With a prefix in several lists the net effect would
    /// depend on application order, which a set-diff has no notion of.)
    pub fn apply(&mut self, diff: &TableDiff) -> TileChurn {
        // 1. Mutate the master trie, collecting dirty address ranges.
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for r in diff.inserts.iter().chain(&diff.modifies) {
            self.trie.insert(r.prefix, r.next_hop);
            ranges.push((r.prefix.low(), r.prefix.high()));
        }
        for &p in &diff.deletes {
            self.trie.remove(p);
            ranges.push((p.low(), p.high()));
        }
        if ranges.is_empty() {
            return TileChurn::default();
        }

        // 2. Dirty tile indices, as sorted maximal runs.
        let mut dirty: Vec<usize> = Vec::new();
        for &(lo, hi) in &ranges {
            dirty.extend(self.tile_of(lo)..=self.tile_of(hi));
        }
        dirty.sort_unstable();
        dirty.dedup();

        // 3. Rebuild each maximal run of dirty tiles from the trie.
        let mut churn = TileChurn::default();
        let mut out: Vec<Arc<Tile>> = Vec::with_capacity(self.tiles.len());
        let mut next = 0usize; // next existing tile to consume
        let mut d = 0usize;
        while d < dirty.len() {
            let first = dirty[d];
            let mut last = first;
            while d + 1 < dirty.len() && dirty[d + 1] == last + 1 {
                d += 1;
                last = dirty[d];
            }
            d += 1;
            out.extend_from_slice(&self.tiles[next..first]);
            churn.absorb(self.rebuild_run(first, last, &mut out));
            next = last + 1;
        }
        out.extend_from_slice(&self.tiles[next..]);
        self.tiles = out;

        // 4. Merge pass around what was rewritten. A merge writes one
        // more tile, so it counts toward the rewrite total.
        churn.merges = self.merge_pass(&dirty, churn.splits);
        churn.tiles_rewritten += churn.merges;
        self.total.absorb(churn);
        churn
    }

    /// Rebuilds tiles `first..=last` from the trie into `out`,
    /// splitting on overflow. Returns the rewrite/split counts.
    fn rebuild_run(&self, first: usize, last: usize, out: &mut Vec<Arc<Tile>>) -> TileChurn {
        let lo = self.tiles[first].start;
        let hi = self.tiles[last].end;
        let old_count = last - first + 1;
        // Rebuild each dirty tile over its own range so clean cut
        // points survive and churn stays local to the edit.
        let mut produced = 0usize;
        for t in &self.tiles[first..=last] {
            let entries = range_cover(&self.trie, t.start, t.end);
            if entries.len() <= self.cfg.capacity {
                produced += 1;
                out.push(Arc::new(Tile {
                    start: t.start,
                    end: t.end,
                    entries,
                }));
                continue;
            }
            // Overflow: split into chunks near the fill target.
            let starts: Vec<u32> = entries.iter().map(|&(s, _)| s).collect();
            let cuts = capacity_cuts(&starts, self.cfg.fill_target());
            let mut rest = entries.as_slice();
            for &cut in &cuts {
                let n = rest.partition_point(|&(s, _)| s < cut);
                out.push(Arc::new(Tile {
                    start: rest[0].0,
                    end: cut - 1,
                    entries: rest[..n].to_vec(),
                }));
                rest = &rest[n..];
                produced += 1;
            }
            out.push(Arc::new(Tile {
                start: rest[0].0,
                end: t.end,
                entries: rest.to_vec(),
            }));
            produced += 1;
        }
        debug_assert_eq!(out.last().unwrap().end, hi);
        debug_assert_eq!(out[out.len() - produced].start, lo);
        TileChurn {
            tiles_rewritten: produced,
            splits: produced - old_count,
            merges: 0,
        }
    }

    /// Greedy left-to-right merge over the dirty neighbourhoods: two
    /// adjacent tiles merge while their combined occupancy fits
    /// `merge_limit()` and at least one of them was just rewritten.
    /// Returns the number of merges.
    fn merge_pass(&mut self, dirty: &[usize], splits: usize) -> usize {
        if self.tiles.len() < 2 || dirty.is_empty() {
            return 0;
        }
        // Splits shift indices right of the split point; widening the
        // candidate window by the split count keeps every rewritten
        // tile (and its neighbours) in scope without re-deriving exact
        // indices.
        let lo_tile = dirty[0].saturating_sub(1);
        let hi_tile = (dirty[dirty.len() - 1] + splits + 1).min(self.tiles.len() - 1);
        let mut merges = 0usize;
        let mut i = lo_tile;
        while i < hi_tile.min(self.tiles.len().saturating_sub(1)) {
            let combined = self.tiles[i].occupied() + self.tiles[i + 1].occupied();
            if combined <= self.cfg.merge_limit() {
                let a = &self.tiles[i];
                let b = &self.tiles[i + 1];
                let mut entries = Vec::with_capacity(combined);
                entries.extend_from_slice(&a.entries);
                // Coalesce the boundary if the label continues across it.
                if entries.last().map(|(_, l)| l) == Some(&b.entries[0].1) {
                    entries.extend_from_slice(&b.entries[1..]);
                } else {
                    entries.extend_from_slice(&b.entries);
                }
                let merged = Arc::new(Tile {
                    start: a.start,
                    end: b.end,
                    entries,
                });
                self.tiles.splice(i..=i + 1, [merged]);
                merges += 1;
                // Stay at i: the merged tile may absorb another
                // underfull right neighbour.
            } else {
                i += 1;
            }
        }
        merges
    }

    /// Snapshots the whole set as an immutable plane (tiles shared by
    /// `Arc`, so this is O(tile count), not O(routes)).
    #[must_use]
    pub fn plane(&self) -> TiledPlane {
        TiledPlane {
            starts: self.tiles.iter().map(|t| t.start).collect(),
            tiles: self.tiles.clone(),
            entries: self.trie.len(),
            capacity: self.cfg.capacity,
        }
    }

    /// Snapshots only the tiles overlapping `[lo, hi]` — the epoch
    /// publication path hands each lookup worker the plane for its
    /// partition bucket, and a tile spanning a bucket cut is *shared*
    /// (one `Arc`, two planes) rather than copied: tiling's answer to
    /// dynamic redundancy.
    #[must_use]
    pub fn plane_for_range(&self, lo: u32, hi: u32) -> TiledPlane {
        let first = self.tile_of(lo);
        let last = self.tile_of(hi);
        let tiles: Vec<Arc<Tile>> = self.tiles[first..=last].to_vec();
        TiledPlane {
            starts: tiles.iter().map(|t| t.start).collect(),
            tiles,
            entries: self.trie.len(),
            capacity: self.cfg.capacity,
        }
    }

    /// Structural invariants, asserted by tests after every operation:
    /// contiguous coverage of the full address space, every tile
    /// non-empty, within capacity, and self-anchored (first entry at
    /// the tile start).
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        assert!(!self.tiles.is_empty());
        assert_eq!(self.tiles[0].start, 0, "coverage starts at 0");
        assert_eq!(
            self.tiles.last().unwrap().end,
            u32::MAX,
            "coverage ends at MAX"
        );
        for w in self.tiles.windows(2) {
            assert_eq!(
                w[1].start,
                w[0].end + 1,
                "tiles contiguous at {:#x}",
                w[0].end
            );
        }
        for t in &self.tiles {
            assert!(t.start <= t.end);
            assert!(!t.entries.is_empty(), "tile holds at least one interval");
            assert!(
                t.entries.len() <= self.cfg.capacity,
                "tile over capacity: {} > {}",
                t.entries.len(),
                self.cfg.capacity
            );
            assert_eq!(t.entries[0].0, t.start, "tile anchored at its start");
            assert!(t.entries.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(t.entries.last().unwrap().0 <= t.end);
        }
    }
}

/// The immutable two-level snapshot: the index (`starts`) routes an
/// address to its leaf tile, the leaf tile resolves the match.
#[derive(Debug)]
pub struct TiledPlane {
    /// The index tile: `starts[i]` is `tiles[i].start`.
    starts: Vec<u32>,
    tiles: Vec<Arc<Tile>>,
    entries: usize,
    capacity: usize,
}

impl TiledPlane {
    /// Builds a standalone plane over a route snapshot with `cfg`.
    #[must_use]
    pub fn build(cfg: TileConfig, routes: &[Route]) -> Self {
        TileSet::build(cfg, routes).plane()
    }

    /// Leaf tiles behind this plane.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Mean fill fraction over this plane's tiles.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let stored: usize = self.tiles.iter().map(|t| t.occupied()).sum();
        stored as f64 / (self.tiles.len() * self.capacity) as f64
    }
}

impl LookupPlane for TiledPlane {
    fn kind(&self) -> BackendKind {
        BackendKind::Tiled
    }

    fn lookup(&self, addr: u32) -> Option<Route> {
        if self.starts.is_empty() || addr < self.starts[0] {
            return None;
        }
        let i = self.starts.partition_point(|&s| s <= addr) - 1;
        let tile = &self.tiles[i];
        if addr > tile.end {
            return None;
        }
        tile.lookup(addr)
    }

    fn len(&self) -> usize {
        self.entries
    }

    fn heap_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>()
            + self
                .tiles
                .iter()
                .map(|t| t.heap_bytes() + std::mem::size_of::<Arc<Tile>>())
                .sum::<usize>()
    }
}

fn build_tiled_plane(routes: &[Route]) -> Box<dyn LookupPlane> {
    Box::new(TiledPlane::build(TileConfig::default(), routes))
}

/// Registers the `tiled` backend with `clue-core`'s plane registry so
/// `build_plane(BackendKind::Tiled, ..)` works process-wide.
/// Idempotent; every entry point that may run with `--backend tiled`
/// (router service, oracle, CLI, benches) calls it.
pub fn install() {
    clue_core::register_tiled_builder(build_tiled_plane);
}

#[cfg(test)]
mod tests;
