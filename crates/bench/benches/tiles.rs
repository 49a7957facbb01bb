//! Tiled scale-out numbers: tile capacity × table scale → tiles used,
//! occupancy, lookup throughput, per-update tiles rewritten, and tile
//! apply-time percentiles. The contract's `tile.*` rows measure one
//! geometry at 390 K routes; this sweep is the scale axis behind them.
//!
//! The headline is the update-locality claim behind the tiled backend:
//! because an update rewrites only the tiles its address range touches,
//! the **median tiles rewritten per update stays ≤ 2 even at 10× the
//! seed table size** — update cost is a function of tile geometry, not
//! table scale. Each point replays the same compressed-table diff
//! stream through a fresh [`TileSet`] and then differentially checks
//! the final tiled plane against a trie built from the final table, so
//! a point that drifts is a panic, not a silently wrong number.

use std::time::Instant;

use clue_bench::{banner, csv_write, scale};
use clue_compress::{CompressedFib, TableDiff};
use clue_core::{build_plane, BackendKind, LookupPlane};
use clue_fib::gen::FibGen;
use clue_fib::Route;
use clue_tile::{TileConfig, TileSet};
use clue_traffic::{PacketGen, UpdateGen};

/// Base table size; the sweep runs 1×, 5×, and 10× of this.
const SEED_ROUTES: usize = 200_000;
/// Scale factors over `SEED_ROUTES`.
const FACTORS: [usize; 3] = [1, 5, 10];
/// Tile capacities swept at every table scale (the middle one is
/// `TileConfig::DEFAULT_CAPACITY`).
const CAPACITIES: [usize; 3] = [1_024, 4_096, 16_384];
/// Updates replayed per table scale (before empty-diff filtering).
const UPDATES: usize = 2_000;

/// The `q`-th percentile (0..=100) of unsorted integer samples.
fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// One table scale, prepared once and shared by every capacity point:
/// the initial compressed snapshot, the diff stream the updates
/// produce, and the final table the replay must land on.
struct Workload {
    routes: usize,
    compressed: usize,
    initial: Vec<Route>,
    diffs: Vec<TableDiff>,
    finals: Vec<Route>,
    addrs: Vec<u32>,
}

impl Workload {
    fn prepare(routes: usize, updates: usize) -> Self {
        let rib = FibGen::new(0xC10E_111E).routes(routes).generate();
        let mut fib = CompressedFib::new(&rib);
        let initial: Vec<Route> = fib.compressed_table().iter().collect();
        let addrs = PacketGen::new(0xC10E_111F).generate(&rib, 65_536);
        // The diff stream is capacity-independent, so compress once and
        // replay the same diffs through every tile geometry.
        let diffs: Vec<TableDiff> = UpdateGen::new(0xC10E_1120)
            .generate(&rib, updates)
            .into_iter()
            .map(|u| fib.apply(u))
            .filter(|d| !d.is_empty())
            .collect();
        let finals: Vec<Route> = fib.compressed_table().iter().collect();
        Workload {
            routes: rib.len(),
            compressed: initial.len(),
            initial,
            diffs,
            finals,
            addrs,
        }
    }
}

struct Point {
    routes: usize,
    compressed: usize,
    capacity: usize,
    tiles: usize,
    occupancy: f64,
    heap_bytes: usize,
    lookups_per_sec: f64,
    updates: usize,
    rewrites_p50: f64,
    rewrites_p99: f64,
    rewrites_mean: f64,
    apply_p50_us: f64,
    apply_p99_us: f64,
    splits: usize,
    merges: usize,
}

impl Point {
    const CSV_HEADER: &'static str = "routes,compressed,capacity,tiles,occupancy,heap_bytes,\
        lookups_per_sec,updates,rewrites_p50,rewrites_p99,rewrites_mean,apply_p50_us,\
        apply_p99_us,splits,merges";

    fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.4},{},{:.1},{},{:.1},{:.1},{:.3},{:.1},{:.1},{},{}",
            self.routes,
            self.compressed,
            self.capacity,
            self.tiles,
            self.occupancy,
            self.heap_bytes,
            self.lookups_per_sec,
            self.updates,
            self.rewrites_p50,
            self.rewrites_p99,
            self.rewrites_mean,
            self.apply_p50_us,
            self.apply_p99_us,
            self.splits,
            self.merges,
        )
    }
}

/// One capacity × scale point: fresh tile set, timed lookups, timed
/// diff replay, then a differential check of the final plane against a
/// trie over the final table. Panics on any disagreement.
fn point(w: &Workload, capacity: usize) -> Point {
    let cfg = TileConfig::with_capacity(capacity);
    let mut set = TileSet::build(cfg, &w.initial);
    let tiles = set.tile_count();
    let occupancy = set.occupancy();

    // Lookup throughput over the snapshot plane — two-level path:
    // index tile then leaf tile.
    let plane = set.plane();
    let heap_bytes = plane.heap_bytes();
    let mut looked = 0u64;
    let mut sink = 0u64;
    let t0 = Instant::now();
    while looked < 1_000_000 {
        for &a in &w.addrs {
            sink = sink.wrapping_add(plane.lookup(a).map_or(0, |r| u64::from(r.next_hop.0)));
        }
        looked += w.addrs.len() as u64;
    }
    let lookups_per_sec = looked as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(sink);

    // Replay the diff stream, recording per-update rewrite counts and
    // apply latency.
    let mut rewrites: Vec<u64> = Vec::with_capacity(w.diffs.len());
    let mut apply_us: Vec<u64> = Vec::with_capacity(w.diffs.len());
    for diff in &w.diffs {
        let t = Instant::now();
        let churn = set.apply(diff);
        apply_us.push(t.elapsed().as_micros() as u64);
        rewrites.push(churn.tiles_rewritten as u64);
    }
    set.check_invariants();
    let total = set.total_churn();

    // Differential check: the replayed tile set must agree with a trie
    // built directly from the final compressed table.
    let final_plane = set.plane();
    let oracle = build_plane(BackendKind::Trie, &w.finals);
    for &a in w.addrs.iter().step_by(7) {
        assert_eq!(
            final_plane.lookup(a),
            oracle.lookup(a),
            "tiled plane diverged at {a:#x} (capacity {capacity})"
        );
    }

    let mean = rewrites.iter().sum::<u64>() as f64 / (rewrites.len() as f64).max(1.0);
    let p = Point {
        routes: w.routes,
        compressed: w.compressed,
        capacity,
        tiles,
        occupancy,
        heap_bytes,
        lookups_per_sec,
        updates: rewrites.len(),
        rewrites_p50: percentile(&rewrites, 50.0),
        rewrites_p99: percentile(&rewrites, 99.0),
        rewrites_mean: mean,
        apply_p50_us: percentile(&apply_us, 50.0),
        apply_p99_us: percentile(&apply_us, 99.0),
        splits: total.splits,
        merges: total.merges,
    };
    println!(
        "{:>9} routes ({:>9} compressed) x cap {:>6}: {:>6} tiles | occ {:>5.1}% | \
         {:>10.0} lookups/s | rewrites p50 {:>4.0} p99 {:>5.0} | apply p99 {:>6.0} us",
        p.routes,
        p.compressed,
        p.capacity,
        p.tiles,
        p.occupancy * 100.0,
        p.lookups_per_sec,
        p.rewrites_p50,
        p.rewrites_p99,
        p.apply_p99_us,
    );
    p
}

fn main() {
    banner(
        "Tiles — tile capacity x table scale -> tiles, occupancy, lookups/s, rewrite locality",
        "beyond the paper: median update rewrites <= 2 tiles at 10x the seed table",
    );
    let s = scale();
    let updates = ((UPDATES as f64 * s) as usize).max(200);

    let mut points: Vec<Point> = Vec::new();
    for factor in FACTORS {
        let routes = ((SEED_ROUTES * factor) as f64 * s) as usize;
        let w = Workload::prepare(routes.max(10_000), updates);
        println!(
            "scale {factor}x: {} routes -> {} compressed, {} effective diffs",
            w.routes,
            w.compressed,
            w.diffs.len()
        );
        for capacity in CAPACITIES {
            points.push(point(&w, capacity));
        }
    }

    // Acceptance headline: at the largest scale and the default tile
    // capacity, the median update rewrites at most 2 tiles.
    let max_routes = points.iter().map(|p| p.routes).max().expect("points");
    let at_max = points
        .iter()
        .find(|p| p.routes == max_routes && p.capacity == TileConfig::DEFAULT_CAPACITY)
        .expect("default-capacity point at max scale");
    assert!(
        at_max.rewrites_p50 <= 2.0,
        "update locality regressed: median {} tiles rewritten at {} routes",
        at_max.rewrites_p50,
        max_routes
    );
    println!(
        "headline: at {} routes (cap {}), median update rewrites {:.0} tile(s), \
         p99 {:.0}, over {} tiles total",
        at_max.routes, at_max.capacity, at_max.rewrites_p50, at_max.rewrites_p99, at_max.tiles
    );

    let rows: Vec<String> = points.iter().map(Point::csv_row).collect();
    csv_write("tiles", Point::CSV_HEADER, &rows);
}
