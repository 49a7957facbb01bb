//! The layer ladder: one row per public entry point of each crate, all
//! measured on the run's one RIB, address streams and update trace, so
//! the cost of a layer is the difference between two adjacent rows.
//!
//! Rows come in two kinds. *Timed* rows loop a call for a slice of the
//! budget and report host time per operation; they vary with the host.
//! *Exact* rows (marked in the README) do a fixed amount of work derived
//! from the seed and report a count or a simulated time; they must
//! repeat bit for bit for a fixed seed, on any host.
//!
//! Backends are named only through `BackendKind::ALL` and transports
//! only through `FromStr`, so a backend or transport that a later PR
//! removes simply stops producing its rows (reported as `null`).

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use clue_cache::LruPrefixCache;
use clue_cluster::{Primary, PrimaryConfig};
use clue_compress::{onrtc, CompressedFib, TableDiff};
use clue_core::{build_plane, BackendKind, CluePipeline, DredConfig, Engine, EngineConfig};
use clue_fib::{Route, RouteTable, Update};
use clue_net::frame::{Frame, FrameType};
use clue_net::{wire, ClientConfig, Connection, Server, ServerConfig, Transport};
use clue_partition::{EvenRangePartition, Indexer, RangeIndex};
use clue_router::{
    coalesce, EpochCell, EpochState, JournalBatch, RouterConfig, RouterService, UpdateJournal,
};
use clue_store::{list_segments, write_snapshot, Snapshot, Store, StoreConfig};
use clue_tcam::{TcamTable, UnorderedTcam, UpdateCost};
use clue_tile::{TileConfig, TileSet};

use crate::inputs::{Inputs, Mix};
use crate::stack::{Stack, StackKind};
use crate::stats;
use crate::workload::Metric;

/// Updates the exact update-path rows replay (a prefix of the trace).
const EXACT_UPDATES: usize = 2_000;
/// Addresses the exact cache and engine rows replay (a prefix of `zipf`).
const EXACT_PACKETS: usize = 200_000;
/// Transport spellings tried through `FromStr`.
const TRANSPORTS: [&str; 2] = ["threads", "evloop"];

struct Rows {
    rows: Vec<Metric>,
    /// Time budget of one timed row.
    slice: Duration,
}

impl Rows {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.rows
            .push(Metric::new(name, Some(value), unit, samples));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|m| m.name == name)?.value
    }

    /// Pushes `a - b` when both rows exist (adjacent-row difference).
    fn push_diff(&mut self, name: &str, a: &str, b: &str, unit: &'static str) {
        if let (Some(a), Some(b)) = (self.get(a), self.get(b)) {
            self.push(name, a - b, unit, 0);
        }
    }

    /// Loops `op` over the cycled `stream` for one slice: ns per address.
    fn per_addr(
        &mut self,
        name: impl Into<String>,
        stream: &[u32],
        mut op: impl FnMut(u32) -> u64,
    ) {
        let mut sink = 0u64;
        let mut done = 0u64;
        let t = Instant::now();
        'outer: loop {
            for chunk in stream.chunks(1024) {
                for &a in chunk {
                    sink = sink.wrapping_add(op(a));
                }
                done += chunk.len() as u64;
                if t.elapsed() >= self.slice {
                    break 'outer;
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64 / done as f64;
        black_box(sink);
        self.push(name, ns, "ns", done);
    }

    /// Loops a fallible round trip for `slices` slices: median µs per
    /// call. Returns the sorted latencies.
    fn round_trip(
        &mut self,
        name: impl Into<String>,
        slices: u32,
        mut op: impl FnMut(u64) -> io::Result<()>,
    ) -> io::Result<Vec<f64>> {
        let mut lat = Vec::new();
        // A few unmeasured calls first: the serving thread is scheduled.
        for i in 0..8 {
            op(i)?;
        }
        let t = Instant::now();
        while t.elapsed() < self.slice * slices || lat.len() < 20 {
            let t0 = Instant::now();
            op(lat.len() as u64 + 8)?;
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        stats::sort(&mut lat);
        let p50 = stats::percentile(&lat, 0.5).expect("at least 20 samples");
        self.push(name, p50, "us", lat.len() as u64);
        Ok(lat)
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs every ladder row. `seconds` is the run's `--seconds`; a timed
/// row gets 1/250 of it (72 ms at the default 18 s).
pub fn run(inputs: &Inputs, seconds: f64, scratch: &Path) -> io::Result<Vec<Metric>> {
    clue_tile::install();
    let mut rows = Rows {
        rows: Vec::new(),
        slice: Duration::from_secs_f64((seconds / 250.0).clamp(0.005, 0.25)),
    };
    let routes = inputs.rib.len() as f64;

    // clue-fib: the reference floor.
    for mix in Mix::ALL {
        rows.per_addr(
            format!("fib.trie_lookup_ns.{}", mix.name()),
            inputs.stream(mix),
            |a| {
                inputs
                    .reference
                    .lookup(a)
                    .map_or(0, |(_, nh)| u64::from(nh.0))
            },
        );
    }
    let exact = &inputs.updates[..EXACT_UPDATES.min(inputs.updates.len())];
    {
        let mut table = inputs.rib.clone();
        let t = Instant::now();
        for &u in exact {
            table.apply(u);
        }
        let ns = t.elapsed().as_nanos() as f64 / exact.len() as f64;
        rows.push("fib.table_apply_ns", ns, "ns", exact.len() as u64);
    }

    // clue-compress, clue-partition.
    let t = Instant::now();
    let compressed = onrtc(&inputs.rib);
    rows.push("compress.onrtc_s", t.elapsed().as_secs_f64(), "s", 1);
    rows.push(
        "compress.ratio",
        compressed.len() as f64 / routes,
        "ratio",
        0,
    );
    let compressed_routes: Vec<Route> = compressed.iter().collect();
    let t = Instant::now();
    let partition = EvenRangePartition::split(&compressed, RouterConfig::default().workers);
    rows.push("partition.split_ms", ms(t), "ms", 1);
    let index: RangeIndex = partition.index().clone();
    drop(partition);
    rows.per_addr("partition.bucket_of_ns", &inputs.uniform, |a| {
        index.bucket_of(a) as u64
    });

    let diffs = compress_and_tcam(&mut rows, inputs, &compressed, exact);
    cache(&mut rows, inputs, &compressed);
    let default_backend = BackendKind::default();
    planes(&mut rows, inputs, &compressed_routes);
    pipeline(&mut rows, inputs, exact);
    engine(&mut rows, inputs, &compressed);
    tiles(&mut rows, &compressed_routes, &diffs);
    drop(diffs);

    // clue-router.
    {
        let mut mirror = inputs.rib.clone();
        let (mut raw, mut absorbed) = (0usize, 0usize);
        let t = Instant::now();
        let batches = exact.chunks(RouterConfig::default().batch_size);
        let n = batches.len();
        for batch in batches {
            let c = coalesce(batch, &mirror);
            raw += c.raw;
            absorbed += c.absorbed();
            for &op in &c.ops {
                mirror.apply(op);
            }
        }
        // Includes applying the survivors to the mirror, as the update
        // thread does between batches.
        rows.push(
            "router.coalesce_us",
            t.elapsed().as_secs_f64() * 1e6 / n as f64,
            "us",
            n as u64,
        );
        rows.push(
            "router.coalesce_ratio",
            absorbed as f64 / raw as f64,
            "ratio",
            0,
        );
    }
    let workers = RouterConfig::default().workers;
    let mut default_epoch = None;
    for kind in BackendKind::ALL {
        let t = Instant::now();
        let state = EpochState::build(1, &compressed, &index, workers, kind);
        rows.push(format!("router.epoch_build_ms.{kind}"), ms(t), "ms", 1);
        if kind == default_backend {
            default_epoch = Some(state);
        }
    }
    if let Some(state) = default_epoch {
        let cell = EpochCell::new(state);
        rows.per_addr("router.epoch_load_ns", &inputs.uniform[..4096], |_| {
            cell.load().epoch
        });
    }
    {
        let svc = RouterService::start(&inputs.rib, &RouterConfig::default());
        for (label, batch) in [("b64", 64usize), ("b1", 1)] {
            let mut done = 0u64;
            let t = Instant::now();
            for chunk in inputs.uniform.chunks_exact(batch) {
                black_box(svc.lookup_batch(chunk.to_vec()));
                done += batch as u64;
                if t.elapsed() >= rows.slice * 4 {
                    break;
                }
            }
            let ns = t.elapsed().as_nanos() as f64 / done as f64;
            rows.push(format!("router.service_lookup_ns.{label}"), ns, "ns", done);
        }
        // Fits the default ingress queue, so this times the enqueue and
        // not the update thread behind it.
        let burst = &inputs.updates[..512.min(inputs.updates.len())];
        let t = Instant::now();
        for &u in burst {
            black_box(svc.submit_update(u));
        }
        let ns = t.elapsed().as_nanos() as f64 / burst.len() as f64;
        rows.push("router.submit_update_ns", ns, "ns", burst.len() as u64);
        drop(svc.drain());
    }
    rows.push_diff(
        "router.hop_service_ns",
        "router.service_lookup_ns.b64",
        &format!("core.plane_lookup_ns.{default_backend}.uniform"),
        "ns",
    );

    store(&mut rows, inputs, &compressed, &index, exact, scratch)?;
    drop(compressed_routes);
    net(&mut rows, inputs)?;
    // Wire cost per address: one connection's 64-address round trip
    // spread over its addresses, less the service row below it.
    if let (Some(rtt_us), Some(service_ns)) = (
        rows.get(&format!("net.lookup_rtt_us.{}.b64", Transport::default())),
        rows.get("router.service_lookup_ns.b64"),
    ) {
        rows.push("net.hop_wire_ns", rtt_us * 1e3 / 64.0 - service_ns, "ns", 0);
    }
    cluster(&mut rows, inputs, scratch)?;
    Ok(rows.rows)
}

/// TTF1 and TTF2 on their own: the incremental ONRTC trie feeding an
/// unordered TCAM. Returns the per-update diffs for the tile rows.
fn compress_and_tcam(
    rows: &mut Rows,
    inputs: &Inputs,
    compressed: &RouteTable,
    exact: &[Update],
) -> Vec<TableDiff> {
    let mut fib = CompressedFib::new(&inputs.rib);
    let mut tcam = UnorderedTcam::new(compressed.len() * 2 + 1024);
    clue_tcam::load(&mut tcam, compressed.iter());
    let mut diffs = Vec::with_capacity(exact.len());
    let (mut trie_time, mut tcam_time) = (Duration::ZERO, Duration::ZERO);
    let mut ops = 0usize;
    let mut cost = UpdateCost::default();
    for &u in exact {
        let t0 = Instant::now();
        let diff = fib.apply(u);
        let t1 = Instant::now();
        for &p in &diff.deletes {
            cost += tcam.delete(p).expect("diff deletes a stored entry");
        }
        for r in diff.modifies.iter().chain(&diff.inserts) {
            cost += tcam.insert(*r).expect("TCAM sized with headroom");
        }
        tcam_time += t1.elapsed();
        trie_time += t1 - t0;
        ops += diff.op_count();
        diffs.push(diff);
    }
    let n = exact.len() as f64;
    let count = exact.len() as u64;
    rows.push(
        "compress.apply_us",
        trie_time.as_secs_f64() * 1e6 / n,
        "us",
        count,
    );
    rows.push("compress.diff_ops_per_update", ops as f64 / n, "count", 0);
    rows.push(
        "tcam.write_ops_per_update",
        (cost.writes + cost.erases) as f64 / n,
        "count",
        0,
    );
    rows.push(
        "tcam.shift_ops_per_update",
        cost.moves as f64 / n,
        "count",
        0,
    );
    rows.push(
        "tcam.apply_host_ns",
        tcam_time.as_nanos() as f64 / n,
        "ns",
        count,
    );
    diffs
}

/// One DRed (capacity as the router's default) under the Zipf stream.
fn cache(rows: &mut Rows, inputs: &Inputs, compressed: &RouteTable) {
    let capacity = RouterConfig::default().dred_capacity;
    let trie = compressed.to_trie();
    let mut dred = LruPrefixCache::new(capacity);
    let packets = &inputs.zipf[..EXACT_PACKETS.min(inputs.zipf.len())];
    let mut hits = 0u64;
    for &a in packets {
        if dred.lookup(a).is_some() {
            hits += 1;
        } else if let Some((p, &nh)) = trie.lookup(a) {
            dred.insert(Route::new(p, nh));
        }
    }
    rows.push(
        "cache.dred_hit_ratio",
        hits as f64 / packets.len() as f64,
        "ratio",
        0,
    );
    rows.per_addr("cache.dred_lookup_ns", &inputs.zipf, |a| {
        dred.lookup(a).map_or(0, |nh| u64::from(nh.0))
    });
    // Inserts into a full cache: each one evicts.
    let victims: Vec<Route> = compressed.iter().take(64 * capacity).collect();
    let mut i = 0;
    rows.per_addr("cache.dred_insert_ns", &inputs.zipf[..4096], |_| {
        i = (i + 1) % victims.len();
        dred.insert(victims[i]).is_some() as u64
    });
}

/// Every backend as one plane over the whole compressed table.
fn planes(rows: &mut Rows, inputs: &Inputs, compressed_routes: &[Route]) {
    for kind in BackendKind::ALL {
        let t = Instant::now();
        let plane = build_plane(kind, compressed_routes);
        rows.push(format!("core.plane_build_ms.{kind}"), ms(t), "ms", 1);
        rows.push(
            format!("core.plane_bytes_per_route.{kind}"),
            plane.heap_bytes() as f64 / inputs.rib.len() as f64,
            "B",
            0,
        );
        for mix in Mix::ALL {
            rows.per_addr(
                format!("core.plane_lookup_ns.{kind}.{}", mix.name()),
                inputs.stream(mix),
                |a| plane.next_hop(a).map_or(0, |nh| u64::from(nh.0)),
            );
        }
    }
}

/// The whole TTF pipeline as the router's update thread drives it.
fn pipeline(rows: &mut Rows, inputs: &Inputs, exact: &[Update]) {
    let cfg = RouterConfig::default();
    let mut p = CluePipeline::new(
        &inputs.rib,
        cfg.workers,
        cfg.dred_capacity,
        inputs.rib.len() + 1024,
    );
    // Realistic DRed victims for TTF3.
    p.warm(&inputs.zipf[..50_000.min(inputs.zipf.len())]);
    let (mut t1, mut t2, mut t3) = (0.0, 0.0, 0.0);
    let t = Instant::now();
    for &u in exact {
        let (sample, diff) = p.apply_with_diff(u);
        black_box(diff);
        t1 += sample.ttf1_ns;
        t2 += sample.ttf2_ns;
        t3 += sample.ttf3_ns;
    }
    let n = exact.len() as f64;
    let count = exact.len() as u64;
    rows.push(
        "core.pipeline_apply_us",
        t.elapsed().as_secs_f64() * 1e6 / n,
        "us",
        count,
    );
    rows.push("core.ttf1_us", t1 / n / 1e3, "us", count);
    rows.push("core.ttf2_us", t2 / n / 1e3, "us", 0);
    rows.push("core.ttf3_us", t3 / n / 1e3, "us", 0);
}

/// The paper's Figure 15 set-up in simulated time: 32 even partitions,
/// the hottest 8 stacked on chip 0, FIFO 256, DRed 1024, one arrival
/// per clock, 4 clocks per lookup.
fn engine(rows: &mut Rows, inputs: &Inputs, compressed: &RouteTable) {
    let cfg = EngineConfig::default();
    let (buckets, index) = EvenRangePartition::split(compressed, 32).into_parts();
    let packets = &inputs.zipf[..EXACT_PACKETS.min(inputs.zipf.len())];
    let counts = clue_traffic::workload::profile(packets, 32, |a| index.bucket_of(a));
    let mapping = clue_traffic::workload::adversarial_mapping(&counts, cfg.chips);
    let mut engine = Engine::from_buckets(
        &buckets,
        move |a| index.bucket_of(a),
        mapping,
        DredConfig::Clue {
            capacity: 1024,
            exclude_home: true,
        },
        cfg,
    );
    let t = Instant::now();
    let (report, _) = engine.run(packets);
    let host_ns = t.elapsed().as_nanos() as f64 / packets.len() as f64;
    rows.push(
        "core.engine_speedup",
        report.speedup(cfg.service_clocks),
        "ratio",
        0,
    );
    rows.push(
        "core.engine_dred_hit_ratio",
        report.scheme.hit_rate(),
        "ratio",
        0,
    );
    rows.push(
        "core.engine_host_ns_per_packet",
        host_ns,
        "ns",
        packets.len() as u64,
    );
}

/// The incremental tile maintainer fed the same per-update diffs.
fn tiles(rows: &mut Rows, compressed_routes: &[Route], diffs: &[TableDiff]) {
    let mut set = TileSet::build(TileConfig::default(), compressed_routes);
    let mut rewritten = 0usize;
    let t = Instant::now();
    for d in diffs {
        rewritten += set.apply(d).tiles_rewritten;
    }
    let n = diffs.len() as f64;
    rows.push(
        "tile.apply_us",
        t.elapsed().as_secs_f64() * 1e6 / n,
        "us",
        diffs.len() as u64,
    );
    rows.push("tile.rewrites_per_update", rewritten as f64 / n, "count", 0);
    let mut snaps = 0u64;
    let t = Instant::now();
    while t.elapsed() < rows.slice {
        black_box(set.plane());
        snaps += 1;
    }
    rows.push(
        "tile.snapshot_us",
        t.elapsed().as_secs_f64() * 1e6 / snaps as f64,
        "us",
        snaps,
    );
}

/// Journal appends with and without fsync, snapshot write, recovery.
fn store(
    rows: &mut Rows,
    inputs: &Inputs,
    compressed: &RouteTable,
    index: &RangeIndex,
    exact: &[Update],
    scratch: &Path,
) -> io::Result<()> {
    let workers = RouterConfig::default().workers;
    let batch_size = RouterConfig::default().batch_size;
    for (label, fsync) in [("fsync", true), ("nofsync", false)] {
        let dir = scratch.join(format!("ladder-store-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let snap = Snapshot {
            jseq: 0,
            epoch: 0,
            seq_hw: 0,
            raw_total: 0,
            chips: workers as u32,
            cuts: index.cuts().to_vec(),
            table: inputs.rib.clone(),
            compressed: compressed.clone(),
            dreds: vec![Vec::new(); workers],
        };
        let t = Instant::now();
        write_snapshot(&dir, &snap)?;
        if fsync {
            rows.push("store.snapshot_ms", ms(t), "ms", 1);
        }
        drop(snap);
        let cfg = StoreConfig {
            fsync,
            ..StoreConfig::default()
        };
        let (mut store, _) = Store::open(&dir, cfg)?;
        let mut lat = Vec::new();
        for (i, ops) in exact.chunks(batch_size).enumerate() {
            let t0 = Instant::now();
            store.append(&JournalBatch {
                epoch: i as u64,
                seq_hw: i as u64 + 1,
                raw: ops.len() as u32,
                ops,
            })?;
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(store);
        let n = lat.len() as u64;
        rows.push(
            format!("store.append_us.{label}"),
            stats::median(&lat).expect("at least one append"),
            "us",
            n,
        );
        if fsync {
            let mut wal_bytes = 0u64;
            for seg in list_segments(&dir)? {
                wal_bytes += std::fs::metadata(seg)?.len();
            }
            rows.push(
                "store.bytes_per_update",
                wal_bytes as f64 / exact.len() as f64,
                "B",
                0,
            );
            let t = Instant::now();
            let (_, recovery) = Store::open(&dir, cfg)?;
            rows.push("store.recover_ms", ms(t), "ms", 1);
            if recovery.map(|r| r.replayed) != Some(n) {
                return Err(io::Error::other(
                    "ladder store did not recover its own journal",
                ));
            }
        }
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(())
}

/// Frame codec, then heartbeat and 64-address round trips over loopback
/// on each transport (one connection, the `uniform` stream — the same
/// one the service rows read, so `hop_wire_ns` is a like-for-like
/// difference).
fn net(rows: &mut Rows, inputs: &Inputs) -> io::Result<()> {
    let answers = |addrs: &[u32]| -> Vec<_> {
        addrs
            .iter()
            .map(|&a| inputs.reference.lookup(a).map(|(_, &nh)| nh))
            .collect()
    };
    for (label, batch) in [("b1", 1usize), ("b64", 64)] {
        let addrs = &inputs.uniform[..batch];
        let reply_payload = wire::encode_results(&answers(addrs));
        let mut frames = 0u64;
        let t = Instant::now();
        while t.elapsed() < rows.slice {
            for (kind, payload) in [
                (FrameType::Lookup, wire::encode_lookup(addrs)),
                (FrameType::LookupResult, reply_payload.clone()),
            ] {
                let bytes = Frame {
                    kind,
                    seq: frames,
                    payload,
                }
                .encode();
                let (frame, used) = Frame::try_decode(&bytes)?.expect("whole frame present");
                black_box((frame, used));
            }
            black_box(wire::decode_lookup(&wire::encode_lookup(addrs))?);
            frames += 1;
        }
        // One request and its reply: encode and decode of both frames.
        let ns = t.elapsed().as_nanos() as f64 / frames as f64;
        rows.push(format!("net.frame_codec_ns.{label}"), ns, "ns", frames);
        if batch == 64 {
            let request = Frame {
                kind: FrameType::Lookup,
                seq: 1,
                payload: wire::encode_lookup(addrs),
            };
            let reply = Frame {
                kind: FrameType::LookupResult,
                seq: 1,
                payload: reply_payload,
            };
            let bytes = (request.encode().len() + reply.encode().len()) as f64;
            rows.push("net.bytes_per_lookup", bytes / batch as f64, "B", 0);
        }
    }
    for name in TRANSPORTS {
        let Ok(transport) = name.parse::<Transport>() else {
            continue;
        };
        let server = Server::start(
            &inputs.rib,
            &ServerConfig {
                transport,
                ..ServerConfig::default()
            },
        )?;
        let mut conn = Connection::connect(ClientConfig::to_addr(server.local_addr().to_string()))?;
        rows.round_trip(format!("net.heartbeat_rtt_us.{transport}"), 1, |_| {
            conn.heartbeat()
        })?;
        let mut chunks = inputs.uniform.chunks_exact(64).cycle();
        rows.round_trip(format!("net.lookup_rtt_us.{transport}.b64"), 4, |_| {
            conn.lookup(chunks.next().expect("cycled")).map(|_| ())
        })?;
        conn.close()?;
        drop(server.drain()?);
    }
    Ok(())
}

/// Shard map, proxy hop, fan-out and replication cost on a two-shard
/// cluster with warm standbys.
fn cluster(rows: &mut Rows, inputs: &Inputs, scratch: &Path) -> io::Result<()> {
    let stack = Stack::boot(StackKind::Cluster, &inputs.rib, scratch)?;
    let map = stack.shard_map().expect("cluster stack has a map").clone();
    rows.per_addr("cluster.shard_of_ns", &inputs.uniform, |a| {
        map.shard_of(a) as u64
    });

    let single: Vec<u32> = inputs
        .uniform
        .iter()
        .copied()
        .filter(|&a| map.shard_of(a) == 0)
        .take(64 * 256)
        .collect();
    let mut proxy = stack.client()?;
    let mut shard = stack.shard_client(0).expect("cluster stack has shards")?;
    // Heartbeats go through a plain connection; `Client` has no such call.
    {
        let proxy_addr = stack.client_addr().expect("cluster stack has a proxy");
        let mut hb = Connection::connect(ClientConfig::to_addr(proxy_addr))?;
        rows.round_trip("cluster.proxy_heartbeat_rtt_us", 1, |_| hb.heartbeat())?;
        hb.close()?;
    }
    let mut chunks = single.chunks_exact(64).cycle();
    rows.round_trip("cluster.proxy_rtt_us.one_shard", 4, |_| {
        proxy.lookup(chunks.next().expect("cycled")).map(|_| ())
    })?;
    let mut chunks = single.chunks_exact(64).cycle();
    rows.round_trip("cluster.shard_rtt_us.one_shard", 4, |_| {
        shard.lookup(chunks.next().expect("cycled")).map(|_| ())
    })?;
    rows.push_diff(
        "cluster.hop_proxy_us",
        "cluster.proxy_rtt_us.one_shard",
        "cluster.shard_rtt_us.one_shard",
        "us",
    );
    let mut chunks = inputs.uniform.chunks_exact(64).cycle();
    // Sixteen slices (about 1 s at the default): enough round trips for a p99
    // with ten samples beyond it.
    let fanout = rows.round_trip("cluster.fanout_rtt_us", 16, |_| {
        proxy.lookup(chunks.next().expect("cycled")).map(|_| ())
    })?;
    if let Some(p99) = stats::percentile(&fanout, 0.99) {
        rows.push("cluster.lookup_p99_us", p99, "us", fanout.len() as u64);
    }

    // Replication: the same frames acknowledged by a primary with a warm
    // standby, and by one without.
    let owned: Vec<Update> = inputs
        .updates
        .iter()
        .copied()
        .filter(|u| map.shards_for_prefix(u.prefix()) == (0..=0))
        .take(16 * 12)
        .collect();
    let ack = |rows: &mut Rows, name: &str, conn: &mut Connection| -> io::Result<()> {
        let mut lat = Vec::new();
        for frame in owned.chunks(16) {
            let t0 = Instant::now();
            conn.send_updates(frame)?;
            conn.flush_acks()?;
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
            // Let the shard publish this batch before the next frame, or
            // the ack would time the previous publish, not the journal.
            std::thread::sleep(Duration::from_millis(40));
        }
        rows.push(
            name,
            stats::median(&lat).unwrap_or(f64::NAN),
            "us",
            lat.len() as u64,
        );
        Ok(())
    };
    ack(rows, "cluster.ack_us.with_standby", &mut shard)?;
    proxy.close()?;
    shard.close()?;
    {
        let dir = scratch.join(format!("ladder-solo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let solo = Primary::start(
            &dir,
            Some(&map.filter_table(&inputs.rib, 0)),
            &PrimaryConfig::default(),
        )?;
        let mut conn = Connection::connect(ClientConfig::to_addr(solo.local_addr().to_string()))?;
        ack(rows, "cluster.ack_us.solo", &mut conn)?;
        conn.close()?;
        drop(solo.stop()?);
        std::fs::remove_dir_all(&dir)?;
    }
    rows.push_diff(
        "cluster.repl_ack_us",
        "cluster.ack_us.with_standby",
        "cluster.ack_us.solo",
        "us",
    );
    // The shard-0 updates above changed the tables; the check against an
    // expected table is the workloads' job, not the ladder's.
    let mut expected = inputs.rib.clone();
    for &u in &owned {
        expected.apply(u);
    }
    let drained = stack.shutdown(&expected)?;
    if !drained.table_ok {
        return Err(io::Error::other(
            "ladder cluster diverged from sequential replay",
        ));
    }
    Ok(())
}
