//! `clue` — command-line front end for the CLUE reproduction.
//!
//! ```text
//! clue gen-fib      --out fib.txt [--routes N] [--seed S] [--next-hops K]
//! clue gen-packets  --fib fib.txt --out trace.txt [--count N] [--seed S] [--zipf X]
//! clue gen-updates  --fib fib.txt --out updates.txt [--count N] [--seed S]
//! clue compress     --fib fib.txt [--algorithm onrtc|ortc|leaf-push] [--out out.txt]
//! clue partition    --fib fib.txt [--scheme clue|subtree|idbit] [--n N]
//! clue simulate     --fib fib.txt --packets trace.txt [--chips N] [--dred N]
//!                   [--fifo N] [--service N] [--scheme clue|clpl] [--adversarial true]
//! clue replay       --fib fib.txt --updates updates.txt [--pipeline clue|clpl] [--window N]
//! clue replay       --data-dir DIR [--json true]   (journal inspection: snapshot + WAL records)
//! clue trace gen    --out-rib rib.mrt --out-updates upd.mrt [--seed S] [--routes N]
//!                   [--updates N]             (canonical MRT fixtures, round-trip verified)
//! clue trace info   --scenario NAME | --rib rib.mrt [--updates-mrt upd.mrt]
//!                   [--seed S] [--routes N] [--updates N] [--packets N]
//!                   [--export-fib F] [--export-updates F] [--export-packets F]
//! clue trace replay --scenario NAME | --rib rib.mrt --updates-mrt upd.mrt
//!                   [--speed X] [--addr HOST:PORT] [--workers N] [--dred N] [--batch K]
//! clue serve        --fib fib.txt --packets trace.txt --updates updates.txt [--workers N]
//!                   [--dred N] [--batch K] [--queue N] [--overflow block|drop]
//!                   [--stats-ms N] [--backend tcam|trie|cfib|tiled]
//! clue serve        --fib fib.txt --listen ADDR [--data-dir DIR] [--workers N] [--dred N]
//!                   [--batch K] [--queue N] [--overflow block|drop] [--stats-ms N]
//!                   [--transport threads|evloop]
//! clue serve        --listen ADDR --data-dir DIR --repl-listen ADDR [--fib fib.txt]
//!                   [--sync-ms N] [router flags]   (shard primary: WAL-shipping replication)
//! clue serve        --listen ADDR --follow PRIMARY_REPL [router flags]   (warm standby)
//! clue shardmap     --fib fib.txt --shards a,b,c [--standbys x,y,z] [--out map.bin]
//!                   [--split-dir DIR]          (derive cuts, write map + per-shard FIBs)
//! clue proxy        --map map.bin | --fib fib.txt --shards a,b,c [--standbys x,y,z]
//!                   [--listen ADDR] [--heartbeat-ms N] [--fail-after N] [--stats-ms N]
//!                   [--transport threads|evloop] [--bridge-threads N]
//! clue promote      --addr HOST:PORT           (promote a standby to a serving primary)
//! clue snapshot     --data-dir DIR            (fold the journal into a snapshot, prune WAL)
//! clue restore      --data-dir DIR [--fib out.txt] [--verify-fib fib.txt
//!                   --verify-updates updates.txt]
//! clue loadgen      --addr HOST:PORT [--packets trace.txt] [--updates updates.txt]
//!                   [--scenario NAME] [--seed S] [--routes N]
//!                   [--rate PPS] [--update-rate UPS] [--threads N]
//!                   [--lookup-batch K] [--update-batch K]
//!                   [--connections N]         (swarm mode: N concurrent reactor clients)
//! clue stats        --addr HOST:PORT
//! clue check        [--seed S] [--updates N] [--routes N] [--batch K] [--chips N]
//!                   [--dred N] [--packets N] [--faults on|off] [--fault-seed S]
//!                   [--net on|off] [--recovery on|off] [--shards N] [--scenario NAME]
//!                   [--backend tcam|trie|cfib|tiled] [--transport threads|evloop]
//!                   [--out repro.txt] [--replay repro.txt]
//! ```
//!
//! All file formats are plain text: FIBs are `a.b.c.d/len nh` lines,
//! packet traces are one dotted-quad address per line, update traces are
//! `A prefix nh` / `W prefix` lines.

mod args;

use std::process::ExitCode;

use args::{ArgError, Args};

use clue::cluster::{
    rpc, Primary, PrimaryConfig, Proxy, ProxyConfig, ReplConfig, ShardMap, ShardSpec, Standby,
    StandbyConfig, StandbyOutcome,
};
use clue::compress::{compress_with_stats, leaf_push, onrtc, ortc};
use clue::core::engine::{Engine, EngineConfig};
use clue::core::update_pipeline::{mean_ttf, ClplPipeline, CluePipeline, TtfSample};
use clue::core::{BackendKind, DredConfig};
use clue::fib::gen::FibGen;
use clue::fib::{RouteTable, Update};
use clue::net::signal;
use clue::net::wire;
use clue::net::{
    run_load, run_swarm, ClientConfig, Connection, Frame, FrameType, LoadConfig, Server,
    ServerConfig, SwarmConfig, Transport,
};
use clue::oracle::harness;
use clue::oracle::{run_check, run_scenario_check, CheckConfig, Reproducer};
use clue::partition::{
    EvenRangePartition, IdBitPartition, Indexer, PartitionStats, SubTreePartition,
};
use clue::router::{FaultPlan, OverflowPolicy, RouterConfig, RouterService};
use clue::store::{Store, StoreConfig};
use clue::trace::{
    parse_rib, parse_updates, MrtRib, MrtUpdates, Scenario, ScenarioConfig, ScenarioKind,
    UpdateTrace,
};
use clue::traffic::workload::{adversarial_mapping, profile};
use clue::traffic::{PacketGen, UpdateGen};

const USAGE: &str = "\
usage: clue <command> [flags]

commands:
  gen-fib       generate a synthetic FIB            (--out; --routes --seed --next-hops)
  gen-packets   generate a packet trace             (--fib --out; --count --seed --zipf)
  gen-updates   generate a BGP update trace         (--fib --out; --count --seed)
  compress      compress a FIB                      (--fib; --algorithm --out)
  partition     partition a FIB and report shape    (--fib; --scheme --n)
  simulate      run the parallel lookup engine      (--fib --packets; --chips --dred
                                                     --fifo --service --scheme --adversarial)
  replay        replay updates through a pipeline   (--fib --updates; --pipeline --window)
                or inspect a data dir's journal     (--data-dir; --json)
  trace         MRT fixtures and named scenarios    (gen|info|replay; --scenario --rib
                generate round-trip-verified MRT,    --updates-mrt --out-rib --out-updates
                describe/export a workload, or       --seed --routes --updates --packets
                replay it offline or over the wire   --speed --addr --workers --dred --batch
                                                     --export-fib --export-updates
                                                     --export-packets)
  serve         run the live concurrent router      (--fib --packets --updates; --workers
                file-driven, or networked           --dred --batch --queue
                with --listen HOST:PORT,             --overflow --stats-ms --listen
                durable with --data-dir DIR,         --data-dir --repl-listen --sync-ms
                a shard primary with --repl-listen,  --follow --backend --transport)
                or a warm standby with --follow
  shardmap      derive a shard map from a FIB's     (--fib --shards; --standbys --out
                even-range cuts, optionally          --split-dir)
                splitting per-shard FIBs
  proxy         front N shards as one router with   (--map or --fib --shards --standbys;
                fan-out, health checks, and          --listen --heartbeat-ms --fail-after
                standby failover                     --stats-ms --transport --bridge-threads)
  promote       promote a standby to serving        (--addr)
  snapshot      fold a data dir's journal into a    (--data-dir)
                fresh snapshot and prune the WAL
  restore       recover a data dir offline and      (--data-dir; --fib --verify-fib
                report/export/verify the state       --verify-updates)
  loadgen       offer a workload to a server        (--addr; --packets --updates --scenario
                over TCP at a target rate, or        --seed --routes --rate --update-rate
                swarm N concurrent connections       --threads --lookup-batch --update-batch
                                                     --connections)
  stats         query a running server's counters   (--addr)
  check         differential conformance check      (--seed --updates --routes --batch
                against the naive oracle, or a       --chips --dred --packets --faults
                named adversarial scenario with      --fault-seed --net --recovery
                --scenario (update-storm,            --shards --scenario --backend
                withdraw-flood, flap-storm,          --transport --out --replay)
                ddos-skew, mrt-replay)

run `clue <command> --help` semantics: every flag is `--key value`.";

fn main() -> ExitCode {
    // Register the tiled lookup backend so every `--backend tiled` path
    // (serve, check, loadgen, replay) can compile planes for it.
    clue_tile::install();
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--help") || raw.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = raw.remove(0);
    let result = Args::parse(raw).and_then(|args| dispatch(&command, &args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("clue {command}: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(command: &str, args: &Args) -> Result<(), ArgError> {
    match command {
        "gen-fib" => gen_fib(args),
        "gen-packets" => gen_packets(args),
        "gen-updates" => gen_updates(args),
        "compress" => compress(args),
        "partition" => partition(args),
        "simulate" => simulate(args),
        "replay" => replay(args),
        "trace" => trace_cmd(args),
        "serve" => serve(args),
        "shardmap" => shardmap(args),
        "proxy" => proxy(args),
        "promote" => promote(args),
        "snapshot" => snapshot(args),
        "restore" => restore(args),
        "loadgen" => loadgen(args),
        "stats" => stats(args),
        "check" => check(args),
        other => Err(ArgError(format!("unknown command {other:?}"))),
    }
}

fn io_err(context: &str, e: &std::io::Error) -> ArgError {
    ArgError(format!("{context}: {e}"))
}

fn load_fib(path: &str) -> Result<RouteTable, ArgError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    RouteTable::from_text(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

fn write_file(path: &str, contents: &str) -> Result<(), ArgError> {
    std::fs::write(path, contents).map_err(|e| io_err(path, &e))
}

fn gen_fib(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["out", "routes", "seed", "next-hops"])?;
    let out = args.required("out")?;
    let routes: usize = args.get_or("routes", 100_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let next_hops: u16 = args.get_or("next-hops", 24)?;
    let fib = FibGen::new(seed)
        .routes(routes)
        .next_hops(next_hops)
        .generate();
    write_file(out, &fib.to_text())?;
    println!("wrote {} routes to {out}", fib.len());
    Ok(())
}

fn gen_packets(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "out", "count", "seed", "zipf"])?;
    let fib = load_fib(args.required("fib")?)?;
    let out = args.required("out")?;
    let count: usize = args.get_or("count", 1_000_000)?;
    let seed: u64 = args.get_or("seed", 2)?;
    let zipf: f64 = args.get_or("zipf", 1.1)?;
    let trace = PacketGen::new(seed)
        .zipf_exponent(zipf)
        .generate(&fib, count);
    let mut text = String::with_capacity(count * 16);
    for addr in trace {
        let o = addr.to_be_bytes();
        text.push_str(&format!("{}.{}.{}.{}\n", o[0], o[1], o[2], o[3]));
    }
    write_file(out, &text)?;
    println!("wrote {count} packets to {out}");
    Ok(())
}

fn gen_updates(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "out", "count", "seed"])?;
    let fib = load_fib(args.required("fib")?)?;
    let out = args.required("out")?;
    let count: usize = args.get_or("count", 10_000)?;
    let seed: u64 = args.get_or("seed", 3)?;
    let updates = UpdateGen::new(seed).generate(&fib, count);
    let mut text = String::with_capacity(count * 24);
    for u in &updates {
        text.push_str(&u.to_string());
        text.push('\n');
    }
    write_file(out, &text)?;
    println!("wrote {count} updates to {out}");
    Ok(())
}

fn compress(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "algorithm", "out"])?;
    let fib = load_fib(args.required("fib")?)?;
    let algorithm = args.optional("algorithm").unwrap_or("onrtc");
    let (result, label) = match algorithm {
        "onrtc" => {
            let (out, stats) = compress_with_stats(&fib);
            println!(
                "onrtc: {} -> {} entries ({:.2}% of input) in {:.1} ms",
                stats.original,
                stats.compressed,
                stats.ratio() * 100.0,
                stats.millis
            );
            (out, "non-overlapping")
        }
        "leaf-push" => {
            let out = leaf_push(&fib);
            println!(
                "leaf-push: {} -> {} entries ({:.2}% of input)",
                fib.len(),
                out.len(),
                out.len() as f64 / fib.len() as f64 * 100.0
            );
            (out, "leaf-pushed")
        }
        "ortc" => {
            let t = ortc(&fib);
            println!(
                "ortc: {} -> {} entries ({:.2}% of input; {} explicit-miss)",
                fib.len(),
                t.len(),
                t.len() as f64 / fib.len() as f64 * 100.0,
                t.miss_entries()
            );
            // ORTC output may carry miss entries; only forwarding
            // entries can be exported as a plain FIB.
            let forwarding: RouteTable = t
                .entries()
                .iter()
                .filter_map(|&(p, a)| a.map(|nh| clue::fib::Route::new(p, nh)))
                .collect();
            if args.optional("out").is_some() && t.miss_entries() > 0 {
                return Err(ArgError(
                    "ortc output contains explicit-miss entries; it cannot be \
                     exported as a plain FIB (use onrtc instead)"
                        .to_owned(),
                ));
            }
            (forwarding, "ortc")
        }
        other => {
            return Err(ArgError(format!(
                "unknown algorithm {other:?} (onrtc|ortc|leaf-push)"
            )))
        }
    };
    if let Some(out) = args.optional("out") {
        write_file(out, &result.to_text())?;
        println!("wrote {label} table ({} entries) to {out}", result.len());
    }
    Ok(())
}

fn partition(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "scheme", "n"])?;
    let fib = load_fib(args.required("fib")?)?;
    let scheme = args.optional("scheme").unwrap_or("clue");
    let n: usize = args.get_or("n", 4)?;
    if n == 0 {
        return Err(ArgError("--n must be positive".into()));
    }
    let stats = match scheme {
        "clue" => {
            let compressed = onrtc(&fib);
            println!(
                "compressing first: {} -> {} entries",
                fib.len(),
                compressed.len()
            );
            let p = EvenRangePartition::split(&compressed, n);
            PartitionStats::measure(p.buckets(), compressed.len())
        }
        "subtree" => {
            let p = SubTreePartition::split(&fib, fib.len().div_ceil(n));
            PartitionStats::measure(p.buckets(), fib.len())
        }
        "idbit" => {
            let k = n.next_power_of_two().trailing_zeros();
            if 1usize << k != n {
                return Err(ArgError("idbit needs --n to be a power of two".into()));
            }
            let p = IdBitPartition::split(&fib, k, 16);
            PartitionStats::measure(p.buckets(), fib.len())
        }
        other => {
            return Err(ArgError(format!(
                "unknown scheme {other:?} (clue|subtree|idbit)"
            )))
        }
    };
    println!(
        "{scheme}: {} buckets | max {} min {} | total {} | redundancy {} | imbalance {:.3}",
        stats.buckets,
        stats.max,
        stats.min,
        stats.total,
        stats.redundancy,
        stats.imbalance()
    );
    Ok(())
}

fn load_packets(path: &str) -> Result<Vec<u32>, ArgError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut addr: u32 = 0;
        let mut octets = 0;
        for part in line.split('.') {
            let o: u8 = part
                .parse()
                .map_err(|_| ArgError(format!("{path}:{}: bad address", lineno + 1)))?;
            addr = (addr << 8) | u32::from(o);
            octets += 1;
        }
        if octets != 4 {
            return Err(ArgError(format!("{path}:{}: bad address", lineno + 1)));
        }
        out.push(addr);
    }
    Ok(out)
}

fn simulate(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "fib",
        "packets",
        "chips",
        "dred",
        "fifo",
        "service",
        "scheme",
        "adversarial",
        "buckets",
    ])?;
    let fib = load_fib(args.required("fib")?)?;
    let trace = load_packets(args.required("packets")?)?;
    let cfg = EngineConfig {
        chips: args.get_or("chips", 4)?,
        fifo_capacity: args.get_or("fifo", 256)?,
        service_clocks: args.get_or("service", 4)?,
        arrival_period: 1,
        update_stall: None,
    };
    let dred: usize = args.get_or("dred", 1024)?;
    let buckets_n: usize = args.get_or("buckets", cfg.chips * 8)?;
    let adversarial: bool = args.get_or("adversarial", false)?;
    let scheme = args.optional("scheme").unwrap_or("clue");

    let compressed = onrtc(&fib);
    println!(
        "compressed {} -> {} entries; {} chips x {} buckets",
        fib.len(),
        compressed.len(),
        cfg.chips,
        buckets_n
    );
    let parts = EvenRangePartition::split(&compressed, buckets_n);
    let (buckets, index) = parts.into_parts();
    let mapping = if adversarial {
        let counts = profile(&trace, buckets_n, |a| index.bucket_of(a));
        adversarial_mapping(&counts, cfg.chips)
    } else {
        (0..buckets_n).map(|b| b * cfg.chips / buckets_n).collect()
    };
    let dred_cfg = match scheme {
        "clue" => DredConfig::Clue {
            capacity: dred,
            exclude_home: true,
        },
        "clpl" => DredConfig::Clpl {
            capacity: dred,
            sram_trie: fib.to_trie(),
        },
        other => return Err(ArgError(format!("unknown scheme {other:?} (clue|clpl)"))),
    };
    let mut engine = Engine::from_buckets(
        &buckets,
        move |a| index.bucket_of(a),
        mapping,
        dred_cfg,
        cfg,
    );
    let (report, _) = engine.run(&trace);
    println!(
        "completed {} of {} ({} dropped) in {} clocks",
        report.completions, report.arrivals, report.drops, report.clocks
    );
    println!(
        "speedup {:.2}x | DRed hit rate {:.2}% | diversions {} | out-of-order {} | reorder depth {}",
        report.speedup(cfg.service_clocks),
        report.scheme.hit_rate() * 100.0,
        report.diversions,
        report.out_of_order,
        report.reorder_high_water,
    );
    println!(
        "per-chip load: {:?}",
        report
            .chip_shares()
            .iter()
            .map(|s| format!("{:.1}%", s * 100.0))
            .collect::<Vec<_>>()
    );
    println!(
        "control-plane interactions: {} | SRAM accesses: {}",
        report.scheme.control_plane_interactions, report.scheme.sram_accesses
    );
    Ok(())
}

fn load_updates(path: &str) -> Result<Vec<Update>, ArgError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let mut updates = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let u: Update = line
            .parse()
            .map_err(|_| ArgError(format!("{path}:{}: bad update", lineno + 1)))?;
        updates.push(u);
    }
    Ok(updates)
}

fn replay(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "fib", "updates", "pipeline", "window", "chips", "dred", "data-dir", "json",
    ])?;
    if let Some(dir) = args.optional("data-dir") {
        return replay_journal(dir, args.get_or("json", false)?);
    }
    if args.optional("json").is_some() {
        return Err(ArgError(
            "--json applies to --data-dir journal inspection".into(),
        ));
    }
    let fib = load_fib(args.required("fib")?)?;
    let updates = load_updates(args.required("updates")?)?;
    let window: usize = args.get_or("window", 1_000)?;
    if window == 0 {
        return Err(ArgError("--window must be positive".into()));
    }
    let chips: usize = args.get_or("chips", 4)?;
    let dred: usize = args.get_or("dred", 1024)?;
    let pipeline = args.optional("pipeline").unwrap_or("clue");

    println!(
        "replaying {} updates through the {pipeline} pipeline ({} windows)",
        updates.len(),
        updates.len().div_ceil(window)
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "window", "ttf1(us)", "ttf2(us)", "ttf3(us)", "total(us)"
    );
    let mut all: Vec<TtfSample> = Vec::new();
    let mut apply: Box<dyn FnMut(Update) -> TtfSample> = match pipeline {
        "clue" => {
            let mut p = CluePipeline::new(&fib, chips, dred, fib.len());
            Box::new(move |u| p.apply(u))
        }
        "clpl" => {
            let mut p = ClplPipeline::new(&fib, chips, dred, fib.len());
            Box::new(move |u| p.apply(u))
        }
        other => return Err(ArgError(format!("unknown pipeline {other:?} (clue|clpl)"))),
    };
    for (i, chunk) in updates.chunks(window).enumerate() {
        let samples: Vec<TtfSample> = chunk.iter().map(|&u| apply(u)).collect();
        let m = mean_ttf(&samples);
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            i,
            m.ttf1_ns / 1e3,
            m.ttf2_ns / 1e3,
            m.ttf3_ns / 1e3,
            m.total_ns() / 1e3
        );
        all.extend(samples);
    }
    let m = mean_ttf(&all);
    println!(
        "\nmean TTF {:.4} us (trie {:.4} + tcam {:.4} + dred {:.4}) over {} updates",
        m.total_ns() / 1e3,
        m.ttf1_ns / 1e3,
        m.ttf2_ns / 1e3,
        m.ttf3_ns / 1e3,
        all.len()
    );
    Ok(())
}

/// Parses `--backend tcam|trie|cfib|tiled` (default: the TCAM sim).
fn parse_backend(args: &Args) -> Result<BackendKind, ArgError> {
    match args.optional("backend") {
        None => Ok(BackendKind::default()),
        Some(name) => name.parse().map_err(|e| ArgError(format!("{e}"))),
    }
}

/// Parses `--transport threads|evloop` (default: per-connection threads).
fn parse_transport(args: &Args) -> Result<Transport, ArgError> {
    match args.optional("transport") {
        None => Ok(Transport::default()),
        Some(name) => name.parse().map_err(ArgError),
    }
}

fn serve(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "fib",
        "packets",
        "updates",
        "workers",
        "dred",
        "batch",
        "queue",
        "overflow",
        "stats-ms",
        "listen",
        "data-dir",
        "repl-listen",
        "follow",
        "sync-ms",
        "backend",
        "transport",
    ])?;
    let overflow = match args.optional("overflow").unwrap_or("block") {
        "block" => OverflowPolicy::Block,
        "drop" => OverflowPolicy::DropNewest,
        other => return Err(ArgError(format!("unknown overflow {other:?} (block|drop)"))),
    };
    let stats_ms: u64 = args.get_or("stats-ms", 0)?;
    let backend = parse_backend(args)?;
    let transport = parse_transport(args)?;
    let cfg = RouterConfig {
        workers: args.get_or("workers", 4)?,
        dred_capacity: args.get_or("dred", 1024)?,
        batch_size: args.get_or("batch", 64)?,
        update_queue: args.get_or("queue", 1024)?,
        overflow,
        snapshot_every: (stats_ms > 0).then(|| std::time::Duration::from_millis(stats_ms)),
        faults: None,
        backend,
    };
    if cfg.workers == 0 || cfg.dred_capacity == 0 || cfg.batch_size == 0 || cfg.update_queue == 0 {
        return Err(ArgError("all sizes must be positive".into()));
    }
    if let Some(primary_repl) = args.optional("follow") {
        for bad in [
            "fib",
            "packets",
            "updates",
            "data-dir",
            "repl-listen",
            "sync-ms",
        ] {
            if args.optional(bad).is_some() {
                return Err(ArgError(format!(
                    "--follow conflicts with --{bad} (a standby mirrors its primary's state)"
                )));
            }
        }
        if args.optional("transport").is_some() {
            return Err(ArgError(
                "--transport applies to a serving endpoint, not a standby follower".into(),
            ));
        }
        let listen = args.required("listen")?;
        return serve_follow(listen, primary_repl, cfg, stats_ms);
    }
    if let Some(repl_listen) = args.optional("repl-listen") {
        let listen = args.optional("listen").ok_or_else(|| {
            ArgError("--repl-listen needs --listen (the client/proxy-facing address)".into())
        })?;
        let dir = args.optional("data-dir").ok_or_else(|| {
            ArgError("--repl-listen needs --data-dir (a replicated ack implies journaled)".into())
        })?;
        let fib = match args.optional("fib") {
            Some(path) => Some(load_fib(path)?),
            None => None,
        };
        let sync_ms: u64 = args.get_or("sync-ms", 2_000)?;
        return serve_primary(
            fib.as_ref(),
            listen,
            repl_listen,
            dir,
            cfg,
            stats_ms,
            sync_ms,
            transport,
        );
    }
    if args.optional("sync-ms").is_some() {
        return Err(ArgError(
            "--sync-ms applies only to a shard primary (--repl-listen)".into(),
        ));
    }
    if let Some(listen) = args.optional("listen") {
        // With --data-dir an existing directory's state wins and --fib
        // is only needed (and only read) to seed a fresh one.
        let fib = match args.optional("fib") {
            Some(path) => Some(load_fib(path)?),
            None => None,
        };
        return serve_net(
            fib.as_ref(),
            listen,
            args.optional("data-dir"),
            cfg,
            stats_ms,
            transport,
        );
    }
    if args.optional("data-dir").is_some() {
        return Err(ArgError(
            "--data-dir needs --listen (durability belongs to the live server)".into(),
        ));
    }
    let fib = load_fib(args.required("fib")?)?;
    let packets = load_packets(args.required("packets")?)?;
    let updates = load_updates(args.required("updates")?)?;

    println!(
        "serving {} packets + {} updates over {} workers (batch {}, queue {}, {:?})",
        packets.len(),
        updates.len(),
        cfg.workers,
        cfg.batch_size,
        cfg.update_queue,
        cfg.overflow,
    );
    let report = clue::router::run(&fib, &packets, &updates, &cfg);
    let s = &report.snapshot;
    println!(
        "completed {}/{} lookups in {:.1} ms ({:.0} pps) | epochs {} | dynamic redundancy {}",
        s.completions,
        s.arrivals,
        report.elapsed.as_secs_f64() * 1e3,
        s.completions as f64 / report.elapsed.as_secs_f64().max(1e-9),
        s.epochs,
        report.dynamic_redundancy,
    );
    println!(
        "updates: {} received, {} applied, {:.1}% coalesced away, {} dropped | final table {} -> {} compressed",
        s.updates_received,
        s.updates_applied,
        s.coalesce_ratio * 100.0,
        s.update_drops,
        report.final_table.len(),
        report.final_compressed.len(),
    );
    println!("{}", s.to_json());
    Ok(())
}

/// The networked `serve` path: bind a TCP endpoint, bridge connections
/// into the router runtime, and drain gracefully on SIGINT/SIGTERM. The
/// final stats snapshot is always printed, even on an interrupted run.
/// With `data_dir`, the router journals every batch into a `clue-store`
/// data directory and boots from whatever state that directory already
/// holds (acks then wait for the journal write — see DESIGN.md §2.11).
fn serve_net(
    fib: Option<&RouteTable>,
    listen: &str,
    data_dir: Option<&str>,
    mut router: RouterConfig,
    stats_ms: u64,
    transport: Transport,
) -> Result<(), ArgError> {
    // Periodic reporting in network mode goes through the combined
    // uptime/router/net JSON below, not the runtime's own printer.
    router.snapshot_every = None;
    let scfg = ServerConfig {
        listen: listen.to_owned(),
        router,
        transport,
        ..ServerConfig::default()
    };
    let (server, routes) = match data_dir {
        None => {
            let fib = fib.ok_or_else(|| ArgError("missing required flag --fib".into()))?;
            let server = Server::start(fib, &scfg).map_err(|e| io_err(listen, &e))?;
            (server, fib.len())
        }
        Some(dir) => {
            let (store, state, recovered) = Store::open_or_seed(
                std::path::Path::new(dir),
                StoreConfig::default(),
                fib,
                scfg.router.workers,
            )
            .map_err(|e| io_err("--data-dir", &e))?;
            if recovered {
                if fib.is_some() {
                    eprintln!("clue serve: {dir} already holds state; ignoring --fib");
                }
                println!(
                    "recovered {} routes from {dir}: epoch {}, seq high-water {}",
                    state.table.len(),
                    state.epoch,
                    state.seq_hw,
                );
            } else {
                println!(
                    "seeded {dir} with {} routes (base snapshot 0)",
                    state.table.len()
                );
            }
            let svc = RouterService::start_recovered(&state, &scfg.router, Some(Box::new(store)));
            let server = Server::start_with_service(svc, state.seq_hw, &scfg)
                .map_err(|e| io_err(listen, &e))?;
            (server, state.table.len())
        }
    };
    signal::install();
    println!(
        "listening on {} ({} routes, {} workers, batch {}, queue {}, {:?}); \
         SIGINT/SIGTERM drains",
        server.local_addr(),
        routes,
        scfg.router.workers,
        scfg.router.batch_size,
        scfg.router.update_queue,
        scfg.router.overflow,
    );
    let every = (stats_ms > 0).then(|| std::time::Duration::from_millis(stats_ms));
    let mut last = std::time::Instant::now();
    while !signal::triggered() && !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(25));
        if let Some(every) = every {
            if last.elapsed() >= every {
                println!("{}", server.stats_json());
                last = std::time::Instant::now();
            }
        }
    }
    eprintln!("clue serve: draining (new connections refused, update batches flushing)");
    println!("{}", server.stats_json());
    let report = server.drain().map_err(|e| io_err("drain", &e))?;
    let s = &report.snapshot;
    println!(
        "drained: {} lookups answered, {} updates received ({} applied, {:.1}% coalesced, \
         {} dropped), {} epochs | final table {} -> {} compressed",
        s.completions,
        s.updates_received,
        s.updates_applied,
        s.coalesce_ratio * 100.0,
        s.update_drops,
        s.epochs,
        report.final_table.len(),
        report.final_compressed.len(),
    );
    println!("{}", s.to_json());
    Ok(())
}

/// The shard-primary `serve` path: durable store + replication
/// endpoint + serving frontend, composed by [`Primary`] so a client
/// ack implies journaled *and* applied on every live standby.
#[allow(clippy::too_many_arguments)]
fn serve_primary(
    fib: Option<&RouteTable>,
    listen: &str,
    repl_listen: &str,
    dir: &str,
    mut router: RouterConfig,
    stats_ms: u64,
    sync_ms: u64,
    transport: Transport,
) -> Result<(), ArgError> {
    router.snapshot_every = None;
    let cfg = PrimaryConfig {
        server: ServerConfig {
            listen: listen.to_owned(),
            router,
            transport,
            ..ServerConfig::default()
        },
        repl: ReplConfig {
            listen: repl_listen.to_owned(),
            ..ReplConfig::default()
        },
        store: StoreConfig::default(),
        sync_timeout: std::time::Duration::from_millis(sync_ms.max(1)),
    };
    let primary =
        Primary::start(std::path::Path::new(dir), fib, &cfg).map_err(|e| io_err(listen, &e))?;
    signal::install();
    println!(
        "shard primary on {} ({} routes, {}), shipping WAL on {}; SIGINT/SIGTERM drains",
        primary.local_addr(),
        primary.routes(),
        if primary.recovered() {
            "recovered"
        } else {
            "seeded"
        },
        primary.repl_addr(),
    );
    let every = (stats_ms > 0).then(|| std::time::Duration::from_millis(stats_ms));
    let mut last = std::time::Instant::now();
    while !signal::triggered() && !primary.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(25));
        if let Some(every) = every {
            if last.elapsed() >= every {
                let r = primary.repl_stats();
                println!(
                    "{{\"repl\":{{\"followers\":{},\"synced\":{},\"base_jseq\":{},\"tail_len\":{},\"accept_errors\":{}}},\"server\":{}}}",
                    r.followers,
                    r.synced,
                    r.base_jseq,
                    r.tail_len,
                    r.accept_errors,
                    primary.stats_json(),
                );
                last = std::time::Instant::now();
            }
        }
    }
    eprintln!("clue serve: draining shard primary (journal flush + checkpoint)");
    let report = primary.stop().map_err(|e| io_err("drain", &e))?;
    let s = &report.snapshot;
    println!(
        "drained: {} lookups answered, {} updates received ({} applied, {} dropped), \
         {} epochs | final table {} routes",
        s.completions,
        s.updates_received,
        s.updates_applied,
        s.update_drops,
        s.epochs,
        report.final_table.len(),
    );
    Ok(())
}

/// The warm-standby `serve` path: follow a primary's replication
/// stream, apply-then-ack every record, and reboot as a full server on
/// the same address when promoted (Promote frame or proxy failover).
fn serve_follow(
    listen: &str,
    primary_repl: &str,
    mut router: RouterConfig,
    stats_ms: u64,
) -> Result<(), ArgError> {
    router.snapshot_every = None;
    let standby = Standby::start(StandbyConfig {
        listen: listen.to_owned(),
        primary_repl: primary_repl.to_owned(),
        router,
        ..StandbyConfig::default()
    })
    .map_err(|e| io_err(listen, &e))?;
    signal::install();
    println!(
        "standby on {} following {primary_repl}; promote with `clue promote --addr {}`; \
         SIGINT/SIGTERM stops",
        standby.local_addr(),
        standby.local_addr(),
    );
    let every = (stats_ms > 0).then(|| std::time::Duration::from_millis(stats_ms));
    let mut last = std::time::Instant::now();
    let mut announced = false;
    while !signal::triggered() {
        std::thread::sleep(std::time::Duration::from_millis(25));
        if standby.is_promoted() && !announced {
            announced = true;
            println!(
                "promoted: serving lookups and updates on {}",
                standby.local_addr()
            );
        }
        if let Some(every) = every {
            if last.elapsed() >= every && !standby.is_promoted() {
                let s = standby.replica_state();
                println!(
                    "{{\"role\":\"standby\",\"applied_jseq\":{},\"seq_hw\":{},\"routes\":{},\
                     \"records_applied\":{},\"snapshots_loaded\":{},\"skipped\":{},\
                     \"reconnects\":{}}}",
                    s.applied_jseq.map_or(-1i64, |j| j as i64),
                    s.seq_hw,
                    s.table.len(),
                    s.records_applied,
                    s.snapshots_loaded,
                    s.skipped,
                    s.reconnects,
                );
                last = std::time::Instant::now();
            }
        }
    }
    match standby.stop().map_err(|e| io_err(listen, &e))? {
        StandbyOutcome::Standby(s) => {
            println!(
                "stopped as standby: {} routes mirrored, applied_jseq {}, seq high-water {}, \
                 {} records applied, {} snapshots, {} skipped, {} reconnects",
                s.table.len(),
                s.applied_jseq.map_or(-1i64, |j| j as i64),
                s.seq_hw,
                s.records_applied,
                s.snapshots_loaded,
                s.skipped,
                s.reconnects,
            );
        }
        StandbyOutcome::Promoted(report) => {
            let s = &report.snapshot;
            println!(
                "drained promoted server: {} lookups answered, {} updates applied, {} epochs | \
                 final table {} routes",
                s.completions,
                s.updates_applied,
                s.epochs,
                report.final_table.len(),
            );
        }
    }
    Ok(())
}

/// Parses `--shards a,b,c` (+ optional `--standbys x,y,z`) into
/// per-shard endpoint specs. Shared by `shardmap` and `proxy`.
fn parse_shard_specs(args: &Args) -> Result<Vec<ShardSpec>, ArgError> {
    let split = |raw: &str| -> Vec<String> {
        raw.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let primaries = split(args.required("shards")?);
    if primaries.is_empty() {
        return Err(ArgError(
            "--shards needs at least one HOST:PORT endpoint".into(),
        ));
    }
    let standbys = args.optional("standbys").map(split).unwrap_or_default();
    if !standbys.is_empty() && standbys.len() != primaries.len() {
        return Err(ArgError(format!(
            "--standbys lists {} endpoints for {} shards (one per shard, or omit)",
            standbys.len(),
            primaries.len(),
        )));
    }
    Ok(primaries
        .into_iter()
        .enumerate()
        .map(|(i, p)| match standbys.get(i) {
            Some(s) => ShardSpec::with_standby(p, s.clone()),
            None => ShardSpec::primary_only(p),
        })
        .collect())
}

/// `clue shardmap`: derive even-range cuts from a FIB, print the
/// per-shard ranges, and optionally write the versioned map file and
/// per-shard filtered FIBs (to seed each primary's data dir).
fn shardmap(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "shards", "standbys", "out", "split-dir"])?;
    let fib = load_fib(args.required("fib")?)?;
    let specs = parse_shard_specs(args)?;
    let map = ShardMap::derive(&fib, specs).map_err(|e| io_err("shard map", &e))?;
    for (i, spec) in map.shards().iter().enumerate() {
        let range = map.shard_range(i);
        let sub = map.filter_table(&fib, i);
        println!(
            "shard {i}: {}..{} ({} routes) -> {}{}",
            std::net::Ipv4Addr::from(*range.start()),
            std::net::Ipv4Addr::from(*range.end()),
            sub.len(),
            spec.primary,
            spec.standby
                .as_deref()
                .map(|s| format!(" (standby {s})"))
                .unwrap_or_default(),
        );
    }
    if let Some(out) = args.optional("out") {
        map.write_file(std::path::Path::new(out))
            .map_err(|e| io_err(out, &e))?;
        println!(
            "wrote shard map ({} shards, {} bytes) to {out}",
            map.len(),
            map.encode().len(),
        );
    }
    if let Some(dir) = args.optional("split-dir") {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        for i in 0..map.len() {
            let sub = map.filter_table(&fib, i);
            let path = format!("{dir}/shard{i}.txt");
            write_file(&path, &sub.to_text())?;
            println!("wrote {} routes to {path}", sub.len());
        }
    }
    Ok(())
}

/// `clue proxy`: front N shard primaries as one logical router —
/// range-partitioned fan-out, per-shard health checks, and automatic
/// standby promotion on primary failure.
fn proxy(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "listen",
        "map",
        "fib",
        "shards",
        "standbys",
        "heartbeat-ms",
        "fail-after",
        "stats-ms",
        "transport",
        "bridge-threads",
    ])?;
    let map = match args.optional("map") {
        Some(path) => {
            for bad in ["fib", "shards", "standbys"] {
                if args.optional(bad).is_some() {
                    return Err(ArgError(format!(
                        "--map already carries the cuts and endpoints; drop --{bad}"
                    )));
                }
            }
            ShardMap::read_file(std::path::Path::new(path)).map_err(|e| io_err(path, &e))?
        }
        None => {
            let fib = load_fib(args.required("fib").map_err(|_| {
                ArgError("proxy needs --map FILE, or --fib + --shards to derive one".into())
            })?)?;
            ShardMap::derive(&fib, parse_shard_specs(args)?).map_err(|e| io_err("shard map", &e))?
        }
    };
    let shards = map.len();
    let mut cfg = ProxyConfig::new(map);
    cfg.listen = args.optional("listen").unwrap_or("127.0.0.1:0").to_owned();
    cfg.heartbeat_every = std::time::Duration::from_millis(args.get_or("heartbeat-ms", 150)?);
    cfg.fail_after = args.get_or("fail-after", 2)?;
    if cfg.fail_after == 0 {
        return Err(ArgError("--fail-after must be positive".into()));
    }
    cfg.transport = parse_transport(args)?;
    cfg.bridge_threads = args.get_or("bridge-threads", cfg.bridge_threads)?;
    if cfg.bridge_threads == 0 {
        return Err(ArgError("--bridge-threads must be positive".into()));
    }
    let stats_ms: u64 = args.get_or("stats-ms", 0)?;
    let transport = cfg.transport;
    let listen = cfg.listen.clone();
    let proxy = Proxy::start(cfg).map_err(|e| io_err(&listen, &e))?;
    signal::install();
    println!(
        "proxy on {} ({} transport) fronting {shards} shards; SIGINT/SIGTERM stops",
        proxy.local_addr(),
        transport.name(),
    );
    let every = (stats_ms > 0).then(|| std::time::Duration::from_millis(stats_ms));
    let mut last = std::time::Instant::now();
    while !signal::triggered() {
        std::thread::sleep(std::time::Duration::from_millis(25));
        if let Some(every) = every {
            if last.elapsed() >= every {
                println!("{}", proxy.stats_json());
                last = std::time::Instant::now();
            }
        }
    }
    println!("{}", proxy.stats_json());
    proxy.stop();
    Ok(())
}

/// `clue promote`: ask a standby to take over serving (the manual
/// counterpart of the proxy's automatic failover).
fn promote(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["addr"])?;
    let addr = args.required("addr")?;
    let reply = rpc::call_expect(
        addr,
        &Frame::empty(FrameType::Promote, 0),
        FrameType::PromoteAck,
        std::time::Duration::from_secs(2),
        std::time::Duration::from_secs(10),
    )
    .map_err(|e| io_err(addr, &e))?;
    let seq_hw = wire::decode_u64(&reply.payload).map_err(|e| io_err(addr, &e))?;
    println!("promoted {addr}: serving resumes at seq high-water {seq_hw}");
    Ok(())
}

/// `clue snapshot`: offline compaction — recover a data dir, fold the
/// journal tail into a fresh snapshot, prune the WAL segments.
fn snapshot(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["data-dir"])?;
    let dir = args.required("data-dir")?;
    let (mut store, recovery) = Store::open(std::path::Path::new(dir), StoreConfig::default())
        .map_err(|e| io_err(dir, &e))?;
    let rec =
        recovery.ok_or_else(|| ArgError(format!("{dir} holds no recoverable state to compact")))?;
    println!(
        "recovered {} routes (epoch {}, seq high-water {}, {} journal records replayed{})",
        rec.table.len(),
        rec.epoch,
        rec.seq_hw,
        rec.replayed,
        if rec.truncated {
            "; torn tail skipped"
        } else {
            ""
        },
    );
    store
        .checkpoint_recovery(&rec)
        .map_err(|e| io_err(dir, &e))?;
    println!(
        "checkpointed at journal position {}; WAL pruned",
        store.snapshot_jseq()
    );
    Ok(())
}

/// `clue restore`: offline recovery report. Optionally exports the
/// recovered FIB (`--fib out.txt`) and/or verifies it against a base
/// FIB plus update trace (`--verify-fib`/`--verify-updates`), exiting
/// nonzero on divergence so CI can assert convergence after a crash.
fn restore(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["data-dir", "fib", "verify-fib", "verify-updates"])?;
    let dir = args.required("data-dir")?;
    let (_store, recovery) = Store::open(std::path::Path::new(dir), StoreConfig::default())
        .map_err(|e| io_err(dir, &e))?;
    let rec = recovery.ok_or_else(|| ArgError(format!("{dir} holds no recoverable state")))?;
    println!(
        "{dir}: {} routes | epoch {} | seq high-water {} | raw updates applied {} | \
         snapshot at jseq {} + {} replayed records | truncated tail: {} | \
         corrupt snapshots skipped: {}",
        rec.table.len(),
        rec.epoch,
        rec.seq_hw,
        rec.raw_applied,
        rec.snapshot_jseq,
        rec.replayed,
        rec.truncated,
        rec.snapshots_skipped,
    );
    if let Some(out) = args.optional("fib") {
        write_file(out, &rec.table.to_text())?;
        println!("wrote recovered FIB ({} routes) to {out}", rec.table.len());
    }
    match (args.optional("verify-fib"), args.optional("verify-updates")) {
        (None, None) => {}
        (Some(fib_path), Some(upd_path)) => {
            let mut want = load_fib(fib_path)?;
            let updates = load_updates(upd_path)?;
            let applied = usize::try_from(rec.raw_applied)
                .map_err(|_| ArgError("raw_applied overflows usize".into()))?;
            if applied > updates.len() {
                return Err(ArgError(format!(
                    "data dir absorbed {applied} updates but {upd_path} holds only {}",
                    updates.len()
                )));
            }
            for &u in &updates[..applied] {
                want.apply(u);
            }
            if rec.table != want {
                return Err(ArgError(format!(
                    "recovered table ({} routes) diverges from {fib_path} + first {applied} \
                     updates of {upd_path} ({} routes)",
                    rec.table.len(),
                    want.len()
                )));
            }
            println!(
                "verified: recovered table equals {fib_path} after {applied} of {} updates",
                updates.len()
            );
        }
        _ => {
            return Err(ArgError(
                "--verify-fib and --verify-updates must be given together".into(),
            ))
        }
    }
    Ok(())
}

/// `clue replay --data-dir`: journal inspection — print the base
/// snapshot and every decodable WAL record after it. With `--json
/// true` the same information is emitted as JSON Lines: one
/// `"snapshot"` object, one `"record"` object per WAL record, one
/// `"summary"` object — machine-diffable without scraping the table.
fn replay_journal(dir: &str, json: bool) -> Result<(), ArgError> {
    let path = std::path::Path::new(dir);
    let snaps = clue::store::list_snapshots(path).map_err(|e| io_err(dir, &e))?;
    let mut base = None;
    let mut skipped = 0u64;
    for p in &snaps {
        match clue::store::load_snapshot(p) {
            Ok(s) => {
                base = Some((p, s));
                break;
            }
            Err(_) => skipped += 1,
        }
    }
    let (snap_path, snap) =
        base.ok_or_else(|| ArgError(format!("{dir} holds no valid snapshot")))?;
    let snap_name = snap_path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("?");
    if json {
        println!(
            "{{\"kind\":\"snapshot\",\"file\":\"{snap_name}\",\"routes\":{},\
             \"compressed\":{},\"epoch\":{},\"seq_hw\":{},\"raw_total\":{},\
             \"chips\":{},\"jseq\":{},\"corrupt_skipped\":{skipped}}}",
            snap.table.len(),
            snap.compressed.len(),
            snap.epoch,
            snap.seq_hw,
            snap.raw_total,
            snap.chips,
            snap.jseq,
        );
    } else {
        println!(
            "{snap_name}: {} routes ({} compressed), epoch {}, seq high-water {}, \
             raw updates {}, {} chips",
            snap.table.len(),
            snap.compressed.len(),
            snap.epoch,
            snap.seq_hw,
            snap.raw_total,
            snap.chips,
        );
        if skipped > 0 {
            println!("({skipped} newer corrupt snapshot(s) skipped)");
        }
    }
    let scan = clue::store::scan_dir(path, snap.jseq).map_err(|e| io_err(dir, &e))?;
    if json {
        for rec in &scan.records {
            println!(
                "{{\"kind\":\"record\",\"jseq\":{},\"epoch\":{},\"seq_hw\":{},\
                 \"raw\":{},\"ops\":{}}}",
                rec.jseq,
                rec.epoch,
                rec.seq_hw,
                rec.raw,
                rec.ops.len()
            );
        }
    } else if !scan.records.is_empty() {
        println!(
            "{:>8} {:>8} {:>10} {:>6} {:>6}",
            "jseq", "epoch", "seq_hw", "raw", "ops"
        );
        for rec in &scan.records {
            println!(
                "{:>8} {:>8} {:>10} {:>6} {:>6}",
                rec.jseq,
                rec.epoch,
                rec.seq_hw,
                rec.raw,
                rec.ops.len()
            );
        }
    }
    let raw: u64 = scan.records.iter().map(|r| u64::from(r.raw)).sum();
    if json {
        println!(
            "{{\"kind\":\"summary\",\"records\":{},\"raw_updates\":{raw},\
             \"truncated\":{}}}",
            scan.records.len(),
            scan.truncated,
        );
    } else {
        println!(
            "{} journal records after the snapshot ({} raw updates){}",
            scan.records.len(),
            raw,
            if scan.truncated {
                "; tail truncated at the last valid record"
            } else {
                ""
            },
        );
    }
    Ok(())
}

fn loadgen(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "addr",
        "packets",
        "updates",
        "scenario",
        "seed",
        "routes",
        "rate",
        "update-rate",
        "threads",
        "lookup-batch",
        "update-batch",
        "connections",
    ])?;
    let addr = args.required("addr")?;
    let (packets, updates) = if let Some(name) = args.optional("scenario") {
        for bad in ["packets", "updates"] {
            if args.optional(bad).is_some() {
                return Err(ArgError(format!(
                    "--{bad} loads a trace file; it conflicts with --scenario"
                )));
            }
        }
        let kind: ScenarioKind = name.parse().map_err(ArgError)?;
        let d = ScenarioConfig::default();
        let cfg = ScenarioConfig {
            seed: args.get_or("seed", d.seed)?,
            routes: args.get_or("routes", d.routes)?,
            ..d
        };
        let s = Scenario::build(kind, &cfg);
        eprintln!(
            "scenario {kind}: {} updates + {} lookups over a {}-route base \
             (install it with `clue trace info --scenario {kind} --export-fib ...`)",
            s.schedule.len(),
            s.packets.len(),
            s.base.len(),
        );
        let ups = s.updates();
        (s.packets, ups)
    } else {
        for bad in ["seed", "routes"] {
            if args.optional(bad).is_some() {
                return Err(ArgError(format!("--{bad} applies to --scenario workloads")));
            }
        }
        let packets = match args.optional("packets") {
            Some(path) => load_packets(path)?,
            None => Vec::new(),
        };
        let updates = match args.optional("updates") {
            Some(path) => load_updates(path)?,
            None => Vec::new(),
        };
        (packets, updates)
    };
    if packets.is_empty() && updates.is_empty() {
        return Err(ArgError(
            "nothing to offer: give --packets, --updates, or --scenario".into(),
        ));
    }
    let connections: usize = args.get_or("connections", 0)?;
    if connections > 0 {
        // Swarm mode: N concurrent connections on one reactor, the
        // whole traces swept once across them.
        for bad in ["rate", "update-rate", "threads"] {
            if args.optional(bad).is_some() {
                return Err(ArgError(format!(
                    "--{bad} applies to the paced load generator, not --connections"
                )));
            }
        }
        let lookup_batch: usize = args.get_or("lookup-batch", 64)?;
        if lookup_batch == 0 {
            return Err(ArgError("all sizes must be positive".into()));
        }
        let cfg = SwarmConfig {
            addr: addr.to_owned(),
            connections,
            lookup_batch,
            rounds: packets.len().div_ceil(connections * lookup_batch),
            updates_per_conn: updates
                .len()
                .div_ceil(connections.max(1))
                .min(updates.len()),
            ..SwarmConfig::default()
        };
        eprintln!(
            "swarming {connections} connections at {addr}: {} lookup rounds x {} addrs, {} updates/conn",
            cfg.rounds, cfg.lookup_batch, cfg.updates_per_conn,
        );
        let report = run_swarm(&cfg, &packets, &updates).map_err(|e| io_err(addr, &e))?;
        println!("{}", report.to_json());
        return Ok(());
    }
    let cfg = LoadConfig {
        client: ClientConfig::to_addr(addr),
        lookup_threads: args.get_or("threads", 2)?,
        lookup_batch: args.get_or("lookup-batch", 64)?,
        update_batch: args.get_or("update-batch", 32)?,
        lookup_rate: args.get_or("rate", 0.0)?,
        update_rate: args.get_or("update-rate", 0.0)?,
    };
    if cfg.lookup_threads == 0 || cfg.lookup_batch == 0 || cfg.update_batch == 0 {
        return Err(ArgError("all sizes must be positive".into()));
    }
    eprintln!(
        "offering {} lookups ({} threads) + {} updates to {addr}",
        packets.len(),
        cfg.lookup_threads,
        updates.len(),
    );
    let report = run_load(&packets, &updates, &cfg).map_err(|e| io_err(addr, &e))?;
    if report.dial_errors > 0 {
        eprintln!(
            "warning: {} worker dial(s) failed; their share of the workload went unoffered",
            report.dial_errors
        );
    }
    println!("{}", report.to_json());
    Ok(())
}

fn stats(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["addr"])?;
    let addr = args.required("addr")?;
    let mut conn =
        Connection::connect(ClientConfig::to_addr(addr)).map_err(|e| io_err(addr, &e))?;
    let json = conn.stats_json().map_err(|e| io_err(addr, &e))?;
    println!("{json}");
    // A human-readable line for the active lookup plane, pulled out of
    // the JSON (the workspace carries no serde; the fields are ours).
    if let Some(plane) = json_object(&json, "\"plane\":") {
        if plane != "null" {
            let field = |key: &str| json_scalar(plane, key).unwrap_or("?");
            let heap: f64 = field("\"heap_bytes\":").parse().unwrap_or(0.0);
            println!(
                "plane: backend={} epoch={} entries={} heap={:.1} KiB replicated={}",
                field("\"backend\":\"").trim_end_matches('"'),
                field("\"epoch\":"),
                field("\"entries\":"),
                heap / 1024.0,
                field("\"replicated\":"),
            );
        }
    }
    let _ = conn.close();
    Ok(())
}

/// Extracts the value following `key` in `json`: a brace-balanced
/// object, or a bare scalar up to the next `,`/`}`.
fn json_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(key)? + key.len();
    let rest = &json[start..];
    if rest.starts_with('{') {
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&rest[..=i]);
                    }
                }
                _ => {}
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

/// Extracts a scalar field (number or string) after `key`.
fn json_scalar<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(key)? + key.len();
    let rest = &json[start..];
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn check(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "seed",
        "updates",
        "routes",
        "batch",
        "chips",
        "dred",
        "packets",
        "probe-sample",
        "probe-random",
        "faults",
        "fault-seed",
        "net",
        "recovery",
        "shards",
        "scenario",
        "out",
        "replay",
        "backend",
        "transport",
    ])?;
    let seed: u64 = args.get_or("seed", 7)?;
    let updates: usize = args.get_or("updates", 5_000)?;
    let mut cfg = CheckConfig::new(seed, updates);
    cfg.routes = args.get_or("routes", cfg.routes)?;
    cfg.batch = args.get_or("batch", cfg.batch)?;
    cfg.chips = args.get_or("chips", cfg.chips)?;
    cfg.dred_capacity = args.get_or("dred", cfg.dred_capacity)?;
    cfg.packets = args.get_or("packets", cfg.packets)?;
    cfg.probe_sample = args.get_or("probe-sample", cfg.probe_sample)?;
    cfg.probe_random = args.get_or("probe-random", cfg.probe_random)?;
    cfg.faults = match args.optional("faults").unwrap_or("off") {
        "on" => Some(FaultPlan::chaos(args.get_or("fault-seed", seed)?)),
        "off" => None,
        other => return Err(ArgError(format!("unknown faults mode {other:?} (on|off)"))),
    };
    cfg.net = match args.optional("net").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(ArgError(format!("unknown net mode {other:?} (on|off)"))),
    };
    cfg.recovery = match args.optional("recovery").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => {
            return Err(ArgError(format!(
                "unknown recovery mode {other:?} (on|off)"
            )))
        }
    };
    cfg.backend = parse_backend(args)?;
    cfg.transport = parse_transport(args)?;
    cfg.shards = args.get_or("shards", 1)?;
    if cfg.shards == 0 {
        return Err(ArgError(
            "--shards must be at least 1 (2+ runs the cluster phase)".into(),
        ));
    }

    if let Some(path) = args.optional("replay") {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let repro = Reproducer::from_text(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
        for line in repro.note.lines() {
            println!("# {line}");
        }
        println!(
            "replaying {} updates on a {}-route table",
            repro.trace.len(),
            repro.table.len()
        );
        return match harness::replay(&repro, &cfg) {
            Ok(()) => {
                println!("reproducer replayed clean — the divergence no longer triggers");
                Ok(())
            }
            Err(d) => Err(ArgError(format!("reproducer still diverges: {d}"))),
        };
    }

    if let Some(name) = args.optional("scenario") {
        return check_scenario(args, &cfg, name);
    }

    println!(
        "conformance check: seed {seed}, {} routes, {updates} updates (batch {}), \
         {} chips, {} packets, faults {}, {} backend (all backends probed)",
        cfg.routes,
        cfg.batch,
        cfg.chips,
        cfg.packets,
        if cfg.faults.is_some() { "on" } else { "off" },
        cfg.backend,
    );
    match run_check(&cfg) {
        Ok(report) => {
            println!(
                "PASS: {} batches checked, {} oracle probes agreed, router converged \
                 over {} epochs ({} packet lookups)",
                report.batches, report.probes, report.router_epochs, report.router_lookups,
            );
            if cfg.net {
                println!(
                    "net phase: {} lookups over loopback TCP, {} reconnects",
                    report.net_lookups, report.net_reconnects,
                );
            }
            if cfg.recovery {
                println!(
                    "recovery phase: {} crash points, {} journal records replayed, \
                     {} boundary probes agreed",
                    report.recovery_crashes, report.recovery_replayed, report.recovery_probes,
                );
            }
            if cfg.shards > 1 {
                println!(
                    "cluster phase: {} shards, {} proxied lookups agreed, {} failover \
                     (zero lost acks), {} convergence probes",
                    report.cluster_shards,
                    report.cluster_lookups,
                    report.cluster_failovers,
                    report.cluster_probes,
                );
            }
            Ok(())
        }
        Err(failure) => {
            eprintln!("FAIL: {}", failure.divergence);
            eprintln!(
                "minimizing a {}-update trace (this re-runs the failing phase)...",
                failure.trace.len()
            );
            let repro = harness::minimize_failure(&failure, &cfg);
            let out = args.optional("out").unwrap_or("clue-reproducer.txt");
            write_file(out, &repro.to_text())?;
            eprintln!(
                "wrote minimized reproducer ({} routes, {} updates) to {out}; \
                 replay it with `clue check --replay {out}`",
                repro.table.len(),
                repro.trace.len()
            );
            Err(ArgError(format!(
                "conformance divergence: {}",
                failure.divergence
            )))
        }
    }
}

/// `clue check --scenario NAME`: the adversarial-scenario phase on its
/// own — sequential differential check on every backend, then a live
/// replay per backend over loopback TCP (and a sharded pass with
/// `--shards N`). Failures minimize into the same reproducer format as
/// the generic check.
fn check_scenario(args: &Args, cfg: &CheckConfig, name: &str) -> Result<(), ArgError> {
    let kind: ScenarioKind = name.parse().map_err(ArgError)?;
    println!(
        "scenario check: {kind}, seed {}, {} routes, ~{} updates (batch {}), \
         {} packets, faults {}, shards {}",
        cfg.seed,
        cfg.routes,
        cfg.updates,
        cfg.batch,
        cfg.packets,
        if cfg.faults.is_some() { "on" } else { "off" },
        cfg.shards,
    );
    match run_scenario_check(cfg, kind) {
        Ok(o) => {
            println!(
                "PASS: {} batches checked, {} oracle probes agreed, {} updates applied",
                o.batches, o.probes, o.applied,
            );
            println!(
                "live replay: {} backend runs, {} wire lookups, {} settled probes, \
                 zero lost acks",
                o.live_runs, o.live_lookups, o.live_probes,
            );
            if o.shards > 0 {
                println!(
                    "sharded replay: {} shards, {} proxied lookups agreed",
                    o.shards, o.shard_lookups,
                );
            }
            Ok(())
        }
        Err(failure) => {
            eprintln!("FAIL: {}", failure.divergence);
            eprintln!(
                "minimizing a {}-update trace (this re-runs the failing phase)...",
                failure.trace.len()
            );
            let repro = harness::minimize_failure(&failure, cfg);
            let out = args.optional("out").unwrap_or("clue-reproducer.txt");
            write_file(out, &repro.to_text())?;
            eprintln!(
                "wrote minimized reproducer ({} routes, {} updates) to {out}; \
                 replay it with `clue check --replay {out}`",
                repro.table.len(),
                repro.trace.len()
            );
            Err(ArgError(format!(
                "scenario divergence: {}",
                failure.divergence
            )))
        }
    }
}

/// `clue trace <gen|info|replay>`: MRT fixtures and named scenarios.
fn trace_cmd(args: &Args) -> Result<(), ArgError> {
    match args.positionals() {
        [action] => match action.as_str() {
            "gen" => trace_gen(args),
            "info" => trace_info(args),
            "replay" => trace_replay(args),
            other => Err(ArgError(format!(
                "unknown trace action {other:?} (gen|info|replay)"
            ))),
        },
        [] => Err(ArgError("trace needs an action: gen|info|replay".into())),
        more => Err(ArgError(format!(
            "trace takes exactly one action, got {more:?}"
        ))),
    }
}

/// Builds the scenario a `trace` action operates on: either a named
/// synthetic workload (`--scenario`) or real MRT bytes (`--rib`, with
/// an optional `--updates-mrt` stream). Shared by `info` and `replay`.
fn scenario_from_args(args: &Args) -> Result<Scenario, ArgError> {
    let d = ScenarioConfig::default();
    let cfg = ScenarioConfig {
        seed: args.get_or("seed", d.seed)?,
        routes: args.get_or("routes", d.routes)?,
        updates: args.get_or("updates", d.updates)?,
        packets: args.get_or("packets", d.packets)?,
        ..d
    };
    match (args.optional("scenario"), args.optional("rib")) {
        (Some(_), Some(_)) => Err(ArgError(
            "--scenario and --rib are mutually exclusive".into(),
        )),
        (Some(name), None) => {
            if args.optional("updates-mrt").is_some() {
                return Err(ArgError(
                    "--updates-mrt pairs with --rib, not --scenario".into(),
                ));
            }
            let kind: ScenarioKind = name.parse().map_err(ArgError)?;
            Ok(Scenario::build(kind, &cfg))
        }
        (None, Some(rib_path)) => {
            let bytes = std::fs::read(rib_path).map_err(|e| io_err(rib_path, &e))?;
            let rib = parse_rib(&bytes).map_err(|e| ArgError(format!("{rib_path}: {e}")))?;
            let upd = match args.optional("updates-mrt") {
                Some(p) => {
                    let b = std::fs::read(p).map_err(|e| io_err(p, &e))?;
                    parse_updates(&b).map_err(|e| ArgError(format!("{p}: {e}")))?
                }
                None => MrtUpdates {
                    messages: Vec::new(),
                    skipped: 0,
                },
            };
            if !rib.v6_records.is_empty() {
                let with_hop = rib
                    .v6_records
                    .iter()
                    .filter(|r| r.entries.iter().any(|e| e.next_hop.is_some()))
                    .count();
                println!(
                    "ipv6 rib records: {} ({} with a next hop) — decoded, \
                     not fed to the v4 pipeline",
                    rib.v6_records.len(),
                    with_hop,
                );
            }
            if rib.skipped > 0 || upd.skipped > 0 {
                eprintln!(
                    "(skipped {} foreign RIB record(s), {} foreign update record(s))",
                    rib.skipped, upd.skipped,
                );
            }
            Ok(Scenario::from_mrt(&rib, &upd, &cfg))
        }
        (None, None) => Err(ArgError("give --scenario NAME or --rib FILE".into())),
    }
}

/// `clue trace gen`: write a canonical MRT RIB dump + update stream
/// for a synthetic table, verifying `encode → parse → encode` is
/// byte-identical before anything touches disk.
fn trace_gen(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["out-rib", "out-updates", "seed", "routes", "updates"])?;
    let out_rib = args.required("out-rib")?;
    let out_updates = args.required("out-updates")?;
    let seed: u64 = args.get_or("seed", 7)?;
    let routes: usize = args.get_or("routes", 2_000)?;
    let count: usize = args.get_or("updates", 5_000)?;

    let table = FibGen::new(seed).routes(routes).generate();
    let updates = UpdateGen::new(seed ^ 0x3A7E).generate(&table, count);
    let trace = UpdateTrace::evenly_spaced(&updates, 1);
    const BASE_TS: u32 = 1_700_000_000;
    let rib_bytes = MrtRib::from_table(&table, BASE_TS).encode();
    let upd_bytes = MrtUpdates::from_trace(&trace, BASE_TS).encode();

    let reparsed = parse_rib(&rib_bytes).map_err(|e| ArgError(format!("rib round-trip: {e}")))?;
    if reparsed.encode() != rib_bytes {
        return Err(ArgError("rib round-trip: re-encode differs".into()));
    }
    let reparsed =
        parse_updates(&upd_bytes).map_err(|e| ArgError(format!("updates round-trip: {e}")))?;
    if reparsed.encode() != upd_bytes {
        return Err(ArgError("updates round-trip: re-encode differs".into()));
    }

    std::fs::write(out_rib, &rib_bytes).map_err(|e| io_err(out_rib, &e))?;
    std::fs::write(out_updates, &upd_bytes).map_err(|e| io_err(out_updates, &e))?;
    println!(
        "wrote {} routes to {out_rib} ({} bytes) and {} updates to {out_updates} \
         ({} bytes); both round-trip verified",
        table.len(),
        rib_bytes.len(),
        trace.len(),
        upd_bytes.len(),
    );
    Ok(())
}

/// `clue trace info`: describe a workload and optionally export its
/// pieces in the plain-text formats the rest of the CLI consumes.
fn trace_info(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "scenario",
        "rib",
        "updates-mrt",
        "seed",
        "routes",
        "updates",
        "packets",
        "export-fib",
        "export-updates",
        "export-packets",
    ])?;
    let scenario = scenario_from_args(args)?;
    println!("{}", scenario.describe());
    if let Some(path) = args.optional("export-fib") {
        write_file(path, &scenario.base.to_text())?;
        println!("wrote {} routes to {path}", scenario.base.len());
    }
    if let Some(path) = args.optional("export-updates") {
        let mut text = String::new();
        for u in scenario.updates() {
            text.push_str(&u.to_string());
            text.push('\n');
        }
        write_file(path, &text)?;
        println!("wrote {} updates to {path}", scenario.schedule.len());
    }
    if let Some(path) = args.optional("export-packets") {
        let mut text = String::with_capacity(scenario.packets.len() * 16);
        for &addr in &scenario.packets {
            let o = addr.to_be_bytes();
            text.push_str(&format!("{}.{}.{}.{}\n", o[0], o[1], o[2], o[3]));
        }
        write_file(path, &text)?;
        println!("wrote {} packets to {path}", scenario.packets.len());
    }
    Ok(())
}

/// `clue trace replay`: drive a workload's timed schedule at recorded
/// (or `--speed`-scaled) pace — against an in-process router by
/// default, or over the wire with `--addr` (the server must already
/// hold the scenario's base table; see `trace info --export-fib`).
fn trace_replay(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "scenario",
        "rib",
        "updates-mrt",
        "seed",
        "routes",
        "updates",
        "packets",
        "speed",
        "addr",
        "workers",
        "dred",
        "batch",
    ])?;
    let scenario = scenario_from_args(args)?;
    let speed: f64 = args.get_or("speed", 1.0)?;
    let schedule = scenario.schedule.scaled(speed);
    let batch: usize = args.get_or("batch", 64)?;
    if batch == 0 {
        return Err(ArgError("--batch must be positive".into()));
    }
    println!("{}", scenario.describe());
    println!(
        "replaying {} events over {} ms (speed {speed}x)",
        schedule.len(),
        schedule.duration_ms(),
    );
    match args.optional("addr") {
        None => trace_replay_local(args, &scenario, &schedule, batch),
        Some(addr) => trace_replay_wire(addr, &scenario, &schedule, batch),
    }
}

/// Sleeps until `at_ms` past `t0` (no-op once the deadline has passed).
fn pace(t0: std::time::Instant, at_ms: u64) {
    let due = std::time::Duration::from_millis(at_ms);
    if let Some(wait) = due.checked_sub(t0.elapsed()) {
        std::thread::sleep(wait);
    }
}

/// Offline replay: an in-process [`RouterService`] seeded with the
/// scenario's base table, the schedule submitted at pace, then the
/// packet trace looked up in batches.
fn trace_replay_local(
    args: &Args,
    scenario: &Scenario,
    schedule: &UpdateTrace,
    batch: usize,
) -> Result<(), ArgError> {
    let cfg = RouterConfig {
        workers: args.get_or("workers", 4)?,
        dred_capacity: args.get_or("dred", 1024)?,
        batch_size: batch,
        ..RouterConfig::default()
    };
    if cfg.workers == 0 || cfg.dred_capacity == 0 {
        return Err(ArgError("all sizes must be positive".into()));
    }
    let svc = RouterService::start(&scenario.base, &cfg);
    let t0 = std::time::Instant::now();
    let mut dropped = 0usize;
    for ev in &schedule.events {
        pace(t0, ev.at_ms);
        if svc.submit_update(ev.update) == clue::router::SubmitOutcome::Dropped {
            dropped += 1;
        }
    }
    let fed = t0.elapsed();
    let mut answered = 0usize;
    let mut hits = 0usize;
    for chunk in scenario.packets.chunks(batch) {
        let answers = svc.lookup_batch(chunk.to_vec());
        hits += answers.iter().filter(|a| a.is_some()).count();
        answered += answers.len();
    }
    let total = t0.elapsed();
    let s = svc.stats();
    println!(
        "schedule fed in {:.1} ms ({dropped} dropped); {answered} lookups \
         ({hits} hits) done at {:.1} ms",
        fed.as_secs_f64() * 1e3,
        total.as_secs_f64() * 1e3,
    );
    println!(
        "router: {} received -> {} applied (coalesce ratio {:.3}), {} batches, \
         {} epochs, {} arrivals / {} completions",
        s.updates_received,
        s.updates_applied,
        s.coalesce_ratio,
        s.batches,
        s.epochs,
        s.arrivals,
        s.completions,
    );
    let lookup_rate = if total.as_secs_f64() > 0.0 {
        answered as f64 / total.as_secs_f64()
    } else {
        0.0
    };
    println!("throughput: {lookup_rate:.0} lookups/sec end to end");
    let _ = svc.drain();
    Ok(())
}

/// Wire replay: the schedule pushed over one TCP connection at pace
/// (batches flushed at timing gaps), then the packet trace swept.
fn trace_replay_wire(
    addr: &str,
    scenario: &Scenario,
    schedule: &UpdateTrace,
    batch: usize,
) -> Result<(), ArgError> {
    let mut conn =
        Connection::connect(ClientConfig::to_addr(addr)).map_err(|e| io_err(addr, &e))?;
    let t0 = std::time::Instant::now();
    let mut pending: Vec<Update> = Vec::new();
    let mut due_ms = 0u64;
    for ev in &schedule.events {
        if ev.at_ms != due_ms && !pending.is_empty() {
            pace(t0, due_ms);
            conn.send_updates(&pending).map_err(|e| io_err(addr, &e))?;
            pending.clear();
        }
        due_ms = ev.at_ms;
        pending.push(ev.update);
        if pending.len() >= batch {
            pace(t0, due_ms);
            conn.send_updates(&pending).map_err(|e| io_err(addr, &e))?;
            pending.clear();
        }
    }
    if !pending.is_empty() {
        pace(t0, due_ms);
        conn.send_updates(&pending).map_err(|e| io_err(addr, &e))?;
    }
    conn.flush_acks().map_err(|e| io_err(addr, &e))?;
    let fed = t0.elapsed();
    let mut answered = 0usize;
    let mut hits = 0usize;
    for chunk in scenario.packets.chunks(batch) {
        let answers = conn.lookup(chunk).map_err(|e| io_err(addr, &e))?;
        hits += answers.iter().filter(|a| a.is_some()).count();
        answered += answers.len();
    }
    let total = t0.elapsed();
    let report = conn.close().map_err(|e| io_err(addr, &e))?;
    println!(
        "schedule fed in {:.1} ms; {answered} lookups ({hits} hits) done at {:.1} ms",
        fed.as_secs_f64() * 1e3,
        total.as_secs_f64() * 1e3,
    );
    println!(
        "client: {} accepted, {} dropped, {} reconnects, last acked seq {}",
        report.accepted, report.dropped, report.reconnects, report.last_acked,
    );
    Ok(())
}
