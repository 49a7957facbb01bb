//! `clue` — command-line front end for the CLUE reproduction.
//!
//! `clue --help` prints [`USAGE`]: every subcommand with its required and
//! optional flags, each given as `--key value`.
//!
//! All file formats are plain text: FIBs are `a.b.c.d/len nh` lines,
//! packet traces are one dotted-quad address per line, update traces are
//! `A prefix nh` / `W prefix` lines. [`clue::fib::io`] reads and writes
//! all three.
//!
//! One module per subcommand group (`gen`, `paper`, `serve`, `cluster`,
//! `store`, `load`, `check`, `trace`); this file keeps the usage text,
//! the dispatch and the helpers they share.

mod args;
mod check;
mod cluster;
mod gen;
mod load;
mod paper;
mod serve;
mod store;
mod trace;

use std::fs::File;
use std::io;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use args::{ArgError, Args};

use clue::core::BackendKind;
use clue::fib::io::{read_packets, read_route_table, read_updates};
use clue::fib::{RouteTable, Update};
use clue::net::{signal, Transport};
use clue::router::{OverflowPolicy, RouterConfig};

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
        "gen-fib" => gen::gen_fib(args),
        "gen-packets" => gen::gen_packets(args),
        "gen-updates" => gen::gen_updates(args),
        "compress" => paper::compress(args),
        "partition" => paper::partition(args),
        "simulate" => paper::simulate(args),
        "replay" => paper::replay(args),
        "trace" => trace::trace_cmd(args),
        "serve" => serve::serve(args),
        "shardmap" => cluster::shardmap(args),
        "proxy" => cluster::proxy(args),
        "promote" => cluster::promote(args),
        "snapshot" => store::snapshot(args),
        "restore" => store::restore(args),
        "loadgen" => load::loadgen(args),
        "stats" => load::stats(args),
        "check" => check::check(args),
        other => Err(ArgError(format!("unknown command {other:?}"))),
    }
}

fn io_err(context: &str, e: &io::Error) -> ArgError {
    ArgError(format!("{context}: {e}"))
}

/// Opens `path` for one of the [`clue::fib::io`] readers; an error names
/// the path (and, for a malformed line, its number).
fn read_text<T>(path: &str, read: impl FnOnce(File) -> io::Result<T>) -> Result<T, ArgError> {
    File::open(path)
        .and_then(read)
        .map_err(|e| io_err(path, &e))
}

/// Creates `path` for one of the [`clue::fib::io`] writers.
fn write_text(path: &str, write: impl FnOnce(File) -> io::Result<()>) -> Result<(), ArgError> {
    File::create(path)
        .and_then(write)
        .map_err(|e| io_err(path, &e))
}

fn load_fib(path: &str) -> Result<RouteTable, ArgError> {
    read_text(path, read_route_table)
}

fn load_packets(path: &str) -> Result<Vec<u32>, ArgError> {
    read_text(path, read_packets)
}

fn load_updates(path: &str) -> Result<Vec<Update>, ArgError> {
    read_text(path, read_updates)
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

/// The router flags `serve` and `trace replay` share (`--workers --dred
/// --batch --queue --overflow --backend`) over [`RouterConfig::default`].
fn router_config(args: &Args) -> Result<RouterConfig, ArgError> {
    let d = RouterConfig::default();
    let overflow = match args.optional("overflow").unwrap_or("block") {
        "block" => OverflowPolicy::Block,
        "drop" => OverflowPolicy::DropNewest,
        other => return Err(ArgError(format!("unknown overflow {other:?} (block|drop)"))),
    };
    let cfg = RouterConfig {
        workers: args.get_or("workers", d.workers)?,
        dred_capacity: args.get_or("dred", d.dred_capacity)?,
        batch_size: args.get_or("batch", d.batch_size)?,
        update_queue: args.get_or("queue", d.update_queue)?,
        overflow,
        backend: parse_backend(args)?,
        ..d
    };
    if cfg.workers == 0 || cfg.dred_capacity == 0 || cfg.batch_size == 0 || cfg.update_queue == 0 {
        return Err(ArgError("all sizes must be positive".into()));
    }
    Ok(cfg)
}

/// The loop every long-running tier (`serve`, `proxy`) runs once it is
/// up: install the SIGINT/SIGTERM handler, print `banner`, then wake
/// every 25 ms until a signal arrives or `tick` returns `false`. Every
/// `stats_ms` (when positive) it prints the line `stats` yields, if any.
fn serve_until_stopped(
    banner: &str,
    stats_ms: u64,
    mut tick: impl FnMut() -> bool,
    stats: impl Fn() -> Option<String>,
) {
    signal::install();
    println!("{banner}");
    let every = (stats_ms > 0).then(|| Duration::from_millis(stats_ms));
    let mut last = Instant::now();
    while !signal::triggered() && tick() {
        std::thread::sleep(Duration::from_millis(25));
        if every.is_some_and(|every| last.elapsed() >= every) {
            if let Some(line) = stats() {
                println!("{line}");
            }
            last = Instant::now();
        }
    }
}
