//! `clue shardmap`, `proxy` and `promote`: the sharded tier.

use crate::args::{ArgError, Args};
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Duration;

use crate::{io_err, load_fib, parse_transport, serve_until_stopped, write_text};

use clue::cluster::{Proxy, ProxyConfig, ShardMap, ShardSpec};
use clue::fib::io::write_route_table;
use clue::net::{client, wire, Frame, FrameType};

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
pub fn shardmap(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "shards", "standbys", "out", "split-dir"])?;
    let fib = load_fib(args.required("fib")?)?;
    let specs = parse_shard_specs(args)?;
    let map = ShardMap::derive(&fib, specs).map_err(|e| io_err("shard map", &e))?;
    let subs: Vec<_> = (0..map.len()).map(|i| map.filter_table(&fib, i)).collect();
    for (i, (spec, sub)) in map.shards().iter().zip(&subs).enumerate() {
        let range = map.shard_range(i);
        println!(
            "shard {i}: {}..{} ({} routes) -> {}{}",
            Ipv4Addr::from(*range.start()),
            Ipv4Addr::from(*range.end()),
            sub.len(),
            spec.primary,
            spec.standby
                .as_deref()
                .map(|s| format!(" (standby {s})"))
                .unwrap_or_default(),
        );
    }
    if let Some(out) = args.optional("out") {
        map.write_file(Path::new(out))
            .map_err(|e| io_err(out, &e))?;
        println!(
            "wrote shard map ({} shards, {} bytes) to {out}",
            map.len(),
            map.encode().len(),
        );
    }
    if let Some(dir) = args.optional("split-dir") {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        for (i, sub) in subs.iter().enumerate() {
            let path = format!("{dir}/shard{i}.txt");
            write_text(&path, |f| write_route_table(f, sub))?;
            println!("wrote {} routes to {path}", sub.len());
        }
    }
    Ok(())
}

/// `clue proxy`: front N shard primaries as one logical router —
/// range-partitioned fan-out, per-shard health checks, and automatic
/// standby promotion on primary failure.
pub fn proxy(args: &Args) -> Result<(), ArgError> {
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
            args.reject(&["fib", "shards", "standbys"], |bad| {
                format!("--map already carries the cuts and endpoints; drop --{bad}")
            })?;
            ShardMap::read_file(Path::new(path)).map_err(|e| io_err(path, &e))?
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
    cfg.heartbeat_every = Duration::from_millis(args.get_or("heartbeat-ms", 150)?);
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
    serve_until_stopped(
        &format!(
            "proxy on {} ({} transport) fronting {shards} shards; SIGINT/SIGTERM stops",
            proxy.local_addr(),
            transport.name(),
        ),
        stats_ms,
        || true,
        || Some(proxy.stats_json()),
    );
    println!("{}", proxy.stats_json());
    proxy.stop();
    Ok(())
}

/// `clue promote`: ask a standby to take over serving (the manual
/// counterpart of the proxy's automatic failover).
pub fn promote(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["addr"])?;
    let addr = args.required("addr")?;
    let reply = client::call(
        addr,
        &Frame::empty(FrameType::Promote, 0),
        FrameType::PromoteAck,
        Duration::from_secs(2),
        Duration::from_secs(10),
    )
    .map_err(|e| io_err(addr, &e))?;
    let seq_hw = wire::decode_u64(&reply.payload).map_err(|e| io_err(addr, &e))?;
    println!("promoted {addr}: serving resumes at seq high-water {seq_hw}");
    Ok(())
}
