//! `clue loadgen` and `stats`: clients of a running server.

use crate::args::{ArgError, Args};
use crate::trace::scenario_config;
use crate::{io_err, load_packets, load_updates};

use clue::net::{run_load, run_swarm, ClientConfig, Connection, LoadConfig, SwarmConfig};
use clue::trace::{Scenario, ScenarioKind};

pub fn loadgen(args: &Args) -> Result<(), ArgError> {
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
        args.reject(&["packets", "updates"], |bad| {
            format!("--{bad} loads a trace file; it conflicts with --scenario")
        })?;
        let kind: ScenarioKind = name.parse().map_err(ArgError)?;
        let s = Scenario::build(kind, &scenario_config(args)?);
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
        args.reject(&["seed", "routes"], |bad| {
            format!("--{bad} applies to --scenario workloads")
        })?;
        let packets = args.optional("packets").map(load_packets).transpose()?;
        let updates = args.optional("updates").map(load_updates).transpose()?;
        (packets.unwrap_or_default(), updates.unwrap_or_default())
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
        args.reject(&["rate", "update-rate", "threads"], |bad| {
            format!("--{bad} applies to the paced load generator, not --connections")
        })?;
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

pub fn stats(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["addr"])?;
    let addr = args.required("addr")?;
    let mut conn =
        Connection::connect(ClientConfig::to_addr(addr)).map_err(|e| io_err(addr, &e))?;
    let json = conn.stats_json().map_err(|e| io_err(addr, &e))?;
    println!("{json}");
    // A human-readable line for the active lookup plane, pulled out of
    // the JSON (the workspace carries no serde; the fields are ours, and
    // the plane object is flat).
    let plane = json
        .split_once("\"plane\":{")
        .and_then(|(_, rest)| rest.split_once('}'));
    if let Some((plane, _)) = plane {
        let field = |key: &str| {
            let key = format!("\"{key}\":");
            let value = plane
                .split(',')
                .find_map(|kv| kv.strip_prefix(key.as_str()));
            value.unwrap_or("?").trim_matches('"')
        };
        let heap: f64 = field("heap_bytes").parse().unwrap_or(0.0);
        println!(
            "plane: backend={} epoch={} entries={} heap={:.1} KiB replicated={}",
            field("backend"),
            field("epoch"),
            field("entries"),
            heap / 1024.0,
            field("replicated"),
        );
    }
    let _ = conn.close();
    Ok(())
}
