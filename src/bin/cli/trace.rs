//! `clue trace gen|info|replay`: MRT fixtures and named scenarios.

use crate::args::{ArgError, Args};
use crate::{io_err, router_config, write_text};

use clue::fib::gen::FibGen;
use clue::fib::io::{write_packets, write_route_table, write_updates};
use clue::fib::Update;
use clue::net::{ClientConfig, Connection};
use clue::router::RouterService;
use clue::trace::{
    parse_rib, parse_updates, MrtRib, MrtUpdates, Scenario, ScenarioConfig, ScenarioKind,
    UpdateTrace,
};
use clue::traffic::UpdateGen;

/// `clue trace <gen|info|replay>`: MRT fixtures and named scenarios.
pub fn trace_cmd(args: &Args) -> Result<(), ArgError> {
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

/// `--seed` and `--routes` over the scenario defaults: what `loadgen
/// --scenario` reads, where `--updates`/`--packets` name trace files.
pub fn scenario_config(args: &Args) -> Result<ScenarioConfig, ArgError> {
    let d = ScenarioConfig::default();
    Ok(ScenarioConfig {
        seed: args.get_or("seed", d.seed)?,
        routes: args.get_or("routes", d.routes)?,
        ..d
    })
}

/// Builds the scenario a `trace` action operates on: either a named
/// synthetic workload (`--scenario`) or real MRT bytes (`--rib`, with
/// an optional `--updates-mrt` stream). Shared by `info` and `replay`.
fn scenario_from_args(args: &Args) -> Result<Scenario, ArgError> {
    let base = scenario_config(args)?;
    let cfg = ScenarioConfig {
        updates: args.get_or("updates", base.updates)?,
        packets: args.get_or("packets", base.packets)?,
        ..base
    };
    match (args.optional("scenario"), args.optional("rib")) {
        (Some(_), Some(_)) => Err(ArgError(
            "--scenario and --rib are mutually exclusive".into(),
        )),
        (Some(name), None) => {
            args.reject(&["updates-mrt"], |_| {
                "--updates-mrt pairs with --rib, not --scenario".into()
            })?;
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
        write_text(path, |f| write_route_table(f, &scenario.base))?;
        println!("wrote {} routes to {path}", scenario.base.len());
    }
    if let Some(path) = args.optional("export-updates") {
        write_text(path, |f| write_updates(f, &scenario.updates()))?;
        println!("wrote {} updates to {path}", scenario.schedule.len());
    }
    if let Some(path) = args.optional("export-packets") {
        write_text(path, |f| write_packets(f, &scenario.packets))?;
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
    let cfg = router_config(args)?;
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
    // One frame per run of equal timestamps, split at `batch` updates.
    for run in schedule.events.chunk_by(|a, b| a.at_ms == b.at_ms) {
        for frame in run.chunks(batch) {
            pace(t0, frame[0].at_ms);
            let updates: Vec<Update> = frame.iter().map(|ev| ev.update).collect();
            conn.send_updates(&updates).map_err(|e| io_err(addr, &e))?;
        }
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
