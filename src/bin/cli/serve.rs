//! `clue serve`: the file-driven run, the networked server, the shard
//! primary and the warm standby.

use std::path::Path;
use std::time::Duration;

use crate::args::{ArgError, Args};
use crate::{
    io_err, load_fib, load_packets, load_updates, parse_transport, router_config,
    serve_until_stopped,
};

use clue::cluster::{Primary, PrimaryConfig, ReplConfig, Standby, StandbyConfig, StandbyOutcome};
use clue::fib::RouteTable;
use clue::net::{Server, ServerConfig};
use clue::router::RouterService;
use clue::store::{Store, StoreConfig};

pub fn serve(args: &Args) -> Result<(), ArgError> {
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
    let stats_ms: u64 = args.get_or("stats-ms", 0)?;
    let mut router = router_config(args)?;
    let transport = parse_transport(args)?;
    if let Some(primary_repl) = args.optional("follow") {
        let state = [
            "fib",
            "packets",
            "updates",
            "data-dir",
            "repl-listen",
            "sync-ms",
        ];
        args.reject(&state, |bad| {
            format!("--follow conflicts with --{bad} (a standby mirrors its primary's state)")
        })?;
        args.reject(&["transport"], |_| {
            "--transport applies to a serving endpoint, not a standby follower".into()
        })?;
        let cfg = StandbyConfig {
            listen: args.required("listen")?.to_owned(),
            primary_repl: primary_repl.to_owned(),
            router,
            ..StandbyConfig::default()
        };
        return serve_follow(cfg, stats_ms);
    }
    // The networked tiers report through their own stats JSON, and with
    // --data-dir an existing directory's state wins: --fib is only needed
    // (and only read) to seed a fresh one.
    let server = |listen: &str| ServerConfig {
        listen: listen.to_owned(),
        router,
        transport,
        ..ServerConfig::default()
    };
    let fib = || args.optional("fib").map(load_fib).transpose();
    if let Some(repl_listen) = args.optional("repl-listen") {
        let listen = args.optional("listen").ok_or_else(|| {
            ArgError("--repl-listen needs --listen (the client/proxy-facing address)".into())
        })?;
        let dir = args.optional("data-dir").ok_or_else(|| {
            ArgError("--repl-listen needs --data-dir (a replicated ack implies journaled)".into())
        })?;
        let fib = fib()?;
        let cfg = PrimaryConfig {
            server: server(listen),
            repl: ReplConfig {
                listen: repl_listen.to_owned(),
                ..ReplConfig::default()
            },
            store: StoreConfig::default(),
            sync_timeout: Duration::from_millis(args.get_or("sync-ms", 2_000u64)?.max(1)),
        };
        return serve_primary(&cfg, dir, fib.as_ref(), stats_ms);
    }
    args.reject(&["sync-ms"], |_| {
        "--sync-ms applies only to a shard primary (--repl-listen)".into()
    })?;
    if let Some(listen) = args.optional("listen") {
        let fib = fib()?;
        return serve_net(
            &server(listen),
            args.optional("data-dir"),
            fib.as_ref(),
            stats_ms,
        );
    }
    args.reject(&["data-dir"], |_| {
        "--data-dir needs --listen (durability belongs to the live server)".into()
    })?;
    let fib = load_fib(args.required("fib")?)?;
    let packets = load_packets(args.required("packets")?)?;
    let updates = load_updates(args.required("updates")?)?;
    router.snapshot_every = (stats_ms > 0).then(|| Duration::from_millis(stats_ms));

    println!(
        "serving {} packets + {} updates over {} workers (batch {}, queue {}, {:?})",
        packets.len(),
        updates.len(),
        router.workers,
        router.batch_size,
        router.update_queue,
        router.overflow,
    );
    let report = clue::router::run(&fib, &packets, &updates, &router);
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
    scfg: &ServerConfig,
    data_dir: Option<&str>,
    fib: Option<&RouteTable>,
    stats_ms: u64,
) -> Result<(), ArgError> {
    let listen = scfg.listen.as_str();
    let (server, routes) = match data_dir {
        None => {
            let fib = fib.ok_or_else(|| ArgError("missing required flag --fib".into()))?;
            let server = Server::start(fib, scfg).map_err(|e| io_err(listen, &e))?;
            (server, fib.len())
        }
        Some(dir) => {
            let (store, state, recovered) = Store::open_or_seed(
                Path::new(dir),
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
            let server = Server::start_with_service(svc, state.seq_hw, scfg)
                .map_err(|e| io_err(listen, &e))?;
            (server, state.table.len())
        }
    };
    serve_until_stopped(
        &format!(
            "listening on {} ({} routes, {} workers, batch {}, queue {}, {:?}); \
             SIGINT/SIGTERM drains",
            server.local_addr(),
            routes,
            scfg.router.workers,
            scfg.router.batch_size,
            scfg.router.update_queue,
            scfg.router.overflow,
        ),
        stats_ms,
        || !server.shutdown_requested(),
        || Some(server.stats_json()),
    );
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
fn serve_primary(
    cfg: &PrimaryConfig,
    dir: &str,
    fib: Option<&RouteTable>,
    stats_ms: u64,
) -> Result<(), ArgError> {
    let primary =
        Primary::start(Path::new(dir), fib, cfg).map_err(|e| io_err(&cfg.server.listen, &e))?;
    serve_until_stopped(
        &format!(
            "shard primary on {} ({} routes, {}), shipping WAL on {}; SIGINT/SIGTERM drains",
            primary.local_addr(),
            primary.routes(),
            if primary.recovered() {
                "recovered"
            } else {
                "seeded"
            },
            primary.repl_addr(),
        ),
        stats_ms,
        || !primary.shutdown_requested(),
        || {
            let r = primary.repl_stats();
            Some(format!(
                "{{\"repl\":{{\"followers\":{},\"synced\":{},\"base_jseq\":{},\"tail_len\":{},\"accept_errors\":{}}},\"server\":{}}}",
                r.followers,
                r.synced,
                r.base_jseq,
                r.tail_len,
                r.accept_errors,
                primary.stats_json(),
            ))
        },
    );
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
fn serve_follow(cfg: StandbyConfig, stats_ms: u64) -> Result<(), ArgError> {
    let listen = cfg.listen.clone();
    let primary_repl = cfg.primary_repl.clone();
    let standby = Standby::start(cfg).map_err(|e| io_err(&listen, &e))?;
    let mut announced = false;
    serve_until_stopped(
        &format!(
            "standby on {} following {primary_repl}; promote with `clue promote --addr {}`; \
             SIGINT/SIGTERM stops",
            standby.local_addr(),
            standby.local_addr(),
        ),
        stats_ms,
        || {
            if standby.is_promoted() && !announced {
                announced = true;
                println!(
                    "promoted: serving lookups and updates on {}",
                    standby.local_addr()
                );
            }
            true
        },
        || (!standby.is_promoted()).then(|| standby.stats_json()),
    );
    match standby.stop().map_err(|e| io_err(&listen, &e))? {
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
