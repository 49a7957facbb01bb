//! `clue check`: the differential conformance check.

use crate::args::{ArgError, Args};
use crate::{io_err, parse_backend, parse_transport};

use clue::oracle::harness;
use clue::oracle::{run_check, run_scenario_check, CheckConfig, CheckFailure, Reproducer};
use clue::router::FaultPlan;
use clue::trace::ScenarioKind;

pub fn check(args: &Args) -> Result<(), ArgError> {
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
    cfg.faults = if on_off(args, "faults")? {
        Some(FaultPlan::chaos(args.get_or("fault-seed", seed)?))
    } else {
        None
    };
    cfg.net = on_off(args, "net")?;
    cfg.recovery = on_off(args, "recovery")?;
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
        Err(failure) => Err(minimize(args, &cfg, &failure, "conformance")),
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
        Err(failure) => Err(minimize(args, cfg, &failure, "scenario")),
    }
}

/// Parses an `--KEY on|off` flag (default off).
fn on_off(args: &Args, key: &str) -> Result<bool, ArgError> {
    match args.optional(key).unwrap_or("off") {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(ArgError(format!("unknown {key} mode {other:?} (on|off)"))),
    }
}

/// Shrinks a failing check's trace, writes the reproducer to `--out`,
/// and returns the error `clue check` exits with.
fn minimize(args: &Args, cfg: &CheckConfig, failure: &CheckFailure, what: &str) -> ArgError {
    eprintln!("FAIL: {}", failure.divergence);
    eprintln!(
        "minimizing a {}-update trace (this re-runs the failing phase)...",
        failure.trace.len()
    );
    let repro = harness::minimize_failure(failure, cfg);
    let out = args.optional("out").unwrap_or("clue-reproducer.txt");
    if let Err(e) = std::fs::write(out, repro.to_text()) {
        return io_err(out, &e);
    }
    eprintln!(
        "wrote minimized reproducer ({} routes, {} updates) to {out}; \
         replay it with `clue check --replay {out}`",
        repro.table.len(),
        repro.trace.len()
    );
    ArgError(format!("{what} divergence: {}", failure.divergence))
}
