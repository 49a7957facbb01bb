//! The adversarial-scenario conformance phase.
//!
//! A named [`clue_trace::Scenario`] (update storm, withdraw flood, flap
//! storm, skewed lookups, or an MRT replay) supplies the base table,
//! the timed update schedule, and the lookup-key distribution; this
//! phase then asserts the stack survives it in three passes:
//!
//! 1. **Sequential** — the schedule's updates run through
//!    [`check_trace`], so after every batch the adversarial probe set
//!    agrees lookup-for-lookup with the oracle on the compressed trie
//!    *and on every lookup backend* (tcam/trie/cfib), with all the
//!    structural and TTF invariants of an ordinary check.
//! 2. **Live, once per backend** — the scenario replays over loopback
//!    through a real `clue-net` server (burst shape preserved: the
//!    schedule is time-compressed, not flattened), the lookup stream
//!    racing the updates, asserting quiescent probe agreement, **zero
//!    lost acks** (every update accepted, none dropped), packet
//!    conservation, and final-table convergence to the oracle.
//! 3. **Sharded** (when `cfg.shards >= 2`) — the same replay through a
//!    `clue-cluster` proxy over N plain shard servers, asserting proxy
//!    probe agreement, zero lost acks, and post-burst convergence.
//!    (Failover-under-fire is the cluster phase's job; this pass pins
//!    the scenario semantics onto the sharded data path.)

use clue_cluster::{Proxy, ProxyConfig, ShardMap, ShardSpec};
use clue_core::lookup::BackendKind;
use clue_net::Server;
use clue_router::FaultPlan;
use clue_trace::{Scenario, ScenarioConfig, ScenarioKind, TimedUpdate};

use crate::harness::{check_trace, CheckConfig, CheckFailure, Divergence, Stage};
use crate::live::{self, Live};
use crate::model::Oracle;
use crate::probes::probe_set;

/// Probe-set salt for the post-replay scenario probes (decorrelated
/// from every other harness stream).
const SCENARIO_PROBE_SALT: u64 = 0xA5A5_0006;

/// The live replay is time-compressed so its total schedule never
/// exceeds this budget — burst *shape* survives, wall-clock does not.
const REPLAY_BUDGET_MS: u64 = 200;

/// Outcome of a passing scenario check.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOutcome {
    /// Which scenario ran.
    pub kind: ScenarioKind,
    /// Update batches verified in the sequential phase.
    pub batches: usize,
    /// Sequential probe lookups compared against the oracle (every
    /// backend included).
    pub probes: u64,
    /// Scheduled updates applied.
    pub applied: usize,
    /// Live single-node replays performed (one per lookup backend).
    pub live_runs: usize,
    /// Packet lookups answered over the wire across all live runs.
    pub live_lookups: usize,
    /// Post-replay boundary probes compared against the oracle.
    pub live_probes: u64,
    /// Shards the sharded pass ran with (0 when skipped).
    pub shards: usize,
    /// Packet lookups answered through the proxy (0 when skipped).
    pub shard_lookups: usize,
}

/// The scenario materialized from a check config: sizes carry over,
/// every other knob keeps its scenario default.
#[must_use]
pub fn scenario_for(cfg: &CheckConfig, kind: ScenarioKind) -> Scenario {
    let scfg = ScenarioConfig {
        seed: cfg.seed,
        routes: cfg.routes,
        updates: cfg.updates,
        packets: cfg.packets,
        ..ScenarioConfig::default()
    };
    Scenario::build(kind, &scfg)
}

/// Runs the full scenario check for `kind` under `cfg`.
///
/// # Errors
///
/// Returns the first [`CheckFailure`] observed, carrying the scenario's
/// base table and update schedule so [`crate::harness::minimize_failure`]
/// can shrink it like any other failing check.
pub fn run_scenario_check(
    cfg: &CheckConfig,
    kind: ScenarioKind,
) -> Result<ScenarioOutcome, Box<CheckFailure>> {
    let scenario = scenario_for(cfg, kind);
    let trace = scenario.updates();
    let fail = |divergence: Divergence| {
        Box::new(CheckFailure {
            divergence,
            table: scenario.base.clone(),
            trace: trace.clone(),
        })
    };

    // Pass 1: sequential differential check — per-batch probe agreement
    // across the compressed trie and every backend, plus invariants.
    let seq = check_trace(&scenario.base, &trace, cfg).map_err(&fail)?;

    // Pass 2: live replay over the wire, once per lookup backend.
    let mut live_probes = 0u64;
    for &backend in &BackendKind::ALL {
        live_probes += live_replay(&scenario, cfg, backend).map_err(&fail)?;
    }

    // Pass 3: the sharded data path, when requested.
    let sharded = cfg.shards >= 2;
    if sharded {
        sharded_replay(&scenario, cfg).map_err(&fail)?;
    }
    let wire_lookups = scenario.packets.len() * 2;

    Ok(ScenarioOutcome {
        kind,
        batches: seq.batches,
        probes: seq.probes,
        applied: trace.len(),
        live_runs: BackendKind::ALL.len(),
        live_lookups: BackendKind::ALL.len() * wire_lookups,
        live_probes,
        shards: if sharded { cfg.shards } else { 0 },
        shard_lookups: if sharded { wire_lookups } else { 0 },
    })
}

/// The schedule compressed into the replay budget, so bursts keep their
/// relative shape without the check sleeping through real gap times.
fn replay_schedule(scenario: &Scenario) -> Vec<TimedUpdate> {
    let duration = scenario.schedule.duration_ms();
    let speed = if duration > REPLAY_BUDGET_MS {
        duration as f64 / REPLAY_BUDGET_MS as f64
    } else {
        1.0
    };
    scenario.schedule.scaled(speed).events
}

/// Quiescent sweep, racing replay, then post-replay boundary probes
/// through the still-live deployment behind `live`, which serves
/// `scenario.base`. Returns the oracle's final state and the probes run.
fn replay(
    live: &Live,
    scenario: &Scenario,
    cfg: &CheckConfig,
    faults: Option<FaultPlan>,
) -> Result<(Oracle, usize), Divergence> {
    // Quiescent pass: the scenario's key distribution probes the
    // deployment cold.
    let mut oracle = Oracle::new(&scenario.base);
    live.sweep(&oracle, &scenario.packets)?;
    // Racing pass: the timed schedule against a second sweep.
    live.race(
        &replay_schedule(scenario),
        &scenario.packets,
        cfg.batch,
        faults,
        || {},
    )?;
    for e in &scenario.schedule.events {
        oracle.apply(e.update);
    }
    let probes = probe_set(
        &oracle.prefixes(),
        &[],
        cfg.seed ^ SCENARIO_PROBE_SALT,
        cfg.probe_sample * 2,
        cfg.probe_random * 2,
    );
    live.sweep_settled(&oracle, &probes)?;
    Ok((oracle, probes.len()))
}

/// One single-node live replay against a server publishing with
/// `backend`, then drain, conservation and bit-exact convergence.
/// Returns the post-replay probes compared.
fn live_replay(
    scenario: &Scenario,
    cfg: &CheckConfig,
    backend: BackendKind,
) -> Result<u64, Divergence> {
    let label = format!("scenario phase ({}, {backend} backend)", scenario.kind);
    let server = Server::start(&scenario.base, &live::server_config(cfg, backend))
        .map_err(|e| live::fail(&label, e))?;
    let live = Live::new(server.local_addr(), Stage::Scenario, label);
    let (oracle, probes) = replay(&live, scenario, cfg, cfg.faults)?;
    let report = server
        .drain()
        .map_err(|e| live.fail(format!("server drain failed: {e}")))?;
    live::converged(
        &report,
        scenario.schedule.len(),
        &oracle.table(),
        &live.label,
    )?;
    Ok(probes as u64)
}

/// The sharded pass: the scenario through a proxy over `cfg.shards`
/// plain shard servers (no durability or standbys — the cluster phase
/// owns failover), then per-shard convergence.
fn sharded_replay(scenario: &Scenario, cfg: &CheckConfig) -> Result<(), Divergence> {
    let label = format!("scenario phase ({}, sharded)", scenario.kind);
    let fail = |what: String| live::fail(&label, what);

    let placeholder = ShardMap::derive(
        &scenario.base,
        vec![ShardSpec::primary_only("x:0"); cfg.shards],
    )
    .map_err(|e| fail(format!("deriving shard map: {e}")))?;
    let scfg = live::server_config(cfg, cfg.backend);
    let mut servers = Vec::with_capacity(cfg.shards);
    let mut specs = Vec::with_capacity(cfg.shards);
    for i in 0..cfg.shards {
        let shard_fib = placeholder.filter_table(&scenario.base, i);
        let server = Server::start(&shard_fib, &scfg)
            .map_err(|e| fail(format!("booting shard {i}: {e}")))?;
        specs.push(ShardSpec::primary_only(server.local_addr().to_string()));
        servers.push(server);
    }
    let map = ShardMap::from_cuts(placeholder.cuts().to_vec(), specs)
        .map_err(|e| fail(format!("assembling shard map: {e}")))?;
    let mut proxy_cfg = ProxyConfig::new(map.clone());
    proxy_cfg.transport = cfg.transport;
    let proxy = Proxy::start(proxy_cfg).map_err(|e| fail(format!("starting proxy: {e}")))?;

    let live = Live::new(proxy.local_addr(), Stage::Scenario, label.clone());
    let (oracle, _) = replay(&live, scenario, cfg, None)?;
    proxy.stop();

    let want = oracle.table();
    for (i, server) in servers.into_iter().enumerate() {
        let report = server
            .drain()
            .map_err(|e| fail(format!("draining shard {i}: {e}")))?;
        let expect = map.filter_table(&want, i);
        if report.final_table != expect {
            return Err(fail(format!(
                "shard {i} final table diverged: {} routes vs filtered oracle's {}",
                report.final_table.len(),
                expect.len()
            )));
        }
    }
    Ok(())
}
