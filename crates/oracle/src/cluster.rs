//! The cluster conformance phase: the seeded workload through a real
//! sharded deployment — proxy, N shard primaries with durable stores,
//! one warm standby per shard — with a primary killed *mid-burst* and
//! its standby promoted.
//!
//! What this adds on top of the net phase: shard-map fan-out (a prefix
//! spanning a cut must reach every intersecting shard), WAL-shipping
//! replication, and failover, all of which must be invisible to the
//! client. Asserted against the flat-scan oracle:
//!
//! * quiescent lookups through the proxy agree address-for-address;
//! * the racing burst loses **zero acknowledged updates** across the
//!   kill/promote (accepted == trace length, dropped == 0);
//! * post-burst adversarial boundary probes agree with the oracle's
//!   sequential final state;
//! * every shard's final table — drained primary, promoted standby,
//!   and surviving replicas alike — is **bit-identical** to the
//!   oracle's final table filtered to that shard's address range.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use clue_cluster::{
    Primary, PrimaryConfig, Proxy, ProxyConfig, ReplConfig, ShardMap, ShardSpec, Standby,
    StandbyConfig, StandbyOutcome,
};
use clue_fib::{RouteTable, Update};
use clue_store::StoreConfig;

use crate::harness::{packet_trace, CheckConfig, Divergence, Stage};
use crate::live::{self, Live};
use crate::model::Oracle;
use crate::probes::probe_set;

/// Probe-set salt for the post-burst cluster probes (decorrelated from
/// the sequential phase's per-batch probes).
const CLUSTER_PROBE_SALT: u64 = 0xA5A5_0005;

/// Outcome of the cluster phase.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOutcome {
    /// Shards the phase ran with.
    pub shards: usize,
    /// Packet lookups answered through the proxy (both runs).
    pub lookups: usize,
    /// Failovers the proxy completed (always ≥ 1: the phase kills a
    /// primary).
    pub failovers: u64,
    /// Post-burst boundary probes compared against the oracle.
    pub probes: u64,
}

const LABEL: &str = "cluster phase";

fn cl_div(what: impl std::fmt::Display) -> Divergence {
    live::fail(LABEL, what)
}

fn phase_dir(seed: u64, shard: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clue-cluster-check-{seed}-{shard}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Drives `trace` and the seeded packet stream through a sharded
/// cluster, kills shard 0's primary halfway through the update burst,
/// and asserts zero lost acks plus per-shard bit-identical convergence
/// to the oracle's sequential final state.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; infrastructure failures
/// (bind, store, replication sync) are reported as router-phase
/// divergences, since the phase could not faithfully run the workload.
pub fn check_cluster_phase(
    table: &RouteTable,
    trace: &[Update],
    cfg: &CheckConfig,
) -> Result<ClusterOutcome, Divergence> {
    assert!(cfg.shards >= 2, "cluster phase needs at least 2 shards");

    // Cuts first (against placeholder endpoints): each shard seeds its
    // store with exactly its filtered slice of the initial table.
    let placeholder = ShardMap::derive(table, vec![ShardSpec::primary_only("x:0"); cfg.shards])
        .map_err(|e| cl_div(format!("deriving shard map: {e}")))?;

    let pcfg = PrimaryConfig {
        store: StoreConfig {
            fsync: false,
            snapshot_every: 64,
        },
        repl: ReplConfig::default(),
        sync_timeout: Duration::from_secs(5),
        server: clue_net::ServerConfig {
            transport: cfg.transport,
            ..clue_net::ServerConfig::default()
        },
    };
    let mut dirs = Vec::new();
    let mut primaries: Vec<Option<Primary>> = Vec::new();
    let mut standbys = Vec::new();
    let mut specs = Vec::new();
    for i in 0..cfg.shards {
        let dir = phase_dir(cfg.seed, i);
        let shard_fib = placeholder.filter_table(table, i);
        let primary = Primary::start(&dir, Some(&shard_fib), &pcfg)
            .map_err(|e| cl_div(format!("booting shard {i}: {e}")))?;
        let standby = Standby::start(StandbyConfig {
            primary_repl: primary.repl_addr().to_string(),
            reconnect_backoff: Duration::from_millis(20),
            ..StandbyConfig::default()
        })
        .map_err(|e| cl_div(format!("booting shard {i} standby: {e}")))?;
        specs.push(ShardSpec::with_standby(
            primary.local_addr().to_string(),
            standby.local_addr().to_string(),
        ));
        dirs.push(dir);
        primaries.push(Some(primary));
        standbys.push(standby);
    }
    let map = ShardMap::from_cuts(placeholder.cuts().to_vec(), specs)
        .map_err(|e| cl_div(format!("assembling shard map: {e}")))?;

    // Every standby must be in its primary's synchronous set before the
    // burst: from the first ack on, "acked" means "survives promotion".
    let deadline = Instant::now() + Duration::from_secs(15);
    for (i, p) in primaries.iter().flatten().enumerate() {
        while p.repl_stats().synced != 1 {
            if Instant::now() >= deadline {
                return Err(cl_div(format!("shard {i} standby never synced")));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let mut proxy_cfg = ProxyConfig::new(map.clone());
    proxy_cfg.heartbeat_every = Duration::from_millis(100);
    proxy_cfg.transport = cfg.transport;
    let proxy = Proxy::start(proxy_cfg).map_err(|e| cl_div(format!("starting proxy: {e}")))?;
    let live = Live::new(proxy.local_addr(), Stage::Cluster, LABEL);
    let packets = packet_trace(table, cfg);

    // Run 1: quiescent cluster — every proxied answer must equal the
    // oracle, which proves lookup routing (cuts, shard_of) is sound.
    let mut oracle = Oracle::new(table);
    live.sweep(&oracle, &packets)?;

    // Run 2: the update burst racing a second packet pass, with shard
    // 0's primary killed once half the trace is in flight. The client
    // keeps its ordinary seq/ack discipline; failover must be invisible
    // apart from latency, so zero acks may be lost across it.
    live.race(&live::untimed(trace), &packets, cfg.batch, None, || {
        drop(primaries[0].take());
    })?;
    if proxy.failovers() != 1 {
        return Err(cl_div(format!(
            "expected exactly 1 failover, proxy performed {}",
            proxy.failovers()
        )));
    }
    if !standbys[0].is_promoted() {
        return Err(cl_div("shard 0's standby was never promoted"));
    }

    // Post-burst adversarial probes through the (partly promoted)
    // cluster against the oracle's sequential final state.
    for &u in trace {
        oracle.apply(u);
    }
    let probe_addrs = probe_set(
        &oracle.prefixes(),
        &[],
        cfg.seed ^ CLUSTER_PROBE_SALT,
        cfg.probe_sample * 4,
        cfg.probe_random * 4,
    );
    live.sweep(&oracle, &probe_addrs)?;
    proxy.stop();

    // Per-shard bit-identical convergence: every node's final table —
    // drained primaries, the promoted standby, and the surviving warm
    // replicas — equals the oracle's final table filtered to the
    // shard's range.
    let want = oracle.table();
    for (i, primary) in primaries.iter_mut().enumerate() {
        let Some(primary) = primary.take() else {
            continue; // shard 0's primary died mid-burst by design
        };
        let report = primary
            .stop()
            .map_err(|e| cl_div(format!("draining shard {i} primary: {e}")))?;
        let expect = map.filter_table(&want, i);
        if report.final_table != expect {
            return Err(cl_div(format!(
                "shard {i} primary final table diverged: {} routes vs filtered oracle's {}",
                report.final_table.len(),
                expect.len()
            )));
        }
    }
    for (i, standby) in standbys.into_iter().enumerate() {
        let expect = map.filter_table(&want, i);
        match standby
            .stop()
            .map_err(|e| cl_div(format!("stopping shard {i} standby: {e}")))?
        {
            StandbyOutcome::Promoted(report) => {
                if i != 0 {
                    return Err(cl_div(format!("shard {i} standby promoted unexpectedly")));
                }
                if report.final_table != expect {
                    return Err(cl_div(format!(
                        "promoted shard {i} final table diverged: {} routes vs filtered oracle's {}",
                        report.final_table.len(),
                        expect.len()
                    )));
                }
            }
            StandbyOutcome::Standby(state) => {
                if i == 0 {
                    return Err(cl_div("shard 0's standby lost its promotion"));
                }
                if state.table != expect {
                    return Err(cl_div(format!(
                        "shard {i} replica diverged: {} routes vs filtered oracle's {}",
                        state.table.len(),
                        expect.len()
                    )));
                }
            }
        }
    }
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }

    Ok(ClusterOutcome {
        shards: cfg.shards,
        lookups: packets.len() * 2,
        failovers: 1,
        probes: probe_addrs.len() as u64,
    })
}
