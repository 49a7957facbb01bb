//! The differential conformance harness.
//!
//! [`run_check`] drives the real CLUE stack and the naive
//! [`Oracle`](crate::Oracle) with the same seeded workload in two
//! phases:
//!
//! 1. **Sequential phase** ([`check_trace`]) — applies the update trace
//!    batch-by-batch through [`CluePipeline`] (incremental ONRTC trie →
//!    unordered TCAM → DReds) and, after every batch, asserts
//!    * lookup-for-lookup agreement between the oracle and the
//!      compressed trie on an adversarial probe set
//!      ([`crate::probes`]);
//!    * the compressed table is non-overlapping and equals scratch
//!      recompression of the oracle's table;
//!    * the TCAM holds exactly the compressed entries;
//!    * the even-range partition covers the table exactly once (zero
//!      redundancy, no route split across a cut);
//!    * every DRed entry is live in the compressed table;
//!    * each reported TTF sample is consistent with the entry
//!      operations the diff actually performed.
//! 2. **Router phase** ([`check_router_phase`]) — runs the concurrent
//!    `clue-router` runtime, first packets-only (lookup agreement under
//!    thread interleaving), then packets racing the full update stream,
//!    optionally under a [`FaultPlan`], and asserts packet conservation
//!    plus convergence of the final FIB (original and compressed forms)
//!    to the oracle's sequential final state.
//!
//! On divergence the caller gets a [`CheckFailure`] carrying the full
//! workload; [`minimize_failure`] shrinks it to a small
//! [`Reproducer`].

use std::fmt;
use std::net::Ipv4Addr;

use clue_compress::onrtc;
use clue_core::lookup::{plane_from_table, BackendKind};
use clue_core::update_pipeline::CluePipeline;
use clue_fib::gen::FibGen;
use clue_fib::{NextHop, Prefix, RouteTable, Update};
use clue_net::Transport;
use clue_partition::{EvenRangePartition, Indexer};
use clue_router::{FaultPlan, RouterConfig};
use clue_tcam::TcamTiming;
use clue_traffic::{PacketGen, UpdateGen};

use crate::live::converged;
use crate::model::Oracle;
use crate::probes::{probe_set, ProbeRng};
use crate::shrink::{shrink_trace, Reproducer};

/// Workload-independent salts so the update, packet, probe, and warm-up
/// streams derived from one user seed stay decorrelated.
const UPDATE_SALT: u64 = 0xA5A5_0001;
const PACKET_SALT: u64 = 0xA5A5_0002;
const PROBE_SALT: u64 = 0xA5A5_0003;
const WARM_SALT: u64 = 0xA5A5_0004;

/// Configuration of one conformance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Master seed; every derived stream (FIB, updates, packets,
    /// probes) is salted from it.
    pub seed: u64,
    /// Initial FIB size.
    pub routes: usize,
    /// Update-trace length.
    pub updates: usize,
    /// Updates per check batch (and the router's batch size).
    pub batch: usize,
    /// TCAM chip / router worker count.
    pub chips: usize,
    /// Per-chip DRed capacity.
    pub dred_capacity: usize,
    /// Packet count for the router phase.
    pub packets: usize,
    /// Standing-table prefixes boundary-probed per batch.
    pub probe_sample: usize,
    /// Random probes per batch.
    pub probe_random: usize,
    /// Fault plan for the router phase (None = clean run).
    pub faults: Option<FaultPlan>,
    /// Also run the networked phase: the same workload over loopback
    /// TCP through `clue-net`, faults injected client-side.
    pub net: bool,
    /// Also run the recovery phase: the same workload journaled through
    /// `clue-store` with seeded crash points, tail corruption, and
    /// resumed-service continuation (see [`crate::recovery`]).
    pub recovery: bool,
    /// Shard count for the cluster phase (see [`crate::cluster`]): with
    /// 2 or more shards the workload additionally runs through a
    /// sharded proxy/standby deployment with a mid-burst primary kill.
    /// 1 (the default) skips the phase.
    pub shards: usize,
    /// Lookup backend the live phases (router, net, recovery) publish
    /// their epochs with. The sequential phase always probes *all*
    /// backends against the oracle, so a divergence is attributed to
    /// the specific backend that disagreed.
    pub backend: BackendKind,
    /// Serving transport the networked phases (net, cluster) run their
    /// servers and proxy with; the workload and every assertion are
    /// transport-independent.
    pub transport: Transport,
}

impl CheckConfig {
    /// Defaults sized for `clue check`: a 2 000-route FIB, batches of
    /// 64, 4 chips, 20 000 router packets.
    #[must_use]
    pub fn new(seed: u64, updates: usize) -> Self {
        CheckConfig {
            seed,
            routes: 2_000,
            updates,
            batch: 64,
            chips: 4,
            dred_capacity: 256,
            packets: 20_000,
            probe_sample: 48,
            probe_random: 128,
            faults: None,
            net: false,
            recovery: false,
            shards: 1,
            backend: BackendKind::default(),
            transport: Transport::default(),
        }
    }
}

/// Which lookup path disagreed with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The sequential phase's compressed trie (ONRTC output).
    Compressed,
    /// A named lookup backend built from the compressed table (the
    /// sequential phase probes every [`BackendKind`]), so a shrunken
    /// trace is attributable to the backend that disagreed.
    Backend(BackendKind),
    /// The concurrent router runtime's per-packet results.
    Router,
    /// The networked path (loopback TCP through `clue-net`).
    Net,
    /// State recovered from a `clue-store` data dir after a crash.
    Recovery,
    /// The sharded cluster path (proxy fan-out over `clue-cluster`).
    Cluster,
    /// The scenario phase (`clue-trace` workloads replayed live over
    /// the wire; see [`crate::scenario`]).
    Scenario,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Compressed => write!(f, "compressed trie"),
            Stage::Backend(kind) => write!(f, "{kind} backend"),
            Stage::Router => write!(f, "router runtime"),
            Stage::Net => write!(f, "networked path"),
            Stage::Recovery => write!(f, "recovered state"),
            Stage::Cluster => write!(f, "sharded cluster"),
            Stage::Scenario => write!(f, "scenario replay"),
        }
    }
}

/// A conformance violation, with enough context to print and to pick
/// the right shrinking predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A probe address resolved differently from the oracle.
    Lookup {
        /// Which real lookup path disagreed.
        stage: Stage,
        /// Update batch after which the disagreement was observed
        /// (0-based; sequential phase only, 0 for the router phase).
        batch: usize,
        /// The probed address.
        addr: u32,
        /// What the oracle answers.
        expected: Option<NextHop>,
        /// What the stack answered.
        got: Option<NextHop>,
    },
    /// A structural invariant broke after a batch.
    Invariant {
        /// Update batch after which the invariant was checked.
        batch: usize,
        /// Description of the violated invariant.
        what: String,
    },
    /// The router phase failed wholesale (conservation or final-state
    /// convergence).
    Router {
        /// Description of the violation.
        what: String,
    },
}

impl Divergence {
    /// Whether this divergence came from the concurrent router phase or
    /// the networked phase layered on it (and must therefore be shrunk
    /// against the router phase — a net-phase divergence almost always
    /// reproduces in-process, since the wire bridges into the same
    /// runtime; when it does not, [`minimize_failure`] keeps the trace
    /// at full length instead of shrinking into nothing).
    #[must_use]
    pub fn is_router_phase(&self) -> bool {
        matches!(
            self,
            Divergence::Router { .. }
                | Divergence::Lookup {
                    stage: Stage::Router | Stage::Net | Stage::Cluster | Stage::Scenario,
                    ..
                }
        )
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Lookup {
                stage,
                batch,
                addr,
                expected,
                got,
            } => write!(
                f,
                "lookup divergence ({stage}, batch {batch}): addr {} -> {got:?}, oracle says {expected:?}",
                Ipv4Addr::from(*addr)
            ),
            Divergence::Invariant { batch, what } => {
                write!(f, "invariant violation (batch {batch}): {what}")
            }
            Divergence::Router { what } => write!(f, "router phase: {what}"),
        }
    }
}

/// A failed check: the divergence plus the workload that produced it.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// What went wrong.
    pub divergence: Divergence,
    /// The initial table the workload started from.
    pub table: RouteTable,
    /// The full update trace (pre-minimization).
    pub trace: Vec<Update>,
}

/// Statistics of a passing check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Update batches verified in the sequential phase.
    pub batches: usize,
    /// Probe lookups compared against the oracle.
    pub probes: u64,
    /// Updates applied.
    pub applied: usize,
    /// Epochs the router runtime published in the racing run.
    pub router_epochs: u64,
    /// Router-phase packet lookups (both runs).
    pub router_lookups: usize,
    /// Net-phase packet lookups over loopback TCP (0 when the net phase
    /// was not requested).
    pub net_lookups: usize,
    /// Net-phase client reconnects (0 on a healthy loopback).
    pub net_reconnects: u64,
    /// Recovery-phase crash points exercised (0 when the recovery phase
    /// was not requested).
    pub recovery_crashes: usize,
    /// Journal records replayed across all recovery-phase reopens.
    pub recovery_replayed: u64,
    /// Recovery-phase boundary probes compared against the oracle.
    pub recovery_probes: u64,
    /// Shards the cluster phase ran with (0 when skipped).
    pub cluster_shards: usize,
    /// Cluster-phase packet lookups through the proxy (0 when skipped).
    pub cluster_lookups: usize,
    /// Cluster-phase failovers performed (0 when skipped, else ≥ 1).
    pub cluster_failovers: u64,
    /// Cluster-phase post-burst probes compared against the oracle.
    pub cluster_probes: u64,
    /// Whether fault injection was active.
    pub faulted: bool,
}

/// Outcome of the sequential phase.
#[derive(Debug, Clone, Copy)]
pub struct SequentialOutcome {
    /// Batches checked.
    pub batches: usize,
    /// Probe lookups compared.
    pub probes: u64,
}

/// Outcome of the router phase.
#[derive(Debug, Clone, Copy)]
pub struct RouterOutcome {
    /// Epochs published while racing the update stream.
    pub epochs: u64,
    /// Packet lookups performed across both runs.
    pub lookups: usize,
}

/// Runs the full conformance check for `cfg`'s seeded workload.
///
/// # Errors
///
/// Returns the first [`CheckFailure`] observed; pass it to
/// [`minimize_failure`] for a reproducer.
///
/// # Panics
///
/// Panics if `cfg` is degenerate (zero routes, batch, chips, or DRed
/// capacity).
pub fn run_check(cfg: &CheckConfig) -> Result<CheckReport, Box<CheckFailure>> {
    assert!(
        cfg.routes > 0 && cfg.batch > 0 && cfg.chips > 0 && cfg.dred_capacity > 0,
        "check config sizes must be positive"
    );
    let table = FibGen::new(cfg.seed).routes(cfg.routes).generate();
    let trace = if cfg.updates > 0 {
        UpdateGen::new(cfg.seed ^ UPDATE_SALT).generate(&table, cfg.updates)
    } else {
        Vec::new()
    };

    let fail = |divergence| {
        Box::new(CheckFailure {
            divergence,
            table: table.clone(),
            trace: trace.clone(),
        })
    };
    let seq = check_trace(&table, &trace, cfg).map_err(fail)?;
    let router = check_router_phase(&table, &trace, cfg).map_err(fail)?;
    let net = cfg
        .net
        .then(|| crate::netcheck::check_net_phase(&table, &trace, cfg))
        .transpose()
        .map_err(fail)?;
    let recovery = cfg
        .recovery
        .then(|| crate::recovery::check_recovery_phase(&table, &trace, cfg))
        .transpose()
        .map_err(fail)?;
    let cluster = (cfg.shards > 1)
        .then(|| crate::cluster::check_cluster_phase(&table, &trace, cfg))
        .transpose()
        .map_err(fail)?;

    Ok(CheckReport {
        batches: seq.batches,
        probes: seq.probes,
        applied: trace.len(),
        router_epochs: router.epochs,
        router_lookups: router.lookups,
        net_lookups: net.map_or(0, |n| n.lookups),
        net_reconnects: net.map_or(0, |n| n.reconnects),
        recovery_crashes: recovery.map_or(0, |r| r.crash_points),
        recovery_replayed: recovery.map_or(0, |r| r.replayed),
        recovery_probes: recovery.map_or(0, |r| r.probes),
        cluster_shards: cluster.map_or(0, |c| c.shards),
        cluster_lookups: cluster.map_or(0, |c| c.lookups),
        cluster_failovers: cluster.map_or(0, |c| c.failovers),
        cluster_probes: cluster.map_or(0, |c| c.probes),
        faulted: cfg.faults.is_some(),
    })
}

/// The seeded packet stream every packet-driven phase looks up.
pub(crate) fn packet_trace(table: &RouteTable, cfg: &CheckConfig) -> Vec<u32> {
    if cfg.packets > 0 {
        PacketGen::new(cfg.seed ^ PACKET_SALT).generate(table, cfg.packets)
    } else {
        Vec::new()
    }
}

/// The sequential differential phase: oracle vs. `CluePipeline`, with
/// per-batch probes and structural invariants.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_trace(
    table: &RouteTable,
    trace: &[Update],
    cfg: &CheckConfig,
) -> Result<SequentialOutcome, Divergence> {
    // The probe loop below compiles every BackendKind, including the
    // registry-injected tiled plane.
    clue_tile::install();
    let mut oracle = Oracle::new(table);
    // No headroom: the model TCAM grows as the trace needs it.
    let mut pipeline = CluePipeline::new(table, cfg.chips, cfg.dred_capacity, 0);
    // Warm the DReds from seeded addresses so the liveness invariant
    // has real subjects from the first batch on.
    let mut warm_rng = ProbeRng::new(cfg.seed ^ WARM_SALT);
    let warm: Vec<u32> = (0..256).map(|_| warm_rng.next_u64() as u32).collect();
    pipeline.warm(&warm);

    let timing = TcamTiming::default();
    let mut probes_run = 0u64;
    let mut batches = 0usize;

    for (bi, batch) in trace.chunks(cfg.batch).enumerate() {
        let mut touched: Vec<Prefix> = Vec::with_capacity(batch.len());
        for &u in batch {
            oracle.apply(u);
            let (sample, diff) = pipeline.apply_with_diff(u);
            touched.push(u.prefix());
            ttf_consistency(bi, &sample, &diff, &timing, cfg.chips)?;
        }
        batches += 1;

        structural_invariants(bi, &oracle, &pipeline, cfg)?;

        // Lookup-for-lookup agreement on the adversarial probe set.
        let standing = oracle.prefixes();
        let addrs = probe_set(
            &standing,
            &touched,
            cfg.seed ^ PROBE_SALT ^ (bi as u64),
            cfg.probe_sample,
            cfg.probe_random,
        );
        let compressed_trie = pipeline.fib().compressed();
        // Every lookup backend, compiled from the same post-batch
        // compressed table, must answer each probe identically — the
        // differential harness verifies all of them in one pass, and a
        // disagreement names the backend that produced it.
        let compressed_table = pipeline.fib().compressed_table();
        let planes: Vec<_> = BackendKind::ALL
            .iter()
            .map(|&k| plane_from_table(k, &compressed_table))
            .collect();
        for addr in addrs {
            probes_run += 1;
            let expected = oracle.lookup(addr);
            let got = compressed_trie.lookup(addr).map(|(_, &nh)| nh);
            if got != expected {
                return Err(Divergence::Lookup {
                    stage: Stage::Compressed,
                    batch: bi,
                    addr,
                    expected,
                    got,
                });
            }
            for plane in &planes {
                probes_run += 1;
                let got = plane.next_hop(addr);
                if got != expected {
                    return Err(Divergence::Lookup {
                        stage: Stage::Backend(plane.kind()),
                        batch: bi,
                        addr,
                        expected,
                        got,
                    });
                }
            }
        }
    }

    Ok(SequentialOutcome {
        batches,
        probes: probes_run,
    })
}

/// Checks one update's reported TTF against the entry operations its
/// diff performed (unordered-TCAM cost model: inserts and in-place
/// rewrites cost one write; a delete costs an erase plus at most one
/// relocation; DRed sync pays one search per delete/modify plus one
/// write per chip that actually held the entry).
fn ttf_consistency(
    batch: usize,
    sample: &clue_core::update_pipeline::TtfSample,
    diff: &clue_compress::TableDiff,
    timing: &TcamTiming,
    chips: usize,
) -> Result<(), Divergence> {
    const EPS: f64 = 1e-6;
    let ops = diff.op_count() as f64;
    let deletes = diff.deletes.len() as f64;
    let searches = (diff.deletes.len() + diff.modifies.len()) as f64;

    let ttf2_lo = ops * timing.write_ns;
    let ttf2_hi = (ops + deletes) * timing.write_ns;
    if sample.ttf2_ns < ttf2_lo - EPS || sample.ttf2_ns > ttf2_hi + EPS {
        return Err(Divergence::Invariant {
            batch,
            what: format!(
                "TTF2 {} ns inconsistent with diff ({} ops, {} deletes): expected [{ttf2_lo}, {ttf2_hi}]",
                sample.ttf2_ns, ops, deletes
            ),
        });
    }
    let ttf3_lo = searches * timing.search_ns;
    let ttf3_hi = searches * (timing.search_ns + chips as f64 * timing.write_ns);
    if sample.ttf3_ns < ttf3_lo - EPS || sample.ttf3_ns > ttf3_hi + EPS {
        return Err(Divergence::Invariant {
            batch,
            what: format!(
                "TTF3 {} ns inconsistent with {} DRed searches over {chips} chips: expected [{ttf3_lo}, {ttf3_hi}]",
                sample.ttf3_ns, searches
            ),
        });
    }
    if sample.ttf1_ns < 0.0 {
        return Err(Divergence::Invariant {
            batch,
            what: format!("negative TTF1 {} ns", sample.ttf1_ns),
        });
    }
    Ok(())
}

/// Post-batch structural invariants over the pipeline's state.
fn structural_invariants(
    batch: usize,
    oracle: &Oracle,
    pipeline: &CluePipeline,
    cfg: &CheckConfig,
) -> Result<(), Divergence> {
    let inv = |what: String| Divergence::Invariant { batch, what };

    let compressed = pipeline.fib().compressed_table();
    if !compressed.is_non_overlapping() {
        return Err(inv("compressed table has overlapping entries".into()));
    }
    let scratch = onrtc(&oracle.table());
    if compressed != scratch {
        return Err(inv(format!(
            "incremental compressed table ({} entries) differs from scratch recompression ({} entries)",
            compressed.len(),
            scratch.len()
        )));
    }
    if !pipeline.tcam_synced() {
        return Err(inv("TCAM contents differ from the compressed table".into()));
    }

    // Even-range partition: covers the compressed table exactly once.
    if !compressed.is_empty() {
        let parts = EvenRangePartition::split(&compressed, cfg.chips);
        let total: usize = parts.buckets().iter().map(Vec::len).sum();
        if total != compressed.len() {
            return Err(inv(format!(
                "partition holds {total} routes for a {}-entry table (redundancy must be zero)",
                compressed.len()
            )));
        }
        let index = parts.index();
        for (b, bucket) in parts.buckets().iter().enumerate() {
            for r in bucket {
                let lo = index.bucket_of(r.prefix.low());
                let hi = index.bucket_of(r.prefix.high());
                if lo != b || hi != b {
                    return Err(inv(format!(
                        "route {} sits in bucket {b} but indexes to [{lo}, {hi}]",
                        r.prefix
                    )));
                }
            }
        }
    }

    // DRed liveness: every cached entry must still be a compressed-table
    // route with the current next hop (the delete-if-present rule).
    let compressed_trie = pipeline.fib().compressed();
    for (chip, dred) in pipeline.dreds().iter().enumerate() {
        for r in dred.iter() {
            if compressed_trie.get(r.prefix) != Some(&r.next_hop) {
                return Err(inv(format!(
                    "DRed {chip} holds stale entry {} -> {:?}",
                    r.prefix, r.next_hop
                )));
            }
        }
    }
    Ok(())
}

/// The concurrent router phase: packets-only lookup agreement, then a
/// full race of packets against the update stream (optionally under the
/// configured fault plan) with convergence to the oracle's final state.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_router_phase(
    table: &RouteTable,
    trace: &[Update],
    cfg: &CheckConfig,
) -> Result<RouterOutcome, Divergence> {
    let rcfg = RouterConfig {
        workers: cfg.chips,
        dred_capacity: cfg.dred_capacity,
        batch_size: cfg.batch,
        faults: cfg.faults,
        backend: cfg.backend,
        ..RouterConfig::default()
    };
    let packets = packet_trace(table, cfg);

    // Run 1: no updates racing — every result must equal the oracle.
    let oracle0 = Oracle::new(table);
    let report = clue_router::run(table, &packets, &[], &rcfg);
    if !report.packets_conserved() {
        return Err(Divergence::Router {
            what: format!(
                "packets-only run lost traffic: {} arrivals, {} completions",
                report.snapshot.arrivals, report.snapshot.completions
            ),
        });
    }
    for (&addr, &got) in packets.iter().zip(&report.results) {
        let expected = oracle0.lookup(addr);
        if got != expected {
            return Err(Divergence::Lookup {
                stage: Stage::Router,
                batch: 0,
                addr,
                expected,
                got,
            });
        }
    }

    // Run 2: race the full update stream; the runtime must converge to
    // the oracle's sequential final state despite batching, coalescing,
    // epoch handoff, and any injected faults.
    let report = clue_router::run(table, &packets, trace, &rcfg);
    if !report.packets_conserved() {
        return Err(Divergence::Router {
            what: format!(
                "racing run lost traffic: {} arrivals, {} completions",
                report.snapshot.arrivals, report.snapshot.completions
            ),
        });
    }
    let mut oracle = oracle0;
    for &u in trace {
        oracle.apply(u);
    }
    converged(&report, trace.len(), &oracle.table(), "racing run")?;

    Ok(RouterOutcome {
        epochs: report.snapshot.epochs,
        lookups: packets.len() * 2,
    })
}

/// Shrinks a failure's trace with the phase that produced it and wraps
/// the result as a [`Reproducer`].
///
/// The shrinking predicate accepts *any* divergence (not just an
/// identical one), which is standard ddmin practice — the minimized
/// trace provokes *a* conformance failure, usually the original.
#[must_use]
pub fn minimize_failure(failure: &CheckFailure, cfg: &CheckConfig) -> Reproducer {
    let table = &failure.table;
    let router_phase = failure.divergence.is_router_phase();
    let still_fails = |t: &[Update]| {
        if router_phase {
            check_router_phase(table, t, cfg).is_err()
        } else {
            check_trace(table, t, cfg).is_err()
        }
    };
    // A non-reproducing failure (possible only for flaky concurrency
    // bugs) is kept at full length rather than shrunk into nothing.
    let minimized = if still_fails(&failure.trace) {
        shrink_trace(&failure.trace, still_fails)
    } else {
        failure.trace.clone()
    };
    Reproducer {
        note: format!(
            "divergence: {}\nseed={} routes={} updates={} batch={} chips={} dred={} \
             faults={} backend={}",
            failure.divergence,
            cfg.seed,
            cfg.routes,
            cfg.updates,
            cfg.batch,
            cfg.chips,
            cfg.dred_capacity,
            cfg.faults
                .map_or_else(|| "off".to_owned(), |f| format!("on(seed={})", f.seed)),
            cfg.backend,
        ),
        table: table.clone(),
        trace: minimized,
    }
}

/// Replays a reproducer through both phases.
///
/// # Errors
///
/// Returns the divergence the reproducer still provokes, if any.
pub fn replay(repro: &Reproducer, cfg: &CheckConfig) -> Result<(), Divergence> {
    check_trace(&repro.table, &repro.trace, cfg)?;
    if !repro.table.is_empty() {
        check_router_phase(&repro.table, &repro.trace, cfg)?;
    }
    Ok(())
}
