//! The networked conformance phase: the same seeded workload as the
//! in-process phases, driven over loopback TCP through `clue-net`.
//!
//! What this adds on top of [`check_router_phase`]: the wire protocol's
//! framing/CRC, the server's connection threads, seq/ack accounting, and
//! the client's reconnect/resume machinery all sit between the workload
//! and the router — and the final table must *still* equal the oracle's
//! sequential application. Faults are injected client-side, ahead of
//! the wire (see `live.rs`).
//!
//! [`check_router_phase`]: crate::harness::check_router_phase

use clue_fib::{RouteTable, Update};
use clue_net::Server;

use crate::harness::{packet_trace, CheckConfig, Divergence, Stage};
use crate::live::{self, Live};
use crate::model::Oracle;

/// Outcome of the networked phase.
#[derive(Debug, Clone, Copy)]
pub struct NetOutcome {
    /// Packet lookups answered over TCP (both runs).
    pub lookups: usize,
    /// Client reconnects performed (0 on a healthy loopback).
    pub reconnects: u64,
    /// Epochs the server's router published in the racing run.
    pub epochs: u64,
}

/// Drives `trace` and the seeded packet stream through a loopback
/// `clue-net` server and asserts agreement with the oracle: per-lookup
/// in a quiescent run, final-table convergence in a racing run, zero
/// update loss under the `Block` policy.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; socket-level failures are
/// reported as router-phase divergences (the net phase could not
/// faithfully deliver the workload).
pub fn check_net_phase(
    table: &RouteTable,
    trace: &[Update],
    cfg: &CheckConfig,
) -> Result<NetOutcome, Divergence> {
    const LABEL: &str = "net phase";
    let server = Server::start(table, &live::server_config(cfg, cfg.backend))
        .map_err(|e| live::fail(LABEL, e))?;
    let live = Live::new(server.local_addr(), Stage::Net, LABEL);
    let packets = packet_trace(table, cfg);

    // Run 1: quiescent table — every TCP answer must equal the oracle.
    let mut oracle = Oracle::new(table);
    let quiet = live.sweep(&oracle, &packets)?;

    // Run 2: race the update stream against a second pass of the packet
    // stream.
    let racing = live.race(
        &live::untimed(trace),
        &packets,
        cfg.batch,
        cfg.faults,
        || {},
    )?;

    let report = server
        .drain()
        .map_err(|e| live.fail(format!("server drain failed: {e}")))?;
    for &u in trace {
        oracle.apply(u);
    }
    live::converged(&report, trace.len(), &oracle.table(), LABEL)?;

    Ok(NetOutcome {
        lookups: packets.len() * 2,
        reconnects: quiet.reconnects + racing.reconnects,
        epochs: report.snapshot.epochs,
    })
}
