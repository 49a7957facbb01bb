//! Multi-threaded load generator: replays a `clue-traffic` workload
//! (packet trace + update trace) against a server at a target offered
//! rate.
//!
//! One thread owns the update stream — updates must stay ordered per
//! prefix, and a single TCP connection preserves order end to end —
//! while the packet trace is split into contiguous slices across
//! `lookup_threads` connections. Each thread paces itself with a
//! [`Pacer`], so the *offered* rate holds even when the server pushes
//! back (a blocked send simply leaves the pacer behind schedule and it
//! catches up without sleeping).

use std::io;
use std::time::{Duration, Instant};

use clue_core::json;
use clue_fib::Update;
use clue_traffic::workload::Pacer;

use crate::client::{ClientConfig, Connection};

/// Load generator knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Connection settings (address, timeouts, reconnect policy).
    pub client: ClientConfig,
    /// Number of concurrent lookup connections.
    pub lookup_threads: usize,
    /// Addresses per lookup frame.
    pub lookup_batch: usize,
    /// Updates per update frame.
    pub update_batch: usize,
    /// Target offered lookup rate, addresses/second across all threads
    /// (0 = unlimited).
    pub lookup_rate: f64,
    /// Target offered update rate, updates/second (0 = unlimited).
    pub update_rate: f64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            client: ClientConfig::default(),
            lookup_threads: 2,
            lookup_batch: 64,
            update_batch: 32,
            lookup_rate: 0.0,
            update_rate: 0.0,
        }
    }
}

/// What a load run did, with achieved rates.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Addresses sent in lookup frames.
    pub lookups_sent: u64,
    /// Answers received (equal to `lookups_sent` on a clean run).
    pub lookups_answered: u64,
    /// Answers with no matching route.
    pub lookup_misses: u64,
    /// Updates submitted over the wire.
    pub updates_sent: u64,
    /// Updates the server acked as accepted.
    pub updates_accepted: u64,
    /// Updates the server acked as dropped (`DropNewest`).
    pub updates_dropped: u64,
    /// Reconnects across every connection.
    pub reconnects: u64,
    /// Workers whose initial dial failed (their slice of the workload
    /// went unoffered; the rest of the run continued).
    pub dial_errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Achieved lookup rate, addresses/second.
    pub achieved_lookup_rate: f64,
    /// Achieved update rate, updates/second.
    pub achieved_update_rate: f64,
}

impl LoadReport {
    /// Renders the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object()
            .int("lookups_sent", self.lookups_sent)
            .int("lookups_answered", self.lookups_answered)
            .int("lookup_misses", self.lookup_misses)
            .int("updates_sent", self.updates_sent)
            .int("updates_accepted", self.updates_accepted)
            .int("updates_dropped", self.updates_dropped)
            .int("reconnects", self.reconnects)
            .int("dial_errors", self.dial_errors)
            .int("elapsed_ms", self.elapsed.as_millis() as u64)
            .fixed("achieved_lookup_rate", self.achieved_lookup_rate, 1)
            .fixed("achieved_update_rate", self.achieved_update_rate, 1)
            .finish()
    }
}

#[derive(Default)]
struct LookupTally {
    sent: u64,
    answered: u64,
    misses: u64,
    reconnects: u64,
    dial_errors: u64,
}

#[derive(Default)]
struct UpdateTally {
    sent: u64,
    accepted: u64,
    dropped: u64,
    reconnects: u64,
    dial_errors: u64,
}

/// Replays `packets` and `updates` against `cfg.client.addr`.
///
/// A worker whose *initial* dial fails (past the connection's own
/// retry budget) is counted in [`LoadReport::dial_errors`] and its
/// slice of the workload is skipped — the rest of the run continues,
/// so a server that caps concurrent connections still yields a report
/// instead of aborting the whole offer.
///
/// # Errors
///
/// Fails if an *established* connection dies beyond its reconnect
/// budget; partial progress is discarded.
pub fn run_load(packets: &[u32], updates: &[Update], cfg: &LoadConfig) -> io::Result<LoadReport> {
    let start = Instant::now();
    let threads = cfg.lookup_threads.max(1);
    let per_thread_rate = cfg.lookup_rate / threads as f64;

    let (update_res, lookup_res) = std::thread::scope(|s| {
        let update_handle = (!updates.is_empty()).then(|| s.spawn(|| update_worker(updates, cfg)));
        let lookup_handles: Vec<_> = if packets.is_empty() {
            Vec::new()
        } else {
            let chunk = packets.len().div_ceil(threads).max(1);
            packets
                .chunks(chunk)
                .map(|slice| s.spawn(move || lookup_worker(slice, cfg, per_thread_rate)))
                .collect()
        };
        let update_res = update_handle.map(|h| h.join().expect("update worker exits"));
        let lookup_res: Vec<_> = lookup_handles
            .into_iter()
            .map(|h| h.join().expect("lookup worker exits"))
            .collect();
        (update_res, lookup_res)
    });

    let mut report = LoadReport {
        elapsed: start.elapsed(),
        ..LoadReport::default()
    };
    if let Some(res) = update_res {
        let t = res?;
        report.updates_sent = t.sent;
        report.updates_accepted = t.accepted;
        report.updates_dropped = t.dropped;
        report.reconnects += t.reconnects;
        report.dial_errors += t.dial_errors;
    }
    for res in lookup_res {
        let t = res?;
        report.lookups_sent += t.sent;
        report.lookups_answered += t.answered;
        report.lookup_misses += t.misses;
        report.reconnects += t.reconnects;
        report.dial_errors += t.dial_errors;
    }
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    report.achieved_lookup_rate = report.lookups_answered as f64 / secs;
    report.achieved_update_rate = report.updates_sent as f64 / secs;
    Ok(report)
}

fn update_worker(updates: &[Update], cfg: &LoadConfig) -> io::Result<UpdateTally> {
    let mut conn = match Connection::connect(cfg.client.clone()) {
        Ok(conn) => conn,
        Err(_) => {
            return Ok(UpdateTally {
                dial_errors: 1,
                ..UpdateTally::default()
            })
        }
    };
    let mut pacer = Pacer::new(cfg.update_rate);
    let mut sent = 0u64;
    for batch in updates.chunks(cfg.update_batch.max(1)) {
        let mut wait = Duration::ZERO;
        for _ in batch {
            wait += pacer.next_delay();
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        conn.send_updates(batch)?;
        sent += batch.len() as u64;
        conn.maybe_heartbeat()?;
    }
    let report = conn.close()?;
    Ok(UpdateTally {
        sent,
        accepted: report.accepted,
        dropped: report.dropped,
        reconnects: report.reconnects,
        dial_errors: 0,
    })
}

fn lookup_worker(packets: &[u32], cfg: &LoadConfig, rate: f64) -> io::Result<LookupTally> {
    let mut conn = match Connection::connect(cfg.client.clone()) {
        Ok(conn) => conn,
        Err(_) => {
            return Ok(LookupTally {
                dial_errors: 1,
                ..LookupTally::default()
            })
        }
    };
    let mut pacer = Pacer::new(rate);
    let mut tally = LookupTally::default();
    for batch in packets.chunks(cfg.lookup_batch.max(1)) {
        let mut wait = Duration::ZERO;
        for _ in batch {
            wait += pacer.next_delay();
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        tally.sent += batch.len() as u64;
        let results = conn.lookup(batch)?;
        tally.answered += results.len() as u64;
        tally.misses += results.iter().filter(|r| r.is_none()).count() as u64;
    }
    tally.reconnects = conn.reconnects();
    let _ = conn.close()?;
    Ok(tally)
}
