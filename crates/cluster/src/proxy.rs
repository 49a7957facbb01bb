//! The fan-out proxy tier: one listener speaking the standard wire
//! protocol in front of N shard servers.
//!
//! Lookups route each address to the single shard owning it
//! ([`ShardMap::shard_of`]); updates fan out to every shard whose
//! interval the prefix touches ([`ShardMap::shards_for_prefix`]), so
//! each shard keeps the full slice of routes matching its addresses.
//!
//! ## Overlapped fan-out
//!
//! A frame's sub-batches all go out before any reply is read
//! ([`Connection::start_lookup`], [`Connection::send_updates`]), and
//! the replies are then collected in shard order, so a frame waits for
//! its slowest shard rather than for the sum of its shards. A sub-batch
//! is a few hundred bytes, far below a socket buffer, so writing all of
//! them before reading cannot deadlock. A shard whose send or reply
//! fails alone goes through the promote-and-retry path below, and every
//! sub-batch started is collected before the handler returns, so no
//! stale reply is left on a backend stream.
//!
//! ## Exactly-once across the proxy
//!
//! Each client connection gets its own set of backend
//! [`Connection`]s, one per shard, so the client's seq/ack discipline
//! is preserved hop by hop: the proxy acknowledges a client's update
//! frame only after *every* involved shard has acked the fan-out
//! sub-batches — and a shard ack means journaled *and* replicated to
//! its live standby. An unacked frame is retransmitted by the client
//! against the proxy's `HelloAck(last_acked)` high-water, and the
//! proxy's backend connections replay their own unacked suffixes
//! through the same resume machinery, which stays safe because route
//! updates are last-op-wins per prefix.
//!
//! ## Failover
//!
//! A monitor thread heartbeats every shard's active address; after
//! [`ProxyConfig::fail_after`] consecutive misses it promotes the
//! standby (`Promote`/`PromoteAck`) and swaps the shard's active
//! address. Connection threads that hit a backend error promote
//! eagerly — first one wins, the promotion lock makes it idempotent —
//! then [`Connection::redirect`] re-points the stream and the resume
//! handshake settles what the dead primary already acked.
//!
//! ## Transports
//!
//! The proxy is a [`FrameHandler`] behind a [`Listener`], with each
//! client's backend connection set as the handler's per-connection
//! state, so [`ProxyConfig::transport`] picks the client-facing driver
//! exactly as it does for a shard server — under
//! [`Transport::Evloop`] a single proxy process holds tens of
//! thousands of client downstreams plus all shard upstreams — and
//! frame semantics are the shared
//! [frame handler contract](clue_net::listener).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use clue_core::codec::bad_data;
use clue_core::json;
use clue_fib::{NextHop, Update};
use clue_net::frame::{Frame, FrameType};
use clue_net::wire;
use clue_net::{
    client, ClientConfig, Connection, FrameHandler, Listener, ListenerConfig, NetStats, Stop,
    Transport,
};

use crate::shardmap::ShardMap;

/// Tunables for a [`Proxy`].
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Client-facing listen address.
    pub listen: String,
    /// The shard map (cuts + per-shard endpoints).
    pub map: ShardMap,
    /// Health-monitor heartbeat period.
    pub heartbeat_every: Duration,
    /// Consecutive heartbeat misses before the monitor promotes.
    pub fail_after: u32,
    /// Client-facing serving architecture: a thread per client, or
    /// every client multiplexed on one `clue-aio` reactor with a
    /// bridge pool for the blocking backend fan-out.
    pub transport: Transport,
    /// Bridge-pool size for [`Transport::Evloop`]; also the bound on
    /// concurrently fanned-out client frames in that mode.
    pub bridge_threads: usize,
}

impl ProxyConfig {
    /// Defaults around a given map: listen on an ephemeral loopback
    /// port, 150 ms heartbeats, promote after 2 misses.
    #[must_use]
    pub fn new(map: ShardMap) -> ProxyConfig {
        ProxyConfig {
            listen: "127.0.0.1:0".into(),
            map,
            heartbeat_every: Duration::from_millis(150),
            fail_after: 2,
            transport: Transport::default(),
            bridge_threads: 4,
        }
    }
}

/// Backend client configuration: snappy dial/backoff so a dead primary
/// is detected in milliseconds, not the interactive client's seconds.
fn backend_cfg(addr: &str) -> ClientConfig {
    ClientConfig {
        addr: addr.to_owned(),
        connect_timeout: Duration::from_millis(500),
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        max_reconnect_attempts: 4,
    }
}

struct ShardEndpoint {
    primary: String,
    standby: Option<String>,
    active: Mutex<String>,
    promoted: AtomicBool,
    promote_lock: Mutex<()>,
    hb_failures: AtomicU32,
    lookups: AtomicU64,
    updates: AtomicU64,
    failover_ms: Mutex<Option<f64>>,
}

/// The proxy's state, and — as the [`FrameHandler`] every client
/// connection runs — the proxy tier itself.
struct Shared {
    map: ShardMap,
    shards: Vec<ShardEndpoint>,
    last_acked: AtomicU64,
    lookups: AtomicU64,
    updates: AtomicU64,
    update_fanout: AtomicU64,
    failovers: AtomicU64,
    started: Instant,
}

impl Shared {
    fn active(&self, i: usize) -> String {
        self.shards[i].active.lock().expect("active lock").clone()
    }

    /// Promotes shard `i`'s standby and swaps the active address.
    /// Idempotent: concurrent callers serialize on the promotion lock
    /// and every caller after the first returns the already-promoted
    /// address.
    fn promote(&self, i: usize) -> io::Result<String> {
        let shard = &self.shards[i];
        let _guard = shard.promote_lock.lock().expect("promote lock");
        if shard.promoted.load(Ordering::Acquire) {
            return Ok(self.active(i));
        }
        let Some(standby) = shard.standby.clone() else {
            return Err(io::Error::other(format!("shard {i} has no standby")));
        };
        let t0 = Instant::now();
        let mut last_err = io::Error::other("promotion not attempted");
        // The standby answers immediately; retries cover the window
        // where it is still absorbing its catch-up stream.
        for _ in 0..20 {
            match client::call(
                &standby,
                &Frame::empty(FrameType::Promote, 0),
                FrameType::PromoteAck,
                Duration::from_millis(250),
                Duration::from_secs(2),
            ) {
                Ok(_ack) => {
                    *shard.active.lock().expect("active lock") = standby.clone();
                    shard.promoted.store(true, Ordering::Release);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    *shard.failover_ms.lock().expect("failover lock") = Some(ms);
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    return Ok(standby);
                }
                Err(e) => last_err = e,
            }
            thread::sleep(Duration::from_millis(25));
        }
        Err(last_err)
    }
}

/// A running proxy.
pub struct Proxy {
    listener: Listener,
    shared: Arc<Shared>,
    /// Wakes the monitor out of its wait between heartbeat rounds.
    stop: Arc<Stop>,
    monitor: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Binds the client listener and starts the health monitor.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(cfg: ProxyConfig) -> io::Result<Proxy> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let shards = cfg
            .map
            .shards()
            .iter()
            .map(|s| ShardEndpoint {
                primary: s.primary.clone(),
                standby: s.standby.clone(),
                active: Mutex::new(s.primary.clone()),
                promoted: AtomicBool::new(false),
                promote_lock: Mutex::new(()),
                hb_failures: AtomicU32::new(0),
                lookups: AtomicU64::new(0),
                updates: AtomicU64::new(0),
                failover_ms: Mutex::new(None),
            })
            .collect();
        let shared = Arc::new(Shared {
            map: cfg.map.clone(),
            shards,
            last_acked: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            update_fanout: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            started: Instant::now(),
        });
        let listener = Listener::start(
            listener,
            Arc::clone(&shared),
            Arc::new(NetStats::new()),
            ListenerConfig {
                transport: cfg.transport,
                bridge_threads: cfg.bridge_threads,
            },
        )?;
        let stop = Arc::new(Stop::new());
        let monitor = {
            let (shared, stop) = (Arc::clone(&shared), Arc::clone(&stop));
            thread::spawn(move || monitor_loop(&cfg, &shared, &stop))
        };
        Ok(Proxy {
            listener,
            shared,
            stop,
            monitor: Some(monitor),
        })
    }

    /// The bound client-facing address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The client-facing network counters (connections, frames,
    /// protocol and accept errors).
    #[must_use]
    pub fn net_stats(&self) -> &NetStats {
        self.listener.net_stats()
    }

    /// Completed failovers.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.shared.failovers.load(Ordering::Relaxed)
    }

    /// Per-shard failover durations in milliseconds (`None` = never
    /// failed over).
    #[must_use]
    pub fn failover_ms(&self) -> Vec<Option<f64>> {
        self.shared
            .shards
            .iter()
            .map(|s| *s.failover_ms.lock().expect("failover lock"))
            .collect()
    }

    /// The proxy's own stats JSON (no backend embeds — query through a
    /// client connection for the full per-shard breakdown).
    #[must_use]
    pub fn stats_json(&self) -> String {
        proxy_stats_json(&self.shared, None)
    }

    /// Stops the monitor and drains the listener; each client's backend
    /// connections close with it.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.request();
        self.listener.request_shutdown();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        // The listener finishes its drain as it drops.
    }
}

/// Stable-ordered proxy stats. `backends` supplies each shard's
/// verbatim stats JSON when available (the per-connection stats path
/// queries live backends; the local path embeds `null`).
fn proxy_stats_json(shared: &Shared, backends: Option<Vec<Option<String>>>) -> String {
    let relaxed = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut per_shard = Vec::with_capacity(shared.shards.len());
    for (i, shard) in shared.shards.iter().enumerate() {
        let range = shared.map.shard_range(i);
        let role = if shard.promoted.load(Ordering::Acquire) {
            "promoted-standby"
        } else {
            "primary"
        };
        let o = json::object()
            .int("shard", i as u64)
            .str("addr", &shared.active(i))
            .str("primary", &shard.primary)
            .str("role", role)
            .raw("range", &json::array(&[range.start(), range.end()]))
            .int("lookups", relaxed(&shard.lookups))
            .int("updates", relaxed(&shard.updates))
            .int("hb_failures", shard.hb_failures.load(Ordering::Relaxed));
        let o = match *shard.failover_ms.lock().expect("failover lock") {
            Some(ms) => o.fixed("failover_ms", ms, 1),
            None => o.raw("failover_ms", "null"),
        };
        let backend = backends.as_ref().and_then(|b| b.get(i)?.as_deref());
        per_shard.push(o.raw("backend", backend.unwrap_or("null")).finish());
    }
    json::object()
        .str("role", "proxy")
        .int("uptime_ms", shared.started.elapsed().as_millis() as u64)
        .int("shards", shared.shards.len() as u64)
        .int("acked_hw", shared.last_acked.load(Ordering::SeqCst))
        .int("lookups", relaxed(&shared.lookups))
        .int("updates", relaxed(&shared.updates))
        .int("update_fanout", relaxed(&shared.update_fanout))
        .int("failovers", relaxed(&shared.failovers))
        .raw("per_shard", &json::array(&per_shard))
        .finish()
}

fn monitor_loop(cfg: &ProxyConfig, shared: &Arc<Shared>, stop: &Stop) {
    let mut nonce = 0u64;
    while !stop.wait_timeout(cfg.heartbeat_every) {
        for (i, shard) in shared.shards.iter().enumerate() {
            if stop.is_requested() {
                return;
            }
            nonce += 1;
            let addr = shared.active(i);
            let ok = client::call(
                &addr,
                &Frame::empty(FrameType::Heartbeat, nonce),
                FrameType::HeartbeatAck,
                Duration::from_millis(250),
                Duration::from_secs(1),
            )
            .is_ok();
            if ok {
                shard.hb_failures.store(0, Ordering::Relaxed);
            } else {
                let misses = shard.hb_failures.fetch_add(1, Ordering::Relaxed) + 1;
                if misses >= cfg.fail_after
                    && !shard.promoted.load(Ordering::Acquire)
                    && shard.standby.is_some()
                {
                    let _ = shared.promote(i);
                }
            }
        }
    }
}

/// One shard's share of a lookup frame.
#[derive(Default)]
struct SubLookup {
    /// Where each address sits in the client's batch.
    positions: Vec<usize>,
    addrs: Vec<u32>,
    /// The sub-lookup on the wire, if sending it succeeded.
    token: Option<u64>,
}

/// One shard's share of an update frame.
#[derive(Default)]
struct SubUpdate {
    ops: Vec<Update>,
    /// Whether the sub-batch is on the wire.
    sent: bool,
}

/// Per-client backend connections, opened lazily, re-pointed on
/// failover, plus the per-shard grouping buffers every frame reuses.
struct Backends {
    conns: Vec<Option<Connection>>,
    lookups: Vec<SubLookup>,
    updates: Vec<SubUpdate>,
    results: Vec<Option<NextHop>>,
}

impl Backends {
    fn new(n: usize) -> Backends {
        Backends {
            conns: (0..n).map(|_| None).collect(),
            lookups: (0..n).map(|_| SubLookup::default()).collect(),
            updates: (0..n).map(|_| SubUpdate::default()).collect(),
            results: Vec::new(),
        }
    }

    /// Shard `i`'s backend connection, dialed on first use and
    /// re-pointed once the shard has been promoted.
    fn conn(&mut self, i: usize, shared: &Shared) -> io::Result<&mut Connection> {
        if self.conns[i].is_none() {
            self.conns[i] = Some(Connection::connect(backend_cfg(&shared.active(i)))?);
        }
        let conn = self.conns[i].as_mut().expect("dialed above");
        // Only a promotion moves a shard's active address.
        let shard = &shared.shards[i];
        if shard.promoted.load(Ordering::Acquire) {
            let active = shard.active.lock().expect("active lock");
            if conn.addr() != *active {
                conn.redirect(active.as_str());
            }
        }
        Ok(conn)
    }

    /// Runs `op` against shard `i`'s active backend, promoting the
    /// shard's standby and retrying when the backend fails.
    fn op<T>(
        &mut self,
        i: usize,
        shared: &Shared,
        mut op: impl FnMut(&mut Connection) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..8 {
            if attempt > 0 {
                thread::sleep(Duration::from_millis(25));
            }
            match self.conn(i, shared).and_then(&mut op) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last_err = Some(e);
                    // Eager failover: do not wait for the monitor.
                    let _ = shared.promote(i);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("backend op failed")))
    }

    /// The second half of an overlapped exchange with shard `i`:
    /// `finish` on the connection the first half used, if that half
    /// succeeded; otherwise, or if `finish` fails, the whole exchange
    /// `op` through [`Backends::op`]'s promote-and-retry path.
    fn settle<T>(
        &mut self,
        i: usize,
        shared: &Shared,
        started: bool,
        finish: impl FnOnce(&mut Connection) -> io::Result<T>,
        op: impl FnMut(&mut Connection) -> io::Result<T>,
    ) -> io::Result<T> {
        if started {
            if let Some(Ok(v)) = self.conns[i].as_mut().map(finish) {
                return Ok(v);
            }
        }
        // Eager failover, as in `op`.
        let _ = shared.promote(i);
        self.op(i, shared, op)
    }

    fn close_all(&mut self) {
        for c in &mut self.conns {
            if let Some(conn) = c.take() {
                let _ = conn.close();
            }
        }
    }
}

/// The proxy tier: `Hello`, `Update` (ack ⇒ every involved shard
/// acked), `Lookup`, `StatsQuery`, `ShardMapQuery`, `Heartbeat`.
impl FrameHandler for Shared {
    type Conn = Backends;

    fn open(&self) -> Backends {
        Backends::new(self.shards.len())
    }

    fn is_cheap(&self, kind: FrameType) -> bool {
        // Everything but the three fan-outs is answered (or refused)
        // from memory, with no backend I/O.
        !matches!(
            kind,
            FrameType::Update | FrameType::Lookup | FrameType::StatsQuery
        )
    }

    fn handle(&self, backends: &mut Backends, frame: &Frame) -> io::Result<Frame> {
        Ok(match frame.kind {
            FrameType::Hello => Frame {
                kind: FrameType::HelloAck,
                seq: frame.seq,
                payload: wire::encode_u64(self.last_acked.load(Ordering::SeqCst)),
            },
            FrameType::Update => {
                let batch = wire::decode_updates(&frame.payload)?;
                handle_update(frame.seq, &batch, self, backends)
            }
            FrameType::Lookup => {
                let addrs = wire::decode_lookup(&frame.payload)?;
                handle_lookup(frame.seq, &addrs, self, backends)
            }
            FrameType::StatsQuery => {
                let embeds: Vec<Option<String>> = (0..self.shards.len())
                    .map(|i| backends.op(i, self, Connection::stats_json).ok())
                    .collect();
                Frame {
                    kind: FrameType::StatsReply,
                    seq: frame.seq,
                    payload: proxy_stats_json(self, Some(embeds)).into_bytes(),
                }
            }
            FrameType::ShardMapQuery => Frame {
                kind: FrameType::ShardMapReply,
                seq: frame.seq,
                payload: self.map.encode(),
            },
            FrameType::Heartbeat => Frame::empty(FrameType::HeartbeatAck, frame.seq),
            other => return Err(bad_data(format!("proxy does not serve {other:?}"))),
        })
    }

    fn close(&self, mut backends: Backends) {
        backends.close_all();
    }
}

/// Fans an update batch out by range intersection and acks the client
/// only after every involved shard acked its sub-batch (each shard ack
/// meaning journaled + replicated). Every sub-batch is sent before any
/// ack is awaited, so the frame waits for its slowest shard.
fn handle_update(seq: u64, batch: &[Update], shared: &Shared, backends: &mut Backends) -> Frame {
    let mut subs = std::mem::take(&mut backends.updates);
    for sub in &mut subs {
        sub.ops.clear();
    }
    for u in batch {
        for s in shared.map.shards_for_prefix(u.prefix()) {
            subs[s].ops.push(*u);
        }
    }
    for (i, sub) in subs.iter_mut().enumerate() {
        sub.sent = !sub.ops.is_empty()
            && backends
                .conn(i, shared)
                .and_then(|c| c.send_updates(&sub.ops))
                .is_ok();
    }
    let mut failed = None;
    for (i, sub) in subs.iter().enumerate() {
        if sub.ops.is_empty() {
            continue;
        }
        let acked = backends.settle(i, shared, sub.sent, Connection::flush_acks, |c| {
            c.send_updates(&sub.ops)?;
            c.flush_acks()
        });
        match acked {
            Ok(()) => {
                let n = sub.ops.len() as u64;
                shared.shards[i].updates.fetch_add(n, Ordering::Relaxed);
                shared.update_fanout.fetch_add(n, Ordering::Relaxed);
            }
            Err(e) => failed = failed.or(Some((i, e))),
        }
    }
    backends.updates = subs;
    if let Some((i, e)) = failed {
        // No ack: the client's resume machinery will retransmit the
        // whole frame, which is safe (last-op-wins per prefix).
        return Frame::error(seq, format_args!("shard {i}: {e}"));
    }
    shared
        .updates
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    shared.last_acked.fetch_max(seq, Ordering::SeqCst);
    Frame {
        kind: FrameType::UpdateAck,
        seq,
        payload: wire::encode_ack(wire::UpdateAck {
            accepted: batch.len() as u32,
            dropped: 0,
        }),
    }
}

/// Routes each address to its owning shard and reassembles the answers
/// in request order. Every sub-batch is sent before any reply is read,
/// so the frame waits for its slowest shard, not for the sum of them.
fn handle_lookup(seq: u64, addrs: &[u32], shared: &Shared, backends: &mut Backends) -> Frame {
    let mut subs = std::mem::take(&mut backends.lookups);
    for sub in &mut subs {
        sub.positions.clear();
        sub.addrs.clear();
    }
    for (pos, &addr) in addrs.iter().enumerate() {
        let sub = &mut subs[shared.map.shard_of(addr)];
        sub.positions.push(pos);
        sub.addrs.push(addr);
    }
    for (i, sub) in subs.iter_mut().enumerate() {
        sub.token = if sub.addrs.is_empty() {
            None
        } else {
            backends
                .conn(i, shared)
                .and_then(|c| c.start_lookup(&sub.addrs))
                .ok()
        };
    }
    // Collect every started sub-lookup, even past a failed one, so no
    // reply is left unread on a backend stream.
    let mut results = std::mem::take(&mut backends.results);
    results.clear();
    results.resize(addrs.len(), None);
    let mut failed = None;
    for (i, sub) in subs.iter().enumerate() {
        if sub.addrs.is_empty() {
            continue;
        }
        let answers = backends.settle(
            i,
            shared,
            sub.token.is_some(),
            |c| c.finish_lookup(sub.token.expect("started"), &sub.addrs),
            |c| c.lookup(&sub.addrs),
        );
        match answers {
            Ok(answers) => {
                for (&pos, answer) in sub.positions.iter().zip(answers) {
                    results[pos] = answer;
                }
                shared.shards[i]
                    .lookups
                    .fetch_add(sub.addrs.len() as u64, Ordering::Relaxed);
            }
            Err(e) => failed = failed.or(Some((i, e))),
        }
    }
    backends.lookups = subs;
    let reply = match failed {
        Some((i, e)) => Frame::error(seq, format_args!("shard {i}: {e}")),
        None => {
            shared
                .lookups
                .fetch_add(addrs.len() as u64, Ordering::Relaxed);
            Frame {
                kind: FrameType::LookupResult,
                seq,
                payload: wire::encode_results(&results),
            }
        }
    };
    backends.results = results;
    reply
}
