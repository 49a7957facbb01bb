//! The warm standby: a follower that mirrors a primary's journal into
//! an in-memory replica and can be promoted to a serving primary.
//!
//! Two threads per standby:
//!
//! * the **replication client** dials the primary's replication port,
//!   announces its applied journal position (`ReplicaHello`), absorbs
//!   the snapshot and/or record stream, applies each record to the
//!   replica table *before* acknowledging it (ack ⇒ applied, which is
//!   what lets the primary count an acked record as survivable), and
//!   reconnects with backoff — resuming from its applied position, so
//!   acknowledged records are never replayed twice;
//! * the **frontend** answers the proxy's control traffic on the
//!   standby's serving address — heartbeats, stats, and `Promote` — as
//!   a [`FrameHandler`] under the threads driver of a [`Listener`].
//!
//! Promotion is the handoff: reply `PromoteAck(seq_hw)`, stop
//! replicating, drop the control listener, and boot a full
//! [`Server`]/[`RouterService`] from the replica state *on the same
//! address*, advertising the replicated sequence high-water so
//! re-routed clients resume exactly where their acks ended. The brief
//! rebind gap is covered by the clients' reconnect backoff.

use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use clue_core::codec::bad_data;
use clue_fib::RouteTable;
use clue_net::frame::{Frame, FrameType};
use clue_net::wire;
use clue_net::{
    FrameHandler, FrameReader, Listener, ListenerConfig, NetStats, Polled, Server, ServerConfig,
    Transport,
};
use clue_router::{RecoveredState, RouterConfig, RouterReport, RouterService};
use clue_store::{decode_record, decode_snapshot};

use crate::repl::FOLLOWER_EMPTY;

/// Tunables for a [`Standby`].
#[derive(Debug, Clone)]
pub struct StandbyConfig {
    /// Serving/control address (the one the proxy's shard map lists as
    /// the standby and re-routes to after promotion).
    pub listen: String,
    /// The primary's replication address to follow.
    pub primary_repl: String,
    /// Router configuration used when promoted.
    pub router: RouterConfig,
    /// Poll interval for idle sockets and shutdown checks.
    pub idle_poll: Duration,
    /// Per-socket I/O timeout once a frame has started arriving.
    pub io_timeout: Duration,
    /// Backoff between replication reconnect attempts.
    pub reconnect_backoff: Duration,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            listen: "127.0.0.1:0".into(),
            primary_repl: String::new(),
            router: RouterConfig::default(),
            idle_poll: Duration::from_millis(20),
            io_timeout: Duration::from_secs(10),
            reconnect_backoff: Duration::from_millis(100),
        }
    }
}

/// The replica's mirrored state plus catch-up counters.
#[derive(Debug, Clone, Default)]
pub struct ReplicaState {
    /// The mirrored route table (empty until the first snapshot).
    pub table: RouteTable,
    /// Applied journal position (`None` until the first snapshot).
    pub applied_jseq: Option<u64>,
    /// Replicated ingress-sequence high-water.
    pub seq_hw: u64,
    /// Epoch to resume numbering after, if promoted.
    pub epoch: u64,
    /// Journal records applied.
    pub records_applied: u64,
    /// Snapshots absorbed (initial seed + any re-seeds).
    pub snapshots_loaded: u64,
    /// Records received at or below the applied position and skipped —
    /// stays 0 unless the primary violates the resume contract.
    pub skipped: u64,
    /// Replication reconnect attempts that found the primary down.
    pub reconnects: u64,
}

/// How a standby ended.
pub enum StandbyOutcome {
    /// Never promoted: the mirrored state at shutdown.
    Standby(ReplicaState),
    /// Promoted: the drained report of the serving node it became.
    Promoted(Box<RouterReport>),
}

/// What the standby's threads signal each other with.
#[derive(Default)]
struct Flags {
    shutdown: AtomicBool,
    /// Promotion was asked for (a `Promote` frame or
    /// [`Standby::request_promote`]).
    promote_req: AtomicBool,
    /// The replication thread has exited.
    repl_stopped: AtomicBool,
    /// The promoted server is up.
    promoted: AtomicBool,
}

/// A running standby (replication client + control frontend).
pub struct Standby {
    local_addr: SocketAddr,
    primary_repl: String,
    state: Arc<Mutex<ReplicaState>>,
    net: Arc<NetStats>,
    flags: Arc<Flags>,
    repl: Option<JoinHandle<()>>,
    frontend: Option<JoinHandle<io::Result<Option<Server>>>>,
}

impl Standby {
    /// Binds the control address and starts following the primary.
    ///
    /// # Errors
    ///
    /// Bind failures. Replication failures are retried forever in the
    /// background (the primary may simply not be up yet).
    pub fn start(cfg: StandbyConfig) -> io::Result<Standby> {
        let socket = TcpListener::bind(&cfg.listen)?;
        let local_addr = socket.local_addr()?;
        let state = Arc::new(Mutex::new(ReplicaState::default()));
        let net = Arc::new(NetStats::new());
        let flags = Arc::new(Flags::default());
        let listener = Listener::start(
            socket,
            Arc::new(Control {
                state: Arc::clone(&state),
                flags: Arc::clone(&flags),
                primary_repl: cfg.primary_repl.clone(),
            }),
            Arc::clone(&net),
            ListenerConfig {
                transport: Transport::Threads,
                bridge_threads: 0,
                idle_poll: cfg.idle_poll,
                io_timeout: cfg.io_timeout,
            },
        )?;

        let repl = {
            let (cfg, state, flags) = (cfg.clone(), Arc::clone(&state), Arc::clone(&flags));
            thread::spawn(move || {
                replication_loop(&cfg, &state, &flags);
                flags.repl_stopped.store(true, Ordering::Release);
            })
        };
        let primary_repl = cfg.primary_repl.clone();
        let frontend = {
            let (state, flags) = (Arc::clone(&state), Arc::clone(&flags));
            thread::spawn(move || frontend_loop(listener, &cfg, &state, &flags))
        };
        Ok(Standby {
            local_addr,
            primary_repl,
            state,
            net,
            flags,
            repl: Some(repl),
            frontend: Some(frontend),
        })
    }

    /// The bound control/serving address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The control endpoint's network counters (connections, frames,
    /// protocol and accept errors) up to promotion.
    #[must_use]
    pub fn net_stats(&self) -> &NetStats {
        &self.net
    }

    /// Whether promotion has completed.
    #[must_use]
    pub fn is_promoted(&self) -> bool {
        self.flags.promoted.load(Ordering::Acquire)
    }

    /// Requests promotion as if a `Promote` frame had arrived: the
    /// replication thread stops, then the frontend reboots as a full
    /// server on the same address. In-process equivalent of the
    /// proxy's failover RPC, for tests and benches.
    pub fn request_promote(&self) {
        self.flags.promote_req.store(true, Ordering::Release);
    }

    /// The stats object the control endpoint answers a `StatsQuery`
    /// with: role, primary, replication position and counters.
    #[must_use]
    pub fn stats_json(&self) -> String {
        stats_json(&self.state.lock().expect("state lock"), &self.primary_repl)
    }

    /// A copy of the replica's current state and counters.
    #[must_use]
    pub fn replica_state(&self) -> ReplicaState {
        self.state.lock().expect("state lock").clone()
    }

    /// Shuts the standby down and returns what it ended as. If it was
    /// promoted, the promoted server is drained (blocking until its
    /// last batch applies).
    ///
    /// # Errors
    ///
    /// Propagates drain failures of a promoted server.
    pub fn stop(mut self) -> io::Result<StandbyOutcome> {
        self.flags.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.repl.take() {
            let _ = h.join();
        }
        let front = self
            .frontend
            .take()
            .expect("frontend joined once")
            .join()
            .map_err(|_| io::Error::other("standby frontend panicked"))??;
        match front {
            Some(server) => Ok(StandbyOutcome::Promoted(Box::new(server.drain()?))),
            None => Ok(StandbyOutcome::Standby(
                self.state.lock().expect("state lock").clone(),
            )),
        }
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.flags.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.repl.take() {
            let _ = h.join();
        }
        if let Some(h) = self.frontend.take() {
            let _ = h.join();
        }
    }
}

/// The standby's stats JSON (stable key order, one line).
fn stats_json(state: &ReplicaState, primary_repl: &str) -> String {
    format!(
        concat!(
            "{{\"role\":\"standby\",\"primary_repl\":\"{}\",\"applied_jseq\":{},",
            "\"seq_hw\":{},\"epoch\":{},\"routes\":{},\"records_applied\":{},",
            "\"snapshots_loaded\":{},\"skipped\":{},\"reconnects\":{}}}"
        ),
        primary_repl,
        state.applied_jseq.map_or(-1i64, |j| j as i64),
        state.seq_hw,
        state.epoch,
        state.table.len(),
        state.records_applied,
        state.snapshots_loaded,
        state.skipped,
        state.reconnects,
    )
}

// ---------------------------------------------------------------- frontend

/// Serves the control endpoint until shutdown (`Ok(None)`) or
/// promotion, where it hands the address over to a full [`Server`]
/// booted from the replica state.
fn frontend_loop(
    mut listener: Listener,
    cfg: &StandbyConfig,
    state: &Mutex<ReplicaState>,
    flags: &Flags,
) -> io::Result<Option<Server>> {
    while !flags.promote_req.load(Ordering::Acquire) {
        if flags.shutdown.load(Ordering::Acquire) {
            listener.stop();
            return Ok(None);
        }
        thread::sleep(cfg.idle_poll);
    }
    // Let the replication thread finish its in-flight record: anything
    // it acked must be in the state we serve from.
    let deadline = Instant::now() + cfg.io_timeout;
    while !flags.repl_stopped.load(Ordering::Acquire) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    // Drain the control connections and release the address.
    listener.stop();
    let recovered = {
        let s = state.lock().expect("state lock");
        RecoveredState {
            table: s.table.clone(),
            epoch: s.epoch,
            seq_hw: s.seq_hw,
        }
    };
    let svc = RouterService::start_recovered(&recovered, &cfg.router, None);
    let scfg = ServerConfig {
        listen: listener.local_addr().to_string(),
        router: cfg.router,
        idle_poll: cfg.idle_poll,
        io_timeout: cfg.io_timeout,
        ..ServerConfig::default()
    };
    let server = Server::start_with_service(svc, recovered.seq_hw, &scfg)?;
    flags.promoted.store(true, Ordering::Release);
    Ok(Some(server))
}

/// The standby control tier: `Hello` (so the stock client/`clue stats`
/// can talk to a standby), `Heartbeat`, `StatsQuery`, and `Promote`.
struct Control {
    state: Arc<Mutex<ReplicaState>>,
    flags: Arc<Flags>,
    primary_repl: String,
}

impl FrameHandler for Control {
    type Conn = ();

    fn open(&self, _id: u64) {}

    fn is_cheap(&self, _kind: FrameType) -> bool {
        // Every reply is a lock and a format; nothing blocks.
        true
    }

    fn handle(&self, (): &mut (), frame: &Frame) -> io::Result<Frame> {
        let state = || self.state.lock().expect("state lock");
        Ok(match frame.kind {
            FrameType::Hello => Frame {
                kind: FrameType::HelloAck,
                seq: frame.seq,
                payload: wire::encode_u64(state().seq_hw),
            },
            FrameType::Heartbeat => Frame::empty(FrameType::HeartbeatAck, frame.seq),
            FrameType::StatsQuery => Frame {
                kind: FrameType::StatsReply,
                seq: frame.seq,
                payload: stats_json(&state(), &self.primary_repl).into_bytes(),
            },
            FrameType::Promote => {
                let state = state();
                if state.table.is_empty() {
                    let why = "standby has no snapshot yet, cannot promote";
                    return Ok(Frame::error(frame.seq, why));
                }
                // The frontend sees the request, drains this listener
                // and reboots the address as a full server.
                self.flags.promote_req.store(true, Ordering::Release);
                Frame {
                    kind: FrameType::PromoteAck,
                    seq: frame.seq,
                    payload: wire::encode_u64(state.seq_hw),
                }
            }
            other => {
                return Err(bad_data(format!(
                    "standby does not serve {other:?} (promote first)"
                )));
            }
        })
    }
}

// ------------------------------------------------------------- replication

fn replication_loop(cfg: &StandbyConfig, state: &Arc<Mutex<ReplicaState>>, flags: &Flags) {
    let stop =
        || flags.shutdown.load(Ordering::Acquire) || flags.promote_req.load(Ordering::Acquire);
    while !stop() {
        match follow_once(cfg, state, &stop) {
            Ok(()) => return, // clean shutdown from either side
            Err(_) => {
                if stop() {
                    return;
                }
                state.lock().expect("state lock").reconnects += 1;
                thread::sleep(cfg.reconnect_backoff);
            }
        }
    }
}

/// One replication session: hello, catch up, stream until it breaks.
fn follow_once(
    cfg: &StandbyConfig,
    state: &Arc<Mutex<ReplicaState>>,
    stop: &impl Fn() -> bool,
) -> io::Result<()> {
    let target = cfg
        .primary_repl
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "unresolvable primary"))?;
    let stream = TcpStream::connect_timeout(&target, cfg.io_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;

    let applied = state
        .lock()
        .expect("state lock")
        .applied_jseq
        .unwrap_or(FOLLOWER_EMPTY);
    Frame {
        kind: FrameType::ReplicaHello,
        seq: 0,
        payload: wire::encode_u64(applied),
    }
    .write_to(&mut &stream)?;
    // One reader for the whole session: the snapshot may follow the
    // HelloAck within the same recv.
    let mut reader = FrameReader::new();
    let ack = reader.read_frame(&stream, cfg.io_timeout)?;
    if ack.kind != FrameType::HelloAck {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("expected HelloAck, got {:?}", ack.kind),
        ));
    }

    let mut snapshot_buf: Vec<u8> = Vec::new();
    loop {
        if stop() {
            return Ok(());
        }
        let frame = match reader.poll_frame(&stream, cfg.idle_poll, cfg.io_timeout)? {
            Polled::Frame(f) => f,
            Polled::Idle => continue,
            Polled::Eof => return Err(ErrorKind::UnexpectedEof.into()),
        };
        match frame.kind {
            FrameType::SnapshotChunk => {
                let (last, chunk) = wire::decode_chunk(&frame.payload)?;
                snapshot_buf.extend_from_slice(chunk);
                if last {
                    let snap = decode_snapshot(&snapshot_buf)?;
                    snapshot_buf = Vec::new();
                    let mut s = state.lock().expect("state lock");
                    s.table = snap.table;
                    s.applied_jseq = Some(snap.jseq);
                    s.seq_hw = s.seq_hw.max(snap.seq_hw);
                    s.epoch = s.epoch.max(snap.epoch);
                    s.snapshots_loaded += 1;
                }
            }
            FrameType::WalShip => {
                let (rec, used) = decode_record(&frame.payload)?;
                if used != frame.payload.len() {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "trailing bytes after shipped record",
                    ));
                }
                let ops = rec.ops.len() as u32;
                {
                    let mut s = state.lock().expect("state lock");
                    if s.applied_jseq.is_some_and(|j| rec.jseq <= j) {
                        // Already applied (and acked) — never replay.
                        s.skipped += 1;
                    } else {
                        for &op in &rec.ops {
                            s.table.apply(op);
                        }
                        s.applied_jseq = Some(rec.jseq);
                        s.seq_hw = s.seq_hw.max(rec.seq_hw);
                        // rec.epoch is the epoch before the batch; the
                        // batch may have published rec.epoch + 1.
                        s.epoch = s.epoch.max(rec.epoch + 1);
                        s.records_applied += 1;
                    }
                }
                // Applied-then-acked: the primary may count this record
                // as replicated the moment it sees the ack.
                Frame {
                    kind: FrameType::UpdateAck,
                    seq: rec.jseq,
                    payload: wire::encode_ack(wire::UpdateAck {
                        accepted: ops,
                        dropped: 0,
                    }),
                }
                .write_to(&mut &stream)?;
            }
            FrameType::Heartbeat => {
                Frame::empty(FrameType::HeartbeatAck, frame.seq).write_to(&mut &stream)?;
            }
            FrameType::Shutdown => return Err(ErrorKind::ConnectionAborted.into()),
            other => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("unexpected {other:?} on replication stream"),
                ));
            }
        }
    }
}
