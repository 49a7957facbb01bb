//! The warm standby: a follower that mirrors a primary's journal into
//! an in-memory replica and can be promoted to a serving primary.
//!
//! A standby binds its serving address once and runs two threads:
//!
//! * the control [`Listener`]'s accept loop answers the proxy's control
//!   traffic on that address — heartbeats, stats, and `Promote` — as a
//!   [`FrameHandler`] under the threads driver;
//! * the **replication thread** dials the primary's replication port,
//!   announces its applied journal position (`ReplicaHello`), absorbs
//!   the snapshot and/or record stream, applies each record to the
//!   replica table *before* acknowledging it (ack ⇒ applied, which is
//!   what lets the primary count an acked record as survivable), and
//!   reconnects with backoff — resuming from its applied position, so
//!   acknowledged records are never replayed twice.
//!
//! Promotion is the handoff, and the replication thread makes it: once
//! `Promote` has been answered with `PromoteAck(seq_hw)`, its loop ends
//! with its last record applied and acked. It drains the control
//! listener and boots a full [`Server`]/[`RouterService`] from the
//! replica state on a clone of the same socket, advertising the
//! replicated sequence high-water so re-routed clients resume exactly
//! where their acks ended. The address is never released: a connection
//! that arrives during the handoff waits in the socket's backlog.

use std::io::{self, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use clue_core::codec::bad_data;
use clue_core::json;
use clue_fib::RouteTable;
use clue_net::frame::{Frame, FrameType};
use clue_net::wire;
use clue_net::{
    client, FrameHandler, FrameReader, Listener, ListenerConfig, NetStats, Server, Stop, Transport,
    IO_TIMEOUT,
};
use clue_router::{RecoveredState, RouterConfig, RouterReport, RouterService};
use clue_store::{decode_record, decode_snapshot};

use crate::repl::FOLLOWER_EMPTY;

/// How the standby serves its address, before promotion and after.
const SERVING: ListenerConfig = ListenerConfig {
    transport: Transport::Threads,
    bridge_threads: 0,
};

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
    /// Backoff between replication reconnect attempts.
    pub reconnect_backoff: Duration,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            listen: "127.0.0.1:0".into(),
            primary_repl: String::new(),
            router: RouterConfig::default(),
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

/// What the control handler and the caller signal the replication
/// thread with.
#[derive(Default)]
struct Flags {
    /// Ends replication: requested by a stop and by a promotion.
    stop: Stop,
    /// Promotion was asked for (a `Promote` frame or
    /// [`Standby::request_promote`]).
    promote_req: AtomicBool,
    /// The promoted server is up.
    promoted: AtomicBool,
    /// A clone of the replication session's socket, whose read half
    /// the stop shuts so a read parked on a quiet primary wakes.
    session: Mutex<Option<TcpStream>>,
}

impl Flags {
    /// Requests the stop and wakes the replication thread. Runs in
    /// `Drop`, so it does not panic: the slot holds a valid value even
    /// if a thread panicked while holding its lock.
    fn halt(&self) {
        self.stop.request();
        let session = self.session.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = &*session {
            let _ = s.shutdown(Shutdown::Read);
        }
    }

    /// Asks for promotion: replication stops, and its thread boots the
    /// address as a full server.
    fn promote(&self) {
        self.promote_req.store(true, Ordering::Release);
        self.halt();
    }
}

/// A running standby (control listener + replication thread).
pub struct Standby {
    local_addr: SocketAddr,
    primary_repl: String,
    state: Arc<Mutex<ReplicaState>>,
    net: Arc<NetStats>,
    flags: Arc<Flags>,
    /// Replicates until a stop (`None`) or a promotion (the server it
    /// booted).
    repl: Option<JoinHandle<io::Result<Option<Server>>>>,
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
        // The promoted server's socket: the control listener closes
        // its own copy, this one keeps the address bound.
        let serving = socket.try_clone()?;
        let state = Arc::new(Mutex::new(ReplicaState::default()));
        let net = Arc::new(NetStats::new());
        let flags = Arc::new(Flags::default());
        let control = Listener::start(
            socket,
            Arc::new(Control {
                state: Arc::clone(&state),
                flags: Arc::clone(&flags),
                primary_repl: cfg.primary_repl.clone(),
            }),
            Arc::clone(&net),
            SERVING,
        )?;
        let primary_repl = cfg.primary_repl.clone();
        let repl = {
            let (state, flags) = (Arc::clone(&state), Arc::clone(&flags));
            thread::spawn(move || {
                replication_loop(&cfg, &state, &flags);
                hand_off(control, serving, &cfg, &state, &flags)
            })
        };
        Ok(Standby {
            local_addr,
            primary_repl,
            state,
            net,
            flags,
            repl: Some(repl),
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
    /// replication thread stops, then serves the same address as a full
    /// server. In-process equivalent of the proxy's failover RPC, for
    /// tests and benches.
    pub fn request_promote(&self) {
        self.flags.promote();
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
        self.flags.halt();
        let served = self
            .repl
            .take()
            .expect("replication thread joined once")
            .join()
            .map_err(|_| io::Error::other("standby replication thread panicked"))??;
        match served {
            Some(server) => Ok(StandbyOutcome::Promoted(Box::new(server.drain()?))),
            None => Ok(StandbyOutcome::Standby(
                self.state.lock().expect("state lock").clone(),
            )),
        }
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.flags.halt();
        if let Some(h) = self.repl.take() {
            let _ = h.join();
        }
    }
}

/// The standby's stats JSON (stable key order, one line).
fn stats_json(state: &ReplicaState, primary_repl: &str) -> String {
    json::object()
        .str("role", "standby")
        .str("primary_repl", primary_repl)
        .int("applied_jseq", state.applied_jseq.map_or(-1, i128::from))
        .int("seq_hw", state.seq_hw)
        .int("epoch", state.epoch)
        .int("routes", state.table.len() as u64)
        .int("records_applied", state.records_applied)
        .int("snapshots_loaded", state.snapshots_loaded)
        .int("skipped", state.skipped)
        .int("reconnects", state.reconnects)
        .finish()
}

// ----------------------------------------------------------------- control

/// Runs on the replication thread once its loop has ended: drains the
/// control listener, and on a promotion boots a full [`Server`] from
/// the replica state on `socket`, which held the address throughout.
/// Every record the loop acked is in that state: it applies before it
/// acks, and the loop has returned.
fn hand_off(
    mut control: Listener,
    socket: TcpListener,
    cfg: &StandbyConfig,
    state: &Mutex<ReplicaState>,
    flags: &Flags,
) -> io::Result<Option<Server>> {
    control.stop();
    if !flags.promote_req.load(Ordering::Acquire) {
        return Ok(None);
    }
    let recovered = {
        let s = state.lock().expect("state lock");
        RecoveredState {
            table: s.table.clone(),
            epoch: s.epoch,
            seq_hw: s.seq_hw,
            base: None,
        }
    };
    let seq_hw = recovered.seq_hw;
    let svc = RouterService::start_recovered(recovered, &cfg.router, None);
    let server = Server::start_on(socket, svc, seq_hw, SERVING)?;
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

    fn open(&self) {}

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
                // Replication ends; its thread drains this listener
                // and serves the address as a full server.
                self.flags.promote();
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
    while !flags.stop.is_requested() {
        let followed = follow_once(cfg, state, flags);
        // The session is over: release its socket.
        flags.session.lock().expect("session lock").take();
        if followed.is_ok() || flags.stop.is_requested() {
            return; // clean shutdown from either side
        }
        state.lock().expect("state lock").reconnects += 1;
        flags.stop.wait_timeout(cfg.reconnect_backoff);
    }
}

/// One replication session: hello, catch up, stream until it breaks.
fn follow_once(
    cfg: &StandbyConfig,
    state: &Arc<Mutex<ReplicaState>>,
    flags: &Flags,
) -> io::Result<()> {
    let stream = client::open(&cfg.primary_repl, IO_TIMEOUT, IO_TIMEOUT)?;
    // Published before the stop is checked: a stop requested earlier is
    // seen here, a later one shuts this socket's read half.
    *flags.session.lock().expect("session lock") = Some(stream.try_clone()?);
    if flags.stop.is_requested() {
        return Ok(());
    }

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
    let ack = reader.read_frame(&stream, IO_TIMEOUT)?;
    if ack.kind != FrameType::HelloAck {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("expected HelloAck, got {:?}", ack.kind),
        ));
    }

    let mut snapshot_buf: Vec<u8> = Vec::new();
    loop {
        let read = reader.next_frame(&stream);
        if flags.stop.is_requested() {
            return Ok(());
        }
        let Some(frame) = read? else {
            return Err(ErrorKind::UnexpectedEof.into());
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
                        let s = &mut *s;
                        rec.replay_onto(&mut s.table, &mut s.epoch, &mut s.seq_hw);
                        s.applied_jseq = Some(rec.jseq);
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
