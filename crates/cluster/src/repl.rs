//! WAL-shipping replication, primary side.
//!
//! A [`ReplicationHub`] holds the primary's streamable state: the raw
//! bytes of the newest snapshot plus every encoded journal record
//! after it. [`ReplicatedStore`] wraps the durable [`Store`] as the
//! router's [`UpdateJournal`]: each append is journaled locally,
//! published to the hub, and then held until every *caught-up*
//! follower acknowledges it (or times out and is dropped from the
//! synchronous set). Because the server frontend already holds client
//! acks until `wait_journaled`, this extends the ack chain end-to-end:
//!
//! > client ack ⇒ journaled on the primary ⇒ applied on every live
//! > standby.
//!
//! That is the whole failover story — an acknowledged update can never
//! be lost by promoting a standby, and an unacknowledged one is
//! retransmitted by the client's seq/ack resume machinery against the
//! promoted node.
//!
//! A follower that dies or stalls past the sync timeout is *demoted
//! out of the synchronous set*, not allowed to halt the update plane:
//! the dead party is the redundancy, so degrading to unreplicated
//! beats refusing writes. When it reconnects it is caught back up
//! (snapshot + tail) before re-entering the set.
//!
//! The [`ReplicationListener`] serves followers on a dedicated port:
//! `ReplicaHello(applied_jseq)` → `HelloAck(resume_from)` → optional
//! `SnapshotChunk` stream → `WalShip`/`UpdateAck` in lockstep. Records
//! at or below the follower's applied position are never re-shipped,
//! so a rejoining standby sees each acknowledged batch exactly once.

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use clue_net::frame::{Frame, FrameDecoder, FrameType, MAX_PAYLOAD};
use clue_net::{wire, NetStats, Stop, IO_TIMEOUT};
use clue_router::{CheckpointView, JournalBatch, UpdateJournal};
use clue_store::{encode_record, Store, StreamBase};

/// `ReplicaHello` payload meaning "I have no state, ship a snapshot".
pub const FOLLOWER_EMPTY: u64 = u64::MAX;

/// Snapshot transfer chunk size.
const CHUNK_BYTES: usize = 1 << 20;

/// One encoded journal record as shipped to followers.
#[derive(Clone)]
struct ShippedRecord {
    jseq: u64,
    bytes: Arc<Vec<u8>>,
}

struct FollowerSlot {
    id: u64,
    tx: Sender<ShippedRecord>,
    acked: Arc<AtomicU64>,
    caught_up: Arc<AtomicBool>,
    alive: Arc<AtomicBool>,
}

struct HubInner {
    base_jseq: u64,
    base_snapshot: Arc<Vec<u8>>,
    tail: VecDeque<ShippedRecord>,
    followers: Vec<FollowerSlot>,
    next_id: u64,
}

/// Counters a primary exposes about its replication stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplStats {
    /// Followers currently attached (catching up or synced).
    pub followers: usize,
    /// Followers in the synchronous set (caught up and alive).
    pub synced: usize,
    /// Journal position of the streamable base snapshot.
    pub base_jseq: u64,
    /// Records held after the base.
    pub tail_len: usize,
    /// Failed `accept()` calls on the replication port.
    pub accept_errors: u64,
}

/// The primary's streamable state plus the follower registry.
pub struct ReplicationHub {
    inner: Mutex<HubInner>,
    progress: Condvar,
    /// What the replication port's accept loop counts into.
    net: NetStats,
}

/// What [`ReplicationHub::attach`] hands a follower-serving thread.
struct FollowerSession {
    id: u64,
    /// Snapshot to ship first, with its jseq (None = follower is
    /// already at or past the base).
    snapshot: Option<(u64, Arc<Vec<u8>>)>,
    /// Records after `resume_from`, in jseq order.
    backlog: Vec<ShippedRecord>,
    /// The stream resumes after this journal position.
    resume_from: u64,
    rx: Receiver<ShippedRecord>,
    acked: Arc<AtomicU64>,
    caught_up: Arc<AtomicBool>,
    alive: Arc<AtomicBool>,
}

impl ReplicationHub {
    /// A hub seeded from the store's current streamable state.
    #[must_use]
    pub fn new(base: StreamBase) -> ReplicationHub {
        let tail = base
            .tail
            .iter()
            .map(|rec| ShippedRecord {
                jseq: rec.jseq,
                bytes: Arc::new(encode_record(rec)),
            })
            .collect();
        ReplicationHub {
            inner: Mutex::new(HubInner {
                base_jseq: base.jseq,
                base_snapshot: Arc::new(base.snapshot),
                tail,
                followers: Vec::new(),
                next_id: 1,
            }),
            progress: Condvar::new(),
            net: NetStats::new(),
        }
    }

    /// Current replication counters.
    #[must_use]
    pub fn stats(&self) -> ReplStats {
        let inner = self.inner.lock().expect("hub lock");
        ReplStats {
            followers: inner.followers.len(),
            synced: inner
                .followers
                .iter()
                .filter(|f| f.alive.load(Ordering::Acquire) && f.caught_up.load(Ordering::Acquire))
                .count(),
            base_jseq: inner.base_jseq,
            tail_len: inner.tail.len(),
            accept_errors: self.net.accept_errors(),
        }
    }

    /// Publishes a freshly journaled record to the tail and every
    /// attached follower.
    fn publish(&self, jseq: u64, bytes: Vec<u8>) {
        let rec = ShippedRecord {
            jseq,
            bytes: Arc::new(bytes),
        };
        let mut inner = self.inner.lock().expect("hub lock");
        inner.tail.push_back(rec.clone());
        for f in &inner.followers {
            if f.alive.load(Ordering::Acquire) && f.tx.send(rec.clone()).is_err() {
                f.alive.store(false, Ordering::Release);
            }
        }
    }

    /// Blocks until every follower in the synchronous set has applied
    /// `jseq`, dropping laggards from the set at the deadline. Returns
    /// whether the whole set acknowledged in time.
    fn wait_replicated(&self, jseq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("hub lock");
        loop {
            let lagging = |f: &FollowerSlot| {
                f.alive.load(Ordering::Acquire)
                    && f.caught_up.load(Ordering::Acquire)
                    && f.acked.load(Ordering::Acquire) < jseq
            };
            if !inner.followers.iter().any(&lagging) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                // Demote, don't halt: the laggard is the redundancy.
                for f in &inner.followers {
                    if lagging(f) {
                        f.alive.store(false, Ordering::Release);
                    }
                }
                return false;
            }
            let (guard, _) = self
                .progress
                .wait_timeout(inner, deadline - now)
                .expect("hub lock");
            inner = guard;
        }
    }

    /// Replaces the streamable base after a checkpoint; the tail it
    /// supersedes is dropped.
    fn set_base(&self, jseq: u64, snapshot: Vec<u8>) {
        let mut inner = self.inner.lock().expect("hub lock");
        inner.base_jseq = jseq;
        inner.base_snapshot = Arc::new(snapshot);
        inner.tail.retain(|r| r.jseq > jseq);
    }

    /// Registers a follower whose applied position is `applied_jseq`
    /// ([`FOLLOWER_EMPTY`] = no state) and atomically computes the
    /// catch-up plan: records published after this call arrive on the
    /// session's channel, so snapshot + backlog + live stream covers
    /// every record exactly once.
    fn attach(&self, applied_jseq: u64) -> FollowerSession {
        let (tx, rx) = channel();
        let mut inner = self.inner.lock().expect("hub lock");
        let need_snapshot = applied_jseq == FOLLOWER_EMPTY || applied_jseq < inner.base_jseq;
        let resume_from = if need_snapshot {
            inner.base_jseq
        } else {
            applied_jseq
        };
        let snapshot = need_snapshot.then(|| (inner.base_jseq, Arc::clone(&inner.base_snapshot)));
        let backlog: Vec<ShippedRecord> = inner
            .tail
            .iter()
            .filter(|r| r.jseq > resume_from)
            .cloned()
            .collect();
        let id = inner.next_id;
        inner.next_id += 1;
        let acked = Arc::new(AtomicU64::new(resume_from));
        let caught_up = Arc::new(AtomicBool::new(false));
        let alive = Arc::new(AtomicBool::new(true));
        inner.followers.push(FollowerSlot {
            id,
            tx,
            acked: Arc::clone(&acked),
            caught_up: Arc::clone(&caught_up),
            alive: Arc::clone(&alive),
        });
        FollowerSession {
            id,
            snapshot,
            backlog,
            resume_from,
            rx,
            acked,
            caught_up,
            alive,
        }
    }

    fn detach(&self, id: u64) {
        let mut inner = self.inner.lock().expect("hub lock");
        inner.followers.retain(|f| f.id != id);
        drop(inner);
        self.note_progress();
    }

    /// Detaches every follower, dropping the sender its session's live
    /// stream waits on, so each wakes and ends.
    fn detach_all(&self) {
        self.inner.lock().expect("hub lock").followers.clear();
        self.note_progress();
    }

    /// Wakes [`wait_replicated`] after a follower records an ack (or
    /// leaves the set).
    fn note_progress(&self) {
        let _guard = self.inner.lock().expect("hub lock");
        self.progress.notify_all();
    }
}

/// The [`Store`] wrapped for synchronous WAL shipping: append locally,
/// publish to the hub, wait for the synchronous follower set.
pub struct ReplicatedStore {
    store: Store,
    hub: Arc<ReplicationHub>,
    sync_timeout: Duration,
}

impl ReplicatedStore {
    /// Wraps `store`. `sync_timeout` bounds how long an append waits
    /// for follower acks before demoting laggards; keep it below the
    /// serving frontend's I/O timeout so a dead standby degrades the
    /// shard instead of stalling client acks past their deadline.
    #[must_use]
    pub fn new(store: Store, hub: Arc<ReplicationHub>, sync_timeout: Duration) -> ReplicatedStore {
        ReplicatedStore {
            store,
            hub,
            sync_timeout,
        }
    }

    /// Hands the hub the snapshot the store just wrote, as its new base.
    fn rebase_hub(&mut self) -> io::Result<()> {
        let base = self.store.stream_base()?;
        self.hub.set_base(base.jseq, base.snapshot);
        Ok(())
    }
}

impl UpdateJournal for ReplicatedStore {
    fn append(&mut self, batch: &JournalBatch<'_>) -> io::Result<()> {
        let (jseq, bytes) = self.store.append_record(batch)?;
        self.hub.publish(jseq, bytes);
        self.hub.wait_replicated(jseq, self.sync_timeout);
        Ok(())
    }

    fn wants_checkpoint(&self) -> bool {
        self.store.wants_checkpoint()
    }

    fn checkpoint(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        self.store.checkpoint(view)?;
        self.rebase_hub()
    }

    fn on_drain(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        if self.store.checkpoint_if_behind(view)? {
            self.rebase_hub()?;
        }
        Ok(())
    }
}

/// Tunables for the primary's replication listener. A stalled follower
/// is bounded by [`IO_TIMEOUT`] per socket read or write.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Listen address for followers (e.g. `127.0.0.1:0`).
    pub listen: String,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            listen: "127.0.0.1:0".into(),
        }
    }
}

/// The primary-side replication endpoint: accepts followers and
/// streams them the hub's snapshot/backlog/live records.
pub struct ReplicationListener {
    local_addr: SocketAddr,
    stop: Arc<Stop>,
    hub: Arc<ReplicationHub>,
    accept: Option<JoinHandle<()>>,
}

impl ReplicationListener {
    /// Binds and starts serving followers.
    ///
    /// # Errors
    ///
    /// Bind/configuration failures.
    pub fn start(cfg: ReplConfig, hub: Arc<ReplicationHub>) -> io::Result<ReplicationListener> {
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(Stop::new());
        let accept = {
            let (stop, hub) = (Arc::clone(&stop), Arc::clone(&hub));
            thread::spawn(move || {
                // A streaming session, not request/reply: only the
                // accept path is shared with the frame-handler tiers.
                let serve = |stream: &TcpStream| {
                    let _ = serve_follower(stream, &hub, &stop);
                };
                clue_net::accept_loop(&listener, &hub.net, &stop, serve);
            })
        };
        Ok(ReplicationListener {
            local_addr,
            stop,
            hub,
            accept: Some(accept),
        })
    }

    /// The bound follower-facing address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and disconnects every follower.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ReplicationListener {
    fn drop(&mut self) {
        // The accept loop wakes the sessions reading their socket, and
        // the hub those waiting for a record to ship.
        self.stop.request();
        self.hub.detach_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn serve_follower(stream: &TcpStream, hub: &ReplicationHub, stop: &Stop) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // The follower's acks are read through one decoder for the session.
    let mut decoder = FrameDecoder::new();
    let hello = decoder.read_frame(&mut &*stream)?;
    if hello.kind != FrameType::ReplicaHello {
        let msg = format!("expected ReplicaHello, got {:?}", hello.kind);
        Frame {
            kind: FrameType::Error,
            seq: hello.seq,
            payload: msg.clone().into_bytes(),
        }
        .write_to(&mut &*stream)?;
        return Err(io::Error::new(ErrorKind::InvalidData, msg));
    }
    let applied = wire::decode_u64(&hello.payload)?;

    let session = hub.attach(applied);
    let result = stream_to_follower(stream, &mut decoder, hub, stop, &session);
    session.alive.store(false, Ordering::Release);
    hub.detach(session.id);
    result
}

fn stream_to_follower(
    stream: &TcpStream,
    decoder: &mut FrameDecoder,
    hub: &ReplicationHub,
    stop: &Stop,
    session: &FollowerSession,
) -> io::Result<()> {
    Frame {
        kind: FrameType::HelloAck,
        seq: 0,
        payload: wire::encode_u64(session.resume_from),
    }
    .write_to(&mut &*stream)?;

    if let Some((_base_jseq, snapshot)) = &session.snapshot {
        let chunks: Vec<&[u8]> = if snapshot.is_empty() {
            vec![&[]]
        } else {
            snapshot.chunks(CHUNK_BYTES).collect()
        };
        let last = chunks.len() - 1;
        for (i, chunk) in chunks.into_iter().enumerate() {
            debug_assert!(chunk.len() < MAX_PAYLOAD as usize);
            Frame {
                kind: FrameType::SnapshotChunk,
                seq: i as u64,
                payload: wire::encode_chunk(i == last, chunk),
            }
            .write_to(&mut &*stream)?;
        }
    }

    for rec in &session.backlog {
        ship_record(stream, decoder, session, hub, rec)?;
    }
    session.caught_up.store(true, Ordering::Release);
    hub.note_progress();

    // Live: wait for the next record. The stop is requested before the
    // hub drops this session's sender, so a session that attached after
    // the drop sees the request here, and one parked in `recv` wakes.
    while !stop.is_requested() {
        let Ok(rec) = session.rx.recv() else {
            break;
        };
        // The live channel only carries records published after
        // attach, but guard anyway: never re-ship an applied one.
        if rec.jseq > session.acked.load(Ordering::Acquire) {
            ship_record(stream, decoder, session, hub, &rec)?;
        }
    }
    Frame::empty(FrameType::Shutdown, 0).write_to(&mut &*stream)
}

fn ship_record(
    stream: &TcpStream,
    decoder: &mut FrameDecoder,
    session: &FollowerSession,
    hub: &ReplicationHub,
    rec: &ShippedRecord,
) -> io::Result<()> {
    Frame {
        kind: FrameType::WalShip,
        seq: rec.jseq,
        payload: rec.bytes.as_ref().clone(),
    }
    .write_to(&mut &*stream)?;
    let ack = decoder.read_frame(&mut &*stream)?;
    if ack.kind != FrameType::UpdateAck || ack.seq != rec.jseq {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "follower acked {:?}/{} for jseq {}",
                ack.kind, ack.seq, rec.jseq
            ),
        ));
    }
    session.acked.store(rec.jseq, Ordering::Release);
    hub.note_progress();
    Ok(())
}
