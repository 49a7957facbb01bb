//! The proxy's fan-out is overlapped: every involved shard has its
//! sub-batch before the proxy reads any shard's reply.
//!
//! Two scripted shards behind a real [`Proxy`] make that observable
//! without timing anything. Shard 0 holds its reply until shard 1 has
//! received its own sub-batch of the same frame, so a proxy that waits
//! for shard 0 before it writes to shard 1 never gets an answer. The
//! hold gives up after [`HOLD`] and answers `Error` — and every later
//! hold on that shard fails at once — so such a proxy fails the test
//! in seconds instead of hanging it.

use std::io::{self, ErrorKind};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use clue_cluster::{Proxy, ProxyConfig, ShardMap, ShardSpec};
use clue_fib::{NextHop, Prefix, Update};
use clue_net::frame::{Frame, FrameType};
use clue_net::{
    wire, ClientConfig, Connection, FrameHandler, Listener, ListenerConfig, NetStats, Transport,
};

/// Addresses at or above this belong to shard 1.
const CUT: u32 = 0x8000_0000;
/// How long a held reply waits for the other shard.
const HOLD: Duration = Duration::from_secs(2);

/// Sub-batches a shard has received, by kind.
#[derive(Default)]
struct Seen {
    counts: Mutex<[u64; 2]>,
    changed: Condvar,
}

fn slot(kind: FrameType) -> usize {
    usize::from(kind == FrameType::Update)
}

impl Seen {
    /// Counts one sub-batch of `kind`; returns how many there have been.
    fn note(&self, kind: FrameType) -> u64 {
        let mut counts = self.counts.lock().unwrap();
        counts[slot(kind)] += 1;
        self.changed.notify_all();
        counts[slot(kind)]
    }

    /// Waits until `n` sub-batches of `kind` have arrived, at most
    /// [`HOLD`]; false if they did not.
    fn wait_for(&self, kind: FrameType, n: u64) -> bool {
        let deadline = Instant::now() + HOLD;
        let mut counts = self.counts.lock().unwrap();
        while counts[slot(kind)] < n {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            counts = self.changed.wait_timeout(counts, left).unwrap().0;
        }
        true
    }
}

/// A shard that answers `Hello`, `Heartbeat`, `Lookup` and `Update`
/// from memory: every address it owns resolves to `NextHop(id)`.
struct Shard {
    id: u16,
    seen: Arc<Seen>,
    /// Hold replies of this kind until `peer` has as many sub-batches.
    hold: Option<(FrameType, Arc<Seen>)>,
    /// A hold timed out: fail every later one at once.
    broken: AtomicBool,
    /// Lookups still to answer by dropping the line.
    drops: AtomicU32,
    /// Highest update seq acked, across connections.
    acked: AtomicU64,
}

impl Shard {
    fn new(id: u16) -> Shard {
        Shard {
            id,
            seen: Arc::default(),
            hold: None,
            broken: AtomicBool::new(false),
            drops: AtomicU32::new(0),
            acked: AtomicU64::new(0),
        }
    }

    /// Records a sub-batch of `kind` and applies the hold, if any;
    /// false once the hold has given up.
    fn admit(&self, kind: FrameType) -> bool {
        let n = self.seen.note(kind);
        match &self.hold {
            Some((held, peer)) if *held == kind => {
                if self.broken.load(Ordering::SeqCst) || !peer.wait_for(kind, n) {
                    self.broken.store(true, Ordering::SeqCst);
                    return false;
                }
                true
            }
            _ => true,
        }
    }
}

impl FrameHandler for Shard {
    type Conn = ();

    fn open(&self) {}

    fn is_cheap(&self, kind: FrameType) -> bool {
        !matches!(kind, FrameType::Lookup | FrameType::Update)
    }

    fn handle(&self, (): &mut (), frame: &Frame) -> io::Result<Frame> {
        let seq = frame.seq;
        Ok(match frame.kind {
            FrameType::Hello => Frame {
                kind: FrameType::HelloAck,
                seq,
                payload: wire::encode_u64(self.acked.load(Ordering::SeqCst)),
            },
            FrameType::Heartbeat => Frame::empty(FrameType::HeartbeatAck, seq),
            FrameType::Lookup => {
                let addrs = wire::decode_lookup(&frame.payload)?;
                if !self.admit(FrameType::Lookup) {
                    return Ok(Frame::error(seq, "held past its bound"));
                }
                let dropped = self
                    .drops
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| d.checked_sub(1))
                    .is_ok();
                if dropped {
                    // Closes the line without an answer.
                    return Ok(Frame::error(seq, "line dropped"));
                }
                Frame {
                    kind: FrameType::LookupResult,
                    seq,
                    payload: wire::encode_results(&vec![Some(NextHop(self.id)); addrs.len()]),
                }
            }
            FrameType::Update => {
                let ops = wire::decode_updates(&frame.payload)?;
                if !self.admit(FrameType::Update) {
                    return Ok(Frame::error(seq, "held past its bound"));
                }
                self.acked.fetch_max(seq, Ordering::SeqCst);
                Frame {
                    kind: FrameType::UpdateAck,
                    seq,
                    payload: wire::encode_ack(wire::UpdateAck {
                        accepted: ops.len() as u32,
                        dropped: 0,
                    }),
                }
            }
            other => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("shard does not serve {other:?}"),
                ))
            }
        })
    }
}

/// A proxy over two scripted shards, split at [`CUT`].
struct Rig {
    proxy: Proxy,
    shards: [Arc<Shard>; 2],
    _listeners: [Listener; 2],
}

fn rig(shards: [Shard; 2], transport: Transport) -> Rig {
    let shards = shards.map(Arc::new);
    let listeners = [0, 1].map(|i| {
        Listener::start(
            TcpListener::bind("127.0.0.1:0").expect("bind shard"),
            Arc::clone(&shards[i]),
            Arc::new(NetStats::new()),
            ListenerConfig {
                transport: Transport::Threads,
                bridge_threads: 1,
            },
        )
        .expect("start shard")
    });
    let specs = listeners
        .iter()
        .map(|l| ShardSpec::primary_only(l.local_addr().to_string()))
        .collect();
    let mut cfg = ProxyConfig::new(ShardMap::from_cuts(vec![CUT], specs).expect("two shards"));
    cfg.transport = transport;
    Rig {
        proxy: Proxy::start(cfg).expect("start proxy"),
        shards,
        _listeners: listeners,
    }
}

/// Shard 0 holds replies of `kind` until shard 1 has its sub-batch.
fn held_pair(kind: FrameType) -> [Shard; 2] {
    let (mut first, second) = (Shard::new(1), Shard::new(2));
    first.hold = Some((kind, Arc::clone(&second.seen)));
    [first, second]
}

fn client(rig: &Rig) -> Connection {
    Connection::connect(ClientConfig::to_addr(rig.proxy.local_addr().to_string()))
        .expect("connect to proxy")
}

/// Addresses alternating between the shards, with the answers the
/// scripted shards give them.
fn spanning_batch(n: u32) -> (Vec<u32>, Vec<Option<NextHop>>) {
    (0..n)
        .map(|i| {
            let shard = i % 2;
            (shard * CUT + i, Some(NextHop(shard as u16 + 1)))
        })
        .unzip()
}

#[test]
fn a_lookup_is_on_every_shard_before_the_proxy_waits_for_one() {
    for transport in [Transport::Threads, Transport::Evloop] {
        let rig = rig(held_pair(FrameType::Lookup), transport);
        let mut conn = client(&rig);
        for round in 0..3 {
            let (addrs, want) = spanning_batch(64);
            let got = conn
                .lookup(&addrs)
                .unwrap_or_else(|e| panic!("{transport} round {round}: {e}"));
            assert_eq!(got, want, "{transport} round {round}");
        }
        assert!(!rig.shards[0].broken.load(Ordering::SeqCst), "{transport}");
        conn.close().expect("close");
    }
}

#[test]
fn an_update_is_on_every_shard_before_the_proxy_waits_for_an_ack() {
    for transport in [Transport::Threads, Transport::Evloop] {
        let rig = rig(held_pair(FrameType::Update), transport);
        let mut conn = client(&rig);
        let frame = [
            Update::Announce {
                prefix: Prefix::new(0x0A00_0000, 8),
                next_hop: NextHop(7),
            },
            Update::Announce {
                prefix: Prefix::new(0xC800_0000, 8),
                next_hop: NextHop(8),
            },
        ];
        for round in 0..3 {
            conn.send_updates(&frame).expect("send");
            conn.flush_acks()
                .unwrap_or_else(|e| panic!("{transport} round {round}: {e}"));
        }
        let report = conn.close().expect("close");
        assert_eq!(report.accepted, 6, "{transport}");
        assert!(!rig.shards[0].broken.load(Ordering::SeqCst), "{transport}");
    }
}

#[test]
fn a_shard_line_dropped_mid_fan_out_is_retried_and_leaves_no_stale_reply() {
    for transport in [Transport::Threads, Transport::Evloop] {
        let [first, second] = [Shard::new(1), Shard::new(2)];
        first.drops.store(1, Ordering::SeqCst);
        let rig = rig([first, second], transport);
        let mut conn = client(&rig);
        // The first frame loses shard 0's line after shard 1 has its
        // sub-batch; the next frames on the same client line must get
        // their own answers, not a leftover one.
        for round in 0..3 {
            let (addrs, want) = spanning_batch(64 - round);
            let got = conn
                .lookup(&addrs)
                .unwrap_or_else(|e| panic!("{transport} round {round}: {e}"));
            assert_eq!(got, want, "{transport} round {round}");
        }
        assert_eq!(rig.shards[0].drops.load(Ordering::SeqCst), 0, "{transport}");
        let seen = |i: usize| rig.shards[i].seen.counts.lock().unwrap()[0];
        assert_eq!((seen(0), seen(1)), (4, 3), "{transport}: one retry");
        conn.close().expect("close");
    }
}
