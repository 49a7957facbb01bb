//! The frame handler contract, checked once for every serving tier on
//! every connection driver it offers: one scripted session table, the
//! shared corruption corpus, the two drain cases, prompt accept and
//! prompt stop.
//!
//! Tiers: a router [`Server`], a [`Proxy`] over one shard, and a
//! [`Standby`]'s control endpoint (threads only — it has no transport
//! knob). A tier that does not serve a kind must refuse it the same way
//! every other refusal goes: an `Error` frame echoing the seq, then EOF.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clue::cluster::{
    Primary, PrimaryConfig, Proxy, ProxyConfig, ShardMap, ShardSpec, Standby, StandbyConfig,
};
use clue::core::codec::encode_updates;
use clue::fib::gen::FibGen;
use clue::fib::{NextHop, Prefix, RouteTable, Update};
use clue::net::frame::{Frame, FrameType};
use clue::net::{
    wire, FrameHandler, Listener, ListenerConfig, NetStats, Server, ServerConfig, Transport,
};

const TRANSPORTS: [Transport; 2] = [Transport::Threads, Transport::Evloop];
const POLL: Duration = Duration::from_millis(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Server,
    Proxy,
    Standby,
}

/// A booted tier: its address, its listener's counters, and whatever
/// must stay alive behind it.
enum Stack {
    Server(Server),
    Proxy { proxy: Proxy, _shard: Server },
    Standby(Standby),
}

impl Stack {
    fn addr(&self) -> SocketAddr {
        match self {
            Stack::Server(s) => s.local_addr(),
            Stack::Proxy { proxy, .. } => proxy.local_addr(),
            Stack::Standby(s) => s.local_addr(),
        }
    }

    fn net(&self) -> &NetStats {
        match self {
            Stack::Server(s) => s.net_stats(),
            Stack::Proxy { proxy, .. } => proxy.net_stats(),
            Stack::Standby(s) => s.net_stats(),
        }
    }
}

fn fib() -> RouteTable {
    FibGen::new(1201).routes(400).generate()
}

fn server(transport: Transport) -> Server {
    let cfg = ServerConfig {
        transport,
        ..ServerConfig::default()
    };
    Server::start(&fib(), &cfg).expect("bind server")
}

/// Every (tier, driver) pair the system offers.
fn stacks() -> Vec<(Tier, Transport, Stack)> {
    let mut out = Vec::new();
    for transport in TRANSPORTS {
        out.push((Tier::Server, transport, Stack::Server(server(transport))));

        let shard = server(Transport::Threads);
        let spec = ShardSpec::primary_only(shard.local_addr().to_string());
        let map = ShardMap::derive(&fib(), vec![spec]).expect("one-shard map");
        let mut cfg = ProxyConfig::new(map);
        cfg.transport = transport;
        let proxy = Proxy::start(cfg).expect("bind proxy");
        out.push((
            Tier::Proxy,
            transport,
            Stack::Proxy {
                proxy,
                _shard: shard,
            },
        ));
    }
    // No primary to follow: the control endpoint serves regardless (the
    // replication client just keeps redialing in the background).
    let standby = Standby::start(StandbyConfig {
        primary_repl: "127.0.0.1:1".into(),
        ..StandbyConfig::default()
    })
    .expect("bind standby");
    out.push((Tier::Standby, Transport::Threads, Stack::Standby(standby)));
    out
}

fn dial(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// The next frame, or `None` once the peer has closed the line (a
/// reset counts: the peer closed with our bytes still unread).
fn next_frame(s: &mut TcpStream, ctx: &str) -> Option<Frame> {
    match Frame::read_from(s) {
        Ok(f) => Some(f),
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::BrokenPipe
            ) =>
        {
            None
        }
        Err(e) => panic!("{ctx}: neither a frame nor a close: {e}"),
    }
}

fn sample_update() -> Vec<u8> {
    encode_updates(&[Update::Announce {
        prefix: Prefix::new(0x0A00_0000, 8),
        next_hop: NextHop(7),
    }])
}

/// One row of the scripted session: the request, the reply kind of a
/// tier that serves it, and which tiers do.
struct Row {
    request: Frame,
    reply: FrameType,
    served_by: &'static [Tier],
}

fn script() -> Vec<Row> {
    const ALL: &[Tier] = &[Tier::Server, Tier::Proxy, Tier::Standby];
    const ROUTING: &[Tier] = &[Tier::Server, Tier::Proxy];
    let row = |kind, seq, payload, reply, served_by| Row {
        request: Frame { kind, seq, payload },
        reply,
        served_by,
    };
    vec![
        row(
            FrameType::Hello,
            11,
            wire::encode_u64(0),
            FrameType::HelloAck,
            ALL,
        ),
        row(
            FrameType::Update,
            12,
            sample_update(),
            FrameType::UpdateAck,
            ROUTING,
        ),
        row(
            FrameType::Lookup,
            13,
            wire::encode_lookup(&[0x0A00_0001, 0xC0A8_0101]),
            FrameType::LookupResult,
            ROUTING,
        ),
        row(
            FrameType::StatsQuery,
            14,
            Vec::new(),
            FrameType::StatsReply,
            ALL,
        ),
        row(
            FrameType::Heartbeat,
            15,
            Vec::new(),
            FrameType::HeartbeatAck,
            ALL,
        ),
        // An undecodable payload inside a well-framed request.
        row(FrameType::Lookup, 16, vec![1, 2, 3], FrameType::Error, &[]),
        // A server-to-client kind sent by the client.
        row(FrameType::UpdateAck, 17, Vec::new(), FrameType::Error, &[]),
        row(
            FrameType::ShardMapQuery,
            18,
            Vec::new(),
            FrameType::ShardMapReply,
            &[Tier::Proxy],
        ),
    ]
}

#[test]
fn scripted_session_is_identical_across_tiers_and_drivers() {
    for (tier, transport, stack) in stacks() {
        let mut refused = 0;
        for row in script() {
            let ctx = format!("{tier:?}/{transport}: {:?}", row.request.kind);
            let served = row.served_by.contains(&tier);
            let mut s = dial(stack.addr());
            row.request.write_to(&mut s).expect("send request");
            let reply = next_frame(&mut s, &ctx).unwrap_or_else(|| panic!("{ctx}: no reply"));
            let want = if served { row.reply } else { FrameType::Error };
            assert_eq!(reply.kind, want, "{ctx}: reply kind");
            assert_eq!(reply.seq, row.request.seq, "{ctx}: seq echo");

            // Fatality: an Error reply is the last frame on the line;
            // anything else leaves it open for the next request.
            if reply.kind == FrameType::Error {
                refused += 1;
                assert!(
                    next_frame(&mut s, &ctx).is_none(),
                    "{ctx}: Error must close"
                );
            } else {
                Frame::empty(FrameType::Heartbeat, 99)
                    .write_to(&mut s)
                    .expect("probe");
                let ack = next_frame(&mut s, &ctx).unwrap_or_else(|| panic!("{ctx}: closed"));
                assert_eq!((ack.kind, ack.seq), (FrameType::HeartbeatAck, 99), "{ctx}");
            }
            // Every refusal, and nothing else, is a counted protocol
            // error — whichever tier and driver refused it.
            assert_eq!(stack.net().protocol_errors(), refused, "{ctx}: count");
        }

        // A peer's Shutdown closes the line with no reply.
        let ctx = format!("{tier:?}/{transport}: Shutdown");
        let mut s = dial(stack.addr());
        Frame::empty(FrameType::Shutdown, 0)
            .write_to(&mut s)
            .expect("send shutdown");
        assert!(
            next_frame(&mut s, &ctx).is_none(),
            "{ctx}: reply to Shutdown"
        );
    }
}

/// The corruption corpus families of `crates/store/tests/corruption.rs`
/// and `crates/net/tests/incremental_decode.rs`, applied to one frame.
fn corpus(base: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for cut in 0..base.len() {
        out.push((format!("truncate@{cut}"), base[..cut].to_vec()));
    }
    for bit in 0..base.len() * 8 {
        let mut b = base.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bitflip@{bit}"), b));
    }
    for at in (0..base.len().saturating_sub(4)).step_by(4) {
        for len in [u32::MAX, 0x7FFF_FFFF] {
            let mut b = base.to_vec();
            b[at..at + 4].copy_from_slice(&len.to_be_bytes());
            out.push((format!("len{len:#x}@{at}"), b));
        }
    }
    let mut padded = base.to_vec();
    padded.extend_from_slice(&[0xAA; 16]);
    out.push(("trailing-garbage".into(), padded));
    out
}

#[test]
fn corrupt_streams_get_an_error_frame_then_eof_on_every_tier_and_driver() {
    let good = Frame::empty(FrameType::Heartbeat, 21).encode();
    for (tier, transport, stack) in stacks() {
        let mut lost_framing = 0u64;
        for (label, bytes) in corpus(&good) {
            let ctx = format!("{tier:?}/{transport}: {label}");
            let mut s = dial(stack.addr());
            // Half-close: a stream that stops mid-frame is a peer that
            // died, not one the server should wait IO_TIMEOUT for. The
            // server may already have answered the first bad bytes and
            // closed, which fails either call; the replies still tell.
            let _ = s.write_all(&bytes);
            let _ = s.shutdown(Shutdown::Write);
            let mut replies = Vec::new();
            while let Some(f) = next_frame(&mut s, &ctx) {
                replies.push((f.kind, f.seq));
            }
            match Frame::read_from(&mut &bytes[..]) {
                // Lost framing: exactly one Error (seq 0), then EOF.
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    assert_eq!(replies, [(FrameType::Error, 0)], "{ctx}");
                    lost_framing += 1;
                }
                // Died mid-frame: nothing to answer, just EOF. (The
                // evloop decoder may already have proven the prefix
                // invalid; it then says so first.)
                Err(_) => assert!(
                    replies.is_empty() || replies == [(FrameType::Error, 0)],
                    "{ctx}: {replies:?}"
                ),
                // A good frame, then garbage: the frame is answered
                // before the line dies.
                Ok(_) => {
                    assert_eq!(replies[0], (FrameType::HeartbeatAck, 21), "{ctx}");
                    assert!(
                        replies[1..].iter().all(|r| *r == (FrameType::Error, 0)),
                        "{ctx}: {replies:?}"
                    );
                }
            }
        }
        assert!(lost_framing > 100, "{tier:?}/{transport}: corpus too small");
        // The close can outrun the counter by a scheduling quantum.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while stack.net().protocol_errors() < lost_framing {
            assert!(
                std::time::Instant::now() < deadline,
                "{tier:?}/{transport}: {} protocol errors counted, {lost_framing} sent",
                stack.net().protocol_errors()
            );
            std::thread::sleep(POLL);
        }
    }
}

/// A handler whose `Lookup` blocks until the test releases it, to hold
/// a call in flight across a drain; counts opens and closes.
struct Gate {
    entered: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
    opened: AtomicU64,
    closed: AtomicU64,
}

impl FrameHandler for Gate {
    type Conn = ();

    fn open(&self) {
        self.opened.fetch_add(1, Ordering::SeqCst);
    }

    fn is_cheap(&self, kind: FrameType) -> bool {
        kind != FrameType::Lookup
    }

    fn handle(&self, (): &mut (), frame: &Frame) -> std::io::Result<Frame> {
        if frame.kind == FrameType::Lookup {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            return Ok(Frame::empty(FrameType::LookupResult, frame.seq));
        }
        Ok(Frame::empty(FrameType::HeartbeatAck, frame.seq))
    }

    fn close(&self, (): ()) {
        self.closed.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn drain_notifies_idle_peers_and_lets_in_flight_calls_finish() {
    for transport in TRANSPORTS {
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let gate = Arc::new(Gate {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
        });
        let mut listener = Listener::start(
            TcpListener::bind("127.0.0.1:0").expect("bind"),
            Arc::clone(&gate),
            Arc::new(NetStats::new()),
            ListenerConfig {
                transport,
                bridge_threads: 2,
            },
        )
        .expect("start listener");

        // One idle peer (it has completed an exchange, so the listener
        // knows it), one with a call held in flight.
        let mut idle = dial(listener.local_addr());
        Frame::empty(FrameType::Heartbeat, 1)
            .write_to(&mut idle)
            .unwrap();
        assert_eq!(
            next_frame(&mut idle, "idle").map(|f| f.kind),
            Some(FrameType::HeartbeatAck)
        );
        let mut busy = dial(listener.local_addr());
        Frame::empty(FrameType::Lookup, 2)
            .write_to(&mut busy)
            .unwrap();
        entered.recv().expect("lookup reached the handler");

        listener.request_shutdown();
        assert!(listener.shutdown_requested());

        // Drain while idle: a Shutdown notice, then EOF — while the
        // other connection's call is still blocked.
        let ctx = format!("{transport}: idle");
        let notice = next_frame(&mut idle, &ctx).expect("shutdown notice");
        assert_eq!(notice.kind, FrameType::Shutdown, "{ctx}");
        assert!(
            next_frame(&mut idle, &ctx).is_none(),
            "{ctx}: line stays open"
        );

        // Drain while in flight: the reply is flushed first, then the
        // notice, then EOF.
        let ctx = format!("{transport}: in flight");
        release.send(()).unwrap();
        let reply = next_frame(&mut busy, &ctx).expect("in-flight reply");
        assert_eq!(
            (reply.kind, reply.seq),
            (FrameType::LookupResult, 2),
            "{ctx}"
        );
        let notice = next_frame(&mut busy, &ctx).expect("shutdown notice");
        assert_eq!(notice.kind, FrameType::Shutdown, "{ctx}");
        assert!(
            next_frame(&mut busy, &ctx).is_none(),
            "{ctx}: line stays open"
        );

        listener.stop();
        assert!(
            TcpStream::connect(listener.local_addr()).is_err(),
            "{transport}: still listening after stop"
        );
        assert_eq!(gate.opened.load(Ordering::SeqCst), 2, "{transport}");
        assert_eq!(
            gate.closed.load(Ordering::SeqCst),
            2,
            "{transport}: every opened connection is closed exactly once"
        );
    }
}

/// A quiet listener's accept loop is parked until something wakes it,
/// and a connection must: the dial below lands long after it parked.
#[test]
fn a_connection_is_accepted_when_it_arrives_not_at_a_timer_tick() {
    for transport in TRANSPORTS {
        let server = server(transport);
        std::thread::sleep(Duration::from_millis(200));

        let dialed = std::time::Instant::now();
        let mut s = dial(server.local_addr());
        Frame::empty(FrameType::Heartbeat, 1)
            .write_to(&mut s)
            .unwrap();
        let reply = next_frame(&mut s, "prompt accept").map(|f| f.kind);
        assert_eq!(reply, Some(FrameType::HeartbeatAck), "{transport}");
        assert!(
            dialed.elapsed() < Duration::from_millis(900),
            "{transport}: first reply took {:?}",
            dialed.elapsed()
        );
        drop(s);
        drop(server);
    }
}

/// The most any tier may take to stop in
/// [`every_tier_stops_at_once_with_idle_peers_attached`]. A stop that
/// waited out a poll interval (50 ms on a server), a heartbeat period
/// (150 ms) or a reconnect backoff (100 ms) takes longer; one woken by
/// the request takes a few milliseconds.
const PROMPT_STOP: Duration = Duration::from_millis(30);

/// Connects `n` peers to `addr`, each after one exchange, so the tier
/// has a reader parked on every one of them.
fn idle_peers(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|i| {
            let mut s = dial(addr);
            Frame::empty(FrameType::Heartbeat, i as u64)
                .write_to(&mut s)
                .unwrap();
            let ack = next_frame(&mut s, "idle peer").map(|f| f.kind);
            assert_eq!(ack, Some(FrameType::HeartbeatAck));
            s
        })
        .collect()
}

fn assert_prompt(what: &str, stopping: Instant) {
    let took = stopping.elapsed();
    assert!(took < PROMPT_STOP, "{what} took {took:?}");
}

/// Stopping is an event, not a poll: every tier stops at once with idle
/// peers attached. Each stop lands just after the peers' last exchange
/// (or the standby's failed dial), where a stop that waits for a timer
/// to notice it waits longest.
#[test]
fn every_tier_stops_at_once_with_idle_peers_attached() {
    for transport in TRANSPORTS {
        let server = server(transport);
        let _peers = idle_peers(server.local_addr(), 4);
        let stopping = Instant::now();
        server.drain().expect("server drains");
        assert_prompt(&format!("{transport}: Server::drain"), stopping);
    }

    let shard = server(Transport::Threads);
    let spec = ShardSpec::primary_only(shard.local_addr().to_string());
    let map = ShardMap::derive(&fib(), vec![spec]).expect("one-shard map");
    let proxy = Proxy::start(ProxyConfig::new(map)).expect("bind proxy");
    let _peers = idle_peers(proxy.local_addr(), 2);
    let stopping = Instant::now();
    drop(proxy);
    assert_prompt("Proxy drop", stopping);

    // Nothing listens on port 1: the replication client backs off after
    // each refused dial.
    let standby = Standby::start(StandbyConfig {
        primary_repl: "127.0.0.1:1".into(),
        ..StandbyConfig::default()
    })
    .expect("bind standby");
    let _peers = idle_peers(standby.local_addr(), 2);
    while standby.replica_state().reconnects == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stopping = Instant::now();
    standby.stop().expect("standby stops");
    assert_prompt("Standby::stop", stopping);

    // The drain's final checkpoint is fsynced: on tmpfs, where there is
    // one, that costs nothing, so the bound measures the wake-ups.
    let shm = std::path::Path::new("/dev/shm");
    let root = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = root.join(format!("clue-prompt-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let primary = Primary::start(&dir, Some(&fib()), &PrimaryConfig::default()).expect("primary");
    let standby = Standby::start(StandbyConfig {
        primary_repl: primary.repl_addr().to_string(),
        ..StandbyConfig::default()
    })
    .expect("bind standby");
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.repl_stats().synced == 0 {
        assert!(Instant::now() < deadline, "the standby never synced");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _peers = idle_peers(primary.local_addr(), 2);
    let stopping = Instant::now();
    primary.stop().expect("primary stops");
    assert_prompt("Primary::stop with a standby attached", stopping);
    drop(standby);
    let _ = std::fs::remove_dir_all(&dir);
}
