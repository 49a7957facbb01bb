//! End-to-end loopback tests: real sockets, real threads, one process.
//! (The per-frame protocol rows, lost framing and the drain notices are
//! checked for every tier in the root package's `tests/frame_handler.rs`.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use clue_fib::gen::FibGen;
use clue_fib::RouteTable;
use clue_net::frame::{Frame, FrameType};
use clue_net::{
    client, ClientConfig, Connection, LoadConfig, LoadReport, Server, ServerConfig, Transport,
};
use clue_router::{JournalBatch, OverflowPolicy, RouterConfig, RouterService, UpdateJournal};
use clue_traffic::{PacketGen, UpdateGen};

/// Semantics-critical tests run over both transports: the evloop server
/// must be observably identical to the per-connection-thread original.
const TRANSPORTS: [Transport; 2] = [Transport::Threads, Transport::Evloop];

fn small_fib(seed: u64, routes: usize) -> RouteTable {
    FibGen::new(seed).routes(routes).generate()
}

fn local_server_on(table: &RouteTable, router: RouterConfig, transport: Transport) -> Server {
    let cfg = ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        router,
        transport,
        ..ServerConfig::default()
    };
    Server::start(table, &cfg).expect("bind loopback")
}

fn local_server(table: &RouteTable, router: RouterConfig) -> Server {
    local_server_on(table, router, Transport::Threads)
}

fn client_for(server: &Server) -> Connection {
    let mut cfg = ClientConfig::to_addr(server.local_addr().to_string());
    cfg.initial_backoff = Duration::from_millis(10);
    cfg.max_backoff = Duration::from_millis(200);
    Connection::connect(cfg).expect("connect loopback")
}

#[test]
fn lookups_over_tcp_match_the_reference_trie() {
    let fib = small_fib(601, 1_200);
    let packets = PacketGen::new(602).generate(&fib, 4_000);
    let reference = clue_compress::onrtc(&fib).to_trie();

    for transport in TRANSPORTS {
        let server = local_server_on(&fib, RouterConfig::default(), transport);
        let mut conn = client_for(&server);
        for batch in packets.chunks(256) {
            let got = conn.lookup(batch).expect("lookup batch");
            assert_eq!(got.len(), batch.len());
            for (&addr, nh) in batch.iter().zip(&got) {
                assert_eq!(
                    *nh,
                    reference.lookup(addr).map(|(_, &v)| v),
                    "{transport}: addr {addr:#x}"
                );
            }
        }
        conn.heartbeat().expect("heartbeat");
        let report = conn.close().expect("close");
        assert_eq!(report.reconnects, 0, "{transport}");

        let final_report = server.drain().expect("server drains cleanly");
        assert_eq!(
            final_report.snapshot.completions,
            packets.len() as u64,
            "{transport}"
        );
    }
}

#[test]
fn updates_over_tcp_reach_the_sequential_fib_with_zero_loss_under_block() {
    let fib = small_fib(611, 1_000);
    let updates = UpdateGen::new(612).generate(&fib, 2_500);
    let mut expect = fib.clone();
    for &u in &updates {
        expect.apply(u);
    }
    // A tiny ingress queue forces the Block policy to push back on the
    // wire; every update must still arrive — on both transports (the
    // evloop maps the blocked router call onto a paused socket).
    for transport in TRANSPORTS {
        let router = RouterConfig {
            update_queue: 8,
            batch_size: 4,
            overflow: OverflowPolicy::Block,
            ..RouterConfig::default()
        };
        let server = local_server_on(&fib, router, transport);
        let mut conn = client_for(&server);
        for batch in updates.chunks(32) {
            conn.send_updates(batch).expect("send updates");
        }
        conn.flush_acks().expect("flush");
        let client_report = conn.close().expect("close");
        assert_eq!(client_report.accepted, updates.len() as u64, "{transport}");
        assert_eq!(client_report.dropped, 0, "{transport}");

        let report = server.drain().expect("server drains cleanly");
        assert_eq!(report.final_table, expect, "{transport}");
        assert_eq!(report.snapshot.update_drops, 0, "{transport}");
        assert_eq!(
            report.snapshot.updates_received,
            updates.len() as u64,
            "{transport}"
        );
    }
}

#[test]
fn drop_newest_over_tcp_accounts_for_every_update() {
    let fib = small_fib(621, 800);
    let updates = UpdateGen::new(622).generate(&fib, 3_000);
    for transport in TRANSPORTS {
        let router = RouterConfig {
            update_queue: 4,
            batch_size: 2,
            overflow: OverflowPolicy::DropNewest,
            ..RouterConfig::default()
        };
        let server = local_server_on(&fib, router, transport);
        let mut conn = client_for(&server);
        for batch in updates.chunks(64) {
            conn.send_updates(batch).expect("send updates");
        }
        conn.flush_acks().expect("flush");
        let client_report = conn.close().expect("close");
        // Nothing silently lost: every update is acked as either accepted
        // or dropped, and the server's own counter agrees.
        assert_eq!(
            client_report.accepted + client_report.dropped,
            updates.len() as u64,
            "{transport}"
        );
        assert!(
            client_report.dropped > 0,
            "{transport}: tiny queue must drop something"
        );

        let report = server.drain().expect("server drains cleanly");
        assert_eq!(
            report.snapshot.update_drops, client_report.dropped,
            "{transport}"
        );
        assert_eq!(
            report.snapshot.updates_received, client_report.accepted,
            "{transport}"
        );
    }
}

#[test]
fn stats_query_exposes_net_and_overflow_counters() {
    let fib = small_fib(631, 600);
    for transport in TRANSPORTS {
        let server = local_server_on(&fib, RouterConfig::default(), transport);
        let mut conn = client_for(&server);
        let _ = conn.lookup(&[0x0A00_0001, 0xC0A8_0101]).expect("lookup");
        let json = conn.stats_json().expect("stats");
        for key in [
            "\"uptime_ms\":",
            "\"router\":",
            "\"overflow\":{\"update_drops\":",
            "\"net\":",
            "\"protocol_errors\":",
            "\"io_errors\":",
            "\"accept_errors\":",
            "\"plane\":{\"backend\":\"tcam\"",
            "\"heap_bytes\":",
            "\"arrivals\":2",
        ] {
            assert!(json.contains(key), "{transport}: missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let _ = conn.close().expect("close");
        let _ = server.drain().expect("server drains cleanly");
    }
}

/// The `net` object of `server`'s stats document, each run of digits
/// masked: what is left is its shape, which a counter's growth does not
/// change.
fn net_shape(server: &Server) -> (usize, String) {
    let json = server.stats_json();
    let net = &json[json.find("\"net\":").expect("a net object")..];
    let mut shape = String::new();
    for c in net.chars() {
        if !c.is_ascii_digit() {
            shape.push(c);
        } else if !shape.ends_with('#') {
            shape.push('#');
        }
    }
    (net.len(), shape)
}

#[test]
fn net_stats_do_not_grow_with_closed_connections() {
    let fib = small_fib(641, 300);
    for transport in TRANSPORTS {
        let server = local_server_on(&fib, RouterConfig::default(), transport);
        let addr = server.local_addr().to_string();
        let mut shapes = Vec::new();
        for n in [1, 2_000] {
            while server.net_stats().accepted() < n {
                client::call(
                    &addr,
                    &Frame::empty(FrameType::Heartbeat, 1),
                    FrameType::HeartbeatAck,
                    Duration::from_secs(2),
                    Duration::from_secs(2),
                )
                .expect("one-shot heartbeat");
            }
            shapes.push(net_shape(&server));
        }
        let ((len1, shape1), (len2, shape2)) = (&shapes[0], &shapes[1]);
        assert!(
            shape1 == shape2,
            "{transport}: the net object grew from {len1} to {len2} B"
        );
        let _ = server.drain().expect("server drains cleanly");
    }
}

#[test]
fn client_reconnects_and_resumes_after_a_server_restart() {
    let fib = small_fib(651, 900);
    let updates = UpdateGen::new(652).generate(&fib, 600);
    let (first, second) = updates.split_at(300);

    for transport in TRANSPORTS {
        let server1 = local_server_on(&fib, RouterConfig::default(), transport);
        let addr = server1.local_addr();
        let mut cfg = ClientConfig::to_addr(addr.to_string());
        cfg.initial_backoff = Duration::from_millis(10);
        cfg.max_backoff = Duration::from_millis(100);
        cfg.max_reconnect_attempts = 50;
        let mut conn = Connection::connect(cfg).expect("connect");

        for batch in first.chunks(32) {
            conn.send_updates(batch).expect("send to first server");
        }
        conn.flush_acks().expect("flush");
        let report1 = server1.drain().expect("server drains cleanly");
        let mut expect = fib.clone();
        for &u in first {
            expect.apply(u);
        }
        assert_eq!(report1.final_table, expect, "{transport}");

        // Same port, resumed table: the world the client reconnects into.
        let cfg2 = ServerConfig {
            listen: addr.to_string(),
            transport,
            ..ServerConfig::default()
        };
        let server2 = Server::start(&report1.final_table, &cfg2).expect("rebind same port");

        for batch in second.chunks(32) {
            conn.send_updates(batch).expect("send across restart");
        }
        conn.flush_acks().expect("flush after resume");
        assert!(
            conn.reconnects() >= 1,
            "{transport}: restart must force a reconnect"
        );
        let client_report = conn.close().expect("close");
        assert_eq!(
            client_report.accepted,
            updates.len() as u64,
            "{transport}: every update acked despite the restart"
        );

        let report2 = server2.drain().expect("server drains cleanly");
        for &u in second {
            expect.apply(u);
        }
        assert_eq!(
            report2.final_table, expect,
            "{transport}: converges to the oracle's final table across the reconnect"
        );
    }
}

#[test]
fn loadgen_sustains_a_mixed_workload_and_drains_cleanly() {
    let fib = small_fib(661, 1_500);
    let packets = PacketGen::new(662).generate(&fib, 6_000);
    let updates = UpdateGen::new(663).generate(&fib, 1_200);

    let server = local_server(&fib, RouterConfig::default());
    let load = LoadConfig {
        client: ClientConfig::to_addr(server.local_addr().to_string()),
        lookup_threads: 3,
        lookup_batch: 128,
        update_batch: 32,
        // Rate-limit the updates a little so pacing code runs; leave
        // lookups unlimited so the test stays fast.
        lookup_rate: 0.0,
        update_rate: 200_000.0,
    };
    let report = clue_net::run_load(&packets, &updates, &load).expect("load run");
    assert_eq!(report.lookups_sent, packets.len() as u64);
    assert_eq!(report.lookups_answered, packets.len() as u64);
    assert_eq!(report.updates_sent, updates.len() as u64);
    assert_eq!(report.updates_accepted, updates.len() as u64);
    assert_eq!(report.updates_dropped, 0);
    // Timing, and the misses of lookups racing the updates, are the
    // run's own: pin them so the whole document is exact.
    let timed = LoadReport {
        lookup_misses: 0,
        elapsed: Duration::from_millis(250),
        achieved_lookup_rate: 24_000.04,
        achieved_update_rate: 4_799.96,
        ..report
    };
    assert_eq!(
        timed.to_json(),
        "{\"lookups_sent\":6000,\"lookups_answered\":6000,\"lookup_misses\":0,\
         \"updates_sent\":1200,\"updates_accepted\":1200,\"updates_dropped\":0,\
         \"reconnects\":0,\"dial_errors\":0,\"elapsed_ms\":250,\
         \"achieved_lookup_rate\":24000.0,\"achieved_update_rate\":4800.0}"
    );

    let final_report = server.drain().expect("server drains cleanly");
    let mut expect = fib.clone();
    for &u in &updates {
        expect.apply(u);
    }
    assert_eq!(final_report.final_table, expect);
    assert_eq!(final_report.snapshot.completions, packets.len() as u64);
}

#[test]
fn loadgen_counts_failed_dials_instead_of_aborting() {
    // A port with nothing listening: bind, note the address, drop the
    // listener. Every dial is refused immediately.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let fib = small_fib(665, 400);
    let packets = PacketGen::new(666).generate(&fib, 500);
    let updates = UpdateGen::new(667).generate(&fib, 100);
    let load = LoadConfig {
        client: ClientConfig::to_addr(dead_addr),
        lookup_threads: 2,
        ..LoadConfig::default()
    };
    let report = clue_net::run_load(&packets, &updates, &load).expect("run yields a report");
    // One update worker + two lookup workers, all refused.
    assert_eq!(report.dial_errors, 3, "every failed dial counted");
    assert_eq!(report.lookups_sent, 0);
    assert_eq!(report.updates_sent, 0);
    let timed = LoadReport {
        elapsed: Duration::from_millis(7),
        ..report
    };
    assert_eq!(
        timed.to_json(),
        "{\"lookups_sent\":0,\"lookups_answered\":0,\"lookup_misses\":0,\
         \"updates_sent\":0,\"updates_accepted\":0,\"updates_dropped\":0,\
         \"reconnects\":0,\"dial_errors\":3,\"elapsed_ms\":7,\
         \"achieved_lookup_rate\":0.0,\"achieved_update_rate\":0.0}"
    );
}

#[test]
fn graceful_drain_refuses_new_work_but_keeps_its_promises() {
    let fib = small_fib(671, 700);
    let updates = UpdateGen::new(672).generate(&fib, 200);
    let mut expect = fib.clone();
    for &u in &updates {
        expect.apply(u);
    }
    for transport in TRANSPORTS {
        let server = local_server_on(&fib, RouterConfig::default(), transport);
        let mut cfg = ClientConfig::to_addr(server.local_addr().to_string());
        // Short reconnect budget: once drained nothing listens, and the
        // failure assert below should not take ten backoff rounds.
        cfg.initial_backoff = Duration::from_millis(5);
        cfg.max_backoff = Duration::from_millis(20);
        cfg.max_reconnect_attempts = 2;
        let mut conn = Connection::connect(cfg).expect("connect");
        for batch in updates.chunks(32) {
            conn.send_updates(batch).expect("send");
        }
        conn.flush_acks().expect("flush");

        server.request_shutdown();
        assert!(server.shutdown_requested());
        let report = server.drain().expect("server drains cleanly");
        // Everything acked before the drain is in the final table.
        assert_eq!(report.final_table, expect, "{transport}");

        // The accept loop is gone; the old connection observes the
        // shutdown on its next operation and cannot reconnect.
        let next = conn.lookup(&[0x0A00_0001]);
        assert!(next.is_err(), "{transport}: post-drain lookups must fail");
    }
}

#[test]
fn non_default_backends_serve_identical_answers_over_tcp() {
    use clue_router::BackendKind;

    let fib = small_fib(681, 1_000);
    let packets = PacketGen::new(682).generate(&fib, 2_000);
    let updates = UpdateGen::new(683).generate(&fib, 400);
    let reference = clue_compress::onrtc(&fib).to_trie();

    for backend in [BackendKind::Trie, BackendKind::Cfib] {
        let router = RouterConfig {
            backend,
            ..RouterConfig::default()
        };
        let server = local_server(&fib, router);
        let mut conn = client_for(&server);
        // Answers from a freshly published epoch match the reference
        // trie regardless of which lookup backend serves them.
        for batch in packets.chunks(256) {
            let got = conn.lookup(batch).expect("lookup batch");
            for (&addr, nh) in batch.iter().zip(&got) {
                assert_eq!(
                    *nh,
                    reference.lookup(addr).map(|(_, &v)| v),
                    "{backend} backend, addr {addr:#x}"
                );
            }
        }
        // The update plane still converges: backends only change how
        // epochs answer lookups, never what the FIB becomes.
        for batch in updates.chunks(32) {
            conn.send_updates(batch).expect("send updates");
        }
        conn.flush_acks().expect("flush");
        let _ = conn.close().expect("close");
        let report = server.drain().expect("server drains cleanly");
        let mut expect = fib.clone();
        for &u in &updates {
            expect.apply(u);
        }
        assert_eq!(report.final_table, expect, "{backend} backend");
    }
}

#[test]
fn evloop_multiplexes_many_clients_on_one_loop_thread() {
    // The point of the evloop transport: every connection shares one
    // reactor thread (plus the small bridge pool) instead of costing a
    // thread each. A herd of parallel clients doing interleaved lookups
    // and updates must all get correct, exactly-once-acked answers.
    let fib = small_fib(691, 1_000);
    let reference = clue_compress::onrtc(&fib).to_trie();
    let packets = PacketGen::new(692).generate(&fib, 1_024);
    let server = local_server_on(&fib, RouterConfig::default(), Transport::Evloop);
    let addr = server.local_addr().to_string();

    const CLIENTS: usize = 32;
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let addr = addr.clone();
            let reference = &reference;
            let packets = &packets;
            s.spawn(move || {
                let mut cfg = ClientConfig::to_addr(addr);
                cfg.initial_backoff = Duration::from_millis(10);
                let mut conn = Connection::connect(cfg).expect("connect");
                // A different slice of the packet trace per client.
                let slice = &packets[t * 16..t * 16 + 64.min(packets.len() - t * 16)];
                for batch in slice.chunks(16) {
                    let got = conn.lookup(batch).expect("lookup");
                    for (&a, nh) in batch.iter().zip(&got) {
                        assert_eq!(*nh, reference.lookup(a).map(|(_, &v)| v), "client {t}");
                    }
                }
                conn.heartbeat().expect("heartbeat");
                let report = conn.close().expect("close");
                assert_eq!(report.reconnects, 0, "client {t}");
            });
        }
    });

    assert_eq!(server.net_stats().accepted(), CLIENTS as u64);
    // Client-side close() returns before the loop has reaped the EOF;
    // give the reactor a moment to retire every connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.net_stats().active() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.net_stats().active(), 0);
    let _ = server.drain().expect("server drains cleanly");
}

/// Reports each append's `(raw, seq_hw)`, then blocks until released
/// (or until the test gave up and dropped the gate).
struct GatedJournal {
    entered: mpsc::Sender<(u32, u64)>,
    release: mpsc::Receiver<()>,
}

impl UpdateJournal for GatedJournal {
    fn append(&mut self, batch: &JournalBatch<'_>) -> std::io::Result<()> {
        let _ = self.entered.send((batch.raw, batch.seq_hw));
        let _ = self.release.recv();
        Ok(())
    }
}

/// ROADMAP 5(f): one update frame that straddles journal batches is
/// acked — and claimed by a journal record's `seq_hw` — only once the
/// append holding its last update has returned.
#[test]
fn update_ack_waits_for_the_append_holding_the_frames_last_update() {
    let fib = small_fib(691, 500);
    let frame = UpdateGen::new(692).generate(&fib, 5);
    let (entered, entered_rx) = mpsc::channel();
    let (release_tx, release) = mpsc::channel();
    let cfg = ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        router: RouterConfig {
            batch_size: 2,
            ..RouterConfig::default()
        },
        ..ServerConfig::default()
    };
    let journal = Box::new(GatedJournal { entered, release });
    let svc = RouterService::start_with_journal(&fib, &cfg.router, journal);
    let server = Server::start_with_service(svc, 0, &cfg).expect("bind loopback");
    let mut conn = client_for(&server);
    let seq = conn.last_acked() + 1;
    let acked = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Owned here so a failed assertion drops it and opens the gate.
        let release_tx = release_tx;
        s.spawn(|| {
            conn.send_updates(&frame).expect("send frame");
            conn.flush_acks().expect("ack arrives");
            acked.store(true, Ordering::SeqCst);
        });
        let mut journaled = 0;
        while journaled < frame.len() {
            let (raw, seq_hw) = entered_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            journaled += raw as usize;
            // Only the record holding the frame's tail may claim it, and
            // while that append is in flight no ack may be out.
            assert_eq!(seq_hw, if journaled == frame.len() { seq } else { 0 });
            assert!(!acked.load(Ordering::SeqCst), "acked at {journaled}/5");
            release_tx.send(()).unwrap();
        }
    });
    assert!(acked.load(Ordering::SeqCst));
    assert_eq!(conn.last_acked(), seq);
    drop(conn);
    server.drain().expect("server drains cleanly");
}
