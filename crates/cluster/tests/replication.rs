//! WAL-shipping replication end to end: ack implies standby-applied,
//! a follower joining mid-stream catches up from snapshot + tail
//! without replaying acknowledged batches twice, reconnection resumes
//! from the applied position, a stalled follower is demoted instead of
//! halting the update plane, and a promotion never lets go of the
//! standby's address.

use std::fs;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use clue_cluster::{Primary, PrimaryConfig, ReplConfig, Standby, StandbyConfig, StandbyOutcome};
use clue_fib::gen::FibGen;
use clue_fib::{RouteTable, Update};
use clue_net::frame::{Frame, FrameType};
use clue_net::{wire, ClientConfig, Connection, FrameReader, IO_TIMEOUT};
use clue_store::StoreConfig;
use clue_traffic::UpdateGen;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clue-repl-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn workload(seed: u64, routes: usize, updates: usize) -> (RouteTable, Vec<Update>) {
    let fib = FibGen::new(seed).routes(routes).generate();
    let trace = UpdateGen::new(seed + 1).generate(&fib, updates);
    (fib, trace)
}

fn oracle(fib: &RouteTable, trace: &[Update]) -> RouteTable {
    let mut t = fib.clone();
    for &u in trace {
        t.apply(u);
    }
    t
}

/// Test-speed primary: fsync off, small snapshot cadence so checkpoints
/// actually rotate the streamable base mid-test.
fn primary_cfg(sync_timeout: Duration) -> PrimaryConfig {
    PrimaryConfig {
        store: StoreConfig {
            fsync: false,
            snapshot_every: 8,
        },
        repl: ReplConfig::default(),
        sync_timeout,
        ..PrimaryConfig::default()
    }
}

fn standby_cfg(primary: &Primary) -> StandbyConfig {
    StandbyConfig {
        primary_repl: primary.repl_addr().to_string(),
        reconnect_backoff: Duration::from_millis(20),
        ..StandbyConfig::default()
    }
}

fn client(primary: &Primary) -> Connection {
    Connection::connect(ClientConfig::to_addr(primary.local_addr().to_string())).unwrap()
}

fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The whole failover story in one assertion: the moment the client
/// holds an ack, the standby has applied the batch — so a promotion at
/// any point preserves every acknowledged update.
#[test]
fn a_sync_timeout_not_below_the_io_timeout_is_refused() {
    let (fib, _) = workload(71, 200, 0);
    let dir = temp_dir("sync-timeout");
    for sync in [IO_TIMEOUT, IO_TIMEOUT + Duration::from_secs(5)] {
        let err = Primary::start(&dir, Some(&fib), &primary_cfg(sync))
            .err()
            .expect("a sync timeout the clients would outwait starts a primary");
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert!(!dir.exists(), "the data dir was opened");
    }
    let below = Primary::start(&dir, Some(&fib), &primary_cfg(IO_TIMEOUT / 2)).unwrap();
    below.stop().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ack_implies_standby_applied() {
    let dir = temp_dir("sync");
    let (fib, trace) = workload(11, 400, 300);
    let primary = Primary::start(&dir, Some(&fib), &primary_cfg(Duration::from_secs(5))).unwrap();
    let standby = Standby::start(standby_cfg(&primary)).unwrap();
    wait_for("standby to catch up", Duration::from_secs(10), || {
        primary.repl_stats().synced == 1
    });

    let mut conn = client(&primary);
    for chunk in trace.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();

    // No waiting: every update is acked, so the replica must already
    // hold the full oracle table.
    let state = standby.replica_state();
    assert_eq!(state.table, oracle(&fib, &trace), "replica diverged");
    assert_eq!(state.skipped, 0, "primary re-shipped an acked record");
    // Seqs are per update *frame*: the replicated high-water must reach
    // the client's own acked high-water so a promoted standby resumes
    // this client without replay.
    assert!(state.seq_hw >= conn.last_acked());
    assert_eq!(state.snapshots_loaded, 1);

    let report = conn.close().unwrap();
    assert_eq!(report.accepted, trace.len() as u64);
    assert_eq!(report.dropped, 0);
    match standby.stop().unwrap() {
        StandbyOutcome::Standby(s) => assert_eq!(s.records_applied, state.records_applied),
        StandbyOutcome::Promoted(_) => panic!("nothing promoted this standby"),
    }
    assert_eq!(primary.repl_stats().accept_errors, 0, "replication port");
    primary.stop().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// A follower that joins mid-stream seeds itself from the newest
/// snapshot plus the WAL tail and converges, never seeing an already
/// acknowledged batch twice.
#[test]
fn late_joiner_catches_up_from_snapshot_and_tail() {
    let dir = temp_dir("late");
    let (fib, trace) = workload(23, 400, 600);
    let (first, second) = trace.split_at(trace.len() / 2);
    let primary = Primary::start(&dir, Some(&fib), &primary_cfg(Duration::from_secs(5))).unwrap();

    let mut conn = client(&primary);
    for chunk in first.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();

    // Join mid-stream: snapshot_every=8 guarantees the base moved past
    // jseq 0, so this exercises snapshot + tail, not just tail.
    let standby = Standby::start(standby_cfg(&primary)).unwrap();
    wait_for("late joiner to sync", Duration::from_secs(10), || {
        primary.repl_stats().synced == 1
    });
    let seeded = standby.replica_state();
    assert_eq!(seeded.snapshots_loaded, 1);
    assert!(
        seeded.applied_jseq.unwrap() > 0,
        "base never rotated; the test would not cover snapshot seeding"
    );

    for chunk in second.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();

    let state = standby.replica_state();
    assert_eq!(state.table, oracle(&fib, &trace), "replica diverged");
    assert_eq!(state.skipped, 0, "an acknowledged batch was replayed");

    conn.close().unwrap();
    drop(standby);
    primary.stop().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// Raw-protocol follower used to probe the resume contract and the
/// laggard-demotion path without a full `Standby`.
struct RawFollower {
    stream: TcpStream,
    reader: FrameReader,
}

impl RawFollower {
    fn connect(addr: std::net::SocketAddr, applied: u64) -> RawFollower {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Frame {
            kind: FrameType::ReplicaHello,
            seq: 0,
            payload: wire::encode_u64(applied),
        }
        .write_to(&mut &stream)
        .unwrap();
        RawFollower {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn read_frame(&mut self) -> Frame {
        self.reader
            .read_frame(&self.stream, Duration::from_secs(5))
            .unwrap()
    }

    fn expect_hello_ack(&mut self) -> u64 {
        let f = self.read_frame();
        assert_eq!(f.kind, FrameType::HelloAck);
        wire::decode_u64(&f.payload).unwrap()
    }

    /// Reads snapshot chunks through the final one, returning the
    /// assembled bytes.
    fn read_snapshot(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        loop {
            let f = self.read_frame();
            assert_eq!(f.kind, FrameType::SnapshotChunk);
            let (last, chunk) = wire::decode_chunk(&f.payload).unwrap();
            buf.extend_from_slice(chunk);
            if last {
                return buf;
            }
        }
    }

    fn ack(&mut self, jseq: u64, accepted: u32) {
        Frame {
            kind: FrameType::UpdateAck,
            seq: jseq,
            payload: wire::encode_ack(wire::UpdateAck {
                accepted,
                dropped: 0,
            }),
        }
        .write_to(&mut &self.stream)
        .unwrap();
    }

    /// Reads shipped records until the stream goes idle for `idle`,
    /// acking each; returns the jseqs seen.
    fn drain_ships(&mut self, idle: Duration) -> Vec<u64> {
        let mut seen = Vec::new();
        while let Ok(f) = self.reader.read_frame(&self.stream, idle) {
            assert_eq!(f.kind, FrameType::WalShip);
            let (rec, _) = clue_store::decode_record(&f.payload).unwrap();
            assert_eq!(rec.jseq, f.seq);
            self.ack(f.seq, rec.ops.len() as u32);
            seen.push(f.seq);
        }
        seen
    }
}

/// The resume contract at the wire level: a reconnecting follower that
/// announces its applied position is resumed exactly there — no record
/// at or below it is ever shipped again.
#[test]
fn reconnect_resumes_after_applied_position() {
    let dir = temp_dir("resume");
    let (fib, trace) = workload(37, 400, 200);
    let (first, second) = trace.split_at(trace.len() / 2);
    // Large snapshot cadence: the base stays at jseq 0 so resume runs
    // against the record tail, the interesting path.
    let mut cfg = primary_cfg(Duration::from_millis(300));
    cfg.store.snapshot_every = 1_000_000;
    let primary = Primary::start(&dir, Some(&fib), &cfg).unwrap();
    let mut conn = client(&primary);

    let mut f = RawFollower::connect(primary.repl_addr(), clue_cluster::FOLLOWER_EMPTY);
    assert_eq!(f.expect_hello_ack(), 0, "fresh follower resumes from 0");
    let snap = f.read_snapshot();
    assert!(!snap.is_empty());

    for chunk in first.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();
    let seen = f.drain_ships(Duration::from_millis(300));
    assert!(!seen.is_empty());
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "jseqs not increasing");
    let applied = *seen.last().unwrap();
    drop(f); // follower "crashes"

    let mut f = RawFollower::connect(primary.repl_addr(), applied);
    assert_eq!(
        f.expect_hello_ack(),
        applied,
        "resume point must be the applied position, not the base"
    );
    for chunk in second.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();
    let seen = f.drain_ships(Duration::from_millis(300));
    assert!(!seen.is_empty());
    assert!(
        seen.iter().all(|&j| j > applied),
        "an acknowledged record was re-shipped: {seen:?} vs applied {applied}"
    );

    conn.close().unwrap();
    drop(f);
    primary.stop().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// Demote, don't halt: a follower that stops acknowledging is dropped
/// from the synchronous set at the sync timeout and clients keep
/// getting acks.
#[test]
fn stalled_follower_is_demoted_not_blocking() {
    let dir = temp_dir("demote");
    let (fib, trace) = workload(53, 400, 120);
    let mut cfg = primary_cfg(Duration::from_millis(200));
    cfg.store.snapshot_every = 1_000_000;
    let primary = Primary::start(&dir, Some(&fib), &cfg).unwrap();

    // Catch the raw follower up so it enters the synchronous set, then
    // go silent.
    let mut f = RawFollower::connect(primary.repl_addr(), clue_cluster::FOLLOWER_EMPTY);
    f.expect_hello_ack();
    f.read_snapshot();
    wait_for("follower to sync", Duration::from_secs(5), || {
        primary.repl_stats().synced == 1
    });

    let mut conn = client(&primary);
    let t0 = Instant::now();
    for chunk in trace.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();
    // All acks arrived despite the dead-silent follower, and the
    // demotion bound the stall to roughly one sync timeout per append
    // batch — far below the 10 s client I/O timeout a halt would hit.
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "stalled follower throttled the update plane: {:?}",
        t0.elapsed()
    );
    wait_for("laggard demotion", Duration::from_secs(2), || {
        primary.repl_stats().synced == 0
    });

    let report = conn.close().unwrap();
    assert_eq!(report.accepted, trace.len() as u64);
    drop(f);
    primary.stop().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// A promoted standby serves the socket its control port bound, so the
/// address is never free: a thread that keeps trying to bind it during
/// the promotion never wins it. 20 000 routes make the promoted
/// router's boot long enough that closing the control socket and
/// binding the address again loses it to the thief every time.
#[test]
fn promote_never_releases_the_serving_port() {
    let dir = temp_dir("port-thief");
    let (fib, _) = workload(83, 20_000, 0);
    let primary = Primary::start(&dir, Some(&fib), &primary_cfg(Duration::from_secs(5))).unwrap();
    let standby = Standby::start(standby_cfg(&primary)).unwrap();
    wait_for("standby to sync", Duration::from_secs(10), || {
        primary.repl_stats().synced == 1 && standby.replica_state().snapshots_loaded == 1
    });

    let addr = standby.local_addr();
    let done = Arc::new(AtomicBool::new(false));
    let thief = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if let Ok(stolen) = TcpListener::bind(addr) {
                    return Some(stolen);
                }
            }
            None
        })
    };
    standby.request_promote();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !standby.is_promoted() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    done.store(true, Ordering::Relaxed);
    let stolen = thief.join().unwrap();

    assert!(
        stolen.is_none(),
        "another socket bound {addr} mid-promotion"
    );
    assert!(standby.is_promoted(), "standby did not promote within 5 s");
    match standby.stop().unwrap() {
        StandbyOutcome::Promoted(report) => assert_eq!(report.final_table, fib),
        StandbyOutcome::Standby(_) => panic!("promotion requested but not made"),
    }
    primary.stop().unwrap();
    let _ = fs::remove_dir_all(&dir);
}
