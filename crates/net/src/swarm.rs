//! A many-connection client swarm multiplexed on one `clue-aio`
//! reactor — the client-side counterpart of the evloop server.
//!
//! Where [`loadgen`](crate::loadgen) measures throughput with a
//! handful of pipelined threads, the swarm measures *connection
//! scale*: thousands of concurrent clients from one process, each
//! holding an open socket, speaking the full `Hello`/lookup/update/
//! `Shutdown` protocol with one frame in flight, and recording
//! per-frame round-trip latency. A dialer thread performs the blocking
//! connects and injects each socket into the loop, where the driver
//! adopts it ([`Ctl::adopt`]).
//!
//! By default every connection completes its handshake *before* any
//! traffic starts, so the reported `peak_open` really means that many
//! simultaneously-established clients — the number the connections
//! bench headlines.

use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use clue_aio::{rlimit, CloseReason, ConnId, Ctl, Driver, EventLoop};
use clue_core::json;
use clue_fib::Update;

use crate::client;
use crate::frame::{Frame, FrameDecoder, FrameType};
use crate::wire;

/// Overall-deadline timer tag.
const DEADLINE: u64 = 1;
/// Per-connect timeout (the dialer retries refused connects while the
/// listener's backlog drains).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Whole-run deadline; connections still open when it fires are counted
/// as `unfinished`.
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// Swarm knobs.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections to establish.
    pub connections: usize,
    /// Addresses per lookup frame.
    pub lookup_batch: usize,
    /// Lookup frames each connection sends (0 = none).
    pub rounds: usize,
    /// Updates each connection sends as one batch after its lookups
    /// (0 = none).
    pub updates_per_conn: usize,
    /// Pause between a connection's lookup answer and its next frame.
    /// `Duration::ZERO` (the default) is the closed-loop blast every
    /// scaling point uses; a nonzero gap turns the swarm into an
    /// open(ish)-loop source offering roughly
    /// `connections × lookup_batch / gap` lookups per second, which the
    /// connections bench sweeps against the achieved rate.
    pub gap: Duration,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            addr: String::new(),
            connections: 64,
            lookup_batch: 16,
            rounds: 4,
            updates_per_conn: 0,
            gap: Duration::ZERO,
        }
    }
}

/// What the swarm observed.
#[derive(Debug, Clone, Default)]
pub struct SwarmReport {
    /// Connections that completed the `Hello` handshake.
    pub connected: usize,
    /// Most connections simultaneously open.
    pub peak_open: usize,
    /// Connects that failed past the dialer's retry budget.
    pub dial_failures: u64,
    /// Addresses sent in lookup frames.
    pub lookups_sent: u64,
    /// Addresses answered.
    pub lookups_answered: u64,
    /// Update frames sent.
    pub update_frames: u64,
    /// Update frames acked.
    pub update_acks: u64,
    /// Updates acked as accepted.
    pub updates_accepted: u64,
    /// Updates acked as dropped (`DropNewest`).
    pub updates_dropped: u64,
    /// Error frames received plus connections lost to I/O errors.
    pub errors: u64,
    /// Connections still open when the deadline fired.
    pub unfinished: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-lookup-frame round trips, microseconds (unsorted).
    pub lookup_us: Vec<u64>,
    /// Per-update-frame ack round trips, microseconds (unsorted).
    pub ack_us: Vec<u64>,
}

/// The `q`-th percentile (0..=100) of `samples`, or 0.0 when empty.
#[must_use]
pub fn percentile_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

impl SwarmReport {
    /// Answered lookups per second over the whole run.
    #[must_use]
    pub fn lookups_per_sec(&self) -> f64 {
        self.lookups_answered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Lookup round trips the swarm failed to observe (sent but never
    /// answered) — must be zero on a clean run.
    #[must_use]
    pub fn lost_answers(&self) -> u64 {
        self.lookups_sent.saturating_sub(self.lookups_answered)
    }

    /// Update frames that were never acked — must be zero on a clean
    /// run.
    #[must_use]
    pub fn lost_acks(&self) -> u64 {
        self.update_frames.saturating_sub(self.update_acks)
    }

    /// Renders the report as one JSON object (latency percentiles, not
    /// raw samples).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object()
            .int("connected", self.connected as u64)
            .int("peak_open", self.peak_open as u64)
            .int("dial_failures", self.dial_failures)
            .int("lookups_sent", self.lookups_sent)
            .int("lookups_answered", self.lookups_answered)
            .fixed("lookups_per_sec", self.lookups_per_sec(), 1)
            .fixed("lookup_p50_us", percentile_us(&self.lookup_us, 50.0), 1)
            .fixed("lookup_p99_us", percentile_us(&self.lookup_us, 99.0), 1)
            .int("update_frames", self.update_frames)
            .int("update_acks", self.update_acks)
            .int("updates_accepted", self.updates_accepted)
            .int("updates_dropped", self.updates_dropped)
            .fixed("ack_p50_us", percentile_us(&self.ack_us, 50.0), 1)
            .fixed("ack_p99_us", percentile_us(&self.ack_us, 99.0), 1)
            .int("errors", self.errors)
            .int("unfinished", self.unfinished as u64)
            .int("elapsed_ms", self.elapsed.as_millis() as u64)
            .finish()
    }
}

/// Messages the dialer thread injects.
enum Msg {
    Dialed(TcpStream),
    DialFailed,
}

/// Where one connection is in its scripted life.
enum Phase {
    /// `Hello` sent, ack pending.
    Hello,
    /// Handshake done, parked until every connection is up.
    Parked,
    /// Lookup frame for this round in flight.
    Lookup { round: usize, sent_at: Instant },
    /// The update frame is in flight.
    Update { sent_at: Instant },
}

struct ConnState {
    index: usize,
    decoder: FrameDecoder,
    phase: Phase,
}

struct SwarmDriver {
    cfg: SwarmConfig,
    addrs: Vec<u32>,
    updates: Vec<Update>,
    conns: HashMap<ConnId, ConnState>,
    dialed: usize,
    next_index: usize,
    /// Pacing timers in flight: tag → the connection and round to
    /// advance when it fires. Tags start past `DEADLINE`.
    paced: HashMap<u64, (ConnId, usize)>,
    next_tag: u64,
    report: SwarmReport,
}

impl SwarmDriver {
    fn dial_done(&self) -> bool {
        self.dialed + self.report.dial_failures as usize >= self.cfg.connections
    }

    /// This connection's address batch for `round`, rotated so the
    /// swarm sweeps the whole trace.
    fn batch(&self, index: usize, round: usize) -> Vec<u32> {
        let b = self.cfg.lookup_batch.max(1);
        let start = (index * b + round * b * self.cfg.connections) % self.addrs.len();
        (0..b)
            .map(|k| self.addrs[(start + k) % self.addrs.len()])
            .collect()
    }

    fn update_batch(&self, index: usize) -> Vec<Update> {
        let n = self.cfg.updates_per_conn;
        let start = (index * n) % self.updates.len();
        (0..n)
            .map(|k| self.updates[(start + k) % self.updates.len()])
            .collect()
    }

    /// Sends the next scripted frame for `conn`, or closes it when the
    /// script is finished.
    fn advance(&mut self, ctl: &mut Ctl<'_, Msg>, conn: ConnId, round: usize) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        let index = state.index;
        if round < self.cfg.rounds && !self.addrs.is_empty() {
            let batch = self.batch(index, round);
            let frame = Frame {
                kind: FrameType::Lookup,
                seq: round as u64 + 1,
                payload: wire::encode_lookup(&batch),
            };
            self.report.lookups_sent += batch.len() as u64;
            let state = self.conns.get_mut(&conn).expect("checked above");
            state.phase = Phase::Lookup {
                round,
                sent_at: Instant::now(),
            };
            ctl.send(conn, &frame.encode());
        } else if self.cfg.updates_per_conn > 0 && !self.updates.is_empty() {
            let batch = self.update_batch(index);
            let frame = Frame {
                kind: FrameType::Update,
                seq: index as u64 + 1,
                payload: wire::encode_updates(&batch),
            };
            self.report.update_frames += 1;
            let state = self.conns.get_mut(&conn).expect("checked above");
            state.phase = Phase::Update {
                sent_at: Instant::now(),
            };
            ctl.send(conn, &frame.encode());
        } else {
            ctl.send(conn, &Frame::empty(FrameType::Shutdown, 0).encode());
            ctl.close(conn);
        }
    }

    /// Releases every parked connection once the last dial resolves.
    fn release_parked(&mut self, ctl: &mut Ctl<'_, Msg>) {
        if !self.dial_done() {
            return;
        }
        let parked: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, s)| matches!(s.phase, Phase::Parked))
            .map(|(&c, _)| c)
            .collect();
        for conn in parked {
            self.advance(ctl, conn, 0);
        }
    }

    fn maybe_stop(&mut self, ctl: &mut Ctl<'_, Msg>) {
        if self.dial_done() && ctl.conn_count() == 0 {
            ctl.stop();
        }
    }

    fn on_frame(&mut self, ctl: &mut Ctl<'_, Msg>, conn: ConnId, frame: &Frame) {
        let dial_done = self.dial_done();
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        match frame.kind {
            FrameType::HelloAck => {
                self.report.connected += 1;
                if dial_done {
                    self.advance(ctl, conn, 0);
                } else {
                    state.phase = Phase::Parked;
                }
            }
            FrameType::LookupResult => {
                let Phase::Lookup { round, sent_at } = state.phase else {
                    self.report.errors += 1;
                    ctl.close(conn);
                    return;
                };
                let answered = wire::decode_results(&frame.payload)
                    .map(|r| r.len() as u64)
                    .unwrap_or(0);
                self.report.lookups_answered += answered;
                self.report
                    .lookup_us
                    .push(sent_at.elapsed().as_micros() as u64);
                if self.cfg.gap.is_zero() {
                    self.advance(ctl, conn, round + 1);
                } else {
                    // Open-loop pacing: park the connection on a timer
                    // instead of firing the next frame off the ack.
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    self.paced.insert(tag, (conn, round + 1));
                    ctl.set_timer(self.cfg.gap, tag);
                }
            }
            FrameType::UpdateAck => {
                let Phase::Update { sent_at } = state.phase else {
                    self.report.errors += 1;
                    ctl.close(conn);
                    return;
                };
                self.report.update_acks += 1;
                self.report
                    .ack_us
                    .push(sent_at.elapsed().as_micros() as u64);
                if let Ok(ack) = wire::decode_ack(&frame.payload) {
                    self.report.updates_accepted += u64::from(ack.accepted);
                    self.report.updates_dropped += u64::from(ack.dropped);
                }
                ctl.send(conn, &Frame::empty(FrameType::Shutdown, 0).encode());
                ctl.close(conn);
            }
            FrameType::HeartbeatAck => {}
            FrameType::Shutdown => ctl.close(conn),
            FrameType::Error => {
                self.report.errors += 1;
                ctl.close(conn);
            }
            _ => {
                self.report.errors += 1;
                ctl.close(conn);
            }
        }
    }
}

impl Driver for SwarmDriver {
    type Msg = Msg;

    fn on_data(&mut self, ctl: &mut Ctl<'_, Msg>, conn: ConnId, buf: &mut Vec<u8>) {
        if let Some(state) = self.conns.get_mut(&conn) {
            state.decoder.extend(buf);
        }
        buf.clear();
        loop {
            let Some(state) = self.conns.get_mut(&conn) else {
                return;
            };
            match state.decoder.poll_frame() {
                Ok(Some(frame)) => self.on_frame(ctl, conn, &frame),
                Ok(None) => return,
                Err(_) => {
                    self.report.errors += 1;
                    ctl.close(conn);
                    return;
                }
            }
        }
    }

    fn on_close(&mut self, ctl: &mut Ctl<'_, Msg>, conn: ConnId, reason: &CloseReason) {
        if self.conns.remove(&conn).is_some() && matches!(reason, CloseReason::Err(_)) {
            self.report.errors += 1;
        }
        self.maybe_stop(ctl);
    }

    fn on_msg(&mut self, ctl: &mut Ctl<'_, Msg>, msg: Msg) {
        match msg {
            Msg::Dialed(stream) => {
                self.dialed += 1;
                match ctl.adopt(stream) {
                    Ok(conn) => {
                        let index = self.next_index;
                        self.next_index += 1;
                        self.conns.insert(
                            conn,
                            ConnState {
                                index,
                                decoder: FrameDecoder::new(),
                                phase: Phase::Hello,
                            },
                        );
                        self.report.peak_open = self.report.peak_open.max(ctl.conn_count());
                        let hello = Frame {
                            kind: FrameType::Hello,
                            seq: 0,
                            payload: wire::encode_u64(0),
                        };
                        ctl.send(conn, &hello.encode());
                    }
                    Err(_) => self.report.dial_failures += 1,
                }
            }
            Msg::DialFailed => self.report.dial_failures += 1,
        }
        self.release_parked(ctl);
        self.maybe_stop(ctl);
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_, Msg>, tag: u64) {
        if tag == DEADLINE {
            self.report.unfinished = self.conns.len();
            ctl.stop();
        } else if let Some((conn, round)) = self.paced.remove(&tag) {
            // `advance` tolerates a connection that closed while its
            // pacing timer was pending (generation-tagged ids never
            // alias a reused slot).
            self.advance(ctl, conn, round);
        }
    }
}

/// Dials `n` sockets, retrying refused connects (the listener's accept
/// backlog is finite) with a small linear backoff.
fn dialer(addr: &str, n: usize, handle: &clue_aio::LoopHandle<Msg>) {
    for _ in 0..n {
        let mut dialed = false;
        for attempt in 0..40u32 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20))));
            }
            // The reactor drives the socket nonblocking, so the I/O
            // timeout `open` sets never fires.
            match client::open(addr, CONNECT_TIMEOUT, CONNECT_TIMEOUT) {
                Ok(stream) => {
                    if !handle.send(Msg::Dialed(stream)) {
                        return;
                    }
                    dialed = true;
                    break;
                }
                Err(_) => continue,
            }
        }
        if !dialed && !handle.send(Msg::DialFailed) {
            return;
        }
    }
}

/// Runs the swarm: `cfg.connections` clients established first, then
/// each runs its lookup rounds (and optional update batch) to
/// completion.
///
/// # Errors
///
/// Address resolution and reactor-creation failures. Per-connection
/// failures are counted in the report, not returned.
pub fn run_swarm(cfg: &SwarmConfig, addrs: &[u32], updates: &[Update]) -> io::Result<SwarmReport> {
    // Resolved once, so every dial below connects to a literal address.
    let target = cfg
        .addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?
        .to_string();
    // One fd per swarm socket (plus the poller/waker overhead, plus the
    // server when it shares the process, as the bench's does).
    rlimit::raise_nofile(cfg.connections as u64 * 2 + 512);

    let driver = SwarmDriver {
        cfg: cfg.clone(),
        addrs: addrs.to_vec(),
        updates: updates.to_vec(),
        conns: HashMap::new(),
        dialed: 0,
        next_index: 0,
        paced: HashMap::new(),
        next_tag: DEADLINE + 1,
        report: SwarmReport::default(),
    };
    let mut el = EventLoop::new(driver)?;
    el.set_timer(RUN_DEADLINE, DEADLINE);
    let handle = el.handle();
    let n = cfg.connections;
    let dial_thread = std::thread::spawn(move || dialer(&target, n, &handle));

    let started = Instant::now();
    let driver = el.run()?;
    let _ = dial_thread.join();
    let mut report = driver.report;
    report.elapsed = started.elapsed();
    Ok(report)
}
