//! The client side: a [`Connection`] with heartbeats, read/write
//! timeouts, and reconnect-with-resume.
//!
//! Update frames carry client-assigned, monotonically increasing
//! sequence numbers and are buffered until acked. On any socket failure
//! the connection redials with capped exponential backoff, re-handshakes
//! (`Hello` carries the client's last acked seq, `HelloAck` answers with
//! the server's high-water accepted seq), discards buffered frames the
//! server already processed, and retransmits the rest **in order**.
//! Retransmitting a suffix that may partially overlap already-applied
//! work is safe because route updates are last-op-wins per prefix:
//! re-applying a sequence the server has already seen cannot change the
//! final table.
//!
//! A lookup is two halves, [`Connection::start_lookup`] (write the
//! frame, get its token) and [`Connection::finish_lookup`] (wait for
//! that token's reply), so a caller fanning one batch out over several
//! connections — the cluster proxy — has every request on the wire
//! before it reads any reply. [`Connection::lookup`] is the two in a
//! row. Replies are read through a per-connection [`FrameDecoder`], so
//! a reply that arrived whole costs one `recv`.

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use clue_fib::{NextHop, Update};

use crate::frame::{Frame, FrameDecoder, FrameType};
use crate::wire;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// TCP connect timeout per dial attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout (a reply slower than this fails the op).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Send a liveness probe after this much idle time
    /// (see [`Connection::maybe_heartbeat`]).
    pub heartbeat_every: Duration,
    /// First reconnect backoff; doubles per failed attempt.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Consecutive failed dials before giving up.
    pub max_reconnect_attempts: u32,
    /// Maximum update frames in flight before blocking on acks.
    pub ack_window: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:4555".to_string(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            heartbeat_every: Duration::from_secs(1),
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            max_reconnect_attempts: 10,
            ack_window: 32,
        }
    }
}

impl ClientConfig {
    /// A config pointed at `addr` with default timeouts.
    #[must_use]
    pub fn to_addr(addr: impl Into<String>) -> Self {
        ClientConfig {
            addr: addr.into(),
            ..ClientConfig::default()
        }
    }
}

/// Final counters a closed connection hands back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Updates acknowledged as accepted by the router.
    pub accepted: u64,
    /// Updates acknowledged as dropped (`DropNewest`).
    pub dropped: u64,
    /// Successful reconnects performed.
    pub reconnects: u64,
    /// Highest update frame seq the server acknowledged.
    pub last_acked: u64,
}

/// A live client connection. All operations are synchronous; update
/// submission pipelines up to [`ClientConfig::ack_window`] frames.
pub struct Connection {
    cfg: ClientConfig,
    stream: TcpStream,
    /// Bytes read from `stream` beyond the last frame taken; replaced
    /// with the stream on every reconnect.
    decoder: FrameDecoder,
    /// Next update frame seq to assign (seqs start at 1).
    next_seq: u64,
    /// Correlation counter for lookups/stats/heartbeats.
    next_token: u64,
    last_acked: u64,
    unacked: VecDeque<(u64, Vec<Update>)>,
    reconnects: u64,
    accepted: u64,
    dropped: u64,
    last_io: Instant,
}

fn timeout_err(msg: String) -> io::Error {
    io::Error::new(ErrorKind::TimedOut, msg)
}

impl Connection {
    /// Dials `cfg.addr` and performs the `Hello`/`HelloAck` handshake.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable within the connect timeout or
    /// the handshake does not complete.
    pub fn connect(cfg: ClientConfig) -> io::Result<Connection> {
        let (stream, decoder, server_acked) = dial(&cfg, 0)?;
        Ok(Connection {
            cfg,
            stream,
            decoder,
            next_seq: server_acked + 1,
            next_token: 0,
            last_acked: server_acked,
            unacked: VecDeque::new(),
            reconnects: 0,
            accepted: 0,
            dropped: 0,
            last_io: Instant::now(),
        })
    }

    /// Successful reconnects so far.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Points future reconnects at a different address without touching
    /// the in-flight window. The live socket (if any) keeps serving
    /// until it errors; the next reconnect dials `addr`, re-runs the
    /// `Hello(last_acked)` resume handshake there, and retransmits the
    /// unacked suffix — this is how a proxy re-routes a shard's stream
    /// to a promoted standby with exactly-once semantics intact.
    pub fn redirect(&mut self, addr: impl Into<String>) {
        self.cfg.addr = addr.into();
    }

    /// The address this connection dials (after any [`redirect`](Self::redirect)).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.cfg.addr
    }

    /// Highest acked update frame seq.
    #[must_use]
    pub fn last_acked(&self) -> u64 {
        self.last_acked
    }

    /// Submits one batch of updates. Returns once the frame is written
    /// and the in-flight window is back under `ack_window`; earlier
    /// frames may be acked as a side effect.
    ///
    /// # Errors
    ///
    /// Fails only after reconnect attempts are exhausted; the batch
    /// stays buffered, so a later successful reconnect would resume it.
    pub fn send_updates(&mut self, batch: &[Update]) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back((seq, batch.to_vec()));
        let frame = Frame {
            kind: FrameType::Update,
            seq,
            payload: wire::encode_updates(batch),
        };
        if frame.write_to(&mut &self.stream).is_err() {
            // reconnect() retransmits everything unacked, including the
            // frame just buffered.
            self.reconnect()?;
        }
        self.drain_acks_to(self.cfg.ack_window)
    }

    /// Blocks until every in-flight update frame is acknowledged.
    ///
    /// # Errors
    ///
    /// Fails after reconnect attempts are exhausted.
    pub fn flush_acks(&mut self) -> io::Result<()> {
        self.drain_acks_to(0)
    }

    fn drain_acks_to(&mut self, target: usize) -> io::Result<()> {
        let mut recoveries = 0u32;
        while self.unacked.len() > target {
            match self.read_frame() {
                Ok(frame) => {
                    self.absorb(&frame)?;
                    self.last_io = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::InvalidData => return Err(e),
                Err(_) if recoveries < 3 => {
                    recoveries += 1;
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Resolves a batch of addresses: [`start_lookup`](Self::start_lookup)
    /// then [`finish_lookup`](Self::finish_lookup). Safe to retry across
    /// reconnects (lookups are read-only).
    ///
    /// # Errors
    ///
    /// Fails after reconnect attempts are exhausted or on a protocol
    /// violation.
    pub fn lookup(&mut self, addrs: &[u32]) -> io::Result<Vec<Option<NextHop>>> {
        let token = self.start_lookup(addrs)?;
        self.finish_lookup(token, addrs)
    }

    /// Sends a lookup without waiting for its answer and returns the
    /// token [`finish_lookup`](Self::finish_lookup) takes. A caller
    /// holding several connections starts a lookup on each before it
    /// finishes any, so it waits for the slowest peer rather than for
    /// the sum of them. A small batch cannot block here on an unread
    /// reply: a request of a few hundred bytes is far below a socket
    /// buffer.
    ///
    /// # Errors
    ///
    /// The write failed, and so did one reconnect and rewrite.
    pub fn start_lookup(&mut self, addrs: &[u32]) -> io::Result<u64> {
        let token = self.fresh_token();
        self.send_request(&lookup_frame(token, addrs))?;
        Ok(token)
    }

    /// Waits for the answer to the lookup `token` started with the same
    /// `addrs`. On a socket error it reconnects and asks again, which
    /// is safe because lookups are read-only. A reply to an earlier
    /// token this line gave up on is skipped, so finish lookups in the
    /// order they were started.
    ///
    /// # Errors
    ///
    /// Fails after reconnect attempts are exhausted or on a protocol
    /// violation (including an `Error` reply).
    pub fn finish_lookup(&mut self, token: u64, addrs: &[u32]) -> io::Result<Vec<Option<NextHop>>> {
        let reply = self.await_reply(FrameType::LookupResult, token, || {
            lookup_frame(token, addrs)
        })?;
        wire::decode_results(&reply.payload)
    }

    /// Fetches the server's stats document (JSON).
    ///
    /// # Errors
    ///
    /// Fails after reconnect attempts are exhausted or on a protocol
    /// violation.
    pub fn stats_json(&mut self) -> io::Result<String> {
        let token = self.fresh_token();
        let frame = Frame::empty(FrameType::StatsQuery, token);
        let reply = self.request(&frame, FrameType::StatsReply)?;
        String::from_utf8(reply.payload)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("stats not UTF-8: {e}")))
    }

    /// Sends a liveness probe and waits for its echo.
    ///
    /// # Errors
    ///
    /// Fails after reconnect attempts are exhausted.
    pub fn heartbeat(&mut self) -> io::Result<()> {
        let token = self.fresh_token();
        let frame = Frame::empty(FrameType::Heartbeat, token);
        self.request(&frame, FrameType::HeartbeatAck).map(|_| ())
    }

    /// Heartbeats only if the line has been idle longer than
    /// [`ClientConfig::heartbeat_every`].
    ///
    /// # Errors
    ///
    /// Same as [`Connection::heartbeat`].
    pub fn maybe_heartbeat(&mut self) -> io::Result<()> {
        if self.last_io.elapsed() >= self.cfg.heartbeat_every {
            self.heartbeat()
        } else {
            Ok(())
        }
    }

    /// Flushes outstanding acks, announces an orderly close, and returns
    /// the final counters.
    ///
    /// # Errors
    ///
    /// Fails if the final flush cannot complete.
    pub fn close(mut self) -> io::Result<ClientReport> {
        self.flush_acks()?;
        let _ = Frame::empty(FrameType::Shutdown, 0).write_to(&mut &self.stream);
        Ok(ClientReport {
            accepted: self.accepted,
            dropped: self.dropped,
            reconnects: self.reconnects,
            last_acked: self.last_acked,
        })
    }

    fn fresh_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Writes `frame` and pumps replies until `want` (matching seq)
    /// arrives, reconnect-retrying on socket errors.
    fn request(&mut self, frame: &Frame, want: FrameType) -> io::Result<Frame> {
        self.send_request(frame)?;
        self.await_reply(want, frame.seq, || frame.clone())
    }

    /// Writes a request; a failed write reconnects (which resumes the
    /// update window) and writes it once more.
    fn send_request(&mut self, frame: &Frame) -> io::Result<()> {
        if frame.write_to(&mut &self.stream).is_err() {
            self.reconnect()?;
            frame.write_to(&mut &self.stream)?;
        }
        Ok(())
    }

    /// Pumps replies until `want` with seq `seq` arrives. On a socket
    /// error it reconnects and writes the request `resend` rebuilds, up
    /// to three times.
    fn await_reply(
        &mut self,
        want: FrameType,
        seq: u64,
        resend: impl Fn() -> Frame,
    ) -> io::Result<Frame> {
        let mut recoveries = 0u32;
        loop {
            match self.wait_for(want, seq) {
                Ok(reply) => {
                    self.last_io = Instant::now();
                    return Ok(reply);
                }
                Err(e) if e.kind() == ErrorKind::InvalidData => return Err(e),
                Err(_) if recoveries < 3 => {
                    recoveries += 1;
                    self.reconnect()?;
                    // A failed write surfaces as the next wait's error.
                    let _ = resend().write_to(&mut &self.stream);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn read_frame(&mut self) -> io::Result<Frame> {
        self.decoder.read_frame(&mut &self.stream)
    }

    fn wait_for(&mut self, want: FrameType, want_seq: u64) -> io::Result<Frame> {
        loop {
            let frame = self.read_frame()?;
            if frame.kind == want && frame.seq == want_seq {
                // Acks absorbed below never match here: `want` is always
                // a reply type with a fresh token.
                return Ok(frame);
            }
            if matches!(frame.kind, FrameType::LookupResult | FrameType::StatsReply)
                && frame.seq < want_seq
            {
                // The answer to an earlier request this line gave up on
                // (tokens only grow).
                continue;
            }
            self.absorb(&frame)?;
        }
    }

    /// Processes a housekeeping frame (acks, stale heartbeat echoes);
    /// anything else is a protocol violation.
    fn absorb(&mut self, frame: &Frame) -> io::Result<()> {
        match frame.kind {
            FrameType::UpdateAck => {
                let ack = wire::decode_ack(&frame.payload)?;
                if frame.seq > self.last_acked {
                    self.last_acked = frame.seq;
                    self.accepted += u64::from(ack.accepted);
                    self.dropped += u64::from(ack.dropped);
                    // Acks arrive in order on one stream; everything up
                    // to this seq is settled (earlier acks may have been
                    // lost to a reconnect).
                    while self.unacked.front().is_some_and(|(s, _)| *s <= frame.seq) {
                        self.unacked.pop_front();
                    }
                }
                Ok(())
            }
            FrameType::HeartbeatAck => Ok(()),
            FrameType::Shutdown => Err(io::Error::new(
                ErrorKind::ConnectionAborted,
                "server is shutting down",
            )),
            FrameType::Error => Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("server error: {}", String::from_utf8_lossy(&frame.payload)),
            )),
            other => Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected frame {other:?} from server"),
            )),
        }
    }

    /// Redials with capped exponential backoff and resumes: frames the
    /// server already acked (per `HelloAck`) are settled, the rest are
    /// retransmitted in order with their original seqs.
    fn reconnect(&mut self) -> io::Result<()> {
        let mut backoff = self.cfg.initial_backoff;
        let mut last_err = timeout_err("no reconnect attempt made".to_string());
        for _ in 0..self.cfg.max_reconnect_attempts {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(self.cfg.max_backoff);
            match self.try_resume() {
                Ok(()) => {
                    self.reconnects += 1;
                    self.last_io = Instant::now();
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
        }
        Err(timeout_err(format!(
            "reconnect to {} failed after {} attempts: {last_err}",
            self.cfg.addr, self.cfg.max_reconnect_attempts
        )))
    }

    fn try_resume(&mut self) -> io::Result<()> {
        let (stream, decoder, server_acked) = dial(&self.cfg, self.last_acked)?;
        if server_acked > self.last_acked {
            // Processed before the line dropped, ack lost in flight. The
            // ack's accepted/dropped split is gone with it; count the
            // batch as accepted (the server's own stats carry the
            // authoritative drop counts).
            self.last_acked = server_acked;
            while self
                .unacked
                .front()
                .is_some_and(|(s, _)| *s <= server_acked)
            {
                let (_, batch) = self.unacked.pop_front().expect("front checked");
                self.accepted += batch.len() as u64;
            }
        }
        for (seq, batch) in &self.unacked {
            Frame {
                kind: FrameType::Update,
                seq: *seq,
                payload: wire::encode_updates(batch),
            }
            .write_to(&mut &stream)?;
        }
        self.stream = stream;
        self.decoder = decoder;
        Ok(())
    }
}

fn lookup_frame(token: u64, addrs: &[u32]) -> Frame {
    Frame {
        kind: FrameType::Lookup,
        seq: token,
        payload: wire::encode_lookup(addrs),
    }
}

/// One dial + handshake. `my_acked` tells the server where this client
/// believes the update stream stands; the reply is the server's own
/// high-water mark. The decoder holds the stream's read-ahead.
fn dial(cfg: &ClientConfig, my_acked: u64) -> io::Result<(TcpStream, FrameDecoder, u64)> {
    let addr =
        cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
    let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    Frame {
        kind: FrameType::Hello,
        seq: my_acked,
        payload: wire::encode_u64(my_acked),
    }
    .write_to(&mut &stream)?;
    let mut decoder = FrameDecoder::new();
    let reply = decoder.read_frame(&mut &stream)?;
    if reply.kind != FrameType::HelloAck {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("expected HelloAck, got {:?}", reply.kind),
        ));
    }
    let server_acked = wire::decode_u64(&reply.payload)?;
    Ok((stream, decoder, server_acked))
}
