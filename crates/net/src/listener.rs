//! One frame handler, two connection drivers.
//!
//! Every request/reply endpoint in the system — the router frontend
//! ([`Server`](crate::Server)), the cluster proxy and the standby
//! control port — is a [`FrameHandler`] run by a [`Listener`]. The
//! handler maps one request frame to one reply frame; everything about
//! sockets lives here and in the `evloop` module, once.
//!
//! ## The frame handler contract
//!
//! Both drivers enforce the same five rules, so a handler (and a peer)
//! can rely on them without knowing which [`Transport`] is running:
//!
//! 1. **One frame in flight per connection.** The next frame is not
//!    decoded until the previous reply has been handed to the socket.
//!    Both drivers read ahead through a [`FrameDecoder`]: whatever one
//!    `recv` returned beyond the current frame waits, undecoded, in the
//!    connection's decoder.
//! 2. **Reply before read.** The threads driver writes the reply on the
//!    reading thread; the evloop driver queues it on the connection's
//!    outbound buffer before it re-arms read interest.
//! 3. **`Error` is fatal.** A reply of kind [`FrameType::Error`] is the
//!    last frame on the line: the connection closes once it is flushed.
//!    Lost framing (bad magic/version/type/length/CRC) is answered by
//!    the driver itself with `Error` (seq 0), a request the handler
//!    refuses with `Error` echoing its seq, and both are counted as
//!    protocol errors by the driver; a peer's `Shutdown` closes the
//!    line with no reply.
//! 4. **Drain.** Once shutdown is requested the listener stops
//!    accepting, idle peers get a `Shutdown` frame and are closed, and
//!    a call already inside [`FrameHandler::handle`] finishes and
//!    flushes its reply first.
//! 5. **Backpressure is a paused read.** While `handle` blocks (a full
//!    `Block` ingress, a slow shard) the connection's socket is not
//!    read — the thread is busy, or the reactor dropped read interest —
//!    so the kernel buffer fills and the peer's TCP window closes. The
//!    read-ahead of rule 1 is bounded — one 4 KiB chunk under threads,
//!    the reactor's read budget under evloop — so it does not change
//!    this.

use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::Duration;

use crate::frame::{Frame, FrameDecoder, FrameType};
use crate::server::Transport;
use crate::stats::NetStats;

/// The request/reply logic of one serving tier.
///
/// Shared by every connection of a [`Listener`]; per-connection state
/// lives in [`FrameHandler::Conn`], which the evloop driver ships to
/// the bridge pool with each blocking frame and gets back with the
/// reply — the one-in-flight rule is its mutual exclusion.
pub trait FrameHandler: Send + Sync + 'static {
    /// Per-connection state.
    type Conn: Send + 'static;

    /// A connection was accepted; `id` is its [`NetStats`] ledger id.
    /// Must not block.
    fn open(&self, id: u64) -> Self::Conn;

    /// Whether frames of `kind` are answered without blocking, and so
    /// may run on the thread that reads every socket (the evloop
    /// reactor) instead of the bridge pool.
    fn is_cheap(&self, kind: FrameType) -> bool;

    /// Answers one request. `Err` refuses it as the peer's protocol
    /// error (an undecodable payload, a kind this tier does not serve):
    /// the driver counts it and answers `Error` echoing the seq. An
    /// `Ok` reply of kind [`FrameType::Error`] is a failure on this
    /// side (a dead shard, a journal timeout) and is not counted
    /// against the peer. Either closes the connection once flushed.
    /// `Shutdown` frames never arrive here.
    ///
    /// # Errors
    ///
    /// The request is malformed or not served here.
    fn handle(&self, conn: &mut Self::Conn, frame: &Frame) -> io::Result<Frame>;

    /// The connection is gone. May block (never runs on the reactor).
    fn close(&self, conn: Self::Conn) {
        drop(conn);
    }
}

/// The bound on every blocking socket operation in the serving stack:
/// finishing a frame whose first byte arrived, a socket write, a
/// client's wait for a reply, an ack's wait for its journal write, and
/// a standby's wait for its replication thread at promotion.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How a [`Listener`] serves its connections: the serving-tier configs'
/// shared knobs, forwarded verbatim. Socket operations are bounded by
/// [`IO_TIMEOUT`].
#[derive(Debug, Clone, Copy)]
pub struct ListenerConfig {
    /// Which connection driver runs the handler.
    pub transport: Transport,
    /// Evloop bridge-pool size (ignored under `Threads`).
    pub bridge_threads: usize,
    /// How often idle threads and the reactor re-check the shutdown
    /// flag.
    pub idle_poll: Duration,
}

/// A bound socket serving one [`FrameHandler`]: owns the listener
/// socket, the shutdown flag, and the drain-and-join logic for either
/// driver. Dropping it drains.
pub struct Listener {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    net: Arc<NetStats>,
    /// Evloop only: wakes the reactor so a drain starts now rather than
    /// at the next shutdown-poll tick.
    wake: Option<Box<dyn Fn() + Send + Sync>>,
    /// Joined in order by [`Listener::stop`]: the accept thread (which
    /// joins its connection threads), or the reactor and then the
    /// bridge pool its exit releases.
    threads: Vec<JoinHandle<()>>,
}

impl Listener {
    /// Starts serving `handler` on the bound `socket`, counting into
    /// `net`.
    ///
    /// # Errors
    ///
    /// Socket configuration or reactor start-up failures.
    pub fn start<H: FrameHandler>(
        socket: TcpListener,
        handler: Arc<H>,
        net: Arc<NetStats>,
        cfg: ListenerConfig,
    ) -> io::Result<Listener> {
        let local_addr = socket.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (wake, threads) = match cfg.transport {
            Transport::Threads => {
                socket.set_nonblocking(true)?;
                let (net, shutdown) = (Arc::clone(&net), Arc::clone(&shutdown));
                let accept = std::thread::spawn(move || {
                    accept_loop(&socket, cfg.idle_poll, &net, &shutdown, |stream, peer| {
                        serve_conn(&stream, peer, &*handler, &net, cfg, &shutdown);
                    });
                });
                (None, vec![accept])
            }
            Transport::Evloop => {
                let (wake, threads) = crate::evloop::start(socket, handler, &net, cfg, &shutdown)?;
                (Some(wake), threads)
            }
        };
        Ok(Listener {
            local_addr,
            shutdown,
            net,
            wake,
            threads,
        })
    }

    /// The bound address (useful with `:0` ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shutdown flag; setting it (e.g. from a signal watcher)
    /// starts the drain. Pair with [`Listener::stop`] to join.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Requests the drain without blocking.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(wake) = &self.wake {
            wake();
        }
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The registry this listener counts into.
    #[must_use]
    pub fn net_stats(&self) -> &NetStats {
        &self.net
    }

    /// Drains (contract rule 4) and joins every thread; the listening
    /// socket is closed when this returns. Idempotent. A thread that
    /// panicked is counted in the [`NetStats`] error ledger.
    pub fn stop(&mut self) {
        self.request_shutdown();
        for h in self.threads.drain(..) {
            if h.join().is_err() {
                self.net.count_io_error(u64::MAX);
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The `Error` frame for an error of the peer's making — lost framing
/// (`seq` 0) or a request the handler refused — counted on connection
/// `id`.
pub(crate) fn protocol_error(net: &NetStats, id: u64, seq: u64, e: &io::Error) -> Frame {
    net.count_protocol_error(id);
    Frame::error(seq, e)
}

/// The handler's reply to `frame`, a refusal turned into the counted
/// `Error` that echoes its seq.
pub(crate) fn answer<H: FrameHandler>(
    handler: &H,
    conn: &mut H::Conn,
    frame: &Frame,
    net: &NetStats,
    id: u64,
) -> Frame {
    handler
        .handle(conn, frame)
        .unwrap_or_else(|e| protocol_error(net, id, frame.seq, &e))
}

/// The thread-per-connection accept loop behind every blocking
/// listener: runs `serve` on a fresh thread per accepted connection
/// until `stop` is set, then joins them all. `socket` must be
/// nonblocking: the loop wakes when a connection arrives, and every
/// `idle_poll` to re-check `stop`. Failed accepts are counted in `net`
/// and paced by [`clue_aio::accept_backoff`]; a `serve` thread that
/// panicked is counted as an I/O error.
pub fn accept_loop(
    socket: &TcpListener,
    idle_poll: Duration,
    net: &NetStats,
    stop: &AtomicBool,
    serve: impl Fn(TcpStream, SocketAddr) + Sync,
) {
    let serve = &serve;
    let mut ready = clue_aio::ReadyWait::new(socket);
    let mut backoff = Duration::ZERO;
    let join = |t: ScopedJoinHandle<'_, ()>| {
        if t.join().is_err() {
            net.count_io_error(u64::MAX);
        }
    };
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match socket.accept() {
                Ok((stream, peer)) => {
                    backoff = Duration::ZERO;
                    threads.push(scope.spawn(move || serve(stream, peer)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    backoff = Duration::ZERO;
                    while let Some(i) = threads.iter().position(ScopedJoinHandle::is_finished) {
                        join(threads.swap_remove(i));
                    }
                    ready.wait(idle_poll);
                }
                Err(_) => {
                    net.count_accept_error();
                    backoff = clue_aio::accept_backoff(backoff);
                    std::thread::sleep(backoff);
                }
            }
        }
        threads.into_iter().for_each(join);
    });
}

/// What one idle-aware poll of a blocking socket produced.
pub enum Polled {
    /// A complete, valid frame.
    Frame(Frame),
    /// Nothing arrived within `idle_poll`.
    Idle,
    /// The peer closed the line at a frame boundary.
    Eof,
}

/// The read side of one blocking connection: a [`FrameDecoder`] holding
/// whatever a `recv` returned beyond the frame it was for, and the read
/// timeout last set on the socket, so the timeout is set only when the
/// wanted one changes.
#[derive(Debug, Default)]
pub struct FrameReader {
    decoder: FrameDecoder,
    timeout: Option<Duration>,
}

impl FrameReader {
    /// A reader for a socket whose read timeout is not yet known.
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    fn wait_at_most(&mut self, stream: &TcpStream, timeout: Duration) -> io::Result<()> {
        if self.timeout != Some(timeout) {
            stream.set_read_timeout(Some(timeout))?;
            self.timeout = Some(timeout);
        }
        Ok(())
    }

    /// Reads one frame, waiting at most `timeout` per `recv`.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::read_frame`]; a timeout is `WouldBlock` or
    /// `TimedOut`.
    pub fn read_frame(&mut self, stream: &TcpStream, timeout: Duration) -> io::Result<Frame> {
        self.wait_at_most(stream, timeout)?;
        self.decoder.read_frame(&mut &*stream)
    }

    /// Reads one frame, but blocks at most `idle_poll` while the line is
    /// quiet, so the caller can re-check its stop flag: a `recv` with
    /// nothing buffered waits `idle_poll`, one that finishes a frame
    /// waits [`IO_TIMEOUT`]. A frame already buffered costs no `recv`;
    /// one that arrives whole costs one, and no `setsockopt` while the
    /// line stays in that rhythm.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the stream has lost framing; any other error is a
    /// socket-level failure — including a timeout or EOF *mid-frame*.
    pub fn poll_frame(&mut self, stream: &TcpStream, idle_poll: Duration) -> io::Result<Polled> {
        loop {
            if let Some(frame) = self.decoder.poll_frame()? {
                return Ok(Polled::Frame(frame));
            }
            let idle = self.decoder.buffered() == 0;
            self.wait_at_most(stream, if idle { idle_poll } else { IO_TIMEOUT })?;
            match self.decoder.fill_from(&mut &*stream) {
                Ok(0) if idle => return Ok(Polled::Eof),
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e)
                    if idle
                        && matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) =>
                {
                    return Ok(Polled::Idle)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The threads driver: one connection served to completion on the
/// calling thread — decode a frame, run the handler, write the reply,
/// and only then decode the next frame.
fn serve_conn<H: FrameHandler>(
    stream: &TcpStream,
    peer: SocketAddr,
    handler: &H,
    net: &NetStats,
    cfg: ListenerConfig,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let id = net.register(peer.to_string());
    let send = |frame: &Frame| -> io::Result<()> {
        frame.write_to(&mut &*stream)?;
        net.count_frame_out(id);
        Ok(())
    };
    let mut conn = handler.open(id);
    let mut reader = FrameReader::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Stop taking new work; tell the peer why the line closes.
            let _ = send(&Frame::empty(FrameType::Shutdown, 0));
            break;
        }
        let frame = match reader.poll_frame(stream, cfg.idle_poll) {
            Ok(Polled::Frame(f)) => f,
            Ok(Polled::Idle) => continue,
            Ok(Polled::Eof) => break,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let _ = send(&protocol_error(net, id, 0, &e));
                break;
            }
            Err(_) => {
                net.count_io_error(id);
                break;
            }
        };
        net.count_frame_in(id);
        if frame.kind == FrameType::Shutdown {
            break;
        }
        let reply = answer(handler, &mut conn, &frame, net, id);
        if send(&reply).is_err() {
            net.count_io_error(id);
            break;
        }
        if reply.kind == FrameType::Error {
            break;
        }
    }
    handler.close(conn);
    net.close(id);
}
