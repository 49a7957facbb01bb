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
//!    flushes its reply first. Nothing waits for a timer to notice:
//!    the request wakes the accept loop and every parked reader.
//! 5. **Backpressure is a paused read.** While `handle` blocks (a full
//!    `Block` ingress, a slow shard) the connection's socket is not
//!    read — the thread is busy, or the reactor dropped read interest —
//!    so the kernel buffer fills and the peer's TCP window closes. The
//!    read-ahead of rule 1 is bounded — one 4 KiB chunk under threads,
//!    the reactor's read budget under evloop — so it does not change
//!    this.

use std::io::{self, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::Duration;

use clue_aio::Stop;

use crate::frame::{Frame, FrameDecoder, FrameType};
use crate::server::Transport;
use crate::stats::NetStats;

/// The request/reply logic of one serving tier.
///
/// Shared by every connection of a [`Listener`]; per-connection state
/// lives in [`FrameHandler::Conn`], which the evloop driver ships to
/// the bridge pool with each blocking frame and gets back with the
/// reply — the one-in-flight rule is its mutual exclusion. The drivers
/// count accepts, frames and errors into the listener's [`NetStats`]
/// aggregates and keep nothing of a connection once it closes.
pub trait FrameHandler: Send + Sync + 'static {
    /// Per-connection state.
    type Conn: Send + 'static;

    /// A connection was accepted. Must not block.
    fn open(&self) -> Self::Conn;

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
/// a standby's dial of its primary. A read with nothing buffered is not
/// bounded: a stop wakes it.
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
}

/// A bound socket serving one [`FrameHandler`]: owns the listener
/// socket, the stop that starts its drain, and the drain-and-join logic
/// for either driver. Dropping it drains.
pub struct Listener {
    local_addr: SocketAddr,
    stop: Arc<Stop>,
    net: Arc<NetStats>,
    /// Evloop only: tells the reactor to start the drain.
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
        let stop = Arc::new(Stop::new());
        let (wake, threads) = match cfg.transport {
            Transport::Threads => {
                socket.set_nonblocking(true)?;
                let (net, stop) = (Arc::clone(&net), Arc::clone(&stop));
                let accept = std::thread::spawn(move || {
                    accept_loop(&socket, &net, &stop, |stream| {
                        serve_conn(stream, &*handler, &net, &stop);
                    });
                });
                (None, vec![accept])
            }
            Transport::Evloop => {
                let (wake, threads) = crate::evloop::start(socket, handler, &net, cfg)?;
                (Some(wake), threads)
            }
        };
        Ok(Listener {
            local_addr,
            stop,
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

    /// Requests the drain without blocking.
    pub fn request_shutdown(&self) {
        self.stop.request();
        if let Some(wake) = &self.wake {
            wake();
        }
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.stop.is_requested()
    }

    /// The registry this listener counts into.
    #[must_use]
    pub fn net_stats(&self) -> &NetStats {
        &self.net
    }

    /// Drains (contract rule 4) and joins every thread; the listening
    /// socket is closed when this returns. Idempotent. A thread that
    /// panicked is counted as a [`NetStats`] I/O error.
    pub fn stop(&mut self) {
        self.request_shutdown();
        for h in self.threads.drain(..) {
            if h.join().is_err() {
                self.net.count_io_error();
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
/// (`seq` 0) or a request the handler refused — counted in `net`.
pub(crate) fn protocol_error(net: &NetStats, seq: u64, e: &io::Error) -> Frame {
    net.count_protocol_error();
    Frame::error(seq, e)
}

/// The handler's reply to `frame`, a refusal turned into the counted
/// `Error` that echoes its seq.
pub(crate) fn answer<H: FrameHandler>(
    handler: &H,
    conn: &mut H::Conn,
    frame: &Frame,
    net: &NetStats,
) -> Frame {
    handler
        .handle(conn, frame)
        .unwrap_or_else(|e| protocol_error(net, frame.seq, &e))
}

/// The thread-per-connection accept loop behind every blocking
/// listener: runs `serve` on a fresh thread per accepted connection
/// until `stop` is requested, then wakes and joins them all. `socket`
/// must be nonblocking: the loop parks until a connection arrives or
/// the stop is requested. Failed accepts are counted in `net` and paced
/// by [`clue_aio::accept_backoff`]; a `serve` thread that panicked is
/// counted as an I/O error.
///
/// The loop keeps a clone of each live connection's socket, and at the
/// stop shuts its read half: a `serve` thread parked on a quiet peer
/// reads EOF, while the write half stays open for a reply in flight
/// and a `Shutdown` notice. Each socket is shut both ways once `serve`
/// returns, so the peer sees the close at once rather than when the
/// loop next reaps finished threads and drops their clones.
pub fn accept_loop(
    socket: &TcpListener,
    net: &NetStats,
    stop: &Stop,
    serve: impl Fn(&TcpStream) + Sync,
) {
    let serve = &serve;
    let mut ready = clue_aio::ReadyWait::new(socket, stop);
    let mut backoff = Duration::ZERO;
    let join = |(t, _): (ScopedJoinHandle<'_, ()>, TcpStream)| {
        if t.join().is_err() {
            net.count_io_error();
        }
    };
    std::thread::scope(|scope| {
        let mut conns = Vec::new();
        while !stop.is_requested() {
            match socket.accept() {
                Ok((stream, _)) => {
                    backoff = Duration::ZERO;
                    // Without a clone the stop could not wake this
                    // connection's reader: refuse it, as for any
                    // other fd exhaustion.
                    let Ok(clone) = stream.try_clone() else {
                        net.count_accept_error();
                        continue;
                    };
                    let conn = scope.spawn(move || {
                        serve(&stream);
                        let _ = stream.shutdown(Shutdown::Both);
                    });
                    conns.push((conn, clone));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    backoff = Duration::ZERO;
                    while let Some(i) = conns.iter().position(|(t, _)| t.is_finished()) {
                        join(conns.swap_remove(i));
                    }
                    ready.wait();
                }
                Err(_) => {
                    net.count_accept_error();
                    backoff = clue_aio::accept_backoff(backoff);
                    stop.wait_timeout(backoff);
                }
            }
        }
        for (_, clone) in &conns {
            let _ = clone.shutdown(Shutdown::Read);
        }
        conns.into_iter().for_each(join);
    });
}

/// The read side of one blocking connection: a [`FrameDecoder`] holding
/// whatever a `recv` returned beyond the frame it was for, and the read
/// timeout last set on the socket, so the timeout is set only when the
/// wanted one changes.
#[derive(Debug, Default)]
pub struct FrameReader {
    decoder: FrameDecoder,
    /// `None` until the first read sets one.
    timeout: Option<Option<Duration>>,
}

impl FrameReader {
    /// A reader for a socket whose read timeout is not yet known.
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    fn wait_at_most(&mut self, stream: &TcpStream, timeout: Option<Duration>) -> io::Result<()> {
        if self.timeout != Some(timeout) {
            stream.set_read_timeout(timeout)?;
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
        self.wait_at_most(stream, Some(timeout))?;
        self.decoder.read_frame(&mut &*stream)
    }

    /// Reads the next frame; `None` once the peer has closed the line at
    /// a frame boundary (or a stop has shut the socket's read half). A
    /// `recv` with nothing buffered waits for as long as the line stays
    /// quiet; one that finishes a frame waits at most [`IO_TIMEOUT`]. A
    /// frame already buffered costs no `recv`; one that arrives whole
    /// costs one, and no `setsockopt` while the line stays in that
    /// rhythm.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the stream has lost framing; any other error is a
    /// socket-level failure — including a timeout or EOF *mid-frame*.
    pub fn next_frame(&mut self, stream: &TcpStream) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.decoder.poll_frame()? {
                return Ok(Some(frame));
            }
            let idle = self.decoder.buffered() == 0;
            self.wait_at_most(stream, (!idle).then_some(IO_TIMEOUT))?;
            match self.decoder.fill_from(&mut &*stream) {
                Ok(0) if idle => return Ok(None),
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The threads driver: one connection served to completion on the
/// calling thread — decode a frame, run the handler, write the reply,
/// and only then decode the next frame.
fn serve_conn<H: FrameHandler>(stream: &TcpStream, handler: &H, net: &NetStats, stop: &Stop) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    net.register();
    let send = |frame: &Frame| -> io::Result<()> {
        frame.write_to(&mut &*stream)?;
        net.count_frame_out();
        Ok(())
    };
    let mut conn = handler.open();
    let mut reader = FrameReader::new();
    loop {
        // A stop shuts the read half, so whatever this read returns
        // once it is requested, the line is done.
        let read = reader.next_frame(stream);
        if stop.is_requested() {
            // Stop taking new work; tell the peer why the line closes.
            let _ = send(&Frame::empty(FrameType::Shutdown, 0));
            break;
        }
        let frame = match read {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let _ = send(&protocol_error(net, 0, &e));
                break;
            }
            Err(_) => {
                net.count_io_error();
                break;
            }
        };
        net.count_frame_in();
        if frame.kind == FrameType::Shutdown {
            break;
        }
        let reply = answer(handler, &mut conn, &frame, net);
        if send(&reply).is_err() {
            net.count_io_error();
            break;
        }
        if reply.kind == FrameType::Error {
            break;
        }
    }
    handler.close(conn);
    net.close();
}
