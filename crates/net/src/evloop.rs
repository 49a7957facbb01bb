//! The evloop driver: every connection of a
//! [`Listener`](crate::Listener) multiplexed onto one `clue-aio`
//! reactor thread, with a small *bridge pool* of worker threads for the
//! handler calls that block. The
//! [frame handler contract](crate::listener), in reactor terms:
//!
//! * **One frame in flight.** Dispatching a frame to the bridge pool
//!   pauses the connection ([`Ctl::pause`] drops read interest) and the
//!   completion resumes it. The connection's [`FrameHandler::Conn`]
//!   state travels with the job and comes back with the completion, so
//!   no lock guards it.
//! * **Cheap frames stay on the loop.** Kinds the handler declares
//!   [`is_cheap`](FrameHandler::is_cheap) are answered inline;
//!   [`FrameHandler::close`] always runs on the bridge pool.
//! * **Drain**: stop listening, `Shutdown`-and-flush-close every idle
//!   connection, let in-flight calls finish (their completions close
//!   the line), and stop the loop when the last connection leaves —
//!   with a grace deadline as a backstop. The drain starts when
//!   [`Listener::request_shutdown`](crate::Listener::request_shutdown)
//!   sends the loop its message, so an idle loop sets no timer.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

use clue_aio::{CloseReason, ConnId, Ctl, Driver, EventLoop};
use crossbeam::channel::{self, Sender};

use crate::frame::{Frame, FrameDecoder, FrameType};
use crate::listener::{answer, protocol_error, FrameHandler, ListenerConfig, IO_TIMEOUT};
use crate::stats::NetStats;

/// Drain-grace deadline: force-stop the loop if in-flight work wedges.
const DRAIN_GRACE: u64 = 1;

/// Messages injected into the loop from other threads.
enum EvMsg<C> {
    /// A bridge worker finished the handler call for `conn`.
    Done {
        conn: ConnId,
        reply: Frame,
        /// The connection's handler state, returned from the worker.
        state: C,
    },
    /// Begin the graceful drain.
    Shutdown,
}

/// Work shipped to the bridge pool.
enum Job<C> {
    /// One frame's worth of blocking handler work.
    Frame {
        conn: ConnId,
        frame: Frame,
        state: C,
    },
    /// `FrameHandler::close` for a connection that is gone.
    Close { state: C },
}

/// Per-connection driver state.
struct ConnState<C> {
    decoder: FrameDecoder,
    /// `None` exactly while a job (carrying the state) is on the bridge
    /// pool; reads are paused and no further frame is dispatched until
    /// it completes.
    state: Option<C>,
}

struct EvDriver<H: FrameHandler> {
    handler: Arc<H>,
    net: Arc<NetStats>,
    jobs: Sender<Job<H::Conn>>,
    conns: HashMap<ConnId, ConnState<H::Conn>>,
    draining: bool,
}

type Loop<'a, H> = Ctl<'a, EvMsg<<H as FrameHandler>::Conn>>;

impl<H: FrameHandler> EvDriver<H> {
    fn send_frame(&self, ctl: &mut Loop<'_, H>, conn: ConnId, frame: &Frame) -> bool {
        let sent = ctl.send(conn, &frame.encode());
        if sent {
            self.net.count_frame_out();
        }
        sent
    }

    /// Writes `reply`; closes the line if it is fatal or unsendable,
    /// otherwise keeps pumping.
    fn reply(&mut self, ctl: &mut Loop<'_, H>, conn: ConnId, reply: &Frame) -> bool {
        let sent = self.send_frame(ctl, conn, reply);
        let open = sent && reply.kind != FrameType::Error;
        if !open {
            ctl.close(conn);
        }
        open
    }

    /// Decodes and dispatches frames until the connection goes
    /// in-flight, runs dry, or dies.
    fn pump(&mut self, ctl: &mut Loop<'_, H>, conn: ConnId) {
        // Mid-drain, stop taking new work even if frames are already
        // buffered — the threads driver likewise discards unread socket
        // data once the flag is up.
        while !self.draining {
            let Some(c) = self.conns.get_mut(&conn) else {
                return;
            };
            let Some(state) = c.state.as_mut() else {
                return;
            };
            let frame = match c.decoder.poll_frame() {
                Ok(None) => {
                    ctl.resume(conn);
                    return;
                }
                Ok(Some(frame)) => frame,
                Err(e) => {
                    let lost = protocol_error(&self.net, 0, &e);
                    self.reply(ctl, conn, &lost);
                    return;
                }
            };
            self.net.count_frame_in();
            if frame.kind == FrameType::Shutdown {
                ctl.close(conn);
                return;
            }
            if self.handler.is_cheap(frame.kind) {
                let reply = answer(&*self.handler, state, &frame, &self.net);
                if !self.reply(ctl, conn, &reply) {
                    return;
                }
                continue;
            }
            // Blocking work: pause reads (wire backpressure) and ship
            // to the bridge pool with the connection's state.
            let state = c.state.take().expect("checked above");
            ctl.pause(conn);
            let job = Job::Frame { conn, frame, state };
            if self.jobs.send(job).is_err() {
                // Bridge pool gone — only during teardown.
                ctl.close(conn);
            }
            return;
        }
        // Draining with nothing in flight.
        if let Some(c) = self.conns.get(&conn) {
            if c.state.is_some() {
                self.send_frame(ctl, conn, &Frame::empty(FrameType::Shutdown, 0));
                ctl.close(conn);
            }
        }
    }

    fn begin_drain(&mut self, ctl: &mut Loop<'_, H>) {
        if self.draining {
            return;
        }
        self.draining = true;
        ctl.stop_listening();
        let all: Vec<ConnId> = self.conns.keys().copied().collect();
        for conn in all {
            self.pump(ctl, conn);
        }
        if ctl.conn_count() == 0 {
            ctl.stop();
        } else {
            // Backstop: an in-flight call that outlives its own timeout
            // (or a peer that never drains its socket) must not wedge
            // the drain forever.
            ctl.set_timer(IO_TIMEOUT + IO_TIMEOUT, DRAIN_GRACE);
        }
    }
}

impl<H: FrameHandler> Driver for EvDriver<H> {
    type Msg = EvMsg<H::Conn>;

    fn on_accept(&mut self, ctl: &mut Loop<'_, H>, conn: ConnId, _peer: SocketAddr) {
        self.net.register();
        self.conns.insert(
            conn,
            ConnState {
                decoder: FrameDecoder::new(),
                state: Some(self.handler.open()),
            },
        );
        if self.draining {
            self.pump(ctl, conn);
        }
    }

    fn on_accept_error(&mut self, _ctl: &mut Loop<'_, H>, _err: &io::Error) {
        // The reactor already applied its capped backoff; just count.
        self.net.count_accept_error();
    }

    fn on_data(&mut self, ctl: &mut Loop<'_, H>, conn: ConnId, buf: &mut Vec<u8>) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.decoder.extend(buf);
        }
        buf.clear();
        self.pump(ctl, conn);
    }

    fn on_close(&mut self, ctl: &mut Loop<'_, H>, conn: ConnId, reason: &CloseReason) {
        if let Some(c) = self.conns.remove(&conn) {
            if matches!(reason, CloseReason::Err(_)) {
                self.net.count_io_error();
            }
            self.net.close();
            if let Some(state) = c.state {
                let _ = self.jobs.send(Job::Close { state });
            }
        }
        if self.draining && ctl.conn_count() == 0 {
            ctl.stop();
        }
    }

    fn on_msg(&mut self, ctl: &mut Loop<'_, H>, msg: Self::Msg) {
        match msg {
            EvMsg::Shutdown => self.begin_drain(ctl),
            EvMsg::Done { conn, reply, state } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    // The connection died while its job ran; the side
                    // effects stand (the client resumes from its last
                    // ack), the reply just has nowhere to go.
                    let _ = self.jobs.send(Job::Close { state });
                    return;
                };
                c.state = Some(state);
                if self.reply(ctl, conn, &reply) {
                    self.pump(ctl, conn);
                }
            }
        }
    }

    fn on_timer(&mut self, ctl: &mut Loop<'_, H>, tag: u64) {
        if tag == DRAIN_GRACE && self.draining {
            ctl.stop();
        }
    }
}

/// A booted evloop driver: a drain-now wake-up, and its threads — the
/// loop first, then the bridge pool.
pub(crate) type EvRuntime = (Box<dyn Fn() + Send + Sync>, Vec<JoinHandle<()>>);

/// Boots the evloop driver over an already-bound listener. Join the
/// loop first: dropping its driver closes the job channel, which
/// releases the workers (after they run any pending closes).
pub(crate) fn start<H: FrameHandler>(
    listener: TcpListener,
    handler: Arc<H>,
    net: &Arc<NetStats>,
    cfg: ListenerConfig,
) -> io::Result<EvRuntime> {
    // The whole point of this driver is tens of thousands of
    // connections; a stock 1024-fd soft limit would park the accept
    // path in EMFILE backoff long before that.
    clue_aio::rlimit::raise_nofile(65_536);
    let (jobs_tx, jobs_rx) = channel::unbounded::<Job<H::Conn>>();
    let driver = EvDriver {
        handler: Arc::clone(&handler),
        net: Arc::clone(net),
        jobs: jobs_tx,
        conns: HashMap::new(),
        draining: false,
    };
    let mut el = EventLoop::new(driver)?;
    el.add_listener(listener)?;

    let workers: Vec<_> = (0..cfg.bridge_threads.max(1))
        .map(|_| {
            let jobs = jobs_rx.clone();
            let done = el.handle();
            let (handler, net) = (Arc::clone(&handler), Arc::clone(net));
            std::thread::spawn(move || {
                while let Ok(job) = jobs.recv() {
                    match job {
                        Job::Close { state } => handler.close(state),
                        Job::Frame {
                            conn,
                            frame,
                            mut state,
                        } => {
                            let reply = answer(&*handler, &mut state, &frame, &net);
                            if !done.send(EvMsg::Done { conn, reply, state }) {
                                return;
                            }
                        }
                    }
                }
            })
        })
        .collect();

    let wake = el.handle();
    let loop_thread = std::thread::spawn(move || {
        // An Err here is an unrecoverable poller failure; the Listener
        // counts the failed join. Returning drops the driver, closing
        // the job channel and releasing the bridge pool.
        let _ = el.run();
    });

    Ok((
        Box::new(move || {
            let _ = wake.send(EvMsg::Shutdown);
        }),
        std::iter::once(loop_thread).chain(workers).collect(),
    ))
}
