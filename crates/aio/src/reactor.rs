//! The single-threaded reactor: poller + connection slab + timers +
//! injector, with all protocol logic delegated to a [`Driver`].

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Backend, Event, Interest, Poller, Token, Waker};

/// Reserved token for the waker pipe.
const TOKEN_WAKER: usize = 0;
/// Listener tokens live in `[TOKEN_LISTENER_BASE, TOKEN_CONN_BASE)`.
const TOKEN_LISTENER_BASE: usize = 1;
/// Connection tokens are `TOKEN_CONN_BASE + slot`.
const TOKEN_CONN_BASE: usize = 1024;

/// Stable identifier for one connection: slot index plus a generation
/// stamp, so an id held across a close can never touch the slot's next
/// tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(u64);

impl ConnId {
    fn new(slot: usize, gen: u32) -> ConnId {
        ConnId((u64::from(gen) << 32) | slot as u64)
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw 64-bit value (for logs/stats keys).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Why a connection left the loop.
#[derive(Debug)]
pub enum CloseReason {
    /// Peer closed cleanly (EOF at a read).
    Eof,
    /// Socket-level failure (read or write).
    Err(io::Error),
    /// The driver asked for the close ([`Ctl::close`]); fired once the
    /// outbound buffer flushed (or flushing failed).
    Local,
}

/// Loop tuning knobs.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Poller backend; `Auto` honors the `CLUE_AIO_BACKEND` override
    /// (`epoll` / `poll`) before resolving platform-best.
    pub backend: Backend,
    /// Pause reads on a connection whose outbound buffer exceeds this.
    pub high_watermark: usize,
    /// Resume reads once the outbound buffer drains below this.
    pub low_watermark: usize,
    /// Bytes per `read(2)` call.
    pub read_chunk: usize,
    /// Max `read(2)` calls per readiness report (fairness bound; a
    /// still-readable socket re-fires on the next poll).
    pub read_budget: usize,
    /// First accept-error backoff pause (doubles per consecutive
    /// error).
    pub accept_backoff_base: Duration,
    /// Accept-error backoff ceiling.
    pub accept_backoff_cap: Duration,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            backend: Backend::Auto,
            high_watermark: 256 << 10,
            low_watermark: 64 << 10,
            read_chunk: 16 << 10,
            read_budget: 4,
            accept_backoff_base: Duration::from_millis(5),
            accept_backoff_cap: Duration::from_secs(1),
        }
    }
}

/// What the loop does for the driver: everything that touches sockets,
/// buffers, timers, or the loop lifecycle.
///
/// All mutations are applied immediately except connection closes,
/// which defer until the outbound buffer flushes (and always report
/// through [`Driver::on_close`]).
pub struct Ctl<'a, M> {
    core: &'a mut Core,
    handle_tx: &'a Sender<M>,
    waker: &'a Arc<Waker>,
}

impl<M> Ctl<'_, M> {
    /// Queues `bytes` on `conn`'s outbound buffer (writing directly to
    /// the socket when it is idle) and returns false if the connection
    /// is unknown or already closing.
    pub fn send(&mut self, conn: ConnId, bytes: &[u8]) -> bool {
        self.core.send(conn, bytes)
    }

    /// Drops read interest: the peer's bytes stay in the kernel buffer
    /// and its TCP window closes. Buffered-but-undelivered inbound
    /// bytes are re-delivered on [`resume`](Self::resume).
    pub fn pause(&mut self, conn: ConnId) {
        self.core.set_paused(conn, true);
    }

    /// Restores read interest; any bytes already buffered are
    /// re-delivered to [`Driver::on_data`] before new socket reads.
    pub fn resume(&mut self, conn: ConnId) {
        self.core.set_paused(conn, false);
    }

    /// Closes `conn` after its outbound buffer flushes;
    /// [`Driver::on_close`] fires with [`CloseReason::Local`].
    pub fn close(&mut self, conn: ConnId) {
        self.core.request_close(conn);
    }

    /// Registers an already-connected outbound stream (e.g. from a
    /// dialer thread) with the loop.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be made nonblocking or registered.
    pub fn adopt(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        self.core.adopt(stream)
    }

    /// Arms a one-shot timer `after` from now; [`Driver::on_timer`]
    /// fires with `tag`.
    pub fn set_timer(&mut self, after: Duration, tag: u64) {
        self.core
            .set_timer(Instant::now() + after, TimerKind::Driver(tag));
    }

    /// Stops accepting new connections (existing ones keep running);
    /// the drain path calls this first.
    pub fn stop_listening(&mut self) {
        self.core.stop_listening();
    }

    /// Exits the loop after the current dispatch cycle. Connections
    /// still open are dropped without callbacks — drivers wanting a
    /// graceful drain close every connection first and call this from
    /// the last [`Driver::on_close`].
    pub fn stop(&mut self) {
        self.core.stop = true;
    }

    /// Open connections (including ones mid-close).
    #[must_use]
    pub fn conn_count(&self) -> usize {
        self.core.live
    }

    /// The peer address recorded at accept/adopt.
    #[must_use]
    pub fn peer(&self, conn: ConnId) -> Option<SocketAddr> {
        self.core.conn(conn).map(|c| c.peer)
    }

    /// Bytes currently queued outbound on `conn`.
    #[must_use]
    pub fn pending_out(&self, conn: ConnId) -> usize {
        self.core
            .conn(conn)
            .map_or(0, |c| c.write_buf.len() - c.write_pos)
    }

    /// Accept errors (EMFILE and friends) absorbed by backoff so far.
    #[must_use]
    pub fn accept_errors(&self) -> u64 {
        self.core.accept_errors
    }

    /// A cross-thread handle to this loop.
    #[must_use]
    pub fn handle(&self) -> LoopHandle<M>
    where
        M: Send,
    {
        LoopHandle {
            tx: self.handle_tx.clone(),
            waker: Arc::clone(self.waker),
        }
    }
}

/// Protocol logic the loop calls into. All callbacks run on the loop
/// thread; they must not block (hand blocking work to bridge threads
/// and return results via [`LoopHandle::send`]).
pub trait Driver: Sized {
    /// Messages other threads inject via [`LoopHandle::send`].
    type Msg: Send + 'static;

    /// A listener accepted `conn` from `peer`.
    fn on_accept(&mut self, ctl: &mut Ctl<'_, Self::Msg>, conn: ConnId, peer: SocketAddr) {
        let _ = (ctl, conn, peer);
    }

    /// `accept()` failed with a non-`WouldBlock` error; the listener
    /// is pausing under capped backoff.
    fn on_accept_error(&mut self, ctl: &mut Ctl<'_, Self::Msg>, err: &io::Error) {
        let _ = (ctl, err);
    }

    /// Inbound bytes for `conn`: everything read so far and not yet
    /// consumed. Drain what you can parse; leftovers are re-delivered
    /// with the next readiness (or on resume).
    fn on_data(&mut self, ctl: &mut Ctl<'_, Self::Msg>, conn: ConnId, buf: &mut Vec<u8>);

    /// `conn` left the loop. Fires exactly once per connection, for
    /// peer-initiated and driver-initiated closes alike.
    fn on_close(&mut self, ctl: &mut Ctl<'_, Self::Msg>, conn: ConnId, reason: &CloseReason);

    /// A message arrived from a [`LoopHandle`].
    fn on_msg(&mut self, ctl: &mut Ctl<'_, Self::Msg>, msg: Self::Msg) {
        let _ = (ctl, msg);
    }

    /// A timer armed with [`Ctl::set_timer`] expired.
    fn on_timer(&mut self, ctl: &mut Ctl<'_, Self::Msg>, tag: u64) {
        let _ = (ctl, tag);
    }
}

/// Clonable cross-thread handle: inject messages and wake the loop.
pub struct LoopHandle<M> {
    tx: Sender<M>,
    waker: Arc<Waker>,
}

impl<M> Clone for LoopHandle<M> {
    fn clone(&self) -> Self {
        LoopHandle {
            tx: self.tx.clone(),
            waker: Arc::clone(&self.waker),
        }
    }
}

impl<M: Send> LoopHandle<M> {
    /// Injects `msg`; the loop wakes (if blocked) and dispatches it to
    /// [`Driver::on_msg`]. Returns false once the loop has exited.
    pub fn send(&self, msg: M) -> bool {
        if self.tx.send(msg).is_err() {
            return false;
        }
        let _ = self.waker.wake();
        true
    }
}

enum TimerKind {
    Driver(u64),
    /// Re-arm listener `idx` after accept backoff.
    Listener(usize),
}

struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    gen: u32,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// Driver asked for a read pause.
    paused: bool,
    /// Write buffer crossed the high watermark.
    throttled: bool,
    /// Close requested; flush then drop.
    closing: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn desired_interest(&self) -> Interest {
        let mut want = Interest::NONE;
        if !self.paused && !self.throttled && !self.closing {
            want = want.with(Interest::READABLE);
        }
        if self.pending_out() > 0 {
            want = want.with(Interest::WRITABLE);
        }
        want
    }
}

struct ListenerSlot {
    listener: TcpListener,
    /// In the poller's interest set right now (false during backoff or
    /// after `stop_listening`).
    armed: bool,
    backoff: Duration,
    stopped: bool,
}

/// Everything the loop mutates; split from the driver so `Ctl` can
/// borrow it while the driver is borrowed for a callback.
struct Core {
    poller: Poller,
    cfg: LoopConfig,
    listeners: Vec<ListenerSlot>,
    conns: Vec<Option<Conn>>,
    /// Next generation stamp per slot (survives the tenant).
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    timers: BTreeMap<(Instant, u64), TimerKind>,
    timer_seq: u64,
    /// Slots whose close finished and whose `on_close` is pending.
    done_closes: Vec<(ConnId, CloseReason)>,
    /// Conns whose buffered inbound bytes need re-delivery (resume).
    replay: Vec<ConnId>,
    accept_errors: u64,
    stop: bool,
    scratch: Vec<u8>,
}

impl Core {
    fn conn(&self, id: ConnId) -> Option<&Conn> {
        match self.conns.get(id.slot()) {
            Some(Some(c)) if c.gen == id.gen() => Some(c),
            _ => None,
        }
    }

    fn conn_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        match self.conns.get_mut(id.slot()) {
            Some(Some(c)) if c.gen == id.gen() => Some(c),
            _ => None,
        }
    }

    fn set_timer(&mut self, at: Instant, kind: TimerKind) {
        self.timer_seq += 1;
        self.timers.insert((at, self.timer_seq), kind);
    }

    fn register_conn(&mut self, stream: TcpStream, peer: SocketAddr) -> io::Result<ConnId> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let gen = self.gens[slot];
        let conn = Conn {
            stream,
            peer,
            gen,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            registered: Interest::READABLE,
            paused: false,
            throttled: false,
            closing: false,
        };
        if let Err(e) = self.poller.register(
            conn.stream.as_raw_fd(),
            Token(TOKEN_CONN_BASE + slot),
            Interest::READABLE,
        ) {
            self.free.push(slot);
            return Err(e);
        }
        self.conns[slot] = Some(conn);
        self.live += 1;
        Ok(ConnId::new(slot, gen))
    }

    fn adopt(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        let peer = stream.peer_addr()?;
        self.register_conn(stream, peer)
    }

    /// Applies the conn's desired interest to the poller if it drifted.
    fn sync_interest(&mut self, id: ConnId) {
        let Some(c) = self.conn(id) else { return };
        let want = c.desired_interest();
        if want == c.registered {
            return;
        }
        let fd = c.stream.as_raw_fd();
        let token = Token(TOKEN_CONN_BASE + id.slot());
        if self.poller.reregister(fd, token, want).is_ok() {
            if let Some(c) = self.conn_mut(id) {
                c.registered = want;
            }
        }
    }

    fn set_paused(&mut self, id: ConnId, paused: bool) {
        let Some(c) = self.conn_mut(id) else { return };
        if c.paused == paused {
            return;
        }
        c.paused = paused;
        let has_buffered = !c.read_buf.is_empty();
        self.sync_interest(id);
        if !paused && has_buffered {
            self.replay.push(id);
        }
    }

    fn send(&mut self, id: ConnId, bytes: &[u8]) -> bool {
        let high = self.cfg.high_watermark;
        let Some(c) = self.conn_mut(id) else {
            return false;
        };
        if c.closing {
            return false;
        }
        // Fast path: idle socket, try a direct write and buffer only
        // the remainder.
        let mut offset = 0;
        if c.pending_out() == 0 {
            loop {
                match c.stream.write(&bytes[offset..]) {
                    Ok(n) => {
                        offset += n;
                        if offset == bytes.len() {
                            return true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Surface the failure through the read path /
                        // flush path; buffer the rest so close
                        // accounting stays uniform.
                        break;
                    }
                }
            }
        }
        c.write_buf.extend_from_slice(&bytes[offset..]);
        if c.pending_out() > high && !c.throttled {
            c.throttled = true;
        }
        self.sync_interest(id);
        true
    }

    fn request_close(&mut self, id: ConnId) {
        let Some(c) = self.conn_mut(id) else { return };
        if c.closing {
            return;
        }
        c.closing = true;
        if c.pending_out() == 0 {
            self.finish_close(id, CloseReason::Local);
        } else {
            self.sync_interest(id);
        }
    }

    /// Tears the slot down and queues the driver notification.
    fn finish_close(&mut self, id: ConnId, reason: CloseReason) {
        let slot = id.slot();
        let Some(c) = self.conn(id) else { return };
        let fd = c.stream.as_raw_fd();
        let _ = self.poller.deregister(fd);
        self.conns[slot] = None;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        self.done_closes.push((id, reason));
    }

    /// Drains the outbound buffer as far as the socket allows.
    fn flush(&mut self, id: ConnId) {
        let low = self.cfg.low_watermark;
        let Some(c) = self.conn_mut(id) else { return };
        while c.write_pos < c.write_buf.len() {
            match c.stream.write(&c.write_buf[c.write_pos..]) {
                Ok(0) => break,
                Ok(n) => c.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.finish_close(id, CloseReason::Err(e));
                    return;
                }
            }
        }
        if c.write_pos == c.write_buf.len() {
            c.write_buf.clear();
            c.write_pos = 0;
        } else if c.write_pos > (64 << 10) && c.write_pos * 2 >= c.write_buf.len() {
            c.write_buf.drain(..c.write_pos);
            c.write_pos = 0;
        }
        let drained = c.pending_out() <= low;
        let was_throttled = c.throttled;
        let empty = c.pending_out() == 0;
        let closing = c.closing;
        let has_buffered = !c.read_buf.is_empty();
        if was_throttled && drained {
            c.throttled = false;
        }
        if empty && closing {
            self.finish_close(id, CloseReason::Local);
            return;
        }
        self.sync_interest(id);
        if was_throttled && drained && has_buffered {
            self.replay.push(id);
        }
    }

    fn stop_listening(&mut self) {
        for i in 0..self.listeners.len() {
            let fd = self.listeners[i].listener.as_raw_fd();
            if self.listeners[i].armed {
                let _ = self.poller.deregister(fd);
                self.listeners[i].armed = false;
            }
            self.listeners[i].stopped = true;
        }
    }

    fn rearm_listener(&mut self, idx: usize) {
        let slot = &mut self.listeners[idx];
        if slot.armed || slot.stopped {
            return;
        }
        let fd = slot.listener.as_raw_fd();
        if self
            .poller
            .register(fd, Token(TOKEN_LISTENER_BASE + idx), Interest::READABLE)
            .is_ok()
        {
            slot.armed = true;
        }
    }
}

/// The event loop: construct, add listeners, then [`run`](Self::run).
pub struct EventLoop<D: Driver> {
    core: Core,
    driver: D,
    tx: Sender<D::Msg>,
    rx: Receiver<D::Msg>,
    waker: Arc<Waker>,
}

impl<D: Driver> EventLoop<D> {
    /// Builds a loop around `driver`.
    ///
    /// # Errors
    ///
    /// Fails if the poller or waker cannot be created.
    pub fn new(driver: D, cfg: LoopConfig) -> io::Result<EventLoop<D>> {
        let mut backend = cfg.backend;
        if backend == Backend::Auto {
            if let Ok(name) = std::env::var("CLUE_AIO_BACKEND") {
                if let Some(b) = Backend::from_name(&name) {
                    backend = b;
                }
            }
        }
        let mut poller = Poller::with_backend(backend)?;
        let waker = Arc::new(Waker::new()?);
        waker.register(&mut poller, Token(TOKEN_WAKER))?;
        let (tx, rx) = std::sync::mpsc::channel();
        let scratch = vec![0u8; cfg.read_chunk.max(1)];
        Ok(EventLoop {
            core: Core {
                poller,
                cfg,
                listeners: Vec::new(),
                conns: Vec::new(),
                gens: Vec::new(),
                free: Vec::new(),
                live: 0,
                timers: BTreeMap::new(),
                timer_seq: 0,
                done_closes: Vec::new(),
                replay: Vec::new(),
                accept_errors: 0,
                stop: false,
                scratch,
            },
            driver,
            tx,
            rx,
            waker,
        })
    }

    /// Adds a bound listener; incoming connections surface via
    /// [`Driver::on_accept`].
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot be made nonblocking or registered.
    pub fn add_listener(&mut self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let idx = self.core.listeners.len();
        self.core.poller.register(
            listener.as_raw_fd(),
            Token(TOKEN_LISTENER_BASE + idx),
            Interest::READABLE,
        )?;
        self.core.listeners.push(ListenerSlot {
            listener,
            armed: true,
            backoff: Duration::ZERO,
            stopped: false,
        });
        Ok(())
    }

    /// A cross-thread handle (clone freely).
    #[must_use]
    pub fn handle(&self) -> LoopHandle<D::Msg> {
        LoopHandle {
            tx: self.tx.clone(),
            waker: Arc::clone(&self.waker),
        }
    }

    /// Arms a driver timer before the loop starts — the seam a driver
    /// uses to schedule its first periodic tick (heartbeat sweep,
    /// shutdown poll) when no [`Ctl`] exists yet. Identical to
    /// [`Ctl::set_timer`].
    pub fn set_timer(&mut self, after: Duration, tag: u64) {
        self.core
            .set_timer(Instant::now() + after, TimerKind::Driver(tag));
    }

    /// Runs until a driver calls [`Ctl::stop`]; returns the driver for
    /// final-state extraction.
    ///
    /// # Errors
    ///
    /// Fails on unrecoverable poller errors.
    pub fn run(self) -> io::Result<D> {
        let EventLoop {
            mut core,
            mut driver,
            tx,
            rx,
            waker,
        } = self;
        let mut events: Vec<Event> = Vec::new();
        while !core.stop {
            let timeout = core
                .timers
                .keys()
                .next()
                .map(|(at, _)| at.saturating_duration_since(Instant::now()));
            core.poller.wait(&mut events, timeout)?;

            for &ev in &events {
                if core.stop {
                    break;
                }
                let t = ev.token.0;
                if t == TOKEN_WAKER {
                    waker.drain();
                } else if t >= TOKEN_CONN_BASE {
                    let slot = t - TOKEN_CONN_BASE;
                    let Some(id) = core
                        .conns
                        .get(slot)
                        .and_then(|c| c.as_ref().map(|c| ConnId::new(slot, c.gen)))
                    else {
                        continue;
                    };
                    if ev.writable {
                        core.flush(id);
                    }
                    if ev.wants_read() {
                        handle_readable(&mut core, &mut driver, &tx, &waker, id);
                    }
                } else {
                    let idx = t - TOKEN_LISTENER_BASE;
                    handle_accept(&mut core, &mut driver, &tx, &waker, idx);
                }
                service_deferred(&mut core, &mut driver, &tx, &waker);
            }

            // Injected messages (drained every cycle: a message can
            // race the waker byte).
            while let Ok(msg) = rx.try_recv() {
                let mut ctl = Ctl {
                    core: &mut core,
                    handle_tx: &tx,
                    waker: &waker,
                };
                driver.on_msg(&mut ctl, msg);
                service_deferred(&mut core, &mut driver, &tx, &waker);
            }

            // Expired timers.
            let now = Instant::now();
            while let Some((&(at, seq), _)) = core.timers.iter().next() {
                if at > now {
                    break;
                }
                let kind = core.timers.remove(&(at, seq)).unwrap();
                match kind {
                    TimerKind::Driver(tag) => {
                        let mut ctl = Ctl {
                            core: &mut core,
                            handle_tx: &tx,
                            waker: &waker,
                        };
                        driver.on_timer(&mut ctl, tag);
                    }
                    TimerKind::Listener(idx) => core.rearm_listener(idx),
                }
                service_deferred(&mut core, &mut driver, &tx, &waker);
            }
        }
        Ok(driver)
    }
}

/// Delivers deferred close notifications and buffered-data replays
/// (kept out of the dispatch paths so driver callbacks never nest).
fn service_deferred<D: Driver>(
    core: &mut Core,
    driver: &mut D,
    tx: &Sender<D::Msg>,
    waker: &Arc<Waker>,
) {
    loop {
        while let Some((id, reason)) = core.done_closes.pop() {
            let mut ctl = Ctl {
                core,
                handle_tx: tx,
                waker,
            };
            driver.on_close(&mut ctl, id, &reason);
        }
        let Some(id) = core.replay.pop() else { break };
        let Some(c) = core.conn_mut(id) else { continue };
        if c.paused || c.throttled || c.read_buf.is_empty() {
            continue;
        }
        let mut buf = std::mem::take(&mut c.read_buf);
        let mut ctl = Ctl {
            core,
            handle_tx: tx,
            waker,
        };
        driver.on_data(&mut ctl, id, &mut buf);
        if let Some(c) = core.conn_mut(id) {
            // Anything the driver left plus whatever arrived during
            // the callback (nothing can: single thread) goes back.
            c.read_buf = buf;
        }
    }
}

fn handle_readable<D: Driver>(
    core: &mut Core,
    driver: &mut D,
    tx: &Sender<D::Msg>,
    waker: &Arc<Waker>,
    id: ConnId,
) {
    let budget = core.cfg.read_budget.max(1);
    let mut scratch = std::mem::take(&mut core.scratch);
    let mut eof = false;
    let mut fatal: Option<io::Error> = None;
    let mut got_any = false;
    {
        let Some(c) = core.conn_mut(id) else {
            core.scratch = scratch;
            return;
        };
        if c.paused || c.throttled || c.closing {
            // Stale readiness from before an interest change.
            core.scratch = scratch;
            return;
        }
        for _ in 0..budget {
            match c.stream.read(&mut scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    c.read_buf.extend_from_slice(&scratch[..n]);
                    got_any = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    fatal = Some(e);
                    break;
                }
            }
        }
    }
    core.scratch = scratch;

    if got_any {
        if let Some(c) = core.conn_mut(id) {
            let mut buf = std::mem::take(&mut c.read_buf);
            let mut ctl = Ctl {
                core,
                handle_tx: tx,
                waker,
            };
            driver.on_data(&mut ctl, id, &mut buf);
            if let Some(c) = core.conn_mut(id) {
                c.read_buf = buf;
            }
        }
    }
    if let Some(e) = fatal {
        core.finish_close(id, CloseReason::Err(e));
    } else if eof {
        // The driver saw everything buffered above; a clean EOF with
        // leftover bytes is a truncated frame — the driver decides.
        core.finish_close(id, CloseReason::Eof);
    }
}

fn handle_accept<D: Driver>(
    core: &mut Core,
    driver: &mut D,
    tx: &Sender<D::Msg>,
    waker: &Arc<Waker>,
    idx: usize,
) {
    loop {
        if idx >= core.listeners.len() || core.listeners[idx].stopped {
            return;
        }
        let accepted = core.listeners[idx].listener.accept();
        match accepted {
            Ok((stream, peer)) => {
                core.listeners[idx].backoff = Duration::ZERO;
                match core.register_conn(stream, peer) {
                    Ok(id) => {
                        let mut ctl = Ctl {
                            core,
                            handle_tx: tx,
                            waker,
                        };
                        driver.on_accept(&mut ctl, id, peer);
                    }
                    Err(e) => {
                        // Registration failure (fd pressure at the
                        // poller): treat like an accept error.
                        core.accept_errors += 1;
                        let mut ctl = Ctl {
                            core,
                            handle_tx: tx,
                            waker,
                        };
                        driver.on_accept_error(&mut ctl, &e);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // EMFILE/ENFILE/ECONNABORTED and friends: count it,
                // tell the driver, and take the listener out of the
                // interest set for a capped, growing pause instead of
                // spinning on an error that will repeat immediately.
                core.accept_errors += 1;
                let slot = &mut core.listeners[idx];
                slot.backoff = if slot.backoff.is_zero() {
                    core.cfg.accept_backoff_base
                } else {
                    (slot.backoff * 2).min(core.cfg.accept_backoff_cap)
                };
                let pause = slot.backoff;
                if slot.armed {
                    let fd = slot.listener.as_raw_fd();
                    let _ = core.poller.deregister(fd);
                    slot.armed = false;
                }
                core.set_timer(Instant::now() + pause, TimerKind::Listener(idx));
                let mut ctl = Ctl {
                    core,
                    handle_tx: tx,
                    waker,
                };
                driver.on_accept_error(&mut ctl, &e);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Echoes everything back, uppercasing; pauses itself when it sees
    /// "PAUSE", closes on "QUIT", stops the loop on the Stop message.
    struct Echo {
        closes: Arc<AtomicUsize>,
        accept_errs: usize,
        timer_fired: bool,
    }

    enum Msg {
        Stop,
        Poke(ConnId),
    }

    impl Driver for Echo {
        type Msg = Msg;

        fn on_data(&mut self, ctl: &mut Ctl<'_, Msg>, conn: ConnId, buf: &mut Vec<u8>) {
            let bytes = std::mem::take(buf);
            if bytes.windows(5).any(|w| w == b"PAUSE") {
                ctl.pause(conn);
            }
            ctl.send(conn, &bytes.to_ascii_uppercase());
            if bytes.windows(4).any(|w| w == b"QUIT") {
                ctl.close(conn);
            }
        }

        fn on_close(&mut self, _ctl: &mut Ctl<'_, Msg>, _conn: ConnId, _reason: &CloseReason) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }

        fn on_msg(&mut self, ctl: &mut Ctl<'_, Msg>, msg: Msg) {
            match msg {
                Msg::Stop => ctl.stop(),
                Msg::Poke(conn) => ctl.resume(conn),
            }
        }

        fn on_timer(&mut self, _ctl: &mut Ctl<'_, Msg>, tag: u64) {
            assert_eq!(tag, 99);
            self.timer_fired = true;
        }

        fn on_accept_error(&mut self, _ctl: &mut Ctl<'_, Msg>, _err: &io::Error) {
            self.accept_errs += 1;
        }
    }

    fn start_echo() -> (
        std::net::SocketAddr,
        LoopHandle<Msg>,
        std::thread::JoinHandle<Echo>,
        Arc<AtomicUsize>,
    ) {
        let closes = Arc::new(AtomicUsize::new(0));
        let driver = Echo {
            closes: Arc::clone(&closes),
            accept_errs: 0,
            timer_fired: false,
        };
        let mut el = EventLoop::new(driver, LoopConfig::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        el.add_listener(listener).unwrap();
        let handle = el.handle();
        let t = std::thread::spawn(move || el.run().unwrap());
        (addr, handle, t, closes)
    }

    fn read_exact_timeout(s: &mut TcpStream, n: usize) -> Vec<u8> {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = vec![0u8; n];
        s.read_exact(&mut buf).unwrap();
        buf
    }

    #[test]
    fn echoes_across_many_connections() {
        let (addr, handle, t, _closes) = start_echo();
        let mut conns: Vec<TcpStream> =
            (0..50).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.write_all(format!("hello-{i}").as_bytes()).unwrap();
        }
        for (i, c) in conns.iter_mut().enumerate() {
            let want = format!("HELLO-{i}");
            assert_eq!(read_exact_timeout(c, want.len()), want.as_bytes());
        }
        handle.send(Msg::Stop);
        t.join().unwrap();
    }

    #[test]
    fn close_flushes_pending_writes_first() {
        let (addr, handle, t, closes) = start_echo();
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"one QUIT").unwrap();
        assert_eq!(read_exact_timeout(&mut c, 8), b"ONE QUIT");
        // Peer should now see EOF.
        let mut tail = Vec::new();
        c.read_to_end(&mut tail).unwrap();
        assert!(tail.is_empty());
        // on_close fired exactly once for the driver-initiated close.
        let deadline = Instant::now() + Duration::from_secs(5);
        while closes.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(closes.load(Ordering::SeqCst), 1);
        handle.send(Msg::Stop);
        t.join().unwrap();
    }

    #[test]
    fn pause_holds_delivery_until_resume() {
        let (addr, handle, t, _closes) = start_echo();
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"PAUSE").unwrap();
        assert_eq!(read_exact_timeout(&mut c, 5), b"PAUSE");
        // While paused, nothing comes back for new data.
        c.write_all(b"later").unwrap();
        c.set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        let mut one = [0u8; 1];
        assert!(c.read(&mut one).is_err(), "paused conn echoed anyway");

        // We don't know the ConnId out here; a poke-all via close count
        // isn't possible, so resume by id is exercised in-driver: the
        // Poke message carries an id obtained from a fresh probe conn.
        // Simplest: open a second connection, learn nothing — instead
        // drive resume through the echo of a sentinel on conn 2 is
        // overkill; rely on the fact that ids are dense: slot 0 gen 0.
        handle.send(Msg::Poke(ConnId::new(0, 0)));
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(read_exact_timeout(&mut c, 5), b"LATER");
        handle.send(Msg::Stop);
        t.join().unwrap();
    }

    #[test]
    fn peer_eof_reports_close() {
        let (addr, handle, t, closes) = start_echo();
        let c = TcpStream::connect(addr).unwrap();
        // Let the accept land, then disconnect.
        std::thread::sleep(Duration::from_millis(50));
        drop(c);
        let deadline = Instant::now() + Duration::from_secs(5);
        while closes.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(closes.load(Ordering::SeqCst), 1);
        handle.send(Msg::Stop);
        t.join().unwrap();
    }

    #[test]
    fn timers_fire_and_loop_returns_driver() {
        struct TimerDriver {
            fired: Vec<u64>,
        }
        impl Driver for TimerDriver {
            type Msg = ();
            fn on_data(&mut self, _: &mut Ctl<'_, ()>, _: ConnId, _: &mut Vec<u8>) {}
            fn on_close(&mut self, _: &mut Ctl<'_, ()>, _: ConnId, _: &CloseReason) {}
            fn on_timer(&mut self, ctl: &mut Ctl<'_, ()>, tag: u64) {
                self.fired.push(tag);
                if tag == 2 {
                    ctl.stop();
                } else {
                    ctl.set_timer(Duration::from_millis(10), tag + 1);
                }
            }
        }
        let mut el = EventLoop::new(TimerDriver { fired: vec![] }, LoopConfig::default()).unwrap();
        // Seed the first timer by driving on_timer via a zero-delay
        // arm before run: use the handle-msg path instead.
        struct Seed;
        let _ = Seed;
        // Arm directly through a pre-run injected message is not
        // possible (on_msg is unit) — arm via a listener-less loop and
        // an initial timer set through EventLoop internals:
        el.core.set_timer(Instant::now(), TimerKind::Driver(0));
        let driver = el.run().unwrap();
        assert_eq!(driver.fired, vec![0, 1, 2]);
    }
}
