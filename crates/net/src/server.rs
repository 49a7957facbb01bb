//! The TCP frontend: the router tier's [`FrameHandler`] — decoded
//! frames bridged into a live [`RouterService`] — behind a
//! [`Listener`].
//!
//! Backpressure mapping — the load-bearing design point: under
//! [`OverflowPolicy::Block`](clue_router::OverflowPolicy::Block) the
//! handler's `submit_update` call *blocks* when the bounded ingress is
//! full, and by the [frame handler contract](crate::listener) a
//! connection whose call is outstanding is not read — so the kernel
//! receive buffer fills, the peer's TCP window closes, and a fast
//! client is throttled by the update plane's real capacity instead of
//! an unbounded queue. Under `DropNewest` the call returns immediately
//! and the per-batch [`UpdateAck`](crate::wire::UpdateAck) carries the
//! drop count back to the sender.
//!
//! [`Server::drain`] drains the listener and then the router —
//! applying every queued update and publishing the final epoch — before
//! returning the final [`RouterReport`].

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use clue_core::codec::bad_data;
use clue_core::json;
use clue_fib::RouteTable;
use clue_router::{RouterConfig, RouterReport, RouterService, SubmitOutcome};

use crate::frame::{Frame, FrameType};
use crate::listener::{FrameHandler, Listener, ListenerConfig, IO_TIMEOUT};
use crate::stats::NetStats;
use crate::wire;

/// Which connection transport a [`Server`] runs.
///
/// Both transports speak the same wire protocol with the same
/// backpressure, ack, and drain semantics; they differ only in how
/// concurrency is organized — and therefore in how many connections
/// one process can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// One blocking reader thread per connection (the original design):
    /// simple, but each connection costs a thread stack.
    #[default]
    Threads,
    /// One `clue-aio` event-loop thread multiplexing every connection,
    /// plus a small bridge pool for the blocking router calls — tens of
    /// thousands of connections per process.
    Evloop,
}

impl Transport {
    /// The CLI spelling (`threads` / `evloop`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Transport::Threads => "threads",
            Transport::Evloop => "evloop",
        }
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Transport::Threads),
            "evloop" => Ok(Transport::Evloop),
            other => Err(format!(
                "unknown transport {other:?} (expected threads|evloop)"
            )),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Configuration for the backing [`RouterService`].
    pub router: RouterConfig,
    /// Connection transport (`Threads` per-connection threads, or the
    /// `Evloop` reactor).
    pub transport: Transport,
    /// Bridge-pool size for the `Evloop` transport: how many router
    /// calls may block concurrently (ignored under `Threads`).
    pub bridge_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            router: RouterConfig::default(),
            transport: Transport::Threads,
            bridge_threads: 4,
        }
    }
}

/// A running server: a [`Listener`] driving the router handler over
/// one [`RouterService`]. Call [`Server::drain`] for the graceful
/// shutdown path; a plain drop also shuts everything down (discarding
/// the report).
pub struct Server {
    // Declared (so dropped) before `router`: the listener's threads
    // share the handler, and the service must outlive them.
    listener: Listener,
    router: Arc<RouterHandler>,
}

impl Server {
    /// Binds `cfg.listen`, boots the router over `table`, and starts
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// Fails if the listen address cannot be bound.
    pub fn start(table: &RouteTable, cfg: &ServerConfig) -> io::Result<Server> {
        Self::start_with_service(RouterService::start(table, &cfg.router), 0, cfg)
    }

    /// Binds `cfg.listen` over an already-booted service — the seam a
    /// durable deployment uses: boot the router via
    /// `RouterService::start_recovered`/`start_with_journal` (keeping
    /// this crate free of any storage dependency) and advertise the
    /// recovered ack high-water as `initial_seq`, so resuming clients'
    /// `Hello` exchange settles exactly the batches the journal kept.
    ///
    /// # Errors
    ///
    /// Fails if the listen address cannot be bound.
    pub fn start_with_service(
        svc: RouterService,
        initial_seq: u64,
        cfg: &ServerConfig,
    ) -> io::Result<Server> {
        let socket = TcpListener::bind(&cfg.listen)?;
        let cfg = ListenerConfig {
            transport: cfg.transport,
            bridge_threads: cfg.bridge_threads,
        };
        Self::start_on(socket, svc, initial_seq, cfg)
    }

    /// As [`Server::start_with_service`], on a socket the caller has
    /// already bound: a standby promoted on the address its control
    /// port held serves it without ever releasing it, so a connection
    /// that arrives meanwhile waits in the backlog.
    ///
    /// # Errors
    ///
    /// Socket configuration or reactor start-up failures.
    pub fn start_on(
        socket: TcpListener,
        svc: RouterService,
        initial_seq: u64,
        cfg: ListenerConfig,
    ) -> io::Result<Server> {
        let net = Arc::new(NetStats::new());
        let router = Arc::new(RouterHandler {
            svc,
            net: Arc::clone(&net),
            last_acked: AtomicU64::new(initial_seq),
            started: Instant::now(),
        });
        let listener = Listener::start(socket, Arc::clone(&router), net, cfg)?;
        Ok(Server { listener, router })
    }

    /// The bound address (useful with `:0` ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Requests shutdown without blocking; [`Server::drain`] then
    /// collects the report.
    pub fn request_shutdown(&self) {
        self.listener.request_shutdown();
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.listener.shutdown_requested()
    }

    /// The network-plane stats registry.
    #[must_use]
    pub fn net_stats(&self) -> &NetStats {
        self.listener.net_stats()
    }

    /// The combined stats document served to `StatsQuery` clients:
    /// `{"uptime_ms":…,"router":{…},"net":{…}}`.
    #[must_use]
    pub fn stats_json(&self) -> String {
        self.router.stats_json()
    }

    /// Gracefully drains: stops accepting, closes every connection
    /// (after a `Shutdown` frame), joins all threads, then drains the
    /// router — flushing queued updates and publishing the final epoch.
    ///
    /// # Errors
    ///
    /// Fails if the router service is no longer exclusively held — a
    /// connection thread died without releasing its handle (the failed
    /// join is already counted as a [`NetStats`] I/O error).
    pub fn drain(self) -> io::Result<RouterReport> {
        let Server {
            mut listener,
            router,
        } = self;
        listener.stop();
        let router = Arc::into_inner(router).ok_or_else(|| {
            listener.net_stats().count_io_error();
            io::Error::other("router service still shared by an unjoined connection thread")
        })?;
        Ok(router.svc.drain())
    }
}

/// The router tier: `Hello`, `Update` (ack ⇒ journaled), `Lookup`,
/// `StatsQuery`, `Heartbeat`. It keeps no per-connection state.
struct RouterHandler {
    svc: RouterService,
    net: Arc<NetStats>,
    last_acked: AtomicU64,
    started: Instant,
}

impl RouterHandler {
    fn stats_json(&self) -> String {
        json::object()
            .int("uptime_ms", self.started.elapsed().as_millis() as u64)
            .raw("router", &self.svc.stats().to_json())
            .raw("net", &self.net.to_json())
            .finish()
    }
}

impl FrameHandler for RouterHandler {
    type Conn = ();

    fn open(&self) {}

    fn is_cheap(&self, kind: FrameType) -> bool {
        // Everything but the three router calls is answered (or
        // refused) from memory.
        !matches!(
            kind,
            FrameType::Update | FrameType::Lookup | FrameType::StatsQuery
        )
    }

    fn handle(&self, _: &mut (), frame: &Frame) -> io::Result<Frame> {
        let seq = frame.seq;
        Ok(match frame.kind {
            FrameType::Hello => Frame {
                kind: FrameType::HelloAck,
                seq,
                payload: wire::encode_u64(self.last_acked.load(Ordering::SeqCst)),
            },
            FrameType::Update => {
                let mut accepted = 0u32;
                let mut dropped = 0u32;
                let updates = wire::decode_updates(&frame.payload)?;
                let last = updates.len().saturating_sub(1);
                for (i, u) in updates.into_iter().enumerate() {
                    // Only the frame's last update carries its seq, so
                    // the journaled high-water (hence the ack, the
                    // replicated seq_hw and a post-crash HelloAck) covers
                    // the frame no earlier than its tail: see
                    // `submit_update_tagged`.
                    let tag = if i == last { seq } else { 0 };
                    // Under Block this is where wire backpressure is
                    // born: the send blocks, the driver stops reading
                    // this socket, and TCP throttles the peer.
                    match self.svc.submit_update_tagged(u, tag) {
                        SubmitOutcome::Accepted => accepted += 1,
                        SubmitOutcome::Dropped => dropped += 1,
                    }
                }
                // Ack ⇒ journaled: on a durable router, hold this
                // batch's ack until the journal high-water covers its
                // seq, so a post-crash server never advertises an ack
                // position the disk cannot back. (Trivially immediate
                // without a journal; skipped when nothing was accepted
                // — a fully-dropped batch journals nothing to wait for.)
                if accepted > 0 && !self.svc.wait_journaled(seq, IO_TIMEOUT) {
                    self.net.count_io_error();
                    Frame::error(seq, "journal write did not complete; batch unacknowledged")
                } else {
                    self.last_acked.fetch_max(seq, Ordering::SeqCst);
                    Frame {
                        kind: FrameType::UpdateAck,
                        seq,
                        payload: wire::encode_ack(wire::UpdateAck { accepted, dropped }),
                    }
                }
            }
            FrameType::Lookup => {
                let addrs = wire::decode_lookup(&frame.payload)?;
                Frame {
                    kind: FrameType::LookupResult,
                    seq,
                    payload: wire::encode_results(&self.svc.lookup_batch(addrs)),
                }
            }
            FrameType::StatsQuery => Frame {
                kind: FrameType::StatsReply,
                seq,
                payload: self.stats_json().into_bytes(),
            },
            FrameType::Heartbeat => Frame::empty(FrameType::HeartbeatAck, seq),
            // Server-to-client kinds mean a confused peer; cluster-plane
            // kinds (replication, shard maps, promotion) belong on the
            // proxy/replication endpoints, not a serving shard.
            other => return Err(bad_data(format!("unexpected client frame {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_parses_only_its_two_names() {
        assert_eq!("threads".parse(), Ok(Transport::Threads));
        assert_eq!("evloop".parse(), Ok(Transport::Evloop));
        let err = "threaded".parse::<Transport>().unwrap_err();
        assert!(err.contains("threads|evloop"), "{err}");
    }
}
