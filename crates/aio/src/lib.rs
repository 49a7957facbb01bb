//! clue-aio: the readiness-based event-loop transport.
//!
//! One thread, one [`polling::Poller`], tens of thousands of
//! nonblocking sockets. The reactor owns every socket and all buffers;
//! protocol logic lives in a [`Driver`] the loop calls back into:
//!
//! * **Readiness model** — level-triggered. The loop reads a bounded
//!   chunk per readiness report and hands the accumulated bytes to
//!   [`Driver::on_data`]; whatever the driver leaves in the buffer is
//!   re-delivered when more data arrives or when reads resume.
//! * **Backpressure via registration** — [`Ctl::pause`] drops a
//!   connection's read interest without touching the socket. The
//!   kernel receive buffer fills, the peer's TCP window closes, and a
//!   fast sender is throttled by the *consumer's* real capacity — the
//!   event-loop equivalent of the threaded server's
//!   blocked-reader-thread semantics. Writes apply the same rule
//!   automatically: a connection whose outbound buffer crosses the
//!   high watermark stops reading until the buffer drains below the
//!   low watermark.
//! * **Deadline timers** — a sorted deadline map ([`Ctl::set_timer`])
//!   drives heartbeats, idle sweeps, and reconnect backoff; the poll
//!   timeout is always the nearest deadline.
//! * **Cross-thread injection** — a [`LoopHandle`] clones into any
//!   thread and [`LoopHandle::send`]s messages into the loop, waking a
//!   blocked poll through a pipe-based [`polling::Waker`]. This is how
//!   bridge threads hand completed router calls back, how dialer
//!   threads deliver connected upstreams, and how shutdown is
//!   requested.
//!
//! The accept path backs off on transient errors (EMFILE/ENFILE): the
//! listener is taken out of the interest set for a capped,
//! exponentially growing pause ([`accept_backoff`]) instead of
//! spinning, and every such error is reported to
//! [`Driver::on_accept_error`].
//!
//! Thread-per-connection listeners borrow three things from here:
//! [`Stop`] is how a tier is told to stop, [`ReadyWait`] parks their
//! accept loop on the listener's readiness or that stop, and
//! [`accept_backoff`] paces it after a failed accept.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod reactor;
mod ready;
pub mod rlimit;

pub use reactor::{accept_backoff, CloseReason, ConnId, Ctl, Driver, EventLoop, LoopHandle};
pub use ready::{ReadyWait, Stop};
