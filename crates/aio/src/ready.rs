//! Waiting for one socket's read readiness from a blocking thread.

use std::os::fd::AsRawFd;
use std::time::Duration;

use polling::{Event, Interest, Poller, Token};

/// Parks a thread until one nonblocking socket turns readable (for a
/// listener: has a connection to accept) or a timeout passes, so that a
/// blocking accept loop takes a connection when it arrives, not at the
/// next tick of a sleep. Degrades to that sleep when the kernel refuses
/// a poller (fd exhaustion).
pub struct ReadyWait {
    poller: Option<Poller>,
    events: Vec<Event>,
}

impl ReadyWait {
    /// Watches `socket`, which must stay open while this value is used.
    #[must_use]
    pub fn new(socket: &impl AsRawFd) -> ReadyWait {
        let fd = socket.as_raw_fd();
        let poller = Poller::new().ok().and_then(|mut p| {
            let watched = p.register(fd, Token(0), Interest::READABLE);
            watched.ok().map(|()| p)
        });
        let events = Vec::new();
        ReadyWait { poller, events }
    }

    /// Returns once the socket is readable or `timeout` has passed.
    pub fn wait(&mut self, timeout: Duration) {
        let polled = match &mut self.poller {
            Some(p) => p.wait(&mut self.events, Some(timeout)).is_ok(),
            None => false,
        };
        if !polled {
            std::thread::sleep(timeout);
        }
    }
}
