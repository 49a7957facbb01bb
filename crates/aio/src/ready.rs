//! What a blocking thread waits for: one socket's read readiness, and
//! its tier's stop.

use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use polling::{Interest, Poller, Token, Waker};

/// How often a [`ReadyWait`] re-checks its stop when the kernel refused
/// it a poller (fd exhaustion): the one path with nothing to wake it.
const DEGRADED_POLL: Duration = Duration::from_millis(50);

/// A one-shot stop request that wakes whatever waits on it: a
/// [`ReadyWait`] parked on a socket, [`Stop::wait`] and
/// [`Stop::wait_timeout`].
#[derive(Debug)]
pub struct Stop {
    requested: AtomicBool,
    lock: Mutex<()>,
    cond: Condvar,
    /// Readable from the request on (it is never drained), so it wakes
    /// every poller it is registered with, now or later. `None` when
    /// the kernel refused the pipe.
    waker: Option<Waker>,
}

impl Stop {
    /// A stop not yet requested.
    #[must_use]
    pub fn new() -> Stop {
        Stop {
            requested: AtomicBool::new(false),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            waker: Waker::new().ok(),
        }
    }

    /// Requests the stop and wakes every waiter. Idempotent.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            let _ = waker.wake();
        }
        let _guard = self.guard();
        self.cond.notify_all();
    }

    /// True once the stop has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Blocks until the stop is requested.
    pub fn wait(&self) {
        let mut guard = self.guard();
        while !self.is_requested() {
            guard = self
                .cond
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the stop is requested or `timeout` has passed;
    /// returns whether it was requested.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            self.wait();
            return true;
        };
        let mut guard = self.guard();
        while !self.is_requested() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let waited = self.cond.wait_timeout(guard, deadline - now);
            guard = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
        true
    }

    /// The lock guards no data, so a poisoned one is as good as any.
    fn guard(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for Stop {
    fn default() -> Stop {
        Stop::new()
    }
}

/// Parks a thread until one nonblocking socket turns readable (for a
/// listener: has a connection to accept) or its [`Stop`] is requested,
/// so that a blocking accept loop takes a connection when it arrives
/// and stops when asked, with no timer in between. When the kernel
/// refuses a poller or a wake pipe (fd exhaustion) it degrades to
/// re-checking the stop at a fixed interval.
pub struct ReadyWait<'a> {
    stop: &'a Stop,
    poller: Option<Poller>,
}

impl<'a> ReadyWait<'a> {
    /// Watches `socket`, which must stay open while this value is used.
    #[must_use]
    pub fn new(socket: &impl AsRawFd, stop: &'a Stop) -> ReadyWait<'a> {
        let fd = socket.as_raw_fd();
        let poller = Poller::new().ok().and_then(|mut p| {
            p.register(fd, Token(0), Interest::READABLE).ok()?;
            stop.waker.as_ref()?.register(&mut p, Token(1)).ok()?;
            Some(p)
        });
        ReadyWait { stop, poller }
    }

    /// Returns once the socket is readable or the stop is requested
    /// (and, rarely, spuriously: re-check both). Allocates nothing.
    pub fn wait(&mut self) {
        let polled = match &mut self.poller {
            Some(p) => p.wait_any(None).is_ok(),
            None => false,
        };
        if !polled {
            self.stop.wait_timeout(DEGRADED_POLL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    #[test]
    fn a_request_wakes_a_parked_ready_wait_and_every_later_wait() {
        let socket = TcpListener::bind("127.0.0.1:0").unwrap();
        socket.set_nonblocking(true).unwrap();
        let stop = Arc::new(Stop::new());
        let requester = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || stop.request())
        };
        let mut ready = ReadyWait::new(&socket, &stop);
        while !stop.is_requested() {
            ready.wait();
        }
        requester.join().unwrap();
        // The wake is sticky: waits that start after the request
        // return at once.
        ready.wait();
        ReadyWait::new(&socket, &stop).wait();
        assert!(stop.wait_timeout(Duration::from_secs(60)));
        stop.wait();
    }

    #[test]
    fn a_connection_wakes_a_ready_wait_and_a_quiet_timed_wait_times_out() {
        let socket = TcpListener::bind("127.0.0.1:0").unwrap();
        socket.set_nonblocking(true).unwrap();
        let stop = Stop::new();
        let _peer = TcpStream::connect(socket.local_addr().unwrap()).unwrap();
        ReadyWait::new(&socket, &stop).wait();
        assert!(socket.accept().is_ok());
        assert!(!stop.wait_timeout(Duration::from_millis(5)));
        assert!(!stop.is_requested());
    }
}
