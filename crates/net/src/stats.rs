//! Network-plane observability: aggregate frame and connection counters,
//! rendered through [`clue_core::json`] beside the router's
//! [`StatsSnapshot`](clue_router::StatsSnapshot). Every count is one
//! relaxed atomic, so no frame takes a lock and nothing outlives the
//! connection it counts.

use std::sync::atomic::{AtomicU64, Ordering};

use clue_core::json;

/// The server's network-plane counters.
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: AtomicU64,
    active: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    protocol_errors: AtomicU64,
    io_errors: AtomicU64,
    accept_errors: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl NetStats {
    /// All counters at zero.
    #[must_use]
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Counts a freshly accepted connection.
    pub fn register(&self) {
        bump(&self.accepted);
        bump(&self.active);
    }

    /// Counts one decoded inbound frame.
    pub fn count_frame_in(&self) {
        bump(&self.frames_in);
    }

    /// Counts one written outbound frame.
    pub fn count_frame_out(&self) {
        bump(&self.frames_out);
    }

    /// Counts a protocol (framing/decoding) error.
    pub fn count_protocol_error(&self) {
        bump(&self.protocol_errors);
    }

    /// Counts a socket error (or a serving thread that panicked).
    pub fn count_io_error(&self) {
        bump(&self.io_errors);
    }

    /// Counts a failed `accept()` call (e.g. EMFILE/ENFILE fd
    /// exhaustion); the accept loop pairs each one with a capped
    /// backoff sleep instead of spinning.
    pub fn count_accept_error(&self) {
        bump(&self.accept_errors);
    }

    /// Counts a connection closed.
    pub fn close(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Total protocol errors across all connections.
    #[must_use]
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Total failed `accept()` calls.
    #[must_use]
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Renders the counters as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let relaxed = |c: &AtomicU64| c.load(Ordering::Relaxed);
        json::object()
            .int("accepted", relaxed(&self.accepted))
            .int("active", relaxed(&self.active))
            .int("frames_in", relaxed(&self.frames_in))
            .int("frames_out", relaxed(&self.frames_out))
            .int("protocol_errors", relaxed(&self.protocol_errors))
            .int("io_errors", relaxed(&self.io_errors))
            .int("accept_errors", relaxed(&self.accept_errors))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_as_seven_aggregates() {
        let stats = NetStats::new();
        stats.register();
        stats.register();
        stats.count_frame_in();
        stats.count_frame_in();
        stats.count_frame_out();
        stats.count_protocol_error();
        stats.count_accept_error();
        stats.close();
        assert_eq!(stats.accepted(), 2);
        assert_eq!(stats.active(), 1);
        assert_eq!(stats.protocol_errors(), 1);
        assert_eq!(stats.accept_errors(), 1);

        assert_eq!(
            stats.to_json(),
            "{\"accepted\":2,\"active\":1,\"frames_in\":2,\"frames_out\":1,\
             \"protocol_errors\":1,\"io_errors\":0,\"accept_errors\":1}"
        );
    }
}
