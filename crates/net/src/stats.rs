//! Network-plane observability: aggregate frame/connection counters plus
//! a per-connection error ledger, rendered through
//! [`clue_core::json`] beside the router's
//! [`StatsSnapshot`](clue_router::StatsSnapshot).

use std::sync::atomic::{AtomicU64, Ordering};

use clue_core::json;
use parking_lot::Mutex;

/// Counters for one accepted connection (kept after it closes, so the
/// stats reply is a full session ledger, not just the live set).
#[derive(Debug, Clone)]
pub struct ConnStats {
    /// Server-assigned connection id (accept order, from 0).
    pub id: u64,
    /// Peer address as reported by accept.
    pub peer: String,
    /// Frames decoded from this peer.
    pub frames_in: u64,
    /// Frames written to this peer.
    pub frames_out: u64,
    /// Route updates submitted to the router on behalf of this peer.
    pub updates: u64,
    /// Updates rejected by `DropNewest` for this peer.
    pub update_drops: u64,
    /// Lookup addresses answered for this peer.
    pub lookups: u64,
    /// Undecodable frames (bad magic/version/CRC/payload) from this peer.
    pub protocol_errors: u64,
    /// Socket-level failures on this connection.
    pub io_errors: u64,
    /// Still connected?
    pub open: bool,
}

impl ConnStats {
    fn to_json(&self) -> String {
        json::object()
            .int("id", self.id)
            .str("peer", &self.peer)
            .int("frames_in", self.frames_in)
            .int("frames_out", self.frames_out)
            .int("updates", self.updates)
            .int("update_drops", self.update_drops)
            .int("lookups", self.lookups)
            .int("protocol_errors", self.protocol_errors)
            .int("io_errors", self.io_errors)
            .bool("open", self.open)
            .finish()
    }
}

/// The server's network-plane registry.
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: AtomicU64,
    active: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    protocol_errors: AtomicU64,
    io_errors: AtomicU64,
    accept_errors: AtomicU64,
    conns: Mutex<Vec<ConnStats>>,
}

impl NetStats {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Registers a freshly accepted connection; returns its id.
    pub fn register(&self, peer: String) -> u64 {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
        let mut conns = self.conns.lock();
        let id = conns.len() as u64;
        conns.push(ConnStats {
            id,
            peer,
            frames_in: 0,
            frames_out: 0,
            updates: 0,
            update_drops: 0,
            lookups: 0,
            protocol_errors: 0,
            io_errors: 0,
            open: true,
        });
        id
    }

    /// Mutates connection `id`'s ledger under the registry lock.
    pub fn with_conn(&self, id: u64, f: impl FnOnce(&mut ConnStats)) {
        let mut conns = self.conns.lock();
        if let Some(c) = conns.get_mut(id as usize) {
            f(c);
        }
    }

    /// Counts one decoded inbound frame on connection `id`.
    pub fn count_frame_in(&self, id: u64) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.with_conn(id, |c| c.frames_in += 1);
    }

    /// Counts one written outbound frame on connection `id`.
    pub fn count_frame_out(&self, id: u64) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.with_conn(id, |c| c.frames_out += 1);
    }

    /// Counts a protocol (framing/decoding) error on connection `id`.
    pub fn count_protocol_error(&self, id: u64) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.with_conn(id, |c| c.protocol_errors += 1);
    }

    /// Counts a socket error on connection `id`.
    pub fn count_io_error(&self, id: u64) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        self.with_conn(id, |c| c.io_errors += 1);
    }

    /// Counts a failed `accept()` call (e.g. EMFILE/ENFILE fd
    /// exhaustion). These belong to no connection, so they live only in
    /// the aggregate — the accept loop pairs each one with a capped
    /// backoff sleep instead of spinning.
    pub fn count_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks connection `id` closed.
    pub fn close(&self, id: u64) {
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.with_conn(id, |c| c.open = false);
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

    /// Renders the registry as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let relaxed = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let conns: Vec<_> = self.conns.lock().iter().map(ConnStats::to_json).collect();
        json::object()
            .int("accepted", relaxed(&self.accepted))
            .int("active", relaxed(&self.active))
            .int("frames_in", relaxed(&self.frames_in))
            .int("frames_out", relaxed(&self.frames_out))
            .int("protocol_errors", relaxed(&self.protocol_errors))
            .int("io_errors", relaxed(&self.io_errors))
            .int("accept_errors", relaxed(&self.accept_errors))
            .raw("connections", &json::array(&conns))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_per_connection_counts() {
        let stats = NetStats::new();
        let a = stats.register("127.0.0.1:1111".into());
        let b = stats.register("127.0.0.1:2222".into());
        assert_eq!((a, b), (0, 1));
        stats.count_frame_in(a);
        stats.count_frame_in(a);
        stats.count_frame_out(a);
        stats.count_protocol_error(b);
        stats.count_accept_error();
        stats.close(b);
        assert_eq!(stats.accepted(), 2);
        assert_eq!(stats.active(), 1);
        assert_eq!(stats.protocol_errors(), 1);
        assert_eq!(stats.accept_errors(), 1);

        assert_eq!(
            stats.to_json(),
            "{\"accepted\":2,\"active\":1,\"frames_in\":2,\"frames_out\":1,\
             \"protocol_errors\":1,\"io_errors\":0,\"accept_errors\":1,\"connections\":[\
             {\"id\":0,\"peer\":\"127.0.0.1:1111\",\"frames_in\":2,\"frames_out\":1,\
             \"updates\":0,\"update_drops\":0,\"lookups\":0,\"protocol_errors\":0,\
             \"io_errors\":0,\"open\":true},\
             {\"id\":1,\"peer\":\"127.0.0.1:2222\",\"frames_in\":0,\"frames_out\":0,\
             \"updates\":0,\"update_drops\":0,\"lookups\":0,\"protocol_errors\":1,\
             \"io_errors\":0,\"open\":false}]}"
        );
    }
}
