//! `clue-store` — durability for the CLUE router.
//!
//! A backbone router restarting from nothing must re-download its RIB
//! and recompress it — exactly the multi-second freshness stall the
//! paper's update pipeline exists to avoid. This crate gives the
//! router a warm restart with bounded recovery time:
//!
//! * [`wal`] — a segmented, CRC-32-framed write-ahead journal. The
//!   update plane appends every coalesced batch *before* applying it
//!   ([`clue_router::UpdateJournal`]), so an acknowledged batch is a
//!   durable batch.
//! * [`snapshot`] — epoch-boundary snapshots of the original table,
//!   its ONRTC compression (doubling as a deep integrity check), and
//!   the partition map, written atomically.
//! * [`Store`] — ties both to a data directory. Recovery loads the
//!   newest snapshot that validates, replays only the contiguous WAL
//!   tail after it with scan-to-last-valid semantics (torn writes,
//!   truncated tails, and bit-flipped records end the tail cleanly,
//!   never panic), and hands back the ingress-sequence high-water so
//!   `clue-net` clients resume across the restart.
//!
//! The WAL payload encoding and checksum are shared with the wire
//! protocol via [`clue_core::codec`] and [`clue_core::crc`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod snapshot;
pub mod store;
pub mod wal;

pub use snapshot::{
    decode_snapshot, encode_snapshot, list_snapshots, load_snapshot, newest_valid_snapshot,
    snapshot_name, write_snapshot, Snapshot,
};
pub use store::{Recovery, Store, StoreConfig, StreamBase};
pub use wal::{
    decode_record, encode_record, list_segments, scan_dir, segment_name, ScanOutcome, WalRecord,
};
