//! clue-cluster: a sharded CLUE router with WAL-shipping replication
//! and failover.
//!
//! The cluster runs N independent `clue` shard servers as one logical
//! router:
//!
//! | Module | Role |
//! |---|---|
//! | [`shardmap`] | Versioned address-space partition: ONRTC-derived cuts mapping every /32 to exactly one owning shard, plus per-shard endpoints. |
//! | [`primary`] | Boots one shard primary: store + replication endpoint + serving frontend, acks gated on journal *and* standby apply. |
//! | [`repl`] | The replication plane: snapshot + WAL-record shipping from a primary's store to followers, with seq/ack resume. |
//! | [`standby`] | A warm follower: applies the shipped stream into an in-memory table and promotes into a full server on demand. |
//! | [`proxy`] | The client-facing fan-out tier: routes lookups to owning shards, fans updates out by range intersection, and fails over to standbys (health probes and promotion are one-shot `clue_net::client::call`s). |
//!
//! ## Correctness sketch
//!
//! The shard map's cuts come from the same
//! [`EvenRangePartition`](clue_partition::EvenRangePartition) the
//! single-node router uses across chips, so each shard owns a
//! contiguous `u32` interval. Updates replicate to every shard whose
//! interval the prefix's address range intersects; therefore each
//! shard's table is exactly `filter(full_table, own_range)`, and
//! longest-prefix match over that filtered slice agrees with LPM over
//! the full table for every owned address (any prefix matching an
//! owned address intersects the owned range). Lookups route to the
//! single owning shard, so the cluster answers bit-identically to a
//! flat single-node router.
//!
//! End-to-end exactly-once holds hop by hop: clients keep their
//! seq/ack resume discipline against the proxy, the proxy keeps it
//! against each shard, and a shard ack means the batch is journaled
//! and applied on every live standby — so a promotion never loses an
//! acknowledged update.

#![warn(missing_docs)]

pub mod primary;
pub mod proxy;
pub mod repl;
pub mod shardmap;
pub mod standby;

pub use primary::{Primary, PrimaryConfig};
pub use proxy::{Proxy, ProxyConfig};
pub use repl::{
    ReplConfig, ReplStats, ReplicatedStore, ReplicationHub, ReplicationListener, FOLLOWER_EMPTY,
};
pub use shardmap::{ShardMap, ShardSpec};
pub use standby::{ReplicaState, Standby, StandbyConfig, StandbyOutcome};
