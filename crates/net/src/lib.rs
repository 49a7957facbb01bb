//! `clue-net` — the networked face of the CLUE router: a binary wire
//! protocol, a TCP server bridging it into [`clue_router`], a
//! reconnecting client, and a load generator.
//!
//! The design goal is that *backpressure propagates to the wire*: the
//! router's bounded ingress already chooses between blocking and
//! counted drops ([`clue_router::OverflowPolicy`]); the server maps that
//! seam onto TCP by never reading a connection's next frame while its
//! router call is outstanding, so a full ingress stalls the socket and
//! the peer's TCP window closes (see [`listener`]). Every frame is
//! length-prefixed and CRC-checked ([`frame`], CRC-32 from
//! [`clue_core::crc`]), updates are sequenced and acknowledged, and
//! the client resumes a broken line from the last acked seq
//! ([`client`]) — safe because route updates are last-op-wins per
//! prefix.
//!
//! Modules:
//!
//! * [`frame`] — the `magic/version/type/seq/len/payload/crc` frame;
//! * [`wire`] — payload codecs for updates, lookups, acks, stats;
//! * [`stats`] — aggregate network-plane counters;
//! * [`listener`] — the [`FrameHandler`] trait, its wire contract, and
//!   the [`Listener`] that runs a handler under either connection
//!   driver (thread per connection, or the `clue-aio` reactor);
//! * [`server`] — the router tier's handler over one
//!   [`clue_router::RouterService`], graceful drain;
//! * [`client`] — heartbeats, timeouts, capped-exponential reconnect
//!   with seq/ack resume, plus the one dial every client socket opens
//!   through ([`client::open`]) and the one-shot [`client::call`];
//! * [`loadgen`] — multi-threaded paced replay of `clue-traffic`
//!   workloads;
//! * [`swarm`] — a reactor-multiplexed connection swarm holding
//!   thousands of clients open simultaneously (the `--connections`
//!   load mode);
//! * [`signal`] — SIGINT/SIGTERM to a pollable flag, dependency-free.

#![warn(missing_docs)]

pub mod client;
mod evloop;
pub mod frame;
pub mod listener;
pub mod loadgen;
pub mod server;
pub mod signal;
pub mod stats;
pub mod swarm;
pub mod wire;

pub use client::{ClientConfig, ClientReport, Connection};
pub use clue_aio::Stop;
pub use frame::{Frame, FrameDecoder, FrameType};
pub use listener::{accept_loop, FrameHandler, FrameReader, Listener, ListenerConfig, IO_TIMEOUT};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use server::{Server, ServerConfig, Transport};
pub use stats::NetStats;
pub use swarm::{run_swarm, SwarmConfig, SwarmReport};
pub use wire::UpdateAck;
