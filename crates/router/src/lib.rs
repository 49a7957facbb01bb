//! `clue-router` — a long-running, concurrent realization of the CLUE
//! update/lookup co-design.
//!
//! The rest of the workspace models CLUE's hardware (clock-driven
//! [`clue_core::engine`]) or measures its pieces in isolation; this
//! crate wires those pieces into a live service:
//!
//! * **lookup plane** — one worker thread per TCAM chip, each owning a
//!   partition of the ONRTC-compressed table, fed over one home FIFO
//!   per chip by callers that split each batch by home chip
//!   ([`service`]);
//! * **update plane** — a single thread ingesting a BGP-like stream
//!   through a bounded, overflow-accounted queue, batching and
//!   coalescing it ([`coalesce`]) before applying it through
//!   [`clue_core::update_pipeline::CluePipeline`];
//! * **epoch handoff** — each applied batch is published as one
//!   immutable [`epoch::EpochState`] so workers observe it atomically;
//! * **observability** — a [`stats::RouterStats`] registry aggregating
//!   per-worker histograms into hand-rolled JSON snapshots.
//!
//! Entry point: [`runtime::run`] (or `clue serve` on the CLI). Figure
//! 1's load balancing (full-FIFO diversion to another chip's DRed) lives
//! only in the clock model: the live router never diverts, so every
//! lookup is served by its home chip.

#![warn(missing_docs)]

pub mod coalesce;
pub mod epoch;
pub mod faults;
pub mod journal;
pub mod runtime;
pub mod service;
pub mod stats;

pub use clue_core::lookup::BackendKind;
pub use coalesce::{coalesce, CoalescedBatch};
pub use epoch::{EpochCell, EpochState};
pub use faults::{FaultPlan, IngressPerturber, WriteStall};
pub use journal::{CheckpointView, JournalBatch, RecoveredState, UpdateJournal};
pub use runtime::{run, OverflowPolicy, RouterConfig, RouterReport};
pub use service::{RouterService, SubmitOutcome};
pub use stats::{PlaneInfo, RouterStats, StatsSnapshot};
