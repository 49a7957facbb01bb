//! CLUE: the paper's primary contribution, assembled from the workspace
//! substrates.
//!
//! * [`engine`] — the clock-driven parallel lookup engine of Figure 1:
//!   Indexing Logic, adaptive load balancing over per-chip FIFOs,
//!   DRed-only overflow lookups, and miss bouncing.
//! * [`dred`] — the three redundancy schemes: CLUE's data-plane DRed,
//!   CLPL's control-plane logical caches (RRC-ME), and SLPL's static
//!   redundancy.
//! * [`lookup`] — the multi-backend lookup data plane: the
//!   [`LookupPlane`](lookup::LookupPlane) trait with the cycle-cost
//!   TCAM sim, a flattened 16/8/8 multibit trie, and an entropy-style
//!   interval-compressed FIB behind one interface.
//! * [`update_pipeline`] — the whole incremental update path with TTF
//!   accounting (trie → TCAM → DRed), for both CLUE and CLPL.
//! * [`theory`] — the Section III-D lower bound `t = (N−1)h + 1`.
//! * [`crc`] / [`codec`] — the shared CRC-32 and update-batch binary
//!   codec used by both the `clue-net` wire protocol and the
//!   `clue-store` write-ahead journal.
//!
//! The [`engine`] is the paper-fidelity *model*, and the only place
//! Figure 1's DRed balancing runs. `clue-router` serves on real threads
//! with home-chip workers only: callers split each batch by home chip,
//! and nothing diverts.
//!
//! # Examples
//!
//! Build a four-chip CLUE engine and push a trace through it:
//!
//! ```
//! use clue_compress::onrtc;
//! use clue_core::engine::{Engine, EngineConfig};
//! use clue_fib::gen::FibGen;
//! use clue_traffic::PacketGen;
//!
//! let fib = onrtc(&FibGen::new(1).routes(2_000).generate());
//! let trace = PacketGen::new(2).generate(&fib, 10_000);
//! let cfg = EngineConfig::default();
//! let mut engine = Engine::clue(&fib, 1024, cfg);
//! let (report, _outcomes) = engine.run(&trace);
//! assert!(report.speedup(cfg.service_clocks) > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod crc;
pub mod dred;
pub mod engine;
pub mod lookup;
pub mod metrics;
pub mod reorder;
pub mod theory;
pub mod update_pipeline;

pub use dred::{DredConfig, RedundancyScheme, SchemeStats};
pub use engine::{balanced_mapping, Engine, EngineConfig, EngineReport, Outcome};
pub use lookup::{
    backend_available, build_plane, plane_from_table, register_tiled_builder, try_build_plane,
    BackendKind, LookupPlane, PlaneBuilder,
};
pub use reorder::ReorderBuffer;
pub use theory::{implied_hit_rate, required_hit_rate, worst_case_speedup};
pub use update_pipeline::{mean_ttf, ClplPipeline, CluePipeline, TtfSample};
