//! `clue-oracle` — an independent reference model and differential
//! conformance harness for the whole CLUE pipeline.
//!
//! Every correctness claim the rest of the workspace makes — ONRTC
//! semantic equivalence, O(1) non-overlapping TCAM update,
//! zero-redundancy even partitioning, data-plane DRed insertion, the
//! router runtime's epoch handoff — is a claim *about* a compressed,
//! partitioned, concurrent structure. The only trustworthy way to
//! falsify such claims end-to-end is to compare against a model too
//! simple to share any bugs with the thing under test. This crate
//! provides exactly that:
//!
//! * [`model::Oracle`] — a deliberately naive longest-prefix-match
//!   model: a flat route list, linear scans, sequential update
//!   application, no compression, no partitioning, no tries;
//! * [`probes`] — adversarial probe-set construction (prefix boundary
//!   addresses ±1, region midpoints, covered/uncovered gap edges,
//!   seeded random fill);
//! * [`harness`] — [`harness::run_check`], which drives the real stack
//!   (trie → ONRTC → partition → TCAM → DRed → router runtime) and the
//!   oracle with one seeded workload, asserting lookup-for-lookup
//!   agreement and structural invariants after every update batch, with
//!   optional fault injection ([`clue_router::FaultPlan`]) in the
//!   router phase;
//! * [`recovery`] — the crash-consistency phase: the workload journaled
//!   through `clue-store` with seeded crash points, journal-tail
//!   corruption, and resumed-service continuation, each recovery
//!   compared against the oracle at the exact preserved trace prefix;
//! * [`cluster`] — the sharded-deployment phase: the workload through a
//!   `clue-cluster` proxy over N shard primaries with warm standbys, a
//!   primary killed mid-burst and its standby promoted, asserting zero
//!   lost acks and per-shard bit-identical convergence;
//! * [`scenario`] — the adversarial-scenario phase: named `clue-trace`
//!   workloads (update storms, withdraw floods, flap storms, skewed
//!   lookups, MRT replays) checked sequentially against the oracle on
//!   every backend, then replayed live over the wire — single-node per
//!   backend and optionally sharded — asserting probe agreement and
//!   zero lost acks;
//! * [`shrink`] — greedy update-trace minimization and the reproducer
//!   file format a failing `clue check` run emits;
//! * `live` (crate-private) — the client side every live phase shares:
//!   the check's client and loopback server config, the wire sweep
//!   against the oracle, the racing update/lookup pass, and the
//!   convergence checks on a drained router. [`netcheck`], [`scenario`]
//!   and [`cluster`] keep only the deployment each boots and what is
//!   specific to it.
//!
//! The CLI front end is `clue check`; the `tests/` directory of this
//! crate holds the `#[test]` entry points.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cluster;
pub mod harness;
mod live;
pub mod model;
pub mod netcheck;
pub mod probes;
pub mod recovery;
pub mod scenario;
pub mod shrink;

pub use cluster::{check_cluster_phase, ClusterOutcome};
pub use harness::{run_check, CheckConfig, CheckFailure, CheckReport, Divergence, Stage};
pub use model::Oracle;
pub use netcheck::{check_net_phase, NetOutcome};
pub use recovery::{check_recovery_phase, RecoveryOutcome};
pub use scenario::{run_scenario_check, ScenarioOutcome};
pub use shrink::{shrink_trace, Reproducer};
