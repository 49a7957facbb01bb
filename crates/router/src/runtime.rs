//! The batch-run entry point over the long-running router service, and
//! the configuration/report types every frontend shares.
//!
//! Thread topology (see DESIGN.md §"clue-router"; the threads live in
//! [`crate::service`]):
//!
//! ```text
//!               packets                    updates
//!                  │                          │ bounded ingress
//!                  ▼                          ▼ (Block | DropNewest)
//!             dispatcher                update thread
//!           (range index)          (batch → coalesce → CluePipeline)
//!            │  home FIFO   │              │
//!            ▼      …       ▼              ▼ publish Arc<EpochState>
//!         worker 0  …  worker n-1   ◄── EpochCell (atomic version)
//!            │              │
//!            └── done ──────┘ → dispatcher (arrival-order accounting)
//! ```
//!
//! * Each worker serves only its home chip: one partition of the
//!   compressed table, via the current epoch's per-bucket plane. Figure
//!   1's full-FIFO diversion to another chip's DRed is modelled by the
//!   clock-driven [`clue_core::engine`], not here.
//! * The update plane ingests a raw stream through a **bounded** queue
//!   — overflow is either blocking backpressure or counted
//!   `DropNewest`, never a silent loss — batches up to `batch_size`
//!   operations per quiescent window, coalesces them (last-op-wins,
//!   flap cancellation, no-op elision), pushes the survivors through
//!   [`CluePipeline`](clue_core::update_pipeline::CluePipeline), and
//!   publishes the rebuilt per-bucket planes as one new epoch.
//! * Workers observe a batch atomically: they poll the epoch version
//!   once per packet and swap the whole `Arc<EpochState>` — never a
//!   half-applied table.
//!
//! [`run`] stages a fixed packet trace against a fixed update stream —
//! the harness the integration tests and `clue serve` (file mode) use.
//! Long-running frontends (the `clue-net` TCP server) drive
//! [`RouterService`](crate::service::RouterService) directly.

use std::time::{Duration, Instant};

use clue_core::lookup::BackendKind;
use clue_fib::{NextHop, RouteTable, Update};

use crate::faults::{FaultPlan, IngressPerturber};
use crate::service::RouterService;
use crate::stats::StatsSnapshot;

/// What to do when the bounded update ingress queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Apply backpressure: the feeder blocks until space frees up.
    /// Every update is eventually applied (deterministic final FIB).
    Block,
    /// Reject the newest update and count it in
    /// [`StatsSnapshot::update_drops`] — never a silent loss.
    DropNewest,
}

/// Configuration of one router run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Lookup worker (chip) count.
    pub workers: usize,
    /// Per-chip DRed capacity, in prefixes, of the update pipeline's
    /// DRed model (it prices TTF3).
    pub dred_capacity: usize,
    /// Maximum updates applied per batch/epoch.
    pub batch_size: usize,
    /// Bounded update-ingress queue capacity.
    pub update_queue: usize,
    /// Ingress overflow policy.
    pub overflow: OverflowPolicy,
    /// Emit a JSON stats snapshot to stdout this often (None = never).
    pub snapshot_every: Option<Duration>,
    /// Seeded fault injection at the channel and TCAM-write seams
    /// (None = run clean). See [`FaultPlan`].
    pub faults: Option<FaultPlan>,
    /// Which lookup backend the published epochs compile to (the
    /// cycle-cost TCAM sim, the flattened multibit trie, or the
    /// entropy-style compressed FIB).
    pub backend: BackendKind,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 4,
            dred_capacity: 1024,
            batch_size: 64,
            update_queue: 1024,
            overflow: OverflowPolicy::Block,
            snapshot_every: None,
            faults: None,
            backend: BackendKind::default(),
        }
    }
}

/// Outcome of a completed router run.
#[derive(Debug)]
pub struct RouterReport {
    /// Final aggregated stats (also rendered by `snapshot.to_json()`).
    pub snapshot: StatsSnapshot,
    /// Per-packet lookup results in arrival order ([`run`] only; a
    /// drained [`RouterService`] returned results to its callers).
    pub results: Vec<Option<NextHop>>,
    /// The original-form routing table after every applied update.
    pub final_table: RouteTable,
    /// The ONRTC-compressed table after every applied update.
    pub final_compressed: RouteTable,
    /// Cut-spanning replicas in the last published epoch (the dynamic
    /// redundancy accumulated since start-up).
    pub dynamic_redundancy: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RouterReport {
    /// Whether every packet handed in was accounted for (the runtime
    /// never drops packets; updates are the only droppable input).
    #[must_use]
    pub fn packets_conserved(&self) -> bool {
        self.snapshot.arrivals == self.snapshot.completions
            && self.snapshot.completions == self.results.len() as u64
    }
}

/// Runs `packets` and `updates` through a live multi-threaded router
/// built over `table` and returns the full report.
///
/// The update plane is single-threaded by design, so for
/// [`OverflowPolicy::Block`] the final FIB equals the sequential
/// application of `updates` to `table` regardless of thread timing —
/// the property the integration tests pin down.
///
/// # Panics
///
/// Panics if `table` is empty or `cfg` is degenerate (any zero size).
#[must_use]
pub fn run(
    table: &RouteTable,
    packets: &[u32],
    updates: &[Update],
    cfg: &RouterConfig,
) -> RouterReport {
    let start = Instant::now();
    let svc = RouterService::start(table, cfg);
    let mut results: Vec<Option<NextHop>> = Vec::new();

    std::thread::scope(|scope| {
        // Update feeder: an optional fault plan perturbs timing and
        // global order here, but never the per-prefix order (see
        // `faults`); the overflow policy is enforced inside the service.
        scope.spawn(|| {
            let mut perturber = cfg.faults.map(IngressPerturber::new);
            let mut staged: Vec<Update> = Vec::new();
            for &u in updates {
                staged.clear();
                match &mut perturber {
                    Some(p) => {
                        if let Some(d) = p.feeder_delay() {
                            std::thread::sleep(d);
                        }
                        p.push(u, &mut staged);
                    }
                    None => staged.push(u),
                }
                for &s in &staged {
                    let _ = svc.submit_update(s);
                }
            }
            if let Some(p) = perturber {
                staged.clear();
                p.finish(&mut staged);
                for &s in &staged {
                    let _ = svc.submit_update(s);
                }
            }
        });

        // Lookup plane races the update stream, exactly like a line
        // card: one big in-order batch through the dispatcher.
        results = svc.lookup_batch(packets.to_vec());
    });

    let mut report = svc.drain();
    report.results = results;
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_compress::onrtc;
    use clue_fib::gen::FibGen;
    use clue_fib::Route;
    use clue_traffic::{PacketGen, UpdateGen};

    fn setup(routes: usize, pkts: usize, upds: usize) -> (RouteTable, Vec<u32>, Vec<Update>) {
        let fib = FibGen::new(71).routes(routes).generate();
        let packets = PacketGen::new(72).generate(&fib, pkts);
        let updates = UpdateGen::new(73).generate(&fib, upds);
        (fib, packets, updates)
    }

    #[test]
    fn lookups_without_updates_match_reference() {
        let (fib, packets, _) = setup(2_000, 10_000, 0);
        let reference = onrtc(&fib).to_trie();
        let report = run(&fib, &packets, &[], &RouterConfig::default());
        assert!(report.packets_conserved());
        for (&addr, nh) in packets.iter().zip(&report.results) {
            assert_eq!(
                *nh,
                reference.lookup(addr).map(|(_, &v)| v),
                "addr {addr:#x}"
            );
        }
        assert_eq!(report.snapshot.epochs, 0);
    }

    #[test]
    fn single_worker_still_completes() {
        let (fib, packets, _) = setup(2_000, 5_000, 0);
        let cfg = RouterConfig {
            workers: 1,
            dred_capacity: 64,
            ..RouterConfig::default()
        };
        let report = run(&fib, &packets, &[], &cfg);
        assert!(report.packets_conserved());
        assert_eq!(report.snapshot.completions, 5_000);
    }

    #[test]
    fn updates_without_packets_reach_the_sequential_fib() {
        let (fib, _, updates) = setup(2_000, 0, 1_500);
        let report = run(&fib, &[], &updates, &RouterConfig::default());
        let mut expect = fib.clone();
        for &u in &updates {
            expect.apply(u);
        }
        let got: Vec<Route> = report.final_table.iter().collect();
        let want: Vec<Route> = expect.iter().collect();
        assert_eq!(got, want, "final FIB must equal sequential application");
        assert!(report.snapshot.epochs > 0);
        assert_eq!(
            report.snapshot.updates_received,
            updates.len() as u64,
            "Block policy loses nothing"
        );
    }

    #[test]
    fn drop_newest_accounts_for_every_rejected_update() {
        let (fib, _, updates) = setup(1_500, 0, 2_000);
        let cfg = RouterConfig {
            update_queue: 8,
            batch_size: 4,
            overflow: OverflowPolicy::DropNewest,
            ..RouterConfig::default()
        };
        let report = run(&fib, &[], &updates, &cfg);
        assert_eq!(
            report.snapshot.updates_received + report.snapshot.update_drops,
            updates.len() as u64,
            "ingress accounting must conserve updates"
        );
    }

    #[test]
    fn faulty_run_still_converges_to_the_sequential_fib() {
        let (fib, packets, updates) = setup(1_500, 5_000, 1_000);
        let cfg = RouterConfig {
            faults: Some(FaultPlan::chaos(99)),
            ..RouterConfig::default()
        };
        let report = run(&fib, &packets, &updates, &cfg);
        assert!(report.packets_conserved());
        assert_eq!(
            report.snapshot.updates_received,
            updates.len() as u64,
            "drop faults retransmit; Block policy still loses nothing"
        );
        let mut expect = fib.clone();
        for &u in &updates {
            expect.apply(u);
        }
        assert_eq!(
            report.final_table, expect,
            "per-prefix order preservation makes the final FIB fault-invariant"
        );
        assert_eq!(report.final_compressed, onrtc(&expect));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_workers() {
        let fib = FibGen::new(1).routes(10).generate();
        let _ = run(
            &fib,
            &[],
            &[],
            &RouterConfig {
                workers: 0,
                ..RouterConfig::default()
            },
        );
    }
}
