//! The recovery conformance phase: crash-consistency of `clue-store`
//! under the same seeded workloads as the other phases.
//!
//! Three sub-phases, each against a real data directory on disk:
//!
//! * **Clean durability** — a journaled [`RouterService`] runs the full
//!   trace with per-update sequence tags and drains; a fresh
//!   [`Store::open`] must then recover the final state with *zero*
//!   journal replay (the drain checkpoint covers everything), the full
//!   sequence high-water, and lookup agreement with the oracle on an
//!   adversarial boundary-probe set.
//! * **Seeded crash points** — the service is killed (drain checkpoint
//!   suppressed) at seed-derived offsets into the trace, optionally
//!   with the journal tail torn or bit-flipped afterwards. Recovery
//!   must never panic, must flag corruption as a truncated scan, must
//!   replay only the post-snapshot tail, and must land on state equal
//!   to the sequential oracle at *exactly* the trace prefix the journal
//!   preserved (`raw_applied`).
//! * **Continuation** — a service booted from recovered state via
//!   [`RouterService::start_recovered`] resumes the trace from the
//!   recovered offset and must converge to the same final table as an
//!   uninterrupted run, after which a clean reopen replays nothing.
//!
//! Divergences are reported as [`Divergence::Router`] (wholesale state
//! mismatches) or [`Divergence::Lookup`] with [`Stage::Recovery`]
//! (probe disagreement against the recovered compressed table).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use clue_compress::onrtc;
use clue_fib::{Prefix, RouteTable, Update};
use clue_router::{
    CheckpointView, JournalBatch, RouterConfig, RouterService, SubmitOutcome, UpdateJournal,
};
use clue_store::{Store, StoreConfig};

use crate::harness::{CheckConfig, Divergence, Stage};
use crate::model::Oracle;
use crate::probes::probe_set;

/// Salt decorrelating recovery probes from every other derived stream.
const RECOVERY_PROBE_SALT: u64 = 0xA5A5_0005;

/// Outcome of the recovery phase.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOutcome {
    /// Crash points exercised (corruption variants included).
    pub crash_points: usize,
    /// Journal records replayed across all recoveries.
    pub replayed: u64,
    /// Boundary probes compared against the oracle.
    pub probes: u64,
}

/// How the journal tail is mangled after a simulated crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailDamage {
    /// Crash only: every journaled record is intact.
    None,
    /// The final record is torn mid-write (suffix truncated).
    Torn,
    /// A byte near the end of the final record is bit-flipped.
    Flipped,
}

fn rec_div(what: impl std::fmt::Display) -> Divergence {
    Divergence::Router {
        what: format!("recovery phase: {what}"),
    }
}

fn io_div(what: &str, e: &io::Error) -> Divergence {
    rec_div(format!("{what}: {e}"))
}

/// A store whose drain "crashes": appends and mid-run checkpoints are
/// real, but the drain-time checkpoint never happens, leaving the WAL
/// tail on disk exactly as a killed process would.
struct CrashStore(Store);

impl UpdateJournal for CrashStore {
    fn append(&mut self, batch: &JournalBatch<'_>) -> io::Result<()> {
        self.0.append(batch)
    }
    fn wants_checkpoint(&self) -> bool {
        self.0.wants_checkpoint()
    }
    fn checkpoint(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        self.0.checkpoint(view)
    }
    fn on_drain(&mut self, _view: &CheckpointView<'_>) -> io::Result<()> {
        Ok(())
    }
}

fn phase_dir(cfg: &CheckConfig, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clue-oracle-recov-{}-{:x}-{tag}",
        std::process::id(),
        cfg.seed,
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn router_cfg(cfg: &CheckConfig) -> RouterConfig {
    RouterConfig {
        workers: cfg.chips,
        dred_capacity: cfg.dred_capacity,
        batch_size: cfg.batch,
        backend: cfg.backend,
        ..RouterConfig::default()
    }
}

/// Runs a journaled service over `trace[..upto]` in a fresh `dir` with
/// sequence tags `1..=upto`; `crash` suppresses the drain checkpoint.
fn run_journaled(
    dir: &Path,
    table: &RouteTable,
    trace: &[Update],
    cfg: &CheckConfig,
    scfg: StoreConfig,
    crash: bool,
) -> Result<(), Divergence> {
    let (store, state, recovered) = Store::open_or_seed(dir, scfg, Some(table), cfg.chips)
        .map_err(|e| io_div("seeding fresh data dir", &e))?;
    if recovered {
        return Err(rec_div("fresh data dir unexpectedly held state"));
    }
    let journal: Box<dyn UpdateJournal> = if crash {
        Box::new(CrashStore(store))
    } else {
        Box::new(store)
    };
    let svc = RouterService::start_recovered(state, &router_cfg(cfg), Some(journal));
    for (i, &u) in trace.iter().enumerate() {
        if svc.submit_update_tagged(u, i as u64 + 1) != SubmitOutcome::Accepted {
            return Err(rec_div(format!("update {i} rejected under Block policy")));
        }
    }
    let report = svc.drain();
    if report.snapshot.journal_errors != 0 {
        return Err(rec_div(format!(
            "{} journal errors while writing the data dir",
            report.snapshot.journal_errors
        )));
    }
    Ok(())
}

fn newest_segment(dir: &Path) -> Option<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".clog"))
        })
        .collect();
    segs.sort();
    segs.pop()
}

fn damage_tail(dir: &Path, damage: TailDamage) -> Result<(), Divergence> {
    if damage == TailDamage::None {
        return Ok(());
    }
    let seg = newest_segment(dir).ok_or_else(|| rec_div("crash run left no WAL tail to damage"))?;
    let mut bytes = fs::read(&seg).map_err(|e| io_div("reading WAL tail", &e))?;
    match damage {
        TailDamage::None => {}
        TailDamage::Torn => {
            let keep = bytes.len().saturating_sub(7);
            bytes.truncate(keep);
        }
        TailDamage::Flipped => {
            let at = bytes.len().saturating_sub(11);
            bytes[at] ^= 0x10;
        }
    }
    fs::write(&seg, &bytes).map_err(|e| io_div("writing damaged WAL tail", &e))?;
    Ok(())
}

/// Boundary-probes the recovered table's compressed form against the
/// oracle holding the expected state; `touched` focuses the probe set
/// on the prefixes nearest the crash point.
fn probe_recovered(
    recovered: &RouteTable,
    expected: &Oracle,
    touched: &[Prefix],
    crash_point: usize,
    cfg: &CheckConfig,
) -> Result<u64, Divergence> {
    let compressed = Oracle::new(&onrtc(recovered));
    let standing = expected.prefixes();
    let addrs = probe_set(
        &standing,
        touched,
        cfg.seed ^ RECOVERY_PROBE_SALT ^ (crash_point as u64),
        cfg.probe_sample,
        cfg.probe_random,
    );
    let mut probes = 0u64;
    for addr in addrs {
        probes += 1;
        let want = expected.lookup(addr);
        let got = compressed.lookup(addr);
        if got != want {
            return Err(Divergence::Lookup {
                stage: Stage::Recovery,
                batch: crash_point,
                addr,
                expected: want,
                got,
            });
        }
    }
    Ok(probes)
}

/// Prefixes of the trailing `window` updates before `upto`, the region
/// a torn tail most plausibly corrupts.
fn tail_prefixes(trace: &[Update], upto: usize, window: usize) -> Vec<Prefix> {
    trace[upto.saturating_sub(window)..upto]
        .iter()
        .map(|u| u.prefix())
        .collect()
}

/// Drives the recovery conformance phase for `cfg`'s seeded workload.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; data-dir I/O failures are
/// reported as recovery-phase divergences (the phase could not
/// faithfully exercise the store).
pub fn check_recovery_phase(
    table: &RouteTable,
    trace: &[Update],
    cfg: &CheckConfig,
) -> Result<RecoveryOutcome, Divergence> {
    let mut replayed_total = 0u64;
    let mut probes_total = 0u64;
    let mut crash_points = 0usize;

    // Phase A: clean shutdown → zero replay, full high-water, oracle
    // agreement on boundary probes.
    let dir = phase_dir(cfg, "clean");
    // fsync off: these runs measure logical crash consistency (the
    // "crash" is simulated in-process, the filesystem never dies), and
    // per-append fsync would dominate the check's runtime.
    let scfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    run_journaled(&dir, table, trace, cfg, scfg, false)?;
    let (_s, recovery) =
        Store::open(&dir, scfg).map_err(|e| io_div("reopening after clean shutdown", &e))?;
    let rec = recovery.ok_or_else(|| rec_div("clean data dir recovered no state"))?;
    if rec.replayed != 0 {
        return Err(rec_div(format!(
            "clean shutdown left {} journal records to replay (drain checkpoint must cover all)",
            rec.replayed
        )));
    }
    if rec.truncated {
        return Err(rec_div("clean journal scanned as truncated"));
    }
    if rec.seq_hw != trace.len() as u64 || rec.raw_applied != trace.len() as u64 {
        return Err(rec_div(format!(
            "clean recovery at seq_hw {} / raw_applied {} for a {}-update trace",
            rec.seq_hw,
            rec.raw_applied,
            trace.len()
        )));
    }
    let mut expected = Oracle::new(table);
    for &u in trace {
        expected.apply(u);
    }
    if rec.table != expected.table() {
        return Err(rec_div(format!(
            "clean recovery diverged: {} routes vs oracle's {}",
            rec.table.len(),
            expected.table().len()
        )));
    }
    probes_total += probe_recovered(
        &rec.table,
        &expected,
        &tail_prefixes(trace, trace.len(), cfg.batch),
        0,
        cfg,
    )?;
    fs::remove_dir_all(&dir).map_err(|e| io_div("cleaning clean-phase dir", &e))?;

    if trace.len() < 8 {
        // Too short a trace for meaningful crash points; the clean
        // phase above is the whole story.
        return Ok(RecoveryOutcome {
            crash_points,
            replayed: replayed_total,
            probes: probes_total,
        });
    }

    // Phase B: seeded crash points at arbitrary trace offsets, one per
    // damage mode. A small snapshot interval on the undamaged point
    // asserts the replay bound; the damaged points run checkpoint-free
    // so the whole journal is the (corruptible) tail.
    let n = trace.len();
    let offsets = [
        1 + (cfg.seed as usize).wrapping_mul(7) % (n - 1),
        1 + (cfg.seed as usize).wrapping_mul(13) % (n - 1),
        1 + (cfg.seed as usize).wrapping_mul(29) % (n - 1),
    ];
    let damages = [TailDamage::None, TailDamage::Torn, TailDamage::Flipped];
    let mut continue_from: Option<(PathBuf, StoreConfig)> = None;
    for (i, (&upto, &damage)) in offsets.iter().zip(&damages).enumerate() {
        let crash_point = i + 1;
        crash_points += 1;
        let tag = format!("crash{i}");
        let dir = phase_dir(cfg, &tag);
        let snapshot_every = if damage == TailDamage::None {
            4
        } else {
            u64::MAX
        };
        let scfg = StoreConfig {
            snapshot_every,
            fsync: false,
        };
        run_journaled(&dir, table, &trace[..upto], cfg, scfg, true)?;
        damage_tail(&dir, damage)?;

        let (_s, recovery) = Store::open(&dir, scfg)
            .map_err(|e| io_div(&format!("reopening crash point {crash_point}"), &e))?;
        let rec = recovery
            .ok_or_else(|| rec_div(format!("crash point {crash_point} recovered no state")))?;
        replayed_total += rec.replayed;
        match damage {
            TailDamage::None => {
                if rec.truncated {
                    return Err(rec_div(format!(
                        "crash point {crash_point}: intact journal scanned as truncated"
                    )));
                }
                if rec.replayed > snapshot_every {
                    return Err(rec_div(format!(
                        "crash point {crash_point}: replayed {} records past a {}-append \
                         snapshot interval",
                        rec.replayed, snapshot_every
                    )));
                }
                if rec.raw_applied != upto as u64 || rec.seq_hw != upto as u64 {
                    return Err(rec_div(format!(
                        "crash point {crash_point}: recovered raw_applied {} / seq_hw {} \
                         but {upto} updates were journaled",
                        rec.raw_applied, rec.seq_hw
                    )));
                }
            }
            TailDamage::Torn | TailDamage::Flipped => {
                if !rec.truncated {
                    return Err(rec_div(format!(
                        "crash point {crash_point}: damaged tail not detected as truncated"
                    )));
                }
                if rec.raw_applied >= upto as u64 {
                    return Err(rec_div(format!(
                        "crash point {crash_point}: raw_applied {} despite a damaged final \
                         record ({upto} journaled)",
                        rec.raw_applied
                    )));
                }
            }
        }
        let applied = rec.raw_applied as usize;
        let mut expected = Oracle::new(table);
        for &u in &trace[..applied] {
            expected.apply(u);
        }
        if rec.table != expected.table() {
            return Err(rec_div(format!(
                "crash point {crash_point}: recovered table ({} routes) is not the oracle \
                 at trace offset {applied}",
                rec.table.len()
            )));
        }
        probes_total += probe_recovered(
            &rec.table,
            &expected,
            &tail_prefixes(trace, applied, cfg.batch),
            crash_point,
            cfg,
        )?;

        if damage == TailDamage::None {
            // Keep this dir for the continuation phase below.
            continue_from = Some((dir, scfg));
        } else {
            fs::remove_dir_all(&dir).map_err(|e| io_div("cleaning crash-phase dir", &e))?;
        }
    }

    // Phase C: boot from the undamaged crash point's recovered state,
    // resume the trace where the journal left off, and converge to the
    // same final table as an uninterrupted run.
    let (dir, scfg) = continue_from.ok_or_else(|| rec_div("no undamaged crash point kept"))?;
    let (store, recovery) =
        Store::open(&dir, scfg).map_err(|e| io_div("reopening for continuation", &e))?;
    let rec = recovery.ok_or_else(|| rec_div("continuation dir recovered no state"))?;
    let resume_at = rec.raw_applied as usize;
    let seq0 = rec.seq_hw;
    let svc =
        RouterService::start_recovered(rec.into_state(), &router_cfg(cfg), Some(Box::new(store)));
    for (i, &u) in trace[resume_at..].iter().enumerate() {
        if svc.submit_update_tagged(u, seq0 + i as u64 + 1) != SubmitOutcome::Accepted {
            return Err(rec_div(format!(
                "resumed update {} rejected under Block policy",
                resume_at + i
            )));
        }
    }
    let report = svc.drain();
    if report.final_table != expected_final(table, trace) {
        return Err(rec_div(format!(
            "continuation from offset {resume_at} diverged: {} routes in the final table",
            report.final_table.len()
        )));
    }
    let (_s, recovery) =
        Store::open(&dir, scfg).map_err(|e| io_div("reopening after continuation", &e))?;
    let rec = recovery.ok_or_else(|| rec_div("post-continuation dir recovered no state"))?;
    if rec.replayed != 0 || rec.raw_applied != trace.len() as u64 {
        return Err(rec_div(format!(
            "post-continuation reopen replayed {} records at raw_applied {} (want 0 at {})",
            rec.replayed,
            rec.raw_applied,
            trace.len()
        )));
    }
    fs::remove_dir_all(&dir).map_err(|e| io_div("cleaning continuation dir", &e))?;

    Ok(RecoveryOutcome {
        crash_points,
        replayed: replayed_total,
        probes: probes_total,
    })
}

fn expected_final(table: &RouteTable, trace: &[Update]) -> RouteTable {
    let mut t = table.clone();
    for &u in trace {
        t.apply(u);
    }
    t
}
