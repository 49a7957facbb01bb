//! `clue snapshot`, `restore` and `replay --data-dir`: a data dir offline.

use crate::args::{ArgError, Args};
use crate::{io_err, load_fib, load_updates, write_text};

use clue::core::json;
use clue::fib::io::write_route_table;
use clue::store::{newest_valid_snapshot, scan_dir, Store, StoreConfig};

/// `clue snapshot`: offline compaction — recover a data dir, fold the
/// journal tail into a fresh snapshot, prune the WAL segments.
pub fn snapshot(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["data-dir"])?;
    let dir = args.required("data-dir")?;
    let (mut store, recovery) = Store::open(std::path::Path::new(dir), StoreConfig::default())
        .map_err(|e| io_err(dir, &e))?;
    let rec =
        recovery.ok_or_else(|| ArgError(format!("{dir} holds no recoverable state to compact")))?;
    println!(
        "recovered {} routes (epoch {}, seq high-water {}, {} journal records replayed{})",
        rec.table.len(),
        rec.epoch,
        rec.seq_hw,
        rec.replayed,
        if rec.truncated {
            "; torn tail skipped"
        } else {
            ""
        },
    );
    store
        .checkpoint_recovery(&rec)
        .map_err(|e| io_err(dir, &e))?;
    println!(
        "checkpointed at journal position {}; WAL pruned",
        store.snapshot_jseq()
    );
    Ok(())
}

/// `clue restore`: offline recovery report. Optionally exports the
/// recovered FIB (`--fib out.txt`) and/or verifies it against a base
/// FIB plus update trace (`--verify-fib`, with `--verify-updates` when
/// the dir absorbed updates), exiting nonzero on divergence so CI can
/// assert convergence after a crash.
pub fn restore(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["data-dir", "fib", "verify-fib", "verify-updates"])?;
    let dir = args.required("data-dir")?;
    let (_store, recovery) = Store::open(std::path::Path::new(dir), StoreConfig::default())
        .map_err(|e| io_err(dir, &e))?;
    let rec = recovery.ok_or_else(|| ArgError(format!("{dir} holds no recoverable state")))?;
    println!(
        "{dir}: {} routes | epoch {} | seq high-water {} | raw updates applied {} | \
         snapshot at jseq {} + {} replayed records | truncated tail: {} | \
         corrupt snapshots skipped: {}",
        rec.table.len(),
        rec.epoch,
        rec.seq_hw,
        rec.raw_applied,
        rec.snapshot_jseq,
        rec.replayed,
        rec.truncated,
        rec.snapshots_skipped,
    );
    if let Some(out) = args.optional("fib") {
        write_text(out, |f| write_route_table(f, &rec.table))?;
        println!("wrote recovered FIB ({} routes) to {out}", rec.table.len());
    }
    match (args.optional("verify-fib"), args.optional("verify-updates")) {
        (None, None) => {}
        (Some(fib_path), upd_path) => {
            let mut want = load_fib(fib_path)?;
            let updates = upd_path.map(load_updates).transpose()?.unwrap_or_default();
            let upd_path = upd_path.unwrap_or("--verify-updates (not given)");
            let applied = usize::try_from(rec.raw_applied)
                .map_err(|_| ArgError("raw_applied overflows usize".into()))?;
            if applied > updates.len() {
                return Err(ArgError(format!(
                    "data dir absorbed {applied} updates but {upd_path} holds only {}",
                    updates.len()
                )));
            }
            for &u in &updates[..applied] {
                want.apply(u);
            }
            if rec.table != want {
                return Err(ArgError(format!(
                    "recovered table ({} routes) diverges from {fib_path} + first {applied} \
                     updates of {upd_path} ({} routes)",
                    rec.table.len(),
                    want.len()
                )));
            }
            println!(
                "verified: recovered table equals {fib_path} after {applied} of {} updates",
                updates.len()
            );
        }
        (None, Some(_)) => {
            return Err(ArgError("--verify-updates needs --verify-fib".into()));
        }
    }
    Ok(())
}

/// `clue replay --data-dir`: journal inspection — print the base
/// snapshot and every decodable WAL record after it. With `--json
/// true` the same information is emitted as JSON Lines: one
/// `"snapshot"` object, one `"record"` object per WAL record, one
/// `"summary"` object — machine-diffable without scraping the table.
pub fn replay_journal(dir: &str, json: bool) -> Result<(), ArgError> {
    let path = std::path::Path::new(dir);
    let (base, skipped) = newest_valid_snapshot(path).map_err(|e| io_err(dir, &e))?;
    let (snap_path, snap) =
        base.ok_or_else(|| ArgError(format!("{dir} holds no valid snapshot")))?;
    let snap_name = snap_path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("?");
    if json {
        let doc = json::object()
            .str("kind", "snapshot")
            .str("file", snap_name)
            .int("routes", snap.table.len() as u64)
            .int("compressed", snap.compressed.len() as u64)
            .int("epoch", snap.epoch)
            .int("seq_hw", snap.seq_hw)
            .int("raw_total", snap.raw_total)
            .int("chips", snap.chips as u64)
            .int("jseq", snap.jseq)
            .int("corrupt_skipped", skipped);
        println!("{}", doc.finish());
    } else {
        println!(
            "{snap_name}: {} routes ({} compressed), epoch {}, seq high-water {}, \
             raw updates {}, {} chips",
            snap.table.len(),
            snap.compressed.len(),
            snap.epoch,
            snap.seq_hw,
            snap.raw_total,
            snap.chips,
        );
        if skipped > 0 {
            println!("({skipped} newer corrupt snapshot(s) skipped)");
        }
    }
    let scan = scan_dir(path, snap.jseq).map_err(|e| io_err(dir, &e))?;
    if json {
        for rec in &scan.records {
            let doc = json::object()
                .str("kind", "record")
                .int("jseq", rec.jseq)
                .int("epoch", rec.epoch)
                .int("seq_hw", rec.seq_hw)
                .int("raw", rec.raw)
                .int("ops", rec.ops.len() as u64);
            println!("{}", doc.finish());
        }
    } else if !scan.records.is_empty() {
        println!(
            "{:>8} {:>8} {:>10} {:>6} {:>6}",
            "jseq", "epoch", "seq_hw", "raw", "ops"
        );
        for rec in &scan.records {
            println!(
                "{:>8} {:>8} {:>10} {:>6} {:>6}",
                rec.jseq,
                rec.epoch,
                rec.seq_hw,
                rec.raw,
                rec.ops.len()
            );
        }
    }
    let raw: u64 = scan.records.iter().map(|r| u64::from(r.raw)).sum();
    if json {
        let doc = json::object()
            .str("kind", "summary")
            .int("records", scan.records.len() as u64)
            .int("raw_updates", raw)
            .bool("truncated", scan.truncated);
        println!("{}", doc.finish());
    } else {
        println!(
            "{} journal records after the snapshot ({} raw updates){}",
            scan.records.len(),
            raw,
            if scan.truncated {
                "; tail truncated at the last valid record"
            } else {
                ""
            },
        );
    }
    Ok(())
}
