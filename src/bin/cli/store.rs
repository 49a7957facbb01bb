//! `clue snapshot`, `restore` and `replay --data-dir`: a data dir offline.

use crate::args::{ArgError, Args};
use crate::{io_err, load_fib, load_updates, write_text};

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
/// FIB plus update trace (`--verify-fib`/`--verify-updates`), exiting
/// nonzero on divergence so CI can assert convergence after a crash.
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
        (Some(fib_path), Some(upd_path)) => {
            let mut want = load_fib(fib_path)?;
            let updates = load_updates(upd_path)?;
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
        _ => {
            return Err(ArgError(
                "--verify-fib and --verify-updates must be given together".into(),
            ))
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
        println!(
            "{{\"kind\":\"snapshot\",\"file\":\"{snap_name}\",\"routes\":{},\
             \"compressed\":{},\"epoch\":{},\"seq_hw\":{},\"raw_total\":{},\
             \"chips\":{},\"jseq\":{},\"corrupt_skipped\":{skipped}}}",
            snap.table.len(),
            snap.compressed.len(),
            snap.epoch,
            snap.seq_hw,
            snap.raw_total,
            snap.chips,
            snap.jseq,
        );
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
            println!(
                "{{\"kind\":\"record\",\"jseq\":{},\"epoch\":{},\"seq_hw\":{},\
                 \"raw\":{},\"ops\":{}}}",
                rec.jseq,
                rec.epoch,
                rec.seq_hw,
                rec.raw,
                rec.ops.len()
            );
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
        println!(
            "{{\"kind\":\"summary\",\"records\":{},\"raw_updates\":{raw},\
             \"truncated\":{}}}",
            scan.records.len(),
            scan.truncated,
        );
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
