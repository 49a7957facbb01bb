//! Versioned binary snapshots of the router's durable state.
//!
//! ## File layout (all integers big-endian)
//!
//! ```text
//! magic       u32   0x434C_534E ("CLSN")
//! version     u32   1
//! jseq        u64   journal records ≤ jseq are folded into this file
//! epoch       u64   last published epoch at the boundary
//! seq_hw      u64   journaled ingress-sequence high-water
//! raw_total   u64   cumulative raw updates folded in (trace offset)
//! chips       u32   worker/chip count
//! cuts        u32 count, then count × u32 partition cut points
//! table       u32 count, then count × (bits u32, len u8, hop u16)
//! compressed  same encoding as table
//! dreds       chips × (u32 count, then count × route records); the
//!             store writes each count as 0 and ignores the lists
//! crc         u32   CRC-32 over every preceding byte
//! ```
//!
//! The *original* table is the unit of recovery — the compressed table
//! alone cannot reproduce merge/withdraw behavior, because ONRTC merges
//! are not invertible. The compressed copy is stored anyway and doubles
//! as a deep integrity check: [`load_snapshot`] recompresses the
//! recovered table and rejects the file if the two disagree, so a
//! snapshot that decodes but lies is treated exactly like a torn one
//! (recovery falls back to the next-older snapshot).
//!
//! Writes are atomic: the file is assembled in a `.tmp` sibling,
//! `sync_all`-ed, then renamed over the final `snap-<jseq:016x>.csnap`
//! name, with a best-effort directory sync after the rename.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use clue_compress::onrtc;
use clue_core::codec::{bad_data, Cursor};
use clue_core::crc::crc32;
use clue_fib::{NextHop, Prefix, Route, RouteTable};

/// Snapshot magic, "CLSN".
pub const SNAP_MAGIC: u32 = 0x434C_534E;
/// Snapshot format version.
pub const SNAP_VERSION: u32 = 1;

/// One decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Journal records ≤ `jseq` are folded into this snapshot.
    pub jseq: u64,
    /// Last published epoch at the boundary.
    pub epoch: u64,
    /// Journaled ingress-sequence high-water.
    pub seq_hw: u64,
    /// Cumulative raw updates folded in (the exact update-trace offset
    /// this state corresponds to).
    pub raw_total: u64,
    /// Worker/chip count.
    pub chips: u32,
    /// Partition cut points in force at the boundary.
    pub cuts: Vec<u32>,
    /// The original route table.
    pub table: RouteTable,
    /// The ONRTC-compressed table (integrity twin of `table`).
    pub compressed: RouteTable,
    /// Per-chip DRed lists. The store writes empty ones and ignores
    /// what it reads; the field keeps the format byte-compatible.
    pub dreds: Vec<Vec<Route>>,
}

fn put_table(buf: &mut Vec<u8>, len: usize, routes: impl Iterator<Item = Route>) {
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    for r in routes {
        buf.extend_from_slice(&r.prefix.bits().to_be_bytes());
        buf.push(r.prefix.len());
        buf.extend_from_slice(&r.next_hop.0.to_be_bytes());
    }
}

fn get_routes(c: &mut Cursor<'_>) -> io::Result<Vec<Route>> {
    let count = c.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for i in 0..count {
        let bits = c.u32()?;
        let len = c.u8()?;
        if len > 32 {
            return Err(bad_data(format!("route {i}: prefix length {len} > 32")));
        }
        out.push(Route::new(Prefix::new(bits, len), NextHop(c.u16()?)));
    }
    Ok(out)
}

/// Encodes a snapshot, CRC included.
#[must_use]
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&SNAP_MAGIC.to_be_bytes());
    buf.extend_from_slice(&SNAP_VERSION.to_be_bytes());
    buf.extend_from_slice(&snap.jseq.to_be_bytes());
    buf.extend_from_slice(&snap.epoch.to_be_bytes());
    buf.extend_from_slice(&snap.seq_hw.to_be_bytes());
    buf.extend_from_slice(&snap.raw_total.to_be_bytes());
    buf.extend_from_slice(&snap.chips.to_be_bytes());
    buf.extend_from_slice(&(snap.cuts.len() as u32).to_be_bytes());
    for &cut in &snap.cuts {
        buf.extend_from_slice(&cut.to_be_bytes());
    }
    put_table(&mut buf, snap.table.len(), snap.table.iter());
    put_table(&mut buf, snap.compressed.len(), snap.compressed.iter());
    for dred in &snap.dreds {
        put_table(&mut buf, dred.len(), dred.iter().copied());
    }
    buf.extend_from_slice(&crc32(&buf).to_be_bytes());
    buf
}

/// Decodes a snapshot and verifies both its CRC and its semantic
/// integrity (`compressed == onrtc(table)`).
///
/// # Errors
///
/// `InvalidData` on any structural, checksum, or integrity failure.
/// Never panics, whatever the bytes.
pub fn decode_snapshot(bytes: &[u8]) -> io::Result<Snapshot> {
    if bytes.len() < 4 {
        return Err(bad_data("snapshot shorter than its CRC".into()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_be_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc != crc32(body) {
        return Err(bad_data("snapshot CRC mismatch".into()));
    }

    let mut c = Cursor::new(body);
    let magic = c.u32()?;
    if magic != SNAP_MAGIC {
        return Err(bad_data(format!("bad snapshot magic {magic:#010x}")));
    }
    let version = c.u32()?;
    if version != SNAP_VERSION {
        return Err(bad_data(format!("unsupported snapshot version {version}")));
    }
    let jseq = c.u64()?;
    let epoch = c.u64()?;
    let seq_hw = c.u64()?;
    let raw_total = c.u64()?;
    let chips = c.u32()?;
    if chips == 0 || chips > 4096 {
        return Err(bad_data(format!("implausible chip count {chips}")));
    }
    let cut_count = c.u32()? as usize;
    let mut cuts = Vec::with_capacity(cut_count.min(1 << 16));
    for _ in 0..cut_count {
        cuts.push(c.u32()?);
    }
    let table: RouteTable = get_routes(&mut c)?.into_iter().collect();
    let compressed: RouteTable = get_routes(&mut c)?.into_iter().collect();
    let mut dreds = Vec::with_capacity(chips as usize);
    for _ in 0..chips {
        dreds.push(get_routes(&mut c)?);
    }
    c.finish()?;

    if table.is_empty() {
        return Err(bad_data("snapshot holds an empty table".into()));
    }
    if onrtc(&table) != compressed {
        return Err(bad_data(
            "snapshot integrity failure: stored compressed table is not onrtc(table)".into(),
        ));
    }
    Ok(Snapshot {
        jseq,
        epoch,
        seq_hw,
        raw_total,
        chips,
        cuts,
        table,
        compressed,
        dreds,
    })
}

/// The file name of the snapshot at journal position `jseq`.
#[must_use]
pub fn snapshot_name(jseq: u64) -> String {
    format!("snap-{jseq:016x}.csnap")
}

/// Lists a data dir's snapshots, newest (highest `jseq`) first.
///
/// # Errors
///
/// Propagates directory-read errors.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("snap-") && name.ends_with(".csnap") {
            snaps.push(path);
        }
    }
    snaps.sort();
    snaps.reverse();
    Ok(snaps)
}

/// The newest snapshot in `dir` that validates, with its path, and how
/// many newer ones failed to (recovery falls back past those).
///
/// # Errors
///
/// Propagates directory-read errors; an unreadable or corrupt snapshot
/// file is counted, not returned.
pub fn newest_valid_snapshot(dir: &Path) -> io::Result<(Option<(PathBuf, Snapshot)>, u64)> {
    let mut skipped = 0;
    for path in list_snapshots(dir)? {
        match load_snapshot(&path) {
            Ok(snap) => return Ok((Some((path, snap)), skipped)),
            Err(_) => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// Atomically writes `snap` into `dir`: tmp file → `sync_all` → rename
/// → best-effort directory sync.
///
/// # Errors
///
/// Propagates I/O failures; a failed write leaves at most a `.tmp`
/// sibling behind, never a half-written snapshot under the final name.
pub fn write_snapshot(dir: &Path, snap: &Snapshot) -> io::Result<PathBuf> {
    let bytes = encode_snapshot(snap);
    let final_path = dir.join(snapshot_name(snap.jseq));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_name(snap.jseq)));
    {
        let mut f = fs::File::create(&tmp_path)?;
        io::Write::write_all(&mut f, &bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Reads and validates the snapshot at `path`.
///
/// # Errors
///
/// I/O errors reading the file, plus everything [`decode_snapshot`]
/// rejects.
pub fn load_snapshot(path: &Path) -> io::Result<Snapshot> {
    decode_snapshot(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let table: RouteTable = (0..64u32)
            .map(|i| Route::new(Prefix::new(i << 24, 8), NextHop((i % 7) as u16)))
            .collect();
        let compressed = onrtc(&table);
        Snapshot {
            jseq: 42,
            epoch: 9,
            seq_hw: 1234,
            raw_total: 5000,
            chips: 4,
            cuts: vec![0x2000_0000, 0x8000_0000, 0xC000_0000],
            dreds: vec![
                vec![Route::new(Prefix::new(0x0100_0000, 8), NextHop(1))],
                Vec::new(),
                vec![Route::new(Prefix::new(0x0200_0000, 8), NextHop(2))],
                Vec::new(),
            ],
            table,
            compressed,
        }
    }

    #[test]
    fn snapshots_round_trip() {
        let snap = sample();
        let back = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn corruption_is_rejected() {
        let bytes = encode_snapshot(&sample());
        // Truncation at a sampling of offsets.
        for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A flip anywhere breaks the whole-file CRC.
        for at in (0..bytes.len()).step_by(37) {
            let mut b = bytes.clone();
            b[at] ^= 0x40;
            assert!(decode_snapshot(&b).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn semantic_integrity_is_enforced() {
        // A snapshot whose stored compressed table disagrees with
        // onrtc(table) decodes structurally but must still be rejected.
        let mut snap = sample();
        snap.compressed
            .insert(Prefix::new(0xFE00_0000, 8), NextHop(999));
        assert_ne!(snap.compressed, onrtc(&snap.table), "test needs a lie");
        let bytes = encode_snapshot(&snap);
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
    }

    #[test]
    fn write_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("clue-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let snap = sample();
        let path = write_snapshot(&dir, &snap).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        assert!(!fs::read_dir(&dir).unwrap().any(|e| {
            let p = e.unwrap().path();
            p.extension().is_some_and(|x| x == "tmp")
        }));
        fs::remove_dir_all(&dir).unwrap();
    }
}
