//! The write-ahead journal: segmented, CRC-32-framed, append-only.
//!
//! ## Record layout (all integers big-endian)
//!
//! ```text
//! magic    u32   0x434C_5752 ("CLWR")
//! version  u8    1
//! jseq     u64   journal sequence number (contiguous from 1)
//! epoch    u64   router epoch current when the batch was accepted
//! seq_hw   u64   ingress sequence high-water drained into the batch
//! raw      u32   raw (pre-coalescing) updates the batch absorbs
//! len      u32   payload length in bytes
//! payload  [u8]  clue_core::codec::encode_updates(ops)
//! crc      u32   CRC-32 over every preceding byte of the record
//! ```
//!
//! Header is 37 bytes; the smallest record (empty op list) is 45.
//!
//! ## Segments
//!
//! Records are appended to `wal-<jseq:016x>.clog` files named after
//! their first record's `jseq`. The writer rotates to a fresh segment
//! past [`SEGMENT_BYTES`](crate::SEGMENT_BYTES) and — key
//! for recovery — always opens a *fresh* segment after a restart, so a
//! corrupt tail in one segment never poisons later records: the scan
//! skips the garbage and picks the sequence back up at the next
//! segment boundary.
//!
//! ## Scan-to-last-valid
//!
//! [`scan_dir`] walks segments in `jseq` order, decoding records until
//! one fails its CRC/structure check (torn write, truncation, bit
//! flip), then continues with the next segment if — and only if — it
//! carries the next expected `jseq`. A genuine gap ends the scan: what
//! follows can no longer be replayed consistently.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use clue_core::codec::{bad_data, decode_updates, encode_updates, Cursor};
use clue_core::crc::crc32;
use clue_fib::{RouteTable, Update};
use clue_router::JournalBatch;

/// WAL record magic, "CLWR".
pub const WAL_MAGIC: u32 = 0x434C_5752;
/// WAL record format version.
pub const WAL_VERSION: u8 = 1;
/// Fixed bytes before the payload.
pub const RECORD_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8 + 4 + 4;
/// Payload cap, mirroring the wire protocol's frame cap.
pub const MAX_RECORD_PAYLOAD: u32 = 16 * 1024 * 1024;

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Journal sequence number (contiguous from 1).
    pub jseq: u64,
    /// Router epoch current when the batch was accepted.
    pub epoch: u64,
    /// Ingress sequence high-water drained into the batch.
    pub seq_hw: u64,
    /// Raw updates the batch absorbs (pre-coalescing).
    pub raw: u32,
    /// The coalesced ops.
    pub ops: Vec<Update>,
}

impl WalRecord {
    /// Replays this record onto a recovered state — a restart's replay
    /// of its journal tail, or a standby applying a shipped record:
    /// applies the ops, then resumes numbering past the batch. `epoch`
    /// here is the epoch *before* the batch applied, and the batch may
    /// have published `epoch + 1`; resuming past that keeps epoch
    /// numbers monotone across the restart or the promotion.
    pub fn replay_onto(&self, table: &mut RouteTable, epoch: &mut u64, seq_hw: &mut u64) {
        for &op in &self.ops {
            table.apply(op);
        }
        *epoch = (*epoch).max(self.epoch + 1);
        *seq_hw = (*seq_hw).max(self.seq_hw);
    }
}

/// Encodes one record, CRC included.
#[must_use]
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let batch = JournalBatch {
        epoch: rec.epoch,
        seq_hw: rec.seq_hw,
        raw: rec.raw,
        ops: &rec.ops,
    };
    encode_batch(rec.jseq, &batch)
}

/// Encodes `batch` as record `jseq`, CRC included, without copying its
/// ops.
pub(crate) fn encode_batch(jseq: u64, batch: &JournalBatch<'_>) -> Vec<u8> {
    let payload = encode_updates(batch.ops);
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + payload.len() + 4);
    buf.extend_from_slice(&WAL_MAGIC.to_be_bytes());
    buf.push(WAL_VERSION);
    buf.extend_from_slice(&jseq.to_be_bytes());
    buf.extend_from_slice(&batch.epoch.to_be_bytes());
    buf.extend_from_slice(&batch.seq_hw.to_be_bytes());
    buf.extend_from_slice(&batch.raw.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&payload);
    buf.extend_from_slice(&crc32(&buf).to_be_bytes());
    buf
}

/// Decodes the record at the head of `buf`, returning it and the bytes
/// consumed.
///
/// # Errors
///
/// `InvalidData` on bad magic/version, an oversized length, a CRC
/// mismatch, or a malformed payload; `UnexpectedEof`-flavored
/// `InvalidData` on truncation. Never panics, whatever the bytes.
pub fn decode_record(buf: &[u8]) -> io::Result<(WalRecord, usize)> {
    let mut c = Cursor::new(buf);
    let magic = c.u32()?;
    if magic != WAL_MAGIC {
        return Err(bad_data(format!("bad record magic {magic:#010x}")));
    }
    let version = c.u8()?;
    if version != WAL_VERSION {
        return Err(bad_data(format!("unsupported record version {version}")));
    }
    let jseq = c.u64()?;
    let epoch = c.u64()?;
    let seq_hw = c.u64()?;
    let raw = c.u32()?;
    let len = c.u32()?;
    if len > MAX_RECORD_PAYLOAD {
        return Err(bad_data(format!("record payload of {len} bytes too large")));
    }
    let payload = c.take(len as usize)?;
    let crc_at = c.consumed();
    let crc = c.u32()?;
    if crc != crc32(&buf[..crc_at]) {
        return Err(bad_data(format!("record jseq {jseq}: CRC mismatch")));
    }
    let ops = decode_updates(payload)?;
    Ok((
        WalRecord {
            jseq,
            epoch,
            seq_hw,
            raw,
            ops,
        },
        crc_at + 4,
    ))
}

/// The file name of the segment whose first record is `jseq`.
#[must_use]
pub fn segment_name(jseq: u64) -> String {
    format!("wal-{jseq:016x}.clog")
}

/// Lists a data dir's WAL segments in `jseq` order.
///
/// # Errors
///
/// Propagates directory-read errors.
pub fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("wal-") && name.ends_with(".clog") {
            segs.push(path);
        }
    }
    // The fixed-width hex name makes lexicographic order jseq order.
    segs.sort();
    Ok(segs)
}

/// The outcome of scanning the journal tail after a snapshot.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Valid records with `jseq > after`, contiguous from `after + 1`.
    pub records: Vec<WalRecord>,
    /// Whether the scan hit a corrupt/torn tail or a sequence gap and
    /// stopped short of the physical end of the journal.
    pub truncated: bool,
}

/// Scans every segment for the contiguous run of valid records after
/// `after` (scan-to-last-valid).
///
/// # Errors
///
/// Propagates I/O errors reading the directory or segment files;
/// *corrupt bytes are not errors* — they end the affected segment and
/// set [`ScanOutcome::truncated`].
pub fn scan_dir(dir: &Path, after: u64) -> io::Result<ScanOutcome> {
    let mut out = ScanOutcome::default();
    let mut expected = after + 1;
    for seg in list_segments(dir)? {
        let bytes = fs::read(&seg)?;
        let mut at = 0usize;
        while at < bytes.len() {
            match decode_record(&bytes[at..]) {
                Ok((rec, used)) => {
                    at += used;
                    if rec.jseq < expected {
                        // Pre-snapshot leftovers an unpruned segment
                        // may still hold.
                        continue;
                    }
                    if rec.jseq > expected {
                        // A hole: nothing past it can replay soundly.
                        out.truncated = true;
                        return Ok(out);
                    }
                    out.records.push(rec);
                    expected += 1;
                }
                Err(_) => {
                    // Torn/corrupt tail of this segment. A post-crash
                    // writer opens a fresh segment, so later segments
                    // may continue the sequence; keep scanning them.
                    out.truncated = true;
                    break;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_fib::{NextHop, Prefix};

    fn rec(jseq: u64) -> WalRecord {
        WalRecord {
            jseq,
            epoch: jseq,
            seq_hw: jseq * 10,
            raw: 3,
            ops: vec![
                Update::Announce {
                    prefix: Prefix::new(0x0A00_0000, 8),
                    next_hop: NextHop(jseq as u16),
                },
                Update::Withdraw {
                    prefix: Prefix::new(0xC0A8_0000, 16),
                },
            ],
        }
    }

    #[test]
    fn records_round_trip() {
        let r = rec(7);
        let bytes = encode_record(&r);
        let (back, used) = decode_record(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, bytes.len());

        // Empty op list (a fully-cancelled batch) is a valid record.
        let empty = WalRecord {
            ops: Vec::new(),
            ..rec(8)
        };
        let bytes = encode_record(&empty);
        assert_eq!(bytes.len(), RECORD_HEADER_LEN + 4 + 4);
        assert_eq!(decode_record(&bytes).unwrap().0, empty);
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = encode_record(&rec(1));
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_bit_flip_fails_cleanly() {
        let good = encode_record(&rec(1));
        for i in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[i / 8] ^= 1 << (i % 8);
            assert!(decode_record(&bytes).is_err(), "bit {i} flip accepted");
        }
    }

    #[test]
    fn scan_survives_a_corrupt_segment_tail() {
        let dir = std::env::temp_dir().join(format!("clue-wal-scan-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();

        // Segment 1: records 1..=2 plus a torn third record.
        let mut seg1 = Vec::new();
        seg1.extend_from_slice(&encode_record(&rec(1)));
        seg1.extend_from_slice(&encode_record(&rec(2)));
        let torn = encode_record(&rec(3));
        seg1.extend_from_slice(&torn[..torn.len() / 2]);
        fs::write(dir.join(segment_name(1)), &seg1).unwrap();

        // Segment 2 (a post-crash fresh segment): records 3..=4.
        let mut seg2 = Vec::new();
        seg2.extend_from_slice(&encode_record(&rec(3)));
        seg2.extend_from_slice(&encode_record(&rec(4)));
        fs::write(dir.join(segment_name(3)), &seg2).unwrap();

        let out = scan_dir(&dir, 0).unwrap();
        assert!(out.truncated);
        assert_eq!(
            out.records.iter().map(|r| r.jseq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4],
        );

        // A scan from a later snapshot skips the covered prefix.
        let out = scan_dir(&dir, 3).unwrap();
        assert_eq!(
            out.records.iter().map(|r| r.jseq).collect::<Vec<_>>(),
            vec![4],
        );

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_stops_at_a_sequence_gap() {
        let dir = std::env::temp_dir().join(format!("clue-wal-gap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut seg = Vec::new();
        seg.extend_from_slice(&encode_record(&rec(1)));
        seg.extend_from_slice(&encode_record(&rec(5))); // hole: 2..=4 lost
        fs::write(dir.join(segment_name(1)), &seg).unwrap();

        let out = scan_dir(&dir, 0).unwrap();
        assert!(out.truncated);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].jseq, 1);

        fs::remove_dir_all(&dir).unwrap();
    }
}
