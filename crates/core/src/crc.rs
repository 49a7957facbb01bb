//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) computed
//! slice-by-8 with compile-time tables.
//!
//! This is the single checksum implementation shared by everything in
//! the workspace that frames bytes for an unreliable medium: the
//! `clue-net` wire protocol (socket frames) and the `clue-store`
//! write-ahead journal and snapshot files (disk records). The workspace
//! carries no external dependencies, so the checksum is hand-rolled;
//! the known-answer test below pins it to the standard
//! (`crc32(b"123456789") == 0xCBF4_3926`), which is what `zlib`,
//! Ethernet, and every other IEEE-CRC implementation produce.
//!
//! Slice-by-8 folds eight bytes per step through eight 256-entry
//! tables: `TABLES[k][b]` is the CRC contribution of byte `b` followed
//! by `k` zero bytes, so the eight lookups of one step are independent
//! and a multi-megabyte snapshot checksums several times faster than
//! one table lookup per byte. The tail shorter than eight bytes goes
//! through `TABLES[0]`, the classic bytewise table.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feeds `data` into a running (pre-final-XOR) CRC state. Start from
/// `0xFFFF_FFFF` and XOR with `0xFFFF_FFFF` when done; [`crc32`] does
/// both for the single-shot case.
#[must_use]
pub fn update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer() {
        // The universal CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_single_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32(data);
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, whole);
    }

    /// The classic one-lookup-per-byte loop: the reference the
    /// slice-by-8 fold must reproduce.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        let mut crc = state;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_loop_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 167 + 13) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                for state in [0xFFFF_FFFF, 0x1234_5678] {
                    assert_eq!(
                        update(state, data),
                        bytewise(state, data),
                        "offset {offset} len {len} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"CLUE frame payload".to_vec();
        let good = crc32(&data);
        for i in 0..data.len() * 8 {
            data[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&data), good, "bit {i} flip undetected");
            data[i / 8] ^= 1 << (i % 8);
        }
    }
}
