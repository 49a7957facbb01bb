//! The versioned shard map: how one logical router carves the 32-bit
//! address space across N shard processes.
//!
//! The cuts come straight from `clue-partition`'s exact-cover
//! even-range split of the ONRTC-compressed table, so the shard
//! function is the same `partition_point` the per-chip range index
//! uses: shard *i* owns the half-open address interval
//! `[cuts[i-1], cuts[i])` (with 0 and 2³² at the ends). Because the
//! intervals tile the space exactly, every /32 address maps to exactly
//! one shard — the property test in `tests/shardmap.rs` pins this.
//!
//! Updates route by *range intersection*: an announce or withdraw whose
//! prefix straddles a cut is replicated to every shard whose interval
//! it touches, so each shard holds every route that can match any
//! address it owns. That makes a shard's table exactly
//! [`filter_table`](ShardMap::filter_table) of the logical table, and
//! longest-prefix match over it agrees with the flat table for every
//! owned address — the invariant the oracle's cluster phase asserts
//! bit-for-bit.
//!
//! ## File/wire layout (all integers big-endian)
//!
//! ```text
//! magic    u32   0x434C_534D ("CLSM")
//! version  u32   1
//! shards   u32   n ≥ 1
//! cuts     (n−1) × u32, strictly increasing
//! per shard: primary  u16 len + UTF-8 bytes (non-empty)
//!            standby  u16 len + UTF-8 bytes (0 = none)
//! crc      u32   CRC-32 over every preceding byte
//! ```

use std::fs;
use std::io;
use std::ops::RangeInclusive;
use std::path::Path;

use clue_compress::onrtc_routes;
use clue_core::codec::{bad_data, Cursor};
use clue_core::crc::crc32;
use clue_fib::{Prefix, RouteTable};
use clue_partition::RangeIndex;

/// Shard-map magic, "CLSM".
pub const MAP_MAGIC: u32 = 0x434C_534D;
/// Shard-map format version.
pub const MAP_VERSION: u32 = 1;
/// Upper bound on shard count (sanity guard for decoders).
pub const MAX_SHARDS: usize = 4096;
/// Upper bound on an address string's length.
const MAX_ADDR_LEN: usize = 256;

/// One shard's endpoints: the primary serving address and an optional
/// warm standby the proxy promotes on primary failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Address of the shard's primary `clue serve` process.
    pub primary: String,
    /// Address of the shard's standby frontend, if one is running.
    pub standby: Option<String>,
}

impl ShardSpec {
    /// A spec with no standby.
    #[must_use]
    pub fn primary_only(primary: impl Into<String>) -> ShardSpec {
        ShardSpec {
            primary: primary.into(),
            standby: None,
        }
    }

    /// A spec with a warm standby.
    #[must_use]
    pub fn with_standby(primary: impl Into<String>, standby: impl Into<String>) -> ShardSpec {
        ShardSpec {
            primary: primary.into(),
            standby: Some(standby.into()),
        }
    }
}

/// The exact-cover shard map: cut points tiling the address space plus
/// per-shard endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    cuts: Vec<u32>,
    shards: Vec<ShardSpec>,
}

impl ShardMap {
    /// Derives a map for `shards.len()` shards from a routing table:
    /// the even-range cuts of its ONRTC cover, read straight off the
    /// cover's routes.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the table is too small to give every shard a
    /// non-empty address interval (the even-range split would emit
    /// sentinel cuts for empty buckets).
    pub fn derive(table: &RouteTable, shards: Vec<ShardSpec>) -> io::Result<ShardMap> {
        if shards.is_empty() {
            return Err(bad_data("a shard map needs at least one shard".into()));
        }
        let cover = onrtc_routes(&table.to_trie());
        let cuts = RangeIndex::even(&cover, shards.len()).cuts().to_vec();
        Self::from_cuts(cuts, shards)
    }

    /// Builds a map from explicit cut points.
    ///
    /// # Errors
    ///
    /// `InvalidData` unless `cuts.len() + 1 == shards.len()`, the cuts
    /// are strictly increasing, nonzero, and below `u32::MAX` (the
    /// even-range split's empty-bucket sentinel), and every primary
    /// address is non-empty.
    pub fn from_cuts(cuts: Vec<u32>, shards: Vec<ShardSpec>) -> io::Result<ShardMap> {
        if shards.is_empty() || shards.len() > MAX_SHARDS {
            return Err(bad_data(format!(
                "implausible shard count {}",
                shards.len()
            )));
        }
        if cuts.len() + 1 != shards.len() {
            return Err(bad_data(format!(
                "{} cuts do not tile {} shards",
                cuts.len(),
                shards.len()
            )));
        }
        for (i, w) in cuts.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(bad_data(format!("cuts not strictly increasing at {i}")));
            }
        }
        if cuts.first().is_some_and(|&c| c == 0) || cuts.last().is_some_and(|&c| c == u32::MAX) {
            return Err(bad_data(
                "cut at 0 or u32::MAX leaves a shard with an empty interval \
                 (table too small for this shard count?)"
                    .into(),
            ));
        }
        for (i, s) in shards.iter().enumerate() {
            if s.primary.is_empty() || s.primary.len() > MAX_ADDR_LEN {
                return Err(bad_data(format!("shard {i}: bad primary address")));
            }
            if s.standby
                .as_ref()
                .is_some_and(|a| a.is_empty() || a.len() > MAX_ADDR_LEN)
            {
                return Err(bad_data(format!("shard {i}: bad standby address")));
            }
        }
        Ok(ShardMap { cuts, shards })
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false — a map holds at least one shard.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cut points (length `len() − 1`).
    #[must_use]
    pub fn cuts(&self) -> &[u32] {
        &self.cuts
    }

    /// Per-shard endpoints, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// The shard owning a /32 address — the same `partition_point`
    /// rule the per-chip range index uses, so exactly one shard owns
    /// every address.
    #[must_use]
    pub fn shard_of(&self, addr: u32) -> usize {
        self.cuts.partition_point(|&c| c <= addr)
    }

    /// Shard `i`'s owned address interval, inclusive on both ends.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    #[must_use]
    pub fn shard_range(&self, i: usize) -> RangeInclusive<u32> {
        assert!(i < self.shards.len(), "shard {i} out of range");
        let lo = if i == 0 { 0 } else { self.cuts[i - 1] };
        let hi = if i + 1 == self.shards.len() {
            u32::MAX
        } else {
            self.cuts[i] - 1
        };
        lo..=hi
    }

    /// Every shard whose interval intersects `prefix` — a contiguous
    /// run, because prefixes are intervals too. Updates fan out to all
    /// of them so each shard keeps every route that can match an
    /// address it owns.
    #[must_use]
    pub fn shards_for_prefix(&self, prefix: Prefix) -> RangeInclusive<usize> {
        self.shard_of(prefix.low())..=self.shard_of(prefix.high())
    }

    /// The slice of `table` shard `i` must hold: every route whose
    /// prefix interval intersects the shard's interval. LPM over this
    /// slice equals LPM over the full table for every owned address.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    #[must_use]
    pub fn filter_table(&self, table: &RouteTable, i: usize) -> RouteTable {
        let range = self.shard_range(i);
        let (lo, hi) = (*range.start(), *range.end());
        table
            .iter()
            .filter(|r| r.prefix.low() <= hi && r.prefix.high() >= lo)
            .collect()
    }

    /// Encodes the map, CRC included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAP_MAGIC.to_be_bytes());
        buf.extend_from_slice(&MAP_VERSION.to_be_bytes());
        buf.extend_from_slice(&(self.shards.len() as u32).to_be_bytes());
        for &cut in &self.cuts {
            buf.extend_from_slice(&cut.to_be_bytes());
        }
        for s in &self.shards {
            put_addr(&mut buf, &s.primary);
            put_addr(&mut buf, s.standby.as_deref().unwrap_or(""));
        }
        buf.extend_from_slice(&crc32(&buf).to_be_bytes());
        buf
    }

    /// Decodes and validates a map.
    ///
    /// # Errors
    ///
    /// `InvalidData` on any structural, checksum, or semantic failure
    /// (the same validation [`from_cuts`](Self::from_cuts) applies).
    pub fn decode(bytes: &[u8]) -> io::Result<ShardMap> {
        if bytes.len() < 4 {
            return Err(bad_data("shard map shorter than its CRC".into()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_be_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc != crc32(body) {
            return Err(bad_data("shard map CRC mismatch".into()));
        }
        let mut c = Cursor::new(body);
        let magic = c.u32()?;
        if magic != MAP_MAGIC {
            return Err(bad_data(format!("bad shard map magic {magic:#010x}")));
        }
        let version = c.u32()?;
        if version != MAP_VERSION {
            return Err(bad_data(format!("unsupported shard map version {version}")));
        }
        let n = c.u32()? as usize;
        if n == 0 || n > MAX_SHARDS {
            return Err(bad_data(format!("implausible shard count {n}")));
        }
        let mut cuts = Vec::with_capacity(n - 1);
        for _ in 0..n - 1 {
            cuts.push(c.u32()?);
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let primary = get_addr(&mut c)?;
            let standby = get_addr(&mut c)?;
            shards.push(ShardSpec {
                primary,
                standby: if standby.is_empty() {
                    None
                } else {
                    Some(standby)
                },
            });
        }
        c.finish()?;
        Self::from_cuts(cuts, shards)
    }

    /// Writes the encoded map to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.encode())
    }

    /// Reads and validates a map from `path`.
    ///
    /// # Errors
    ///
    /// I/O failures plus everything [`decode`](Self::decode) rejects.
    pub fn read_file(path: &Path) -> io::Result<ShardMap> {
        Self::decode(&fs::read(path)?)
    }
}

fn put_addr(buf: &mut Vec<u8>, addr: &str) {
    buf.extend_from_slice(&(addr.len() as u16).to_be_bytes());
    buf.extend_from_slice(addr.as_bytes());
}

fn get_addr(c: &mut Cursor<'_>) -> io::Result<String> {
    let len = c.u16()? as usize;
    if len > MAX_ADDR_LEN {
        return Err(bad_data(format!(
            "address length {len} exceeds {MAX_ADDR_LEN}"
        )));
    }
    let bytes = c.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad_data("address is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_compress::onrtc;
    use clue_fib::gen::FibGen;
    use clue_fib::{NextHop, Route};
    use clue_partition::EvenRangePartition;

    fn map3() -> ShardMap {
        ShardMap::from_cuts(
            vec![0x4000_0000, 0xB000_0000],
            vec![
                ShardSpec::with_standby("127.0.0.1:5001", "127.0.0.1:6001"),
                ShardSpec::primary_only("127.0.0.1:5002"),
                ShardSpec::with_standby("127.0.0.1:5003", "127.0.0.1:6003"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trips_and_rejects_corruption() {
        let map = map3();
        let bytes = map.encode();
        assert_eq!(ShardMap::decode(&bytes).unwrap(), map);
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(ShardMap::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..bytes.len() {
            let mut b = bytes.clone();
            b[at] ^= 0x20;
            assert!(ShardMap::decode(&b).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("clue-shardmap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.clsm");
        let map = map3();
        map.write_file(&path).unwrap();
        assert_eq!(ShardMap::read_file(&path).unwrap(), map);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_of_matches_ranges_at_boundaries() {
        let map = map3();
        for i in 0..map.len() {
            let range = map.shard_range(i);
            assert_eq!(map.shard_of(*range.start()), i);
            assert_eq!(map.shard_of(*range.end()), i);
        }
        assert_eq!(map.shard_of(0x3FFF_FFFF), 0);
        assert_eq!(map.shard_of(0x4000_0000), 1);
        assert_eq!(map.shard_of(u32::MAX), 2);
    }

    #[test]
    fn malformed_maps_are_rejected() {
        let specs = |n: usize| {
            (0..n)
                .map(|i| ShardSpec::primary_only(format!("h:{i}")))
                .collect()
        };
        assert!(ShardMap::from_cuts(vec![], specs(0)).is_err(), "no shards");
        assert!(ShardMap::from_cuts(vec![1], specs(3)).is_err(), "cut count");
        assert!(
            ShardMap::from_cuts(vec![5, 5], specs(3)).is_err(),
            "not increasing"
        );
        assert!(ShardMap::from_cuts(vec![0], specs(2)).is_err(), "cut at 0");
        assert!(
            ShardMap::from_cuts(vec![u32::MAX], specs(2)).is_err(),
            "sentinel cut"
        );
        let empty = vec![ShardSpec::primary_only(""), ShardSpec::primary_only("x")];
        assert!(
            ShardMap::from_cuts(vec![9], empty).is_err(),
            "empty primary"
        );
    }

    #[test]
    fn derive_uses_the_even_range_cuts() {
        let table = FibGen::new(11).routes(2_000).generate();
        let specs: Vec<ShardSpec> = (0..3)
            .map(|i| ShardSpec::primary_only(format!("h:{i}")))
            .collect();
        let map = ShardMap::derive(&table, specs).unwrap();
        assert_eq!(map.cuts().len(), 2);
        let expected = EvenRangePartition::split(&onrtc(&table), 3)
            .index()
            .cuts()
            .to_vec();
        assert_eq!(map.cuts(), &expected[..]);
    }

    #[test]
    fn filtered_lookup_agrees_with_the_flat_table() {
        let table = FibGen::new(23).routes(1_500).generate();
        let specs: Vec<ShardSpec> = (0..4)
            .map(|i| ShardSpec::primary_only(format!("h:{i}")))
            .collect();
        let map = ShardMap::derive(&table, specs).unwrap();
        let slices: Vec<RouteTable> = (0..4).map(|i| map.filter_table(&table, i)).collect();
        let lpm = |t: &RouteTable, addr: u32| {
            t.iter()
                .filter(|r| r.prefix.contains_addr(addr))
                .max_by_key(|r| r.prefix.len())
                .map(|r| r.next_hop)
        };
        let mut addrs: Vec<u32> = (0..2_000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for cut in map.cuts() {
            addrs.extend([cut - 1, *cut, cut + 1]);
        }
        for addr in addrs {
            let shard = map.shard_of(addr);
            assert_eq!(
                lpm(&slices[shard], addr),
                lpm(&table, addr),
                "addr {addr:#x}"
            );
        }
    }

    #[test]
    fn too_small_a_table_is_a_clean_error() {
        let table: RouteTable = [Route::new(Prefix::new(0, 0), NextHop(1))]
            .into_iter()
            .collect();
        let specs: Vec<ShardSpec> = (0..4)
            .map(|i| ShardSpec::primary_only(format!("h:{i}")))
            .collect();
        assert!(ShardMap::derive(&table, specs).is_err());
    }
}
