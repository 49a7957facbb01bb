//! CLUE's partition algorithm: even in-order split, zero redundancy.
//!
//! Because ONRTC output is non-overlapping, sorting it by address gives
//! disjoint, ordered ranges. Step I of the paper's algorithm computes the
//! partition size `M/n`; Step II walks the table in order and cuts every
//! `M/n` prefixes. The resulting [`RangeIndex`] — the "Indexing Logic" of
//! Figure 1 — maps a destination address to its bucket with a binary
//! search over `n − 1` cut points.

use clue_fib::{Route, RouteTable};

use crate::Indexer;

/// An even-range partitioning of a non-overlapping table.
#[derive(Debug, Clone)]
pub struct EvenRangePartition {
    buckets: Vec<Vec<Route>>,
    index: RangeIndex,
}

impl EvenRangePartition {
    /// Splits `table` into `n` buckets of (nearly) equal size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `table` is not non-overlapping — CLUE's
    /// partitioning is only defined after ONRTC.
    #[must_use]
    pub fn split(table: &RouteTable, n: usize) -> Self {
        assert!(n > 0, "partition count must be positive");
        assert!(
            table.is_non_overlapping(),
            "even-range partitioning requires a non-overlapping table (run ONRTC first)"
        );
        let routes: Vec<Route> = table.iter().collect();
        let index = RangeIndex::even(&routes, n);
        let m = routes.len();
        let ends = even_starts(m, n).skip(1).chain([m]);
        let buckets = even_starts(m, n)
            .zip(ends)
            .map(|(a, b)| routes[a..b].to_vec())
            .collect();
        EvenRangePartition { buckets, index }
    }

    /// The buckets, in address order.
    #[must_use]
    pub fn buckets(&self) -> &[Vec<Route>] {
        &self.buckets
    }

    /// The indexing logic for this split.
    #[must_use]
    pub fn index(&self) -> &RangeIndex {
        &self.index
    }

    /// Consumes the partition, returning `(buckets, index)`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Vec<Route>>, RangeIndex) {
        (self.buckets, self.index)
    }
}

/// The Indexing Logic: `n − 1` cut addresses; bucket of `addr` is the
/// number of cuts ≤ `addr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeIndex {
    cuts: Vec<u32>,
}

/// Where each of `n` even buckets over `m` ordered items starts. The
/// division remainder goes to the first buckets, so sizes differ by at
/// most one (the paper's "exactly evenly").
fn even_starts(m: usize, n: usize) -> impl Iterator<Item = usize> {
    let (base, rem) = (m / n, m % n);
    (0..n).map(move |i| i * base + i.min(rem))
}

impl RangeIndex {
    /// The cuts of CLUE's even split of `routes` into `n` buckets, read
    /// straight off the slice: each cut is the low address of the first
    /// route of its bucket, or `u32::MAX` when more buckets than routes
    /// leave it empty. `routes` must be sorted by address and
    /// non-overlapping (ONRTC output); [`EvenRangePartition::split`]
    /// cuts its table by the same rule.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn even(routes: &[Route], n: usize) -> Self {
        assert!(n > 0, "partition count must be positive");
        let cuts = even_starts(routes.len(), n)
            .skip(1)
            .map(|s| routes.get(s).map_or(u32::MAX, |r| r.prefix.low()))
            .collect();
        RangeIndex { cuts }
    }

    /// Builds an index directly from cut addresses (must be sorted).
    ///
    /// # Panics
    ///
    /// Panics if `cuts` is not sorted ascending.
    #[must_use]
    pub fn from_cuts(cuts: Vec<u32>) -> Self {
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must be sorted");
        RangeIndex { cuts }
    }

    /// Number of buckets this index distinguishes.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The sorted cut points, suitable for serialization and a later
    /// [`RangeIndex::from_cuts`] round trip.
    #[must_use]
    pub fn cuts(&self) -> &[u32] {
        &self.cuts
    }
}

impl Indexer for RangeIndex {
    fn bucket_of(&self, addr: u32) -> usize {
        self.cuts.partition_point(|&c| c <= addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_fib::{NextHop, Prefix};

    fn disjoint_table(count: u32) -> RouteTable {
        // `count` disjoint /16s.
        (0..count)
            .map(|i| (Prefix::new(i << 16, 16), NextHop((i % 5) as u16)))
            .collect()
    }

    #[test]
    fn splits_exactly_evenly_when_divisible() {
        let t = disjoint_table(32);
        let p = EvenRangePartition::split(&t, 4);
        assert_eq!(p.buckets().len(), 4);
        assert!(p.buckets().iter().all(|b| b.len() == 8));
        // Zero redundancy: bucket sizes sum to the table size.
        let total: usize = p.buckets().iter().map(Vec::len).sum();
        assert_eq!(total, t.len());
    }

    #[test]
    fn remainder_spreads_without_redundancy() {
        let t = disjoint_table(10);
        let p = EvenRangePartition::split(&t, 4);
        let sizes: Vec<usize> = p.buckets().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(*sizes.iter().max().unwrap(), 3);
    }

    #[test]
    fn index_routes_every_prefix_to_its_bucket() {
        let t = disjoint_table(32);
        let p = EvenRangePartition::split(&t, 4);
        for (i, bucket) in p.buckets().iter().enumerate() {
            for r in bucket {
                assert_eq!(p.index().bucket_of(r.prefix.low()), i, "{}", r.prefix);
                assert_eq!(p.index().bucket_of(r.prefix.high()), i, "{}", r.prefix);
            }
        }
    }

    #[test]
    fn even_cuts_open_each_bucket_and_pad_empty_ones_with_max() {
        let routes: Vec<Route> = disjoint_table(10).iter().collect();
        // Sizes 3, 3, 2, 2: the remainder goes to the first buckets.
        let index = RangeIndex::even(&routes, 4);
        assert_eq!(index.cuts(), &[3 << 16, 6 << 16, 8 << 16]);
        assert_eq!(
            &index,
            EvenRangePartition::split(&disjoint_table(10), 4).index()
        );
        let index = RangeIndex::even(&routes[..2], 4);
        assert_eq!(index.cuts(), &[1 << 16, u32::MAX, u32::MAX]);
    }

    #[test]
    fn uncovered_addresses_still_index_deterministically() {
        let t = disjoint_table(8);
        let p = EvenRangePartition::split(&t, 2);
        // An address below every route indexes to bucket 0; one above
        // everything goes to the last bucket.
        assert_eq!(p.index().bucket_of(0), 0);
        assert_eq!(p.index().bucket_of(u32::MAX), 1);
    }

    #[test]
    fn more_buckets_than_routes_pads_with_empty() {
        let t = disjoint_table(2);
        let p = EvenRangePartition::split(&t, 4);
        assert_eq!(p.buckets().len(), 4);
        assert_eq!(p.buckets()[0].len(), 1);
        assert_eq!(p.buckets()[3].len(), 0);
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn rejects_overlapping_table() {
        let mut t = RouteTable::new();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHop(1));
        t.insert("10.1.0.0/16".parse().unwrap(), NextHop(2));
        let _ = EvenRangePartition::split(&t, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_buckets() {
        let _ = EvenRangePartition::split(&RouteTable::new(), 0);
    }

    #[test]
    fn from_cuts_validates_order() {
        let idx = RangeIndex::from_cuts(vec![10, 20, 30]);
        assert_eq!(idx.bucket_count(), 4);
        assert_eq!(idx.bucket_of(5), 0);
        assert_eq!(idx.bucket_of(10), 1);
        assert_eq!(idx.bucket_of(25), 2);
        assert_eq!(idx.bucket_of(99), 3);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn from_cuts_rejects_unsorted() {
        let _ = RangeIndex::from_cuts(vec![20, 10]);
    }
}
