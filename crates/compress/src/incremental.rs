//! Incremental maintenance of an ONRTC-compressed table.
//!
//! [`CompressedFib`] keeps the original FIB trie and its compressed
//! (non-overlapping) form in sync. Applying a BGP update touches only the
//! affected region of the compressed trie and returns the exact
//! [`TableDiff`] the TCAM must apply — the quantity behind TTF1 (trie
//! computation time) and TTF2 (TCAM writes) in the paper.
//!
//! # How a single update is localized
//!
//! A change to route `p` only alters the forwarding function inside
//! `region(p)`. In the compressed table that region is covered either by
//! entries at-or-below `p`, or by a single entry at an *ancestor* of `p`
//! (when the surroundings of `p` were uniform). The rebuild root is
//! therefore `p`, widened to that ancestor entry if one exists. After
//! recomputing the minimal cover of the rebuild region, the region may
//! have *become* uniform and mergeable with its sibling — in which case
//! the rebuild root floats upward while the sibling region is a single
//! entry with the same next hop. The final diff is the set difference
//! between the old and new covers of the rebuild region.

use std::time::{Duration, Instant};

use clue_fib::{NextHop, Prefix, Route, RouteTable, Trie, Update};

use crate::cover::{locate, onrtc_routes, region_cover, Cover};

/// The set of entry-level changes one update induces on the compressed
/// table.
///
/// `modifies` are next-hop rewrites of an existing entry: on a TCAM they
/// are a single in-place action write with no entry movement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableDiff {
    /// Entries to add.
    pub inserts: Vec<Route>,
    /// Prefixes of entries to remove.
    pub deletes: Vec<Prefix>,
    /// Entries whose action changes in place.
    pub modifies: Vec<Route>,
}

impl TableDiff {
    /// Whether the diff changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty() && self.modifies.is_empty()
    }

    /// Total number of entry-level operations.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.inserts.len() + self.deletes.len() + self.modifies.len()
    }
}

/// A FIB maintained simultaneously in original and ONRTC-compressed form.
///
/// # Examples
///
/// ```
/// use clue_compress::CompressedFib;
/// use clue_fib::{NextHop, RouteTable, Update};
///
/// let mut fib = RouteTable::new();
/// fib.insert("10.0.0.0/9".parse()?, NextHop(1));
/// let mut cf = CompressedFib::new(&fib);
///
/// // Announcing the sibling /9 with the same hop merges both into a /8.
/// let diff = cf.apply(Update::Announce {
///     prefix: "10.128.0.0/9".parse()?,
///     next_hop: NextHop(1),
/// });
/// assert_eq!(diff.inserts.len(), 1);
/// assert_eq!(diff.inserts[0].prefix.to_string(), "10.0.0.0/8");
/// assert_eq!(diff.deletes.len(), 1);
/// assert_eq!(cf.compressed_len(), 1);
/// # Ok::<(), clue_fib::ParsePrefixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompressedFib {
    original: Trie<NextHop>,
    compressed: Trie<NextHop>,
    last_update_time: Duration,
}

impl CompressedFib {
    /// Builds both forms from an initial table: the compressed trie
    /// straight from the ONRTC cover's routes.
    #[must_use]
    pub fn new(table: &RouteTable) -> Self {
        let original = table.to_trie();
        let cover = onrtc_routes(&original);
        Self::from_parts(original, &cover)
    }

    /// Builds from an original trie and its ONRTC cover
    /// ([`onrtc_routes`] of that trie), for a caller that computed the
    /// cover already: the original is kept as given and the compressed
    /// trie is bulk-built from the cover.
    #[must_use]
    pub fn from_parts(original: Trie<NextHop>, cover: &[Route]) -> Self {
        let compressed = cover.iter().map(|r| (r.prefix, r.next_hop)).collect();
        CompressedFib {
            original,
            compressed,
            last_update_time: Duration::ZERO,
        }
    }

    /// The uncompressed FIB trie.
    #[must_use]
    pub fn original(&self) -> &Trie<NextHop> {
        &self.original
    }

    /// The compressed (non-overlapping) trie.
    #[must_use]
    pub fn compressed(&self) -> &Trie<NextHop> {
        &self.compressed
    }

    /// Number of routes in the original FIB.
    #[must_use]
    pub fn original_len(&self) -> usize {
        self.original.len()
    }

    /// Number of entries in the compressed table.
    #[must_use]
    pub fn compressed_len(&self) -> usize {
        self.compressed.len()
    }

    /// The compressed table as a [`RouteTable`].
    #[must_use]
    pub fn compressed_table(&self) -> RouteTable {
        RouteTable::from_trie(&self.compressed)
    }

    /// Wall-clock time spent inside the most recent [`apply`] call —
    /// the paper's TTF1 for CLUE.
    ///
    /// [`apply`]: CompressedFib::apply
    #[must_use]
    pub fn last_update_time(&self) -> Duration {
        self.last_update_time
    }

    /// Applies one update and returns the compressed-table diff.
    ///
    /// No-op updates (announcing an identical route, withdrawing an
    /// absent one) return an empty diff.
    pub fn apply(&mut self, update: Update) -> TableDiff {
        let start = Instant::now();
        let diff = self.apply_inner(update);
        self.last_update_time = start.elapsed();
        diff
    }

    fn apply_inner(&mut self, update: Update) -> TableDiff {
        let p = update.prefix();
        // 1. Update the original trie; bail out on no-ops.
        match update {
            Update::Announce { prefix, next_hop } => {
                if self.original.insert(prefix, next_hop) == Some(next_hop) {
                    return TableDiff::default();
                }
            }
            Update::Withdraw { prefix } => {
                if self.original.remove(prefix).is_none() {
                    return TableDiff::default();
                }
            }
        }

        // 2. Rebuild root: widen to an ancestor entry covering `p`.
        let mut root = self.compressed_ancestor_entry(p).unwrap_or(p);

        // 3. Minimal cover of the rebuild region from the updated original.
        let (node, inherited) = locate(&self.original, root);
        let mut cover = region_cover(node, root, inherited);

        // 4. Float upward while the region became uniform and its sibling
        //    is a single same-hop entry (non-overlap guarantees the
        //    sibling entry is alone in its region).
        while let Cover::Uniform(Some(nh)) = cover {
            let Some(sib) = root.sibling() else { break };
            if self.compressed.get(sib) != Some(&nh) {
                break;
            }
            root = root.parent().expect("prefix with a sibling has a parent");
            cover = Cover::Uniform(Some(nh));
        }

        // 5. Diff old vs new cover of the rebuild region.
        let old: Vec<Route> = self
            .compressed
            .iter_subtree(root)
            .map(|(prefix, &nh)| Route::new(prefix, nh))
            .collect();
        let new = cover.into_routes(root);
        let diff = diff_covers(&old, &new);

        // 6. Apply the diff to the compressed trie.
        for &d in &diff.deletes {
            let removed = self.compressed.remove(d);
            debug_assert!(removed.is_some(), "delete of absent entry {d}");
        }
        for &m in &diff.modifies {
            self.compressed.insert(m.prefix, m.next_hop);
        }
        for &i in &diff.inserts {
            let prev = self.compressed.insert(i.prefix, i.next_hop);
            debug_assert!(prev.is_none(), "insert clobbered entry {}", i.prefix);
        }
        diff
    }

    /// Finds a compressed entry at a *strict* ancestor of `p`, if any.
    fn compressed_ancestor_entry(&self, p: Prefix) -> Option<Prefix> {
        // Non-overlap means at most one entry lies on the root→p path;
        // the trie LPM walk finds it.
        let node = self.compressed.lpm_node(p.bits())?;
        let found = node.prefix();
        (found.len() < p.len() && found.contains(p)).then_some(found)
    }
}

/// Computes insert/delete/modify sets between two sorted route lists.
fn diff_covers(old: &[Route], new: &[Route]) -> TableDiff {
    let mut diff = TableDiff::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        let (o, n) = (old[i], new[j]);
        match o.prefix.cmp(&n.prefix) {
            std::cmp::Ordering::Less => {
                diff.deletes.push(o.prefix);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff.inserts.push(n);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if o.next_hop != n.next_hop {
                    diff.modifies.push(n);
                }
                i += 1;
                j += 1;
            }
        }
    }
    diff.deletes.extend(old[i..].iter().map(|r| r.prefix));
    diff.inserts.extend_from_slice(&new[j..]);
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onrtc;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn table(routes: &[(&str, u16)]) -> RouteTable {
        routes.iter().map(|&(s, nh)| (p(s), NextHop(nh))).collect()
    }

    fn announce(s: &str, nh: u16) -> Update {
        Update::Announce {
            prefix: p(s),
            next_hop: NextHop(nh),
        }
    }

    fn withdraw(s: &str) -> Update {
        Update::Withdraw { prefix: p(s) }
    }

    /// The master invariant: after any sequence of updates the
    /// incremental compressed table equals a from-scratch recompression.
    fn assert_synced(cf: &CompressedFib) {
        let scratch = onrtc(&RouteTable::from_trie(cf.original()));
        assert_eq!(cf.compressed_table(), scratch);
    }

    #[test]
    fn announce_into_empty() {
        let mut cf = CompressedFib::new(&RouteTable::new());
        let diff = cf.apply(announce("10.0.0.0/8", 1));
        assert_eq!(diff.inserts, vec![Route::new(p("10.0.0.0/8"), NextHop(1))]);
        assert!(diff.deletes.is_empty());
        assert_synced(&cf);
    }

    #[test]
    fn duplicate_announce_is_noop() {
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1)]));
        let diff = cf.apply(announce("10.0.0.0/8", 1));
        assert!(diff.is_empty());
        assert_synced(&cf);
    }

    #[test]
    fn withdraw_absent_is_noop() {
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1)]));
        let diff = cf.apply(withdraw("11.0.0.0/8"));
        assert!(diff.is_empty());
        assert_synced(&cf);
    }

    #[test]
    fn next_hop_change_is_modify() {
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1)]));
        let diff = cf.apply(announce("10.0.0.0/8", 2));
        assert!(diff.inserts.is_empty() && diff.deletes.is_empty());
        assert_eq!(diff.modifies, vec![Route::new(p("10.0.0.0/8"), NextHop(2))]);
        assert_synced(&cf);
    }

    #[test]
    fn sibling_merge_floats_upward() {
        // Three of four /10s present; announcing the fourth merges all
        // the way to the /8.
        let mut cf = CompressedFib::new(&table(&[
            ("10.0.0.0/10", 3),
            ("10.64.0.0/10", 3),
            ("10.128.0.0/10", 3),
        ]));
        assert_eq!(cf.compressed_len(), 2); // /9 + /10 after initial merge
        let diff = cf.apply(announce("10.192.0.0/10", 3));
        assert_eq!(diff.inserts, vec![Route::new(p("10.0.0.0/8"), NextHop(3))]);
        assert_eq!(diff.deletes.len(), 2);
        assert_eq!(cf.compressed_len(), 1);
        assert_synced(&cf);
    }

    #[test]
    fn announce_specific_under_entry_splits_it() {
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1)]));
        let diff = cf.apply(announce("10.0.0.0/10", 2));
        assert!(!diff.is_empty());
        assert_synced(&cf);
        let trie = cf.compressed();
        assert_eq!(
            trie.lookup(0x0A00_0001).map(|(_, &nh)| nh),
            Some(NextHop(2))
        );
        assert_eq!(
            trie.lookup(0x0A80_0001).map(|(_, &nh)| nh),
            Some(NextHop(1))
        );
    }

    #[test]
    fn withdraw_specific_heals_covering_entry() {
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1), ("10.0.0.0/10", 2)]));
        let before = cf.compressed_len();
        assert!(before > 1);
        cf.apply(withdraw("10.0.0.0/10"));
        assert_eq!(cf.compressed_len(), 1);
        assert_eq!(cf.compressed_table(), table(&[("10.0.0.0/8", 1)]));
        assert_synced(&cf);
    }

    #[test]
    fn withdraw_last_route_empties_table() {
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1)]));
        let diff = cf.apply(withdraw("10.0.0.0/8"));
        assert_eq!(diff.deletes, vec![p("10.0.0.0/8")]);
        assert_eq!(cf.compressed_len(), 0);
        assert_synced(&cf);
    }

    #[test]
    fn redundant_more_specific_announce_produces_empty_diff() {
        // Announcing a more-specific with the same hop as its cover does
        // not change the forwarding function.
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1)]));
        let diff = cf.apply(announce("10.32.0.0/11", 1));
        assert!(diff.is_empty());
        assert_synced(&cf);
    }

    #[test]
    fn update_at_root_prefix() {
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1)]));
        let diff = cf.apply(announce("0.0.0.0/0", 2));
        assert!(!diff.is_empty());
        assert_synced(&cf);
        assert_eq!(
            cf.compressed().lookup(0xFFFF_FFFF).map(|(_, &nh)| nh),
            Some(NextHop(2))
        );
    }

    #[test]
    fn withdraw_under_ancestor_entry_rebuilds_ancestor_region() {
        // The /8 entry covers the withdrawn /10's region in the
        // compressed table; the rebuild must widen to the /8.
        let mut cf = CompressedFib::new(&table(&[("10.0.0.0/8", 1), ("10.0.0.0/10", 2)]));
        cf.apply(announce("10.0.0.0/10", 1)); // now uniform → single /8 entry
        assert_eq!(cf.compressed_len(), 1);
        assert_synced(&cf);
        // Change it again under the covering entry.
        cf.apply(announce("10.0.0.0/10", 9));
        assert_synced(&cf);
    }

    #[test]
    fn diff_covers_computes_set_difference() {
        let old = vec![
            Route::new(p("10.0.0.0/9"), NextHop(1)),
            Route::new(p("10.128.0.0/9"), NextHop(2)),
        ];
        let new = vec![
            Route::new(p("10.0.0.0/9"), NextHop(3)),
            Route::new(p("10.192.0.0/10"), NextHop(2)),
        ];
        let d = diff_covers(&old, &new);
        assert_eq!(d.deletes, vec![p("10.128.0.0/9")]);
        assert_eq!(d.inserts, vec![Route::new(p("10.192.0.0/10"), NextHop(2))]);
        assert_eq!(d.modifies, vec![Route::new(p("10.0.0.0/9"), NextHop(3))]);
    }

    #[test]
    fn update_time_is_recorded() {
        let mut cf = CompressedFib::new(&RouteTable::new());
        cf.apply(announce("10.0.0.0/8", 1));
        assert!(cf.last_update_time() > Duration::ZERO);
    }

    #[test]
    fn long_random_storm_stays_synced() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut cf = CompressedFib::new(&RouteTable::new());
        for _ in 0..500 {
            let len = rng.random_range(4..=16);
            let bits = rng.random_range(0..16u32) << 28;
            let prefix = Prefix::new(bits | rng.random_range(0..=0x0FFF_FFFF), len);
            let upd = if rng.random_bool(0.7) {
                Update::Announce {
                    prefix,
                    next_hop: NextHop(rng.random_range(0..4)),
                }
            } else {
                Update::Withdraw { prefix }
            };
            cf.apply(upd);
        }
        assert_synced(&cf);
    }
}
