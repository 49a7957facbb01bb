//! ONRTC: Optimal Non-overlap Routing Table Construction.
//!
//! ONRTC (Yang et al., ICC 2012 — the compression stage of CLUE) rewrites
//! a FIB into the smallest **non-overlapping** table with identical
//! longest-prefix-match semantics, including misses: address space not
//! covered by the original table stays uncovered.
//!
//! The construction is a single recursion over the route trie. For each
//! region it computes a [`Cover`]: either the region resolves uniformly
//! (to one next hop, or to "miss"), in which case the decision of whether
//! to emit a prefix is deferred to the parent so sibling regions can
//! merge; or the region is mixed, in which case each uniform sub-region
//! is materialized as one output prefix. Emitted prefixes are therefore
//! exactly the *maximal uniform regions* of the forwarding function —
//! no equivalent non-overlapping table can use fewer entries, because a
//! prefix can never span two sibling regions that resolve differently.

use clue_fib::{Bit, NextHop, NodeRef, Prefix, Route, RouteTable, Trie};

/// How a region of address space resolves under a forwarding function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cover {
    /// Every address in the region resolves to the same action
    /// (`None` = miss).
    Uniform(Option<NextHop>),
    /// The region is mixed; the routes are its minimal non-overlapping
    /// cover, in ascending address order.
    Mixed(Vec<Route>),
}

impl Cover {
    /// Materializes the cover of `region` as explicit routes.
    #[must_use]
    pub fn into_routes(self, region: Prefix) -> Vec<Route> {
        match self {
            Cover::Uniform(None) => Vec::new(),
            Cover::Uniform(Some(nh)) => vec![Route::new(region, nh)],
            Cover::Mixed(v) => v,
        }
    }

    /// Number of routes this cover materializes to.
    #[must_use]
    pub fn route_count(&self) -> usize {
        match self {
            Cover::Uniform(None) => 0,
            Cover::Uniform(Some(_)) => 1,
            Cover::Mixed(v) => v.len(),
        }
    }
}

/// Computes the minimal non-overlapping cover of the region `prefix`,
/// where `node` is the trie node for `prefix` (or `None` if the trie has
/// no routes inside the region) and `inherited` is the longest-prefix
/// match that ancestors of `prefix` contribute.
#[must_use]
pub fn region_cover(
    node: Option<NodeRef<'_, NextHop>>,
    prefix: Prefix,
    inherited: Option<NextHop>,
) -> Cover {
    let mut out = Vec::new();
    match cover_into(node, prefix, inherited, &mut out) {
        Some(action) => Cover::Uniform(action),
        None => Cover::Mixed(out),
    }
}

/// [`region_cover`] appending into one buffer: returns `Some(action)`
/// for a uniform region, leaving `out` as it found it, or `None` for a
/// mixed one, whose routes it has appended to `out` in ascending
/// address order. Every route is pushed once, so the whole trie costs
/// O(nodes).
fn cover_into(
    node: Option<NodeRef<'_, NextHop>>,
    prefix: Prefix,
    inherited: Option<NextHop>,
    out: &mut Vec<Route>,
) -> Option<Option<NextHop>> {
    let Some(n) = node else {
        return Some(inherited);
    };
    debug_assert_eq!(n.prefix(), prefix);
    let effective = n.value().copied().or(inherited);
    if n.is_leaf() {
        return Some(effective);
    }
    let lp = prefix.child(Bit::Zero).expect("non-leaf node is not a /32");
    let rp = prefix.child(Bit::One).expect("non-leaf node is not a /32");
    let mark = out.len();
    let left = cover_into(n.child(Bit::Zero), lp, effective, out);
    // A uniform left half is pushed before the right half is known: a
    // mixed right half must follow it, and a matching uniform one takes
    // it back below.
    if let Some(Some(nh)) = left {
        out.push(Route::new(lp, nh));
    }
    let right = cover_into(n.child(Bit::One), rp, effective, out);
    match (left, right) {
        (Some(a), Some(b)) if a == b => {
            out.truncate(mark);
            Some(a)
        }
        (_, Some(b)) => {
            out.extend(b.map(|nh| Route::new(rp, nh)));
            None
        }
        (_, None) => None,
    }
}

/// The routes of [`onrtc_trie`], in ascending address order: sorted and
/// non-overlapping, so they feed a bulk trie build, an even-range split
/// and a lookup plane as they are.
#[must_use]
pub fn onrtc_routes(trie: &Trie<NextHop>) -> Vec<Route> {
    region_cover(Some(trie.root()), Prefix::root(), None).into_routes(Prefix::root())
}

/// Computes the cover of an arbitrary region of a trie, walking down from
/// the root to find the region's node and the inherited match on the way.
#[must_use]
pub fn region_cover_in(trie: &Trie<NextHop>, region: Prefix) -> Cover {
    let (node, inherited) = locate(trie, region);
    region_cover(node, region, inherited)
}

/// Finds the node for `region` (if any) and the longest-prefix match
/// contributed by strict ancestors of `region`.
#[must_use]
pub fn locate(
    trie: &Trie<NextHop>,
    region: Prefix,
) -> (Option<NodeRef<'_, NextHop>>, Option<NextHop>) {
    let mut cur = trie.root();
    let mut inherited = None;
    for depth in 0..region.len() {
        if let Some(v) = cur.value() {
            inherited = Some(*v);
        }
        let bit = Prefix::addr_bit(region.bits(), depth);
        match cur.child(bit) {
            Some(next) => cur = next,
            None => return (None, inherited),
        }
    }
    (Some(cur), inherited)
}

/// Flattens the LPM function of `trie` over the inclusive address range
/// `[lo, hi]` into intervals: `(start, label)` pairs, in ascending
/// order, where the label (the matched route, or `None` for a miss)
/// holds from `start` until the next interval's start (or `hi`). The
/// first interval starts exactly at `lo`, and adjacent intervals with
/// equal labels are merged, so this is the per-subtree recompression
/// primitive: a tile maintainer can rebuild just its own range after an
/// update without touching the rest of the table.
///
/// Cost is proportional to the trie nodes overlapping the range (plus
/// the walk down to it), not to the whole table.
///
/// # Panics
///
/// Panics if `lo > hi`.
#[must_use]
pub fn range_cover(trie: &Trie<NextHop>, lo: u32, hi: u32) -> Vec<(u32, Option<Route>)> {
    assert!(lo <= hi, "range_cover: lo {lo:#x} > hi {hi:#x}");
    let mut out = Vec::new();
    emit_range(Some(trie.root()), Prefix::root(), None, lo, hi, &mut out);
    out
}

fn emit_range(
    node: Option<NodeRef<'_, NextHop>>,
    region: Prefix,
    inherited: Option<Route>,
    lo: u32,
    hi: u32,
    out: &mut Vec<(u32, Option<Route>)>,
) {
    if region.low() > hi || region.high() < lo {
        return;
    }
    let Some(n) = node else {
        push_interval(out, region.low().max(lo), inherited);
        return;
    };
    debug_assert_eq!(n.prefix(), region);
    let effective = n.value().map(|&nh| Route::new(region, nh)).or(inherited);
    if n.is_leaf() {
        push_interval(out, region.low().max(lo), effective);
        return;
    }
    let lp = region.child(Bit::Zero).expect("non-leaf node is not a /32");
    let rp = region.child(Bit::One).expect("non-leaf node is not a /32");
    emit_range(n.child(Bit::Zero), lp, effective, lo, hi, out);
    emit_range(n.child(Bit::One), rp, effective, lo, hi, out);
}

fn push_interval(out: &mut Vec<(u32, Option<Route>)>, start: u32, label: Option<Route>) {
    if out.last().map(|(_, l)| l) == Some(&label) {
        return;
    }
    out.push((start, label));
}

/// Compresses `table` into the optimal non-overlapping equivalent.
///
/// This is the first stage of CLUE: the output has identical LPM
/// semantics (including misses) but no route contains another, which is
/// what enables priority-encoder-free TCAMs, O(1) TCAM updates, and
/// zero-redundancy even partitioning downstream.
///
/// # Examples
///
/// ```
/// use clue_compress::onrtc;
/// use clue_fib::{NextHop, RouteTable};
///
/// let mut fib = RouteTable::new();
/// fib.insert("10.0.0.0/7".parse()?, NextHop(1));
/// fib.insert("10.0.0.0/8".parse()?, NextHop(1)); // redundant more-specific
/// let compressed = onrtc(&fib);
/// assert_eq!(compressed.len(), 1);
/// assert!(compressed.is_non_overlapping());
/// # Ok::<(), clue_fib::ParsePrefixError>(())
/// ```
#[must_use]
pub fn onrtc(table: &RouteTable) -> RouteTable {
    let trie = table.to_trie();
    onrtc_trie(&trie)
}

/// [`onrtc`] operating directly on a trie.
#[must_use]
pub fn onrtc_trie(trie: &Trie<NextHop>) -> RouteTable {
    onrtc_routes(trie).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(routes: &[(&str, u16)]) -> RouteTable {
        routes
            .iter()
            .map(|&(p, nh)| (p.parse().unwrap(), NextHop(nh)))
            .collect()
    }

    fn lookup(t: &RouteTable, addr: u32) -> Option<NextHop> {
        t.to_trie().lookup(addr).map(|(_, &nh)| nh)
    }

    #[test]
    fn empty_table_compresses_to_empty() {
        assert!(onrtc(&RouteTable::new()).is_empty());
    }

    #[test]
    fn single_route_is_unchanged() {
        let t = table(&[("10.0.0.0/8", 1)]);
        assert_eq!(onrtc(&t), t);
    }

    #[test]
    fn redundant_more_specific_is_removed() {
        let t = table(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 1)]);
        let c = onrtc(&t);
        assert_eq!(c, table(&[("10.0.0.0/8", 1)]));
    }

    #[test]
    fn sibling_leaves_merge() {
        let t = table(&[("10.0.0.0/9", 5), ("10.128.0.0/9", 5)]);
        let c = onrtc(&t);
        assert_eq!(c, table(&[("10.0.0.0/8", 5)]));
    }

    #[test]
    fn merge_cascades_upward() {
        // Four /10s with the same next hop collapse to one /8.
        let t = table(&[
            ("10.0.0.0/10", 3),
            ("10.64.0.0/10", 3),
            ("10.128.0.0/10", 3),
            ("10.192.0.0/10", 3),
        ]);
        assert_eq!(onrtc(&t), table(&[("10.0.0.0/8", 3)]));
    }

    #[test]
    fn overlap_with_different_next_hop_splits() {
        // 1*→p with child 100*→q (paper's Figure 2 shape, scaled to /8s):
        // the covering route must be carved around the more-specific.
        let t = table(&[("128.0.0.0/1", 1), ("128.0.0.0/3", 2)]);
        let c = onrtc(&t);
        assert!(c.is_non_overlapping());
        // Semantics preserved everywhere.
        for addr in [
            0x8000_0000u32,
            0xA000_0000,
            0xC000_0000,
            0xFF00_0000,
            0x7000_0000,
        ] {
            assert_eq!(lookup(&c, addr), lookup(&t, addr), "addr {addr:#x}");
        }
        // The carved cover: 128.0.0.0/3→2, 160.0.0.0/3→1, 192.0.0.0/2→1.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn miss_regions_stay_uncovered() {
        let t = table(&[("10.0.0.0/8", 1)]);
        let c = onrtc(&t);
        assert_eq!(lookup(&c, 0x0B00_0000), None);
        assert_eq!(lookup(&c, 0x0A00_0001), Some(NextHop(1)));
    }

    #[test]
    fn nested_same_hop_under_different_hop() {
        // a/8→1, b=a.0/16→2, c=a.0.0/24→1: c differs from its covering
        // route b, so c must survive as its own region.
        let t = table(&[("10.0.0.0/8", 1), ("10.0.0.0/16", 2), ("10.0.0.0/24", 1)]);
        let c = onrtc(&t);
        assert!(c.is_non_overlapping());
        assert_eq!(lookup(&c, 0x0A00_0001), Some(NextHop(1)));
        assert_eq!(lookup(&c, 0x0A00_0101), Some(NextHop(2)));
        assert_eq!(lookup(&c, 0x0A01_0000), Some(NextHop(1)));
    }

    #[test]
    fn default_route_covers_all() {
        let t = table(&[("0.0.0.0/0", 9)]);
        let c = onrtc(&t);
        assert_eq!(c, t);
        assert_eq!(lookup(&c, 0xDEAD_BEEF), Some(NextHop(9)));
    }

    #[test]
    fn cover_route_count_matches_materialization() {
        let u = Cover::Uniform(Some(NextHop(1)));
        assert_eq!(u.route_count(), 1);
        assert_eq!(u.into_routes("10.0.0.0/8".parse().unwrap()).len(), 1);
        let n = Cover::Uniform(None);
        assert_eq!(n.route_count(), 0);
    }

    #[test]
    fn region_cover_in_matches_full_rebuild() {
        let t = table(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("11.0.0.0/8", 1)]);
        let trie = t.to_trie();
        let region: Prefix = "10.0.0.0/8".parse().unwrap();
        let local = region_cover_in(&trie, region).into_routes(region);
        let full = onrtc(&t);
        let expected: Vec<Route> = full.iter().filter(|r| region.contains(r.prefix)).collect();
        assert_eq!(local, expected);
    }

    #[test]
    fn range_cover_matches_pointwise_lookup() {
        let t = table(&[
            ("0.0.0.0/0", 9),
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.2.3/32", 3),
            ("11.0.0.0/8", 1),
        ]);
        let trie = t.to_trie();
        for (lo, hi) in [
            (0u32, u32::MAX),
            (0x0A00_0000, 0x0BFF_FFFF),
            (0x0A01_0203, 0x0A01_0203),
            (0x0A01_0000, 0x0A01_0400),
            (0x0900_0000, 0x0A00_00FF),
        ] {
            let intervals = range_cover(&trie, lo, hi);
            assert_eq!(intervals[0].0, lo, "first interval starts at lo");
            // Labels change exactly at interval starts (no equal-adjacent).
            for w in intervals.windows(2) {
                assert!(w[0].0 < w[1].0);
                assert_ne!(w[0].1, w[1].1);
            }
            let label_at = |addr: u32| {
                let i = intervals.partition_point(|&(s, _)| s <= addr) - 1;
                intervals[i].1
            };
            let mut probes = vec![lo, hi];
            for &(s, _) in &intervals {
                probes.extend([s, s.saturating_sub(1).max(lo), s.saturating_add(1).min(hi)]);
            }
            for addr in probes {
                let want = trie.lookup(addr).map(|(p, &nh)| Route::new(p, nh));
                assert_eq!(
                    label_at(addr),
                    want,
                    "addr {addr:#010x} in [{lo:#x},{hi:#x}]"
                );
            }
        }
    }

    #[test]
    fn range_cover_on_empty_trie_is_one_miss_interval() {
        let trie = RouteTable::new().to_trie();
        assert_eq!(range_cover(&trie, 5, 100), vec![(5u32, None)]);
    }

    #[test]
    fn locate_reports_inherited_match() {
        let t = table(&[("10.0.0.0/8", 7)]);
        let trie = t.to_trie();
        let (node, inherited) = locate(&trie, "10.1.0.0/16".parse().unwrap());
        assert!(node.is_none());
        assert_eq!(inherited, Some(NextHop(7)));
        let (node, inherited) = locate(&trie, "11.0.0.0/16".parse().unwrap());
        assert!(node.is_none());
        assert_eq!(inherited, None);
    }

    #[test]
    fn output_is_sorted_by_address() {
        let t = table(&[("192.0.0.0/8", 1), ("10.0.0.0/8", 2), ("128.0.0.0/8", 3)]);
        let c = onrtc(&t);
        let prefixes: Vec<Prefix> = c.iter().map(|r| r.prefix).collect();
        let mut sorted = prefixes.clone();
        sorted.sort();
        assert_eq!(prefixes, sorted);
    }
}
