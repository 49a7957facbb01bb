//! Property-based tests for the prefix algebra and the trie.

use std::collections::BTreeMap;

use clue_fib::{Bit, NextHop, Prefix, Route, RouteTable, Trie};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::new(bits, len))
}

/// Short prefixes make overlap and containment likely.
fn arb_short_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=10).prop_map(|(bits, len)| Prefix::new(bits, len))
}

proptest! {
    #[test]
    fn display_parse_round_trip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn containment_matches_range_containment(a in arb_short_prefix(), b in arb_short_prefix()) {
        let by_range = a.low() <= b.low() && b.high() <= a.high();
        prop_assert_eq!(a.contains(b), by_range);
    }

    #[test]
    fn laminar_ranges(a in arb_short_prefix(), b in arb_short_prefix()) {
        // Prefix ranges either nest or are disjoint — never partially
        // overlap.
        let disjoint = a.high() < b.low() || b.high() < a.low();
        prop_assert!(disjoint || a.contains(b) || b.contains(a));
    }

    #[test]
    fn parent_child_inverse(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            let bit = p.branch().unwrap();
            prop_assert_eq!(parent.child(bit), Some(p));
            prop_assert!(parent.contains(p));
        }
        for bit in [Bit::Zero, Bit::One] {
            if let Some(c) = p.child(bit) {
                prop_assert_eq!(c.parent(), Some(p));
                prop_assert_eq!(c.branch(), Some(bit));
            }
        }
    }

    #[test]
    fn children_partition_parent(p in (any::<u32>(), 0u8..=31).prop_map(|(b, l)| Prefix::new(b, l))) {
        let l = p.child(Bit::Zero).unwrap();
        let r = p.child(Bit::One).unwrap();
        prop_assert_eq!(l.low(), p.low());
        prop_assert_eq!(l.high() + 1, r.low());
        prop_assert_eq!(r.high(), p.high());
    }

    #[test]
    fn contains_addr_matches_bounds(p in arb_prefix(), addr in any::<u32>()) {
        prop_assert_eq!(p.contains_addr(addr), (p.low()..=p.high()).contains(&addr));
    }

    #[test]
    fn sibling_is_disjoint_same_size(p in (any::<u32>(), 1u8..=32).prop_map(|(b, l)| Prefix::new(b, l))) {
        let s = p.sibling().unwrap();
        prop_assert_eq!(s.len(), p.len());
        prop_assert!(!p.overlaps(s));
        prop_assert_eq!(s.sibling(), Some(p));
    }
}

/// Reference LPM: linear scan over the stored routes.
fn reference_lpm(map: &BTreeMap<Prefix, NextHop>, addr: u32) -> Option<(Prefix, NextHop)> {
    map.iter()
        .filter(|(p, _)| p.contains_addr(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(&p, &nh)| (p, nh))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_agrees_with_map_model(
        ops in prop::collection::vec(
            (any::<u32>(), 0u8..=16, 0u16..4, any::<bool>()), 1..120),
        probes in prop::collection::vec(any::<u32>(), 16),
    ) {
        let mut trie = Trie::new();
        let mut model: BTreeMap<Prefix, NextHop> = BTreeMap::new();
        for (bits, len, nh, insert) in ops {
            let p = Prefix::new(bits, len);
            if insert {
                prop_assert_eq!(trie.insert(p, NextHop(nh)), model.insert(p, NextHop(nh)));
            } else {
                prop_assert_eq!(trie.remove(p), model.remove(&p));
            }
            prop_assert_eq!(trie.len(), model.len());
        }
        // Exact lookups.
        for (&p, &nh) in &model {
            prop_assert_eq!(trie.get(p), Some(&nh));
        }
        // LPM agrees with the linear-scan reference.
        for addr in probes {
            let got = trie.lookup(addr).map(|(p, &nh)| (p, nh));
            prop_assert_eq!(got, reference_lpm(&model, addr));
        }
        // Iteration yields each stored pair exactly once.
        let mut seen: Vec<Prefix> = trie.iter().map(|(p, _)| p).collect();
        seen.sort();
        let expect: Vec<Prefix> = model.keys().copied().collect();
        prop_assert_eq!(seen, expect);
    }

    /// Pre-order is `(bits, len)` order: the trie iterates exactly as a
    /// `RouteTable` of the same routes does, however they nest, and
    /// whatever order built it.
    #[test]
    fn trie_iterates_in_route_table_order(
        ops in prop::collection::vec((any::<u32>(), 0u8..=12, 0u16..4, any::<bool>()), 0..120),
    ) {
        let mut trie = Trie::new();
        let mut table = RouteTable::new();
        for (bits, len, nh, insert) in ops {
            let p = Prefix::new(bits, len);
            if insert {
                trie.insert(p, NextHop(nh));
                table.insert(p, NextHop(nh));
            } else {
                trie.remove(p);
                table.remove(p);
            }
        }
        let routes: Vec<Route> = trie.iter().map(|(p, &nh)| Route::new(p, nh)).collect();
        prop_assert_eq!(routes, table.iter().collect::<Vec<_>>());
    }

    #[test]
    fn route_counts_are_consistent(
        pairs in prop::collection::vec((any::<u32>(), 0u8..=12, 0u16..4), 1..60),
    ) {
        let mut trie = Trie::new();
        for &(bits, len, nh) in &pairs {
            trie.insert(Prefix::new(bits, len), NextHop(nh));
        }
        prop_assert_eq!(trie.root().route_count() as usize, trie.len());
        // Spot-check: every stored prefix's node counts at least itself.
        for &(bits, len, _) in &pairs {
            let p = Prefix::new(bits, len);
            let n = trie.node(p).unwrap();
            prop_assert!(n.route_count() >= 1);
            let subtree = trie.iter_subtree(p).count() as u32;
            prop_assert_eq!(n.route_count(), subtree);
        }
    }
}

/// Every node in pre-order: its prefix, its value and its subtree route
/// count.
fn shape(t: &Trie<NextHop>) -> Vec<(Prefix, Option<NextHop>, u32)> {
    let mut out = Vec::new();
    let mut stack = vec![t.root()];
    while let Some(n) = stack.pop() {
        out.push((n.prefix(), n.value().copied(), n.route_count()));
        stack.extend([Bit::One, Bit::Zero].into_iter().filter_map(|b| n.child(b)));
    }
    out
}

fn same_trie(a: &Trie<NextHop>, b: &Trie<NextHop>) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.node_count(), b.node_count());
    prop_assert!(a.iter().eq(b.iter()));
    prop_assert_eq!(shape(a), shape(b));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bulk build behind `collect()` gives the trie that inserting
    /// the same pairs one by one gives, for sorted, reversed and
    /// shuffled input with duplicates, and stays equal to it under a
    /// random insert/remove tail.
    #[test]
    fn build_order_cannot_change_the_trie(
        pairs in prop::collection::vec((any::<u32>(), 0u8..=12, 0u16..4), 1..80),
        dups in 0usize..20,
        tail in prop::collection::vec((any::<u32>(), 0u8..=12, 0u16..4, any::<bool>()), 0..40),
    ) {
        let mut shuffled: Vec<(Prefix, NextHop)> = pairs
            .iter()
            .map(|&(bits, len, nh)| (Prefix::new(bits, len), NextHop(nh)))
            .collect();
        // Re-announce some prefixes with another next hop: the later
        // pair must win.
        let again: Vec<(Prefix, NextHop)> = shuffled
            .iter()
            .take(dups)
            .map(|&(p, nh)| (p, NextHop(nh.0 + 4)))
            .collect();
        shuffled.extend(again);
        let mut sorted = shuffled.clone();
        sorted.sort_by_key(|&(p, _)| p);
        let reversed: Vec<(Prefix, NextHop)> = sorted.iter().rev().copied().collect();

        for order in [shuffled, sorted, reversed] {
            let mut bulk: Trie<NextHop> = order.iter().copied().collect();
            let mut inserted = Trie::new();
            for &(p, nh) in &order {
                inserted.insert(p, nh);
            }
            same_trie(&bulk, &inserted)?;
            for &(bits, len, nh, insert) in &tail {
                let p = Prefix::new(bits, len);
                if insert {
                    prop_assert_eq!(bulk.insert(p, NextHop(nh)), inserted.insert(p, NextHop(nh)));
                } else {
                    prop_assert_eq!(bulk.remove(p), inserted.remove(p));
                }
            }
            same_trie(&bulk, &inserted)?;
        }
    }
}
