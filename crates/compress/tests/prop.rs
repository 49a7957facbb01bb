//! Property-based tests for the compression algorithms.
//!
//! The generators favour short prefixes over a small next-hop alphabet so
//! that overlap, merging, and carving all occur frequently.

use clue_compress::{leaf_push, onrtc, onrtc_routes, ortc, CompressedFib};
use clue_fib::{NextHop, Prefix, RouteTable, Update};
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = RouteTable> {
    prop::collection::vec((any::<u32>(), 0u8..=10, 0u16..3), 0..40).prop_map(|v| {
        v.into_iter()
            .map(|(bits, len, nh)| (Prefix::new(bits, len), NextHop(nh)))
            .collect()
    })
}

fn lookup(t: &RouteTable, addr: u32) -> Option<NextHop> {
    t.to_trie().lookup(addr).map(|(_, &nh)| nh)
}

/// Probe addresses that cover every boundary a /10-grained table can
/// have, plus the extremes.
fn probes() -> impl Iterator<Item = u32> {
    (0u32..1024)
        .map(|i| i << 22)
        .chain([u32::MAX, 1, 0x8000_0001])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn onrtc_preserves_semantics(t in arb_table()) {
        let c = onrtc(&t);
        for addr in probes() {
            prop_assert_eq!(lookup(&c, addr), lookup(&t, addr), "addr {:#x}", addr);
        }
    }

    #[test]
    fn onrtc_output_is_non_overlapping(t in arb_table()) {
        prop_assert!(onrtc(&t).is_non_overlapping());
    }

    #[test]
    fn onrtc_is_idempotent(t in arb_table()) {
        let once = onrtc(&t);
        prop_assert_eq!(onrtc(&once), once);
    }

    #[test]
    fn leaf_push_preserves_semantics_and_disjointness(t in arb_table()) {
        let p = leaf_push(&t);
        prop_assert!(p.is_non_overlapping());
        for addr in probes() {
            prop_assert_eq!(lookup(&p, addr), lookup(&t, addr), "addr {:#x}", addr);
        }
    }

    #[test]
    fn onrtc_never_beaten_by_any_nonoverlap_rival(t in arb_table()) {
        // Minimality vs the only other full-overlap eliminator we have.
        prop_assert!(onrtc(&t).len() <= leaf_push(&t).len());
    }

    #[test]
    fn ortc_preserves_semantics(t in arb_table()) {
        let o = ortc(&t);
        for addr in probes() {
            prop_assert_eq!(o.lookup(addr), lookup(&t, addr), "addr {:#x}", addr);
        }
    }

    #[test]
    fn ortc_at_most_input_and_onrtc_size(t in arb_table()) {
        let o = ortc(&t);
        prop_assert!(o.len() <= t.len().max(1));
        prop_assert!(o.len() <= onrtc(&t).len().max(1));
    }
}

fn arb_updates() -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec(
        (any::<u32>(), 0u8..=10, 0u16..3, prop::bool::weighted(0.7)),
        1..60,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(bits, len, nh, announce)| {
                let prefix = Prefix::new(bits, len);
                if announce {
                    Update::Announce {
                        prefix,
                        next_hop: NextHop(nh),
                    }
                } else {
                    Update::Withdraw { prefix }
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental engine must stay byte-identical to a from-scratch
    /// recompression after *every* update, and the diffs it emits must
    /// replay onto the previous table to produce the next one.
    #[test]
    fn incremental_matches_scratch(initial in arb_table(), updates in arb_updates()) {
        let mut cf = CompressedFib::new(&initial);
        let mut replay = cf.compressed_table();
        for u in updates {
            let diff = cf.apply(u);
            for d in &diff.deletes {
                prop_assert!(replay.remove(*d).is_some(), "diff deleted absent {d}");
            }
            for m in &diff.modifies {
                prop_assert!(replay.insert(m.prefix, m.next_hop).is_some());
            }
            for i in &diff.inserts {
                prop_assert!(replay.insert(i.prefix, i.next_hop).is_none());
            }
            let scratch = onrtc(&RouteTable::from_trie(cf.original()));
            prop_assert_eq!(&cf.compressed_table(), &scratch);
            prop_assert_eq!(&replay, &scratch);
        }
    }

    /// A fib built from a trie and its cover is the fib `new` builds:
    /// the same original and compressed tries, and the same diff for
    /// every update of a random tail.
    #[test]
    fn from_parts_matches_new(initial in arb_table(), updates in arb_updates()) {
        let original = initial.to_trie();
        let cover = onrtc_routes(&original);
        let mut parts = CompressedFib::from_parts(original, &cover);
        let mut built = CompressedFib::new(&initial);
        let entries = |t: &clue_fib::Trie<NextHop>| -> Vec<(Prefix, NextHop)> {
            t.iter().map(|(p, &nh)| (p, nh)).collect()
        };
        prop_assert_eq!(entries(parts.original()), entries(built.original()));
        prop_assert_eq!(entries(parts.compressed()), entries(built.compressed()));
        prop_assert_eq!(RouteTable::from_trie(parts.original()), initial.clone());
        prop_assert_eq!(parts.compressed_table(), onrtc(&initial));
        for u in updates {
            prop_assert_eq!(parts.apply(u), built.apply(u), "update {}", u);
            prop_assert_eq!(entries(parts.compressed()), entries(built.compressed()));
        }
        prop_assert_eq!(entries(parts.original()), entries(built.original()));
    }

    /// Updates that do not change the forwarding function produce empty
    /// diffs (no spurious TCAM traffic).
    #[test]
    fn noop_updates_produce_empty_diffs(t in arb_table()) {
        let mut cf = CompressedFib::new(&t);
        let routes: Vec<_> = t.iter().collect();
        for r in routes {
            let diff = cf.apply(Update::Announce {
                prefix: r.prefix,
                next_hop: r.next_hop,
            });
            prop_assert!(diff.is_empty(), "re-announce of {} changed table", r.prefix);
        }
    }
}
