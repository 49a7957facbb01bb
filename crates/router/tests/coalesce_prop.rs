//! Property test: for arbitrary announce/withdraw interleavings, a
//! coalesced batch applied once reaches exactly the table state that
//! one-by-one sequential application reaches — on the original
//! `RouteTable` *and* on the ONRTC-compressed table maintained by
//! `CompressedFib` (the state `CluePipeline` drives the TCAM from) —
//! and coalescing against a trie of the pre-batch table (what the
//! update plane does) gives the same batch as against the table.

use clue_compress::CompressedFib;
use clue_fib::{NextHop, Prefix, Route, RouteTable, Update};
use clue_router::{coalesce, coalesce_with};
use proptest::prelude::*;

/// A small prefix universe with deliberate nesting: 32 disjoint /8s
/// plus a /16 inside each, so announce/withdraw interleavings exercise
/// covering-route compression, splits, and merges.
fn universe(i: u8) -> Prefix {
    let i = usize::from(i) % 64;
    if i < 32 {
        Prefix::new((i as u32) << 24, 8)
    } else {
        Prefix::new((((i - 32) as u32) << 24) | (1 << 16), 16)
    }
}

fn decode_batch(ops: &[(u8, bool, u8)]) -> Vec<Update> {
    ops.iter()
        .map(|&(i, announce, nh)| {
            let prefix = universe(i);
            if announce {
                Update::Announce {
                    prefix,
                    next_hop: NextHop(u16::from(nh) % 8),
                }
            } else {
                Update::Withdraw { prefix }
            }
        })
        .collect()
}

fn decode_base(entries: &[(u8, u8)]) -> RouteTable {
    let mut t = RouteTable::new();
    // An anchor route outside the churned universe keeps the table
    // non-empty (CompressedFib is built over a non-degenerate FIB).
    t.insert(Prefix::new(0xC0_00_00_00, 4), NextHop(15));
    for &(i, nh) in entries {
        t.insert(universe(i), NextHop(u16::from(nh) % 8));
    }
    t
}

fn routes(t: &RouteTable) -> Vec<Route> {
    t.iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn coalesced_batch_reaches_the_sequential_state(
        base in prop::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        ops in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u8>()), 0..48),
    ) {
        let pre = decode_base(&base);
        let batch = decode_batch(&ops);
        let coalesced = coalesce(&batch, &pre);
        // The update plane reads the pre-batch state from its pipeline's
        // original trie instead: same prefixes, same verdicts.
        let trie = pre.to_trie();
        prop_assert_eq!(&coalesce_with(&batch, |p| trie.get(p).copied()), &coalesced);

        // Conservation of the accounting: every raw op is applied,
        // superseded, cancelled, or elided.
        prop_assert_eq!(
            coalesced.raw,
            coalesced.ops.len()
                + coalesced.superseded
                + coalesced.cancelled
                + coalesced.elided
        );

        // Original-table equivalence.
        let mut seq = pre.clone();
        for &u in &batch {
            seq.apply(u);
        }
        let mut coal = pre.clone();
        for &u in &coalesced.ops {
            coal.apply(u);
        }
        prop_assert_eq!(routes(&seq), routes(&coal));

        // Compressed-table equivalence: the state CLUE's TCAM mirrors.
        let mut fib_seq = CompressedFib::new(&pre);
        for &u in &batch {
            fib_seq.apply(u);
        }
        let mut fib_coal = CompressedFib::new(&pre);
        for &u in &coalesced.ops {
            fib_coal.apply(u);
        }
        prop_assert_eq!(
            routes(&fib_seq.compressed_table()),
            routes(&fib_coal.compressed_table())
        );
    }

    #[test]
    fn coalescing_a_flap_storm_cancels_almost_everything(
        flaps in prop::collection::vec((any::<u8>(), any::<u8>()), 1..16),
    ) {
        // Announce-then-withdraw per prefix against an empty-ish base:
        // every pair must annihilate.
        let pre = decode_base(&[]);
        let mut batch = Vec::new();
        for &(i, nh) in &flaps {
            let prefix = universe(i);
            batch.push(Update::Announce { prefix, next_hop: NextHop(u16::from(nh) % 8) });
            batch.push(Update::Withdraw { prefix });
        }
        let coalesced = coalesce(&batch, &pre);
        prop_assert!(coalesced.ops.is_empty());
        prop_assert!(coalesced.coalesce_ratio() > 0.99);
    }
}
