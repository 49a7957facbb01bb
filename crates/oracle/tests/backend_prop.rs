//! Cross-backend differential property tests: every [`LookupPlane`]
//! backend must agree with the naive flat-scan oracle on arbitrary
//! update traces — announces, withdraws, and coalesced batches — with
//! adversarial probes at /0, /32, and sibling-prefix edges.
//!
//! The sequential conformance phase already probes all backends inside
//! `check_trace` on generator workloads; these properties attack the
//! same agreement with proptest-shaped inputs (deliberately nested
//! universes, default routes, host-route sibling pairs) so the edge
//! geometry is explored independently of the BGP-trace generators.

use clue_compress::onrtc;
use clue_core::lookup::{build_plane, BackendKind, LookupPlane};
use clue_fib::{NextHop, Prefix, Route, RouteTable, Update};
use clue_oracle::Oracle;
use clue_router::coalesce;
use proptest::prelude::*;

/// A prefix universe spanning the adversarial geometry: the default
/// route (/0), disjoint /8s, nested /16s, and /32 host-route sibling
/// pairs at the top edge of their /8 (so `high + 1` crosses into the
/// neighbouring /8).
fn universe(i: u8) -> Prefix {
    match usize::from(i) % 81 {
        0 => Prefix::root(),
        x if x < 33 => Prefix::new(((x - 1) as u32) << 24, 8),
        x if x < 65 => Prefix::new((((x - 33) as u32) << 24) | (1 << 16), 16),
        x if x < 73 => Prefix::new((((x - 65) as u32) << 24) | 0x00FF_FFFE, 32),
        x => Prefix::new((((x - 73) as u32) << 24) | 0x00FF_FFFF, 32),
    }
}

fn decode_updates(ops: &[(u8, bool, u8)]) -> Vec<Update> {
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
    // An anchor outside the churned universe keeps compression
    // non-degenerate even when every universe route is withdrawn.
    t.insert(Prefix::new(0xC000_0000, 4), NextHop(15));
    for &(i, nh) in entries {
        t.insert(universe(i), NextHop(u16::from(nh) % 8));
    }
    t
}

/// Adversarial probe set: /0 extremes, half-space boundary, and for
/// every standing route its interval ends, the addresses one past them,
/// and both ends of its sibling prefix.
fn boundary_probes(table: &RouteTable) -> Vec<u32> {
    let mut addrs = vec![0u32, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX - 1, u32::MAX];
    for r in table.iter() {
        let (lo, hi) = (r.prefix.low(), r.prefix.high());
        addrs.extend([lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]);
        if let Some(sib) = r.prefix.sibling() {
            addrs.push(sib.low());
            addrs.push(sib.high());
        }
    }
    addrs
}

fn planes_over(routes: &[Route]) -> Vec<Box<dyn LookupPlane>> {
    clue_tile::install();
    BackendKind::ALL
        .iter()
        .map(|&k| build_plane(k, routes))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random update traces, applied batch-by-batch through the same
    /// last-op-wins coalescer the router's update plane uses: after
    /// every coalesced batch, all three backends (built from the ONRTC
    /// compression of the live table) answer every adversarial probe
    /// exactly like the flat-scan oracle.
    #[test]
    fn all_backends_agree_with_the_oracle_on_update_traces(
        base in prop::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        ops in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u8>()), 1..48),
        random_probes in prop::collection::vec(any::<u32>(), 24),
    ) {
        let pre = decode_base(&base);
        let trace = decode_updates(&ops);
        let mut oracle = Oracle::new(&pre);
        let mut table = pre.clone();

        for batch in trace.chunks(8) {
            let coalesced = coalesce(batch, &table);
            for &u in &coalesced.ops {
                oracle.apply(u);
                table.apply(u);
            }
            let compressed = onrtc(&table);
            let routes: Vec<Route> = compressed.iter().collect();
            let planes = planes_over(&routes);
            let mut probes = boundary_probes(&table);
            probes.extend_from_slice(&random_probes);
            for addr in probes {
                let expected = oracle.lookup(addr);
                for plane in &planes {
                    prop_assert_eq!(
                        plane.next_hop(addr),
                        expected,
                        "{} backend diverged at {:#010x}",
                        plane.kind(),
                        addr
                    );
                }
            }
        }
    }

    /// Backends built from *overlapping* (uncompressed) route sets
    /// must resolve the longest match — the oracle scans the raw
    /// table, so nesting (/0 under /8 under /16 under /32) is decided
    /// by prefix length alone.
    #[test]
    fn backends_resolve_longest_match_on_overlapping_sets(
        entries in prop::collection::vec((any::<u8>(), any::<u8>()), 1..32),
        random_probes in prop::collection::vec(any::<u32>(), 24),
    ) {
        let table = decode_base(&entries);
        let oracle = Oracle::new(&table);
        let routes: Vec<Route> = table.iter().collect();
        let planes = planes_over(&routes);
        let mut probes = boundary_probes(&table);
        probes.extend_from_slice(&random_probes);
        for addr in probes {
            let expected = oracle.lookup(addr);
            for plane in &planes {
                prop_assert_eq!(
                    plane.next_hop(addr),
                    expected,
                    "{} backend diverged at {:#010x}",
                    plane.kind(),
                    addr
                );
            }
        }
    }

    /// The same traces as above, but every backend is built from the
    /// *raw* live table, not its ONRTC compression: the universe nests
    /// /0 ⊃ /8 ⊃ /16 and holds /32 siblings, so the `tcam` plane runs
    /// with its `up` links whenever the table nests, and without them
    /// when withdraws have flattened it.
    #[test]
    fn all_backends_agree_with_the_oracle_on_raw_overlapping_tables(
        base in prop::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        ops in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u8>()), 1..48),
    ) {
        let pre = decode_base(&base);
        let trace = decode_updates(&ops);
        let mut oracle = Oracle::new(&pre);
        let mut table = pre.clone();

        for batch in trace.chunks(8) {
            let coalesced = coalesce(batch, &table);
            for &u in &coalesced.ops {
                oracle.apply(u);
                table.apply(u);
            }
            let routes: Vec<Route> = table.iter().collect();
            let planes = planes_over(&routes);
            for addr in boundary_probes(&table) {
                let expected = oracle.lookup(addr);
                for plane in &planes {
                    prop_assert_eq!(
                        plane.next_hop(addr),
                        expected,
                        "{} backend diverged at {:#010x}",
                        plane.kind(),
                        addr
                    );
                }
            }
        }
    }

    /// The matched route (prefix *and* next hop — what
    /// `LookupPlane::lookup` returns) is identical across backends,
    /// not just the hop.
    #[test]
    fn backends_agree_on_the_matched_route_itself(
        entries in prop::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        random_probes in prop::collection::vec(any::<u32>(), 48),
    ) {
        let table = onrtc(&decode_base(&entries));
        let routes: Vec<Route> = table.iter().collect();
        let planes = planes_over(&routes);
        let mut probes = boundary_probes(&table);
        probes.extend_from_slice(&random_probes);
        for addr in probes {
            let answers: Vec<Option<Route>> =
                planes.iter().map(|p| p.lookup(addr)).collect();
            prop_assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "matched-route disagreement at {:#010x}: {:?}",
                addr,
                answers
            );
        }
    }
}

/// Fixed edge geometry, checked exhaustively (no generator): a default
/// route, a /32 at 0.0.0.0, a /32 at 255.255.255.255, and a sibling
/// pair split at the /1 boundary.
#[test]
fn fixed_extreme_table_agrees_everywhere_it_matters() {
    let mut table = RouteTable::new();
    table.insert(Prefix::root(), NextHop(1));
    table.insert(Prefix::new(0, 32), NextHop(2));
    table.insert(Prefix::new(u32::MAX, 32), NextHop(3));
    table.insert(Prefix::new(0, 1), NextHop(4));
    table.insert(Prefix::new(0x8000_0000, 1), NextHop(5));
    let oracle = Oracle::new(&table);

    for source in [table.clone(), onrtc(&table)] {
        let routes: Vec<Route> = source.iter().collect();
        let planes = planes_over(&routes);
        for addr in [
            0u32,
            1,
            2,
            0x7FFF_FFFF,
            0x8000_0000,
            0x8000_0001,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let expected = oracle.lookup(addr);
            for plane in &planes {
                assert_eq!(
                    plane.next_hop(addr),
                    expected,
                    "{} backend at {addr:#010x}",
                    plane.kind()
                );
            }
        }
    }
}
