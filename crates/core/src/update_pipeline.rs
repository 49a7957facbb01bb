//! The whole incremental update pipeline and its TTF accounting
//! (Section IV, Figures 10–14).
//!
//! An update message takes effect only after three stages:
//!
//! 1. **trie update** — control-plane computation (TTF1, measured as
//!    wall-clock time);
//! 2. **TCAM update** — slot writes/moves on the lookup TCAMs (TTF2 =
//!    operations × 24 ns);
//! 3. **DRed update** — synchronizing the redundancy storage (TTF3).
//!
//! Two complete pipelines are provided:
//!
//! * [`CluePipeline`] — ONRTC incremental trie + unordered TCAM (O(1)
//!   per entry) + DRed delete-if-present. The trie stage is slightly
//!   more expensive than a raw trie (it maintains the compressed form);
//!   the TCAM/DRed stages collapse to a handful of writes.
//! * [`ClplPipeline`] — raw trie (ground-truth TTF1) +
//!   prefix-length-ordered TCAM (the Figure 7(b) layout, ~15 moves per
//!   update) + RRC-ME-style cache repair that must interrogate each
//!   logical cache from the control plane.
//!
//! Cost-model note (documented asymmetry): CLUE's DRed synchronization
//! is driven by the data plane, which already knows each DRed's
//! contents through its local mirror, so only *actual* DRed writes cost
//! TCAM cycles. CLPL's control plane has no such mirror; each repair
//! pays one probe per cache per affected prefix plus the invalidation
//! writes.

use std::time::Instant;

use clue_cache::LruPrefixCache;
use clue_compress::CompressedFib;
use clue_fib::{NextHop, Route, RouteTable, Trie, Update};
use clue_tcam::{PrefixLengthOrderedTcam, TcamTable, TcamTiming, UnorderedTcam, UpdateCost};

/// The three-part Time-To-Fresh of one update message.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TtfSample {
    /// Trie (control-plane) computation time, nanoseconds.
    pub ttf1_ns: f64,
    /// TCAM update time, nanoseconds.
    pub ttf2_ns: f64,
    /// DRed/cache synchronization time, nanoseconds.
    pub ttf3_ns: f64,
}

impl TtfSample {
    /// Total TTF.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.ttf1_ns + self.ttf2_ns + self.ttf3_ns
    }
}

/// Mean of each TTF component over a window of samples.
#[must_use]
pub fn mean_ttf(samples: &[TtfSample]) -> TtfSample {
    if samples.is_empty() {
        return TtfSample::default();
    }
    let n = samples.len() as f64;
    TtfSample {
        ttf1_ns: samples.iter().map(|s| s.ttf1_ns).sum::<f64>() / n,
        ttf2_ns: samples.iter().map(|s| s.ttf2_ns).sum::<f64>() / n,
        ttf3_ns: samples.iter().map(|s| s.ttf3_ns).sum::<f64>() / n,
    }
}

/// CLUE's end-to-end update pipeline.
#[derive(Debug)]
pub struct CluePipeline {
    fib: CompressedFib,
    tcam: UnorderedTcam,
    dreds: Vec<LruPrefixCache>,
    timing: TcamTiming,
}

impl CluePipeline {
    /// Builds the pipeline: compresses `table`, loads the compressed
    /// trie's entries into an unordered TCAM sized to them plus
    /// `headroom` + 64 spare slots, and attaches `chips` DReds of
    /// `dred_capacity` prefixes. The TCAM grows by an eighth whenever an
    /// update's inserts would fill it, so `headroom` only saves growth
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics if parameters are degenerate (zero chips/capacity).
    #[must_use]
    pub fn new(table: &RouteTable, chips: usize, dred_capacity: usize, headroom: usize) -> Self {
        Self::from_fib(CompressedFib::new(table), chips, dred_capacity, headroom)
    }

    /// Builds the pipeline like [`new`](Self::new) around an already
    /// compressed `fib`.
    ///
    /// # Panics
    ///
    /// Panics if parameters are degenerate (zero chips/capacity).
    #[must_use]
    pub fn from_fib(
        fib: CompressedFib,
        chips: usize,
        dred_capacity: usize,
        headroom: usize,
    ) -> Self {
        assert!(chips > 0 && dred_capacity > 0);
        let tcam = UnorderedTcam::with_routes(
            fib.compressed_len() + headroom + 64,
            fib.compressed().iter().map(|(p, &nh)| Route::new(p, nh)),
        );
        CluePipeline {
            fib,
            tcam,
            dreds: (0..chips)
                .map(|_| LruPrefixCache::new(dred_capacity))
                .collect(),
            timing: TcamTiming::default(),
        }
    }

    /// Pre-fills the DReds by resolving `addrs` against the compressed
    /// table (so TTF3 has realistic victims).
    pub fn warm(&mut self, addrs: &[u32]) {
        for &addr in addrs {
            if let Some((p, &nh)) = self.fib.compressed().lookup(addr) {
                for dred in &mut self.dreds {
                    dred.insert(Route::new(p, nh));
                }
            }
        }
    }

    /// Applies one update through all three stages.
    pub fn apply(&mut self, update: Update) -> TtfSample {
        self.apply_with_diff(update).0
    }

    /// Applies one update through all three stages and also returns the
    /// entry-level [`TableDiff`] the trie stage produced.
    ///
    /// The diff is what a data plane mirroring the compressed table
    /// (e.g. the `clue-router` runtime's worker DReds) needs to stay
    /// synchronized: deleted and modified prefixes must be flushed from
    /// any redundancy storage that may hold them.
    pub fn apply_with_diff(&mut self, update: Update) -> (TtfSample, clue_compress::TableDiff) {
        // Stage 1: trie (measures itself).
        let diff = self.fib.apply(update);
        let ttf1_ns = self.fib.last_update_time().as_nanos() as f64;

        // Stage 2: TCAM. Deletes first so capacity is available; then
        // the model grows by an eighth if the inserts would fill it
        // (growing moves no entry, so it costs no slot operation).
        let mut cost = UpdateCost::default();
        for &p in &diff.deletes {
            cost += self.tcam.delete(p).expect("diff deletes an existing entry");
        }
        let need = self.tcam.len() + diff.inserts.len();
        let capacity = self.tcam.capacity();
        if need >= capacity {
            self.tcam.grow((capacity / 8).max(need + 1 - capacity));
        }
        for r in diff.modifies.iter().chain(&diff.inserts) {
            cost += self.tcam.insert(*r).expect("TCAM grown to fit the diff");
        }
        let ttf2_ns = self.timing.cost_ns(cost);

        // Stage 3: DRed. The paper's rule: inserts need no DRed action;
        // a delete is "just look it up in the DRed; if it exists,
        // delete it" — one broadcast search across the DRed partitions
        // (24 ns) plus a write wherever the entry actually exists.
        let mut searches = 0u64;
        let mut dred_writes = 0u64;
        for &p in &diff.deletes {
            searches += 1;
            for dred in &mut self.dreds {
                if dred.remove(p).is_some() {
                    dred_writes += 1;
                }
            }
        }
        for m in &diff.modifies {
            searches += 1;
            for dred in &mut self.dreds {
                if dred.remove(m.prefix).is_some() {
                    dred.insert(*m);
                    dred_writes += 1;
                }
            }
        }
        let ttf3_ns =
            searches as f64 * self.timing.search_ns + dred_writes as f64 * self.timing.write_ns;

        (
            TtfSample {
                ttf1_ns,
                ttf2_ns,
                ttf3_ns,
            },
            diff,
        )
    }

    /// The compressed table size (TCAM occupancy).
    #[must_use]
    pub fn tcam_entries(&self) -> usize {
        self.tcam.len()
    }

    /// Verifies TCAM contents equal the compressed table (test hook).
    #[must_use]
    pub fn tcam_synced(&self) -> bool {
        let mut routes = self.tcam.routes();
        routes.sort();
        let expect: Vec<Route> = self.fib.compressed_table().iter().collect();
        routes == expect
    }

    /// Access to the maintained FIB (for verification).
    #[must_use]
    pub fn fib(&self) -> &CompressedFib {
        &self.fib
    }

    /// The per-chip DRed caches (for verification: the conformance
    /// harness checks every cached entry is still live in the
    /// compressed table after each batch).
    #[must_use]
    pub fn dreds(&self) -> &[LruPrefixCache] {
        &self.dreds
    }
}

/// CLPL's end-to-end update pipeline (the comparison baseline).
#[derive(Debug)]
pub struct ClplPipeline {
    trie: Trie<NextHop>,
    tcam: PrefixLengthOrderedTcam,
    caches: Vec<LruPrefixCache>,
    timing: TcamTiming,
    /// SRAM access time for the RRC-ME repair walks, nanoseconds.
    sram_ns: f64,
}

impl ClplPipeline {
    /// Builds the pipeline: loads the *uncompressed* table into a
    /// length-ordered TCAM and attaches `chips` logical caches.
    ///
    /// # Panics
    ///
    /// Panics if parameters are degenerate.
    #[must_use]
    pub fn new(table: &RouteTable, chips: usize, cache_capacity: usize, headroom: usize) -> Self {
        assert!(chips > 0 && cache_capacity > 0);
        let mut tcam = PrefixLengthOrderedTcam::new(table.len() * 2 + headroom + 64);
        clue_tcam::load(&mut tcam, table.iter());
        ClplPipeline {
            trie: table.to_trie(),
            tcam,
            caches: (0..chips)
                .map(|_| LruPrefixCache::new(cache_capacity))
                .collect(),
            timing: TcamTiming::default(),
            sram_ns: 6.0,
        }
    }

    /// Pre-fills the logical caches with RRC-ME results for `addrs`.
    pub fn warm(&mut self, addrs: &[u32]) {
        for &addr in addrs {
            if let Some(me) = clue_cache::rrc_me(&self.trie, addr) {
                for cache in &mut self.caches {
                    cache.insert(me.route);
                }
            }
        }
    }

    /// Applies one update through all three stages.
    pub fn apply(&mut self, update: Update) -> TtfSample {
        // Stage 1: plain trie update (the paper's ground truth TTF1).
        let start = Instant::now();
        let changed = match update {
            Update::Announce { prefix, next_hop } => {
                self.trie.insert(prefix, next_hop) != Some(next_hop)
            }
            Update::Withdraw { prefix } => self.trie.remove(prefix).is_some(),
        };
        let ttf1_ns = start.elapsed().as_nanos() as f64;
        if !changed {
            return TtfSample {
                ttf1_ns,
                ttf2_ns: 0.0,
                ttf3_ns: 0.0,
            };
        }

        // Stage 2: one entry changes in the ordered TCAM — but the
        // partial order makes it cost a cascade of boundary moves.
        let cost = match update {
            Update::Announce { prefix, next_hop } => self
                .tcam
                .insert(Route::new(prefix, next_hop))
                .expect("TCAM sized with headroom"),
            Update::Withdraw { prefix } => self
                .tcam
                .delete(prefix)
                .expect("withdraw of a stored route"),
        };
        let ttf2_ns = self.timing.cost_ns(cost);

        // Stage 3: cache repair through the control plane. RRC-ME's
        // update algorithm must re-walk the SRAM trie around the changed
        // prefix and interrogate every cache for overlapping minimal
        // expansions, then erase them.
        let prefix = update.prefix();
        let walk = self.repair_walk_accesses(prefix);
        let mut probes = 0u64;
        let mut erases = 0u64;
        for cache in &mut self.caches {
            probes += 1;
            erases += cache.invalidate_overlapping(prefix) as u64;
        }
        let ttf3_ns = walk as f64 * self.sram_ns + (probes + erases) as f64 * self.timing.write_ns;

        TtfSample {
            ttf1_ns,
            ttf2_ns,
            ttf3_ns,
        }
    }

    /// SRAM nodes the repair walk visits: the path to the prefix plus
    /// its immediate neighbourhood (children inspected for affected
    /// minimal expansions).
    fn repair_walk_accesses(&self, prefix: clue_fib::Prefix) -> u64 {
        let mut accesses = u64::from(prefix.len()) + 1; // root → prefix path
        if let Some(node) = self.trie.node(prefix) {
            accesses += u64::from(node.descendant_routes().min(8));
        }
        accesses
    }

    /// The TCAM occupancy (uncompressed table size).
    #[must_use]
    pub fn tcam_entries(&self) -> usize {
        self.tcam.len()
    }

    /// Verifies TCAM contents equal the routing table (test hook).
    #[must_use]
    pub fn tcam_synced(&self) -> bool {
        let mut routes = self.tcam.routes();
        routes.sort();
        let expect: Vec<Route> = RouteTable::from_trie(&self.trie).iter().collect();
        routes == expect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_fib::gen::FibGen;
    use clue_fib::Prefix;
    use clue_traffic::{PacketGen, UpdateGen};

    fn setup() -> (RouteTable, Vec<Update>, Vec<u32>) {
        let fib = FibGen::new(31).routes(3_000).generate();
        let updates = UpdateGen::new(32).generate(&fib, 400);
        let warm = PacketGen::new(33).generate(&fib, 2_000);
        (fib, updates, warm)
    }

    #[test]
    fn clue_pipeline_stays_synced_through_a_storm() {
        let (fib, updates, warm) = setup();
        let mut p = CluePipeline::new(&fib, 4, 256, 4_096);
        p.warm(&warm);
        for u in updates {
            p.apply(u);
        }
        assert!(p.tcam_synced(), "TCAM diverged from compressed table");
    }

    /// A pipeline booted with no headroom grows through an announce
    /// storm and accounts exactly what a pre-sized one does.
    #[test]
    fn unsized_pipeline_grows_through_an_announce_storm() {
        let (fib, _, _) = setup();
        let storm: Vec<Update> = (0..2_000u32)
            .map(|i| Update::Announce {
                // Host routes in 240/8, which the generator leaves
                // alone, each its own compressed entry.
                prefix: Prefix::new(0xF000_0000 | (i << 1), 32),
                next_hop: NextHop(1 + (i % 7) as u16),
            })
            .collect();
        let mut tight = CluePipeline::new(&fib, 4, 256, 0);
        let mut sized = CluePipeline::new(&fib, 4, 256, storm.len());
        let capacity0 = tight.tcam.capacity();
        for &u in &storm {
            assert_eq!(tight.apply(u).ttf2_ns, sized.apply(u).ttf2_ns);
        }
        assert!(tight.tcam.capacity() > capacity0, "the model grew");
        assert_eq!(tight.tcam.stats(), sized.tcam.stats());
        assert!(tight.tcam_synced());
    }

    #[test]
    fn clpl_pipeline_stays_synced_through_a_storm() {
        let (fib, updates, warm) = setup();
        let mut p = ClplPipeline::new(&fib, 4, 256, 4_096);
        p.warm(&warm);
        for u in updates {
            p.apply(u);
        }
        assert!(p.tcam_synced(), "TCAM diverged from routing table");
    }

    #[test]
    fn clue_ttf2_is_tiny_and_clpl_ttf2_is_a_cascade() {
        let (fib, updates, _) = setup();
        let mut clue = CluePipeline::new(&fib, 4, 256, 4_096);
        let mut clpl = ClplPipeline::new(&fib, 4, 256, 4_096);
        let mut clue_sum = 0.0;
        let mut clpl_sum = 0.0;
        let mut n = 0u32;
        for &u in &updates {
            let a = clue.apply(u);
            let b = clpl.apply(u);
            clue_sum += a.ttf2_ns;
            clpl_sum += b.ttf2_ns;
            n += 1;
        }
        let (clue_mean, clpl_mean) = (clue_sum / f64::from(n), clpl_sum / f64::from(n));
        // Paper: CLUE ≈ 24 ns/update-entry vs CLPL ≈ 360 ns. Our CLPL
        // model is more charitable than the paper's (in-place action
        // rewrites for pure next-hop changes), so assert the direction
        // here and leave the magnitude to the fig11 bench.
        assert!(
            clpl_mean > clue_mean,
            "CLPL TTF2 {clpl_mean:.1} ns not above CLUE {clue_mean:.1} ns"
        );
    }

    #[test]
    fn clue_ttf3_beats_clpl_ttf3_with_warm_caches() {
        let (fib, updates, warm) = setup();
        let mut clue = CluePipeline::new(&fib, 4, 1024, 4_096);
        let mut clpl = ClplPipeline::new(&fib, 4, 1024, 4_096);
        clue.warm(&warm);
        clpl.warm(&warm);
        let clue_mean: f64 =
            updates.iter().map(|&u| clue.apply(u).ttf3_ns).sum::<f64>() / updates.len() as f64;
        let clpl_mean: f64 =
            updates.iter().map(|&u| clpl.apply(u).ttf3_ns).sum::<f64>() / updates.len() as f64;
        assert!(
            clpl_mean > 2.0 * clue_mean,
            "CLPL TTF3 {clpl_mean:.1} ns not ≫ CLUE {clue_mean:.1} ns"
        );
    }

    #[test]
    fn noop_update_costs_almost_nothing() {
        let (fib, _, _) = setup();
        let route = fib.iter().next().unwrap();
        let mut p = CluePipeline::new(&fib, 4, 64, 1_024);
        let s = p.apply(Update::Announce {
            prefix: route.prefix,
            next_hop: route.next_hop,
        });
        assert_eq!(s.ttf2_ns, 0.0);
        assert_eq!(s.ttf3_ns, 0.0);
    }

    #[test]
    fn mean_ttf_averages_componentwise() {
        let samples = vec![
            TtfSample {
                ttf1_ns: 10.0,
                ttf2_ns: 20.0,
                ttf3_ns: 30.0,
            },
            TtfSample {
                ttf1_ns: 30.0,
                ttf2_ns: 0.0,
                ttf3_ns: 10.0,
            },
        ];
        let m = mean_ttf(&samples);
        assert_eq!(m.ttf1_ns, 20.0);
        assert_eq!(m.ttf2_ns, 10.0);
        assert_eq!(m.ttf3_ns, 20.0);
        assert_eq!(m.total_ns(), 50.0);
        assert_eq!(mean_ttf(&[]), TtfSample::default());
    }

    #[test]
    fn apply_with_diff_exposes_the_entry_changes() {
        let mut table = RouteTable::new();
        table.insert("10.0.0.0/8".parse::<Prefix>().unwrap(), NextHop(1));
        let mut p = CluePipeline::new(&table, 2, 64, 1_024);
        let (sample, diff) = p.apply_with_diff(Update::Announce {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: NextHop(2),
        });
        assert_eq!(diff.modifies.len(), 1, "next-hop rewrite is a modify");
        assert!(diff.inserts.is_empty() && diff.deletes.is_empty());
        assert!(sample.ttf2_ns > 0.0);
        // And the diff-less `apply` stays behaviourally identical.
        let (_, diff) = p.apply_with_diff(Update::Withdraw {
            prefix: "10.0.0.0/8".parse().unwrap(),
        });
        assert_eq!(diff.deletes.len(), 1);
        assert!(p.tcam_synced());
    }

    #[test]
    fn clue_dred_delete_if_present() {
        let mut table = RouteTable::new();
        table.insert("10.0.0.0/8".parse::<Prefix>().unwrap(), NextHop(1));
        let mut p = CluePipeline::new(&table, 4, 64, 1_024);
        p.warm(&[0x0A00_0001]); // caches 10/8 in all DReds
        let s = p.apply(Update::Withdraw {
            prefix: "10.0.0.0/8".parse().unwrap(),
        });
        // One broadcast search + 4 DRed deletions, 24 ns each.
        assert_eq!(s.ttf3_ns, (1.0 + 4.0) * 24.0);
    }
}
