//! Routing-table compression for the CLUE reproduction.
//!
//! Three algorithms, one trade-off space:
//!
//! * [`onrtc`] — **O**ptimal **N**on-overlap **R**outing **T**able
//!   **C**onstruction (the compression stage of CLUE). Output is the
//!   smallest non-overlapping table with identical LPM semantics; it is
//!   what makes priority-encoder-free TCAMs, O(1) TCAM update, and
//!   zero-redundancy partitioning possible downstream.
//! * [`ortc`] — Draves et al.'s optimal *general* compression; smaller
//!   output, but overlapping, so all the TCAM pain returns. Ablation
//!   baseline.
//! * [`leaf_push`] — full prefix expansion; eliminates overlap like ONRTC
//!   but with no merging, so the table *grows*. The prior-art baseline
//!   the paper cites.
//!
//! [`CompressedFib`] maintains an ONRTC table incrementally under BGP
//! updates and reports the exact TCAM entry diff per update.
//!
//! # Examples
//!
//! ```
//! use clue_compress::{leaf_push, onrtc, ortc};
//! use clue_fib::gen::FibGen;
//!
//! let fib = FibGen::new(1).routes(2_000).generate();
//! let non_overlap = onrtc(&fib);
//! assert!(non_overlap.is_non_overlapping());
//! // ORTC ≤ ONRTC ≤ leaf-push, always.
//! assert!(ortc(&fib).len() <= non_overlap.len());
//! assert!(non_overlap.len() <= leaf_push(&fib).len());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod cover;
mod incremental;
mod leaf_push;
mod ortc;

pub use cover::{
    locate, onrtc, onrtc_routes, onrtc_trie, range_cover, region_cover, region_cover_in, Cover,
};
pub use incremental::{CompressedFib, TableDiff};
pub use leaf_push::leaf_push;
pub use ortc::{ortc, Action, OrtcTable};

use clue_fib::RouteTable;

/// Summary of one compression run, as reported in Figure 8 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Routes in the input table.
    pub original: usize,
    /// Entries in the compressed table.
    pub compressed: usize,
    /// Compression time in milliseconds.
    pub millis: f64,
}

impl CompressionStats {
    /// `compressed / original` (the paper reports ≈ 0.71 on real RIBs).
    ///
    /// Returns 1.0 for an empty input.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.original == 0 {
            1.0
        } else {
            self.compressed as f64 / self.original as f64
        }
    }
}

/// Runs [`onrtc`] and reports size/time statistics.
#[must_use]
pub fn compress_with_stats(table: &RouteTable) -> (RouteTable, CompressionStats) {
    let start = std::time::Instant::now();
    let out = onrtc(table);
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let stats = CompressionStats {
        original: table.len(),
        compressed: out.len(),
        millis,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_fib::gen::FibGen;

    #[test]
    fn stats_ratio() {
        let s = CompressionStats {
            original: 100,
            compressed: 71,
            millis: 1.0,
        };
        assert!((s.ratio() - 0.71).abs() < 1e-9);
        let empty = CompressionStats {
            original: 0,
            compressed: 0,
            millis: 0.0,
        };
        assert_eq!(empty.ratio(), 1.0);
    }

    #[test]
    fn generator_calibration_hits_paper_ballpark() {
        // The paper reports ONRTC compressing real 2011 RIBs to ~71 % of
        // their original size; the synthetic generator is calibrated to
        // land in that neighbourhood.
        let fib = FibGen::new(42).routes(50_000).generate();
        let (_, stats) = compress_with_stats(&fib);
        assert!(
            (0.55..=0.85).contains(&stats.ratio()),
            "compression ratio {:.3} outside the calibrated band",
            stats.ratio()
        );
    }

    #[test]
    fn compressed_output_is_equivalent_on_samples() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let fib = FibGen::new(7).routes(5_000).generate();
        let out = onrtc(&fib);
        let orig = fib.to_trie();
        let comp = out.to_trie();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20_000 {
            let addr: u32 = rng.random();
            assert_eq!(
                orig.lookup(addr).map(|(_, &nh)| nh),
                comp.lookup(addr).map(|(_, &nh)| nh),
                "divergence at {addr:#x}"
            );
        }
    }
}
