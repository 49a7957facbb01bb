//! Table II: workload on 32 even partitions mapped adversarially onto
//! 4 TCAM chips.
//!
//! Paper result: per-partition traffic varies wildly (21.92 % down to
//! 0.00 %); sorting the 32 partitions by load and mapping consecutive
//! groups of 8 to chips gives per-chip shares of 77.88 / 17.43 / 4.54 /
//! 0.16 %.

use std::net::Ipv4Addr;

use clue_bench::{adversarial, banner, pct};
use clue_traffic::workload::{chip_shares, shares};

fn main() {
    banner(
        "Table II — per-partition and per-chip workload (adversarial)",
        "chip shares ~77.88 / 17.43 / 4.54 / 0.16 %",
    );
    let setup = adversarial(32, 4, 2_000_000);
    let bucket_shares = shares(&setup.counts);

    // Rows sorted by share, grouped 8 per chip like the paper's table.
    let mut order: Vec<usize> = (0..32).collect();
    order.sort_by(|&a, &b| setup.counts[b].cmp(&setup.counts[a]));

    println!(
        "{:>5} {:>8} {:<18} {:<18} {:>10}",
        "chip", "bucket", "range low", "range high", "share"
    );
    for (rank, &b) in order.iter().enumerate() {
        let chip = rank / 8 + 1;
        let (low, high) = match (setup.buckets[b].first(), setup.buckets[b].last()) {
            (Some(f), Some(l)) => (f.prefix.low(), l.prefix.high()),
            _ => (0, 0),
        };
        // Print the three hottest buckets of each chip plus an ellipsis,
        // mirroring the paper's elided table.
        if rank % 8 < 3 {
            println!(
                "{:>5} {:>8} {:<18} {:<18} {:>10}",
                chip,
                b,
                Ipv4Addr::from(low),
                Ipv4Addr::from(high),
                pct(bucket_shares[b])
            );
        } else if rank % 8 == 3 {
            println!(
                "{:>5} {:>8} {:^18} {:^18} {:>10}",
                chip, "...", "...", "...", "..."
            );
        }
    }

    let cs = chip_shares(&setup.counts, &setup.mapping, 4);
    println!("\nper-chip shares (paper: 77.88 / 17.43 / 4.54 / 0.16):");
    for (i, s) in cs.iter().enumerate() {
        println!("  TCAM {}: {}", i + 1, pct(*s));
    }
    assert!(cs[0] > cs[1] && cs[1] > cs[2] && cs[2] >= cs[3]);
}
