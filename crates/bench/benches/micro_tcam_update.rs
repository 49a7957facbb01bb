//! TCAM update cost under the four layout policies: entry moves per
//! update when 200 fresh routes are inserted into and then deleted from
//! a loaded 20 000-route table (the ablation behind Figures 7 and 11;
//! the size is fixed, `CLUE_BENCH_SCALE` does not apply). Moves are
//! counted by the TCAM model, so the table is identical from run to
//! run; the host time of the churn is printed beside it.

use std::time::Instant;

use clue_bench::banner;
use clue_fib::gen::FibGen;
use clue_fib::{Route, RouteTable};
use clue_tcam::{
    load, CaoTcam, FullyOrderedTcam, PrefixLengthOrderedTcam, TcamTable, UnorderedTcam,
};

/// Loads `base`, churns `fresh` through the table and prints its row.
fn row<T: TcamTable>(name: &str, mut table: T, base: &RouteTable, fresh: &[Route]) {
    load(&mut table, base.iter());
    table.reset_stats();
    let start = Instant::now();
    for r in fresh {
        table.insert(*r).expect("capacity covers base + fresh");
    }
    for r in fresh {
        table.delete(r.prefix);
    }
    let host_us = start.elapsed().as_secs_f64() * 1e6;
    let ops = (fresh.len() * 2) as f64;
    let moves = table.stats().moves as f64 / ops;
    println!(
        "{name:<24} {moves:>13.3} {:>16.3} {:>15.3}",
        moves * 24.0 / 1e3,
        host_us / ops
    );
}

fn main() {
    banner(
        "TCAM layouts — entry moves per update (Figures 7 and 11 ablation)",
        "unordered (CLUE) needs at most one move; ordered layouts shift entries per update",
    );
    let base = FibGen::new(5).routes(20_000).generate();
    let fresh: Vec<Route> = FibGen::new(6)
        .routes(20_200)
        .generate()
        .iter()
        .filter(|r| !base.contains(r.prefix))
        .take(200)
        .collect();
    let cap = base.len() + fresh.len() + 64;

    println!(
        "{:<24} {:>13} {:>16} {:>15}",
        "layout", "moves/update", "us at 24ns/move", "host us/update"
    );
    row("unordered (CLUE)", UnorderedTcam::new(cap), &base, &fresh);
    row("chain-ordered (CAO)", CaoTcam::new(cap), &base, &fresh);
    row(
        "length-ordered (CLPL)",
        PrefixLengthOrderedTcam::new(cap),
        &base,
        &fresh,
    );
    row(
        "fully ordered (naive)",
        FullyOrderedTcam::new(cap),
        &base,
        &fresh,
    );
}
