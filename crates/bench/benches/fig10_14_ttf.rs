//! Figures 10–14: the TTF decomposition. One update trace is replayed
//! through CLUE's and CLPL's complete pipelines once, and the five
//! figures are five views of the same per-window samples:
//!
//! * Figure 10 — TTF1 (trie): CLUE's ONRTC-incremental trie vs CLPL's
//!   plain trie, the ground truth. Paper: CLUE 0.19–0.36 µs (mean
//!   0.221 µs), a little above ground truth, in the control plane.
//! * Figure 11 — TTF2 (TCAM): CLUE's unordered O(1) layout vs the
//!   prefix-length-ordered layout charged to CLPL. Paper: CLPL
//!   ~0.36 µs (≈15 shifts × 24 ns), CLUE 0.024 µs. Our CLPL model is
//!   slightly more charitable (pure next-hop changes rewrite in place),
//!   so its mean sits below the paper's; the ordering and gap survive.
//! * Figure 12 — TTF3 (DRed): CLUE's data-plane delete-if-present vs
//!   CLPL's control-plane RRC-ME cache repair. Paper: CLPL mean
//!   0.199 µs, 8.3× CLUE's flat 0.024 µs.
//! * Figure 13 — TTF2+TTF3, the part that interrupts lookups. Paper:
//!   CLUE is 4.29 % of CLPL on average.
//! * Figure 14 — total TTF. Paper: CLPL mean 0.666 µs = 234 % of
//!   CLUE's 0.269 µs.
//!
//! TTF1 is wall-clock; TTF2 and TTF3 are operation counts priced by the
//! TCAM timing model, so Figures 11–13 are identical from run to run.

use clue_bench::{banner, csv_write, ttf_series, TtfSeries};
use clue_core::TtfSample;

/// Prints one figure's per-window table (and its CSV) for `component`
/// and returns the per-window means `(clue_ns, clpl_ns)` summed over
/// the windows. `ratio` formats the last column from `(clue, clpl)`.
fn figure(
    series: &TtfSeries,
    title: &str,
    csv: &str,
    component: impl Fn(&TtfSample) -> f64,
    ratio_head: &str,
    mut ratio: impl FnMut(f64, f64) -> String,
) -> (f64, f64) {
    println!("\n{title}");
    println!(
        "{:>7} {:>14} {:>14} {:>12}",
        "window", "CLUE (us)", "CLPL (us)", ratio_head
    );
    let (mut a_sum, mut b_sum) = (0.0, 0.0);
    let mut rows = Vec::new();
    for p in &series.points {
        let (a, b) = (component(&p.clue), component(&p.clpl));
        a_sum += a;
        b_sum += b;
        println!(
            "{:>7} {:>14.4} {:>14.4} {:>12}",
            p.window,
            a / 1e3,
            b / 1e3,
            ratio(a, b)
        );
        rows.push(format!("{},{:.4},{:.4}", p.window, a / 1e3, b / 1e3));
    }
    csv_write(csv, "window,clue_us,clpl_us", &rows);
    (a_sum, b_sum)
}

fn main() {
    banner(
        "Figures 10–14 — TTF1, TTF2, TTF3, TTF2+TTF3 and total TTF per update window",
        "CLUE 0.221 + 0.024 + 0.024 = 0.269 us; CLPL 0.666 us (234%); TTF2+TTF3 is 4.29% of CLPL's",
    );
    let series = ttf_series(12, 2_000);
    let n = series.points.len() as f64;
    let us = |sum: f64| sum / n / 1e3;

    let (a, b) = figure(
        &series,
        "Figure 10 — TTF1 (trie); paper: CLUE mean ~0.221 us, slightly above ground truth",
        "fig10_ttf1",
        |s| s.ttf1_ns,
        "CLUE/CLPL",
        |a, b| format!("{:.2}", a / b.max(1.0)),
    );
    println!(
        "means: CLUE {:.4} us vs CLPL (ground truth) {:.4} us — CLUE pays {:.2}x in the control plane",
        us(a),
        us(b),
        a / b.max(1.0)
    );
    let (min, p50, p99, max, _) = TtfSeries::digest_us(&series.clue_samples, |s| s.ttf1_ns);
    println!("CLUE ttf1 percentiles (us): min {min:.3} p50 {p50:.3} p99 {p99:.3} max {max:.3}");

    let (a, b) = figure(
        &series,
        "Figure 11 — TTF2 (TCAM); paper: CLPL ~0.36 us/update, CLUE 0.024 us (one 24 ns write)",
        "fig11_ttf2",
        |s| s.ttf2_ns,
        "CLPL/CLUE",
        |a, b| format!("{:.2}", b / a.max(1.0)),
    );
    println!(
        "means: CLUE {:.4} us vs CLPL {:.4} us ({:.1}x)",
        us(a),
        us(b),
        b / a.max(1.0)
    );
    let (_, p50, p99, _, _) = TtfSeries::digest_us(&series.clpl_samples, |s| s.ttf2_ns);
    println!("CLPL ttf2 percentiles (us): p50 {p50:.4} p99 {p99:.4}");

    let (a, b) = figure(
        &series,
        "Figure 12 — TTF3 (DRed); paper: CLPL mean ~0.199 us = 8.3x CLUE's 0.024 us",
        "fig12_ttf3",
        |s| s.ttf3_ns,
        "CLPL/CLUE",
        |a, b| format!("{:.2}", b / a.max(1.0)),
    );
    println!(
        "means: CLUE {:.4} us vs CLPL {:.4} us ({:.1}x; paper 8.3x)",
        us(a),
        us(b),
        b / a.max(1.0)
    );
    let (_, p50, p99, _, _) = TtfSeries::digest_us(&series.clpl_samples, |s| s.ttf3_ns);
    println!("CLPL ttf3 percentiles (us): p50 {p50:.4} p99 {p99:.4}");

    let mut best: f64 = 1.0;
    let (a, b) = figure(
        &series,
        "Figure 13 — TTF2+TTF3 (lookup-interrupting); paper: CLUE = 4.29% of CLPL on average",
        "fig13_ttf23",
        |s| s.ttf2_ns + s.ttf3_ns,
        "CLUE/CLPL",
        |a, b| {
            best = best.min(a / b.max(1.0));
            format!("{:.2}%", a / b.max(1.0) * 100.0)
        },
    );
    println!(
        "mean: CLUE is {:.2}% of CLPL (paper 4.29%); best window {:.2}%",
        a / b.max(1.0) * 100.0,
        best * 100.0
    );

    let (a, b) = figure(
        &series,
        "Figure 14 — total TTF; paper: CLPL mean 0.666 us = 234% of CLUE's 0.269 us",
        "fig14_ttf_total",
        TtfSample::total_ns,
        "CLPL/CLUE",
        |a, b| format!("{:.0}%", b / a.max(1.0) * 100.0),
    );
    println!(
        "means: CLUE {:.4} us, CLPL {:.4} us — CLPL is {:.0}% of CLUE (paper 234%)",
        us(a),
        us(b),
        b / a.max(1.0) * 100.0
    );
}
