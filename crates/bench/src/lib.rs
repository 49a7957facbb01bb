//! Shared plumbing for the paper-reproduction harnesses.
//!
//! Every `benches/*.rs` binary regenerates one table, figure or
//! ablation of the paper (workload, parameter sweep, baselines, and the
//! printed rows/series); `connections` and `tiles` sweep two scale axes
//! beyond it. The helpers here keep the datasets and the one output
//! format consistent: [`banner`], printed rows, and [`csv_write`] when
//! `CLUE_BENCH_CSV` names a directory. System performance is not
//! measured here — that is `benchmark/` and `BENCHMARK.json`.
//!
//! Set `CLUE_BENCH_SCALE` (default `1.0`) to shrink the synthetic RIBs
//! for quick runs, e.g. `CLUE_BENCH_SCALE=0.1 cargo bench --bench
//! fig08_compression`.

#![warn(missing_docs)]

use clue_compress::onrtc;
use clue_fib::gen::FibGen;
use clue_fib::RouteTable;

/// Scale factor for dataset sizes, from `CLUE_BENCH_SCALE`.
#[must_use]
pub fn scale() -> f64 {
    std::env::var("CLUE_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0)
}

/// The standard single-router dataset most figures use (the paper uses
/// rrc01): a synthetic RIB around 390 K routes at scale 1.
#[must_use]
pub fn standard_rib() -> RouteTable {
    let routes = (390_000.0 * scale()) as usize;
    FibGen::new(0xC10E_0001)
        .routes(routes.max(1_000))
        .generate()
}

/// The compressed (ONRTC) form of [`standard_rib`].
#[must_use]
pub fn standard_compressed() -> RouteTable {
    onrtc(&standard_rib())
}

/// One point of the TTF time series: window index plus the mean TTF of
/// CLUE and CLPL over that window.
pub struct TtfPoint {
    /// Window number (x-axis of Figures 10–14).
    pub window: usize,
    /// CLUE's mean TTF over the window.
    pub clue: clue_core::TtfSample,
    /// CLPL's mean TTF over the window.
    pub clpl: clue_core::TtfSample,
}

/// Full output of the shared TTF experiment: per-window means plus the
/// raw per-update samples for percentile digests.
pub struct TtfSeries {
    /// Per-window means (the plotted series).
    pub points: Vec<TtfPoint>,
    /// Every CLUE sample, in trace order.
    pub clue_samples: Vec<clue_core::TtfSample>,
    /// Every CLPL sample, in trace order.
    pub clpl_samples: Vec<clue_core::TtfSample>,
}

impl TtfSeries {
    /// `(min, p50, p99, max, mean)` in microseconds of a component over
    /// one system's samples.
    pub fn digest_us(
        samples: &[clue_core::TtfSample],
        component: impl Fn(&clue_core::TtfSample) -> f64,
    ) -> (f64, f64, f64, f64, f64) {
        let mut s = clue_core::metrics::Summary::new();
        for x in samples {
            s.record(component(x) / 1e3);
        }
        s.digest()
    }
}

/// Runs the shared TTF experiment behind Figures 10–14: one update
/// trace replayed through both complete pipelines, averaged per arrival
/// window.
#[must_use]
pub fn ttf_series(windows: usize, per_window: usize) -> TtfSeries {
    use clue_core::{mean_ttf, ClplPipeline, CluePipeline};
    use clue_traffic::{PacketGen, UpdateGen};

    let rib = standard_rib();
    let updates = UpdateGen::new(0xBEEF).generate(&rib, windows * per_window);
    let warm = PacketGen::new(0xCAFE).generate(&rib, 50_000);

    let mut clue = CluePipeline::new(&rib, 4, 1024, rib.len());
    let mut clpl = ClplPipeline::new(&rib, 4, 1024, rib.len());
    clue.warm(&warm);
    clpl.warm(&warm);

    let mut series = TtfSeries {
        points: Vec::new(),
        clue_samples: Vec::new(),
        clpl_samples: Vec::new(),
    };
    for (window, chunk) in updates.chunks(per_window).enumerate() {
        let a: Vec<_> = chunk.iter().map(|&u| clue.apply(u)).collect();
        let b: Vec<_> = chunk.iter().map(|&u| clpl.apply(u)).collect();
        series.points.push(TtfPoint {
            window,
            clue: mean_ttf(&a),
            clpl: mean_ttf(&b),
        });
        series.clue_samples.extend(a);
        series.clpl_samples.extend(b);
    }
    series
}

/// Writes a CSV artifact when `CLUE_BENCH_CSV` names a directory
/// (silently does nothing otherwise). Each row is already comma-joined.
pub fn csv_write(name: &str, header: &str, rows: &[String]) {
    let Ok(dir) = std::env::var("CLUE_BENCH_CSV") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    let mut text = String::with_capacity(rows.len() * 32 + header.len() + 1);
    text.push_str(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    match std::fs::write(&path, text) {
        Ok(()) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("(csv write to {} failed: {e})", path.display()),
    }
}

/// The adversarial lookup experiment shared by Table II and Figures
/// 15–17: an ONRTC table split into even partitions, a Zipf trace
/// profiled over them, and the hottest partitions stacked onto chip 0.
pub struct Adversarial {
    /// The compressed table.
    pub table: RouteTable,
    /// The even-range buckets.
    pub buckets: Vec<Vec<clue_fib::Route>>,
    /// The range index (Indexing Logic).
    pub index: clue_partition::RangeIndex,
    /// Adversarial bucket→chip mapping.
    pub mapping: Vec<usize>,
    /// Per-bucket traffic counts from the profiling pass.
    pub counts: Vec<u64>,
    /// The packet trace.
    pub trace: Vec<u32>,
}

/// Builds the adversarial experiment with `buckets_n` partitions over
/// `chips` chips and a `packets`-long Zipf trace.
#[must_use]
pub fn adversarial(buckets_n: usize, chips: usize, packets: usize) -> Adversarial {
    use clue_partition::Indexer;

    let table = standard_compressed();
    let parts = clue_partition::EvenRangePartition::split(&table, buckets_n);
    let (buckets, index) = parts.into_parts();
    let trace = clue_traffic::PacketGen::new(0xF00D)
        .zipf_exponent(1.25)
        .generate(&table, packets);
    let counts = clue_traffic::workload::profile(&trace, buckets_n, |a| index.bucket_of(a));
    let mapping = clue_traffic::workload::adversarial_mapping(&counts, chips);
    Adversarial {
        table,
        buckets,
        index,
        mapping,
        counts,
        trace,
    }
}

impl Adversarial {
    /// Builds an engine over this setup with the given redundancy
    /// scheme.
    #[must_use]
    pub fn engine(
        &self,
        dred: clue_core::DredConfig,
        cfg: clue_core::EngineConfig,
    ) -> clue_core::Engine {
        use clue_partition::Indexer;
        let index = self.index.clone();
        clue_core::Engine::from_buckets(
            &self.buckets,
            move |a| index.bucket_of(a),
            self.mapping.clone(),
            dred,
            cfg,
        )
    }
}

/// Prints the harness banner.
pub fn banner(figure: &str, paper_says: &str) {
    println!("==================================================================");
    println!("{figure}");
    println!("paper: {paper_says}");
    println!("scale: {} (set CLUE_BENCH_SCALE to adjust)", scale());
    println!("==================================================================");
}

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // The env var is not set under `cargo test`.
        if std::env::var("CLUE_BENCH_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.7788), "77.88%");
    }
}
