//! The paper's offline experiments: `clue compress`, `partition`,
//! `simulate` and `replay`.

use crate::args::{ArgError, Args};
use crate::{load_fib, load_packets, load_updates, write_text};

use clue::compress::{compress_with_stats, leaf_push, onrtc, ortc};
use clue::core::engine::{Engine, EngineConfig};
use clue::core::update_pipeline::{mean_ttf, ClplPipeline, CluePipeline, TtfSample};
use clue::core::DredConfig;
use clue::fib::io::write_route_table;
use clue::fib::{RouteTable, Update};
use clue::partition::{
    EvenRangePartition, IdBitPartition, Indexer, PartitionStats, SubTreePartition,
};
use clue::traffic::workload::{adversarial_mapping, profile};

pub fn compress(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "algorithm", "out"])?;
    let fib = load_fib(args.required("fib")?)?;
    let algorithm = args.optional("algorithm").unwrap_or("onrtc");
    let (result, label) = match algorithm {
        "onrtc" => {
            let (out, stats) = compress_with_stats(&fib);
            println!(
                "onrtc: {} -> {} entries ({:.2}% of input) in {:.1} ms",
                stats.original,
                stats.compressed,
                stats.ratio() * 100.0,
                stats.millis
            );
            (out, "non-overlapping")
        }
        "leaf-push" => {
            let out = leaf_push(&fib);
            println!(
                "leaf-push: {} -> {} entries ({:.2}% of input)",
                fib.len(),
                out.len(),
                out.len() as f64 / fib.len() as f64 * 100.0
            );
            (out, "leaf-pushed")
        }
        "ortc" => {
            let t = ortc(&fib);
            println!(
                "ortc: {} -> {} entries ({:.2}% of input; {} explicit-miss)",
                fib.len(),
                t.len(),
                t.len() as f64 / fib.len() as f64 * 100.0,
                t.miss_entries()
            );
            // ORTC output may carry miss entries; only forwarding
            // entries can be exported as a plain FIB.
            let forwarding: RouteTable = t
                .entries()
                .iter()
                .filter_map(|&(p, a)| a.map(|nh| clue::fib::Route::new(p, nh)))
                .collect();
            if args.optional("out").is_some() && t.miss_entries() > 0 {
                return Err(ArgError(
                    "ortc output contains explicit-miss entries; it cannot be \
                     exported as a plain FIB (use onrtc instead)"
                        .to_owned(),
                ));
            }
            (forwarding, "ortc")
        }
        other => {
            return Err(ArgError(format!(
                "unknown algorithm {other:?} (onrtc|ortc|leaf-push)"
            )))
        }
    };
    if let Some(out) = args.optional("out") {
        write_text(out, |f| write_route_table(f, &result))?;
        println!("wrote {label} table ({} entries) to {out}", result.len());
    }
    Ok(())
}

pub fn partition(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "scheme", "n"])?;
    let fib = load_fib(args.required("fib")?)?;
    let scheme = args.optional("scheme").unwrap_or("clue");
    let n: usize = args.get_or("n", 4)?;
    if n == 0 {
        return Err(ArgError("--n must be positive".into()));
    }
    let stats = match scheme {
        "clue" => {
            let compressed = onrtc(&fib);
            println!(
                "compressing first: {} -> {} entries",
                fib.len(),
                compressed.len()
            );
            let p = EvenRangePartition::split(&compressed, n);
            PartitionStats::measure(p.buckets(), compressed.len())
        }
        "subtree" => {
            let p = SubTreePartition::split(&fib, fib.len().div_ceil(n));
            PartitionStats::measure(p.buckets(), fib.len())
        }
        "idbit" => {
            let k = n.next_power_of_two().trailing_zeros();
            if 1usize << k != n {
                return Err(ArgError("idbit needs --n to be a power of two".into()));
            }
            let p = IdBitPartition::split(&fib, k, 16);
            PartitionStats::measure(p.buckets(), fib.len())
        }
        other => {
            return Err(ArgError(format!(
                "unknown scheme {other:?} (clue|subtree|idbit)"
            )))
        }
    };
    println!(
        "{scheme}: {} buckets | max {} min {} | total {} | redundancy {} | imbalance {:.3}",
        stats.buckets,
        stats.max,
        stats.min,
        stats.total,
        stats.redundancy,
        stats.imbalance()
    );
    Ok(())
}

pub fn simulate(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "fib",
        "packets",
        "chips",
        "dred",
        "fifo",
        "service",
        "scheme",
        "adversarial",
        "buckets",
    ])?;
    let fib = load_fib(args.required("fib")?)?;
    let trace = load_packets(args.required("packets")?)?;
    let cfg = EngineConfig {
        chips: args.get_or("chips", 4)?,
        fifo_capacity: args.get_or("fifo", 256)?,
        service_clocks: args.get_or("service", 4)?,
        arrival_period: 1,
        update_stall: None,
    };
    let dred: usize = args.get_or("dred", 1024)?;
    let buckets_n: usize = args.get_or("buckets", cfg.chips * 8)?;
    let adversarial: bool = args.get_or("adversarial", false)?;
    let scheme = args.optional("scheme").unwrap_or("clue");

    let compressed = onrtc(&fib);
    println!(
        "compressed {} -> {} entries; {} chips x {} buckets",
        fib.len(),
        compressed.len(),
        cfg.chips,
        buckets_n
    );
    let parts = EvenRangePartition::split(&compressed, buckets_n);
    let (buckets, index) = parts.into_parts();
    let mapping = if adversarial {
        let counts = profile(&trace, buckets_n, |a| index.bucket_of(a));
        adversarial_mapping(&counts, cfg.chips)
    } else {
        (0..buckets_n).map(|b| b * cfg.chips / buckets_n).collect()
    };
    let dred_cfg = match scheme {
        "clue" => DredConfig::Clue {
            capacity: dred,
            exclude_home: true,
        },
        "clpl" => DredConfig::Clpl {
            capacity: dred,
            sram_trie: fib.to_trie(),
        },
        other => return Err(ArgError(format!("unknown scheme {other:?} (clue|clpl)"))),
    };
    let mut engine = Engine::from_buckets(
        &buckets,
        move |a| index.bucket_of(a),
        mapping,
        dred_cfg,
        cfg,
    );
    let (report, _) = engine.run(&trace);
    println!(
        "completed {} of {} ({} dropped) in {} clocks",
        report.completions, report.arrivals, report.drops, report.clocks
    );
    println!(
        "speedup {:.2}x | DRed hit rate {:.2}% | diversions {} | out-of-order {} | reorder depth {}",
        report.speedup(cfg.service_clocks),
        report.scheme.hit_rate() * 100.0,
        report.diversions,
        report.out_of_order,
        report.reorder_high_water,
    );
    println!(
        "per-chip load: {:?}",
        report
            .chip_shares()
            .iter()
            .map(|s| format!("{:.1}%", s * 100.0))
            .collect::<Vec<_>>()
    );
    println!(
        "control-plane interactions: {} | SRAM accesses: {}",
        report.scheme.control_plane_interactions, report.scheme.sram_accesses
    );
    Ok(())
}

pub fn replay(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "fib", "updates", "pipeline", "window", "chips", "dred", "data-dir", "json",
    ])?;
    if let Some(dir) = args.optional("data-dir") {
        return crate::store::replay_journal(dir, args.get_or("json", false)?);
    }
    args.reject(&["json"], |_| {
        "--json applies to --data-dir journal inspection".into()
    })?;
    let fib = load_fib(args.required("fib")?)?;
    let updates = load_updates(args.required("updates")?)?;
    let window: usize = args.get_or("window", 1_000)?;
    if window == 0 {
        return Err(ArgError("--window must be positive".into()));
    }
    let chips: usize = args.get_or("chips", 4)?;
    let dred: usize = args.get_or("dred", 1024)?;
    let pipeline = args.optional("pipeline").unwrap_or("clue");

    println!(
        "replaying {} updates through the {pipeline} pipeline ({} windows)",
        updates.len(),
        updates.len().div_ceil(window)
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "window", "ttf1(us)", "ttf2(us)", "ttf3(us)", "total(us)"
    );
    let mut all: Vec<TtfSample> = Vec::new();
    let mut apply: Box<dyn FnMut(Update) -> TtfSample> = match pipeline {
        "clue" => {
            let mut p = CluePipeline::new(&fib, chips, dred, fib.len());
            Box::new(move |u| p.apply(u))
        }
        "clpl" => {
            let mut p = ClplPipeline::new(&fib, chips, dred, fib.len());
            Box::new(move |u| p.apply(u))
        }
        other => return Err(ArgError(format!("unknown pipeline {other:?} (clue|clpl)"))),
    };
    for (i, chunk) in updates.chunks(window).enumerate() {
        let samples: Vec<TtfSample> = chunk.iter().map(|&u| apply(u)).collect();
        let m = mean_ttf(&samples);
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            i,
            m.ttf1_ns / 1e3,
            m.ttf2_ns / 1e3,
            m.ttf3_ns / 1e3,
            m.total_ns() / 1e3
        );
        all.extend(samples);
    }
    let m = mean_ttf(&all);
    println!(
        "\nmean TTF {:.4} us (trie {:.4} + tcam {:.4} + dred {:.4}) over {} updates",
        m.total_ns() / 1e3,
        m.ttf1_ns / 1e3,
        m.ttf2_ns / 1e3,
        m.ttf3_ns / 1e3,
        all.len()
    );
    Ok(())
}
