//! The five named workloads and the code that runs one of them.
//!
//! Every workload puts reads, writes and memory on the same 390 K-route
//! table, so each reports every end-to-end metric: what differs is the
//! deployment it drives, the address stream, and where its window goes.
//! A workload is a sequence of up to four phases over one deployment —
//! `read64` (closed loop, `C` clients, 64 addresses per request),
//! `read1` (one client, one address per request), `mixed` (one reader
//! beside one paced writer) and `storm` (one writer flat out) — always
//! in that order, because the read phases are checked against the
//! original table and the write phases change it.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use clue_core::metrics::Histogram;
use clue_router::StatsSnapshot;

use crate::inputs::{Inputs, Marker, Mix};
use crate::phases::{self, Ctx, MixedPlan, ReadOut, Tally};
use crate::stack::{Client, Stack, StackKind};
use crate::stats;
use crate::trace::Tracer;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub stack: StackKind,
    pub mix: Mix,
    /// Shares of the window given to `read64`, `read1`, `mixed`, `storm`.
    /// With no `read64` share the lookup metrics come from the reader of
    /// the mixed phase: reads *beside* writes.
    pub shares: [f64; 4],
}

/// Open-loop schedule of every mixed phase: 16 trace updates (plus one
/// marker) per frame, one frame every 80 ms = 200 updates/s. Each frame
/// becomes one batch and one epoch publish, which costs about 40 ms on
/// the default backend at this table size, so the update thread is
/// about half busy — the paper's "updates are rare" premise — and
/// freshness measures the pipeline (batch wait + journal + apply +
/// publish), not a backlog. At 40 ms the durable server already queues.
pub const FRAME_UPDATES: usize = 16;
pub const FRAME_PERIOD: Duration = Duration::from_millis(80);

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "lookup-direct",
        why: "RouterService called in-process on uniform addresses: the only workload where \
              clue-router and the clue-core plane do all the work and the plane misses cache.",
        stack: StackKind::Direct,
        mix: Mix::Uniform,
        shares: [0.50, 0.10, 0.25, 0.15],
    },
    WorkloadDef {
        name: "lookup-wire",
        why: "Default Server over loopback on Zipf addresses: framing, syscalls and thread hops \
              dominate and the plane is cache-hot, so transport work shows here, not on direct.",
        stack: StackKind::Wire,
        mix: Mix::Zipf,
        shares: [0.50, 0.10, 0.25, 0.15],
    },
    WorkloadDef {
        name: "update-storm",
        why: "Durable server (fsync per append) fed update frames flat out, timed to visibility: \
              coalesce, journal, trie, TCAM, DRed flush and epoch publish; lookups must not move it.",
        stack: StackKind::Durable,
        mix: Mix::Zipf,
        shares: [0.35, 0.05, 0.20, 0.40],
    },
    WorkloadDef {
        name: "mixed-serve",
        why: "Durable server with lookups beside paced updates (200/s, update thread half busy): a \
              read gain bought with a costlier publish shows as fresh/ack against lookup_rate.",
        stack: StackKind::Durable,
        mix: Mix::Zipf,
        shares: [0.0, 0.10, 0.70, 0.20],
    },
    WorkloadDef {
        name: "cluster-fanout",
        why: "Two shard primaries with warm standbys behind the proxy, uniform addresses so every \
              batch spans both shards: the only workload crossing clue-cluster and replicated acks.",
        stack: StackKind::Cluster,
        mix: Mix::Uniform,
        shares: [0.0, 0.10, 0.70, 0.20],
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The bounded end-to-end metrics, in the order they are reported
/// (the tests hold `BENCHMARK.json` and `run` to this list).
#[cfg(test)]
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "lookup_rate",
    "lookup_p50_us",
    "plane_bytes_per_route",
    "peak_rss_mb",
];

/// Discarded at the head of every read and mixed phase: connection
/// threads start, plane pages are touched, the journal file exists.
/// Half a second, less for a smoke run's short window.
fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 8.0).min(0.5))
}
/// Cold constructions timed for `setup_s` (the median is reported).
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    /// `None`: not measurable in this run (reported as `null`).
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Samples behind a timing (0 for counts and ratios).
    pub samples: u64,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        samples: u64,
    ) -> Metric {
        Metric {
            name: name.into(),
            value: value.filter(|v| v.is_finite()),
            unit,
            samples,
        }
    }
}

pub struct WorkloadResult {
    /// The bounded metrics (`END_TO_END`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics that come from running the workload itself:
    /// the serving metrics too unsteady to bound (`serve.*`), router
    /// statistics, frame counts, generator lateness.
    pub layers: Vec<Metric>,
    pub tally: Tally,
    pub table_ok: bool,
    pub conserved: bool,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.table_ok && self.conserved
    }
}

/// Load threads and connections: one process generates the load, so it
/// never uses more than two cores' worth.
pub fn load_clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn secs(share: f64, seconds: f64) -> Duration {
    Duration::from_secs_f64(share * seconds)
}

/// Boots the stack and answers one lookup: RIB in memory → first
/// answered lookup.
fn construct(def: &WorkloadDef, inputs: &Inputs, scratch: &Path) -> io::Result<(Stack, f64)> {
    let t = Instant::now();
    let stack = Stack::boot(def.stack, &inputs.rib, scratch)?;
    let mut client = stack.client()?;
    let addr = inputs.stream(def.mix)[0];
    let got = client.lookup(&[addr])?;
    let setup_s = t.elapsed().as_secs_f64();
    if phases::wrong_answers(&inputs.reference, &[addr], &got) != 0 {
        return Err(io::Error::other(
            "first lookup after set-up answered wrongly",
        ));
    }
    client.close()?;
    Ok((stack, setup_s))
}

/// Runs one workload for `seconds` and returns its metrics.
///
/// The untraced run (`tracer` disabled) times `SETUPS` cold
/// constructions and gives the end-to-end numbers. The traced run
/// constructs once, measures what tracing costs on a pair of short read
/// slices, and then runs the same phases with spans recorded.
pub fn run(
    def: &WorkloadDef,
    inputs: &Inputs,
    seconds: f64,
    tracer: &Tracer,
    scratch: &Path,
) -> io::Result<WorkloadResult> {
    let traced = tracer.enabled();
    let warm = warm_up(seconds);
    let workload_span = tracer.reserve();
    let t_start = Instant::now();
    let stream = inputs.stream(def.mix);

    let (mut stack, first) = construct(def, inputs, scratch)?;
    let mut setups = vec![first];
    while !traced && setups.len() < SETUPS {
        stack.shutdown(&inputs.rib)?;
        let (next, setup_s) = construct(def, inputs, scratch)?;
        setups.push(setup_s);
        stack = next;
    }
    let plane_bytes = stack.plane_heap_bytes();

    // Two lines always (the mixed phase needs a reader and a writer);
    // the closed-loop read phases use the first `C` of them.
    let mut clients: Vec<Box<dyn Client>> =
        (0..2).map(|_| stack.client()).collect::<io::Result<_>>()?;
    let readers = load_clients();
    let ctx = Ctx {
        reference: &inputs.reference,
        tracer,
        parent: workload_span,
    };
    let mut tally = Tally::default();

    // What tracing costs: the same closed loop, spans off then on.
    let mut overhead_share = None;
    if traced {
        let off = Tracer::new(false);
        let slice = Duration::from_secs_f64((seconds / 8.0).clamp(0.3, 2.0));
        let base = phases::read_phase(
            &mut clients[..readers],
            stream,
            64,
            warm,
            slice,
            &Ctx {
                tracer: &off,
                ..ctx
            },
            "phase.control",
        );
        let with = phases::read_phase(
            &mut clients[..readers],
            stream,
            64,
            warm,
            slice,
            &ctx,
            "phase.control",
        );
        tally.add(base.tally);
        tally.add(with.tally);
        overhead_share = Some(1.0 - with.rate() / base.rate());
    }

    let [s_read64, s_read1, s_mixed, s_storm] = def.shares;
    let mut read64 = ReadOut::default();
    if s_read64 > 0.0 {
        read64 = phases::read_phase(
            &mut clients[..readers],
            stream,
            64,
            warm,
            secs(s_read64, seconds),
            &ctx,
            "phase.read64",
        );
        tally.add(read64.tally);
    }
    let read1 = phases::read_phase(
        &mut clients[..1],
        stream,
        1,
        warm,
        secs(s_read1, seconds),
        &ctx,
        "phase.read1",
    );
    tally.add(read1.tally);

    let mut expected = inputs.rib.clone();
    let (reader, writer) = clients.split_at_mut(1);
    let writer = writer[0].as_mut();

    let mixed_window = secs(s_mixed, seconds);
    let mixed = phases::mixed_phase(
        reader[0].as_mut(),
        writer,
        stream,
        &inputs.updates,
        MixedPlan {
            frame_updates: FRAME_UPDATES,
            period: FRAME_PERIOD,
            batch: 64,
            first_marker: 0,
        },
        warm,
        mixed_window,
        &ctx,
    );
    tally.add(mixed.tally);
    for &u in &mixed.sent {
        expected.apply(u);
    }

    let storm = phases::storm_phase(
        writer,
        &inputs.updates[mixed.trace_used..],
        32,
        secs(s_storm, seconds),
        Marker::nth((1 << 24) - 1),
        &ctx,
    );
    tally.add(storm.tally);
    for &u in &storm.sent {
        expected.apply(u);
    }
    if storm.exhausted {
        eprintln!(
            "note: update trace exhausted after {} updates; raise inputs::UPDATES_PER_WINDOW_S",
            storm.updates
        );
    }

    let frames_in = stack.frames_in();
    let mut accepted = 0;
    let mut dropped = 0;
    for c in clients {
        let (a, d) = c.close()?;
        accepted += a;
        dropped += d;
    }
    // An update the system acknowledged as dropped, or never counted as
    // accepted, is a failed operation.
    let sent = (mixed.sent.len() + storm.sent.len()) as u64;
    tally.failed += dropped + sent.saturating_sub(accepted + dropped);
    let drained = stack.shutdown(&expected)?;
    tracer
        .local()
        .record_as(workload_span, "workload", 0, 0, t_start, Instant::now());

    // Lookup metrics: the pure read phase where the workload has one,
    // otherwise the reader that ran beside the writer.
    let lookups = if s_read64 > 0.0 { &read64 } else { &mixed.read };
    let lat64 = lookups.latencies_sorted();
    let lat1 = read1.latencies_sorted();
    let mut ack = mixed.ack_us.clone();
    stats::sort(&mut ack);
    let mut fresh = mixed.fresh_ms.clone();
    stats::sort(&mut fresh);
    let n = |v: &[f64]| v.len() as u64;

    let end_to_end = vec![
        Metric::new("setup_s", stats::median(&setups), "s", n(&setups)),
        Metric::new("lookup_rate", Some(lookups.median_rate()), "1/s", n(&lat64)),
        Metric::new(
            "lookup_p50_us",
            stats::percentile(&lat64, 0.5),
            "us",
            n(&lat64),
        ),
        Metric::new(
            "plane_bytes_per_route",
            plane_bytes.map(|b| b as f64 / inputs.rib.len() as f64),
            "B",
            0,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 0),
    ];

    // Measured by every run, bounded by none: see "Demoted" in the README.
    let (tail_q, tail_ms) = stats::supported_tail(&fresh).unzip();
    let mut layers = vec![
        Metric::new(
            "serve.lookup_p99_us",
            stats::sliced_p99(&lookups.samples, lookups.window_s, 5),
            "us",
            n(&lat64),
        ),
        Metric::new(
            "serve.lookup1_p50_us",
            stats::percentile(&lat1, 0.5),
            "us",
            n(&lat1),
        ),
        Metric::new(
            "serve.update_rate",
            Some(storm.updates as f64 / storm.elapsed_s),
            "1/s",
            storm.updates,
        ),
        Metric::new(
            "serve.ack_p50_us",
            stats::percentile(&ack, 0.5),
            "us",
            n(&ack),
        ),
        Metric::new(
            "serve.fresh_p50_ms",
            stats::percentile(&fresh, 0.5),
            "ms",
            n(&fresh),
        ),
        Metric::new(
            "serve.fresh_p95_ms",
            stats::percentile(&fresh, 0.95),
            "ms",
            n(&fresh),
        ),
        // The highest freshness percentile this run's sample supports
        // (at least ten samples beyond it), and which one that is.
        Metric::new("serve.fresh_tail_ms", tail_ms, "ms", n(&fresh)),
        Metric::new("serve.fresh_tail_q", tail_q, "ratio", n(&fresh)),
        Metric::new("net.frames_in", Some(frames_in as f64), "count", 0),
        Metric::new(
            "gen.late_share",
            (mixed.frames > 0).then(|| mixed.late as f64 / mixed.frames as f64),
            "ratio",
            mixed.frames,
        ),
        Metric::new("trace.overhead_share", overhead_share, "ratio", 0),
    ];
    layers.extend(router_layers(&drained.snapshots));

    Ok(WorkloadResult {
        end_to_end,
        layers,
        tally,
        table_ok: drained.table_ok,
        conserved: drained.conserved,
    })
}

/// The router's own statistics after the workload, summed over nodes.
fn router_layers(snapshots: &[StatsSnapshot]) -> Vec<Metric> {
    let sum = |f: fn(&StatsSnapshot) -> u64| snapshots.iter().map(f).sum::<u64>() as f64;
    let merged = |f: fn(&StatsSnapshot) -> &Histogram| {
        let mut h = Histogram::new();
        for s in snapshots {
            h.merge(f(s));
        }
        h
    };
    let ratio = |num: f64, den: f64| (den > 0.0).then(|| num / den);
    let p50 = |h: &Histogram| (h.count() > 0).then(|| h.quantile(0.5) as f64);
    let epochs = sum(|s| s.epochs);
    let batches = sum(|s| s.batches);
    let received = sum(|s| s.updates_received);
    let arrivals = sum(|s| s.arrivals);
    let diversions = sum(|s| s.diversions);
    let hits = sum(|s| s.dred_hits);
    let misses = sum(|s| s.dred_misses);
    let lookup_ns = merged(|s| &s.lookup_ns);
    let queue_depth = merged(|s| &s.queue_depth);
    let ttf_batch = merged(|s| &s.ttf_batch_ns);
    vec![
        Metric::new("router.epochs", Some(epochs), "count", 0),
        Metric::new("router.batches", Some(batches), "count", 0),
        Metric::new("router.batch_fill", ratio(received, batches), "count", 0),
        Metric::new(
            "router.diversion_share",
            ratio(diversions, arrivals),
            "ratio",
            0,
        ),
        // 0 when nothing was diverted.
        Metric::new(
            "router.dred_hit_share",
            Some(ratio(hits, hits + misses).unwrap_or(0.0)),
            "ratio",
            0,
        ),
        Metric::new(
            "router.queue_depth_p50",
            p50(&queue_depth),
            "count",
            queue_depth.count(),
        ),
        Metric::new(
            "router.lookup_ns_p50",
            p50(&lookup_ns),
            "ns",
            lookup_ns.count(),
        ),
        Metric::new(
            "router.ttf_batch_us_p50",
            p50(&ttf_batch).map(|ns| ns / 1e3),
            "us",
            ttf_batch.count(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole path on a small table: set-up, all four phases, drain,
    /// final-table and conservation checks, every end-to-end metric.
    #[test]
    fn a_small_direct_run_is_correct_and_reports_every_metric() {
        let inputs = Inputs::generate_scaled(3, 3_000, 16_384, 20_000);
        let tracer = Tracer::new(false);
        let def = find("lookup-direct").unwrap();
        let result = run(def, &inputs, 2.0, &tracer, &std::env::temp_dir()).unwrap();
        assert!(result.table_ok, "final table equals sequential replay");
        assert!(result.conserved, "arrivals == completions");
        assert_eq!(result.tally.failed, 0);
        assert!(result.correct());
        let names: Vec<&str> = result.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END);
        for m in &result.end_to_end {
            assert!(
                m.value.is_some_and(|v| v > 0.0),
                "{} = {:?}",
                m.name,
                m.value
            );
        }
        let layer = |name: &str| result.layers.iter().find(|m| m.name == name).unwrap().value;
        for name in [
            "serve.update_rate",
            "serve.ack_p50_us",
            "serve.fresh_p50_ms",
            "router.epochs",
        ] {
            assert!(layer(name).is_some_and(|v| v > 0.0), "{name}");
        }
        // Seven markers in a 0.5 s mixed phase: the supported "tail" is
        // the median.
        assert_eq!(layer("serve.fresh_tail_q"), Some(0.5));
    }
}
