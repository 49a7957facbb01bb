//! Connection scaling: transport × connection count → lookups/sec,
//! lookup latency percentiles, update ack latency, and loss counters
//! (which must be zero) — plus an offered-load × connections sweep
//! where the swarm paces itself to a target aggregate rate and the
//! achieved rate is reported against it. This is the connection-count
//! axis behind ROADMAP 3(a)'s "both transports stay" verdict; the
//! one-connection cost of each transport is the contract's
//! `net.lookup_rtt_us.{threads,evloop}.b64`.
//!
//! The swarm client multiplexes every connection on one reactor and
//! holds all handshakes until the last dial resolves, so a point at N
//! connections really is N simultaneously-established clients. The
//! threaded transport runs up to the highest count it can reasonably
//! sustain (one OS thread per connection); the evloop transport
//! continues into the thousands on the same workload for the headline
//! ratio.

use std::time::Duration;

use clue_bench::{banner, csv_write, scale};
use clue_fib::gen::FibGen;
use clue_fib::RouteTable;
use clue_net::swarm::percentile_us;
use clue_net::{run_swarm, Server, ServerConfig, SwarmConfig, SwarmReport, Transport};
use clue_router::RouterConfig;
use clue_traffic::{PacketGen, UpdateGen};

fn server_cfg(transport: Transport) -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".into(),
        router: RouterConfig {
            workers: 2,
            batch_size: 64,
            ..RouterConfig::default()
        },
        transport,
        ..ServerConfig::default()
    }
}

struct Point {
    transport: Transport,
    connections: usize,
    /// Target offered load in lookups/sec; 0.0 means closed-loop (the
    /// swarm sends as fast as answers come back).
    offered_per_sec: f64,
    report: SwarmReport,
}

impl Point {
    const CSV_HEADER: &'static str = "transport,connections,offered_per_sec,lookups_sent,\
        lookups_per_sec,lookup_p50_us,lookup_p99_us,ack_p50_us,ack_p99_us,update_drops,elapsed_ms";

    fn csv_row(&self) -> String {
        let r = &self.report;
        format!(
            "{},{},{:.1},{},{:.1},{:.1},{:.1},{:.1},{:.1},{},{}",
            self.transport.name(),
            self.connections,
            self.offered_per_sec,
            r.lookups_sent,
            r.lookups_per_sec(),
            percentile_us(&r.lookup_us, 50.0),
            percentile_us(&r.lookup_us, 99.0),
            percentile_us(&r.ack_us, 50.0),
            percentile_us(&r.ack_us, 99.0),
            r.updates_dropped,
            r.elapsed.as_millis(),
        )
    }
}

/// One transport × connection-count × offered-load point: fresh
/// server, full swarm, clean drain. `offered` 0.0 runs closed-loop; a
/// positive target is converted into the per-connection inter-frame
/// gap that offers roughly that many lookups/sec in aggregate. Panics
/// on any lost answer/ack — loss is a correctness failure, not a slow
/// result.
fn point(
    rib: &RouteTable,
    addrs: &[u32],
    updates: &[clue_fib::Update],
    t: Transport,
    n: usize,
    offered: f64,
) -> Point {
    let batch = 16usize;
    let gap = if offered > 0.0 {
        Duration::from_secs_f64((n * batch) as f64 / offered)
    } else {
        Duration::ZERO
    };
    let server = Server::start(rib, &server_cfg(t)).expect("server boots");
    let cfg = SwarmConfig {
        addr: server.local_addr().to_string(),
        connections: n,
        lookup_batch: batch,
        rounds: 4,
        updates_per_conn: 2,
        gap,
    };
    let report = run_swarm(&cfg, addrs, updates).expect("swarm runs");
    assert_eq!(report.connected, n, "{t} at {n}: connect shortfall");
    assert_eq!(report.peak_open, n, "{t} at {n}: not all concurrent");
    assert_eq!(report.errors, 0, "{t} at {n}: errors");
    assert_eq!(report.lost_answers(), 0, "{t} at {n}: lost answers");
    assert_eq!(report.lost_acks(), 0, "{t} at {n}: lost acks");
    server.drain().expect("server drains");
    let load = if offered > 0.0 {
        format!("{offered:>9.0}/s offered")
    } else {
        "closed-loop".to_owned()
    };
    println!(
        "{:>7} x {:>5} conns ({load:>17}): {:>9.0} lookups/s | p50 {:>6.0} us | \
         p99 {:>7.0} us | ack p99 {:>7.0} us | 0 lost",
        t.name(),
        n,
        report.lookups_per_sec(),
        percentile_us(&report.lookup_us, 50.0),
        percentile_us(&report.lookup_us, 99.0),
        percentile_us(&report.ack_us, 99.0),
    );
    Point {
        transport: t,
        connections: n,
        offered_per_sec: offered,
        report,
    }
}

fn main() {
    banner(
        "Connections — transport x connection count -> lookups/s, latency, zero loss",
        "beyond the paper: evloop holds thousands of clients, threads wins per connection",
    );
    let s = scale();
    let routes = ((20_000.0 * s) as usize).max(2_000);
    let rib = FibGen::new(0xC10E_000A).routes(routes).generate();
    let addrs = PacketGen::new(0xC10E_000B).generate(&rib, 8_192);
    let updates = UpdateGen::new(0xC10E_000C).generate(&rib, 4_096);
    let conns = |n: usize| ((n as f64 * s) as usize).max(16);

    // Thread-per-connection tops out on OS-thread cost; run it at the
    // highest count it sustains on CI hardware for a direct comparison.
    let mut threads_ladder = vec![conns(64), conns(256)];
    threads_ladder.dedup();
    // The reactor's ladder continues past the acceptance floor of 5000
    // simultaneously-established clients.
    let mut evloop_ladder = vec![conns(256), conns(1_024), conns(6_000)];
    evloop_ladder.dedup();

    let mut points: Vec<Point> = Vec::new();
    for &n in &threads_ladder {
        points.push(point(&rib, &addrs, &updates, Transport::Threads, n, 0.0));
    }
    for &n in &evloop_ladder {
        points.push(point(&rib, &addrs, &updates, Transport::Evloop, n, 0.0));
    }

    // Offered-load x connections sweep: the same evloop swarm paced to
    // fixed aggregate rates, showing achieved tracking offered while
    // under capacity (and the zero-loss invariant holding throughout).
    let mut sweep_conns = vec![conns(64), conns(256)];
    sweep_conns.dedup();
    let sweep_loads = [(25_000.0 * s).max(500.0), (100_000.0 * s).max(2_000.0)];
    for &n in &sweep_conns {
        for &offered in &sweep_loads {
            points.push(point(&rib, &addrs, &updates, Transport::Evloop, n, offered));
        }
    }

    let threads_max = *threads_ladder.iter().max().expect("nonempty ladder");
    let evloop_max = *evloop_ladder.iter().max().expect("nonempty ladder");
    let rate_at = |t: Transport, n: usize| {
        points
            .iter()
            .find(|p| p.transport == t && p.connections == n && p.offered_per_sec == 0.0)
            .map(|p| p.report.lookups_per_sec())
            .unwrap_or(0.0)
    };
    // Achieved/offered at the heaviest paced point: pacing adds the
    // round trip on top of the gap, so this sits below (but near) 1.0
    // whenever the server is under capacity.
    let paced_ratio = points
        .iter()
        .filter(|p| p.offered_per_sec > 0.0)
        .max_by(|a, b| {
            (a.offered_per_sec * a.connections as f64)
                .total_cmp(&(b.offered_per_sec * b.connections as f64))
        })
        .map(|p| p.report.lookups_per_sec() / p.offered_per_sec)
        .unwrap_or(0.0);
    let shared = conns(256);
    println!(
        "headline: evloop holds {evloop_max} concurrent clients ({:.1}x the threaded \
         ceiling of {threads_max}) with zero lost answers/acks; at {shared} shared \
         connections evloop/threads throughput ratio {:.2}",
        evloop_max as f64 / threads_max as f64,
        rate_at(Transport::Evloop, shared) / rate_at(Transport::Threads, shared).max(1e-9),
    );

    println!(
        "load sweep: heaviest paced point achieved {:.0}% of its offered rate with zero loss",
        paced_ratio * 100.0
    );
    let rows: Vec<String> = points.iter().map(Point::csv_row).collect();
    csv_write("connections", Point::CSV_HEADER, &rows);
}
