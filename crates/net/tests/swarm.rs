//! The connection swarm against the evloop server: hundreds of
//! simultaneously-established clients from one reactor, every lookup
//! answered, every update frame acked.

use std::time::Duration;

use clue_fib::gen::FibGen;
use clue_net::{run_swarm, Server, ServerConfig, SwarmConfig, Transport};
use clue_router::RouterConfig;
use clue_traffic::UpdateGen;

fn server_cfg(transport: Transport) -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".into(),
        router: RouterConfig {
            workers: 2,
            batch_size: 16,
            ..RouterConfig::default()
        },
        transport,
        ..ServerConfig::default()
    }
}

#[test]
fn swarm_holds_every_connection_open_before_traffic_starts() {
    let table = FibGen::new(41).routes(400).generate();
    let updates = UpdateGen::new(42).generate(&table, 256);
    let addrs: Vec<u32> = table.iter().map(|r| r.prefix.low()).collect();

    let server = Server::start(&table, &server_cfg(Transport::Evloop)).unwrap();
    let cfg = SwarmConfig {
        addr: server.local_addr().to_string(),
        connections: 150,
        lookup_batch: 8,
        rounds: 3,
        updates_per_conn: 4,
        ..SwarmConfig::default()
    };
    let report = run_swarm(&cfg, &addrs, &updates).unwrap();

    assert_eq!(report.dial_failures, 0);
    assert_eq!(report.connected, 150);
    // The swarm holds every handshake until the last dial resolves, so
    // the peak really is all connections at once.
    assert_eq!(report.peak_open, 150);
    assert_eq!(report.errors, 0);
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.lost_answers(), 0);
    assert_eq!(report.lookups_sent, 150 * 3 * 8);
    assert_eq!(report.lost_acks(), 0);
    assert_eq!(report.updates_accepted, 150 * 4);
    assert_eq!(report.updates_dropped, 0);
    assert_eq!(report.lookup_us.len(), 150 * 3);
    assert_eq!(report.ack_us.len(), 150);

    let sreport = server.drain().unwrap();
    assert_eq!(
        sreport.snapshot.updates_received,
        150 * 4,
        "server ingress disagrees with swarm acks"
    );
}

#[test]
fn paced_swarm_throttles_offered_load_without_losing_frames() {
    let table = FibGen::new(47).routes(300).generate();
    let addrs: Vec<u32> = table.iter().map(|r| r.prefix.low()).collect();

    let server = Server::start(&table, &server_cfg(Transport::Evloop)).unwrap();
    let base = SwarmConfig {
        addr: server.local_addr().to_string(),
        connections: 32,
        lookup_batch: 8,
        rounds: 6,
        updates_per_conn: 0,
        ..SwarmConfig::default()
    };
    let blast = run_swarm(&base, &addrs, &[]).unwrap();
    let paced_cfg = SwarmConfig {
        gap: Duration::from_millis(20),
        ..base
    };
    let paced = run_swarm(&paced_cfg, &addrs, &[]).unwrap();
    server.drain().unwrap();

    for r in [&blast, &paced] {
        assert_eq!(r.connected, 32);
        assert_eq!(r.errors, 0);
        assert_eq!(r.unfinished, 0);
        assert_eq!(r.lost_answers(), 0);
        assert_eq!(r.lookups_sent, 32 * 6 * 8);
    }
    // Five 20ms gaps per connection put a floor under the paced run's
    // wall clock that the closed-loop blast comes nowhere near.
    assert!(
        paced.elapsed >= Duration::from_millis(100),
        "pacing did not slow the run: {:?}",
        paced.elapsed
    );
    assert!(
        paced.lookups_per_sec() < blast.lookups_per_sec(),
        "paced rate {:.0}/s not below closed-loop {:.0}/s",
        paced.lookups_per_sec(),
        blast.lookups_per_sec()
    );
}

#[test]
fn swarm_against_threaded_server_is_transport_agnostic() {
    let table = FibGen::new(43).routes(200).generate();
    let addrs: Vec<u32> = table.iter().map(|r| r.prefix.low()).collect();

    let server = Server::start(&table, &server_cfg(Transport::Threads)).unwrap();
    let cfg = SwarmConfig {
        addr: server.local_addr().to_string(),
        connections: 24,
        lookup_batch: 16,
        rounds: 2,
        updates_per_conn: 0,
        ..SwarmConfig::default()
    };
    let report = run_swarm(&cfg, &addrs, &[]).unwrap();

    assert_eq!(report.connected, 24);
    assert_eq!(report.errors, 0);
    assert_eq!(report.lost_answers(), 0);
    assert_eq!(report.lookups_sent, 24 * 2 * 16);
    server.drain().unwrap();
}
