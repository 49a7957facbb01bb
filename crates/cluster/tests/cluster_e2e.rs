//! The whole cluster end to end: a proxy fanning a real client's
//! lookups and updates across sharded primaries, each with a warm
//! standby, surviving a primary death mid-burst with zero lost acks
//! and a final state bit-identical to the flat single-node oracle.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use clue_cluster::{
    Primary, PrimaryConfig, Proxy, ProxyConfig, ReplConfig, ShardMap, ShardSpec, Standby,
    StandbyConfig,
};
use clue_fib::gen::FibGen;
use clue_fib::{RouteTable, Update};
use clue_net::{ClientConfig, Connection, Transport};
use clue_store::StoreConfig;
use clue_traffic::UpdateGen;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clue-e2e-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn oracle(fib: &RouteTable, trace: &[Update]) -> RouteTable {
    let mut t = fib.clone();
    for &u in trace {
        t.apply(u);
    }
    t
}

struct Cluster {
    dirs: Vec<PathBuf>,
    primaries: Vec<Option<Primary>>,
    standbys: Vec<Standby>,
    proxy: Proxy,
    map: ShardMap,
}

/// Boots `n` shard primaries (each seeded with its own slice of `fib`),
/// one standby per shard, and a proxy over the lot.
fn boot(name: &str, fib: &RouteTable, n: usize, transport: Transport) -> Cluster {
    // Derive cuts against placeholder endpoints first: the real ones
    // only exist once the servers are up.
    let placeholder = ShardMap::derive(fib, vec![ShardSpec::primary_only("x:0"); n]).unwrap();

    let pcfg = PrimaryConfig {
        store: StoreConfig {
            fsync: false,
            snapshot_every: 16,
        },
        repl: ReplConfig::default(),
        sync_timeout: Duration::from_secs(5),
        ..PrimaryConfig::default()
    };
    let mut dirs = Vec::new();
    let mut primaries = Vec::new();
    let mut standbys = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let dir = temp_dir(&format!("{name}-{i}"));
        let shard_fib = placeholder.filter_table(fib, i);
        let primary = Primary::start(&dir, Some(&shard_fib), &pcfg).unwrap();
        let standby = Standby::start(StandbyConfig {
            primary_repl: primary.repl_addr().to_string(),
            reconnect_backoff: Duration::from_millis(20),
            ..StandbyConfig::default()
        })
        .unwrap();
        specs.push(ShardSpec::with_standby(
            primary.local_addr().to_string(),
            standby.local_addr().to_string(),
        ));
        dirs.push(dir);
        primaries.push(Some(primary));
        standbys.push(standby);
    }
    let map = ShardMap::from_cuts(placeholder.cuts().to_vec(), specs).unwrap();

    // Wait for every standby to enter its primary's synchronous set so
    // acks mean replicated from the first update on.
    let deadline = Instant::now() + Duration::from_secs(10);
    for p in primaries.iter().flatten() {
        while p.repl_stats().synced != 1 {
            assert!(Instant::now() < deadline, "standbys never synced");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let mut proxy_cfg = ProxyConfig::new(map.clone());
    proxy_cfg.heartbeat_every = Duration::from_millis(50);
    proxy_cfg.transport = transport;
    let proxy = Proxy::start(proxy_cfg).unwrap();
    Cluster {
        dirs,
        primaries,
        standbys,
        proxy,
        map,
    }
}

fn probe_addrs(fib: &RouteTable, extra_seed: u64) -> Vec<u32> {
    let mut addrs: Vec<u32> = fib.iter().take(200).map(|r| r.prefix.low()).collect();
    // A few deterministic wildcards for miss coverage.
    let mut x = extra_seed;
    for _ in 0..64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        addrs.push((x >> 32) as u32);
    }
    addrs
}

/// Lookups through the proxy agree address-for-address with a local LPM
/// over the expected table.
fn assert_lookups_match(conn: &mut Connection, expect: &RouteTable, addrs: &[u32], ctx: &str) {
    let trie = expect.to_trie();
    for chunk in addrs.chunks(64) {
        let got = conn.lookup(chunk).unwrap();
        for (&addr, answer) in chunk.iter().zip(got) {
            let want = trie.lookup(addr).map(|(_, &nh)| nh);
            assert_eq!(answer, want, "{ctx}: addr {addr:#x}");
        }
    }
}

#[test]
fn sharded_cluster_matches_flat_router() {
    sharded_cluster_matches_flat_router_on(Transport::Threads);
}

#[test]
fn sharded_cluster_matches_flat_router_evloop() {
    sharded_cluster_matches_flat_router_on(Transport::Evloop);
}

fn sharded_cluster_matches_flat_router_on(transport: Transport) {
    let fib = FibGen::new(71).routes(600).generate();
    let trace = UpdateGen::new(72).generate(&fib, 500);
    let mut cluster = boot(&format!("flat-{transport}"), &fib, 3, transport);

    let mut conn = Connection::connect(ClientConfig::to_addr(
        cluster.proxy.local_addr().to_string(),
    ))
    .unwrap();
    let addrs = probe_addrs(&fib, 7);
    assert_lookups_match(&mut conn, &fib, &addrs, "pre-update");

    for chunk in trace.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();
    let expect = oracle(&fib, &trace);
    assert_lookups_match(&mut conn, &expect, &addrs, "post-update");

    let report = conn.close().unwrap();
    assert_eq!(report.accepted, trace.len() as u64);
    assert_eq!(report.dropped, 0);
    assert_eq!(cluster.proxy.failovers(), 0);

    // Every shard's standby mirrors exactly the filtered slice of the
    // oracle table — the bit-identical convergence the oracle's
    // cluster phase also asserts.
    for (i, standby) in cluster.standbys.iter().enumerate() {
        assert_eq!(
            standby.replica_state().table,
            cluster.map.filter_table(&expect, i),
            "shard {i} standby diverged"
        );
    }

    for p in cluster.primaries.iter_mut().filter_map(Option::take) {
        p.stop().unwrap();
    }
    for d in &cluster.dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn killing_a_primary_mid_burst_loses_no_acks() {
    killing_a_primary_mid_burst_loses_no_acks_on(Transport::Threads);
}

#[test]
fn killing_a_primary_mid_burst_loses_no_acks_evloop() {
    killing_a_primary_mid_burst_loses_no_acks_on(Transport::Evloop);
}

fn killing_a_primary_mid_burst_loses_no_acks_on(transport: Transport) {
    let fib = FibGen::new(91).routes(600).generate();
    let trace = UpdateGen::new(92).generate(&fib, 600);
    let (first, second) = trace.split_at(trace.len() / 2);
    let mut cluster = boot(&format!("kill-{transport}"), &fib, 2, transport);

    let mut conn = Connection::connect(ClientConfig::to_addr(
        cluster.proxy.local_addr().to_string(),
    ))
    .unwrap();
    for chunk in first.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();

    // Kill shard 0's primary ungracefully (drop without drain happens
    // via stop(); either way it stops answering heartbeats and the
    // standby must take over).
    drop(cluster.primaries[0].take());

    for chunk in second.chunks(32) {
        conn.send_updates(chunk).unwrap();
    }
    conn.flush_acks().unwrap();

    let expect = oracle(&fib, &trace);
    let addrs = probe_addrs(&fib, 9);
    assert_lookups_match(&mut conn, &expect, &addrs, "post-failover");

    let report = conn.close().unwrap();
    assert_eq!(report.accepted, trace.len() as u64, "lost acks");
    assert_eq!(report.dropped, 0);
    assert_eq!(cluster.proxy.failovers(), 1);
    assert!(cluster.standbys[0].is_promoted());

    for p in cluster.primaries.iter_mut().filter_map(Option::take) {
        p.stop().unwrap();
    }
    for d in &cluster.dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn stats_documents_escape_outside_addresses() {
    // Shard and replication addresses come from a CLMP file or the
    // command line. Each case's port is not a number, so dialing it
    // fails before any name lookup.
    for (addr, escaped) in [
        (r#"127.0.0.1:4"7"#, r#""127.0.0.1:4\"7""#),
        (r"127.0.0.1:4\7", r#""127.0.0.1:4\\7""#),
        ("127.0.0.1:4\t7", r#""127.0.0.1:4\u00097""#),
    ] {
        let standby = Standby::start(StandbyConfig {
            primary_repl: addr.into(),
            ..StandbyConfig::default()
        })
        .expect("standby binds");
        let doc = standby.stats_json();
        assert!(
            doc.contains(&format!("\"primary_repl\":{escaped},")),
            "{doc}"
        );
        drop(standby);

        let map = ShardMap::from_cuts(Vec::new(), vec![ShardSpec::primary_only(addr)])
            .expect("one-shard map");
        let proxy = Proxy::start(ProxyConfig::new(map)).expect("proxy binds");
        let doc = proxy.stats_json();
        assert!(
            doc.contains(&format!("\"addr\":{escaped},\"primary\":{escaped},")),
            "{doc}"
        );
        proxy.stop();
    }
}

/// A primary that journaled nothing since its newest snapshot stops
/// without rewriting it; one that did checkpoints at the stop.
#[test]
fn a_primary_stop_rewrites_no_current_snapshot() {
    use std::os::unix::fs::MetadataExt;

    let dir = temp_dir("clean-stop");
    let fib = FibGen::new(31).routes(800).generate();
    let snap_inode = |jseq| {
        fs::metadata(dir.join(clue_store::snapshot_name(jseq)))
            .expect("snapshot file")
            .ino()
    };
    let cfg = PrimaryConfig::default();
    let primary = Primary::start(&dir, Some(&fib), &cfg).unwrap();
    let mut conn = Connection::connect(ClientConfig::to_addr(primary.local_addr().to_string()))
        .expect("connect");
    let withdraw = Update::Withdraw {
        prefix: fib.iter().next().expect("a route").prefix,
    };
    conn.send_updates(&[withdraw]).unwrap();
    conn.close().unwrap();
    primary.stop().unwrap();
    let checkpointed = snap_inode(1);

    let primary = Primary::start(&dir, None, &cfg).unwrap();
    assert!(primary.recovered());
    primary.stop().unwrap();
    assert_eq!(
        snap_inode(1),
        checkpointed,
        "a clean stop rewrote the snapshot"
    );
    let _ = fs::remove_dir_all(&dir);
}
