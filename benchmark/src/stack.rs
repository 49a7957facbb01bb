//! The four deployments the workloads drive, built only from what a
//! user of the system calls, each with its `Default` configuration:
//!
//! * `Direct`  — `RouterService::start`, callers in-process;
//! * `Wire`    — `Server::start`, as `clue serve --listen`;
//! * `Durable` — `Store::open` → `start_with_journal` →
//!   `Server::start_with_service`, as `clue serve --data-dir` (fsync per
//!   journal append);
//! * `Cluster` — two `Primary` + one warm `Standby` each + `Proxy`, as
//!   `clue serve --repl-listen` ×2, `--follow` ×2 and `clue proxy`.
//!
//! All traffic crosses the host's loopback interface. Data directories
//! live under the benchmark's own `out/` directory so a run writes
//! nothing outside its checkout.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clue_cluster::{
    Primary, PrimaryConfig, Proxy, ProxyConfig, ShardMap, ShardSpec, Standby, StandbyConfig,
};
use clue_fib::{NextHop, RouteTable, Update};
use clue_net::{ClientConfig, Connection, Server, ServerConfig};
use clue_router::{RouterConfig, RouterService, StatsSnapshot, SubmitOutcome};
use clue_store::{Store, StoreConfig};

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    Direct,
    Wire,
    Durable,
    Cluster,
}

/// Shards in the `Cluster` stack.
pub const SHARDS: usize = 2;

/// What a load thread holds: one caller of the direct service, or one
/// TCP connection.
pub trait Client: Send {
    /// Resolves a batch; blocks for the reply.
    fn lookup(&mut self, addrs: &[u32]) -> io::Result<Vec<Option<NextHop>>>;
    /// Submits one frame of updates (a connection pipelines up to its
    /// default `ack_window` frames).
    fn send_updates(&mut self, frame: &[Update]) -> io::Result<()>;
    /// Blocks until every submitted frame is acknowledged.
    fn flush_acks(&mut self) -> io::Result<()>;
    /// Closes the line; returns `(accepted, dropped)` update counts.
    fn close(self: Box<Self>) -> io::Result<(u64, u64)>;
}

struct DirectClient {
    svc: Arc<RouterService>,
    accepted: u64,
    dropped: u64,
}

impl Client for DirectClient {
    fn lookup(&mut self, addrs: &[u32]) -> io::Result<Vec<Option<NextHop>>> {
        Ok(self.svc.lookup_batch(addrs.to_vec()))
    }

    fn send_updates(&mut self, frame: &[Update]) -> io::Result<()> {
        for &u in frame {
            match self.svc.submit_update(u) {
                SubmitOutcome::Accepted => self.accepted += 1,
                SubmitOutcome::Dropped => self.dropped += 1,
            }
        }
        Ok(())
    }

    fn flush_acks(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn close(self: Box<Self>) -> io::Result<(u64, u64)> {
        Ok((self.accepted, self.dropped))
    }
}

impl Client for Connection {
    fn lookup(&mut self, addrs: &[u32]) -> io::Result<Vec<Option<NextHop>>> {
        Connection::lookup(self, addrs)
    }

    fn send_updates(&mut self, frame: &[Update]) -> io::Result<()> {
        Connection::send_updates(self, frame)
    }

    fn flush_acks(&mut self) -> io::Result<()> {
        Connection::flush_acks(self)
    }

    fn close(self: Box<Self>) -> io::Result<(u64, u64)> {
        let report = Connection::close(*self)?;
        Ok((report.accepted, report.dropped))
    }
}

enum Inner {
    Direct(Arc<RouterService>),
    Server(Server),
    Cluster {
        primaries: Vec<Primary>,
        standbys: Vec<Standby>,
        proxy: Proxy,
        map: ShardMap,
    },
}

pub struct Stack {
    inner: Inner,
    dirs: Vec<PathBuf>,
}

/// What a drained stack reports: the router statistics of every node
/// and whether the final tables are the expected ones.
pub struct Drained {
    pub snapshots: Vec<StatsSnapshot>,
    /// Every node's `final_table` equals sequential application of all
    /// updates sent (filtered to the node's shard on a cluster).
    pub table_ok: bool,
    /// `arrivals == completions` on every node.
    pub conserved: bool,
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(scratch: &Path) -> io::Result<PathBuf> {
    let dir = scratch.join(format!(
        "data-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

impl Stack {
    /// Boots the deployment over `rib`. `scratch` holds data dirs.
    pub fn boot(kind: StackKind, rib: &RouteTable, scratch: &Path) -> io::Result<Stack> {
        // `tiled` planes are built by a crate above clue-core; register
        // the builder before anything may ask for it.
        clue_tile::install();
        match kind {
            StackKind::Direct => Ok(Stack {
                inner: Inner::Direct(Arc::new(RouterService::start(
                    rib,
                    &RouterConfig::default(),
                ))),
                dirs: Vec::new(),
            }),
            StackKind::Wire => Ok(Stack {
                inner: Inner::Server(Server::start(rib, &ServerConfig::default())?),
                dirs: Vec::new(),
            }),
            StackKind::Durable => {
                let dir = fresh_dir(scratch)?;
                let cfg = ServerConfig::default();
                let (mut store, recovery) = Store::open(&dir, StoreConfig::default())?;
                if recovery.is_some() {
                    return Err(io::Error::other("fresh data dir recovered state"));
                }
                store.init_from_table(rib, cfg.router.workers)?;
                let svc = RouterService::start_with_journal(rib, &cfg.router, Box::new(store));
                Ok(Stack {
                    inner: Inner::Server(Server::start_with_service(svc, 0, &cfg)?),
                    dirs: vec![dir],
                })
            }
            StackKind::Cluster => Self::boot_cluster(rib, scratch),
        }
    }

    fn boot_cluster(rib: &RouteTable, scratch: &Path) -> io::Result<Stack> {
        // Cuts first (addresses are not known until the nodes bind),
        // then the real map from the same cuts.
        let placeholder = ShardMap::derive(rib, vec![ShardSpec::primary_only("x:0"); SHARDS])?;
        let mut dirs = Vec::new();
        let mut primaries = Vec::new();
        let mut standbys = Vec::new();
        let mut specs = Vec::new();
        for i in 0..SHARDS {
            let dir = fresh_dir(scratch)?;
            let shard_rib = placeholder.filter_table(rib, i);
            let primary = Primary::start(&dir, Some(&shard_rib), &PrimaryConfig::default())?;
            let standby = Standby::start(StandbyConfig {
                primary_repl: primary.repl_addr().to_string(),
                ..StandbyConfig::default()
            })?;
            specs.push(ShardSpec::with_standby(
                primary.local_addr().to_string(),
                standby.local_addr().to_string(),
            ));
            dirs.push(dir);
            primaries.push(primary);
            standbys.push(standby);
        }
        // A standby is warm once it holds the snapshot: acks are
        // replicated only from then on, so that is when the cluster is up.
        let deadline = Instant::now() + Duration::from_secs(60);
        for p in &primaries {
            while p.repl_stats().synced != 1 {
                if Instant::now() > deadline {
                    return Err(io::Error::other("standby never synced"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let map = ShardMap::from_cuts(placeholder.cuts().to_vec(), specs)?;
        let proxy = Proxy::start(ProxyConfig::new(map.clone()))?;
        Ok(Stack {
            inner: Inner::Cluster {
                primaries,
                standbys,
                proxy,
                map,
            },
            dirs,
        })
    }

    /// The address clients dial (`None` in-process).
    pub fn client_addr(&self) -> Option<String> {
        match &self.inner {
            Inner::Direct(_) => None,
            Inner::Server(server) => Some(server.local_addr().to_string()),
            Inner::Cluster { proxy, .. } => Some(proxy.local_addr().to_string()),
        }
    }

    /// One more caller (direct) or connection (everything else).
    pub fn client(&self) -> io::Result<Box<dyn Client>> {
        match (&self.inner, self.client_addr()) {
            (Inner::Direct(svc), _) => Ok(Box::new(DirectClient {
                svc: Arc::clone(svc),
                accepted: 0,
                dropped: 0,
            })),
            (_, Some(addr)) => Ok(Box::new(Connection::connect(ClientConfig::to_addr(addr))?)),
            (_, None) => unreachable!("every networked stack has an address"),
        }
    }

    /// A connection straight to shard `i`'s primary, bypassing the
    /// proxy (the ladder's "direct-shard" row). `None` off-cluster.
    pub fn shard_client(&self, i: usize) -> Option<io::Result<Connection>> {
        match &self.inner {
            Inner::Cluster { primaries, .. } => Some(Connection::connect(ClientConfig::to_addr(
                primaries[i].local_addr().to_string(),
            ))),
            _ => None,
        }
    }

    pub fn shard_map(&self) -> Option<&ShardMap> {
        match &self.inner {
            Inner::Cluster { map, .. } => Some(map),
            _ => None,
        }
    }

    /// Frames the serving frontends have read so far (0 in-process).
    pub fn frames_in(&self) -> u64 {
        let net_frames = |stats: &str| {
            json::parse(stats)
                .ok()
                .and_then(|doc| doc.get("net")?.get("frames_in")?.as_f64())
                .map_or(0, |n| n as u64)
        };
        match &self.inner {
            Inner::Direct(_) => 0,
            Inner::Server(server) => net_frames(&server.stats_json()),
            Inner::Cluster { primaries, .. } => {
                primaries.iter().map(|p| net_frames(&p.stats_json())).sum()
            }
        }
    }

    /// Heap bytes of the published lookup planes, summed over nodes, as
    /// the system's own stats report them.
    pub fn plane_heap_bytes(&self) -> Option<u64> {
        let from_json = |stats: &str| {
            json::parse(stats)
                .ok()?
                .get("router")?
                .get("plane")?
                .get("heap_bytes")?
                .as_f64()
                .map(|b| b as u64)
        };
        match &self.inner {
            Inner::Direct(svc) => svc.stats().plane.map(|p| p.heap_bytes as u64),
            Inner::Server(server) => from_json(&server.stats_json()),
            Inner::Cluster { primaries, .. } => primaries
                .iter()
                .map(|p| from_json(&p.stats_json()))
                .sum::<Option<u64>>(),
        }
    }

    /// Graceful drain of every node, checking the final tables against
    /// `expected` (the original RIB with everything sent applied in
    /// order). All clients must have been closed.
    pub fn shutdown(self, expected: &RouteTable) -> io::Result<Drained> {
        let Stack { inner, dirs } = self;
        let mut reports = Vec::new();
        let mut expectations = Vec::new();
        match inner {
            Inner::Direct(svc) => {
                let svc = Arc::into_inner(svc)
                    .ok_or_else(|| io::Error::other("a direct client outlived the workload"))?;
                reports.push(svc.drain());
                expectations.push(expected.clone());
            }
            Inner::Server(server) => {
                reports.push(server.drain()?);
                expectations.push(expected.clone());
            }
            Inner::Cluster {
                primaries,
                standbys,
                proxy,
                map,
            } => {
                proxy.stop();
                for (i, p) in primaries.into_iter().enumerate() {
                    reports.push(p.stop()?);
                    expectations.push(map.filter_table(expected, i));
                }
                for s in standbys {
                    s.stop()?;
                }
            }
        }
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        let table_ok = reports
            .iter()
            .zip(&expectations)
            .all(|(r, e)| &r.final_table == e);
        let conserved = reports
            .iter()
            .all(|r| r.snapshot.arrivals == r.snapshot.completions);
        Ok(Drained {
            snapshots: reports.into_iter().map(|r| r.snapshot).collect(),
            table_ok,
            conserved,
        })
    }
}
