//! Boots one shard primary: durable store + replication endpoint +
//! serving frontend, wired so an ack implies journaled *and* shipped.
//!
//! This is the composition the CLI (`clue serve --repl-listen`), the
//! oracle's cluster phase, the cluster bench, and the integration
//! tests all share: open (or seed) a [`Store`], lift its stream base
//! into a [`ReplicationHub`], expose the hub on a
//! [`ReplicationListener`], wrap the store in a [`ReplicatedStore`]
//! journal, and serve the router behind the standard wire protocol.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use clue_fib::RouteTable;
use clue_net::{Server, ServerConfig, IO_TIMEOUT};
use clue_router::{RouterReport, RouterService};
use clue_store::{Store, StoreConfig};

use crate::repl::{ReplConfig, ReplStats, ReplicatedStore, ReplicationHub, ReplicationListener};

/// Tunables for [`Primary::start`].
#[derive(Debug, Clone)]
pub struct PrimaryConfig {
    /// Client/proxy-facing server configuration (listen address,
    /// router sizing, timeouts).
    pub server: ServerConfig,
    /// Replication endpoint configuration (standbys dial this).
    pub repl: ReplConfig,
    /// Durable store configuration.
    pub store: StoreConfig,
    /// How long an append waits for every live synchronous standby to
    /// apply before demoting laggards and acking anyway. Must stay
    /// below [`IO_TIMEOUT`] or a stalled standby turns into
    /// client-visible request timeouts instead of a demotion;
    /// [`Primary::start`] refuses a config that breaks this.
    pub sync_timeout: Duration,
}

impl Default for PrimaryConfig {
    fn default() -> PrimaryConfig {
        PrimaryConfig {
            server: ServerConfig::default(),
            repl: ReplConfig::default(),
            store: StoreConfig::default(),
            sync_timeout: Duration::from_secs(2),
        }
    }
}

/// A running shard primary: serving frontend plus replication stream.
pub struct Primary {
    server: Option<Server>,
    repl: Option<ReplicationListener>,
    hub: Arc<ReplicationHub>,
    routes: usize,
    recovered: bool,
}

impl Primary {
    /// Opens `dir` (seeding it from `fib` when fresh) and starts the
    /// full primary stack.
    ///
    /// `fib` is required for a fresh directory and ignored — like
    /// `clue serve` — when the directory already holds recoverable
    /// state.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a `sync_timeout` not below [`IO_TIMEOUT`]
    /// (checked before `dir` is touched); store open/seed failures,
    /// bind failures on either listener, or a fresh directory with no
    /// `fib` to seed from.
    pub fn start(dir: &Path, fib: Option<&RouteTable>, cfg: &PrimaryConfig) -> io::Result<Primary> {
        if cfg.sync_timeout >= IO_TIMEOUT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "sync timeout {:?} must be below the {:?} I/O timeout",
                    cfg.sync_timeout, IO_TIMEOUT
                ),
            ));
        }
        let (mut store, state, recovered) =
            Store::open_or_seed(dir, cfg.store, fib, cfg.server.router.workers)?;
        // The hub takes the snapshot bytes the open just validated, and
        // the router the trie and cover that validation built.
        let hub = Arc::new(ReplicationHub::new(store.stream_base()?));
        let repl = ReplicationListener::start(cfg.repl.clone(), Arc::clone(&hub))?;
        let journal = ReplicatedStore::new(store, Arc::clone(&hub), cfg.sync_timeout);
        let routes = state.table.len();
        let seq_hw = state.seq_hw;
        let svc =
            RouterService::start_recovered(state, &cfg.server.router, Some(Box::new(journal)));
        let server = Server::start_with_service(svc, seq_hw, &cfg.server)?;
        Ok(Primary {
            server: Some(server),
            repl: Some(repl),
            hub,
            routes,
            recovered,
        })
    }

    /// The client/proxy-facing address.
    ///
    /// # Panics
    ///
    /// After [`stop`](Primary::stop) (unreachable: `stop` consumes).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").local_addr()
    }

    /// The replication endpoint standbys should dial.
    ///
    /// # Panics
    ///
    /// After [`stop`](Primary::stop) (unreachable: `stop` consumes).
    #[must_use]
    pub fn repl_addr(&self) -> SocketAddr {
        self.repl.as_ref().expect("repl running").local_addr()
    }

    /// Routes in the table at boot.
    #[must_use]
    pub fn routes(&self) -> usize {
        self.routes
    }

    /// Whether boot recovered existing state (vs. seeding fresh).
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Replication-plane counters.
    #[must_use]
    pub fn repl_stats(&self) -> ReplStats {
        self.hub.stats()
    }

    /// Combined stats JSON from the serving frontend.
    ///
    /// # Panics
    ///
    /// After [`stop`](Primary::stop) (unreachable: `stop` consumes).
    #[must_use]
    pub fn stats_json(&self) -> String {
        self.server.as_ref().expect("server running").stats_json()
    }

    /// Whether a client asked the frontend to shut down.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.server.as_ref().is_some_and(Server::shutdown_requested)
    }

    /// Drains the frontend (journal flush + checkpoint via the router's
    /// drain path), then stops the replication listener.
    ///
    /// # Errors
    ///
    /// Drain-side I/O failures from the journal.
    pub fn stop(mut self) -> io::Result<RouterReport> {
        let report = match self.server.take() {
            Some(server) => server.drain()?,
            None => unreachable!("stop consumes self; server is always present"),
        };
        if let Some(repl) = self.repl.take() {
            repl.stop();
        }
        Ok(report)
    }
}

impl Drop for Primary {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.drain();
        }
        if let Some(repl) = self.repl.take() {
            repl.stop();
        }
    }
}
