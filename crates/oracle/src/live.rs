//! The client side of every live phase.
//!
//! The net phase, the scenario phase's single-node and sharded replays
//! and the cluster phase each boot a deployment and then drive it the
//! same way, through a [`Live`] target: the address to dial, the
//! [`Stage`] a wrong answer is blamed on, and the label every other
//! divergence carries. Against it they run
//!
//! * [`Live::sweep`]: lookups over the wire, each compared with the
//!   oracle ([`Live::sweep_settled`] gives the last publish time to
//!   land);
//! * [`Live::race`]: a timed update schedule on one connection racing a
//!   lookup sweep on another, then zero drops, every update acked as
//!   accepted and every lookup answered;
//!
//! and, on the drained router, [`converged`] — which the in-process
//! router phase shares. Faults are injected client-side: the schedule
//! passes through an [`IngressPerturber`] before frames are cut, so
//! delay, reorder and drop-with-retransmit reach the server in a
//! per-prefix-order-preserving interleaving, as in the in-process runs.

use std::fmt::Display;
use std::io;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use clue_compress::onrtc;
use clue_core::lookup::BackendKind;
use clue_fib::{RouteTable, Update};
use clue_net::{ClientConfig, ClientReport, Connection, ServerConfig};
use clue_router::{FaultPlan, IngressPerturber, RouterConfig, RouterReport};
use clue_trace::TimedUpdate;

use crate::harness::{CheckConfig, Divergence, Stage};
use crate::model::Oracle;

/// Addresses per lookup frame.
const LOOKUP_CHUNK: usize = 512;
/// How long [`Live::sweep_settled`] retries a disagreeing sweep.
const SETTLE: Duration = Duration::from_secs(5);

/// A whole-phase failure, labelled with the phase that found it.
pub(crate) fn fail(label: &str, what: impl Display) -> Divergence {
    Divergence::Router {
        what: format!("{label}: {what}"),
    }
}

/// A loopback server with the check's router sizing and `backend`.
/// Server-side faults stay off: [`Live::race`] injects them ahead of
/// the wire, where the real world would.
pub(crate) fn server_config(cfg: &CheckConfig, backend: BackendKind) -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        router: RouterConfig {
            workers: cfg.chips,
            dred_capacity: cfg.dred_capacity,
            batch_size: cfg.batch,
            faults: None,
            backend,
            ..RouterConfig::default()
        },
        transport: cfg.transport,
        ..ServerConfig::default()
    }
}

/// An update trace as a schedule with every update due at once.
pub(crate) fn untimed(trace: &[Update]) -> Vec<TimedUpdate> {
    trace
        .iter()
        .map(|&update| TimedUpdate { at_ms: 0, update })
        .collect()
}

/// The final-state checks on a router drained after taking `updates`
/// updates: every lookup that arrived completed, every update reached
/// ingress, and the final table, original and compressed, equals the
/// oracle's sequential final table `want`.
pub(crate) fn converged(
    report: &RouterReport,
    updates: usize,
    want: &RouteTable,
    label: &str,
) -> Result<(), Divergence> {
    let snap = &report.snapshot;
    if snap.arrivals != snap.completions {
        return Err(fail(
            label,
            format!(
                "lost traffic: {} arrivals, {} completions",
                snap.arrivals, snap.completions
            ),
        ));
    }
    if snap.updates_received != updates as u64 {
        return Err(fail(
            label,
            format!("ingress saw {} of {updates} updates", snap.updates_received),
        ));
    }
    if report.final_table != *want {
        return Err(fail(
            label,
            format!(
                "final FIB diverged from sequential application: {} routes vs oracle's {}",
                report.final_table.len(),
                want.len()
            ),
        ));
    }
    let want = onrtc(want);
    if report.final_compressed != want {
        return Err(fail(
            label,
            format!(
                "final compressed table diverged: {} entries vs scratch recompression's {}",
                report.final_compressed.len(),
                want.len()
            ),
        ));
    }
    Ok(())
}

/// A serving address under check.
pub(crate) struct Live {
    addr: String,
    stage: Stage,
    pub(crate) label: String,
}

impl Live {
    pub(crate) fn new(addr: impl Display, stage: Stage, label: impl Into<String>) -> Live {
        Live {
            addr: addr.to_string(),
            stage,
            label: label.into(),
        }
    }

    pub(crate) fn fail(&self, what: impl Display) -> Divergence {
        fail(&self.label, what)
    }

    /// A client with a quick reconnect backoff: a loopback peer that
    /// restarts (a promoted standby) is back within milliseconds.
    fn connect(&self) -> io::Result<Connection> {
        Connection::connect(ClientConfig {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            ..ClientConfig::to_addr(self.addr.clone())
        })
    }

    /// Looks `addrs` up on one connection; the first answer that differs
    /// from `oracle` is a lookup divergence at this target's stage.
    /// Returns the connection's final counters.
    pub(crate) fn sweep(&self, oracle: &Oracle, addrs: &[u32]) -> Result<ClientReport, Divergence> {
        let mut conn = self.connect().map_err(|e| self.fail(e))?;
        for batch in addrs.chunks(LOOKUP_CHUNK) {
            let got = conn.lookup(batch).map_err(|e| self.fail(e))?;
            for (&addr, &got) in batch.iter().zip(&got) {
                let expected = oracle.lookup(addr);
                if got != expected {
                    return Err(Divergence::Lookup {
                        stage: self.stage,
                        batch: 0,
                        addr,
                        expected,
                        got,
                    });
                }
            }
        }
        conn.close().map_err(|e| self.fail(e))
    }

    /// [`sweep`](Self::sweep) retried until it agrees, for up to 5 s.
    /// Every update has been acked, but the router publishes its final
    /// epoch on a batch boundary or idle poll, so the wire may briefly
    /// trail the oracle: only a persistent disagreement is a divergence.
    pub(crate) fn sweep_settled(&self, oracle: &Oracle, addrs: &[u32]) -> Result<(), Divergence> {
        let deadline = Instant::now() + SETTLE;
        loop {
            match self.sweep(oracle, addrs) {
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(25)),
                done => return done.map(drop),
            }
        }
    }

    /// The racing pass. One connection sends `schedule`, held to its
    /// `at_ms` timing: frames of `batch` within a burst, flushed at
    /// every timing gap, through an [`IngressPerturber`] when `faults`
    /// are armed. A second connection sweeps `packets` meanwhile, its
    /// answers unchecked (each may land on either side of an update).
    /// `midway` runs on the calling thread once half the updates are
    /// sent. Returns the update connection's final counters.
    ///
    /// # Errors
    ///
    /// A socket failure, a dropped update, an update not acked as
    /// accepted, or a lookup left unanswered.
    pub(crate) fn race(
        &self,
        schedule: &[TimedUpdate],
        packets: &[u32],
        batch: usize,
        faults: Option<FaultPlan>,
        midway: impl FnOnce(),
    ) -> Result<ClientReport, Divergence> {
        let (half_tx, half_rx) = mpsc::channel();
        let (sent, answered) = thread::scope(|s| {
            let sender = s.spawn(move || self.send(schedule, batch, faults, half_tx));
            let sweeper = s.spawn(|| -> io::Result<usize> {
                let mut conn = self.connect()?;
                let mut answered = 0;
                for chunk in packets.chunks(LOOKUP_CHUNK) {
                    answered += conn.lookup(chunk)?.len();
                }
                conn.close()?;
                Ok(answered)
            });
            // Half the updates are on the wire, or the sender is done.
            let _ = half_rx.recv();
            midway();
            (
                sender.join().expect("update sender exits"),
                sweeper.join().expect("lookup sweep exits"),
            )
        });
        let report = sent.map_err(|e| self.fail(e))?;
        let answered = answered.map_err(|e| self.fail(e))?;
        if report.dropped != 0 {
            return Err(self.fail(format!(
                "{} updates dropped under Block policy",
                report.dropped
            )));
        }
        if report.accepted != schedule.len() as u64 {
            return Err(self.fail(format!(
                "lost acks: {} of {} updates acked as accepted",
                report.accepted,
                schedule.len()
            )));
        }
        if answered != packets.len() {
            return Err(self.fail(format!(
                "racing run answered {answered} of {} lookups",
                packets.len()
            )));
        }
        Ok(report)
    }

    /// The update side of [`race`](Self::race).
    fn send(
        &self,
        schedule: &[TimedUpdate],
        batch: usize,
        faults: Option<FaultPlan>,
        half: mpsc::Sender<()>,
    ) -> io::Result<ClientReport> {
        let mut feed = Feed {
            conn: self.connect()?,
            pending: Vec::with_capacity(batch),
            sent: 0,
            half_of: schedule.len() / 2,
            half: Some(half),
        };
        let mut perturber = faults.filter(|f| !f.is_noop()).map(IngressPerturber::new);
        let start = Instant::now();
        let mut last_at = 0;
        for e in schedule {
            if e.at_ms != last_at {
                // A timing gap: flush the burst, then hold to the schedule.
                feed.flush()?;
                last_at = e.at_ms;
                if let Some(wait) = Duration::from_millis(e.at_ms).checked_sub(start.elapsed()) {
                    thread::sleep(wait);
                }
            }
            match &mut perturber {
                Some(p) => {
                    if let Some(d) = p.feeder_delay() {
                        thread::sleep(d);
                    }
                    p.push(e.update, &mut feed.pending);
                }
                None => feed.pending.push(e.update),
            }
            if feed.pending.len() >= batch {
                feed.flush()?;
            }
        }
        if let Some(p) = perturber {
            p.finish(&mut feed.pending);
        }
        feed.flush()?;
        feed.conn.close()
    }
}

/// The update connection of a racing pass.
struct Feed {
    conn: Connection,
    /// Updates not yet cut into a frame.
    pending: Vec<Update>,
    sent: usize,
    /// Updates to send before `half` fires.
    half_of: usize,
    half: Option<mpsc::Sender<()>>,
}

impl Feed {
    /// Sends `pending` as one frame, if it holds any updates.
    fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.conn.send_updates(&self.pending)?;
        self.sent += self.pending.len();
        self.pending.clear();
        if self.sent >= self.half_of {
            if let Some(half) = self.half.take() {
                let _ = half.send(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::io::ErrorKind;
    use std::net::TcpListener;
    use std::sync::Arc;

    use clue_fib::{NextHop, Prefix};
    use clue_net::frame::{Frame, FrameType};
    use clue_net::{wire, FrameHandler, Listener, ListenerConfig, NetStats, Server, Transport};

    use super::*;

    fn table(routes: &[(&str, u16)]) -> RouteTable {
        routes
            .iter()
            .map(|&(p, nh)| (p.parse::<Prefix>().unwrap(), NextHop(nh)))
            .collect()
    }

    #[test]
    fn a_sweep_reports_a_wrong_answer_at_the_callers_stage() {
        let served = table(&[("10.0.0.0/8", 1), ("20.0.0.0/8", 2)]);
        let judged = table(&[("10.0.0.0/8", 1), ("20.0.0.0/8", 3)]);
        let cfg = CheckConfig::new(1, 0);
        let server = Server::start(&served, &server_config(&cfg, cfg.backend)).expect("bind");
        let live = Live::new(server.local_addr(), Stage::Cluster, "test");
        let addrs = [0x0A01_0203, 0x1401_0203];
        assert!(live.sweep(&Oracle::new(&served), &addrs).is_ok());
        assert_eq!(
            live.sweep(&Oracle::new(&judged), &addrs).unwrap_err(),
            Divergence::Lookup {
                stage: Stage::Cluster,
                batch: 0,
                addr: 0x1401_0203,
                expected: Some(NextHop(3)),
                got: Some(NextHop(2)),
            }
        );
        server.drain().expect("server drains");
    }

    /// A server that resolves nothing and acks every update as dropped.
    struct Dropper;

    impl FrameHandler for Dropper {
        type Conn = ();

        fn open(&self) {}

        fn is_cheap(&self, _kind: FrameType) -> bool {
            true
        }

        fn handle(&self, (): &mut (), frame: &Frame) -> io::Result<Frame> {
            let (kind, payload) = match frame.kind {
                FrameType::Hello => (FrameType::HelloAck, wire::encode_u64(0)),
                FrameType::Lookup => {
                    let n = wire::decode_lookup(&frame.payload)?.len();
                    (
                        FrameType::LookupResult,
                        wire::encode_results(&vec![None; n]),
                    )
                }
                FrameType::Update => {
                    let ack = wire::UpdateAck {
                        accepted: 0,
                        dropped: wire::decode_updates(&frame.payload)?.len() as u32,
                    };
                    (FrameType::UpdateAck, wire::encode_ack(ack))
                }
                other => return Err(io::Error::new(ErrorKind::InvalidData, format!("{other:?}"))),
            };
            Ok(Frame {
                kind,
                seq: frame.seq,
                payload,
            })
        }
    }

    #[test]
    fn a_race_fails_when_updates_are_dropped() {
        let listener = Listener::start(
            TcpListener::bind("127.0.0.1:0").expect("bind"),
            Arc::new(Dropper),
            Arc::new(NetStats::new()),
            ListenerConfig {
                transport: Transport::Threads,
                bridge_threads: 1,
            },
        )
        .expect("start scripted server");
        let live = Live::new(listener.local_addr(), Stage::Net, "test");
        let trace: Vec<Update> = (1..=10)
            .map(|i| Update::Announce {
                prefix: Prefix::new(i << 24, 8),
                next_hop: NextHop(1),
            })
            .collect();
        let mut midway = false;
        let err = live
            .race(&untimed(&trace), &[1, 2, 3], 4, None, || midway = true)
            .unwrap_err();
        assert!(midway, "the midway hook ran");
        assert!(
            matches!(&err, Divergence::Router { what } if what.contains("10 updates dropped")),
            "{err}"
        );
    }

    #[test]
    fn convergence_fails_when_the_final_table_differs() {
        let start = table(&[("10.0.0.0/8", 1)]);
        let report = clue_router::run(&start, &[], &[], &RouterConfig::default());
        assert!(converged(&report, 0, &start, "test").is_ok());
        let err = converged(&report, 0, &table(&[("10.0.0.0/8", 2)]), "test").unwrap_err();
        assert!(
            matches!(&err, Divergence::Router { what } if what.contains("final FIB diverged")),
            "{err}"
        );
    }
}
