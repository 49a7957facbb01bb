//! The cost model: what the served system spends, counted rather than
//! timed, and asserted as ceilings.
//!
//! A wall-clock reading on a shared host moves both sides of an A/B
//! together; a count does not. This binary counts heap allocations and
//! live heap bytes with a counting global allocator (installed in this
//! test binary only), lookup-plane heap bytes (and the live bytes a
//! plane holds that its `heap_bytes()` leaves out), OS threads from
//! `/proc/self/task`, `read` calls per frame, call sites in
//! `crates/*/src` and `src/`, settable `…Config` fields, and the CLI's
//! longest file. It prints one
//! table and fails when any count rises above its ceiling. A change that
//! lowers a count tightens the ceiling in the same diff.
//!
//! It holds exactly one `#[test]`: a second test running in parallel
//! would add its own threads and allocations to the counts.
//!
//! ```sh
//! cargo test -q --test cost_model -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use clue::cluster::{
    Primary, PrimaryConfig, Proxy, ProxyConfig, ShardMap, ShardSpec, Standby, StandbyConfig,
};
use clue::compress::onrtc;
use clue::core::{build_plane, BackendKind};
use clue::fib::gen::FibGen;
use clue::fib::{NextHop, Prefix, Route, RouteTable, Update};
use clue::net::frame::{Frame, FrameDecoder, FrameType};
use clue::net::{client, wire, ClientConfig, Connection, Server, ServerConfig, Transport};
use clue::router::{CheckpointView, JournalBatch, RouterConfig, RouterService, UpdateJournal};
use clue::traffic::PacketGen;

/// Counts every allocation (including growth by `realloc`) made by any
/// thread of this process, the ones each thread makes itself, and the
/// bytes live on the heap.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters have no effect on the memory handed
// out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// OS threads `RouterService::start` spawns with the default config:
/// one worker per chip and the update thread.
const THREADS_PER_SERVICE: usize = 5;
/// OS threads `Server::start` spawns with the default config: the
/// service's, plus the threads transport's accept loop.
const THREADS_PER_SERVER: usize = THREADS_PER_SERVICE + 1;
/// OS threads `Standby::start` leaves running while its primary
/// refuses connections: the control listener's accept loop and the
/// replication thread, which becomes the server on a promotion.
const THREADS_PER_STANDBY: usize = 2;
/// Heap allocations per `lookup_batch`, at any batch size: the result
/// vector (the slot buffers and reply channel are pooled).
const ALLOCS_PER_LOOKUP_BATCH: usize = 1;
/// Heap allocations per 64-address `Connection::lookup` over loopback,
/// client and server together. Client 4: request payload, encoded frame,
/// reply payload, decoded results. Server 5: request payload, decoded
/// addresses, `lookup_batch` result, reply payload, encoded frame.
const ALLOCS_PER_LOOKUP_RTT: usize = 9;
/// Heap allocations per 64-address `Connection::lookup` through a
/// `Proxy` over two `Primary` shards, client, proxy and shards
/// together: the client's 4 and each shard's 5 as above, plus the
/// proxy's own — request payload, decoded addresses, and per shard the
/// sub-request payload, its frame, the reply payload and the decoded
/// answers, then the reply payload and frame (grouping buffers and
/// backend read buffers are reused across frames).
const ALLOCS_PER_PROXY_LOOKUP_RTT: usize = 26;
/// `read` calls that take one 64-address `Lookup` or its
/// `LookupResult` off a socket that holds the whole frame, through the
/// decoder every blocking reader uses (`Frame::read_from` makes 3).
const READS_PER_FRAME: usize = 1;
/// Heap bytes per entry of the default `tcam` plane over a compressed
/// table: per word a 4-byte start, a 2-byte next hop, a gap bit and at
/// most an eighth of a 4-byte index cell, with a gap word wherever the
/// cover has a hole (no prefix lengths for non-overlapping content).
/// The 2 000-route table's 1 259 cover routes read 7.49, rounded down.
const PLANE_HEAP_BYTES_PER_ENTRY: usize = 7;
/// Allocations building that plane: the index, starts and gap bits in
/// one buffer, the hops in another, and the box (a slice already in
/// address order is not copied for sorting).
const ALLOCS_PER_PLANE_BUILD: usize = 3;
/// Live heap bytes a built `tcam`, `trie` or `cfib` plane holds beyond
/// its `heap_bytes()` and its box, the most over the three: every
/// buffer is counted, at its capacity.
const PLANE_HEAP_BYTES_UNREPORTED: usize = 0;
/// Allocations every thread makes from `RouterService::start` on the
/// 2 000-route table until its update plane is ready (`start_until_ready`):
/// the original trie, the ONRTC cover, the cuts, the first epoch's
/// planes and the thread spawns on the caller; the compressed trie, the
/// TCAM model and one elided batch on the update thread; the threads'
/// own start-up. Counted across threads, so work moved off the caller
/// still counts. (The test harness's output capture costs two more per
/// spawn: 132 under `--nocapture`.)
const ALLOCS_PER_START: usize = 142;
/// Allocations every thread makes from `Primary::start` on a fresh data
/// dir over the same table until its update plane is ready
/// (`allocs_per_primary_start`): the seed snapshot with its trie and
/// cover, the read-back whose validation builds the trie and cover the
/// router then boots from, the replication hub on the bytes the
/// read-back validated, both listeners, the router as above, and the
/// primary's side of the probe connection. (554 under `--nocapture`.)
const ALLOCS_PER_PRIMARY_START: usize = 570;
/// Allocations the update thread makes between a journal append's
/// return and the next checkpoint's entry (`allocs_per_checkpoint_view`):
/// the view borrows the tries it describes, so building it copies
/// nothing. (Materialising both tables as `RouteTable`s cost 333.)
const ALLOCS_PER_CHECKPOINT_VIEW: usize = 0;
/// Heap bytes a `RouterService` holds on a 100 K-route table once its
/// update plane is ready, per route: both tries, the TCAM model with
/// its prefix → slot map, and the first epoch's planes.
const HEAP_BYTES_PER_ROUTE: usize = 164;
/// Live heap bytes a `Server` holds per closed connection, on either
/// transport: the network stats are counters, so a connection leaves
/// nothing behind once it closes.
const HEAP_BYTES_PER_CLOSED_CONNECTION: usize = 0;
/// Lines under `crates/*/src` that use a `select!` macro.
const SELECT_SITES: usize = 0;
/// Lines under `crates/*/src` that call `thread::sleep`. A wait that a
/// stop should cut short is a `clue_aio::Stop::wait_timeout` instead.
const SLEEP_SITES: usize = 16;
/// Lines under `crates/*/src` that dial with `connect_timeout`: every
/// client socket opens through `clue_net::client::open`.
const DIAL_SITES: usize = 1;
/// Lines under `crates/oracle/src` that open a `Connection`: every live
/// phase drives its deployment through one client.
const ORACLE_CONNECT_SITES: usize = 1;
/// Lines in the longest file under `src/bin/cli`: one module per
/// subcommand group keeps the CLI from growing back into one file.
const CLI_MAX_FILE_LINES: usize = 335;
/// Lines under `crates/*/src` and `src/` whose format string opens a
/// JSON object: every document renders through `clue_core::json`, which
/// builds objects without one.
const JSON_FORMAT_SITES: usize = 0;
/// `pub` fields of the `pub struct …Config` blocks under `crates/*/src`:
/// a value no caller changes is a constant in the module that uses it.
const CONFIG_FIELDS: usize = 79;

fn os_threads() -> usize {
    fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// OS threads a standby following an address that refuses
/// connections runs once `Standby::start` returns.
fn threads_per_standby() -> usize {
    let gone = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let primary_repl = gone.local_addr().expect("local addr").to_string();
    drop(gone);
    let before = os_threads();
    let standby = Standby::start(StandbyConfig {
        primary_repl,
        ..StandbyConfig::default()
    })
    .expect("bind loopback");
    let threads = os_threads() - before;
    standby.stop().expect("standby stops");
    threads
}

/// The median of `per_call`: the steady-state cost, ignoring the rare
/// call during which a reused buffer happens to grow.
fn median(mut per_call: Vec<usize>) -> usize {
    per_call.sort_unstable();
    per_call[per_call.len() / 2]
}

/// Allocations made, by any thread, while `f` runs.
fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// A prefix the probe tables lack: withdrawing it is a batch that
/// changes nothing.
fn absent() -> Prefix {
    Prefix::new(u32::MAX, 32)
}

/// Boots a node with `start` and waits until the update plane its
/// service builds after `start` returns is ready: `withdraw` submits a
/// withdrawal of [`absent`], and `wait` returns once that batch is
/// applied. Returns the node, the allocations every thread made
/// meanwhile (`wait`'s own on this thread left out) and the heap bytes
/// then live that were not before.
fn start_until_ready<S>(
    start: impl FnOnce() -> S,
    withdraw: impl FnOnce(&S),
    wait: impl FnOnce(&S),
) -> (S, usize, usize) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let node = start();
    withdraw(&node);
    let waits = own_allocs_during(|| wait(&node));
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs - waits;
    let live = LIVE_BYTES.load(Ordering::Relaxed) - live;
    (node, allocs, live)
}

/// [`start_until_ready`] for `RouterService::start` on `fib`: the wait
/// polls the service's batch count.
fn service_until_ready(fib: &RouteTable) -> (RouterService, usize, usize) {
    assert!(!fib.contains(absent()), "the probe prefix is absent");
    start_until_ready(
        || RouterService::start(fib, &RouterConfig::default()),
        |svc| {
            let _ = svc.submit_update(Update::Withdraw { prefix: absent() });
        },
        |svc| {
            while svc.stats().batches < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
        },
    )
}

/// Allocations every thread makes from `Primary::start` on a fresh data
/// dir seeded with `fib` until its update plane is ready
/// ([`start_until_ready`]). The wait is a client on this thread: it
/// sends the withdrawal, waits for the ack (sent once the batch is
/// journaled, so after the update plane is built), then polls the
/// primary's batch count. Its own allocations are left out; the
/// primary's for the connection count, and the connection stays open
/// until counting ends.
fn allocs_per_primary_start(fib: &RouteTable) -> usize {
    assert!(!fib.contains(absent()), "the probe prefix is absent");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cost-model-primary-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut client = None;
    let (primary, allocs, _) = start_until_ready(
        || Primary::start(&dir, Some(fib), &PrimaryConfig::default()).expect("start primary"),
        |_| {},
        |primary: &Primary| {
            let addr = primary.local_addr().to_string();
            let conn =
                client.insert(Connection::connect(ClientConfig::to_addr(addr)).expect("connect"));
            conn.send_updates(&[Update::Withdraw { prefix: absent() }])
                .expect("send the withdrawal");
            conn.flush_acks().expect("the withdrawal is acked");
            while !primary.stats_json().contains("\"batches\":1,") {
                std::thread::sleep(Duration::from_millis(1));
            }
        },
    );
    drop(client);
    primary.stop().expect("primary stops");
    let _ = fs::remove_dir_all(&dir);
    allocs
}

/// A journal that wants a checkpoint after every append and writes
/// nothing: it sends the allocations its thread made from an append's
/// return to the next checkpoint's entry.
struct ViewProbe {
    after_append: usize,
    gap: mpsc::Sender<usize>,
}

impl UpdateJournal for ViewProbe {
    fn append(&mut self, _: &JournalBatch<'_>) -> io::Result<()> {
        self.after_append = THREAD_ALLOCS.with(Cell::get);
        Ok(())
    }

    fn wants_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint(&mut self, _: &CheckpointView<'_>) -> io::Result<()> {
        let _ = self
            .gap
            .send(THREAD_ALLOCS.with(Cell::get) - self.after_append);
        Ok(())
    }

    fn on_drain(&mut self, _: &CheckpointView<'_>) -> io::Result<()> {
        Ok(())
    }
}

/// Allocations the update thread of a `RouterService` on `fib` makes
/// between a journal append and the checkpoint after it
/// ([`ViewProbe`]). The batch is a withdrawal of [`absent`]: it applies
/// no op and publishes no epoch, so the view is all that is built.
fn allocs_per_checkpoint_view(fib: &RouteTable) -> usize {
    assert!(!fib.contains(absent()), "the probe prefix is absent");
    let (gap, gaps) = mpsc::channel();
    let probe = ViewProbe {
        after_append: 0,
        gap,
    };
    let svc = RouterService::start_with_journal(fib, &RouterConfig::default(), Box::new(probe));
    let _ = svc.submit_update(Update::Withdraw { prefix: absent() });
    let allocs = gaps.recv().expect("the batch reaches a checkpoint");
    drop(svc.drain());
    allocs
}

/// Live heap bytes a plane of `kind` built over `routes` holds that
/// neither its `heap_bytes()` nor its box accounts for.
fn plane_heap_bytes_unreported(kind: BackendKind, routes: &[Route]) -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let plane = build_plane(kind, routes);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - live;
    held.saturating_sub(plane.heap_bytes() + std::mem::size_of_val(&*plane))
}

/// Heap bytes live once a `RouterService` on `fib` is ready
/// ([`service_until_ready`]), per route.
fn heap_bytes_per_route(fib: &RouteTable) -> usize {
    let (svc, _, live) = service_until_ready(fib);
    drop(svc.drain());
    live / fib.len()
}

/// Live heap bytes a `Server` on `fib` holds per closed connection,
/// the most over both transports: the median, over `chunks` runs of
/// `per_chunk` one-shot heartbeats, of the growth across a run. The
/// median ignores the run during which a buffer that tracks live
/// connections (the accept loop's join handles, the reactor's maps and
/// job queue) grows to the most that happened to overlap; a count kept
/// per connection grows every run. Counting starts once the update
/// plane the server builds after `start` is ready (a first
/// connection's withdrawal of [`absent`] is applied).
fn heap_bytes_per_closed_connection(fib: &RouteTable, chunks: usize, per_chunk: usize) -> usize {
    assert!(!fib.contains(absent()), "the probe prefix is absent");
    [Transport::Threads, Transport::Evloop]
        .into_iter()
        .map(|transport| {
            let cfg = ServerConfig {
                transport,
                ..ServerConfig::default()
            };
            let server = Server::start(fib, &cfg).expect("bind loopback");
            let addr = server.local_addr().to_string();
            let mut conn =
                Connection::connect(ClientConfig::to_addr(addr.clone())).expect("connect");
            conn.send_updates(&[Update::Withdraw { prefix: absent() }])
                .expect("send the withdrawal");
            conn.flush_acks().expect("the withdrawal is acked");
            while !server.stats_json().contains("\"batches\":1,") {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(conn);
            // A connection counts as closed a moment before its thread
            // or job has dropped everything: give that moment before
            // each reading.
            let net = server.net_stats();
            let settled = || {
                while net.active() > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(20));
                LIVE_BYTES.load(Ordering::Relaxed)
            };
            let per_run = (0..chunks)
                .map(|_| {
                    let live = settled();
                    for _ in 0..per_chunk {
                        let accepted = net.accepted();
                        client::call(
                            &addr,
                            &Frame::empty(FrameType::Heartbeat, 1),
                            FrameType::HeartbeatAck,
                            Duration::from_secs(2),
                            Duration::from_secs(2),
                        )
                        .expect("one-shot heartbeat");
                        while net.accepted() == accepted || net.active() > 0 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    settled().saturating_sub(live) / per_chunk
                })
                .collect();
            let per_conn = median(per_run);
            server.drain().expect("server drains");
            per_conn
        })
        .max()
        .expect("two transports")
}

/// Allocations the calling thread makes while `f` runs.
fn own_allocs_during(f: impl FnOnce()) -> usize {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

/// Median allocations per `lookup_batch` over `calls` batches of `size`
/// addresses. The address vectors are built before counting starts.
fn allocs_per_lookup_batch(svc: &RouterService, addrs: &[u32], size: usize, calls: usize) -> usize {
    let inputs: Vec<Vec<u32>> = addrs
        .chunks(size)
        .take(calls)
        .map(<[u32]>::to_vec)
        .collect();
    median(
        inputs
            .into_iter()
            .map(|b| allocs_during(|| drop(svc.lookup_batch(b))))
            .collect(),
    )
}

/// Median allocations per `Connection::lookup` of `size` addresses over
/// `calls` round trips to `server`, after one warm-up call.
fn allocs_per_lookup_rtt(server: SocketAddr, addrs: &[u32], size: usize, calls: usize) -> usize {
    let mut conn =
        Connection::connect(ClientConfig::to_addr(server.to_string())).expect("loopback connect");
    let mut lookup = |b: &[u32]| drop(conn.lookup(b).expect("lookup round trip"));
    lookup(&addrs[..size]);
    median(
        addrs
            .chunks(size)
            .take(calls)
            .map(|b| allocs_during(|| lookup(b)))
            .collect(),
    )
}

/// [`allocs_per_lookup_rtt`] of 64 addresses through a `Proxy` over
/// two `Primary` shards without standbys.
fn allocs_per_proxy_lookup_rtt(fib: &RouteTable, addrs: &[u32], calls: usize) -> usize {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cost-model-{}", std::process::id()));
    let cuts = ShardMap::derive(fib, vec![ShardSpec::primary_only("x:0"); 2]).expect("two shards");
    let primaries: Vec<Primary> = (0..2)
        .map(|i| {
            let slice = cuts.filter_table(fib, i);
            Primary::start(
                &dir.join(i.to_string()),
                Some(&slice),
                &PrimaryConfig::default(),
            )
            .expect("start shard")
        })
        .collect();
    let specs = primaries
        .iter()
        .map(|p| ShardSpec::primary_only(p.local_addr().to_string()))
        .collect();
    let map = ShardMap::from_cuts(cuts.cuts().to_vec(), specs).expect("shard map");
    let proxy = Proxy::start(ProxyConfig::new(map)).expect("start proxy");
    let rtt = allocs_per_lookup_rtt(proxy.local_addr(), addrs, 64, calls);
    drop(proxy);
    for p in primaries {
        p.stop().expect("shard stops");
    }
    let _ = fs::remove_dir_all(&dir);
    rtt
}

/// A reader that counts its `read` calls.
struct CountingRead<'a> {
    bytes: &'a [u8],
    reads: usize,
}

impl Read for CountingRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        self.bytes.read(buf)
    }
}

/// The most `read` calls [`FrameDecoder::read_frame`] makes for a
/// 64-address `Lookup` or its `LookupResult`, each alone on the wire.
fn reads_per_frame(addrs: &[u32]) -> usize {
    let lookup = Frame {
        kind: FrameType::Lookup,
        seq: 1,
        payload: wire::encode_lookup(&addrs[..64]),
    };
    let reply = Frame {
        kind: FrameType::LookupResult,
        seq: 1,
        payload: wire::encode_results(&[Some(NextHop(1)); 64]),
    };
    [lookup, reply]
        .iter()
        .map(|frame| {
            let bytes = frame.encode();
            let mut socket = CountingRead {
                bytes: &bytes,
                reads: 0,
            };
            let got = FrameDecoder::new().read_frame(&mut socket);
            assert_eq!(got.expect("whole frame"), *frame);
            socket.reads
        })
        .max()
        .expect("two frames")
}

/// `count` summed over the `.rs` files under `dir`.
fn sum_over_sources(dir: &Path, count: &impl Fn(&str) -> usize) -> usize {
    let mut n = 0;
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            n += sum_over_sources(&path, count);
        } else if path.extension().is_some_and(|e| e == "rs") {
            n += count(&fs::read_to_string(&path).expect("readable source file"));
        }
    }
    n
}

/// Lines containing `needle` in the `.rs` files under `dir`.
fn lines_containing(dir: &Path, needle: &str) -> usize {
    sum_over_sources(dir, &|text| {
        text.lines().filter(|l| l.contains(needle)).count()
    })
}

/// `pub` fields declared inside the `pub struct …Config {` blocks of
/// `text`.
fn config_fields(text: &str) -> usize {
    let mut in_config = false;
    let mut n = 0;
    for line in text.lines().map(str::trim) {
        if line.starts_with("pub struct ") && line.ends_with("Config {") {
            in_config = true;
        } else if line == "}" {
            in_config = false;
        } else if in_config && line.starts_with("pub ") {
            n += 1;
        }
    }
    n
}

/// Lines in the longest `.rs` file directly under `dir`.
fn max_file_lines(dir: &Path) -> usize {
    fs::read_dir(dir)
        .expect("readable source dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| {
            fs::read_to_string(p)
                .expect("readable source file")
                .lines()
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// `count` summed over every `crates/*/src`.
fn crate_sources(count: impl Fn(&Path) -> usize) -> usize {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    fs::read_dir(crates)
        .expect("crates/ dir")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|src| src.is_dir())
        .map(|src| count(&src))
        .sum()
}

/// Lines containing `needle` across every `crates/*/src`.
fn source_sites(needle: &str) -> usize {
    crate_sources(|src| lines_containing(src, needle))
}

#[test]
fn counts_stay_under_their_ceilings() {
    let fib = FibGen::new(91).routes(2_000).generate();
    let addrs = PacketGen::new(92).generate(&fib, 20_000);

    let routes: Vec<Route> = onrtc(&fib).iter().collect();
    let mut plane = None;
    let plane_allocs = allocs_during(|| plane = Some(build_plane(BackendKind::Tcam, &routes)));
    let plane = plane.expect("plane built");
    let plane_bytes = plane.heap_bytes() / plane.len();
    let unreported = [BackendKind::Tcam, BackendKind::Trie, BackendKind::Cfib]
        .map(|kind| plane_heap_bytes_unreported(kind, &routes))
        .into_iter()
        .max()
        .unwrap_or(0);

    let before = os_threads();
    let (svc, start_allocs, _) = service_until_ready(&fib);
    let threads = os_threads() - before;

    let b64 = allocs_per_lookup_batch(&svc, &addrs, 64, 200);
    let b1 = allocs_per_lookup_batch(&svc, &addrs, 1, 400);
    drop(svc.drain());
    let view_allocs = allocs_per_checkpoint_view(&fib);

    let before = os_threads();
    let server = Server::start(&fib, &ServerConfig::default()).expect("bind loopback");
    let net_threads = os_threads() - before;
    let rtt64 = allocs_per_lookup_rtt(server.local_addr(), &addrs, 64, 200);
    server.drain().expect("server drains");
    let standby_threads = threads_per_standby();
    let closed_conn_bytes = heap_bytes_per_closed_connection(&fib, 9, 200);
    let proxy_rtt64 = allocs_per_proxy_lookup_rtt(&fib, &addrs, 200);
    let primary_start_allocs = allocs_per_primary_start(&fib);
    let heap_per_route = heap_bytes_per_route(&FibGen::new(93).routes(100_000).generate());

    let rows = [
        ("router.threads_started", threads, THREADS_PER_SERVICE),
        ("net.threads_started", net_threads, THREADS_PER_SERVER),
        (
            "cluster.threads_per_standby",
            standby_threads,
            THREADS_PER_STANDBY,
        ),
        ("router.allocs_per_start", start_allocs, ALLOCS_PER_START),
        (
            "cluster.allocs_per_primary_start",
            primary_start_allocs,
            ALLOCS_PER_PRIMARY_START,
        ),
        (
            "router.allocs_per_checkpoint_view",
            view_allocs,
            ALLOCS_PER_CHECKPOINT_VIEW,
        ),
        (
            "router.heap_bytes_per_route",
            heap_per_route,
            HEAP_BYTES_PER_ROUTE,
        ),
        (
            "router.allocs_per_lookup_batch.b64",
            b64,
            ALLOCS_PER_LOOKUP_BATCH,
        ),
        (
            "router.allocs_per_lookup_batch.b1",
            b1,
            ALLOCS_PER_LOOKUP_BATCH,
        ),
        (
            "net.allocs_per_lookup_rtt.b64",
            rtt64,
            ALLOCS_PER_LOOKUP_RTT,
        ),
        (
            "net.heap_bytes_per_closed_connection",
            closed_conn_bytes,
            HEAP_BYTES_PER_CLOSED_CONNECTION,
        ),
        (
            "cluster.allocs_per_proxy_lookup_rtt.b64",
            proxy_rtt64,
            ALLOCS_PER_PROXY_LOOKUP_RTT,
        ),
        (
            "net.reads_per_frame",
            reads_per_frame(&addrs),
            READS_PER_FRAME,
        ),
        (
            "core.plane_heap_bytes_per_entry.tcam",
            plane_bytes,
            PLANE_HEAP_BYTES_PER_ENTRY,
        ),
        (
            "core.allocs_per_plane_build.tcam",
            plane_allocs,
            ALLOCS_PER_PLANE_BUILD,
        ),
        (
            "core.plane_heap_bytes_unreported",
            unreported,
            PLANE_HEAP_BYTES_UNREPORTED,
        ),
        ("src.select_sites", source_sites("select!"), SELECT_SITES),
        (
            "src.thread_sleep_sites",
            source_sites("thread::sleep"),
            SLEEP_SITES,
        ),
        (
            "net.dial_sites",
            source_sites("connect_timeout("),
            DIAL_SITES,
        ),
        (
            "oracle.connect_sites",
            lines_containing(
                &Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/oracle/src"),
                "Connection::connect",
            ),
            ORACLE_CONNECT_SITES,
        ),
        (
            "src.cli_max_file_lines",
            max_file_lines(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/cli")),
            CLI_MAX_FILE_LINES,
        ),
        (
            "src.json_format_sites",
            source_sites(r#"{{\""#)
                + lines_containing(
                    &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
                    r#"{{\""#,
                ),
            JSON_FORMAT_SITES,
        ),
        (
            "src.config_fields",
            crate_sources(|src| sum_over_sources(src, &config_fields)),
            CONFIG_FIELDS,
        ),
    ];
    println!("{:<40} {:>8} {:>8}", "cost", "count", "ceiling");
    for (name, count, ceiling) in rows {
        println!("{name:<40} {count:>8} {ceiling:>8}");
    }
    for (name, count, ceiling) in rows {
        assert!(count <= ceiling, "{name}: {count} > ceiling {ceiling}");
    }
}
