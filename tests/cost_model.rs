//! The cost model: what the served system spends, counted rather than
//! timed, and asserted as ceilings.
//!
//! A wall-clock reading on a shared host moves both sides of an A/B
//! together; a count does not. This binary counts heap allocations with
//! a counting global allocator (installed in this test binary only),
//! lookup-plane heap bytes, OS threads from `/proc/self/task`, `read`
//! calls per frame, call sites in `crates/*/src`, and the CLI's longest
//! file. It prints one table and fails when any count rises above its
//! ceiling. A change that lowers a count tightens the ceiling in the
//! same diff.
//!
//! It holds exactly one `#[test]`: a second test running in parallel
//! would add its own threads and allocations to the counts.
//!
//! ```sh
//! cargo test -q --test cost_model -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use clue::cluster::{Primary, PrimaryConfig, Proxy, ProxyConfig, ShardMap, ShardSpec};
use clue::compress::onrtc;
use clue::core::{build_plane, BackendKind};
use clue::fib::gen::FibGen;
use clue::fib::{NextHop, Route, RouteTable};
use clue::net::frame::{Frame, FrameDecoder, FrameType};
use clue::net::{wire, ClientConfig, Connection, Server, ServerConfig};
use clue::router::{RouterConfig, RouterService};
use clue::traffic::PacketGen;

/// Counts every allocation (including growth by `realloc`) made by any
/// thread of this process.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter has no effect on the memory handed
// out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
/// table: a 12-byte ternary word, its 4-byte `up` link, and at most
/// half of a 4-byte index cell.
const PLANE_HEAP_BYTES_PER_ENTRY: usize = 17;
/// Allocations building that plane: the words, the `up` links, the
/// index, and the box.
const ALLOCS_PER_PLANE_BUILD: usize = 4;
/// Lines under `crates/*/src` that use a `select!` macro.
const SELECT_SITES: usize = 0;
/// Lines under `crates/*/src` that call `thread::sleep`.
const SLEEP_SITES: usize = 23;
/// Lines in the longest file under `src/bin/cli`: one module per
/// subcommand group keeps the CLI from growing back into one file.
const CLI_MAX_FILE_LINES: usize = 339;

fn os_threads() -> usize {
    fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
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

/// Lines containing `needle` in the `.rs` files under `dir`.
fn lines_containing(dir: &Path, needle: &str) -> usize {
    let mut n = 0;
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            n += lines_containing(&path, needle);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("readable source file");
            n += text.lines().filter(|l| l.contains(needle)).count();
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

/// Lines containing `needle` across every `crates/*/src`.
fn source_sites(needle: &str) -> usize {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    fs::read_dir(crates)
        .expect("crates/ dir")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|src| src.is_dir())
        .map(|src| lines_containing(&src, needle))
        .sum()
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

    let before = os_threads();
    let svc = RouterService::start(&fib, &RouterConfig::default());
    let threads = os_threads() - before;

    let b64 = allocs_per_lookup_batch(&svc, &addrs, 64, 200);
    let b1 = allocs_per_lookup_batch(&svc, &addrs, 1, 400);
    drop(svc.drain());

    let before = os_threads();
    let server = Server::start(&fib, &ServerConfig::default()).expect("bind loopback");
    let net_threads = os_threads() - before;
    let rtt64 = allocs_per_lookup_rtt(server.local_addr(), &addrs, 64, 200);
    server.drain().expect("server drains");
    let proxy_rtt64 = allocs_per_proxy_lookup_rtt(&fib, &addrs, 200);

    let rows = [
        ("router.threads_started", threads, THREADS_PER_SERVICE),
        ("net.threads_started", net_threads, THREADS_PER_SERVER),
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
        ("src.select_sites", source_sites("select!"), SELECT_SITES),
        (
            "src.thread_sleep_sites",
            source_sites("thread::sleep"),
            SLEEP_SITES,
        ),
        (
            "src.cli_max_file_lines",
            max_file_lines(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/cli")),
            CLI_MAX_FILE_LINES,
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
