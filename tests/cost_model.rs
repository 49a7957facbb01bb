//! The cost model: what the served system spends, counted rather than
//! timed, and asserted as ceilings.
//!
//! A wall-clock reading on a shared host moves both sides of an A/B
//! together; a count does not. This binary counts heap allocations with
//! a counting global allocator (installed in this test binary only), OS
//! threads from `/proc/self/task`, and call sites in `crates/*/src`. It
//! prints one table and fails when any count rises above its ceiling. A
//! change that lowers a count tightens the ceiling in the same diff.
//!
//! It holds exactly one `#[test]`: a second test running in parallel
//! would add its own threads and allocations to the counts.
//!
//! ```sh
//! cargo test -q --test cost_model -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use clue::fib::gen::FibGen;
use clue::net::{ClientConfig, Connection, Server, ServerConfig};
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
/// Lines under `crates/*/src` that use a `select!` macro.
const SELECT_SITES: usize = 0;
/// Lines under `crates/*/src` that call `thread::sleep`.
const SLEEP_SITES: usize = 23;

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
fn allocs_per_lookup_rtt(server: &Server, addrs: &[u32], size: usize, calls: usize) -> usize {
    let mut conn = Connection::connect(ClientConfig::to_addr(server.local_addr().to_string()))
        .expect("loopback connect");
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

    let before = os_threads();
    let svc = RouterService::start(&fib, &RouterConfig::default());
    let threads = os_threads() - before;

    let b64 = allocs_per_lookup_batch(&svc, &addrs, 64, 200);
    let b1 = allocs_per_lookup_batch(&svc, &addrs, 1, 400);
    drop(svc.drain());

    let before = os_threads();
    let server = Server::start(&fib, &ServerConfig::default()).expect("bind loopback");
    let net_threads = os_threads() - before;
    let rtt64 = allocs_per_lookup_rtt(&server, &addrs, 64, 200);
    server.drain().expect("server drains");

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
        ("src.select_sites", source_sites("select!"), SELECT_SITES),
        (
            "src.thread_sleep_sites",
            source_sites("thread::sleep"),
            SLEEP_SITES,
        ),
    ];
    println!("{:<36} {:>8} {:>8}", "cost", "count", "ceiling");
    for (name, count, ceiling) in rows {
        println!("{name:<36} {count:>8} {ceiling:>8}");
    }
    for (name, count, ceiling) in rows {
        assert!(count <= ceiling, "{name}: {count} > ceiling {ceiling}");
    }
}
