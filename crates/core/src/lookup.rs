//! The multi-backend lookup data plane: one trait, four engines.
//!
//! Everything that answers "which route matches this address?" at
//! packet rate sits behind [`LookupPlane`]. The router's epoch
//! publication builds one plane per worker from the (non-overlapping)
//! compressed table and swaps them atomically; a backend therefore
//! never sees an in-place mutation — it is built once from a route
//! snapshot and read concurrently until the epoch is retired.
//!
//! Four implementations, selectable by [`BackendKind`]; three live
//! here, and `tiled` arrives from `clue-tile` through
//! [`register_tiled_builder`]:
//!
//! * [`TcamPlane`] — the TCAM word array of the paper's encoder-free
//!   hardware, kept in address order. ONRTC content is a run of
//!   disjoint ranges, so the one word an address can match is the one
//!   with the greatest start ≤ it; a first-level index with one cell
//!   per eight words narrows the search for it to one binary search
//!   inside a cell. A word is a u32 start and a bit-packed code that
//!   is either 0 (a gap in the cover) or its next hop + 1, as wide as
//!   the plane's largest hop + 1 needs; a prefix's length is read off the
//!   next word's start. Nested sets are flattened into longest-match
//!   intervals that also keep their matched lengths.
//! * [`TriePlane`] — a flattened multibit trie with level-compressed
//!   16/8/8 strides. The root level is one 2^16 slot array (256 KiB of
//!   u32 slots, sequential-prefetch friendly); longer prefixes expand
//!   into 256-entry child blocks packed contiguously in one arena so a
//!   lookup touches at most three cache lines.
//! * [`CfibPlane`] — an entropy-style compressed FIB in the spirit of
//!   Rétvári et al. ("Compressing IP Forwarding Tables: Towards
//!   Entropy Bounds and Beyond"): the LPM function is flattened into
//!   disjoint address intervals, adjacent intervals with equal labels
//!   are merged, and the per-interval labels are dictionary-coded and
//!   bit-packed to ⌈log2(distinct labels)⌉ bits each (the same
//!   `PackedCodes` the TCAM words use).
//!
//! All four resolve the *matched route* (prefix and next hop), not
//! just the next hop — the oracle's cross-backend tests check that the
//! matched route itself, not only its hop, is identical on every
//! backend.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use clue_fib::{mask, NextHop, Prefix, Route, RouteTable, Trie};

/// Which lookup backend a router (or bench, or check) runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendKind {
    /// The TCAM word array in address order (the paper's hardware
    /// model).
    #[default]
    Tcam,
    /// The flattened 16/8/8 multibit trie.
    Trie,
    /// The entropy-style interval-compressed FIB.
    Cfib,
    /// The tiled TCAM scale-out plane (provided by `clue-tile`; its
    /// builder arrives through [`register_tiled_builder`]).
    Tiled,
}

impl BackendKind {
    /// Every backend, in conformance-matrix order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Tcam,
        BackendKind::Trie,
        BackendKind::Cfib,
        BackendKind::Tiled,
    ];

    /// The CLI / JSON name (`tcam`, `trie`, `cfib`, `tiled`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Tcam => "tcam",
            BackendKind::Trie => "trie",
            BackendKind::Cfib => "cfib",
            BackendKind::Tiled => "tiled",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a backend name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    got: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected tcam, trie, cfib, or tiled)",
            self.got
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tcam" => Ok(BackendKind::Tcam),
            "trie" => Ok(BackendKind::Trie),
            "cfib" => Ok(BackendKind::Cfib),
            "tiled" => Ok(BackendKind::Tiled),
            other => Err(ParseBackendError {
                got: other.to_owned(),
            }),
        }
    }
}

/// An immutable, concurrently readable longest-prefix-match engine.
///
/// # Contract
///
/// A plane is built from one snapshot of routes and never mutated;
/// updates are applied by building a *new* plane from the post-batch
/// table and publishing it (the router's epoch swap). Implementations
/// may therefore precompute freely and must be `Send + Sync`.
///
/// When the route set is non-overlapping (ONRTC output — the only
/// thing the router ever publishes), [`lookup`](Self::lookup) must
/// return the unique containing route. Backends built from general
/// (overlapping) sets must return the longest match, so the flat-scan
/// oracle is the reference for every input.
pub trait LookupPlane: fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// The longest-prefix match for `addr`: the matched route itself
    /// (prefix and next hop), which every backend must agree on, not
    /// just the next hop.
    fn lookup(&self, addr: u32) -> Option<Route>;

    /// Routes the plane was built from.
    fn len(&self) -> usize;

    /// Whether the plane holds no routes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes (for compression reporting).
    fn heap_bytes(&self) -> usize;

    /// Convenience: just the next hop of the match.
    fn next_hop(&self, addr: u32) -> Option<NextHop> {
        self.lookup(addr).map(|r| r.next_hop)
    }
}

/// A registered out-of-crate plane constructor (see
/// [`register_tiled_builder`]).
pub type PlaneBuilder = fn(&[Route]) -> Box<dyn LookupPlane>;

/// The `tiled` backend's builder, installed by `clue_tile::install()`.
///
/// `clue-core` defines the [`BackendKind::Tiled`] name so every layer
/// (CLI parsing, the oracle's conformance matrix, epoch publication)
/// can route on it, but the implementation lives upstream in
/// `crates/tile` — which depends on this crate and therefore cannot be
/// linked from here. The builder is injected instead.
static TILED_BUILDER: OnceLock<PlaneBuilder> = OnceLock::new();

/// Registers the `tiled` plane constructor. Idempotent; the first
/// registration wins (all callers register the same function).
pub fn register_tiled_builder(builder: PlaneBuilder) {
    let _ = TILED_BUILDER.set(builder);
}

/// Whether `kind` can be built in this process (always true for the
/// in-crate backends; true for `tiled` once `clue_tile::install()` has
/// run).
#[must_use]
pub fn backend_available(kind: BackendKind) -> bool {
    kind != BackendKind::Tiled || TILED_BUILDER.get().is_some()
}

/// Builds the backend of `kind` over a route snapshot.
///
/// # Panics
///
/// Panics if `routes` contains duplicate prefixes (a route *set* is
/// required; next-hop collisions on distinct prefixes are fine), or if
/// `kind` is [`BackendKind::Tiled`] and no builder was registered —
/// call `clue_tile::install()` first (the router, oracle, and CLI
/// entry points all do).
#[must_use]
pub fn build_plane(kind: BackendKind, routes: &[Route]) -> Box<dyn LookupPlane> {
    try_build_plane(kind, routes)
        .unwrap_or_else(|| panic!("backend {kind} not registered (call clue_tile::install())"))
}

/// Builds the backend of `kind`, or `None` if `kind` is a registered
/// backend whose builder has not been installed in this process.
#[must_use]
pub fn try_build_plane(kind: BackendKind, routes: &[Route]) -> Option<Box<dyn LookupPlane>> {
    Some(match kind {
        BackendKind::Tcam => Box::new(TcamPlane::build(routes)),
        BackendKind::Trie => Box::new(TriePlane::build(routes)),
        BackendKind::Cfib => Box::new(CfibPlane::build(routes)),
        BackendKind::Tiled => TILED_BUILDER.get()?(routes),
    })
}

/// Builds the backend of `kind` over a whole table.
#[must_use]
pub fn plane_from_table(kind: BackendKind, table: &RouteTable) -> Box<dyn LookupPlane> {
    let routes: Vec<Route> = table.iter().collect();
    build_plane(kind, &routes)
}

/// Fixed-width codes packed end to end into u64s, so that a code may
/// straddle two of them. The width is chosen at build: the bits the
/// largest code needs, and at least one.
#[derive(Debug)]
struct PackedCodes {
    words: Box<[u64]>,
    bits: u32,
    /// The low `bits` bits.
    mask: u64,
}

impl PackedCodes {
    /// Where code `i` begins: its u64 and the bit inside it.
    #[inline]
    fn at(&self, i: usize) -> (usize, u32) {
        let bit = i * self.bits as usize;
        (bit / 64, (bit % 64) as u32)
    }

    /// Code `i`.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        let (w, off) = self.at(i);
        // The next u64 is read whether or not the code straddles into
        // it (no branch to mispredict): the mask drops its bits past
        // the code, and the split shift drops all of it when `off` is 0.
        let lo = self.words[w] >> off;
        let hi = self.words.get(w + 1).map_or(0, |&h| h << 1 << (63 - off));
        (lo | hi) & self.mask
    }

    /// Starts loading the u64 that holds the beginning of code `i`.
    #[inline(always)]
    fn prefetch(&self, i: usize) {
        prefetch(&self.words, self.at(i).0);
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }
}

/// Fills a [`PackedCodes`] in order, a u64 at a time.
struct CodePacker {
    codes: PackedCodes,
    /// The u64 being filled, and how many of its bits are.
    acc: u64,
    used: u32,
    /// The u64s already full.
    full: usize,
}

impl CodePacker {
    /// A packer for `len` codes, each at most `max`.
    fn new(len: usize, max: u64) -> Self {
        let bits = (u64::BITS - max.leading_zeros()).max(1);
        let words = vec![0; (len * bits as usize).div_ceil(64)].into_boxed_slice();
        CodePacker {
            codes: PackedCodes {
                words,
                bits,
                mask: u64::MAX >> (64 - bits),
            },
            acc: 0,
            used: 0,
            full: 0,
        }
    }

    /// Appends `code`.
    #[inline]
    fn push(&mut self, code: u64) {
        debug_assert!(code <= u64::MAX >> (64 - self.codes.bits), "code too wide");
        self.acc |= code << self.used;
        self.used += self.codes.bits;
        if self.used >= 64 {
            self.codes.words[self.full] = self.acc;
            self.full += 1;
            self.used -= 64;
            // The bits of `code` that did not fit.
            self.acc = code.checked_shr(self.codes.bits - self.used).unwrap_or(0);
        }
    }

    /// The codes pushed.
    ///
    /// # Panics
    ///
    /// Panics if the codes pushed do not take as many u64s as the `len`
    /// codes promised to [`CodePacker::new`].
    fn finish(mut self) -> PackedCodes {
        if self.used > 0 {
            self.codes.words[self.full] = self.acc;
            self.full += 1;
        }
        assert_eq!(self.full, self.codes.words.len(), "every code pushed");
        self.codes
    }
}

/// The TCAM word array in address order, one word per range of the
/// cover, behind a first-level index.
///
/// CLUE stores non-overlapping content, which is why its TCAM needs no
/// priority encoder; it also means the content is a run of disjoint
/// ranges, and an address can match only the word with the greatest
/// start ≤ it. A word holds that start and a code: 0 for a gap in the
/// cover, which is a word of its own, and `hop + 1` for a route. The
/// codes are bit-packed as wide as the plane's largest hop + 1 needs
/// (5 bits for 24 hops, 17 for hop `u16::MAX`). A prefix of the cover
/// ends where the next word starts, so its length is not stored:
/// `len = 32 - trailing_zeros(next start - start)`, where the last
/// word's next start is 2^32. A lookup finds the word by address —
/// `root` narrows the search to the words of one index cell, and a
/// binary search inside the cell finds the first start above `addr` —
/// then steps back one word and reads its code.
///
/// A nested set, which the [`LookupPlane`] contract still requires to
/// resolve, is flattened into its longest-match intervals first (the
/// boundary pass [`CfibPlane`] also uses), and `lens` holds each
/// interval's matched length; it is empty for non-overlapping content.
#[derive(Debug)]
pub struct TcamPlane {
    /// The index cells, then the word starts, in one buffer. `root[k]`
    /// is the first word whose `start >> shift` is `≥ base + k`; a
    /// cell's words end where the next cell's begin.
    buf: Box<[u32]>,
    /// Index cells at the front of `buf`.
    cells: usize,
    /// Per word 0 for a gap, or its next hop + 1.
    codes: PackedCodes,
    /// Only for nested sets, per word its matched prefix length.
    lens: Box<[u8]>,
    shift: u32,
    base: u32,
    /// Routes the plane was built from.
    routes: usize,
}

/// A disjoint run of routes in address order: how many words it takes,
/// one per route and one per gap after a route (below the first route
/// nothing matches, so a leading gap needs no word), and its largest
/// hop (0 if it has none). `None` if `routes` is not such a run.
///
/// A gap word follows a route whose successor does not begin right
/// after it, and the last route unless it reaches the top of the
/// address space. Both passes over the run walk it as `windows(2)` and
/// then the last route: with the successor as an `Option` (a checked
/// `get`, or a chained iterator) the 390 K-route build took ≈ 1.15×
/// as long.
fn cover_words(routes: &[Route]) -> Option<(usize, NextHop)> {
    let mut words = routes.len();
    let mut top = NextHop(0);
    for pair in routes.windows(2) {
        let (r, next) = (&pair[0], pair[1].prefix.low());
        let high = r.prefix.high();
        if high >= next {
            return None;
        }
        words += usize::from(high + 1 != next);
        top = top.max(r.next_hop);
    }
    if let Some(r) = routes.last() {
        words += usize::from(r.prefix.high() != u32::MAX);
        top = top.max(r.next_hop);
    }
    Some((words, top))
}

/// Writes a plane's words in address order into its buffers, indexing
/// each as it goes.
struct WordWriter<'a> {
    root: &'a mut [u32],
    starts: &'a mut [u32],
    codes: CodePacker,
    /// Words written so far.
    written: usize,
    shift: u32,
    base: u32,
    /// Index cells filled so far.
    indexed: usize,
}

impl WordWriter<'_> {
    /// Appends a word: its start and its hop, or none on a gap.
    #[inline]
    fn push(&mut self, start: u32, hop: Option<NextHop>) {
        let i = self.written;
        self.starts[i] = start;
        self.codes.push(hop.map_or(0, |hop| u64::from(hop.0) + 1));
        self.written += 1;
        let cell = ((start >> self.shift) - self.base) as usize;
        while self.indexed <= cell {
            self.root[self.indexed] = i as u32;
            self.indexed += 1;
        }
    }
}

impl TcamPlane {
    /// Lays `routes` out as words and indexes them.
    ///
    /// A disjoint run already in address order (what every publishing
    /// caller passes) is read as it is; anything else is sorted first,
    /// and a nested set is flattened into its longest-match intervals.
    ///
    /// # Panics
    ///
    /// Panics on duplicate prefixes.
    #[must_use]
    pub fn build(routes: &[Route]) -> Self {
        if let Some(words) = cover_words(routes) {
            return Self::from_cover(routes, words);
        }
        let mut sorted = routes.to_vec();
        sorted.sort_unstable_by_key(|r| r.prefix);
        for p in sorted.windows(2) {
            if p[0].prefix == p[1].prefix {
                panic!("prefix {} already stored", p[0].prefix);
            }
        }
        if let Some(words) = cover_words(&sorted) {
            return Self::from_cover(&sorted, words);
        }
        let (starts, labels) = lpm_intervals(&sorted);
        let skip = usize::from(labels[0].is_none());
        let (starts, labels) = (&starts[skip..], &labels[skip..]);
        let lens = labels.iter().map(|l| l.map_or(0, |(len, _)| len)).collect();
        let span = starts.first().zip(starts.last()).map(|(&f, &l)| (f, l));
        let top = labels.iter().flatten().map(|&(_, hop)| hop).max();
        let top = top.unwrap_or_default();
        Self::from_words(starts.len(), span, top, lens, routes.len(), |w| {
            for (&start, label) in starts.iter().zip(labels) {
                w.push(start, label.map(|(_, hop)| hop));
            }
        })
    }

    /// The plane of a disjoint run of `words` words in address order:
    /// each route's start and hop, and a gap word wherever the next
    /// route does not begin right after it.
    fn from_cover(routes: &[Route], (words, top): (usize, NextHop)) -> Self {
        let last_start = |r: &Route| r.prefix.high().checked_add(1).unwrap_or(r.prefix.low());
        let span = routes.first().zip(routes.last());
        let span = span.map(|(first, last)| (first.prefix.low(), last_start(last)));
        Self::from_words(words, span, top, Box::default(), routes.len(), |w| {
            for pair in routes.windows(2) {
                let (r, next) = (&pair[0], pair[1].prefix.low());
                w.push(r.prefix.low(), Some(r.next_hop));
                // `cover_words` saw each route end below the next start.
                let end = r.prefix.high() + 1;
                if end != next {
                    w.push(end, None);
                }
            }
            if let Some(r) = routes.last() {
                w.push(r.prefix.low(), Some(r.next_hop));
                if let Some(end) = r.prefix.high().checked_add(1) {
                    w.push(end, None);
                }
            }
        })
    }

    /// A plane of `words` words whose starts run from `span`'s first to
    /// its last and whose largest hop is `top`, in exactly sized
    /// buffers: `fill` pushes the words in address order.
    fn from_words(
        words: usize,
        span: Option<(u32, u32)>,
        top: NextHop,
        lens: Box<[u8]>,
        routes: usize,
        fill: impl FnOnce(&mut WordWriter<'_>),
    ) -> Self {
        let n = u32::try_from(words).expect("at most u32::MAX words");
        // The finest index with at most one cell per eight words (eight
        // u32 starts are half a cache line) and at least two cells,
        // which shift 31 always meets; one word needs only one cell.
        let (shift, base, cells) = match span {
            Some((first, last)) => {
                let max_cells = (n / 8).max(2);
                let shift = (0..32)
                    .find(|&s| (last >> s) - (first >> s) < max_cells)
                    .expect("shift 31 leaves at most two cells");
                let base = first >> shift;
                (shift, base, ((last >> shift) - base + 1) as usize)
            }
            None => (0, 0, 0),
        };
        let mut buf = vec![0; cells + words].into_boxed_slice();
        let (root, starts) = buf.split_at_mut(cells);
        let mut writer = WordWriter {
            root,
            starts,
            codes: CodePacker::new(words, u64::from(top.0) + 1),
            written: 0,
            shift,
            base,
            indexed: 0,
        };
        fill(&mut writer);
        // Not `assert_eq!`, which takes the counter's address: that kept
        // the whole writer in memory through the loop, and the build
        // took 1.4× as long.
        let written = writer.written;
        assert!(written == words, "{written} of {words} words written");
        TcamPlane {
            codes: writer.codes.finish(),
            buf,
            cells,
            lens,
            shift,
            base,
            routes,
        }
    }

    /// The index cells and the word starts.
    fn parts(&self) -> (&[u32], &[u32]) {
        self.buf.split_at(self.cells)
    }

    /// The word that holds `addr` and its hop: the last word starting
    /// at or below it, unless that one is a gap.
    #[inline(always)]
    fn word(&self, addr: u32) -> Option<(usize, NextHop)> {
        let (root, starts) = self.parts();
        // Below the first cell every word starts above `addr`.
        let cell = (addr >> self.shift).checked_sub(self.base)? as usize;
        // One past the last word starting at or below `addr`; past the
        // last cell, that is every word.
        let end = match root.get(cell) {
            Some(&lo) => {
                let lo = lo as usize;
                let hi = root.get(cell + 1).map_or(starts.len(), |&h| h as usize);
                // The code is read from a second array: start loading
                // the cell's codes while its starts are searched.
                self.codes.prefetch(lo.saturating_sub(1));
                lo + starts[lo..hi].partition_point(|&s| s <= addr)
            }
            None => starts.len(),
        };
        let i = end.checked_sub(1)?;
        let hop = self.codes.get(i).checked_sub(1)?;
        Some((i, NextHop(hop as u16)))
    }
}

/// Asks the CPU to start loading the cache line that holds `items[i]`,
/// so it is on its way while other loads are in flight. Only a hint: it
/// does nothing off x86-64, and an `i` out of range reads nothing.
#[inline(always)]
fn prefetch<T>(items: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and changes no memory, whatever
    // the address; `wrapping_add` keeps the pointer arithmetic defined.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(items.as_ptr().wrapping_add(i).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (items, i);
}

impl LookupPlane for TcamPlane {
    fn kind(&self) -> BackendKind {
        BackendKind::Tcam
    }

    fn lookup(&self, addr: u32) -> Option<Route> {
        let (i, hop) = self.word(addr)?;
        let len = match self.lens.get(i) {
            Some(&len) => len,
            None => {
                let (_, starts) = self.parts();
                let next = starts.get(i + 1).map_or(1 << 32, |&s| u64::from(s));
                (32 - (next - u64::from(starts[i])).trailing_zeros()) as u8
            }
        };
        Some(Route::new(Prefix::new(addr, len), hop))
    }

    fn next_hop(&self, addr: u32) -> Option<NextHop> {
        self.word(addr).map(|(_, hop)| hop)
    }

    fn len(&self) -> usize {
        self.routes
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.buf)
            + self.codes.heap_bytes()
            + std::mem::size_of_val(&*self.lens)
    }
}

/// Pointer flag: the slot refers to a 256-entry child block.
const PTR: u32 = 1 << 31;
/// Leaf flag: the slot holds a (next hop, prefix length) match.
const LEAF: u32 = 1 << 30;
/// Shift of the prefix length inside a leaf slot.
const PLEN_SHIFT: u32 = 16;

/// The flattened multibit trie: 16/8/8 strides, leaf-pushed.
///
/// `root` is a 2^16 slot array indexed by the top 16 address bits;
/// child blocks of 256 slots each (for the middle and low bytes) live
/// packed in one `blocks` arena. A slot is either empty (`0`), a leaf
/// (`LEAF | plen << 16 | nh`), or a pointer (`PTR | block id`), so a
/// lookup is at most three dependent u32 loads with no branches on
/// route count.
///
/// Build inserts routes in ascending prefix-length order: a shorter
/// prefix then never lands on top of a pointer installed by a longer
/// one, so leaf pushing happens only at block creation (the new block
/// inherits the covering leaf) and never needs recursive repair.
#[derive(Debug)]
pub struct TriePlane {
    root: Vec<u32>,
    blocks: Vec<u32>,
    entries: usize,
}

impl TriePlane {
    /// Builds the flattened trie over `routes` (overlap allowed; the
    /// longest match wins, as the oracle demands).
    #[must_use]
    pub fn build(routes: &[Route]) -> Self {
        let mut sorted: Vec<Route> = routes.to_vec();
        sorted.sort_unstable_by_key(|r| (r.prefix.len(), r.prefix.bits()));
        let mut plane = TriePlane {
            root: vec![0u32; 1 << 16],
            blocks: Vec::new(),
            entries: sorted.len(),
        };
        for r in sorted {
            plane.insert(r);
        }
        plane.blocks.shrink_to_fit();
        plane
    }

    /// The leaf slot that holds `addr`'s match, if any.
    #[inline]
    fn leaf_of(&self, addr: u32) -> Option<u32> {
        let mut v = self.root[(addr >> 16) as usize];
        if v & PTR != 0 {
            v = self.blocks[(((v & !PTR) as usize) << 8) | ((addr >> 8) & 0xFF) as usize];
            if v & PTR != 0 {
                v = self.blocks[(((v & !PTR) as usize) << 8) | (addr & 0xFF) as usize];
            }
        }
        (v & LEAF != 0).then_some(v)
    }

    fn leaf(nh: NextHop, plen: u8) -> u32 {
        LEAF | (u32::from(plen) << PLEN_SHIFT) | u32::from(nh.0)
    }

    /// Child-block base for `root[ri]`, allocating (and inheriting the
    /// covering leaf) if the slot is not a pointer yet.
    fn block_under_root(&mut self, ri: usize) -> usize {
        let v = self.root[ri];
        if v & PTR != 0 {
            return ((v & !PTR) as usize) << 8;
        }
        let id = (self.blocks.len() >> 8) as u32;
        self.blocks.extend(std::iter::repeat_n(v, 256));
        self.root[ri] = PTR | id;
        (id as usize) << 8
    }

    /// Child-block base for arena slot `idx`, allocating likewise.
    fn block_under(&mut self, idx: usize) -> usize {
        let v = self.blocks[idx];
        if v & PTR != 0 {
            return ((v & !PTR) as usize) << 8;
        }
        let id = (self.blocks.len() >> 8) as u32;
        self.blocks.extend(std::iter::repeat_n(v, 256));
        self.blocks[idx] = PTR | id;
        (id as usize) << 8
    }

    fn insert(&mut self, r: Route) {
        let plen = r.prefix.len();
        let leaf = Self::leaf(r.next_hop, plen);
        let (lo, hi) = (r.prefix.low(), r.prefix.high());
        if plen <= 16 {
            // Ascending-length build: these slots cannot be pointers
            // yet (pointers are installed only by longer prefixes).
            for slot in &mut self.root[(lo >> 16) as usize..=(hi >> 16) as usize] {
                debug_assert_eq!(*slot & PTR, 0, "short prefix over a pointer");
                *slot = leaf;
            }
        } else if plen <= 24 {
            let base = self.block_under_root((lo >> 16) as usize);
            let (bl, bh) = (((lo >> 8) & 0xFF) as usize, ((hi >> 8) & 0xFF) as usize);
            for slot in &mut self.blocks[base + bl..=base + bh] {
                debug_assert_eq!(*slot & PTR, 0, "mid prefix over a pointer");
                *slot = leaf;
            }
        } else {
            let base = self.block_under_root((lo >> 16) as usize);
            let base = self.block_under(base + (((lo >> 8) & 0xFF) as usize));
            let (bl, bh) = ((lo & 0xFF) as usize, (hi & 0xFF) as usize);
            for slot in &mut self.blocks[base + bl..=base + bh] {
                *slot = leaf;
            }
        }
    }
}

impl LookupPlane for TriePlane {
    fn kind(&self) -> BackendKind {
        BackendKind::Trie
    }

    fn lookup(&self, addr: u32) -> Option<Route> {
        let v = self.leaf_of(addr)?;
        let plen = ((v >> PLEN_SHIFT) & 0x3F) as u8;
        let nh = NextHop((v & 0xFFFF) as u16);
        Some(Route::new(Prefix::new(addr & mask(plen), plen), nh))
    }

    fn next_hop(&self, addr: u32) -> Option<NextHop> {
        self.leaf_of(addr).map(|v| NextHop((v & 0xFFFF) as u16))
    }

    fn len(&self) -> usize {
        self.entries
    }

    fn heap_bytes(&self) -> usize {
        (self.root.capacity() + self.blocks.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The longest-match function of `routes` (overlap allowed) as
/// disjoint intervals: interval `i` runs from `starts[i]` to the next
/// start, and `labels[i]` is the `(prefix length, next hop)` of its
/// match, or none. Every prefix boundary (`low`, `high + 1`) is a
/// candidate start; adjacent intervals with equal labels are merged,
/// and `starts[0] == 0`.
fn lpm_intervals(routes: &[Route]) -> (Vec<u32>, Vec<Option<(u8, NextHop)>>) {
    let reference: Trie<NextHop> = routes.iter().map(|r| (r.prefix, r.next_hop)).collect();
    let mut bounds: Vec<u32> = Vec::with_capacity(routes.len() * 2 + 1);
    bounds.push(0);
    for r in routes {
        bounds.push(r.prefix.low());
        if r.prefix.high() != u32::MAX {
            bounds.push(r.prefix.high() + 1);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();

    let mut starts: Vec<u32> = Vec::new();
    let mut labels: Vec<Option<(u8, NextHop)>> = Vec::new();
    for &b in &bounds {
        let label = reference.lookup(b).map(|(p, &nh)| (p.len(), nh));
        if labels.last() == Some(&label) {
            continue;
        }
        starts.push(b);
        labels.push(label);
    }
    (starts, labels)
}

/// An interval label: the `(prefix length, next hop)` of the match, or
/// none. Encoded as a dense u32 key for dictionary building.
fn label_key(label: Option<(u8, NextHop)>) -> u32 {
    match label {
        None => u32::MAX,
        Some((plen, nh)) => (u32::from(plen) << 16) | u32::from(nh.0),
    }
}

/// The entropy-style compressed FIB: LPM flattened to disjoint address
/// intervals with dictionary-coded, bit-packed labels.
///
/// The intervals are those of `lpm_intervals`: between consecutive prefix
/// boundaries the LPM answer is constant, and adjacent intervals with
/// equal `(plen, next hop)` labels merge. The surviving labels are coded through a dictionary
/// and stored in ⌈log2(dictionary size)⌉ bits each — the
/// information-theoretic floor for a memoryless label stream, per the
/// Rétvári et al. line of work. A lookup is one `partition_point`
/// binary search plus one bit-extract.
#[derive(Debug)]
pub struct CfibPlane {
    /// Sorted interval starts; `starts[0] == 0` always.
    starts: Vec<u32>,
    /// Label codes, one per interval.
    codes: PackedCodes,
    /// Code → label.
    dict: Vec<Option<(u8, NextHop)>>,
    entries: usize,
}

impl CfibPlane {
    /// Flattens `routes` (overlap allowed; longest match wins) into
    /// the interval-coded form.
    #[must_use]
    pub fn build(routes: &[Route]) -> Self {
        let (mut starts, labels) = lpm_intervals(routes);
        starts.shrink_to_fit();

        // Dictionary-code the labels.
        let mut dict: Vec<Option<(u8, NextHop)>> = Vec::new();
        let mut code_of: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let label_codes: Vec<u64> = labels
            .iter()
            .map(|&label| {
                *code_of.entry(label_key(label)).or_insert_with(|| {
                    dict.push(label);
                    dict.len() as u64 - 1
                })
            })
            .collect();
        dict.shrink_to_fit();
        let mut codes = CodePacker::new(label_codes.len(), dict.len() as u64 - 1);
        for &c in &label_codes {
            codes.push(c);
        }

        CfibPlane {
            starts,
            codes: codes.finish(),
            dict,
            entries: routes.len(),
        }
    }

    /// The label of the interval that holds `addr`.
    #[inline]
    fn label_of(&self, addr: u32) -> Option<(u8, NextHop)> {
        let idx = self.starts.partition_point(|&s| s <= addr) - 1;
        self.dict[self.codes.get(idx) as usize]
    }

    /// Distinct labels in the dictionary (compression diagnostics).
    #[must_use]
    pub fn dictionary_len(&self) -> usize {
        self.dict.len()
    }

    /// Intervals after merging (compression diagnostics).
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.starts.len()
    }
}

impl LookupPlane for CfibPlane {
    fn kind(&self) -> BackendKind {
        BackendKind::Cfib
    }

    fn lookup(&self, addr: u32) -> Option<Route> {
        let (plen, nh) = self.label_of(addr)?;
        Some(Route::new(Prefix::new(addr & mask(plen), plen), nh))
    }

    fn next_hop(&self, addr: u32) -> Option<NextHop> {
        self.label_of(addr).map(|(_, nh)| nh)
    }

    fn len(&self) -> usize {
        self.entries
    }

    fn heap_bytes(&self) -> usize {
        self.starts.capacity() * std::mem::size_of::<u32>()
            + self.codes.heap_bytes()
            + self.dict.capacity() * std::mem::size_of::<Option<(u8, NextHop)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_compress::onrtc;
    use clue_fib::gen::FibGen;

    fn flat_lpm(routes: &[Route], addr: u32) -> Option<Route> {
        routes
            .iter()
            .filter(|r| r.prefix.contains_addr(addr))
            .max_by_key(|r| r.prefix.len())
            .copied()
    }

    fn probe_addrs(routes: &[Route]) -> Vec<u32> {
        let mut addrs = vec![0, 1, u32::MAX, u32::MAX - 1, 0x8000_0000];
        for r in routes {
            let (lo, hi) = (r.prefix.low(), r.prefix.high());
            addrs.extend([lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]);
            addrs.push(lo ^ (1 << (31 - u32::from(r.prefix.len().max(1) - 1))));
        }
        addrs
    }

    fn assert_all_agree(routes: &[Route]) {
        // `tiled` is registered by clue-tile's install(); in clue-core's
        // own test binary it is absent and skipped.
        let planes: Vec<Box<dyn LookupPlane>> = BackendKind::ALL
            .iter()
            .filter_map(|&k| try_build_plane(k, routes))
            .collect();
        for addr in probe_addrs(routes) {
            let want = flat_lpm(routes, addr);
            for plane in &planes {
                let kind = plane.kind();
                assert_eq!(plane.lookup(addr), want, "{kind} backend at {addr:#010x}");
                assert_eq!(
                    plane.next_hop(addr),
                    want.map(|r| r.next_hop),
                    "{kind} backend's next hop at {addr:#010x}"
                );
            }
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("fpga".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Tcam);
    }

    #[test]
    fn empty_plane_answers_none() {
        for kind in BackendKind::ALL {
            let Some(plane) = try_build_plane(kind, &[]) else {
                continue;
            };
            assert!(plane.is_empty());
            for addr in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
                assert_eq!(plane.lookup(addr), None, "{kind}");
            }
        }
    }

    #[test]
    fn unregistered_tiled_reports_unavailable() {
        // No clue-tile in this binary, so the registry slot is empty.
        assert!(backend_available(BackendKind::Tcam));
        if TILED_BUILDER.get().is_none() {
            assert!(!backend_available(BackendKind::Tiled));
            assert!(try_build_plane(BackendKind::Tiled, &[]).is_none());
        }
    }

    #[test]
    fn default_route_matches_everything() {
        let routes = [Route::new(Prefix::root(), NextHop(7))];
        assert_all_agree(&routes);
    }

    #[test]
    fn host_routes_and_sibling_edges() {
        let routes = [
            Route::new(Prefix::new(0x0A00_0000, 8), NextHop(1)),
            Route::new(Prefix::new(0x0A01_0203, 32), NextHop(2)),
            Route::new(Prefix::new(0x0A01_0202, 32), NextHop(3)),
            Route::new(Prefix::new(0x8000_0000, 1), NextHop(4)),
        ];
        assert_all_agree(&routes);
    }

    #[test]
    fn overlapping_set_resolves_longest_match() {
        let routes = [
            Route::new(Prefix::root(), NextHop(0)),
            Route::new(Prefix::new(0xC000_0000, 2), NextHop(1)),
            Route::new(Prefix::new(0xC0A8_0000, 16), NextHop(2)),
            Route::new(Prefix::new(0xC0A8_0100, 24), NextHop(3)),
            Route::new(Prefix::new(0xC0A8_0180, 25), NextHop(4)),
            Route::new(Prefix::new(0xC0A8_01FE, 31), NextHop(5)),
        ];
        assert_all_agree(&routes);
    }

    fn route(bits: u32, len: u8, nh: u16) -> Route {
        Route::new(Prefix::new(bits, len), NextHop(nh))
    }

    /// Probes `routes`' edges plus `extra` on a [`TcamPlane`] against
    /// the flat scan, and returns the plane.
    fn tcam_agrees(routes: &[Route], extra: &[u32]) -> TcamPlane {
        let plane = TcamPlane::build(routes);
        for addr in probe_addrs(routes).into_iter().chain(extra.iter().copied()) {
            let want = flat_lpm(routes, addr);
            assert_eq!(plane.lookup(addr), want, "{routes:?} at {addr:#010x}");
            assert_eq!(plane.next_hop(addr), want.map(|r| r.next_hop));
        }
        plane
    }

    /// Words in `plane`, and how many of them are gaps (code 0).
    fn words_and_gaps(plane: &TcamPlane) -> (usize, usize) {
        let (_, starts) = plane.parts();
        let gap_words = (0..starts.len()).filter(|&i| plane.codes.get(i) == 0);
        (starts.len(), gap_words.count())
    }

    /// `count` disjoint /24s in address order, with a gap after every
    /// other one, whose hops cycle through `0..=top` from `top` down.
    fn spaced_routes(count: u32, top: u16) -> Vec<Route> {
        (0..count)
            .map(|k| {
                let hop = top - (k % (u32::from(top) + 1)) as u16;
                route(0x0A00_0000 + (k + k / 2) * 0x100, 24, hop)
            })
            .collect()
    }

    #[test]
    fn tcam_flattens_a_three_deep_nest() {
        let routes = [
            route(0x0A01_0200, 24, 3),
            route(0x0A00_0000, 8, 1),
            route(0x0A01_0000, 16, 2),
        ];
        // One probe in each interval of /8 ⊃ /16 ⊃ /24.
        let plane = tcam_agrees(
            &routes,
            &[
                0x0A00_0001,
                0x0A01_0001,
                0x0A01_0305,
                0x0A02_0000,
                0x0B00_0000,
            ],
        );
        // /8, /16, /24, /16 again, /8 again, then the gap above 10/8.
        assert_eq!(&*plane.lens, [8, 16, 24, 16, 8, 0]);
        assert_eq!(words_and_gaps(&plane), (6, 1));
    }

    #[test]
    fn tcam_flattens_a_nest_given_out_of_order() {
        // The /24 and the /16 inside 10/8 come before it, with an
        // unrelated /16 between them; the /24 is not inside the /16.
        let routes = [
            route(0x0A02_0000, 24, 4),
            route(0xC0A8_0000, 16, 2),
            route(0x0A01_0000, 16, 3),
            route(0x0A00_0000, 8, 1),
        ];
        let plane = tcam_agrees(&routes, &[0x0A02_0100, 0x0A01_FFFF, 0xC0A9_0000]);
        assert_eq!(plane.len(), 4);
        assert!(!plane.lens.is_empty());
    }

    #[test]
    fn tcam_flattening_merges_equal_adjacent_intervals() {
        // 10.0/16 and 10.1/16 under 10/8 with equal hops: one interval.
        let routes = [
            route(0x0A00_0000, 8, 1),
            route(0x0A00_0000, 16, 2),
            route(0x0A01_0000, 16, 2),
        ];
        let plane = tcam_agrees(&routes, &[0x0A01_0505, 0x0A00_FFFF, 0x0A02_0000]);
        assert_eq!(words_and_gaps(&plane), (3, 1));
        assert_eq!(&*plane.lens, [16, 8, 0]);
        assert_eq!(plane.lookup(0x0A01_0505), Some(route(0x0A01_0000, 16, 2)));
        assert_eq!(plane.lookup(0x0A00_FFFF), Some(route(0x0A00_0000, 16, 2)));
    }

    #[test]
    fn tcam_stores_a_start_and_a_hop_code_a_word() {
        let table = onrtc(&FibGen::new(42).routes(3_000).generate());
        let routes: Vec<Route> = table.iter().collect();
        let plane = TcamPlane::build(&routes);
        let (words, gap_words) = words_and_gaps(&plane);
        assert!(plane.lens.is_empty());
        assert_eq!(words - gap_words, routes.len());
        assert!(plane.cells <= words / 8, "{} cells", plane.cells);
        let top = routes.iter().map(|r| r.next_hop.0).max().unwrap();
        let bits = 16 - (top + 1).leading_zeros();
        assert_eq!(plane.codes.bits, bits);
        assert_eq!(
            plane.heap_bytes(),
            4 * plane.cells + 4 * words + 8 * (words * bits as usize).div_ceil(64)
        );
    }

    #[test]
    fn tcam_codes_of_every_width_answer_like_the_flat_scan() {
        // 100 routes and 50 gap words: at every width that does not
        // divide 64, some code straddles two u64s.
        for bits in 1..=17u32 {
            let top = ((1u32 << (bits - 1)) - 1) as u16;
            let routes = spaced_routes(100, top);
            let plane = tcam_agrees(&routes, &[]);
            assert_eq!(words_and_gaps(&plane), (150, 50), "{bits} bits");
            assert_eq!(plane.codes.bits, bits);
            let straddles = (0..150).any(|i| plane.codes.at(i).1 + bits > 64);
            assert_eq!(straddles, 64 % bits != 0, "{bits} bits");
        }
    }

    #[test]
    fn tcam_codes_for_hop_u16_max_take_no_more_than_a_hop_and_a_gap_bit() {
        // 17 code bits against a 16-bit hop and a gap bit: level but for
        // rounding, which the u64s of codes can leave at most 7 B over
        // the u32s of gap bits.
        // 85 and 128 routes make 128 and 192 words, where neither rounds.
        for count in [1, 2, 21, 85, 100, 128, 1_000] {
            let routes = spaced_routes(count, u16::MAX);
            let plane = tcam_agrees(&routes, &[]);
            let (words, _) = words_and_gaps(&plane);
            assert_eq!(plane.codes.bits, 17);
            let parent = 4 * plane.cells + 6 * words + 4 * words.div_ceil(32);
            assert!(plane.heap_bytes() < parent + 8, "{count} routes");
            if words % 64 == 0 {
                assert_eq!(plane.heap_bytes(), parent, "{count} routes");
            }
        }
    }

    #[test]
    fn tcam_marker_hop_widens_the_codes_to_sixteen_bits() {
        // The benchmark's alphabet: 24 hops and one marker hop at 50 000.
        let mut routes = spaced_routes(200, 23);
        routes.push(route(0xC0A8_0000, 16, 50_000));
        let plane = tcam_agrees(&routes, &[0xC0A8_FFFF, 0xC0A9_0000]);
        assert_eq!(plane.codes.bits, 16);
        assert_eq!(plane.next_hop(0xC0A8_0101), Some(NextHop(50_000)));
    }

    #[test]
    fn tcam_default_route_ends_at_two_to_the_thirty_second() {
        let plane = tcam_agrees(&[route(0, 0, 7)], &[0x8000_0000]);
        assert_eq!(words_and_gaps(&plane), (1, 0));
        assert_eq!(plane.lookup(u32::MAX), Some(route(0, 0, 7)));
    }

    #[test]
    fn tcam_top_host_route_is_the_last_word() {
        let top = route(u32::MAX, 32, 5);
        let plane = tcam_agrees(&[top], &[]);
        assert_eq!(words_and_gaps(&plane), (1, 0));
        assert_eq!(plane.lookup(u32::MAX), Some(top));
        assert_eq!(plane.lookup(u32::MAX - 1), None);
    }

    #[test]
    fn tcam_upper_half_needs_no_trailing_gap() {
        let half = route(0x8000_0000, 1, 3);
        let plane = tcam_agrees(&[half], &[0x7FFF_FFFF, 0xC000_0000]);
        assert_eq!(words_and_gaps(&plane), (1, 0));
        assert_eq!(plane.lookup(u32::MAX), Some(half));
        assert_eq!(plane.lookup(0x7FFF_FFFF), None);
    }

    #[test]
    fn tcam_gap_words_before_between_and_after() {
        // Nothing below 10/8 (no word), a gap word at 11/8 and one at
        // 13/8 above the last route.
        let routes = [route(0x0A00_0000, 8, 1), route(0x0C00_0000, 8, 2)];
        let plane = tcam_agrees(
            &routes,
            &[
                0,
                0x09FF_FFFF,
                0x0B00_0000,
                0x0BFF_FFFF,
                0x0D00_0000,
                u32::MAX,
            ],
        );
        assert_eq!(words_and_gaps(&plane), (4, 2));
        assert_eq!(plane.lookup(0x0AFF_FFFF), Some(routes[0]));
        assert_eq!(plane.lookup(0x0C00_0000), Some(routes[1]));
    }

    #[test]
    fn tcam_one_route_plane_at_every_length() {
        for len in 0..=32u8 {
            let r = Route::new(Prefix::new(0xA5A5_A5A5, len), NextHop(u16::MAX));
            let plane = TcamPlane::build(&[r]);
            let (lo, hi) = (r.prefix.low(), r.prefix.high());
            assert_eq!(plane.lookup(lo), Some(r), "/{len} at its low end");
            assert_eq!(plane.lookup(hi), Some(r), "/{len} at its high end");
            for outside in [lo.checked_sub(1), hi.checked_add(1)].into_iter().flatten() {
                assert_eq!(plane.lookup(outside), None, "/{len} at {outside:#010x}");
            }
        }
    }

    #[test]
    fn tcam_steps_back_across_empty_index_cells() {
        // 1 024 host routes packed low make the index fine; the /4
        // then spans many empty cells.
        let mut routes: Vec<Route> = (0..1024).map(|i| route(i, 32, 1)).collect();
        routes.push(route(0x1000_0000, 4, 2));
        routes.push(route(0xF000_0000, 32, 3));
        let probe = 0x1FFF_0000;
        let plane = tcam_agrees(&routes, &[probe, 0x2000_0000, u32::MAX]);
        let (root, _) = plane.parts();
        let cell = ((probe >> plane.shift) - plane.base) as usize;
        let home = ((0x1000_0000 >> plane.shift) - plane.base) as usize;
        assert!(cell > home + 1, "probe cell {cell}, /4 cell {home}");
        assert_eq!(root[cell], root[cell + 1], "probe cell is empty");
    }

    #[test]
    fn tcam_edge_geometry_agrees_with_flat_scan() {
        let cases: [&[Route]; 5] = [
            &[],
            &[route(0, 0, 7)],
            &[route(0, 32, 1), route(u32::MAX, 32, 2)],
            &[route(0x0A00_0000, 8, 1), route(0xC800_0000, 8, 2)],
            &[route(0, 32, 1), route(0, 0, 2), route(u32::MAX, 32, 3)],
        ];
        // Below the first word and above the last, on every case.
        let edges = [0, 1, 0x09FF_FFFF, 0xC900_0000, u32::MAX - 1, u32::MAX];
        for routes in cases {
            tcam_agrees(routes, &edges);
        }
    }

    #[test]
    fn sparse_tcam_index_stays_small() {
        let routes = [
            route(0, 8, 1),
            route(0x8000_0000, 8, 2),
            route(0xFF00_0000, 8, 3),
        ];
        let plane = tcam_agrees(&routes, &[0x0100_0000, 0x7FFF_FFFF, 0xFEFF_FFFF]);
        assert!(plane.cells <= routes.len());
        // Per route a 4-byte start and at most one gap start after it,
        // one u64 of 2-bit codes and at most two 4-byte index cells.
        assert!(
            plane.heap_bytes() <= 8 * routes.len() + 16,
            "{} bytes",
            plane.heap_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn tcam_rejects_duplicate_prefixes() {
        let _ = TcamPlane::build(&[route(0x0A00_0000, 8, 1), route(0x0A00_0000, 8, 2)]);
    }

    #[test]
    fn generated_compressed_table_agrees_with_binary_trie() {
        let table = onrtc(&FibGen::new(42).routes(3_000).generate());
        let routes: Vec<Route> = table.iter().collect();
        let reference = table.to_trie();
        let planes: Vec<Box<dyn LookupPlane>> = BackendKind::ALL
            .iter()
            .filter_map(|&k| try_build_plane(k, &routes))
            .collect();
        let mut addr = 0x0137_9B51u32;
        for _ in 0..20_000 {
            addr = addr.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15);
            let want = reference.lookup(addr).map(|(p, &nh)| Route::new(p, nh));
            for plane in &planes {
                assert_eq!(plane.lookup(addr), want, "{}", plane.kind());
            }
        }
        for plane in &planes {
            assert_eq!(plane.len(), routes.len());
            assert!(plane.heap_bytes() > 0);
        }
    }

    #[test]
    fn cfib_compresses_below_raw_route_storage() {
        let table = onrtc(&FibGen::new(7).routes(10_000).generate());
        let routes: Vec<Route> = table.iter().collect();
        let cfib = CfibPlane::build(&routes);
        assert!(cfib.dictionary_len() < cfib.interval_count());
        // Dictionary coding must beat one u32 label per interval.
        let naive = cfib.interval_count() * 2 * std::mem::size_of::<u32>();
        assert!(
            cfib.heap_bytes() < naive,
            "packed {} >= naive {naive}",
            cfib.heap_bytes()
        );
    }
}
