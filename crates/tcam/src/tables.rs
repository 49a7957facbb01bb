//! Layout/update policies: how entries are arranged in the slot array
//! and what an incremental update costs under each arrangement.
//!
//! * [`UnorderedTcam`] — CLUE's policy. Valid only for non-overlapping
//!   tables: entries sit anywhere, insert appends, delete swaps the last
//!   entry into the hole. O(1) per update, ever.
//! * [`PrefixLengthOrderedTcam`] — the classical Shah & Gupta partial
//!   order (paper Figure 7(b)): entries grouped by length, free space
//!   after the last group; opening a hole costs one move per occupied
//!   group between the free space and the target length (≤ 32). This is
//!   the policy the paper attributes to CLPL.
//! * [`FullyOrderedTcam`] — the naive solution (paper Figure 7(a)):
//!   packed, globally length-sorted array; an insert shifts everything
//!   below it, O(n).
//!
//! All three expose the same [`TcamTable`] trait so the update pipeline
//! and the benchmarks can swap them freely.

use std::fmt;

use clue_fib::{NextHop, Prefix, Route};

use crate::slots::{SlotArray, TcamStats};

/// Error returned when an insert does not fit in the TCAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamFullError {
    /// Capacity of the TCAM that rejected the insert.
    pub capacity: usize,
}

impl fmt::Display for TcamFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tcam is full ({} slots)", self.capacity)
    }
}

impl std::error::Error for TcamFullError {}

/// The slot-operation cost of one table update.
///
/// Every component costs one TCAM write cycle (24 ns on the paper's
/// CYNSE70256); TTF2 is `total_ops × 24 ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateCost {
    /// New-content writes.
    pub writes: u64,
    /// Entry relocations (domino-effect shifts).
    pub moves: u64,
    /// Erase operations.
    pub erases: u64,
}

impl UpdateCost {
    /// Total slot operations.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.writes + self.moves + self.erases
    }

    pub(crate) fn between(before: TcamStats, after: TcamStats) -> Self {
        UpdateCost {
            writes: after.writes - before.writes,
            moves: after.moves - before.moves,
            erases: after.erases - before.erases,
        }
    }
}

impl std::ops::Add for UpdateCost {
    type Output = UpdateCost;

    fn add(self, rhs: UpdateCost) -> UpdateCost {
        UpdateCost {
            writes: self.writes + rhs.writes,
            moves: self.moves + rhs.moves,
            erases: self.erases + rhs.erases,
        }
    }
}

impl std::ops::AddAssign for UpdateCost {
    fn add_assign(&mut self, rhs: UpdateCost) {
        *self = *self + rhs;
    }
}

/// A TCAM under some layout policy.
///
/// Inserting a prefix that is already stored rewrites its action in
/// place (one write, no movement) under every policy.
pub trait TcamTable {
    /// Inserts (or in-place updates) a route.
    ///
    /// # Errors
    ///
    /// Returns [`TcamFullError`] when no free slot remains.
    fn insert(&mut self, route: Route) -> Result<UpdateCost, TcamFullError>;

    /// Deletes the entry for `prefix`; `None` if absent.
    fn delete(&mut self, prefix: Prefix) -> Option<UpdateCost>;

    /// Longest-prefix-match lookup.
    fn lookup(&self, addr: u32) -> Option<NextHop>;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Whether the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity.
    fn capacity(&self) -> usize;

    /// Cumulative operation counters.
    fn stats(&self) -> TcamStats;

    /// Resets the operation counters (not the contents).
    fn reset_stats(&mut self);

    /// Stored routes in slot order.
    fn routes(&self) -> Vec<Route>;
}

/// Loads a batch of routes, panicking on overflow (setup helper).
///
/// # Panics
///
/// Panics if the table cannot hold all routes.
pub fn load<T: TcamTable>(table: &mut T, routes: impl IntoIterator<Item = Route>) {
    for r in routes {
        table
            .insert(r)
            .expect("table capacity exceeded during load");
    }
}

// ---------------------------------------------------------------------
// CLUE: unordered layout.
// ---------------------------------------------------------------------

/// CLUE's layout: no ordering constraint at all.
///
/// Sound only for non-overlapping content (ONRTC output): at most one
/// entry can match, so no priority encoder — and therefore no ordering —
/// is needed. Insert writes to the first free slot; delete moves the
/// last entry into the hole. Every update is O(1).
///
/// # Examples
///
/// ```
/// use clue_fib::{NextHop, Route};
/// use clue_tcam::{TcamTable, UnorderedTcam};
///
/// let mut t = UnorderedTcam::new(16);
/// let cost = t.insert(Route::new("10.0.0.0/8".parse()?, NextHop(1)))?;
/// assert_eq!(cost.total_ops(), 1); // one write, zero shifts
/// assert_eq!(t.lookup(0x0A00_0001), Some(NextHop(1)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct UnorderedTcam {
    arr: SlotArray,
    used: usize,
}

impl UnorderedTcam {
    /// Creates an empty table with `capacity` slots.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        UnorderedTcam {
            arr: SlotArray::new(capacity),
            used: 0,
        }
    }

    /// Creates a table of `capacity` slots holding `routes` in slot
    /// order: what [`load`] into an empty table leaves, at the same cost
    /// (one write per route), but with the prefix → slot mirror
    /// reserved up front and one hash probe per route instead of two.
    ///
    /// # Panics
    ///
    /// Panics if `routes` do not fit in `capacity` slots or repeat a
    /// prefix.
    #[must_use]
    pub fn with_routes(capacity: usize, routes: impl IntoIterator<Item = Route>) -> Self {
        let mut t = UnorderedTcam::new(capacity);
        t.arr.reserve(capacity);
        for route in routes {
            assert!(t.used < capacity, "table capacity exceeded during load");
            t.arr.write(t.used, route);
            t.used += 1;
        }
        t
    }

    /// Appends `additional` empty slots. Entries stay where they are, so
    /// growing costs no slot operation.
    pub fn grow(&mut self, additional: usize) {
        self.arr.grow(additional);
    }
}

impl TcamTable for UnorderedTcam {
    fn insert(&mut self, route: Route) -> Result<UpdateCost, TcamFullError> {
        let before = self.arr.stats();
        if self.arr.rewrite_action(route.prefix, route.next_hop) {
            return Ok(UpdateCost::between(before, self.arr.stats()));
        }
        if self.used == self.arr.capacity() {
            return Err(TcamFullError {
                capacity: self.arr.capacity(),
            });
        }
        self.arr.write(self.used, route);
        self.used += 1;
        Ok(UpdateCost::between(before, self.arr.stats()))
    }

    fn delete(&mut self, prefix: Prefix) -> Option<UpdateCost> {
        let slot = self.arr.slot_of(prefix)?;
        let before = self.arr.stats();
        self.arr.erase(slot);
        let last = self.used - 1;
        if slot != last {
            self.arr.relocate(last, slot);
        }
        self.used -= 1;
        Some(UpdateCost::between(before, self.arr.stats()))
    }

    fn lookup(&self, addr: u32) -> Option<NextHop> {
        self.arr.lookup_any(addr).map(|(_, a)| a)
    }

    fn len(&self) -> usize {
        self.used
    }

    fn capacity(&self) -> usize {
        self.arr.capacity()
    }

    fn stats(&self) -> TcamStats {
        self.arr.stats()
    }

    fn reset_stats(&mut self) {
        self.arr.reset_stats();
    }

    fn routes(&self) -> Vec<Route> {
        self.arr.routes().collect()
    }
}

// ---------------------------------------------------------------------
// Length-grouped layouts (CLPL classical, and the naive baseline).
// ---------------------------------------------------------------------

/// Group rank: rank 0 holds /32s (highest priority, lowest slots),
/// rank 32 holds /0.
fn rank(len: u8) -> usize {
    32 - len as usize
}

/// Shared machinery for the two length-ordered layouts.
///
/// `start[r]` is the first slot of rank `r`'s group; `start[33]` is the
/// first free slot. Groups are contiguous and packed.
#[derive(Debug, Clone)]
struct GroupedArray {
    arr: SlotArray,
    start: [usize; 34],
}

impl GroupedArray {
    fn new(capacity: usize) -> Self {
        GroupedArray {
            arr: SlotArray::new(capacity),
            start: [0; 34],
        }
    }

    fn used(&self) -> usize {
        self.start[33]
    }

    fn group_is_empty(&self, r: usize) -> bool {
        self.start[r] == self.start[r + 1]
    }

    /// Opens a hole at the end of rank `r`'s group by cascading one
    /// boundary entry per occupied lower group; returns the hole slot.
    fn open_hole(&mut self, r: usize) -> usize {
        let mut hole = self.start[33];
        for g in ((r + 1)..=32).rev() {
            if !self.group_is_empty(g) {
                self.arr.relocate(self.start[g], hole);
                hole = self.start[g];
            }
        }
        for g in (r + 1)..=33 {
            self.start[g] += 1;
        }
        hole
    }

    /// Opens a hole at the end of rank `r`'s group by shifting *every*
    /// lower entry down one slot (the naive layout); returns the hole.
    fn open_hole_naive(&mut self, r: usize) -> usize {
        let pos = self.start[r + 1];
        for slot in (pos..self.start[33]).rev() {
            self.arr.relocate(slot, slot + 1);
        }
        for g in (r + 1)..=33 {
            self.start[g] += 1;
        }
        pos
    }

    /// Removes the entry of rank `r` at `slot`, closing the hole by
    /// cascading one boundary entry per occupied lower group.
    fn close_hole(&mut self, r: usize, slot: usize) {
        self.arr.erase(slot);
        let group_last = self.start[r + 1] - 1;
        let mut hole = slot;
        if slot != group_last {
            self.arr.relocate(group_last, slot);
            hole = group_last;
        }
        for g in (r + 1)..=32 {
            if !self.group_is_empty(g) {
                let last = self.start[g + 1] - 1;
                self.arr.relocate(last, hole);
                hole = last;
            }
            self.start[g] -= 1;
        }
        self.start[33] -= 1;
    }

    /// Removes the entry of rank `r` at `slot`, shifting every lower
    /// entry up one slot (the naive layout).
    fn close_hole_naive(&mut self, r: usize, slot: usize) {
        self.arr.erase(slot);
        for s in (slot + 1)..self.start[33] {
            self.arr.relocate(s, s - 1);
        }
        for g in (r + 1)..=33 {
            self.start[g] -= 1;
        }
    }

    /// Layout invariant: every stored entry sits inside its length group.
    #[cfg(test)]
    fn layout_consistent(&self) -> bool {
        self.arr.mirror_consistent()
            && (0..self.arr.capacity()).all(|slot| match self.arr.entry(slot) {
                None => slot >= self.start[33],
                Some(e) => {
                    let r = rank(e.prefix().expect("prefix entry").len());
                    (self.start[r]..self.start[r + 1]).contains(&slot)
                }
            })
    }
}

macro_rules! grouped_table {
    ($name:ident, $open:ident, $close:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name {
            inner: GroupedArray,
        }

        impl $name {
            /// Creates an empty table with `capacity` slots.
            #[must_use]
            pub fn new(capacity: usize) -> Self {
                $name {
                    inner: GroupedArray::new(capacity),
                }
            }

            #[cfg(test)]
            fn layout_consistent(&self) -> bool {
                self.inner.layout_consistent()
            }
        }

        impl TcamTable for $name {
            fn insert(&mut self, route: Route) -> Result<UpdateCost, TcamFullError> {
                let before = self.inner.arr.stats();
                if self.inner.arr.rewrite_action(route.prefix, route.next_hop) {
                    return Ok(UpdateCost::between(before, self.inner.arr.stats()));
                }
                if self.inner.used() == self.inner.arr.capacity() {
                    return Err(TcamFullError {
                        capacity: self.inner.arr.capacity(),
                    });
                }
                let hole = self.inner.$open(rank(route.prefix.len()));
                self.inner.arr.write(hole, route);
                Ok(UpdateCost::between(before, self.inner.arr.stats()))
            }

            fn delete(&mut self, prefix: Prefix) -> Option<UpdateCost> {
                let slot = self.inner.arr.slot_of(prefix)?;
                let before = self.inner.arr.stats();
                self.inner.$close(rank(prefix.len()), slot);
                Some(UpdateCost::between(before, self.inner.arr.stats()))
            }

            fn lookup(&self, addr: u32) -> Option<NextHop> {
                self.inner.arr.lookup(addr).map(|(_, a)| a)
            }

            fn len(&self) -> usize {
                self.inner.used()
            }

            fn capacity(&self) -> usize {
                self.inner.arr.capacity()
            }

            fn stats(&self) -> TcamStats {
                self.inner.arr.stats()
            }

            fn reset_stats(&mut self) {
                self.inner.arr.reset_stats();
            }

            fn routes(&self) -> Vec<Route> {
                self.inner.arr.routes().collect()
            }
        }
    };
}

grouped_table!(
    PrefixLengthOrderedTcam,
    open_hole,
    close_hole,
    "The classical partial-order layout (Shah & Gupta; paper Figure 7(b)).\n\
     \n\
     Entries are grouped by prefix length with priority decreasing down\n\
     the array and free space after the last group. An update moves at\n\
     most one entry per occupied length group between the free space and\n\
     the target group — ≤ 32 moves, ~15 on real tables, which is the\n\
     update cost the paper charges to CLPL."
);

grouped_table!(
    FullyOrderedTcam,
    open_hole_naive,
    close_hole_naive,
    "The naive packed layout (paper Figure 7(a)).\n\
     \n\
     The whole array stays sorted by prefix length with free space only\n\
     at the end, so inserting shifts every entry below the insertion\n\
     point: O(n) moves per update in the worst case."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn route(s: &str, nh: u16) -> Route {
        Route::new(s.parse().unwrap(), NextHop(nh))
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn unordered_insert_and_delete_are_o1() {
        let mut t = UnorderedTcam::new(8);
        for (i, s) in ["10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8"]
            .iter()
            .enumerate()
        {
            let c = t.insert(route(s, i as u16)).unwrap();
            assert_eq!(c.total_ops(), 1, "insert is one write");
            assert_eq!(c.moves, 0);
        }
        // Deleting from the middle: one erase + one move of the last.
        let c = t.delete(p("10.0.0.0/8")).unwrap();
        assert_eq!(c.moves, 1);
        assert_eq!(c.erases, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(0x0C00_0001), Some(NextHop(2)));
        assert_eq!(t.lookup(0x0A00_0001), None);
        // Deleting the entry that occupies the last slot (11/8 stayed in
        // slot 1 while 12/8 was swapped into the hole): no move at all.
        let c = t.delete(p("11.0.0.0/8")).unwrap();
        assert_eq!(c.moves, 0);
    }

    #[test]
    fn unordered_full_reports_error() {
        let mut t = UnorderedTcam::new(1);
        t.insert(route("10.0.0.0/8", 1)).unwrap();
        let err = t.insert(route("11.0.0.0/8", 2)).unwrap_err();
        assert_eq!(err.capacity, 1);
        // In-place update of a stored prefix still works when full.
        assert!(t.insert(route("10.0.0.0/8", 9)).is_ok());
        assert_eq!(t.lookup(0x0A00_0001), Some(NextHop(9)));
    }

    #[test]
    fn bulk_load_matches_insert_load_and_grows_in_place() {
        let routes = [route("10.0.0.0/8", 1), route("11.0.0.0/8", 2)];
        let mut inserted = UnorderedTcam::new(2);
        load(&mut inserted, routes);
        let mut bulk = UnorderedTcam::with_routes(2, routes);
        assert_eq!(bulk.routes(), inserted.routes());
        assert_eq!(bulk.stats(), inserted.stats());
        assert!(bulk.insert(route("12.0.0.0/8", 3)).is_err());
        bulk.grow(1);
        assert_eq!(bulk.capacity(), 3);
        assert_eq!(bulk.stats(), inserted.stats(), "growing costs nothing");
        assert_eq!(bulk.insert(route("12.0.0.0/8", 3)).unwrap().total_ops(), 1);
        assert_eq!(bulk.lookup(0x0A00_0001), Some(NextHop(1)));
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn bulk_load_rejects_a_repeated_prefix() {
        let _ = UnorderedTcam::with_routes(4, [route("10.0.0.0/8", 1), route("10.0.0.0/8", 2)]);
    }

    #[test]
    fn plo_moves_at_most_one_per_group() {
        let mut t = PrefixLengthOrderedTcam::new(64);
        // Populate one entry in each of 10 length groups.
        for len in 10..20u8 {
            t.insert(Route::new(
                Prefix::new(0x0A00_0000, len),
                NextHop(len as u16),
            ))
            .unwrap();
        }
        assert!(t.layout_consistent());
        // Inserting at /32 (above all groups) cascades one move per
        // occupied group below it: 10 moves + 1 write.
        let c = t.insert(route("10.0.0.1/32", 1)).unwrap();
        assert_eq!(c.moves, 10);
        assert_eq!(c.writes, 1);
        // Inserting at /5 (below all groups) costs zero moves.
        let c = t.insert(route("8.0.0.0/5", 2)).unwrap();
        assert_eq!(c.moves, 0);
        assert!(t.layout_consistent());
    }

    #[test]
    fn plo_delete_cascades_back() {
        let mut t = PrefixLengthOrderedTcam::new(64);
        for len in [8u8, 16, 24] {
            for i in 0..3u32 {
                t.insert(Route::new(
                    Prefix::new(0x0A00_0000 + (i << (32 - len)), len),
                    NextHop(1),
                ))
                .unwrap();
            }
        }
        let before = t.len();
        let c = t.delete(Prefix::new(0x0A00_0000, 24)).unwrap();
        assert_eq!(t.len(), before - 1);
        // One swap inside the /24 group (maybe), one boundary move for
        // each of the two occupied groups below.
        assert!(c.moves <= 3, "moves = {}", c.moves);
        assert!(t.layout_consistent());
    }

    #[test]
    fn naive_insert_shifts_everything_below() {
        let mut t = FullyOrderedTcam::new(64);
        for i in 0..10u32 {
            t.insert(Route::new(Prefix::new(i << 24, 8), NextHop(1)))
                .unwrap();
        }
        // A /32 goes above all ten /8s → ten shifts.
        let c = t.insert(route("10.0.0.1/32", 2)).unwrap();
        assert_eq!(c.moves, 10);
        assert!(t.layout_consistent());
    }

    #[test]
    fn ordered_layouts_give_correct_lpm() {
        let mut plo = PrefixLengthOrderedTcam::new(32);
        let mut naive = FullyOrderedTcam::new(32);
        let routes = [
            route("0.0.0.0/0", 1),
            route("10.0.0.0/8", 2),
            route("10.1.0.0/16", 3),
            route("10.1.2.0/24", 4),
        ];
        load(&mut plo, routes);
        load(&mut naive, routes);
        for (addr, want) in [
            (0x0A01_0203u32, 4u16),
            (0x0A01_0303, 3),
            (0x0A02_0000, 2),
            (0xC000_0000, 1),
        ] {
            assert_eq!(plo.lookup(addr), Some(NextHop(want)));
            assert_eq!(naive.lookup(addr), Some(NextHop(want)));
        }
    }

    #[test]
    fn reinsert_same_prefix_is_in_place_everywhere() {
        let mut u = UnorderedTcam::new(8);
        let mut p_ = PrefixLengthOrderedTcam::new(8);
        let mut n = FullyOrderedTcam::new(8);
        for t in [&mut u as &mut dyn TcamTable, &mut p_, &mut n] {
            t.insert(route("10.0.0.0/8", 1)).unwrap();
            let c = t.insert(route("10.0.0.0/8", 2)).unwrap();
            assert_eq!(c.moves, 0);
            assert_eq!(c.writes, 1);
            assert_eq!(t.len(), 1);
            assert_eq!(t.lookup(0x0A00_0001), Some(NextHop(2)));
        }
    }

    #[test]
    fn delete_absent_returns_none() {
        let mut t = PrefixLengthOrderedTcam::new(8);
        assert!(t.delete(p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn update_cost_arithmetic() {
        let a = UpdateCost {
            writes: 1,
            moves: 2,
            erases: 3,
        };
        let b = UpdateCost {
            writes: 10,
            moves: 20,
            erases: 30,
        };
        let c = a + b;
        assert_eq!(c.total_ops(), 66);
        let mut d = UpdateCost::default();
        d += a;
        assert_eq!(d, a);
    }

    #[test]
    fn grouped_full_reports_error() {
        let mut t = FullyOrderedTcam::new(2);
        t.insert(route("10.0.0.0/8", 1)).unwrap();
        t.insert(route("11.0.0.0/8", 1)).unwrap();
        assert!(t.insert(route("12.0.0.0/8", 1)).is_err());
    }
}
