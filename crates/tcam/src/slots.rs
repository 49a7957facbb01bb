//! The slot array: physical storage shared by every layout policy.
//!
//! [`SlotArray`] models the TCAM's word array plus the software mirror a
//! control plane keeps (prefix → slot). All writes and entry moves are
//! counted — the paper's TTF2 is exactly `moves × 24 ns` — and the mirror
//! gives the simulator O(1) lookups instead of scanning 256 K slots per
//! packet, without changing any of the accounted costs.

use std::collections::HashMap;

use clue_fib::{mask, NextHop, Prefix, Route};

use crate::entry::TernaryEntry;

/// Cumulative operation counters for one TCAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcamStats {
    /// Slot writes of brand-new content (placing an inserted entry).
    pub writes: u64,
    /// Entry relocations (the "shifts" of the domino effect).
    pub moves: u64,
    /// Entries erased.
    pub erases: u64,
}

impl TcamStats {
    /// Total slot operations (each costs one TCAM write cycle).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.writes + self.moves + self.erases
    }
}

/// The physical slot array of one TCAM, with a software mirror.
#[derive(Debug, Clone)]
pub struct SlotArray {
    slots: Vec<Option<TernaryEntry>>,
    /// Prefix → slot index (the control plane's shadow copy).
    mirror: HashMap<Prefix, usize>,
    /// How many stored entries exist per prefix length (speeds up LPM).
    len_histogram: [u32; 33],
    stats: TcamStats,
}

impl SlotArray {
    /// Creates an array with `capacity` slots, all empty.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlotArray {
            slots: vec![None; capacity],
            mirror: HashMap::new(),
            len_histogram: [0; 33],
            stats: TcamStats::default(),
        }
    }

    /// Appends `additional` empty slots. Nothing moves, so no operation
    /// is counted.
    pub(crate) fn grow(&mut self, additional: usize) {
        self.slots.resize(self.slots.len() + additional, None);
    }

    /// Reserves room in the prefix → slot mirror for `additional` more
    /// entries, so a bulk load never rehashes it.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.mirror.reserve(additional);
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mirror.len()
    }

    /// Whether no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mirror.is_empty()
    }

    /// Cumulative operation counters.
    #[must_use]
    pub fn stats(&self) -> TcamStats {
        self.stats
    }

    /// Resets the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = TcamStats::default();
    }

    /// The entry stored at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn entry(&self, slot: usize) -> Option<TernaryEntry> {
        self.slots[slot]
    }

    /// The slot index of `prefix`, if stored.
    #[must_use]
    pub fn slot_of(&self, prefix: Prefix) -> Option<usize> {
        self.mirror.get(&prefix).copied()
    }

    /// Writes a brand-new route into an empty slot (counted as a write).
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or the prefix is already stored —
    /// layout policies must never double-place an entry.
    pub fn write(&mut self, slot: usize, route: Route) {
        assert!(self.slots[slot].is_none(), "slot {slot} already occupied");
        let entry = TernaryEntry::from_route(route);
        let prev = self.mirror.insert(route.prefix, slot);
        assert!(prev.is_none(), "prefix {} already stored", route.prefix);
        self.slots[slot] = Some(entry);
        self.len_histogram[route.prefix.len() as usize] += 1;
        self.stats.writes += 1;
    }

    /// Rewrites the action of the entry holding `prefix` in place
    /// (counted as a write; no entry movement).
    ///
    /// Returns `false` if the prefix is not stored.
    pub fn rewrite_action(&mut self, prefix: Prefix, action: NextHop) -> bool {
        let Some(&slot) = self.mirror.get(&prefix) else {
            return false;
        };
        let entry = self.slots[slot].as_mut().expect("mirror points at entry");
        entry.action = action;
        self.stats.writes += 1;
        true
    }

    /// Erases the entry at `slot` (counted as an erase) and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn erase(&mut self, slot: usize) -> TernaryEntry {
        let entry = self.slots[slot].take().expect("erase of empty slot");
        let prefix = entry.prefix().expect("routing entries are prefixes");
        self.mirror.remove(&prefix);
        self.len_histogram[prefix.len() as usize] -= 1;
        self.stats.erases += 1;
        entry
    }

    /// Moves the entry in `from` to the empty slot `to` (counted as one
    /// move — the hardware cost the domino effect multiplies).
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty or `to` is occupied.
    pub fn relocate(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        assert!(self.slots[to].is_none(), "relocate into occupied slot {to}");
        let entry = self.slots[from].take().expect("relocate of empty slot");
        let prefix = entry.prefix().expect("routing entries are prefixes");
        self.slots[to] = Some(entry);
        *self.mirror.get_mut(&prefix).expect("mirror tracks entry") = to;
        self.stats.moves += 1;
    }

    /// Longest-prefix match over the stored entries, via the mirror.
    ///
    /// Functionally identical to a full ternary search plus priority
    /// encoding; O(number of distinct lengths) instead of O(capacity).
    #[must_use]
    pub fn lookup(&self, addr: u32) -> Option<(Prefix, NextHop)> {
        for len in (0..=32u8).rev() {
            if self.len_histogram[len as usize] == 0 {
                continue;
            }
            let p = Prefix::new(addr & mask(len), len);
            if let Some(&slot) = self.mirror.get(&p) {
                let e = self.slots[slot].expect("mirror points at entry");
                return Some((p, e.action));
            }
        }
        None
    }

    /// Any-match lookup: valid only when the stored entries are
    /// non-overlapping (at most one can match) — CLUE's mode, where the
    /// priority encoder has been removed.
    #[must_use]
    pub fn lookup_any(&self, addr: u32) -> Option<(Prefix, NextHop)> {
        // With non-overlapping content LPM degenerates to the unique
        // match, so the mirror walk returns exactly what the
        // encoder-free hardware would.
        self.lookup(addr)
    }

    /// Iterates stored routes in slot order.
    pub fn routes(&self) -> impl Iterator<Item = Route> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.and_then(TernaryEntry::route))
    }

    /// Debug check: mirror and slots agree.
    #[must_use]
    pub fn mirror_consistent(&self) -> bool {
        let stored = self.slots.iter().flatten().count();
        stored == self.mirror.len()
            && self
                .mirror
                .iter()
                .all(|(&p, &slot)| self.slots[slot].is_some_and(|e| e.prefix() == Some(p)))
            && (0..=32).all(|l| {
                self.len_histogram[l] as usize
                    == self.mirror.keys().filter(|p| p.len() as usize == l).count()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(s: &str, nh: u16) -> Route {
        Route::new(s.parse().unwrap(), NextHop(nh))
    }

    #[test]
    fn write_lookup_erase_cycle() {
        let mut arr = SlotArray::new(8);
        arr.write(3, route("10.0.0.0/8", 1));
        assert_eq!(arr.len(), 1);
        assert_eq!(arr.lookup(0x0A00_0001).map(|(_, a)| a), Some(NextHop(1)));
        assert_eq!(arr.slot_of("10.0.0.0/8".parse().unwrap()), Some(3));
        let e = arr.erase(3);
        assert_eq!(e.action, NextHop(1));
        assert!(arr.is_empty());
        assert_eq!(arr.lookup(0x0A00_0001), None);
        assert_eq!(
            arr.stats(),
            TcamStats {
                writes: 1,
                moves: 0,
                erases: 1
            }
        );
        assert!(arr.mirror_consistent());
    }

    #[test]
    fn lpm_picks_longest() {
        let mut arr = SlotArray::new(8);
        arr.write(0, route("10.0.0.0/8", 1));
        arr.write(1, route("10.1.0.0/16", 2));
        assert_eq!(arr.lookup(0x0A01_0001).map(|(_, a)| a), Some(NextHop(2)));
        assert_eq!(arr.lookup(0x0A02_0001).map(|(_, a)| a), Some(NextHop(1)));
    }

    #[test]
    fn relocate_counts_moves_and_keeps_mirror() {
        let mut arr = SlotArray::new(8);
        arr.write(0, route("10.0.0.0/8", 1));
        arr.relocate(0, 5);
        assert_eq!(arr.slot_of("10.0.0.0/8".parse().unwrap()), Some(5));
        assert_eq!(arr.stats().moves, 1);
        // Self-relocation is free.
        arr.relocate(5, 5);
        assert_eq!(arr.stats().moves, 1);
        assert!(arr.mirror_consistent());
    }

    #[test]
    fn rewrite_action_in_place() {
        let mut arr = SlotArray::new(4);
        arr.write(0, route("10.0.0.0/8", 1));
        assert!(arr.rewrite_action("10.0.0.0/8".parse().unwrap(), NextHop(7)));
        assert_eq!(arr.lookup(0x0A00_0001).map(|(_, a)| a), Some(NextHop(7)));
        assert!(!arr.rewrite_action("11.0.0.0/8".parse().unwrap(), NextHop(7)));
        assert_eq!(arr.stats().writes, 2);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_write_panics() {
        let mut arr = SlotArray::new(4);
        arr.write(0, route("10.0.0.0/8", 1));
        arr.write(0, route("11.0.0.0/8", 2));
    }

    #[test]
    #[should_panic(expected = "relocate into occupied")]
    fn relocate_into_occupied_panics() {
        let mut arr = SlotArray::new(4);
        arr.write(0, route("10.0.0.0/8", 1));
        arr.write(1, route("11.0.0.0/8", 2));
        arr.relocate(0, 1);
    }

    #[test]
    fn routes_iterates_in_slot_order() {
        let mut arr = SlotArray::new(8);
        arr.write(5, route("11.0.0.0/8", 2));
        arr.write(2, route("10.0.0.0/8", 1));
        let got: Vec<Route> = arr.routes().collect();
        assert_eq!(got, vec![route("10.0.0.0/8", 1), route("11.0.0.0/8", 2)]);
    }
}
