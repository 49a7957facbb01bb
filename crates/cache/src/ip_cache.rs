//! Destination-address cache baseline.
//!
//! The literature the paper cites ([18–20] vs [21]) compares caching
//! whole destination addresses against caching prefixes and finds
//! prefix caching strictly more effective — one cached prefix covers
//! many addresses. This module provides the IP-cache side of that
//! comparison so the claim can be re-measured (see the `ablation_replacement`
//! bench and the cache integration tests).

use clue_fib::NextHop;

use crate::lru::Lru;
use crate::prefix_cache::CacheStats;

/// An LRU cache of exact destination addresses.
#[derive(Debug, Clone)]
pub struct IpCache {
    lru: Lru<u32, NextHop>,
    stats: CacheStats,
}

impl IpCache {
    /// Creates a cache holding at most `capacity` addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        IpCache {
            lru: Lru::new(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached addresses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Exact-address lookup; a hit refreshes recency.
    pub fn lookup(&mut self, addr: u32) -> Option<NextHop> {
        match self.lru.get(&addr) {
            Some(&nh) => {
                self.stats.hits += 1;
                Some(nh)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Caches an address.
    pub fn insert(&mut self, addr: u32, next_hop: NextHop) {
        self.stats.insertions += 1;
        if self.lru.insert(addr, next_hop).is_some() {
            self.stats.evictions += 1;
        }
    }

    /// Drops every cached address (e.g. after a routing change, when
    /// per-address invalidation is impossible to scope).
    pub fn clear(&mut self) {
        let keys: Vec<u32> = self.lru.iter().map(|(&k, _)| k).collect();
        for k in keys {
            self.lru.remove(&k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_only() {
        let mut c = IpCache::new(4);
        c.insert(0x0A00_0001, NextHop(1));
        assert_eq!(c.lookup(0x0A00_0001), Some(NextHop(1)));
        // A neighbouring address inside the same /8 misses — the
        // weakness prefix caching fixes.
        assert_eq!(c.lookup(0x0A00_0002), None);
    }

    #[test]
    fn lru_eviction() {
        let mut c = IpCache::new(2);
        c.insert(1, NextHop(1));
        c.insert(2, NextHop(2));
        c.lookup(1);
        c.insert(3, NextHop(3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.lookup(2), None);
        assert_eq!(c.lookup(1), Some(NextHop(1)));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = IpCache::new(4);
        c.insert(1, NextHop(1));
        c.insert(2, NextHop(2));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.lookup(1), None);
    }
}
