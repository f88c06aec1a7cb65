//! Small on-accelerator cache for ADT entries and headers.
//!
//! Both units load ADT state for every field they touch; messages with many
//! instances of the same type reuse the same handful of entries, so a small
//! fully-associative cache keeps the typeInfo state from blocking on the L2
//! for every field.

use protoacc_mem::{AccessKind, Cycles, Lru, MemSystem};

/// Fully-associative LRU cache over ADT line addresses.
#[derive(Debug, Clone)]
pub(crate) struct AdtCache {
    /// Cached addresses.
    entries: Lru,
    misses: u64,
}

impl AdtCache {
    pub(crate) fn new(capacity: usize) -> Self {
        AdtCache {
            entries: Lru::new(capacity.max(1)),
            misses: 0,
        }
    }

    /// Loads `len` bytes of ADT state at `addr`: 1 cycle on hit, a blocking
    /// memory access on miss. Returns `(cycles, hit)` so callers can trace
    /// hit/miss without re-deriving it from the cost.
    pub(crate) fn load(&mut self, system: &mut MemSystem, addr: u64, len: usize) -> (Cycles, bool) {
        if self.entries.access(addr) {
            return (1, true);
        }
        self.misses += 1;
        // The FSM blocks in the typeInfo state for this response.
        (1 + system.access(addr, len, AccessKind::Read), false)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_mem::MemConfig;

    #[test]
    fn hit_costs_one_cycle() {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut cache = AdtCache::new(4);
        let (cold, hit) = cache.load(&mut sys, 0x100, 16);
        assert!(cold > 1);
        assert!(!hit);
        assert_eq!(cache.load(&mut sys, 0x100, 16), (1, true));
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut cache = AdtCache::new(2);
        cache.load(&mut sys, 0x100, 16);
        cache.load(&mut sys, 0x200, 16);
        cache.load(&mut sys, 0x100, 16); // refresh 0x100
        cache.load(&mut sys, 0x300, 16); // evict 0x200
        assert_eq!(cache.load(&mut sys, 0x100, 16), (1, true));
        assert!(cache.load(&mut sys, 0x200, 16).0 > 1);
    }

    #[test]
    fn hits_misses_and_miss_count_follow_true_lru() {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut reference = MemSystem::new(MemConfig::default());
        let mut cache = AdtCache::new(3);
        // (address, expected hit) with 3 entries: 0x40 is re-touched before
        // each eviction, so the LRU victim is always another entry; clear()
        // keeps the miss count.
        let script = [
            (0x40, false),
            (0x80, false),
            (0xc0, false),
            (0x40, true),
            (0x40, true),
            (0x100, false), // evicts 0x80
            (0x40, true),
            (0x80, false), // evicts 0xc0
            (0xc0, false), // evicts 0x100
            (0x40, true),
            (0x100, false), // evicts 0x80
        ];
        for (i, &(addr, hit)) in script.iter().enumerate() {
            let expected = if hit {
                1
            } else {
                1 + reference.access(addr, 32, AccessKind::Read)
            };
            assert_eq!(cache.load(&mut sys, addr, 32), (expected, hit), "load {i}");
        }
        assert_eq!(cache.misses(), 7);
        cache.clear();
        assert_eq!(cache.misses(), 7);
        assert!(!cache.load(&mut sys, 0x40, 32).1);
        assert_eq!(cache.misses(), 8);
        // A zero capacity still caches one entry.
        let mut tiny = AdtCache::new(0);
        tiny.load(&mut sys, 0x40, 32);
        assert_eq!(tiny.load(&mut sys, 0x40, 32), (1, true));
    }

    #[test]
    fn clear_empties_cache() {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut cache = AdtCache::new(2);
        cache.load(&mut sys, 0x100, 16);
        cache.clear();
        assert!(cache.load(&mut sys, 0x100, 16).0 > 1);
    }
}
