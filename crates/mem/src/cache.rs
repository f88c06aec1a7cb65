//! Set-associative cache model with LRU replacement.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Creates a config, asserting power-of-two geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a whole, nonzero number of
    /// sets or if `line_bytes` is not a power of two.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0 && size_bytes.is_multiple_of(ways * line_bytes));
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

/// One level of set-associative cache: tag array only (data lives in
/// [`crate::GuestMemory`]), true LRU within each set.
#[derive(Debug, Clone)]
pub struct CacheModel {
    config: CacheConfig,
    /// `sets - 1`: a line's set is its low bits.
    set_mask: usize,
    /// Per set: tags in LRU order, most-recently-used last. Sets start
    /// unallocated and grow as lines fill them: reserving every set up
    /// front would cost a 32 MiB LLC (32,768 sets of 16 ways) 4 MiB
    /// whether or not a run touches its sets.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheModel {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        CacheModel {
            config,
            set_mask: config.sets() - 1,
            sets: vec![Vec::new(); config.sets()],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Probes the line containing `addr`, updating LRU and filling on miss.
    ///
    /// Returns `true` on hit.
    pub fn access_line(&mut self, line: u64) -> bool {
        let set = &mut self.sets[line as usize & self.set_mask];
        // Scan from the MRU end, where re-touched lines sit.
        if let Some(pos) = set.iter().rposition(|&t| t == line) {
            set[pos..].rotate_left(1);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.ways {
                // The LRU tag rotates to the MRU end and is overwritten.
                set.rotate_left(1);
                set[self.config.ways - 1] = line;
            } else {
                set.push(line);
            }
            self.stats.misses += 1;
            false
        }
    }

    /// Invalidates every line.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheModel {
        // 4 sets x 2 ways x 64B lines = 512B.
        CacheModel::new(CacheConfig::new(512, 2, 64))
    }

    /// The line number of a byte address in [`tiny`]'s 64 B lines.
    fn line_at(addr: u64) -> u64 {
        addr / 64
    }

    #[test]
    fn geometry_is_computed() {
        let c = CacheConfig::new(32 * 1024, 8, 64);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        CacheConfig::new(512, 2, 48);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access_line(line_at(0x1000)));
        assert!(c.access_line(line_at(0x1000)));
        assert!(c.access_line(line_at(0x1001))); // same line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 256B).
        let a = line_at(0x0000);
        let b = line_at(0x0100);
        let d = line_at(0x0200);
        c.access_line(a);
        c.access_line(b);
        c.access_line(a); // a becomes MRU
        c.access_line(d); // evicts b (LRU)
        assert!(c.access_line(a), "a should still be resident");
        assert!(!c.access_line(b), "b should have been evicted");
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = tiny();
        c.access_line(1);
        c.flush();
        assert!(!c.access_line(1));
    }
}
