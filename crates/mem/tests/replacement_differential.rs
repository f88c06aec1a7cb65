//! Differential tests of the replacement state against the recency-ordered
//! `Vec` it replaced: [`Lru`], [`Tlb::translate`] and
//! [`CacheModel::access_line`] must produce exactly the hit/miss sequence
//! of a list scanned and reordered on every access. The simulator's cycle
//! counts depend on nothing else in these structures, so an identical
//! sequence means identical simulated statistics. Seeded by the workspace's
//! deterministic PRNG (`xrand`); `slow-tests` multiplies the stream length.

use protoacc_mem::{CacheConfig, CacheModel, Lru, Tlb, TlbConfig, PAGE_SIZE};
use xrand::{Rng, StdRng};

fn cases(default: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        default * 16
    } else {
        default
    }
}

/// The oracle: true LRU as a list, most recently used last.
struct VecLru {
    capacity: usize,
    keys: Vec<u64>,
}

impl VecLru {
    fn new(capacity: usize) -> Self {
        VecLru {
            capacity,
            keys: Vec::new(),
        }
    }

    fn access(&mut self, key: u64) -> bool {
        if let Some(pos) = self.keys.iter().position(|&k| k == key) {
            let k = self.keys.remove(pos);
            self.keys.push(k);
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        if self.keys.len() == self.capacity {
            self.keys.remove(0);
        }
        self.keys.push(key);
        false
    }

    fn clear(&mut self) {
        self.keys.clear();
    }
}

/// A key stream with the reuse the simulator sees: mostly a working set a
/// little larger or smaller than `capacity`, with runs of one key, scans,
/// and rare keys from far away.
fn next_key(rng: &mut StdRng, capacity: usize, prev: u64) -> u64 {
    let span = (capacity as u64 * 2).max(2);
    match rng.gen_range(0u32..10) {
        0..=2 => prev,
        3 => prev.wrapping_add(1) % span,
        4 => rng.gen(),
        5 => rng.gen_range(0..span * 4),
        _ => rng.gen_range(0..span),
    }
}

#[test]
fn lru_matches_the_vec_oracle() {
    let mut rng = StdRng::seed_from_u64(0x4C52_5501);
    for capacity in [0, 1, 2, 4, 32, 128, 512] {
        let mut lru = Lru::new(capacity);
        let mut oracle = VecLru::new(capacity);
        let (mut key, mut hits) = (0u64, 0usize);
        let accesses = cases(20_000);
        for i in 0..accesses {
            if rng.gen_range(0u32..2000) == 0 {
                lru.clear();
                oracle.clear();
            }
            key = next_key(&mut rng, capacity, key);
            let expected = oracle.access(key);
            assert_eq!(lru.access(key), expected, "capacity {capacity}, access {i}");
            hits += usize::from(expected);
        }
        if capacity > 0 {
            // The stream exercised both sides of the comparison.
            assert!(hits > accesses / 10 && hits < accesses * 9 / 10, "{hits}");
        }
    }
}

#[test]
fn tlb_translations_match_the_vec_oracle() {
    let mut rng = StdRng::seed_from_u64(0x4C52_5502);
    for entries in [1, 2, 4, 32, 64] {
        let walk_cycles = 90;
        let mut tlb = Tlb::new(TlbConfig {
            entries,
            walk_cycles,
        });
        let mut oracle = VecLru::new(entries);
        let (mut page, mut expected_stats) = (0u64, (0u64, 0u64));
        for i in 0..cases(20_000) {
            if rng.gen_range(0u32..2000) == 0 {
                tlb.flush();
                oracle.clear();
            }
            page = next_key(&mut rng, entries, page) % (u64::MAX / PAGE_SIZE as u64);
            let addr = page * PAGE_SIZE as u64 + rng.gen_range(0..PAGE_SIZE as u64);
            let hit = oracle.access(page);
            let expected = if hit { 0 } else { walk_cycles };
            assert_eq!(
                tlb.translate(addr),
                expected,
                "entries {entries}, access {i}"
            );
            if hit {
                expected_stats.0 += 1;
            } else {
                expected_stats.1 += 1;
            }
        }
        assert_eq!(tlb.stats(), expected_stats);
    }
}

#[test]
fn cache_line_probes_match_per_set_vec_oracles() {
    let mut rng = StdRng::seed_from_u64(0x4C52_5503);
    // (size, ways): one set; the L1, L2 and an LLC slice of the default
    // configuration at 8 and 16 ways; a 2-way cache with many sets.
    for (size, ways) in [
        (8 * 64, 8),
        (32 << 10, 8),
        (512 << 10, 8),
        (1 << 20, 16),
        (8 << 10, 2),
    ] {
        let config = CacheConfig::new(size, ways, 64);
        let sets = config.sets();
        let mut cache = CacheModel::new(config);
        let mut oracle: Vec<VecLru> = (0..sets).map(|_| VecLru::new(ways)).collect();
        let mut line = 0u64;
        for i in 0..cases(20_000) {
            if rng.gen_range(0u32..4000) == 0 {
                cache.flush();
                oracle.iter_mut().for_each(VecLru::clear);
            }
            line = match rng.gen_range(0u32..4) {
                // Lines that share one set: conflict misses and evictions.
                0 => rng.gen_range(0..ways as u64 * 2) * sets as u64 + line % sets as u64,
                // A working set somewhat larger than the cache.
                _ => next_key(&mut rng, sets * ways, line),
            };
            let expected = oracle[line as usize % sets].access(line);
            assert_eq!(
                cache.access_line(line),
                expected,
                "{ways}-way {size} B, access {i}"
            );
        }
    }
}

/// Repeated lines against the per-set oracle: runs of one line (hits at
/// the MRU end), a return to a line after other lines of its set pushed it
/// out, and a flush between streams, after which the first access repeats
/// the previous stream's last line and must miss.
#[test]
fn repeated_lines_and_flushes_match_per_set_vec_oracles() {
    let mut rng = StdRng::seed_from_u64(0x4C52_5504);
    for (size, ways) in [(8 * 64, 8), (32 << 10, 8), (8 << 10, 2), (4 * 64, 1)] {
        let config = CacheConfig::new(size, ways, 64);
        let sets = config.sets() as u64;
        let mut cache = CacheModel::new(config);
        let mut oracle: Vec<VecLru> = (0..sets).map(|_| VecLru::new(ways)).collect();
        let (mut line, mut expected_stats) = (rng.gen_range(0..sets * 4), (0u64, 0u64));
        for stream in 0..cases(200) {
            if stream > 0 {
                cache.flush();
                oracle.iter_mut().for_each(VecLru::clear);
            }
            for i in 0..64 {
                line = match rng.gen_range(0u32..4) {
                    // The same line again, one or more times.
                    0 | 1 => line,
                    // Another line of the same set: enough of them evict it.
                    2 => line + rng.gen_range(1..=ways as u64 + 1) * sets,
                    // A line of some other set.
                    _ => rng.gen_range(0..sets * 4),
                };
                let expected = oracle[(line % sets) as usize].access(line);
                assert_eq!(
                    cache.access_line(line),
                    expected,
                    "{ways}-way {size} B, stream {stream}, access {i}"
                );
                if expected {
                    expected_stats.0 += 1;
                } else {
                    expected_stats.1 += 1;
                }
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), expected_stats);
    }
}
