//! Differential tests of the memory model's host fast paths against the
//! general code they short-cut:
//!
//! * `GuestMemory`'s fixed-width accessors against `read_bytes` /
//!   `write_bytes` (and `write_zeros` against writing a zeroed buffer), at
//!   page straddles and at the top of the address space;
//! * `MemSystem`'s stored line shift and overlap factor against the
//!   divide formulas they replaced, for every sharer count and
//!   outstanding-request budget from 1 to 16 and three line sizes.
//!
//! Seeded by the workspace's deterministic PRNG (`xrand`); `slow-tests`
//! multiplies the stream length.

use protoacc_mem::{
    AccessKind, CacheConfig, Cycles, GuestMemory, MemConfig, MemSystem, RequesterStats,
    BUS_WIDTH_BYTES, PAGE_SIZE,
};
use xrand::{Rng, StdRng};

fn cases(default: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        default * 16
    } else {
        default
    }
}

/// Addresses where fixed-width accesses straddle or end a page, or run
/// past the top of the address space.
fn edge_addresses(rng: &mut StdRng) -> Vec<u64> {
    let page = PAGE_SIZE as u64;
    let mut addrs: Vec<u64> = (u64::MAX - 7..=u64::MAX).collect();
    addrs.extend(0..8);
    for _ in 0..cases(64) {
        let base = rng.gen_range(1..1u64 << 40) * page;
        addrs.extend(base - 8..base + 8);
    }
    addrs
}

/// Reads the 16 bytes around `addr` (clamped at the top) from two
/// memories and checks they agree.
#[track_caller]
fn assert_same_bytes(a: &GuestMemory, b: &GuestMemory, addr: u64) {
    let at = addr.saturating_sub(4);
    assert_eq!(a.read_vec(at, 16), b.read_vec(at, 16), "around {addr:#x}");
    assert_eq!(a.resident_pages(), b.resident_pages(), "at {addr:#x}");
}

#[test]
fn fixed_width_accessors_match_the_byte_range_paths() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0001);
    for addr in edge_addresses(&mut rng) {
        let value: u64 = rng.gen();
        let bytes = value.to_le_bytes();
        let mut fast = GuestMemory::new();
        let mut slow = GuestMemory::new();
        // Some pages resident, some not, on either side of a straddle.
        if rng.gen_range(0u32..2) == 0 {
            fast.write_u8(addr.wrapping_sub(1), 0x5a);
            slow.write_bytes(addr.wrapping_sub(1), &[0x5a]);
        }

        fast.write_u8(addr, value as u8);
        slow.write_bytes(addr, &bytes[..1]);
        assert_same_bytes(&fast, &slow, addr);
        fast.write_u16(addr, value as u16);
        slow.write_bytes(addr, &bytes[..2]);
        assert_same_bytes(&fast, &slow, addr);
        fast.write_u32(addr, value as u32);
        slow.write_bytes(addr, &bytes[..4]);
        assert_same_bytes(&fast, &slow, addr);
        fast.write_u64(addr, value);
        slow.write_bytes(addr, &bytes);
        assert_same_bytes(&fast, &slow, addr);

        let mut read = [0u8; 8];
        slow.read_bytes(addr, &mut read);
        assert_eq!(fast.read_u8(addr), read[0], "u8 at {addr:#x}");
        assert_eq!(
            fast.read_u16(addr),
            u16::from_le_bytes(read[..2].try_into().unwrap()),
            "u16 at {addr:#x}"
        );
        assert_eq!(
            fast.read_u32(addr),
            u32::from_le_bytes(read[..4].try_into().unwrap()),
            "u32 at {addr:#x}"
        );
        assert_eq!(
            fast.read_u64(addr),
            u64::from_le_bytes(read),
            "u64 at {addr:#x}"
        );
        // Reads of never-written memory touch no page.
        let empty = GuestMemory::new();
        assert_eq!(empty.read_u64(addr), 0);
        assert_eq!(empty.resident_pages(), 0);
    }
}

#[test]
fn write_zeros_matches_writing_a_zeroed_buffer() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0002);
    for addr in edge_addresses(&mut rng) {
        let len = match rng.gen_range(0u32..3) {
            0 => rng.gen_range(0..16usize),
            1 => rng.gen_range(0..3 * PAGE_SIZE),
            _ => PAGE_SIZE,
        };
        let mut fast = GuestMemory::new();
        let mut slow = GuestMemory::new();
        let junk = vec![0xeeu8; len + 16];
        fast.write_bytes(addr.saturating_sub(8), &junk);
        slow.write_bytes(addr.saturating_sub(8), &junk);
        fast.write_zeros(addr, len);
        slow.write_bytes(addr, &vec![0u8; len]);
        let at = addr.saturating_sub(8);
        assert_eq!(fast.read_vec(at, len + 16), slow.read_vec(at, len + 16));
        assert_eq!(fast.resident_pages(), slow.resident_pages());
    }
}

/// Cycles the line probes behind a requester-stats delta cost.
fn probe_cycles(config: &MemConfig, d: &RequesterStats) -> (Cycles, Cycles) {
    let levels = [
        (d.l1_hits, config.l1_latency),
        (d.l2_hits, config.l2_latency),
        (d.llc_hits, config.llc_latency),
        (d.dram_accesses, config.dram_latency),
    ];
    let sum = levels.iter().map(|&(n, lat)| n * lat).sum();
    let worst = levels
        .iter()
        .filter(|&&(n, _)| n > 0)
        .map(|&(_, lat)| lat)
        .max()
        .unwrap_or(0);
    (sum, worst)
}

fn delta(after: RequesterStats, before: RequesterStats) -> RequesterStats {
    RequesterStats {
        accesses: after.accesses - before.accesses,
        bytes: after.bytes - before.bytes,
        cycles: after.cycles - before.cycles,
        l1_hits: after.l1_hits - before.l1_hits,
        l2_hits: after.l2_hits - before.l2_hits,
        llc_hits: after.llc_hits - before.llc_hits,
        dram_accesses: after.dram_accesses - before.dram_accesses,
    }
}

/// The system under test issues `stream` and `pipelined` transfers; a twin
/// issues `access` over the same ranges, so both walk the same TLB and
/// cache states. The twin's blocking cost is the TLB walk plus every probe
/// latency, and the probes per level show in the requester statistics, so
/// the old formulas — `max(max_outstanding / sharers, 1)` as the overlap
/// and a divide by the line size per range — can be evaluated exactly.
#[test]
fn overlapped_costs_match_the_divide_formulas() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0003);
    for line_bytes in [32usize, 64, 128] {
        for max_outstanding in 1..=16usize {
            let config = MemConfig {
                l1: CacheConfig::new(8 << 10, 4, line_bytes),
                l2: CacheConfig::new(64 << 10, 8, line_bytes),
                llc: CacheConfig::new(256 << 10, 16, line_bytes),
                max_outstanding,
                ..MemConfig::default()
            };
            let mut sys = MemSystem::new(config);
            let mut twin = MemSystem::new(config);
            for i in 0..cases(400) {
                let sharers = rng.gen_range(1..=16usize);
                sys.set_sharers(sharers);
                let addr = rng.gen_range(0..1u64 << 20);
                let len = match rng.gen_range(0u32..3) {
                    0 => rng.gen_range(1..=8usize),
                    1 => rng.gen_range(1..=256usize),
                    _ => rng.gen_range(1..=4 * PAGE_SIZE),
                };
                let before = twin.requester_stats(0);
                let blocking = twin.access(addr, len, AccessKind::Read);
                let probes = delta(twin.requester_stats(0), before);
                let lines =
                    (addr + len as u64 - 1) / line_bytes as u64 - addr / line_bytes as u64 + 1;
                assert_eq!(
                    probes.l1_hits + probes.l2_hits + probes.llc_hits + probes.dram_accesses,
                    lines
                );
                let (sum, worst) = probe_cycles(&config, &probes);
                let tlb = blocking - sum;
                let overlap = (max_outstanding as u64 / sharers as u64).max(1);
                let bus = len.div_ceil(BUS_WIDTH_BYTES) as u64 * sharers as u64;
                let (got, want) = if rng.gen_range(0u32..2) == 0 {
                    (
                        sys.pipelined(addr, len, AccessKind::Read),
                        tlb + bus + sum / overlap,
                    )
                } else {
                    (
                        sys.stream(addr, len, AccessKind::Read),
                        tlb + worst + (sum - worst) / overlap + bus,
                    )
                };
                assert_eq!(
                    got, want,
                    "{line_bytes} B lines, max_outstanding {max_outstanding}, sharers {sharers}, access {i}"
                );
            }
        }
    }
}
