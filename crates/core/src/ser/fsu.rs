//! Field serializer units (Section 4.5.4).
//!
//! Handle-field-ops from the frontend are dispatched round-robin to a set of
//! parallel units that load field data from memory, encode it (varints in a
//! single cycle), and emit serialized chunks. The timing model tracks each
//! unit's busy time; the serializer's field-processing bound is the busiest
//! unit, since the memwriter re-sequences output in round-robin order.

use protoacc_mem::Cycles;

/// Busy-time tracker for the round-robin FSU pool.
#[derive(Debug, Clone)]
pub struct FsuPool {
    busy: Vec<Cycles>,
    next: usize,
    ops: u64,
}

impl FsuPool {
    /// Creates a pool of `units` field serializer units.
    pub fn new(units: usize) -> Self {
        FsuPool {
            busy: vec![0; units.max(1)],
            next: 0,
            ops: 0,
        }
    }

    /// Idles every unit and restarts the round robin at unit 0, as at
    /// the start of an op.
    pub fn reset(&mut self) {
        self.busy.fill(0);
        self.next = 0;
        self.ops = 0;
    }

    /// Dispatches one handle-field-op costing `cycles` to the next unit.
    /// Returns `(unit index, unit busy time before this op)` so observers can
    /// reconstruct the op's slot in that unit's busy timeline.
    pub fn dispatch(&mut self, cycles: Cycles) -> (usize, Cycles) {
        let unit = self.next;
        let start = self.busy[unit];
        self.busy[unit] += cycles;
        self.next = (self.next + 1) % self.busy.len();
        self.ops += 1;
        (unit, start)
    }

    /// Busy time of the most-loaded unit: the pool's completion bound.
    pub fn max_busy(&self) -> Cycles {
        self.busy.iter().copied().max().unwrap_or(0)
    }

    /// Total ops dispatched.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_load() {
        let mut pool = FsuPool::new(4);
        for _ in 0..8 {
            pool.dispatch(10);
        }
        assert_eq!(pool.max_busy(), 20);
        assert_eq!(pool.ops(), 8);
    }

    #[test]
    fn single_unit_serializes_everything() {
        let mut pool = FsuPool::new(1);
        for _ in 0..8 {
            pool.dispatch(10);
        }
        assert_eq!(pool.max_busy(), 80);
    }

    #[test]
    fn reset_matches_a_fresh_pool() {
        let mut pool = FsuPool::new(3);
        for c in [4, 9, 2, 7] {
            pool.dispatch(c);
        }
        pool.reset();
        assert_eq!(pool.max_busy(), 0);
        assert_eq!(pool.ops(), 0);
        let mut fresh = FsuPool::new(3);
        for c in [5, 1, 8, 3] {
            assert_eq!(pool.dispatch(c), fresh.dispatch(c));
        }
    }

    #[test]
    fn zero_units_clamps_to_one() {
        let mut pool = FsuPool::new(0);
        pool.dispatch(5);
        assert_eq!(pool.max_busy(), 5);
    }
}
