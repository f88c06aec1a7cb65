//! Accelerator statistics counters.

use protoacc_mem::Cycles;

/// Counters accumulated across accelerator operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Total cycles spent in the deserializer unit.
    pub deser_cycles: Cycles,
    /// Total cycles spent in the serializer unit.
    pub ser_cycles: Cycles,
    /// Deserialization operations completed.
    pub deser_ops: u64,
    /// Serialization operations completed.
    pub ser_ops: u64,
    /// Wire bytes consumed by deserialization.
    pub deser_wire_bytes: u64,
    /// Wire bytes produced by serialization.
    pub ser_wire_bytes: u64,
    /// Fields handled (both directions, sub-messages counted recursively).
    pub fields: u64,
    /// Varints decoded or encoded by the combinational units.
    pub varints: u64,
    /// In-accelerator allocations performed (strings, sub-messages,
    /// repeated regions).
    pub allocs: u64,
    /// Sub-message stack pushes.
    pub stack_pushes: u64,
    /// Stack pushes that spilled past the on-chip depth.
    pub stack_spills: u64,
    /// ADT entry loads that missed the accelerator's small ADT cache.
    pub adt_misses: u64,
    /// Merge operations completed (Section 7 future-work unit).
    pub merge_ops: u64,
    /// Copy operations completed.
    pub copy_ops: u64,
    /// Clear operations completed.
    pub clear_ops: u64,
    /// Set when any counter overflowed and clamped during a
    /// [`AccelStats::merge`]. A saturated block's totals are lower bounds,
    /// not exact values — reports must surface this instead of printing
    /// silently-capped numbers, and the trace-accounting audit refuses to
    /// certify a saturated block (it cannot: the exact sum is gone).
    pub saturated: bool,
}

impl AccelStats {
    /// Merges another stats block into this one.
    ///
    /// Counters saturate instead of wrapping: fleet-scale aggregations add
    /// stats from millions of operations, and with `overflow-checks` on in
    /// dev/test profiles a wrapped counter would otherwise abort the run.
    /// Saturation is no longer silent, though — any clamped counter sets
    /// [`AccelStats::saturated`] on the result, and merging an
    /// already-saturated block keeps the flag sticky.
    pub fn merge(&mut self, other: &AccelStats) {
        let mut clamped = false;
        let mut add = |dst: &mut u64, src: u64| {
            let (sum, overflowed) = dst.overflowing_add(src);
            if overflowed {
                clamped = true;
                *dst = u64::MAX;
            } else {
                *dst = sum;
            }
        };
        add(&mut self.deser_cycles, other.deser_cycles);
        add(&mut self.ser_cycles, other.ser_cycles);
        add(&mut self.deser_ops, other.deser_ops);
        add(&mut self.ser_ops, other.ser_ops);
        add(&mut self.deser_wire_bytes, other.deser_wire_bytes);
        add(&mut self.ser_wire_bytes, other.ser_wire_bytes);
        add(&mut self.fields, other.fields);
        add(&mut self.varints, other.varints);
        add(&mut self.allocs, other.allocs);
        add(&mut self.stack_pushes, other.stack_pushes);
        add(&mut self.stack_spills, other.stack_spills);
        add(&mut self.adt_misses, other.adt_misses);
        add(&mut self.merge_ops, other.merge_ops);
        add(&mut self.copy_ops, other.copy_ops);
        add(&mut self.clear_ops, other.clear_ops);
        self.saturated = self.saturated || other.saturated || clamped;
    }

    /// Asserts (in builds with debug assertions) that no counter has been
    /// clamped. Report renderers call this before printing totals so a
    /// saturated long-run sweep fails loudly in tests instead of shipping
    /// silently-capped numbers; release builds surface the flag in the
    /// report text instead.
    pub fn debug_assert_unsaturated(&self) {
        debug_assert!(
            !self.saturated,
            "AccelStats saturated: a merge clamped at least one counter, totals are lower bounds"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = AccelStats {
            deser_cycles: 10,
            fields: 2,
            ..Default::default()
        };
        let b = AccelStats {
            deser_cycles: 5,
            fields: 3,
            varints: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.deser_cycles, 15);
        assert_eq!(a.fields, 5);
        assert_eq!(a.varints, 7);
        assert!(!a.saturated, "clean merges must not raise the flag");
        a.debug_assert_unsaturated();
    }

    #[test]
    fn merge_saturates_and_raises_the_flag() {
        let mut a = AccelStats {
            deser_cycles: Cycles::MAX - 1,
            ..Default::default()
        };
        let b = AccelStats {
            deser_cycles: 10,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.deser_cycles, Cycles::MAX);
        assert!(a.saturated, "overflow must be detected, not silent");
    }

    #[test]
    fn saturation_flag_is_sticky_across_merges() {
        let mut a = AccelStats {
            deser_cycles: Cycles::MAX,
            ..Default::default()
        };
        a.merge(&AccelStats {
            deser_cycles: 1,
            ..Default::default()
        });
        assert!(a.saturated);
        let mut clean = AccelStats::default();
        clean.merge(&a);
        assert!(
            clean.saturated,
            "merging a saturated block marks the aggregate"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "AccelStats saturated")]
    fn debug_assert_fires_on_saturated_blocks() {
        let s = AccelStats {
            saturated: true,
            ..Default::default()
        };
        s.debug_assert_unsaturated();
    }
}
