//! Accelerator configuration knobs.

use protoacc_mem::Cycles;

/// Parameters of the modeled accelerator.
///
/// Defaults match the paper's evaluated configuration: 2 GHz clock (the SoC
/// clock; Section 5.3 shows the units close timing at 1.84-1.95 GHz in
/// 22 nm), a 16-byte memloader consumer window, and on-chip sub-message
/// metadata stacks of depth 25, which cover 99.999% of fleet message bytes
/// (Section 3.8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Accelerator clock in GHz.
    pub freq_ghz: f64,
    /// Memloader consumer window width in bytes (data exposed per cycle).
    pub window_bytes: usize,
    /// Number of parallel field serializer units (Section 4.5.4).
    pub field_serializers: usize,
    /// On-chip sub-message metadata stack depth; deeper nesting spills to
    /// DRAM (Section 3.8).
    pub stack_depth: usize,
    /// Extra cycles per stack push/pop once spilled to DRAM.
    pub stack_spill_cycles: Cycles,
    /// Cycles to dispatch one RoCC instruction from the core ("ones-of-
    /// cycles", Section 4.1).
    pub rocc_dispatch_cycles: Cycles,
    /// Entries in the accelerator's small ADT-entry cache (repeatedly
    /// touched message types hit here instead of the L2).
    pub adt_cache_entries: usize,
    /// Validate UTF-8 on string fields during deserialization — the one
    /// change Section 7 identifies for proto3 support. Off for proto2.
    pub validate_utf8: bool,
    /// Model upstream protoc's *dense* hasbits packing instead of the
    /// paper's sparse one — the rejected alternative of Section 4.2, which
    /// "would require significant overhead (e.g. a mapping table indexed by
    /// field number, introducing an additional 32-bit read per-field)".
    /// Used by the hasbits ablation; off in the evaluated design.
    pub dense_hasbits: bool,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            freq_ghz: AccelConfig::DEFAULT_FREQ_GHZ,
            window_bytes: AccelConfig::WINDOW_BYTES,
            field_serializers: AccelConfig::FIELD_SERIALIZERS,
            stack_depth: AccelConfig::STACK_DEPTH,
            stack_spill_cycles: AccelConfig::STACK_SPILL_CYCLES,
            rocc_dispatch_cycles: AccelConfig::ROCC_DISPATCH_CYCLES,
            adt_cache_entries: AccelConfig::ADT_CACHE_ENTRIES,
            validate_utf8: false,
            dense_hasbits: false,
        }
    }
}

impl AccelConfig {
    /// SoC clock of the evaluated configuration, in GHz.
    pub const DEFAULT_FREQ_GHZ: f64 = 2.0;
    /// Hardware limit: memloader consumer window width in bytes. Field
    /// payloads wider than this take multiple cycles to stream.
    pub const WINDOW_BYTES: usize = 16;
    /// Hardware limit: parallel field serializer units (Section 4.5.4).
    pub const FIELD_SERIALIZERS: usize = 4;
    /// Hardware limit: on-chip sub-message metadata stack depth. Messages
    /// nested deeper than this spill stack frames to DRAM (Section 3.8;
    /// depth 25 covers 99.999% of fleet message bytes).
    pub const STACK_DEPTH: usize = 25;
    /// Penalty per stack push/pop once spilled to DRAM.
    pub const STACK_SPILL_CYCLES: Cycles = 40;
    /// Cycles to dispatch one RoCC instruction from the core (Section 4.1).
    pub const ROCC_DISPATCH_CYCLES: Cycles = 4;
    /// Hardware limit: entries in the accelerator's ADT cache. Working sets
    /// of descriptor-table lines beyond this thrash to the L2.
    pub const ADT_CACHE_ENTRIES: usize = 128;
    /// Widest field key that still encodes in two wire bytes (field numbers
    /// above this take 3-5 key bytes and inflate per-field decode work).
    pub const TWO_BYTE_KEY_MAX_FIELD: u32 = 2047;

    /// Throughput in Gbits/s for `bytes` processed in `cycles` at this clock.
    pub fn gbits_per_sec(&self, bytes: u64, cycles: Cycles) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        (bytes as f64 * 8.0) * self.freq_ghz / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = AccelConfig::default();
        assert_eq!(c.freq_ghz, 2.0);
        assert_eq!(c.window_bytes, 16);
        assert_eq!(c.stack_depth, 25);
    }

    #[test]
    fn throughput_conversion() {
        let c = AccelConfig::default();
        // 16 B/cycle at 2 GHz = 256 Gbit/s peak.
        let g = c.gbits_per_sec(16, 1);
        assert!((g - 256.0).abs() < 1e-9);
        assert_eq!(c.gbits_per_sec(16, 0), 0.0);
    }
}
