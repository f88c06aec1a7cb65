//! Abstract interpretation of the protoacc behavioral model.
//!
//! The simulator charges every accelerator action from fixed cost tables
//! ([`protoacc::AccelConfig`], [`protoacc_mem::MemConfig`]), so each state of
//! the field-handler FSM (parseKey → typeInfo → per-type write states,
//! Section 3 of the paper) has a knowable per-visit cycle minimum and
//! maximum. This crate runs an *interval-domain* abstract interpreter over
//! the schema: every field contributes an interval of per-record costs, and
//! the per-message join composes a two-sided **cycle envelope**
//! `[lower, upper]` as a function of wire length — without running the
//! simulator.
//!
//! * The **lower** bound is the workspace's one static cycle floor: on top
//!   of the stream-bandwidth and max-record-size floors it charges the
//!   mandatory per-record FSM states (key parse, typeInfo lookup, hasbits
//!   write, value commit) plus the root ADT load and frame close.
//! * The **upper** bound is a sound static ceiling: every ADT-cache access
//!   misses, every cache probe goes to DRAM, every TLB translation walks,
//!   every varint is maximally wide, every stack push/pop spills, and every
//!   streaming transfer sees the worst alignment. Soundness is
//!   cross-validated against the simulator in the suite's
//!   `envelope_soundness` tests.
//!
//! # Scope
//!
//! The *deserialization lower bound* assumes schema-conformant input (every
//! record's field number is defined in the schema): a single huge *unknown*
//! length-delimited record is skipped in bulk and can undercut the
//! per-record floor. The upper bound holds for arbitrary well-formed wire
//! input, unknown fields included. The *serialization* envelope assumes
//! objects written by the runtime (no hasbits set in field-number gaps).
//!
//! # Sanitizer
//!
//! On top of the envelope, this crate checks dynamic traces of the
//! multi-instance serving model ([`protoacc::ServeCluster`]) and reports
//! [`Finding`]s under three codes, surfaced by `protoacc-lint` as
//! diagnostics: PA007 (measured service cycles inside the static envelope),
//! PA008 (the command lifecycle, [`protoacc::check_lifecycle`]) and PA009
//! (no overlapping buffers among in-flight commands).
//!
//! # Diagnostic codes
//!
//! [`DiagCode`] is the workspace's one list of `PAxxx` codes, each with its
//! name and default severity; the sanitizer's findings, the translation
//! validator's violations and the lint's diagnostics all carry it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod from_trace;

use std::collections::HashMap;
use std::fmt;

use protoacc::{AccelConfig, CommandRecord};
use protoacc_mem::{Cycles, MemConfig, BUS_WIDTH_BYTES, PAGE_SIZE};
use protoacc_runtime::{AdtLayout, MessageLayouts};
use protoacc_schema::{FieldType, MessageId, Schema};
use protoacc_wire::{FieldKey, MAX_VARINT_LEN};

// ---------------------------------------------------------------------------
// Worst-case memory-system geometry
// ---------------------------------------------------------------------------

/// Bus occupancy in cycles for `len` bytes over the 16-byte TileLink bus.
#[must_use]
pub fn bus_cycles(len: u64) -> Cycles {
    len.div_ceil(BUS_WIDTH_BYTES as u64)
}

/// Worst-case number of cache lines an extent of `len` bytes can touch,
/// over all alignments: starting one byte before a line boundary, the extent
/// spans `floor((len + line - 2) / line) + 1` lines.
#[must_use]
pub fn lines_upper(mem: &MemConfig, len: u64) -> u64 {
    let line = mem.l1.line_bytes as u64;
    if len == 0 {
        0
    } else {
        len.saturating_add(line - 2) / line + 1
    }
}

/// Worst-case number of pages an extent of `len` bytes can touch (one TLB
/// translation is charged per touched page).
#[must_use]
pub fn pages_upper(len: u64) -> u64 {
    let page = PAGE_SIZE as u64;
    if len == 0 {
        0
    } else {
        len.saturating_add(page - 2) / page + 1
    }
}

/// The latency-overlap factor streams see with `sharers` active requesters;
/// mirrors `MemSystem::effective_overlap` exactly.
#[must_use]
pub fn overlap_floor(mem: &MemConfig, sharers: usize) -> u64 {
    (mem.max_outstanding.max(1) as u64 / sharers.max(1) as u64).max(1)
}

/// Ceiling on `MemSystem::access`: every touched page walks the page table,
/// every touched line probes all the way to DRAM.
#[must_use]
pub fn access_upper(mem: &MemConfig, len: u64) -> Cycles {
    pages_upper(len)
        .saturating_mul(mem.tlb.walk_cycles)
        .saturating_add(lines_upper(mem, len).saturating_mul(mem.dram_latency))
}

/// Ceiling on `MemSystem::pipelined`: worst TLB + bus occupancy (scaled by
/// `sharers`) + all line probes missing to DRAM, amortized over the
/// outstanding-request window.
#[must_use]
pub fn pipelined_upper(mem: &MemConfig, len: u64, sharers: usize) -> Cycles {
    let probes =
        lines_upper(mem, len).saturating_mul(mem.dram_latency) / overlap_floor(mem, sharers);
    pages_upper(len)
        .saturating_mul(mem.tlb.walk_cycles)
        .saturating_add(bus_cycles(len).saturating_mul(sharers.max(1) as u64))
        .saturating_add(probes)
}

/// Ceiling on `MemSystem::stream`: worst TLB + one exposed DRAM latency +
/// the remaining misses amortized + bus occupancy scaled by `sharers`.
#[must_use]
pub fn stream_upper(mem: &MemConfig, len: u64, sharers: usize) -> Cycles {
    if len == 0 {
        return 0;
    }
    let hidden =
        (lines_upper(mem, len) - 1).saturating_mul(mem.dram_latency) / overlap_floor(mem, sharers);
    pages_upper(len)
        .saturating_mul(mem.tlb.walk_cycles)
        .saturating_add(mem.dram_latency)
        .saturating_add(hidden)
        .saturating_add(bus_cycles(len).saturating_mul(sharers.max(1) as u64))
}

/// Floor on `MemSystem::stream`: at least one line probe (an L1 hit at
/// best) plus un-hideable bus occupancy. Valid for any sharer count, since
/// sharing only inflates the cost.
#[must_use]
pub fn stream_lower(mem: &MemConfig, len: u64) -> Cycles {
    if len == 0 {
        0
    } else {
        mem.l1_latency.saturating_add(bus_cycles(len))
    }
}

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

/// A closed cycle interval `[lower, upper]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive minimum.
    pub lower: Cycles,
    /// Inclusive maximum.
    pub upper: Cycles,
}

impl Interval {
    /// Whether `cycles` lies inside the interval.
    #[must_use]
    pub fn contains(&self, cycles: Cycles) -> bool {
        self.lower <= cycles && cycles <= self.upper
    }

    /// Envelope tightness: `upper / lower` (infinite if `lower` is 0).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.lower == 0 {
            f64::INFINITY
        } else {
            self.upper as f64 / self.lower as f64
        }
    }
}

/// Which accelerator unit an envelope models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The deserializer unit (wire → object graph).
    Deserialize,
    /// The serializer unit (object graph → wire).
    Serialize,
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// A static two-sided cycle envelope for one message type, one direction.
///
/// Built once per `(schema, root)` by abstractly interpreting the
/// field-handler FSM over the interval domain; evaluated per wire length in
/// O(1). Bounds are *unit-level* — they bound the `cycles` of the run
/// `do_proto_{deser,ser}` returns, which include one RoCC dispatch. For
/// the serving model's per-command service time (which pays a second
/// dispatch) use [`Envelope::service_bounds`].
#[derive(Debug, Clone)]
pub struct Envelope {
    direction: Direction,
    accel: AccelConfig,
    mem: MemConfig,
    /// Largest wire size of a single schema-conformant record, when bounded.
    max_record_bytes: Option<u64>,
    has_scalar: bool,
    has_repeated_scalar: bool,
    has_packed: bool,
    has_strings: bool,
    has_messages: bool,
    /// Any repeated or packed field reachable: repeated regions exist.
    has_regions: bool,
    max_object_size: u64,
    hasbits_bytes_max: u64,
    span_words_max: u64,
    repeated_fields_max: u64,
}

impl Envelope {
    /// Builds the deserialization envelope for messages rooted at `root`.
    #[must_use]
    pub fn deser(
        schema: &Schema,
        layouts: &MessageLayouts,
        root: MessageId,
        accel: &AccelConfig,
        mem: &MemConfig,
    ) -> Self {
        Self::analyze(schema, layouts, root, accel, mem, Direction::Deserialize)
    }

    /// Builds the serialization envelope for messages rooted at `root`.
    #[must_use]
    pub fn ser(
        schema: &Schema,
        layouts: &MessageLayouts,
        root: MessageId,
        accel: &AccelConfig,
        mem: &MemConfig,
    ) -> Self {
        Self::analyze(schema, layouts, root, accel, mem, Direction::Serialize)
    }

    fn analyze(
        schema: &Schema,
        layouts: &MessageLayouts,
        root: MessageId,
        accel: &AccelConfig,
        mem: &MemConfig,
        direction: Direction,
    ) -> Self {
        let mut e = Envelope {
            direction,
            accel: *accel,
            mem: *mem,
            max_record_bytes: None,
            has_scalar: false,
            has_repeated_scalar: false,
            has_packed: false,
            has_strings: false,
            has_messages: false,
            has_regions: false,
            max_object_size: 0,
            hasbits_bytes_max: 0,
            span_words_max: 0,
            repeated_fields_max: 0,
        };
        let mut max_record: Option<u64> = Some(0);
        for (_, _, f) in schema.walk_fields(root) {
            let value_bytes: Option<u64> = if f.is_packed() {
                None
            } else {
                match f.field_type() {
                    FieldType::Double | FieldType::Fixed64 | FieldType::SFixed64 => Some(8),
                    FieldType::Float | FieldType::Fixed32 | FieldType::SFixed32 => Some(4),
                    FieldType::String | FieldType::Bytes | FieldType::Message(_) => None,
                    // Every varint-encoded type can legally occupy the full
                    // 10-byte wire varint.
                    _ => Some(MAX_VARINT_LEN as u64),
                }
            };
            if let (Some(m), Some(v)) = (max_record, value_bytes) {
                let key = FieldKey::new(f.number(), f.field_type().wire_type())
                    .map_or(MAX_VARINT_LEN, FieldKey::encoded_len) as u64;
                max_record = Some(m.max(key + v));
            } else {
                max_record = None;
            }
            let repeated = f.is_repeated() || f.is_packed();
            if repeated {
                e.has_regions = true;
            }
            match f.field_type() {
                FieldType::String | FieldType::Bytes => e.has_strings = true,
                FieldType::Message(_) => e.has_messages = true,
                _ if f.is_packed() => e.has_packed = true,
                _ if repeated => e.has_repeated_scalar = true,
                _ => e.has_scalar = true,
            }
        }
        // A schema with no fields bounds every record at 0 bytes; such
        // messages carry no records, so leave the bound unset.
        e.max_record_bytes = max_record.filter(|m| *m > 0);
        for id in schema.reachable(root) {
            let l = layouts.layout(id);
            e.max_object_size = e.max_object_size.max(l.object_size());
            let span = l.field_number_span();
            e.hasbits_bytes_max = e.hasbits_bytes_max.max(span.div_ceil(8));
            e.span_words_max = e.span_words_max.max(span.div_ceil(64));
            let reps = schema
                .message(id)
                .fields()
                .iter()
                .filter(|f| f.is_repeated() || f.is_packed())
                .count() as u64;
            e.repeated_fields_max = e.repeated_fields_max.max(reps);
        }
        e
    }

    /// The direction this envelope models.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Unit-level cycle lower bound for a `wire_len`-byte message
    /// (deserialization input length, or serialization output length).
    ///
    /// Valid for any sharer count: contention only inflates cost.
    #[must_use]
    pub fn lower_bound(&self, wire_len: u64) -> Cycles {
        match self.direction {
            Direction::Deserialize => self.deser_lower(wire_len),
            Direction::Serialize => self.ser_lower(wire_len),
        }
    }

    /// Unit-level cycle upper bound for a `wire_len`-byte message processed
    /// while `sharers` requesters contend for the memory interface.
    #[must_use]
    pub fn upper_bound(&self, wire_len: u64, sharers: usize) -> Cycles {
        match self.direction {
            Direction::Deserialize => self.deser_upper(wire_len, sharers),
            Direction::Serialize => self.ser_upper(wire_len, sharers),
        }
    }

    /// Unit-level `[lower, upper]` envelope.
    #[must_use]
    pub fn bounds(&self, wire_len: u64, sharers: usize) -> Interval {
        Interval {
            lower: self.lower_bound(wire_len),
            upper: self.upper_bound(wire_len, sharers),
        }
    }

    /// Envelope for a serving-model command's *service* time, which pays one
    /// extra RoCC dispatch on top of the unit run
    /// (`service = rocc_dispatch + unit_cycles`).
    #[must_use]
    pub fn service_bounds(&self, wire_len: u64, sharers: usize) -> Interval {
        let b = self.bounds(wire_len, sharers);
        Interval {
            lower: b.lower.saturating_add(self.accel.rocc_dispatch_cycles),
            upper: b.upper.saturating_add(self.accel.rocc_dispatch_cycles),
        }
    }

    fn au(&self, len: u64) -> Cycles {
        access_upper(&self.mem, len)
    }

    fn pu(&self, len: u64, sharers: usize) -> Cycles {
        pipelined_upper(&self.mem, len, sharers)
    }

    /// Worst-case close cost attributable to one repeated-region record:
    /// close op + header writeback + final-slot writeback + the fold slack
    /// of merging this region's element bytes into the global
    /// `pipelined(8·L)` charge.
    fn region_ovh(&self, s: usize) -> Cycles {
        4 + self.pu(24, s) + 2 * self.pu(8, s)
    }

    /// Largest per-record FSM cost over every field kind present in the
    /// schema (the interval join), excluding per-byte charges which are
    /// accounted once, globally.
    fn record_cost_max(&self, s: usize) -> Cycles {
        // Every defined record: parseKey, typeInfo ADT-cache miss, hasbits
        // write, plus the dense-packing table read when modeled, plus one
        // cycle of slack for the skip op of unknown records.
        let mut common = 1 + 1 + self.au(16) + self.pu(1, s) + 1;
        if self.accel.dense_hasbits {
            common += self.au(4);
        }
        let region_elem = 2 + self.pu(8, s) + self.region_ovh(s);
        let mut extra: Cycles = 0;
        if self.has_scalar {
            extra = extra.max(1 + self.pu(8, s));
        }
        if self.has_repeated_scalar {
            extra = extra.max(2 + self.pu(8, s) + self.region_ovh(s));
        }
        if self.has_packed {
            extra = extra.max(1 + self.region_ovh(s));
        }
        if self.has_strings {
            // read_len + utf8 + alloc + window-stall slack, the 32-byte
            // string object write, fold slack for the payload-byte charge,
            // then either the scalar slot or the repeated-region path.
            let tail = self.pu(8, s).max(region_elem);
            extra = extra.max(4 + self.pu(32, s) + self.pu(16, s) + tail);
        }
        if self.has_messages {
            let sub = 1 // read_len
                + 1 + self.au(64) // sub-ADT header load (cache miss)
                + 1 // arena alloc
                + self.pu(self.max_object_size, s) // zero-init
                + self.pu(8, s).max(region_elem) // parent slot or region
                + 1 + self.accel.stack_spill_cycles // push (spilled)
                + 1 + self.accel.stack_spill_cycles // close + pop (spilled)
                + 2; // close-into-parent bookkeeping
            extra = extra.max(sub);
        }
        common + extra
    }

    fn deser_upper(&self, len: u64, sharers: usize) -> Cycles {
        let s = sharers.max(1);
        let w = self.accel.window_bytes as u64;
        // Root ADT load (miss), root close + final op, spill slack.
        let fixed = 1 + self.au(64) + 2 + self.accel.stack_spill_cycles;
        let mut fsm = fixed.saturating_add(self.record_cost_max(s).saturating_mul(len));
        if self.has_strings {
            // All string payload bytes, written once, charged as one
            // worst-case pipelined transfer (fold slack is per-record).
            fsm = fsm.saturating_add(self.pu(len, s));
        }
        if self.has_regions {
            // Repeated-region element arrays: every element is at most
            // 8 bytes in memory (scalars or pointers) and consumed at least
            // one wire byte.
            fsm = fsm.saturating_add(self.pu(len.saturating_mul(8), s));
        }
        // Wire slack: per-byte packed decode plus window-rate streaming of
        // string payloads and skipped records (disjoint byte populations).
        fsm = fsm.saturating_add(len).saturating_add(len.div_ceil(w));
        self.accel
            .rocc_dispatch_cycles
            .saturating_add(fsm.max(stream_upper(&self.mem, len, s)))
    }

    fn deser_lower(&self, len: u64) -> Cycles {
        let rocc = self.accel.rocc_dispatch_cycles;
        if len == 0 {
            // Root ADT load (hit) + root close.
            return rocc + 2;
        }
        // Schema-conformant records cannot exceed max_record_bytes, so at
        // least ceil(len / max_record) records exist; each costs at least
        // 4 cycles (key, typeInfo hit, hasbits bus slot, value commit).
        let n_min = match self.max_record_bytes {
            Some(r) => len.div_ceil(r),
            None => 1,
        };
        let fsm = 2u64.saturating_add(4u64.saturating_mul(n_min));
        rocc.saturating_add(fsm.max(stream_lower(&self.mem, len)))
    }

    /// Worst-case overhead of one memwriter prepend beyond its
    /// data-proportional share: op cost, window slack, and the fold slack of
    /// merging its cursor bytes into the global `pipelined(L)` charge (a
    /// key or injected length is at most 10 bytes).
    fn prepend_ovh(&self, s: usize) -> Cycles {
        let w = self.accel.window_bytes as u64;
        3 + 10u64.div_ceil(w) + self.pu(10, s)
    }

    /// Worst-case per-set-field serializer cost (frontend scan entry, ADT
    /// entry miss, FSU dispatch, slot reads, key/len prepends), excluding
    /// per-byte charges.
    fn ser_field_cost(&self, s: usize) -> Cycles {
        let dense = if self.accel.dense_hasbits {
            self.au(4)
        } else {
            0
        };
        2 + self.au(16) + dense + 1 + 3 * self.au(8) + 10 + 3 * self.prepend_ovh(s)
    }

    /// Worst-case per-element serializer cost (pointer/slot reads and
    /// per-element prepend overhead), excluding element payload bytes.
    fn ser_elem_cost(&self, s: usize) -> Cycles {
        3 * self.au(8) + self.pu(8, s) + 1 + 10 + 2 * self.prepend_ovh(s)
    }

    /// Worst-case per-emission serializer cost: ADT header miss, hasbits +
    /// is_submessage scans, word scan, sub-message bookkeeping and length
    /// injection, plus present-but-empty repeated fields (which emit no
    /// bytes yet still cost their field scan and header reads).
    fn ser_msg_cost(&self, s: usize) -> Cycles {
        let empty_repeated = self
            .repeated_fields_max
            .saturating_mul(self.ser_field_cost(s) + 3 * (self.pu(8, s) + 1));
        (1 + self.au(64))
            .saturating_add(self.pu(self.hasbits_bytes_max, s))
            .saturating_add(self.span_words_max)
            .saturating_add(1 + self.accel.stack_spill_cycles)
            .saturating_add(3 * (self.pu(8, s) + 1))
            .saturating_add(2 * self.prepend_ovh(s))
            .saturating_add(4)
            .saturating_add(empty_repeated)
    }

    fn ser_upper(&self, len: u64, sharers: usize) -> Cycles {
        let s = sharers.max(1);
        let w = self.accel.window_bytes as u64;
        // Every non-root emission injects its own key and length bytes
        // (at least 2), so emissions ≤ 1 + len/2; every emitting field
        // produces at least 2 output bytes; every element at least 1.
        let emissions = 1 + len / 2;
        let mut total = self.ser_msg_cost(s).saturating_mul(emissions);
        total = total.saturating_add(self.ser_field_cost(s).saturating_mul(len / 2 + 1));
        total = total.saturating_add(self.ser_elem_cost(s).saturating_mul(len));
        // Output bytes: memwriter window rate, cursor writeback, and string
        // payload reads, each charged once globally.
        total = total
            .saturating_add(len.div_ceil(w))
            .saturating_add(2 * self.pu(len, s));
        if self.has_packed || self.has_repeated_scalar {
            // Packed and repeated scalar element arrays are read in bulk:
            // at most 8 bytes of memory per emitted wire byte.
            total = total.saturating_add(self.au(len.saturating_mul(8)));
        }
        self.accel.rocc_dispatch_cycles.saturating_add(total)
    }

    fn ser_lower(&self, len: u64) -> Cycles {
        let rocc = self.accel.rocc_dispatch_cycles;
        if len == 0 {
            // The frontend still loads the root ADT header.
            return rocc + 1;
        }
        let w = self.accel.window_bytes as u64;
        // Every output byte passes through the memwriter: at least one
        // prepend op, window-rate staging, and bus occupancy on the cursor.
        let memwriter = 1u64
            .saturating_add(len.div_ceil(w))
            .saturating_add(bus_cycles(len));
        rocc.saturating_add(memwriter)
    }
}

// ---------------------------------------------------------------------------
// Wire amplification (PA012) and cross-message composition (PA015)
// ---------------------------------------------------------------------------

/// Affine upper bound on the decoded in-memory footprint of one message as a
/// function of its wire length: `footprint ≤ base_bytes + per_wire_byte · L`.
///
/// `base_bytes` is the root object the runtime materializes before reading a
/// single wire byte; `per_wire_byte` is the steepest bytes-per-wire-byte
/// slope any schema-conformant record can achieve (the *wire amplification
/// factor* — the static twin of a decompression bomb). A two-byte record
/// `key + len(0)` referencing a message type, for example, forces allocation
/// and zero-initialization of the entire child object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplificationBound {
    /// Root object size materialized at wire length zero.
    pub base_bytes: u64,
    /// Worst-case decoded bytes added per wire byte consumed.
    pub per_wire_byte: f64,
}

impl AmplificationBound {
    /// Evaluates the footprint ceiling for a `wire_len`-byte message.
    #[must_use]
    pub fn footprint_upper(&self, wire_len: u64) -> u64 {
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let slope_bytes = (self.per_wire_byte * wire_len as f64).ceil() as u64;
        self.base_bytes.saturating_add(slope_bytes)
    }
}

/// Span-proportional memory cost of one message type's compiled dispatch
/// artifacts — the static twin of the blowup PA013 warns about, sharpened
/// from "span looks wide" to "these many bytes of table memory".
///
/// Two structures scale with the *field-number span* rather than the defined
/// field count: the fast path's dense dispatch table (one slot per number in
/// `min..=max`) and the hardware ADT image (header + a 16-byte entry per
/// span slot + the is_submessage bit field, [`AdtLayout::footprint`]). The
/// verifier's PA020 check evaluates this model per type against a byte
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFootprint {
    /// Field-number span (`max - min + 1`, 0 for an empty message).
    pub span: u64,
    /// Software dense dispatch table bytes; 0 when the fast path falls back
    /// to a sparse (field-count-proportional) table for this span.
    pub sw_table_bytes: u64,
    /// Hardware ADT image bytes — always span-proportional; the simulated
    /// accelerator has no sparse fallback (Section 4.2).
    pub hw_adt_bytes: u64,
}

impl TableFootprint {
    /// The larger of the two span-proportional costs — what PA020 compares
    /// against its budget.
    #[must_use]
    pub fn worst_bytes(&self) -> u64 {
        self.sw_table_bytes.max(self.hw_adt_bytes)
    }
}

/// Evaluates the [`TableFootprint`] model for a message spanning `span`
/// field numbers, with `sw_entry_bytes` per software dense-table slot and a
/// dense-table eligibility limit of `dense_limit` (the fast path's
/// `DENSE_SPAN_LIMIT`).
#[must_use]
pub fn table_footprint(span: u64, sw_entry_bytes: u64, dense_limit: u64) -> TableFootprint {
    let sw_table_bytes = if span <= dense_limit {
        span.saturating_mul(sw_entry_bytes)
    } else {
        0
    };
    TableFootprint {
        span,
        sw_table_bytes,
        hw_adt_bytes: AdtLayout::footprint(span),
    }
}

/// Smallest wire size of one value of `ft` (packed elements have no key).
fn min_value_wire_bytes(ft: FieldType) -> u64 {
    match ft {
        FieldType::Double | FieldType::Fixed64 | FieldType::SFixed64 => 8,
        FieldType::Float | FieldType::Fixed32 | FieldType::SFixed32 => 4,
        // Varint-encoded types and length-delimited types (empty payload
        // after a 1-byte length) bottom out at one byte.
        _ => 1,
    }
}

/// Computes the [`AmplificationBound`] for messages rooted at `root` by
/// joining the per-record footprint/wire ratio over every reachable field.
///
/// Per-field slopes (key = encoded key length, `v` = minimal value bytes):
///
/// * scalar: an 8-byte slot rewritten per record → `8 / (key + v)`;
/// * repeated scalar: an 8-byte element appended per record → same ratio;
/// * packed scalar: 8 bytes of element storage per `v` payload bytes;
/// * string/bytes: a [`STRING_OBJECT_BYTES`]-byte object (+8-byte element
///   slot) per empty record, plus one heap byte per payload byte;
/// * message: the child's entire zero-initialized object (+8-byte slot) per
///   empty record — the dominant amplifier for large child types.
///
/// [`STRING_OBJECT_BYTES`]: protoacc_runtime::STRING_OBJECT_BYTES
#[must_use]
pub fn amplification_bound(
    schema: &Schema,
    layouts: &MessageLayouts,
    root: MessageId,
) -> AmplificationBound {
    let mut slope = 0.0f64;
    for (_, _, f) in schema.walk_fields(root) {
        let key = FieldKey::new(f.number(), f.field_type().wire_type())
            .map_or(MAX_VARINT_LEN, FieldKey::encoded_len) as u64;
        let v = min_value_wire_bytes(f.field_type());
        let (mem, wire) = match f.field_type() {
            FieldType::String | FieldType::Bytes => {
                (protoacc_runtime::STRING_OBJECT_BYTES + 8, key + 1)
            }
            FieldType::Message(sub) => (layouts.layout(sub).object_size() + 8, key + 1),
            _ if f.is_packed() => (8, v),
            _ => (8, key + v),
        };
        #[allow(clippy::cast_precision_loss)]
        let mut ratio = mem as f64 / wire as f64;
        if matches!(f.field_type(), FieldType::String | FieldType::Bytes) {
            // Payload bytes land in heap storage one-for-one on top of the
            // per-record object cost.
            ratio += 1.0;
        }
        slope = slope.max(ratio);
    }
    AmplificationBound {
        base_bytes: layouts.layout(root).object_size(),
        per_wire_byte: slope,
    }
}

/// Static ceiling on the *composed* service time of one `root`-typed
/// command: the deserialization service ceiling for a `max_wire_bytes`-long
/// input **plus** the worst-case sub-object machinery for every reachable
/// child type (sub-ADT header miss, zero-init of the child object, spilled
/// stack push/pop, close bookkeeping).
///
/// The per-type envelope already charges the worst single record cost per
/// wire byte, but it joins over field kinds — it never has to pay *every*
/// child type's object at once. A parent whose children individually pass
/// the PA010 watchdog check can still compose past the budget; this sum is
/// the deny test PA015 applies.
#[must_use]
pub fn composed_service_ceiling(
    schema: &Schema,
    layouts: &MessageLayouts,
    root: MessageId,
    accel: &AccelConfig,
    mem: &MemConfig,
    max_wire_bytes: u64,
) -> Cycles {
    let env = Envelope::deser(schema, layouts, root, accel, mem);
    let mut total = env.service_bounds(max_wire_bytes, 1).upper;
    for id in schema.reachable(root) {
        if id == root {
            continue;
        }
        let sub = (1 + access_upper(mem, 64))
            .saturating_add(pipelined_upper(mem, layouts.layout(id).object_size(), 1))
            .saturating_add(2 * (1 + accel.stack_spill_cycles))
            .saturating_add(2);
        total = total.saturating_add(sub);
    }
    total
}

// ---------------------------------------------------------------------------
// Diagnostic codes
// ---------------------------------------------------------------------------

/// How seriously a diagnostic should be treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed: recorded in no report.
    Allow,
    /// Reported, but does not fail a lint gate by default.
    Warn,
    /// Reported and fails the lint gate.
    Deny,
}

impl Severity {
    /// Lower-case name as used in CLI flags and JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses a CLI severity name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        [Severity::Allow, Severity::Warn, Severity::Deny]
            .into_iter()
            .find(|v| v.as_str() == s)
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Declares [`DiagCode`] from one list: each code's doc, its stable
/// `PAxxx` string, its kebab-case name and its default severity.
macro_rules! diag_codes {
    ($($(#[$doc:meta])* $variant:ident = ($code:literal, $name:literal, $severity:ident),)*) => {
        /// Stable identifier of one check: the lint's static checks
        /// (PA001–PA006, PA010–PA015), the serve sanitizer (PA007–PA009) and
        /// the translation validator (PA016–PA020).
        ///
        /// Only a *provably* spilling type (finite nesting depth greater than
        /// the stack depth) denies by default among the static codes;
        /// everything else — including recursive types whose instance depth
        /// is data-dependent — warns. The sanitizer codes always report
        /// genuine model violations, so they deny, and so do PA016–PA019: a
        /// disproved table/layout property is a compiler bug that silently
        /// corrupts data, never a schema style concern. PA020 is a budget
        /// threshold, so it warns.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum DiagCode {
            $($(#[$doc])* $variant,)*
        }

        impl DiagCode {
            /// Every code, in PA-number order.
            pub const ALL: &'static [DiagCode] = &[$(DiagCode::$variant),*];

            /// The stable `PAxxx` code string.
            #[must_use]
            pub fn code(self) -> &'static str {
                match self {
                    $(DiagCode::$variant => $code,)*
                }
            }

            /// Short kebab-case name.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(DiagCode::$variant => $name,)*
                }
            }

            /// Default severity when no override is configured.
            #[must_use]
            pub fn default_severity(self) -> Severity {
                match self {
                    $(DiagCode::$variant => Severity::$severity,)*
                }
            }
        }
    };
}

diag_codes! {
    /// Message nesting can exceed the on-chip metadata stack depth, so
    /// sub-message pushes/pops spill to DRAM (Section 3.8).
    StackSpill = ("PA001", "stack-spill", Deny),
    /// A field number is wide enough that its wire key no longer fits the
    /// 2-byte key fast path.
    WideKey = ("PA002", "wide-key", Warn),
    /// Field numbers are sparse enough that a dense hasbits mapping would
    /// waste per-field work (the rejected alternative of Section 4.2,
    /// crossover analysis in Section 3.7).
    SparseHasbits = ("PA003", "sparse-hasbits", Warn),
    /// A schema feature the accelerator punts to software (proto2
    /// `required` presence enforcement; UTF-8 validation of `string` fields
    /// when proto3 semantics are enabled, Section 7).
    SoftwareFallback = ("PA004", "software-fallback", Warn),
    /// Packed repeated elements are far narrower than the 16-byte consumer
    /// window, so the field-handling FSM, not the memloader, bounds
    /// throughput.
    WindowStarve = ("PA005", "window-starve", Warn),
    /// The descriptor-table working set of one root message exceeds the
    /// accelerator's ADT-entry cache, thrashing to the L2.
    AdtThrash = ("PA006", "adt-thrash", Warn),
    /// A measured command service time fell outside the static
    /// `[lower, upper]` cycle envelope — either the model charged cycles
    /// the abstract interpretation says are impossible, or the envelope
    /// itself is unsound. Sanitizer-only.
    EnvelopeViolation = ("PA007", "envelope-violation", Deny),
    /// The serve-model command lifecycle broke a rule of
    /// [`protoacc::check_lifecycle`] (dispatch before enqueue, overlapping
    /// commands on one instance, completion inconsistent with dispatch +
    /// service, accounting). Sanitizer-only.
    LifecycleOrder = ("PA008", "lifecycle-order", Deny),
    /// Two commands in flight at the same time touched overlapping memory
    /// ranges with at least one writer — an arena-aliasing hazard a real
    /// multi-instance accelerator would corrupt data on. Sanitizer-only.
    ArenaAliasing = ("PA009", "arena-aliasing", Deny),
    /// The static service-time ceiling of a message type (the envelope's
    /// upper bound at the configured maximum wire length) exceeds the
    /// configured watchdog cycle budget — a worst-case-but-correct command
    /// would be killed by the serve layer's watchdog.
    WatchdogBudget = ("PA010", "watchdog-budget", Warn),
    /// The message type lies on a reference cycle, so wire input alone
    /// chooses the nesting depth — the static twin of the fault plane's
    /// depth bomb, bounded at runtime only by the serve watchdog. Unlike
    /// PA001 (the stack-spill cost), this reports the cycle itself, with
    /// the shortest path back to the type.
    RecursionCycle = ("PA011", "recursion-cycle", Warn),
    /// The worst-case decoded in-memory footprint grows faster than the
    /// configured bytes-per-wire-byte limit — a decompression-bomb-shaped
    /// type that inflates in memory before the watchdog can see a single
    /// cycle overrun.
    WireAmplification = ("PA012", "wire-amplification", Warn),
    /// The type's field numbers span a wider range than the configured
    /// limit; hasbits words, dense-mapping tables and serializer span scans
    /// all scale with the *span*, not the field count.
    FieldFragmentation = ("PA013", "field-fragmentation", Warn),
    /// A repeated scalar field is not `[packed = true]`, so every element
    /// pays its own wire key and FSM record instead of streaming through
    /// the packed-element fast path.
    UnpackedRepeated = ("PA014", "unpacked-repeated", Warn),
    /// The *composed* worst-case service ceiling (this type plus the
    /// sub-object machinery of every reachable child type) exceeds the
    /// watchdog budget even though the type's own PA010 ceiling fits.
    ComposedEnvelope = ("PA015", "composed-envelope", Warn),
    /// A layout region (vptr, hasbits array, or a field slot) escapes
    /// `object_size` or aliases another region. Verifier-only.
    SlotOverlap = ("PA016", "slot-overlap", Deny),
    /// A dispatch table resolves an undefined field number, fails to
    /// resolve a defined one, or its dense/sparse access paths disagree
    /// entry-for-entry. Verifier-only.
    DispatchTotality = ("PA017", "dispatch-totality", Deny),
    /// A compiled dispatch entry's op, wire type, element size, slot
    /// offset, hasbit position, or pre-encoded key disagrees with an
    /// independent re-derivation from the schema. Verifier-only.
    EntryConsistency = ("PA018", "entry-consistency", Deny),
    /// The hardware ADT image in guest memory diverges from the software
    /// fast-path table — header word or field entry. Verifier-only.
    AdtEquivalence = ("PA019", "adt-equivalence", Deny),
    /// A type's span-proportional table memory (software dense table or
    /// hardware ADT image) exceeds the configured byte budget — PA013's
    /// span heuristic sharpened to measured bytes. Verifier-only.
    TableBlowup = ("PA020", "dense-table-blowup", Warn),
}

impl DiagCode {
    /// Parses either a `PAxxx` code (any case) or a kebab-case name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        DiagCode::ALL
            .iter()
            .copied()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.name() == s)
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

// ---------------------------------------------------------------------------
// Sanitizer
// ---------------------------------------------------------------------------

/// One sanitizer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// PA007, PA008 or PA009.
    pub code: DiagCode,
    /// The offending command's sequence number, when attributable.
    pub seq: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

/// Static service-time envelope for one serving-model command, matched to
/// its [`CommandRecord`] by sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceBounds {
    /// Sequence number of the command this bounds.
    pub seq: usize,
    /// Inclusive service-cycle minimum.
    pub lower: Cycles,
    /// Inclusive service-cycle maximum.
    pub upper: Cycles,
}

/// Coalesced byte ranges one serving-model command touched while it ran,
/// split by access kind, matched to its [`CommandRecord`] by sequence
/// number. Built from a trace's `mem_access` events by
/// [`from_trace::footprints_from_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandFootprint {
    /// Sequence number of the command ([`CommandRecord::seq`]).
    pub seq: usize,
    /// Half-open `[base, end)` ranges read, sorted and merged.
    pub reads: Vec<(u64, u64)>,
    /// Half-open `[base, end)` ranges written, sorted and merged.
    pub writes: Vec<(u64, u64)>,
}

fn ranges_conflict(a: &[(u64, u64)], b: &[(u64, u64)]) -> Option<(u64, u64)> {
    for &(alo, ahi) in a {
        for &(blo, bhi) in b {
            if alo < bhi && blo < ahi {
                return Some((alo.max(blo), ahi.min(bhi)));
            }
        }
    }
    None
}

/// Checks that no two commands in flight at the same time touched
/// overlapping byte ranges with at least one writer (the buffer-aliasing
/// hazard the serving model otherwise leaves to `arena_stride` being "big
/// enough"). Footprints are matched to records by sequence number; commands
/// without a footprint are skipped.
#[must_use]
pub fn check_aliasing(records: &[CommandRecord], footprints: &[CommandFootprint]) -> Vec<Finding> {
    let by_seq: HashMap<usize, &CommandFootprint> = footprints.iter().map(|f| (f.seq, f)).collect();
    let mut findings = Vec::new();
    for (i, a) in records.iter().enumerate() {
        let Some(fa) = by_seq.get(&a.seq) else {
            continue;
        };
        for b in &records[i + 1..] {
            // In-flight windows are [dispatch, complete).
            if !(a.dispatch < b.complete && b.dispatch < a.complete) {
                continue;
            }
            let Some(fb) = by_seq.get(&b.seq) else {
                continue;
            };
            let conflict = ranges_conflict(&fa.writes, &fb.writes)
                .or_else(|| ranges_conflict(&fa.writes, &fb.reads))
                .or_else(|| ranges_conflict(&fa.reads, &fb.writes));
            if let Some((lo, hi)) = conflict {
                findings.push(Finding {
                    code: DiagCode::ArenaAliasing,
                    seq: Some(a.seq),
                    detail: format!(
                        "commands {} and {} are concurrently in flight and both touch bytes [{lo:#x}, {hi:#x}) with at least one write",
                        a.seq, b.seq
                    ),
                });
            }
        }
    }
    findings
}

/// Checks every command's measured service cycles against its static
/// envelope. Bounds are matched by sequence number; commands without bounds
/// are skipped.
#[must_use]
pub fn check_envelopes(records: &[CommandRecord], bounds: &[ServiceBounds]) -> Vec<Finding> {
    let by_seq: HashMap<usize, &ServiceBounds> = bounds.iter().map(|b| (b.seq, b)).collect();
    let mut findings = Vec::new();
    for r in records {
        let Some(b) = by_seq.get(&r.seq) else {
            continue;
        };
        if r.service < b.lower || r.service > b.upper {
            findings.push(Finding {
                code: DiagCode::EnvelopeViolation,
                seq: Some(r.seq),
                detail: format!(
                    "command {} measured {} service cycles, outside its static envelope [{}, {}]",
                    r.seq, r.service, b.lower, b.upper
                ),
            });
        }
    }
    findings
}

/// Runs all three sanitizer checks and concatenates their findings.
#[must_use]
pub fn sanitize(
    records: &[CommandRecord],
    footprints: &[CommandFootprint],
    instances: usize,
    offered: u64,
    dropped: u64,
    bounds: &[ServiceBounds],
) -> Vec<Finding> {
    let mut findings: Vec<Finding> =
        protoacc::check_lifecycle(records, instances, offered, dropped)
            .into_iter()
            .map(|v| Finding {
                code: DiagCode::LifecycleOrder,
                seq: v.seq,
                detail: v.detail,
            })
            .collect();
    findings.extend(check_aliasing(records, footprints));
    findings.extend(check_envelopes(records, bounds));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc::CommandStatus;
    use protoacc_schema::parse_proto;

    fn mem() -> MemConfig {
        MemConfig::default()
    }

    #[test]
    fn diag_codes_are_numbered_in_order_and_parse_both_ways() {
        assert_eq!(DiagCode::ALL.len(), 20);
        for (i, &code) in DiagCode::ALL.iter().enumerate() {
            assert_eq!(code.code(), format!("PA{:03}", i + 1));
            assert_eq!(DiagCode::parse(&code.code().to_lowercase()), Some(code));
            assert_eq!(DiagCode::parse(code.name()), Some(code));
        }
        assert_eq!(DiagCode::parse("PA021"), None);
        // Provable spills, sanitizer findings and disproved compiler output
        // deny; every other code warns.
        let deny: Vec<usize> = (1..=20)
            .filter(|&n| DiagCode::ALL[n - 1].default_severity() == Severity::Deny)
            .collect();
        assert_eq!(deny, [1, 7, 8, 9, 16, 17, 18, 19]);
    }

    #[test]
    fn geometry_bounds_dominate_every_alignment() {
        let m = mem();
        let line = m.l1.line_bytes as u64;
        assert_eq!(lines_upper(&m, 0), 0);
        assert_eq!(lines_upper(&m, 1), 1);
        assert_eq!(pages_upper(1), 1);
        for len in 1..=3 * line {
            let bound = lines_upper(&m, len);
            for offset in 0..line {
                let touched = (offset + len - 1) / line + 1;
                assert!(
                    touched <= bound,
                    "len {len} offset {offset}: {touched} lines > bound {bound}"
                );
            }
            // The bound is exact: some alignment reaches it.
            let worst = ((line - 1) + len - 1) / line + 1;
            assert_eq!(worst, bound, "len {len}");
        }
    }

    #[test]
    fn overlap_floor_matches_model_semantics() {
        let m = mem();
        assert_eq!(overlap_floor(&m, 1), m.max_outstanding.max(1) as u64);
        assert_eq!(overlap_floor(&m, usize::MAX), 1);
        assert!(overlap_floor(&m, 4) >= 1);
    }

    fn fixture() -> (Schema, MessageLayouts) {
        let schema = parse_proto(
            "message Phone { optional string number = 1; optional int32 kind = 2; }\n\
             message Person {\n\
               required string name = 1;\n\
               required int64 id = 2;\n\
               repeated Phone phones = 3;\n\
               repeated fixed64 tags = 4 [packed=true];\n\
             }",
        )
        .unwrap();
        let layouts = MessageLayouts::compute(&schema);
        (schema, layouts)
    }

    #[test]
    fn envelope_is_two_sided_and_monotone() {
        let (schema, layouts) = fixture();
        let root = schema.id_by_name("Person").unwrap();
        let accel = AccelConfig::default();
        let m = mem();
        for env in [
            Envelope::deser(&schema, &layouts, root, &accel, &m),
            Envelope::ser(&schema, &layouts, root, &accel, &m),
        ] {
            let mut prev_lower = 0;
            for len in [0u64, 1, 2, 15, 16, 17, 64, 255, 256, 4096, 1 << 20] {
                let b = env.bounds(len, 1);
                assert!(b.lower <= b.upper, "len {len}: {b:?}");
                assert!(b.lower >= prev_lower, "lower not monotone at {len}");
                prev_lower = b.lower;
                // More sharers can only raise the ceiling.
                assert!(env.upper_bound(len, 4) >= b.upper);
                let svc = env.service_bounds(len, 1);
                assert_eq!(svc.lower, b.lower + accel.rocc_dispatch_cycles);
                assert_eq!(svc.upper, b.upper + accel.rocc_dispatch_cycles);
            }
        }
    }

    #[test]
    fn deser_lower_uses_record_floor_when_bounded() {
        let schema = parse_proto("message Ints { required int64 a = 1; }").unwrap();
        let layouts = MessageLayouts::compute(&schema);
        let root = schema.id_by_name("Ints").unwrap();
        let accel = AccelConfig::default();
        let env = Envelope::deser(&schema, &layouts, root, &accel, &mem());
        // Records are at most 11 bytes (1-byte key + 10-byte varint), so a
        // 1100-byte input has at least 100 records at 4 cycles each.
        let lower = env.lower_bound(1100);
        assert!(
            lower >= accel.rocc_dispatch_cycles + 2 + 4 * 100,
            "lower {lower}"
        );
    }

    #[test]
    fn amplification_bound_tracks_the_dominant_field() {
        let (schema, layouts) = fixture();
        let person = schema.id_by_name("Person").unwrap();
        let phone = schema.id_by_name("Phone").unwrap();
        let b = amplification_bound(&schema, &layouts, person);
        assert_eq!(b.base_bytes, layouts.layout(person).object_size());
        // The string fields materialize a 32-byte object plus an 8-byte slot
        // per 2-byte empty record, plus a heap byte per payload byte — a
        // steeper slope than the 40-byte Phone object per empty record.
        let expected = f64::from(u32::try_from(protoacc_runtime::STRING_OBJECT_BYTES + 8).unwrap())
            / 2.0
            + 1.0;
        let phone_slope =
            f64::from(u32::try_from(layouts.layout(phone).object_size() + 8).unwrap()) / 2.0;
        assert!(expected > phone_slope);
        assert!(
            (b.per_wire_byte - expected).abs() < 1e-9,
            "slope {} expected {expected}",
            b.per_wire_byte
        );
        assert_eq!(b.footprint_upper(0), b.base_bytes);
        assert!(b.footprint_upper(100) > b.footprint_upper(10));
        // A packed-only message amplifies at exactly 8 bytes per wire byte.
        let s = parse_proto("message P { repeated uint64 v = 1 [packed=true]; }").unwrap();
        let l = MessageLayouts::compute(&s);
        let p = amplification_bound(&s, &l, s.id_by_name("P").unwrap());
        assert!((p.per_wire_byte - 8.0).abs() < 1e-9, "{}", p.per_wire_byte);
    }

    #[test]
    fn composed_ceiling_dominates_the_plain_service_ceiling() {
        let (schema, layouts) = fixture();
        let root = schema.id_by_name("Person").unwrap();
        let accel = AccelConfig::default();
        let m = mem();
        let env = Envelope::deser(&schema, &layouts, root, &accel, &m);
        let plain = env.service_bounds(4096, 1).upper;
        let composed = composed_service_ceiling(&schema, &layouts, root, &accel, &m, 4096);
        // Person reaches Phone, so the composed ceiling strictly exceeds the
        // per-type one; a leaf type composes to exactly its own ceiling.
        assert!(composed > plain, "composed {composed} plain {plain}");
        let leaf = schema.id_by_name("Phone").unwrap();
        let leaf_env = Envelope::deser(&schema, &layouts, leaf, &accel, &m);
        assert_eq!(
            composed_service_ceiling(&schema, &layouts, leaf, &accel, &m, 4096),
            leaf_env.service_bounds(4096, 1).upper
        );
    }

    fn record(
        seq: usize,
        instance: usize,
        enqueue: Cycles,
        dispatch: Cycles,
        service: Cycles,
    ) -> CommandRecord {
        CommandRecord {
            seq,
            enqueue,
            dispatch,
            complete: dispatch + service,
            service,
            instance,
            wire_bytes: 64,
            deser: true,
            sharers: 1,
            status: CommandStatus::Ok,
            attempts: 1,
        }
    }

    #[test]
    fn aliasing_requires_time_overlap_and_a_writer() {
        let a = record(0, 0, 0, 0, 100);
        let b = record(1, 1, 0, 50, 100);
        let c = record(2, 0, 0, 200, 50); // after a completes
        let fp = |seq: usize, reads: Vec<(u64, u64)>, writes: Vec<(u64, u64)>| CommandFootprint {
            seq,
            reads,
            writes,
        };
        // Read-read overlap: fine.
        let fps = [
            fp(0, vec![(0x1000, 0x1100)], vec![(0x8000, 0x8100)]),
            fp(1, vec![(0x1000, 0x1100)], vec![(0x9000, 0x9100)]),
        ];
        assert!(check_aliasing(&[a, b], &fps).is_empty());
        // Write-write overlap while concurrent: finding.
        let fps = [
            fp(0, vec![], vec![(0x8000, 0x8100)]),
            fp(1, vec![], vec![(0x80f0, 0x8200)]),
        ];
        let findings = check_aliasing(&[a, b], &fps);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, DiagCode::ArenaAliasing);
        // Same ranges but disjoint in time: fine.
        let fps = [
            fp(0, vec![], vec![(0x8000, 0x8100)]),
            fp(2, vec![], vec![(0x8000, 0x8100)]),
        ];
        assert!(check_aliasing(&[a, c], &fps).is_empty());
    }

    #[test]
    fn envelope_check_flags_out_of_bounds_service() {
        let r = record(0, 0, 0, 0, 100);
        let ok = [ServiceBounds {
            seq: 0,
            lower: 50,
            upper: 150,
        }];
        assert!(check_envelopes(&[r], &ok).is_empty());
        let tight = [ServiceBounds {
            seq: 0,
            lower: 101,
            upper: 150,
        }];
        let findings = check_envelopes(&[r], &tight);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, DiagCode::EnvelopeViolation);
    }
}
