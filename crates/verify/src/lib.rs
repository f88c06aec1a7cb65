//! # protoacc-verify
//!
//! Translation validation for the compiled artifact plane.
//!
//! The paper's accelerator is only correct if the descriptor tables the
//! modified protoc emits faithfully reflect the schema — Section 4.2's
//! layout/hasbit packing is exactly the step where a silent compiler bug
//! becomes silent data corruption. This crate treats every compiled
//! artifact — [`MessageLayouts`], [`CompiledSchema`], and the hardware ADT
//! image in guest memory — as *untrusted compiler output* and re-proves
//! five properties per schema, from the [`Schema`] alone:
//!
//! | code  | property |
//! |-------|----------|
//! | PA016 | **slot-overlap**: no two slots, the vptr, or the hasbits array alias any byte; every region lies inside `object_size` |
//! | PA017 | **dispatch-totality**: the dispatch table resolves exactly the schema's field set; holes, below-`min_field`, and past-`max_field` probes reject; dense and sparse access paths agree entry-for-entry |
//! | PA018 | **entry-consistency**: each [`FieldEntry`]'s op, wire type, elem size, slot offset, hasbit byte/mask, and pre-encoded keys match an independent re-derivation |
//! | PA019 | **adt-equivalence**: the simulator's descriptor-table image in guest memory agrees with the fast path's table, field by field |
//! | PA020 | **dense-table-blowup**: span-proportional table memory stays under a configurable budget (sharpens PA013 from "span looks wide" to bytes) |
//!
//! Detection power is proven, not asserted: the table-mutation plane in
//! `protoacc_faults::tables` seeds corruptions (offset bumps, mask swaps, op
//! substitutions, dropped/duplicated entries) into otherwise well-formed
//! artifacts, and CI requires this verifier to flag ≥99% of seeded mutants
//! while staying silent on every clean schema in the tree.
//!
//! [`FieldEntry`]: protoacc_fastpath::FieldEntry

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use protoacc_absint::table_footprint;
use protoacc_fastpath::{
    encoded_key, CompiledMessage, CompiledSchema, FieldEntry as SwEntry, Op, TableImage, TableKind,
    DENSE_SPAN_LIMIT,
};
use protoacc_mem::GuestMemory;
use protoacc_runtime::{
    layout::VPTR_BYTES, write_adts, AdtLayout, AdtTables, BumpArena, MessageLayouts, TypeCode,
};
use protoacc_schema::{FieldType, Schema};
use protoacc_wire::WireType;

/// Default PA020 budget: 8 MiB of span-proportional table memory per type.
/// The widest clean in-tree type (`chain.Vote`, span 250 000) costs ~4 MiB
/// of hardware ADT image; past 8 MiB a single type's descriptor table stops
/// fitting in any realistic LLC slice and the schema should be re-numbered.
pub const DEFAULT_DENSE_TABLE_BUDGET: u64 = 8 * 1024 * 1024;

/// Spans up to this limit get exhaustive hole probing (every undefined
/// number in `min..=max`); wider spans are sampled. Matches
/// [`DENSE_SPAN_LIMIT`] so every dense table is swept exhaustively.
const FULL_SWEEP_SPAN: u64 = DENSE_SPAN_LIMIT;

/// Stride for sampled hole probes on wide-span (sparse) tables. Prime, so
/// the sample set does not resonate with power-of-two numbering habits.
const HOLE_SAMPLE_STRIDE: u64 = 251;

/// The five properties the verifier re-proves per schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Property {
    /// PA016: a layout region escapes `object_size` or aliases another.
    SlotOverlap,
    /// PA017: the dispatch table resolves a hole, misses a defined field,
    /// or its two access paths disagree.
    DispatchTotality,
    /// PA018: a compiled entry disagrees with independent re-derivation
    /// from the schema.
    EntryConsistency,
    /// PA019: the hardware ADT image diverges from the software table.
    AdtEquivalence,
    /// PA020: span-proportional table memory exceeds the budget.
    TableBlowup,
}

/// Every property, for sweeps and reporting.
pub const ALL_PROPERTIES: [Property; 5] = [
    Property::SlotOverlap,
    Property::DispatchTotality,
    Property::EntryConsistency,
    Property::AdtEquivalence,
    Property::TableBlowup,
];

impl Property {
    /// Stable diagnostic code (continues the lint PA-series).
    pub fn code(self) -> &'static str {
        match self {
            Property::SlotOverlap => "PA016",
            Property::DispatchTotality => "PA017",
            Property::EntryConsistency => "PA018",
            Property::AdtEquivalence => "PA019",
            Property::TableBlowup => "PA020",
        }
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Property::SlotOverlap => "slot-overlap",
            Property::DispatchTotality => "dispatch-totality",
            Property::EntryConsistency => "entry-consistency",
            Property::AdtEquivalence => "adt-equivalence",
            Property::TableBlowup => "dense-table-blowup",
        }
    }
}

/// One disproved property: which check failed, on which type, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The property that failed.
    pub property: Property,
    /// Fully qualified message type name.
    pub type_name: String,
    /// Human-readable account of the disagreement.
    pub detail: String,
}

/// Verifier thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// PA020: widest tolerated span-proportional table footprint per type,
    /// in bytes (the larger of the software dense table and the hardware
    /// ADT image).
    pub dense_table_budget: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            dense_table_budget: DEFAULT_DENSE_TABLE_BUDGET,
        }
    }
}

/// Per-type table facts the verifier derives on the side, surfaced into the
/// lint JSON report (`table_kind` / `table_bytes` keys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeTableStats {
    /// Fully qualified message type name.
    pub type_name: String,
    /// Which table shape the fast path compiled.
    pub kind: TableKind,
    /// Worst span-proportional table bytes (PA020's measured quantity).
    pub table_bytes: u64,
}

/// The verifier's verdict over one schema's full artifact set.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Every disproved property, in check order (PA016 → PA020).
    pub violations: Vec<Violation>,
    /// Message types audited.
    pub types_checked: usize,
    /// Per-type table statistics, in [`Schema::iter`] order.
    pub stats: Vec<TypeTableStats>,
}

impl VerifyReport {
    /// Whether every property held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// PA016 — slot overlap
// ---------------------------------------------------------------------------

/// One byte region of a message object, half-open `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// What occupies the region (for violation messages).
    pub label: String,
    /// First byte.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

/// Proves a region plan sound: every region inside `[0, object_size)`, no
/// two regions sharing a byte. This is PA016's core; it runs over both the
/// layout engine's slot map and the region plan implied by a compiled
/// dispatch table, and the unit tests drive it with crafted overlaps.
pub fn check_regions(type_name: &str, object_size: u64, regions: &[Region]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut sorted: Vec<&Region> = regions.iter().collect();
    sorted.sort_by_key(|r| (r.start, r.end));
    for r in &sorted {
        if r.end < r.start {
            violations.push(Violation {
                property: Property::SlotOverlap,
                type_name: type_name.to_string(),
                detail: format!("{} is inverted: [{}, {})", r.label, r.start, r.end),
            });
        }
        if r.end > object_size {
            violations.push(Violation {
                property: Property::SlotOverlap,
                type_name: type_name.to_string(),
                detail: format!(
                    "{} spans [{}, {}) past object_size {object_size}",
                    r.label, r.start, r.end
                ),
            });
        }
    }
    for pair in sorted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        // Zero-width regions (empty hasbits arrays) cannot alias anything.
        if a.start < a.end && b.start < b.end && b.start < a.end {
            violations.push(Violation {
                property: Property::SlotOverlap,
                type_name: type_name.to_string(),
                detail: format!(
                    "{} [{}, {}) overlaps {} [{}, {})",
                    a.label, a.start, a.end, b.label, b.start, b.end
                ),
            });
        }
    }
    violations
}

/// Hasbits array bytes for a field-number span (ceil(span/8), padded to 8).
fn hasbits_bytes(span: u64) -> u64 {
    span.div_ceil(8).div_ceil(8) * 8
}

/// In-object width of a compiled entry's slot: pointer-shaped fields
/// (repeated, string/bytes, sub-message) occupy 8 bytes; inline scalars
/// their element size.
fn sw_slot_width(e: &SwEntry) -> u64 {
    if e.repeated || matches!(e.op, Op::Bytes | Op::Msg) {
        8
    } else {
        u64::from(e.elem_size)
    }
}

/// PA016 over the layout engine's output: vptr, hasbits array, and every
/// field slot must tile `[0, object_size)` without overlap.
pub fn check_layouts(schema: &Schema, layouts: &MessageLayouts) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (id, descriptor) in schema.iter() {
        let layout = layouts.layout(id);
        let mut regions = vec![
            Region {
                label: "vptr".to_string(),
                start: 0,
                end: VPTR_BYTES,
            },
            Region {
                label: "hasbits".to_string(),
                start: layout.hasbits_offset(),
                end: layout.hasbits_offset() + layout.hasbits_bytes(),
            },
        ];
        for (number, slot) in layout.slots() {
            regions.push(Region {
                label: format!("field {number} slot"),
                start: slot.offset,
                end: slot.offset + slot.kind.size(),
            });
        }
        violations.extend(check_regions(
            descriptor.name(),
            layout.object_size(),
            &regions,
        ));
    }
    violations
}

/// PA016 over a compiled message: the region plan *implied by the table
/// itself* (untrusted `slot_offset` / `elem_size` / header words) must be
/// overlap-free and in bounds. Catches offset corruptions even when the
/// layout engine's own map is intact.
fn check_compiled_regions(type_name: &str, cm: &CompiledMessage) -> Vec<Violation> {
    // `min_field` is untrusted: saturate rather than trust `min <= max`.
    // A bumped header still shows up through PA017/PA018's header checks.
    let span = cm
        .numbers
        .last()
        .map_or(0, |max| u64::from(max.saturating_sub(cm.min_field)) + 1);
    let mut regions = vec![
        Region {
            label: "vptr".to_string(),
            start: 0,
            end: VPTR_BYTES,
        },
        Region {
            label: "hasbits".to_string(),
            start: u64::from(cm.hasbits_offset),
            end: u64::from(cm.hasbits_offset) + hasbits_bytes(span),
        },
    ];
    for e in cm.entries() {
        regions.push(Region {
            label: format!("field {} slot", e.number),
            start: u64::from(e.slot_offset),
            end: u64::from(e.slot_offset) + sw_slot_width(e),
        });
    }
    check_regions(type_name, u64::from(cm.object_size), &regions)
}

// ---------------------------------------------------------------------------
// PA017 — dispatch totality
// ---------------------------------------------------------------------------

/// Undefined numbers to probe on a message spanning `min..=max` with
/// `defined` field numbers: exhaustive for spans up to [`FULL_SWEEP_SPAN`],
/// else every defined number's immediate neighbors plus a strided sample,
/// plus below-`min` and past-`max` sentinels in both regimes.
fn hole_probes(min: u32, max: u32, defined: &BTreeSet<u32>) -> Vec<u32> {
    let mut probes: BTreeSet<u32> = BTreeSet::new();
    // Below-min and past-max sentinels (u32 arithmetic saturating).
    probes.insert(0);
    probes.insert(min.wrapping_sub(1).min(min));
    probes.insert(min / 2);
    probes.insert(max.saturating_add(1));
    probes.insert(max.saturating_mul(2).max(max.saturating_add(1)));
    let span = if max < min {
        0
    } else {
        u64::from(max - min) + 1
    };
    if span <= FULL_SWEEP_SPAN {
        for n in min..=max {
            probes.insert(n);
        }
    } else {
        for &n in defined {
            probes.insert(n.saturating_sub(1));
            probes.insert(n.saturating_add(1));
        }
        let mut n = u64::from(min);
        while n <= u64::from(max) {
            probes.insert(u32::try_from(n).expect("within u32 field range"));
            n += HOLE_SAMPLE_STRIDE;
        }
    }
    probes
        .into_iter()
        .filter(|n| !defined.contains(n))
        .collect()
}

/// PA017 for one message: the table resolves exactly `defined`, rejects
/// every probed hole, and its stored image is positionally sound (dense
/// slots match their index; sparse entries strictly ascending), so the two
/// access paths cannot disagree.
fn check_dispatch(
    type_name: &str,
    cm: &CompiledMessage,
    defined: &BTreeSet<u32>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut push = |detail: String| {
        violations.push(Violation {
            property: Property::DispatchTotality,
            type_name: type_name.to_string(),
            detail,
        });
    };

    // The compiled number list must be exactly the schema's field set.
    let numbers: BTreeSet<u32> = cm.numbers.iter().copied().collect();
    if numbers != *defined || numbers.len() != cm.numbers.len() {
        push(format!(
            "compiled number list {:?} is not the schema field set {:?}",
            cm.numbers, defined
        ));
    }

    // Every defined field resolves, to an entry carrying its own number.
    for &n in defined {
        match cm.entry(n) {
            None => push(format!("defined field {n} does not resolve")),
            Some(e) if e.number != n => push(format!(
                "field {n} resolves to an entry claiming number {}",
                e.number
            )),
            Some(_) => {}
        }
    }

    // Every probed hole rejects.
    if let (Some(&min), Some(&max)) = (defined.iter().next(), defined.iter().next_back()) {
        for h in hole_probes(min, max, defined) {
            if cm.entry(h).is_some() {
                push(format!("undefined field {h} resolves to an entry"));
            }
        }
    }

    // Positional soundness of the stored image.
    match cm.table_image() {
        TableImage::Dense(slots) => {
            // Saturating: an untrusted `min_field` above `max` yields a
            // span the length check below then contradicts.
            let span = defined
                .iter()
                .next_back()
                .map_or(0, |max| u64::from(max.saturating_sub(cm.min_field)) + 1);
            if slots.len() as u64 != span {
                push(format!(
                    "dense table holds {} slots for a span of {span}",
                    slots.len()
                ));
            }
            if span > DENSE_SPAN_LIMIT {
                push(format!(
                    "dense table used past DENSE_SPAN_LIMIT (span {span})"
                ));
            }
            for (i, slot) in slots.iter().enumerate() {
                let number = cm.min_field + u32::try_from(i).expect("span fits u32");
                match slot {
                    Some(e) if e.number != number => push(format!(
                        "dense slot {i} (field {number}) stores an entry for field {}",
                        e.number
                    )),
                    Some(_) if !defined.contains(&number) => {
                        push(format!("dense slot {i} populates undefined field {number}"));
                    }
                    None if defined.contains(&number) => {
                        push(format!("dense slot {i} (defined field {number}) is a hole"));
                    }
                    _ => {}
                }
            }
        }
        TableImage::Sparse(entries) => {
            for pair in entries.windows(2) {
                if pair[0].number >= pair[1].number {
                    push(format!(
                        "sparse table not strictly ascending: {} then {}",
                        pair[0].number, pair[1].number
                    ));
                }
            }
            for e in entries {
                if !defined.contains(&e.number) {
                    push(format!("sparse table stores undefined field {}", e.number));
                }
            }
            if entries.len() != defined.len() {
                push(format!(
                    "sparse table holds {} entries for {} defined fields",
                    entries.len(),
                    defined.len()
                ));
            }
        }
    }

    violations
}

// ---------------------------------------------------------------------------
// PA018 — op/wire/layout consistency
// ---------------------------------------------------------------------------

/// Independent re-derivation of the decode micro-op — deliberately a second
/// copy of the mapping, not a call into the fast path's.
fn expected_op(ft: FieldType) -> Op {
    match ft {
        FieldType::Int64 | FieldType::UInt64 => Op::VarintRaw,
        FieldType::Int32 | FieldType::Enum => Op::VarintI32,
        FieldType::UInt32 => Op::VarintU32,
        FieldType::Bool => Op::VarintBool,
        FieldType::SInt32 => Op::VarintZig32,
        FieldType::SInt64 => Op::VarintZig64,
        FieldType::Float | FieldType::Fixed32 | FieldType::SFixed32 => Op::Fixed32,
        FieldType::Double | FieldType::Fixed64 | FieldType::SFixed64 => Op::Fixed64,
        FieldType::String | FieldType::Bytes => Op::Bytes,
        FieldType::Message(_) => Op::Msg,
    }
}

/// PA018 over one schema: re-derive every entry from the `Schema` and the
/// layout, and compare the compiled entry aspect by aspect. Also audits the
/// compiled header words against the layout.
pub fn check_entries(
    schema: &Schema,
    layouts: &MessageLayouts,
    compiled: &CompiledSchema,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (id, descriptor) in schema.iter() {
        let layout = layouts.layout(id);
        let cm = compiled.message(id);
        let type_name = descriptor.name();
        let mut push = |detail: String| {
            violations.push(Violation {
                property: Property::EntryConsistency,
                type_name: type_name.to_string(),
                detail,
            });
        };

        if u64::from(cm.object_size) != layout.object_size() {
            push(format!(
                "compiled object_size {} vs layout {}",
                cm.object_size,
                layout.object_size()
            ));
        }
        if u64::from(cm.hasbits_offset) != layout.hasbits_offset() {
            push(format!(
                "compiled hasbits_offset {} vs layout {}",
                cm.hasbits_offset,
                layout.hasbits_offset()
            ));
        }
        if cm.min_field != layout.min_field() {
            push(format!(
                "compiled min_field {} vs layout {}",
                cm.min_field,
                layout.min_field()
            ));
        }

        for field in descriptor.fields() {
            let n = field.number();
            let ft = field.field_type();
            let Some(e) = cm.entry(n) else {
                // PA017's finding; don't double-report here.
                continue;
            };
            let mut mismatch = |aspect: &str, got: String, want: String| {
                push(format!(
                    "field {n} {aspect}: compiled {got}, expected {want}"
                ));
            };
            let op = expected_op(ft);
            if e.op != op {
                mismatch("op", format!("{:?}", e.op), format!("{op:?}"));
            }
            if e.wire != ft.wire_type() {
                mismatch(
                    "wire type",
                    format!("{:?}", e.wire),
                    format!("{:?}", ft.wire_type()),
                );
            }
            if e.repeated != field.is_repeated() {
                mismatch(
                    "repeated",
                    e.repeated.to_string(),
                    field.is_repeated().to_string(),
                );
            }
            if e.packable != ft.is_packable() {
                mismatch(
                    "packable",
                    e.packable.to_string(),
                    ft.is_packable().to_string(),
                );
            }
            if e.packed != field.is_packed() {
                mismatch(
                    "packed",
                    e.packed.to_string(),
                    field.is_packed().to_string(),
                );
            }
            let elem = ft.scalar_kind().map_or(8, |k| k.size() as u8);
            if e.elem_size != elem {
                mismatch("elem_size", e.elem_size.to_string(), elem.to_string());
            }
            match layout.slot(n) {
                Some(slot) if u64::from(e.slot_offset) != slot.offset => {
                    mismatch(
                        "slot offset",
                        e.slot_offset.to_string(),
                        slot.offset.to_string(),
                    );
                }
                Some(_) => {}
                None => mismatch(
                    "layout slot",
                    "a compiled entry".to_string(),
                    "no slot at all".to_string(),
                ),
            }
            let (byte, bit) = layout.hasbit_position(n);
            if u64::from(e.hasbit_byte) != byte {
                mismatch("hasbit byte", e.hasbit_byte.to_string(), byte.to_string());
            }
            if e.hasbit_mask != 1u8 << bit {
                mismatch(
                    "hasbit mask",
                    format!("{:#04x}", e.hasbit_mask),
                    format!("{:#04x}", 1u8 << bit),
                );
            }
            let sub = match ft {
                FieldType::Message(sub) => Some(sub),
                _ => None,
            };
            if e.sub != sub {
                mismatch("sub-message", format!("{:?}", e.sub), format!("{sub:?}"));
            }
            let key = encoded_key(n, ft.wire_type());
            if e.key_encoded != key {
                mismatch("encoded key", e.key_encoded.to_string(), key.to_string());
            }
            let packed_key = encoded_key(n, WireType::LengthDelimited);
            if e.packed_key_encoded != packed_key {
                mismatch(
                    "packed encoded key",
                    e.packed_key_encoded.to_string(),
                    packed_key.to_string(),
                );
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// PA019 — hardware/software ADT equivalence
// ---------------------------------------------------------------------------

/// The decode micro-op a hardware type code implies, `None` for
/// `Undefined`. The PA019 bridge between the two descriptor vocabularies.
fn op_of_type_code(tc: TypeCode) -> Option<Op> {
    Some(match tc {
        TypeCode::Int64 | TypeCode::UInt64 => Op::VarintRaw,
        TypeCode::Int32 | TypeCode::Enum => Op::VarintI32,
        TypeCode::UInt32 => Op::VarintU32,
        TypeCode::Bool => Op::VarintBool,
        TypeCode::SInt32 => Op::VarintZig32,
        TypeCode::SInt64 => Op::VarintZig64,
        TypeCode::Float | TypeCode::Fixed32 | TypeCode::SFixed32 => Op::Fixed32,
        TypeCode::Double | TypeCode::Fixed64 | TypeCode::SFixed64 => Op::Fixed64,
        TypeCode::Str | TypeCode::Bytes => Op::Bytes,
        TypeCode::Message => Op::Msg,
        TypeCode::Undefined => return None,
    })
}

/// PA019 over one schema: read back every ADT from guest memory and hold it
/// to the software table, header words and entries alike. Holes are probed
/// (exhaustively up to `FULL_SWEEP_SPAN`, sampled beyond) and must decode
/// as `Undefined` with a clear `is_submessage` bit.
pub fn check_adt_image(
    schema: &Schema,
    compiled: &CompiledSchema,
    mem: &GuestMemory,
    adts: &AdtTables,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (id, descriptor) in schema.iter() {
        let cm = compiled.message(id);
        let adt = AdtLayout::read(mem, adts.addr(id));
        let type_name = descriptor.name();
        let mut push = |detail: String| {
            violations.push(Violation {
                property: Property::AdtEquivalence,
                type_name: type_name.to_string(),
                detail,
            });
        };

        if adt.object_size != u64::from(cm.object_size) {
            push(format!(
                "ADT object_size {} vs software {}",
                adt.object_size, cm.object_size
            ));
        }
        if adt.hasbits_offset != u64::from(cm.hasbits_offset) {
            push(format!(
                "ADT hasbits_offset {} vs software {}",
                adt.hasbits_offset, cm.hasbits_offset
            ));
        }
        if adt.min_field != cm.min_field {
            push(format!(
                "ADT min_field {} vs software {}",
                adt.min_field, cm.min_field
            ));
        }
        let sw_max = cm.numbers.last().copied().unwrap_or(0);
        if !cm.numbers.is_empty() && adt.max_field != sw_max {
            push(format!(
                "ADT max_field {} vs software {sw_max}",
                adt.max_field
            ));
        }

        let defined: BTreeSet<u32> = cm.numbers.iter().copied().collect();
        for &n in &defined {
            let Some(sw) = cm.entry(n) else {
                continue; // PA017's finding on the software side.
            };
            let Some(hw) = adt.read_entry(mem, n) else {
                push(format!("field {n} outside the ADT's entry range"));
                continue;
            };
            let mut mismatch = |aspect: &str, hw_val: String, sw_val: String| {
                push(format!(
                    "field {n} {aspect}: ADT {hw_val}, software {sw_val}"
                ));
            };
            if !hw.is_defined() {
                push(format!("field {n} is Undefined in the ADT"));
                continue;
            }
            if op_of_type_code(hw.type_code) != Some(sw.op) {
                mismatch("op", format!("{:?}", hw.type_code), format!("{:?}", sw.op));
            }
            if hw.type_code.wire_type() != sw.wire {
                mismatch(
                    "wire type",
                    format!("{:?}", hw.type_code.wire_type()),
                    format!("{:?}", sw.wire),
                );
            }
            if hw.repeated != sw.repeated {
                mismatch("repeated", hw.repeated.to_string(), sw.repeated.to_string());
            }
            if hw.packed != sw.packed {
                mismatch("packed", hw.packed.to_string(), sw.packed.to_string());
            }
            let sw_zigzag = matches!(sw.op, Op::VarintZig32 | Op::VarintZig64);
            if hw.zigzag != sw_zigzag {
                mismatch("zigzag", hw.zigzag.to_string(), sw_zigzag.to_string());
            }
            if hw.offset != sw.slot_offset {
                mismatch(
                    "slot offset",
                    hw.offset.to_string(),
                    sw.slot_offset.to_string(),
                );
            }
            let want_sub_adt = sw.sub.map_or(0, |sub| adts.addr(sub));
            if hw.sub_adt != want_sub_adt {
                mismatch(
                    "sub-ADT pointer",
                    format!("{:#x}", hw.sub_adt),
                    format!("{want_sub_adt:#x}"),
                );
            }
            let is_sub = adt.is_submessage_bit(mem, n);
            if is_sub != (sw.op == Op::Msg) {
                mismatch(
                    "is_submessage bit",
                    is_sub.to_string(),
                    (sw.op == Op::Msg).to_string(),
                );
            }
        }

        if let (Some(&min), Some(&max)) = (defined.iter().next(), defined.iter().next_back()) {
            for h in hole_probes(min, max, &defined) {
                if h < adt.min_field || h > adt.max_field {
                    continue; // structurally out of range: read_entry rejects.
                }
                if let Some(hw) = adt.read_entry(mem, h) {
                    if hw.is_defined() {
                        push(format!(
                            "undefined field {h} decodes as {:?} in the ADT",
                            hw.type_code
                        ));
                    }
                }
                if adt.is_submessage_bit(mem, h) {
                    push(format!("undefined field {h} has its is_submessage bit set"));
                }
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// PA020 — dense-table memory blowup
// ---------------------------------------------------------------------------

/// Bytes one software dense-table slot occupies.
fn sw_table_entry_bytes() -> u64 {
    std::mem::size_of::<Option<SwEntry>>() as u64
}

/// PA020 over one schema: evaluate [`protoacc_absint::table_footprint`] per
/// type against the budget.
pub fn check_table_budgets(schema: &Schema, config: &VerifyConfig) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (_, descriptor) in schema.iter() {
        let span = descriptor.field_number_span() as u64;
        let fp = table_footprint(span, sw_table_entry_bytes(), DENSE_SPAN_LIMIT);
        if fp.worst_bytes() > config.dense_table_budget {
            violations.push(Violation {
                property: Property::TableBlowup,
                type_name: descriptor.name().to_string(),
                detail: format!(
                    "span {span} costs {} table bytes (software dense {}, hardware ADT {}), \
                     budget {}",
                    fp.worst_bytes(),
                    fp.sw_table_bytes,
                    fp.hw_adt_bytes,
                    config.dense_table_budget
                ),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

/// Runs every software-plane check (PA016–PA018, PA020) over an artifact
/// set, trusting nothing but `schema` itself. This is the entry point the
/// mutation campaign aims software corruptions at.
pub fn verify_software(
    schema: &Schema,
    layouts: &MessageLayouts,
    compiled: &CompiledSchema,
    config: &VerifyConfig,
) -> Vec<Violation> {
    let mut violations = check_layouts(schema, layouts);
    for (id, descriptor) in schema.iter() {
        violations.extend(check_compiled_regions(
            descriptor.name(),
            compiled.message(id),
        ));
        let defined: BTreeSet<u32> = descriptor
            .fields()
            .iter()
            .map(protoacc_schema::FieldDescriptor::number)
            .collect();
        violations.extend(check_dispatch(
            descriptor.name(),
            compiled.message(id),
            &defined,
        ));
    }
    violations.extend(check_entries(schema, layouts, compiled));
    violations.extend(check_table_budgets(schema, config));
    violations
}

/// Writes a fresh hardware ADT image for `schema` into new guest memory —
/// the artifact PA019 audits and the hardware mutation plane corrupts.
///
/// # Panics
///
/// Panics if the image exceeds the computed arena capacity (cannot happen:
/// capacity is derived from the same footprint formula the writer uses).
pub fn build_adt_image(schema: &Schema, layouts: &MessageLayouts) -> (GuestMemory, AdtTables) {
    let mut capacity: u64 = 4096;
    for (id, descriptor) in schema.iter() {
        let span = descriptor.field_number_span() as u64;
        capacity += AdtLayout::footprint(span) + layouts.layout(id).object_size() + 16;
    }
    let mut mem = GuestMemory::new();
    let mut arena = BumpArena::new(0x10_0000, capacity);
    let adts = write_adts(schema, layouts, &mut mem, &mut arena)
        .expect("arena sized from the writer's own footprint formula");
    (mem, adts)
}

/// Compiles and verifies everything for one schema: layouts, software
/// dispatch tables, and a freshly written hardware ADT image, re-proving
/// PA016–PA020 from the schema alone.
pub fn verify_schema(schema: &Schema, config: &VerifyConfig) -> VerifyReport {
    let layouts = MessageLayouts::compute(schema);
    let compiled = CompiledSchema::compile(schema);
    let (mem, adts) = build_adt_image(schema, &layouts);
    let mut violations = verify_software(schema, &layouts, &compiled, config);
    violations.extend(check_adt_image(schema, &compiled, &mem, &adts));
    let stats = table_stats(schema, &compiled);
    VerifyReport {
        violations,
        types_checked: schema.len(),
        stats,
    }
}

/// Per-type table shape and span-proportional byte cost, for reports.
pub fn table_stats(schema: &Schema, compiled: &CompiledSchema) -> Vec<TypeTableStats> {
    schema
        .iter()
        .map(|(id, descriptor)| {
            let span = descriptor.field_number_span() as u64;
            let fp = table_footprint(span, sw_table_entry_bytes(), DENSE_SPAN_LIMIT);
            TypeTableStats {
                type_name: descriptor.name().to_string(),
                kind: compiled.message(id).table_kind(),
                table_bytes: fp.worst_bytes(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_fastpath::TableImage;
    use protoacc_schema::SchemaBuilder;

    fn sample_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let inner = b.declare("Inner");
        b.message(inner)
            .optional("flag", FieldType::Bool, 1)
            .optional("score", FieldType::Double, 3);
        let outer = b.declare("Outer");
        b.message(outer)
            .optional("id", FieldType::Int64, 2)
            .optional("name", FieldType::String, 3)
            .optional("sub", FieldType::Message(inner), 5)
            .packed("xs", FieldType::SInt32, 7)
            .repeated("tags", FieldType::String, 9);
        b.build().unwrap()
    }

    fn sparse_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let wide = b.declare("Wide");
        b.message(wide)
            .optional("lo", FieldType::UInt64, 1)
            .optional("mid", FieldType::String, 17)
            .optional("hi", FieldType::SInt64, 200_000);
        b.build().unwrap()
    }

    #[test]
    fn clean_schemas_verify_clean() {
        for schema in [sample_schema(), sparse_schema()] {
            let report = verify_schema(&schema, &VerifyConfig::default());
            assert!(report.is_clean(), "violations: {:?}", report.violations);
            assert_eq!(report.types_checked, schema.len());
            assert_eq!(report.stats.len(), schema.len());
        }
    }

    #[test]
    fn region_checker_catches_overlap_and_escape() {
        let r = |label: &str, start, end| Region {
            label: label.to_string(),
            start,
            end,
        };
        // Overlapping slots.
        let v = check_regions("T", 64, &[r("a", 8, 16), r("b", 12, 20)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, Property::SlotOverlap);
        assert!(v[0].detail.contains("overlaps"));
        // Region past object_size.
        let v = check_regions("T", 16, &[r("a", 8, 24)]);
        assert!(v.iter().any(|v| v.detail.contains("past object_size")));
        // Clean plan, including a zero-width hasbits region.
        let v = check_regions("T", 32, &[r("vptr", 0, 8), r("h", 8, 8), r("a", 8, 16)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn dropped_entry_breaks_totality() {
        let schema = sample_schema();
        let compiled = CompiledSchema::compile(&schema);
        let outer = schema.id_by_name("Outer").unwrap();
        let cm = compiled.message(outer);
        let TableImage::Dense(mut slots) = cm.table_image().clone() else {
            panic!("Outer should be dense");
        };
        // Drop field 7's entry.
        let idx = (7 - cm.min_field) as usize;
        assert!(slots[idx].take().is_some());
        let mutated = CompiledMessage::from_image(
            cm.object_size,
            cm.hasbits_offset,
            cm.min_field,
            cm.numbers.clone(),
            TableImage::Dense(slots),
        );
        let defined: BTreeSet<u32> = cm.numbers.iter().copied().collect();
        let v = check_dispatch("Outer", &mutated, &defined);
        assert!(
            v.iter().any(|v| v.detail.contains("does not resolve")),
            "{v:?}"
        );
    }

    #[test]
    fn offset_bump_breaks_entry_consistency() {
        let schema = sample_schema();
        let layouts = MessageLayouts::compute(&schema);
        let compiled = CompiledSchema::compile(&schema);
        let outer = schema.id_by_name("Outer").unwrap();
        let cm = compiled.message(outer);
        let TableImage::Dense(mut slots) = cm.table_image().clone() else {
            panic!("Outer should be dense");
        };
        let idx = (2 - cm.min_field) as usize;
        slots[idx].as_mut().unwrap().slot_offset += 4;
        let mutated_msg = CompiledMessage::from_image(
            cm.object_size,
            cm.hasbits_offset,
            cm.min_field,
            cm.numbers.clone(),
            TableImage::Dense(slots),
        );
        let mut messages: Vec<CompiledMessage> = schema
            .iter()
            .map(|(id, _)| compiled.message(id).clone())
            .collect();
        messages[outer.index()] = mutated_msg;
        let mutated = CompiledSchema::from_parts(&schema, messages);
        let v = check_entries(&schema, &layouts, &mutated);
        assert!(v.iter().any(|v| v.detail.contains("slot offset")), "{v:?}");
    }

    #[test]
    fn poked_adt_byte_breaks_equivalence() {
        let schema = sample_schema();
        let layouts = MessageLayouts::compute(&schema);
        let compiled = CompiledSchema::compile(&schema);
        let (mut mem, adts) = build_adt_image(&schema, &layouts);
        assert!(check_adt_image(&schema, &compiled, &mem, &adts).is_empty());
        let outer = schema.id_by_name("Outer").unwrap();
        let adt = AdtLayout::read(&mem, adts.addr(outer));
        // Bump field 2's stored offset by one byte.
        let addr = adt.entry_addr(2).unwrap() + 4;
        mem.write_u8(addr, mem.read_u8(addr).wrapping_add(1));
        let v = check_adt_image(&schema, &compiled, &mem, &adts);
        assert!(v.iter().any(|v| v.detail.contains("slot offset")), "{v:?}");
    }

    #[test]
    fn table_budget_fires_only_under_pressure() {
        let schema = sparse_schema();
        assert!(check_table_budgets(&schema, &VerifyConfig::default()).is_empty());
        let tight = VerifyConfig {
            dense_table_budget: 1024,
        };
        let v = check_table_budgets(&schema, &tight);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, Property::TableBlowup);
        assert_eq!(v[0].type_name, "Wide");
    }

    #[test]
    fn property_codes_are_stable() {
        let codes: Vec<&str> = ALL_PROPERTIES.iter().map(|p| p.code()).collect();
        assert_eq!(codes, vec!["PA016", "PA017", "PA018", "PA019", "PA020"]);
        for p in ALL_PROPERTIES {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn stats_report_kind_and_bytes() {
        let schema = sparse_schema();
        let compiled = CompiledSchema::compile(&schema);
        let stats = table_stats(&schema, &compiled);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].kind, TableKind::Sparse);
        // Span 200000: the hardware ADT image dominates.
        assert!(stats[0].table_bytes > 200_000 * 16);
    }
}
