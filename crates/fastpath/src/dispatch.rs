//! Per-schema precompiled field-dispatch tables.
//!
//! The paper's deserializer resolves each field number to an FSM state with
//! a single descriptor-table (ADT) lookup instead of the switch-over-fields
//! the C++ parse loop compiles to. This module is the software analogue: at
//! schema-compile time every message type gets a dense table indexed by
//! `field_number - min_field`, each entry a flat [`FieldEntry`] carrying the
//! decode micro-op, the expected wire type, the slot offset, and the
//! precomputed hasbit position. The hot decode loop then dispatches with one
//! bounds-checked load and a match over [`Op`] — no descriptor walk, no
//! hashing, no per-field branching beyond the op itself.
//!
//! Schemas with pathologically sparse numbering (span beyond
//! [`DENSE_SPAN_LIMIT`]) fall back to a sorted table and binary search so
//! table memory stays proportional to defined fields, mirroring the layout
//! engine's sparse-hasbits reasoning (Section 4.2).

use protoacc_runtime::{MessageLayouts, SlotKind};
use protoacc_schema::{FieldType, MessageId, Schema};
use protoacc_wire::WireType;

/// Widest field-number span a message may have before its dispatch table
/// switches from dense indexing to binary search.
pub const DENSE_SPAN_LIMIT: u64 = 4096;

/// Decode/encode micro-op for one field — the FSM state analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Varint stored raw (int64, uint64).
    VarintRaw,
    /// Varint truncated to 32 bits, sign pattern preserved (int32, enum).
    VarintI32,
    /// Varint masked to 32 bits (uint32).
    VarintU32,
    /// Varint normalized to 0/1 (bool).
    VarintBool,
    /// Zigzag-decoded 32-bit varint (sint32).
    VarintZig32,
    /// Zigzag-decoded 64-bit varint (sint64).
    VarintZig64,
    /// Little-endian 4-byte load (fixed32, sfixed32, float).
    Fixed32,
    /// Little-endian 8-byte load (fixed64, sfixed64, double).
    Fixed64,
    /// Length-delimited payload borrowed from the input (string, bytes).
    Bytes,
    /// Length-delimited sub-message frame.
    Msg,
}

impl Op {
    /// Bytes one element of this op takes in an arena object: 1 for bool,
    /// 4 for the 32-bit scalars, 8 for the 64-bit scalars, a string's
    /// packed (offset, length) word and a sub-object's offset. A compiled
    /// entry's `elem_size` equals its op's width.
    #[inline]
    pub fn width(self) -> usize {
        match self {
            Op::VarintBool => 1,
            Op::VarintI32 | Op::VarintU32 | Op::VarintZig32 | Op::Fixed32 => 4,
            Op::VarintRaw | Op::VarintZig64 | Op::Fixed64 | Op::Bytes | Op::Msg => 8,
        }
    }

    fn from_field_type(ft: FieldType) -> Op {
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
}

/// One field's flattened dispatch entry.
#[derive(Debug, Clone, Copy)]
pub struct FieldEntry {
    /// Field number (redundant with the table position; kept for error
    /// payloads and the sparse path).
    pub number: u32,
    /// The decode micro-op.
    pub op: Op,
    /// Expected wire type when not a packed arrival.
    pub wire: WireType,
    /// Whether the field is `repeated`.
    pub repeated: bool,
    /// Whether the field's type may arrive packed.
    pub packable: bool,
    /// Whether the field is declared `packed` (serialization side).
    pub packed: bool,
    /// Byte offset of the field's slot inside the message object.
    pub slot_offset: u32,
    /// In-memory element size (1/4/8) for scalar slots and repeated scalar
    /// arrays; 8 for pointer-shaped slots.
    pub elem_size: u8,
    /// Byte offset of this field's hasbit within the hasbits array.
    pub hasbit_byte: u32,
    /// Bit mask within that byte.
    pub hasbit_mask: u8,
    /// Sub-message type for `Op::Msg` entries.
    pub sub: Option<MessageId>,
    /// Precomputed wire key (`number << 3 | wire_type`) for serialization.
    pub key_encoded: u64,
    /// Precomputed length-delimited wire key for packed serialization.
    pub packed_key_encoded: u64,
}

/// Which shape a message's dispatch table compiled to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Direct-indexed by `number - min_field`.
    Dense,
    /// Sorted entries, binary-searched.
    Sparse,
}

impl TableKind {
    /// Short stable name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            TableKind::Dense => "dense",
            TableKind::Sparse => "sparse",
        }
    }
}

/// Raw image of one message's dispatch table.
///
/// This is the exact internal representation, exposed so the static
/// verifier (`protoacc-verify`) can audit it and so the table-mutation
/// plane (`protoacc_faults::tables`) can seed corruptions into otherwise
/// well-formed compiled schemas. Normal decoding never touches it.
#[derive(Debug, Clone)]
pub enum TableImage {
    /// Indexed by `number - min_field`; holes are `None`.
    Dense(Vec<Option<FieldEntry>>),
    /// Sorted by field number; binary-searched.
    Sparse(Vec<FieldEntry>),
}

/// Encodes the wire key for `number`/`wire` exactly as the compiled tables
/// store it — the single source of truth for pre-encoded dispatch keys.
/// Both `CompiledSchema::compile` and the verifier's independent
/// re-derivation call this helper.
///
/// # Panics
///
/// Panics when `number` is outside the valid field-number range; compiled
/// schemas are built from validated [`Schema`]s where that cannot happen.
pub fn encoded_key(number: u32, wire: WireType) -> u64 {
    protoacc_wire::FieldKey::new(number, wire)
        .expect("schema-validated field number")
        .encoded()
}

/// Compiled form of one message type: layout facts plus the dispatch table.
#[derive(Debug, Clone)]
pub struct CompiledMessage {
    /// Total object size (8-byte aligned), from the layout engine.
    pub object_size: u32,
    /// Offset of the hasbits array inside the object.
    pub hasbits_offset: u32,
    /// Smallest defined field number (dense-table base).
    pub min_field: u32,
    /// Defined field numbers in ascending order (the value-tree conversion
    /// and the verifier walk these; the serializer scans hasbits instead,
    /// see [`CompiledMessage::present`]).
    pub numbers: Vec<u32>,
    table: TableImage,
}

impl CompiledMessage {
    /// The dispatch entry for `number`, or `None` for unknown fields.
    #[inline]
    pub fn entry(&self, number: u32) -> Option<&FieldEntry> {
        match &self.table {
            TableImage::Dense(t) => t
                .get(number.wrapping_sub(self.min_field) as usize)
                .and_then(Option::as_ref),
            TableImage::Sparse(t) => t
                .binary_search_by_key(&number, |e| e.number)
                .ok()
                .map(|i| &t[i]),
        }
    }

    /// The fields whose hasbits are set in `object` (one object's bytes,
    /// `object_size` long), in ascending field-number order: the order the
    /// serializer emits them in.
    ///
    /// A dense table scans the hasbits words from the bottom with
    /// `trailing_zeros`, the software form of the serializer frontend's
    /// sparse-hasbits scan (Section 4.5.3): bit `i` is field
    /// `min_field + i` and table index `i`, so absent fields cost nothing.
    /// A sparse table walks its sorted entries and tests each entry's own
    /// hasbit.
    #[inline]
    pub fn present<'a>(&'a self, object: &'a [u8]) -> Present<'a> {
        let hasbits = &object[self.hasbits_offset as usize..];
        match &self.table {
            TableImage::Dense(table) => Present(Scan::Dense {
                table,
                hasbits,
                word: 0,
                base: 0,
                next: 0,
            }),
            TableImage::Sparse(entries) => Present(Scan::Sparse {
                entries: entries.iter(),
                hasbits,
            }),
        }
    }

    /// Clears the hasbits that decode sets and readers test in `object` (one
    /// object's bytes, `object_size` long): for a dense table, the hasbits
    /// words [`present`](Self::present) scans; for a sparse one,
    /// only each entry's own hasbit byte, since its array spans the whole
    /// field-number range.
    ///
    /// Hasbits of up to two words are cleared with one fixed 16-byte store
    /// when the object has room for it, whatever the table's length. A
    /// clear whose length varies from type to type measured 3–5% slower
    /// on dense decodes. The slot bytes the wider store also zeroes are
    /// written before they are read.
    #[inline]
    pub fn clear_hasbits(&self, object: &mut [u8]) {
        let hasbits = &mut object[self.hasbits_offset as usize..];
        match &self.table {
            TableImage::Dense(table) => {
                let n = table.len().div_ceil(64) * 8;
                if n <= 16 && hasbits.len() >= 16 {
                    hasbits[..16].copy_from_slice(&[0; 16]);
                } else {
                    hasbits[..n].fill(0);
                }
            }
            TableImage::Sparse(entries) => {
                for e in entries {
                    hasbits[e.hasbit_byte as usize] = 0;
                }
            }
        }
    }

    /// Which table shape this message compiled to.
    pub fn table_kind(&self) -> TableKind {
        match &self.table {
            TableImage::Dense(_) => TableKind::Dense,
            TableImage::Sparse(_) => TableKind::Sparse,
        }
    }

    /// Every stored dispatch entry, in table order (ascending field number
    /// for tables produced by [`CompiledSchema::compile`]). Dense holes are
    /// skipped. Introspection for the verifier; the decode loop never
    /// iterates.
    pub fn entries(&self) -> impl Iterator<Item = &FieldEntry> + '_ {
        match &self.table {
            TableImage::Dense(t) => EntryIter::Dense(t.iter()),
            TableImage::Sparse(t) => EntryIter::Sparse(t.iter()),
        }
    }

    /// The raw table image, for auditing.
    pub fn table_image(&self) -> &TableImage {
        &self.table
    }

    /// Rebuilds a compiled message from raw parts — the entry point the
    /// table-mutation plane uses to construct deliberately corrupted
    /// artifacts for the verifier's detection-rate gate. No validation is
    /// performed; that is the point.
    pub fn from_image(
        object_size: u32,
        hasbits_offset: u32,
        min_field: u32,
        numbers: Vec<u32>,
        table: TableImage,
    ) -> Self {
        CompiledMessage {
            object_size,
            hasbits_offset,
            min_field,
            numbers,
            table,
        }
    }
}

/// Iterator over one object's present fields in field-number order; see
/// [`CompiledMessage::present`].
pub struct Present<'a>(Scan<'a>);

enum Scan<'a> {
    /// Hasbits scan over a dense table. `hasbits` runs from the object's
    /// hasbits array to its end; `word` holds the current word's unvisited
    /// bits, `base` the hasbit position of its bit 0, and `next` the index
    /// of the next word to load.
    Dense {
        table: &'a [Option<FieldEntry>],
        hasbits: &'a [u8],
        word: u64,
        base: usize,
        next: usize,
    },
    /// Walk over a sparse table's sorted entries.
    Sparse {
        entries: std::slice::Iter<'a, FieldEntry>,
        hasbits: &'a [u8],
    },
}

impl<'a> Iterator for Present<'a> {
    type Item = &'a FieldEntry;

    #[inline]
    fn next(&mut self) -> Option<&'a FieldEntry> {
        match &mut self.0 {
            Scan::Dense {
                table,
                hasbits,
                word,
                base,
                next,
            } => loop {
                while *word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    // Decode sets bits of defined fields only; a bit on a
                    // hole or in the padding names no field.
                    if let Some(Some(entry)) = table.get(*base + bit) {
                        return Some(entry);
                    }
                }
                if *next == table.len().div_ceil(64) {
                    return None;
                }
                *base = *next * 64;
                *next += 1;
                let at = *base / 8;
                *word = u64::from_le_bytes(hasbits[at..at + 8].try_into().expect("8 bytes"));
            },
            Scan::Sparse { entries, hasbits } => {
                entries.find(|e| hasbits[e.hasbit_byte as usize] & e.hasbit_mask != 0)
            }
        }
    }
}

/// Iterator over stored entries of either table shape.
enum EntryIter<'a> {
    Dense(std::slice::Iter<'a, Option<FieldEntry>>),
    Sparse(std::slice::Iter<'a, FieldEntry>),
}

impl<'a> Iterator for EntryIter<'a> {
    type Item = &'a FieldEntry;

    fn next(&mut self) -> Option<&'a FieldEntry> {
        match self {
            EntryIter::Dense(it) => it.by_ref().flatten().next(),
            EntryIter::Sparse(it) => it.next(),
        }
    }
}

/// A schema compiled for the fast path: per-message dispatch tables plus the
/// shared object layouts.
#[derive(Debug, Clone)]
pub struct CompiledSchema {
    schema: Schema,
    layouts: MessageLayouts,
    messages: Vec<CompiledMessage>,
}

impl CompiledSchema {
    /// Compiles every message type of `schema`.
    pub fn compile(schema: &Schema) -> Self {
        let layouts = MessageLayouts::compute(schema);
        let messages = schema
            .iter()
            .map(|(id, descriptor)| {
                let layout = layouts.layout(id);
                let mut entries: Vec<FieldEntry> = descriptor
                    .fields()
                    .iter()
                    .map(|field| {
                        let number = field.number();
                        let slot = layout.slot(number).expect("every field has a slot");
                        let (byte, bit) = layout.hasbit_position(number);
                        let elem_size = match slot.kind {
                            SlotKind::Scalar(k) => k.size() as u8,
                            _ => field
                                .field_type()
                                .scalar_kind()
                                .map_or(8, |k| k.size() as u8),
                        };
                        FieldEntry {
                            number,
                            op: Op::from_field_type(field.field_type()),
                            wire: field.field_type().wire_type(),
                            repeated: field.is_repeated(),
                            packable: field.field_type().is_packable(),
                            packed: field.is_packed(),
                            slot_offset: slot.offset as u32,
                            elem_size,
                            hasbit_byte: byte as u32,
                            hasbit_mask: 1u8 << bit,
                            sub: match field.field_type() {
                                FieldType::Message(sub) => Some(sub),
                                _ => None,
                            },
                            key_encoded: encoded_key(number, field.field_type().wire_type()),
                            packed_key_encoded: encoded_key(number, WireType::LengthDelimited),
                        }
                    })
                    .collect();
                entries.sort_unstable_by_key(|e| e.number);
                let numbers: Vec<u32> = entries.iter().map(|e| e.number).collect();
                let span = layout.field_number_span();
                let table = if span <= DENSE_SPAN_LIMIT {
                    let mut dense = vec![None; span as usize];
                    for e in entries {
                        dense[(e.number - layout.min_field()) as usize] = Some(e);
                    }
                    TableImage::Dense(dense)
                } else {
                    TableImage::Sparse(entries)
                };
                CompiledMessage {
                    object_size: layout.object_size() as u32,
                    hasbits_offset: layout.hasbits_offset() as u32,
                    min_field: layout.min_field(),
                    numbers,
                    table,
                }
            })
            .collect();
        CompiledSchema {
            schema: schema.clone(),
            layouts,
            messages,
        }
    }

    /// The source schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared object layouts.
    pub fn layouts(&self) -> &MessageLayouts {
        &self.layouts
    }

    /// The compiled form of one message type.
    #[inline]
    pub fn message(&self, id: MessageId) -> &CompiledMessage {
        &self.messages[id.index()]
    }

    /// Reassembles a compiled schema from externally supplied per-message
    /// tables (indexed by [`MessageId::index`]). Companion to
    /// [`CompiledMessage::from_image`] for the mutation plane; performs no
    /// validation.
    ///
    /// # Panics
    ///
    /// Panics if `messages.len()` differs from the schema's message count.
    pub fn from_parts(schema: &Schema, messages: Vec<CompiledMessage>) -> Self {
        assert_eq!(
            messages.len(),
            schema.iter().count(),
            "one compiled message per schema type"
        );
        CompiledSchema {
            schema: schema.clone(),
            layouts: MessageLayouts::compute(schema),
            messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_schema::SchemaBuilder;

    #[test]
    fn dense_table_resolves_all_fields_and_rejects_unknowns() {
        let mut b = SchemaBuilder::new();
        let inner = b.declare("Inner");
        b.message(inner).optional("x", FieldType::Bool, 1);
        let root = b.declare("Root");
        b.message(root)
            .optional("a", FieldType::Int32, 3)
            .repeated("b", FieldType::String, 7)
            .packed("c", FieldType::UInt64, 9)
            .optional("m", FieldType::Message(inner), 12);
        let schema = b.build().unwrap();
        let cs = CompiledSchema::compile(&schema);
        let cm = cs.message(root);
        assert_eq!(cm.min_field, 3);
        assert_eq!(cm.numbers, vec![3, 7, 9, 12]);
        let a = cm.entry(3).unwrap();
        assert_eq!(a.op, Op::VarintI32);
        assert!(!a.repeated);
        let b_ = cm.entry(7).unwrap();
        assert_eq!(b_.op, Op::Bytes);
        assert!(b_.repeated && !b_.packable);
        let c = cm.entry(9).unwrap();
        assert!(c.packed && c.packable && c.repeated);
        assert_eq!(c.elem_size, 8);
        let m = cm.entry(12).unwrap();
        assert_eq!(m.op, Op::Msg);
        assert_eq!(m.sub, Some(inner));
        for unknown in [0u32, 1, 2, 4, 8, 13, 1000, u32::MAX] {
            assert!(cm.entry(unknown).is_none(), "field {unknown}");
        }
    }

    /// Every compiled entry's element size is its op's width, over the six
    /// HyperProtoBench suites and every `protos/chain` descriptor set:
    /// decode keeps repeated-field scratch at `Op::width`, and the arena
    /// readers walk element arrays at `elem_size`.
    #[test]
    fn elem_size_is_the_op_width_for_every_compiled_entry() {
        let mut schemas: Vec<(String, Schema)> = hyperprotobench::generate_suite(1, 0xC0DE)
            .into_iter()
            .map(|bench| (bench.profile.name.to_string(), bench.schema))
            .collect();
        let chain = format!("{}/../../protos/chain", env!("CARGO_MANIFEST_DIR"));
        for file in std::fs::read_dir(&chain).expect("protos/chain exists") {
            let path = file.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "binpb") {
                let bytes = std::fs::read(&path).unwrap();
                let schema = protoacc_schema::parse_descriptor_set(&bytes).unwrap();
                schemas.push((path.display().to_string(), schema));
            }
        }
        assert_eq!(schemas.len(), 10, "six suites and four descriptor sets");
        for (label, schema) in &schemas {
            let cs = CompiledSchema::compile(schema);
            for (id, _) in schema.iter() {
                for e in cs.message(id).entries() {
                    assert_eq!(
                        usize::from(e.elem_size),
                        e.op.width(),
                        "{label}: field {} ({:?})",
                        e.number,
                        e.op
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_numbering_falls_back_to_binary_search() {
        let mut b = SchemaBuilder::new();
        let root = b.declare("Sparse");
        b.message(root)
            .optional("lo", FieldType::UInt64, 1)
            .optional("hi", FieldType::UInt64, 200_000);
        let schema = b.build().unwrap();
        let cs = CompiledSchema::compile(&schema);
        let cm = cs.message(root);
        assert_eq!(cm.table_kind(), TableKind::Sparse);
        assert!(cm.entry(1).is_some());
        assert!(cm.entry(200_000).is_some());
        assert!(cm.entry(100_000).is_none());
        assert!(cm.entry(0).is_none());
    }

    /// Compiles a two-field message whose numbers are `min` and
    /// `min + span - 1`, i.e. exactly `span` wide.
    fn compile_span(min: u32, span: u64) -> CompiledSchema {
        let mut b = SchemaBuilder::new();
        let root = b.declare("Span");
        let hi = min + u32::try_from(span).unwrap() - 1;
        b.message(root)
            .optional("lo", FieldType::UInt64, min)
            .optional("hi", FieldType::UInt64, hi);
        CompiledSchema::compile(&b.build().unwrap())
    }

    #[test]
    fn span_at_dense_limit_stays_dense() {
        let cs = compile_span(1, DENSE_SPAN_LIMIT);
        let cm = cs.message(cs.schema().iter().next().unwrap().0);
        assert_eq!(cm.table_kind(), TableKind::Dense);
        let hi = u32::try_from(DENSE_SPAN_LIMIT).unwrap();
        assert!(cm.entry(1).is_some());
        assert!(cm.entry(hi).is_some());
        assert!(cm.entry(2).is_none(), "interior hole must reject");
        assert!(cm.entry(hi + 1).is_none(), "past-end must reject");
    }

    #[test]
    fn span_one_past_dense_limit_goes_sparse() {
        let cs = compile_span(1, DENSE_SPAN_LIMIT + 1);
        let cm = cs.message(cs.schema().iter().next().unwrap().0);
        assert_eq!(cm.table_kind(), TableKind::Sparse);
        let hi = u32::try_from(DENSE_SPAN_LIMIT).unwrap() + 1;
        assert!(cm.entry(1).is_some());
        assert!(cm.entry(hi).is_some());
        assert!(cm.entry(2).is_none());
        assert!(cm.entry(hi + 1).is_none());
    }

    #[test]
    fn lookups_below_min_field_reject_on_both_kinds() {
        // Dense table based at min_field 1000: probes below min must not
        // wrap into valid indices.
        let dense = compile_span(1000, DENSE_SPAN_LIMIT);
        let dm = dense.message(dense.schema().iter().next().unwrap().0);
        assert_eq!(dm.table_kind(), TableKind::Dense);
        assert_eq!(dm.min_field, 1000);
        for below in [0u32, 1, 2, 500, 999] {
            assert!(dm.entry(below).is_none(), "dense field {below}");
        }
        // Sparse table with the same base.
        let sparse = compile_span(1000, DENSE_SPAN_LIMIT + 1);
        let sm = sparse.message(sparse.schema().iter().next().unwrap().0);
        assert_eq!(sm.table_kind(), TableKind::Sparse);
        for below in [0u32, 1, 2, 500, 999] {
            assert!(sm.entry(below).is_none(), "sparse field {below}");
        }
    }

    #[test]
    fn entries_iterate_in_ascending_number_order() {
        let mut b = SchemaBuilder::new();
        let root = b.declare("Iter");
        b.message(root)
            .optional("c", FieldType::Bool, 9)
            .optional("a", FieldType::Int32, 2)
            .optional("b", FieldType::String, 5);
        let schema = b.build().unwrap();
        let cs = CompiledSchema::compile(&schema);
        let cm = cs.message(root);
        let nums: Vec<u32> = cm.entries().map(|e| e.number).collect();
        assert_eq!(nums, vec![2, 5, 9]);
        assert_eq!(nums, cm.numbers);
    }

    /// Sets the hasbits of `present` in a zeroed object of `cm` and returns
    /// what [`CompiledMessage::present`] reports for it.
    fn scan(cm: &CompiledMessage, present: &[u32]) -> Vec<u32> {
        let mut object = vec![0u8; cm.object_size as usize];
        for &n in present {
            let e = cm.entry(n).unwrap();
            object[(cm.hasbits_offset + e.hasbit_byte) as usize] |= e.hasbit_mask;
        }
        cm.present(&object).map(|e| e.number).collect()
    }

    #[test]
    fn present_scans_hasbit_words_from_the_bottom() {
        let mut b = SchemaBuilder::new();
        let root = b.declare("Words");
        for n in [1u32, 63, 64, 65, 128, 129, 200] {
            b.message(root)
                .optional(&format!("f{n}"), FieldType::UInt32, n);
        }
        let cs = CompiledSchema::compile(&b.build().unwrap());
        let cm = cs.message(root);
        assert_eq!(cm.table_kind(), TableKind::Dense);
        assert_eq!(scan(cm, &[]), Vec::<u32>::new());
        assert_eq!(
            scan(cm, &[200, 129, 128, 65, 64, 63, 1]),
            [1, 63, 64, 65, 128, 129, 200]
        );
        // Bits 63 and 64 sit on either side of the first word boundary.
        assert_eq!(scan(cm, &[65, 64]), [64, 65]);
        assert_eq!(scan(cm, &[200, 1]), [1, 200]);
        assert_eq!(scan(cm, &[200]), [200]);
    }

    /// On an object full of stale bits, `clear_hasbits` leaves no field
    /// present and zeroes only the hasbits (widened to one 16-byte store
    /// for a table of up to 128 fields) of a dense table, and only the
    /// entries' own bytes of a sparse one.
    #[test]
    fn clear_hasbits_leaves_no_field_present() {
        let words = |numbers: &[u32]| {
            let mut b = SchemaBuilder::new();
            let root = b.declare("Words");
            for &n in numbers {
                b.message(root)
                    .optional(&format!("f{n}"), FieldType::UInt32, n);
            }
            CompiledSchema::compile(&b.build().unwrap())
        };
        let cases = [
            (words(&[1, 5]), 16),
            (words(&[1, 64, 65, 200]), 32),
            (compile_span(1, DENSE_SPAN_LIMIT + 1), 2),
        ];
        for (cs, zeroed) in &cases {
            let cm = cs.message(cs.schema().iter().next().unwrap().0);
            let mut object = vec![0xffu8; cm.object_size as usize];
            cm.clear_hasbits(&mut object);
            assert_eq!(cm.present(&object).count(), 0);
            let hasbits = &object[cm.hasbits_offset as usize..];
            assert_eq!(hasbits.iter().filter(|&&b| b == 0).count(), *zeroed);
            assert!(object[..cm.hasbits_offset as usize]
                .iter()
                .all(|&b| b == 0xff));
        }
    }

    #[test]
    fn present_walks_sparse_entries_in_order() {
        let cs = compile_span(1, DENSE_SPAN_LIMIT + 1);
        let cm = cs.message(cs.schema().iter().next().unwrap().0);
        assert_eq!(cm.table_kind(), TableKind::Sparse);
        let hi = u32::try_from(DENSE_SPAN_LIMIT).unwrap() + 1;
        assert_eq!(scan(cm, &[hi, 1]), [1, hi]);
        assert_eq!(scan(cm, &[hi]), [hi]);
        assert_eq!(scan(cm, &[1]), [1]);
        assert_eq!(scan(cm, &[]), Vec::<u32>::new());
    }

    #[test]
    fn from_image_round_trips_the_compiled_table() {
        let mut b = SchemaBuilder::new();
        let root = b.declare("Round");
        b.message(root)
            .optional("a", FieldType::Int32, 1)
            .optional("b", FieldType::UInt64, 4);
        let schema = b.build().unwrap();
        let cs = CompiledSchema::compile(&schema);
        let cm = cs.message(root);
        let rebuilt = CompiledMessage::from_image(
            cm.object_size,
            cm.hasbits_offset,
            cm.min_field,
            cm.numbers.clone(),
            cm.table_image().clone(),
        );
        assert_eq!(rebuilt.table_kind(), cm.table_kind());
        for n in &cm.numbers {
            assert_eq!(
                rebuilt.entry(*n).map(|e| e.slot_offset),
                cm.entry(*n).map(|e| e.slot_offset)
            );
        }
        let cs2 = CompiledSchema::from_parts(&schema, vec![rebuilt]);
        assert!(cs2.message(root).entry(4).is_some());
    }
}
