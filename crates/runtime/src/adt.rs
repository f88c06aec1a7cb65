//! Accelerator Descriptor Tables (Section 4.2).
//!
//! One ADT exists per message *type* (not per instance), fully populated at
//! program-load time — the modified protoc's contribution. Each ADT has three
//! regions:
//!
//! 1. a 64-byte **header** with message-level layout (default-instance
//!    pointer, object size, hasbits offset, min/max field number, region
//!    pointers);
//! 2. **field entries**, 128 bits each, indexed by `field_number - min`
//!    (type, repeatedness, in-object offset, sub-message ADT pointer);
//! 3. the **is_submessage bit field**, letting the serializer know it must
//!    switch contexts without waiting for a full entry read.

use protoacc_mem::GuestMemory;
use protoacc_schema::{FieldType, MessageId, Schema};

use crate::{ArenaError, BumpArena, MessageLayouts};

/// Size of the ADT header region in bytes.
pub const ADT_HEADER_BYTES: u64 = 64;

/// Size of one field entry in bytes (128 bits).
pub const ADT_ENTRY_BYTES: u64 = 16;

/// Header field offsets within the 64-byte header region.
mod header {
    pub const DEFAULT_INSTANCE: u64 = 0;
    pub const OBJECT_SIZE: u64 = 8;
    pub const HASBITS_OFFSET: u64 = 16;
    pub const MIN_FIELD: u64 = 24;
    pub const MAX_FIELD: u64 = 28;
    pub const ENTRIES_PTR: u64 = 32;
    pub const IS_SUBMESSAGE_PTR: u64 = 40;
}

/// Numeric type code stored in an ADT field entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TypeCode {
    /// Slot has no field defined (gaps in the field-number range).
    Undefined = 0,
    /// `bool`
    Bool = 1,
    /// `int32`
    Int32 = 2,
    /// `int64`
    Int64 = 3,
    /// `uint32`
    UInt32 = 4,
    /// `uint64`
    UInt64 = 5,
    /// `sint32`
    SInt32 = 6,
    /// `sint64`
    SInt64 = 7,
    /// `fixed32`
    Fixed32 = 8,
    /// `fixed64`
    Fixed64 = 9,
    /// `sfixed32`
    SFixed32 = 10,
    /// `sfixed64`
    SFixed64 = 11,
    /// `float`
    Float = 12,
    /// `double`
    Double = 13,
    /// `enum`
    Enum = 14,
    /// `string`
    Str = 15,
    /// `bytes`
    Bytes = 16,
    /// sub-message
    Message = 17,
}

impl TypeCode {
    /// Encodes a schema field type.
    pub fn from_field_type(ft: FieldType) -> Self {
        match ft {
            FieldType::Bool => TypeCode::Bool,
            FieldType::Int32 => TypeCode::Int32,
            FieldType::Int64 => TypeCode::Int64,
            FieldType::UInt32 => TypeCode::UInt32,
            FieldType::UInt64 => TypeCode::UInt64,
            FieldType::SInt32 => TypeCode::SInt32,
            FieldType::SInt64 => TypeCode::SInt64,
            FieldType::Fixed32 => TypeCode::Fixed32,
            FieldType::Fixed64 => TypeCode::Fixed64,
            FieldType::SFixed32 => TypeCode::SFixed32,
            FieldType::SFixed64 => TypeCode::SFixed64,
            FieldType::Float => TypeCode::Float,
            FieldType::Double => TypeCode::Double,
            FieldType::Enum => TypeCode::Enum,
            FieldType::String => TypeCode::Str,
            FieldType::Bytes => TypeCode::Bytes,
            FieldType::Message(_) => TypeCode::Message,
        }
    }

    /// The wire type values of this code use when not packed.
    pub fn wire_type(self) -> protoacc_wire::WireType {
        use protoacc_wire::WireType;
        match self {
            TypeCode::Double | TypeCode::Fixed64 | TypeCode::SFixed64 => WireType::Bits64,
            TypeCode::Float | TypeCode::Fixed32 | TypeCode::SFixed32 => WireType::Bits32,
            TypeCode::Str | TypeCode::Bytes | TypeCode::Message => WireType::LengthDelimited,
            _ => WireType::Varint,
        }
    }

    /// In-memory width of the scalar slot, or `None` for out-of-line types.
    pub fn scalar_size(self) -> Option<u64> {
        Some(match self {
            TypeCode::Bool => 1,
            TypeCode::Int32
            | TypeCode::UInt32
            | TypeCode::SInt32
            | TypeCode::Fixed32
            | TypeCode::SFixed32
            | TypeCode::Float
            | TypeCode::Enum => 4,
            TypeCode::Int64
            | TypeCode::UInt64
            | TypeCode::SInt64
            | TypeCode::Fixed64
            | TypeCode::SFixed64
            | TypeCode::Double => 8,
            TypeCode::Str | TypeCode::Bytes | TypeCode::Message | TypeCode::Undefined => {
                return None
            }
        })
    }

    /// Converts a decoded wire varint into the in-memory bit pattern
    /// (zigzag decode for sint types, truncation for 32-bit types, 0/1
    /// normalization for bool) — the accelerator's post-varint combinational
    /// stages (Section 4.4.6).
    pub fn bits_from_wire_varint(self, raw: u64) -> u64 {
        use protoacc_wire::zigzag;
        match self {
            TypeCode::SInt32 => zigzag::decode32(raw as u32) as u32 as u64,
            TypeCode::SInt64 => zigzag::decode64(raw) as u64,
            TypeCode::Int32 | TypeCode::Enum => raw as u32 as u64,
            TypeCode::UInt32 => raw & 0xffff_ffff,
            TypeCode::Bool => u64::from(raw != 0),
            _ => raw,
        }
    }

    /// Converts an in-memory bit pattern into the raw varint that goes on
    /// the wire (sign extension for int32/enum, zigzag for sint types).
    pub fn wire_varint_from_bits(self, bits: u64) -> u64 {
        use protoacc_wire::zigzag;
        match self {
            TypeCode::Int32 | TypeCode::Enum => bits as u32 as i32 as i64 as u64,
            TypeCode::SInt32 => u64::from(zigzag::encode32(bits as u32 as i32)),
            TypeCode::SInt64 => zigzag::encode64(bits as i64),
            _ => bits,
        }
    }

    /// Decodes a raw byte, returning `None` for invalid codes.
    pub fn from_raw(raw: u8) -> Option<Self> {
        Some(match raw {
            0 => TypeCode::Undefined,
            1 => TypeCode::Bool,
            2 => TypeCode::Int32,
            3 => TypeCode::Int64,
            4 => TypeCode::UInt32,
            5 => TypeCode::UInt64,
            6 => TypeCode::SInt32,
            7 => TypeCode::SInt64,
            8 => TypeCode::Fixed32,
            9 => TypeCode::Fixed64,
            10 => TypeCode::SFixed32,
            11 => TypeCode::SFixed64,
            12 => TypeCode::Float,
            13 => TypeCode::Double,
            14 => TypeCode::Enum,
            15 => TypeCode::Str,
            16 => TypeCode::Bytes,
            17 => TypeCode::Message,
            _ => return None,
        })
    }
}

// Flag bits inside a field entry.
const FLAG_REPEATED: u8 = 1 << 0;
const FLAG_PACKED: u8 = 1 << 1;
const FLAG_ZIGZAG: u8 = 1 << 2;

/// A decoded 128-bit ADT field entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldEntry {
    /// The field's type.
    pub type_code: TypeCode,
    /// `repeated` qualifier.
    pub repeated: bool,
    /// Packed encoding for repeated scalars.
    pub packed: bool,
    /// Whether the value passes through the zigzag stage.
    pub zigzag: bool,
    /// Offset of the field's slot inside the C++ object.
    pub offset: u32,
    /// ADT address of the sub-message type (0 for non-message fields).
    pub sub_adt: u64,
}

impl FieldEntry {
    /// An entry marking an undefined field-number slot.
    pub fn undefined() -> Self {
        FieldEntry {
            type_code: TypeCode::Undefined,
            repeated: false,
            packed: false,
            zigzag: false,
            offset: 0,
            sub_adt: 0,
        }
    }

    /// Whether a field is defined at this slot.
    pub fn is_defined(&self) -> bool {
        self.type_code != TypeCode::Undefined
    }

    /// Serializes the entry into its 16-byte wire layout.
    pub fn to_bytes(&self) -> [u8; ADT_ENTRY_BYTES as usize] {
        let mut out = [0u8; ADT_ENTRY_BYTES as usize];
        out[0] = self.type_code as u8;
        let mut flags = 0u8;
        if self.repeated {
            flags |= FLAG_REPEATED;
        }
        if self.packed {
            flags |= FLAG_PACKED;
        }
        if self.zigzag {
            flags |= FLAG_ZIGZAG;
        }
        out[1] = flags;
        out[4..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.sub_adt.to_le_bytes());
        out
    }

    /// Parses a 16-byte entry. Invalid type codes decode to `Undefined`.
    pub fn from_bytes(bytes: &[u8; ADT_ENTRY_BYTES as usize]) -> Self {
        let type_code = TypeCode::from_raw(bytes[0]).unwrap_or(TypeCode::Undefined);
        let flags = bytes[1];
        FieldEntry {
            type_code,
            repeated: flags & FLAG_REPEATED != 0,
            packed: flags & FLAG_PACKED != 0,
            zigzag: flags & FLAG_ZIGZAG != 0,
            offset: u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")),
            sub_adt: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        }
    }
}

/// The in-memory placement of one message type's ADT, decoded from its
/// header region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdtLayout {
    /// Base address of the ADT (the header).
    pub base: u64,
    /// Pointer to a default (zeroed) instance of the type.
    pub default_instance: u64,
    /// C++ object size of the message type.
    pub object_size: u64,
    /// Offset of the hasbits array within objects.
    pub hasbits_offset: u64,
    /// Smallest defined field number.
    pub min_field: u32,
    /// Largest defined field number.
    pub max_field: u32,
    /// Base address of the field-entry region.
    pub entries: u64,
    /// Base address of the is_submessage bit field.
    pub is_submessage: u64,
}

impl AdtLayout {
    /// Reads and decodes the header region at `base`.
    pub fn read(mem: &GuestMemory, base: u64) -> Self {
        AdtLayout {
            base,
            default_instance: mem.read_u64(base + header::DEFAULT_INSTANCE),
            object_size: mem.read_u64(base + header::OBJECT_SIZE),
            hasbits_offset: mem.read_u64(base + header::HASBITS_OFFSET),
            min_field: mem.read_u32(base + header::MIN_FIELD),
            max_field: mem.read_u32(base + header::MAX_FIELD),
            entries: mem.read_u64(base + header::ENTRIES_PTR),
            is_submessage: mem.read_u64(base + header::IS_SUBMESSAGE_PTR),
        }
    }

    /// Number of entry slots (field-number span).
    pub fn span(&self) -> u64 {
        if self.max_field < self.min_field {
            0
        } else {
            u64::from(self.max_field - self.min_field) + 1
        }
    }

    /// Address of the entry for `field_number`, or `None` if out of range.
    pub fn entry_addr(&self, field_number: u32) -> Option<u64> {
        if field_number < self.min_field || field_number > self.max_field {
            return None;
        }
        Some(self.entries + u64::from(field_number - self.min_field) * ADT_ENTRY_BYTES)
    }

    /// Reads the field entry for `field_number` (untimed; the accelerator's
    /// ADT-loader unit charges its own cycles).
    pub fn read_entry(&self, mem: &GuestMemory, field_number: u32) -> Option<FieldEntry> {
        let addr = self.entry_addr(field_number)?;
        let mut buf = [0u8; ADT_ENTRY_BYTES as usize];
        mem.read_bytes(addr, &mut buf);
        Some(FieldEntry::from_bytes(&buf))
    }

    /// Reads one bit of the is_submessage bit field.
    pub fn is_submessage_bit(&self, mem: &GuestMemory, field_number: u32) -> bool {
        if field_number < self.min_field || field_number > self.max_field {
            return false;
        }
        let bit = u64::from(field_number - self.min_field);
        mem.read_u8(self.is_submessage + bit / 8) & (1 << (bit % 8)) != 0
    }

    /// Total footprint of this ADT in bytes (header + entries + bit field,
    /// padded to 8 bytes).
    pub fn footprint(span: u64) -> u64 {
        let bits = span.div_ceil(8).div_ceil(8) * 8;
        ADT_HEADER_BYTES + span * ADT_ENTRY_BYTES + bits
    }
}

/// Addresses of the ADTs written for a schema, indexed by [`MessageId`].
#[derive(Debug, Clone)]
pub struct AdtTables {
    addrs: Vec<u64>,
    total_bytes: u64,
}

impl AdtTables {
    /// Base address of a message type's ADT.
    pub fn addr(&self, id: MessageId) -> u64 {
        self.addrs[id.index()]
    }

    /// Total guest-memory footprint of all ADTs (plus default instances).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// Generates and writes the ADTs for every message type in `schema` into
/// guest memory, allocating from `arena` — the load-time work the modified
/// protoc performs in the paper.
///
/// Also allocates one zeroed default instance per type, pointed to by each
/// header.
///
/// # Errors
///
/// [`ArenaError::Exhausted`] if the arena cannot hold the tables.
pub fn write_adts(
    schema: &Schema,
    layouts: &MessageLayouts,
    mem: &mut GuestMemory,
    arena: &mut BumpArena,
) -> Result<AdtTables, ArenaError> {
    let start_used = arena.used();
    // Pass 1: allocate every region so sub-message pointers resolve.
    let mut placements = Vec::with_capacity(schema.len());
    for (id, descriptor) in schema.iter() {
        let span = descriptor.field_number_span() as u64;
        let base = arena.alloc(AdtLayout::footprint(span), 8)?;
        let default_instance = arena.alloc(layouts.layout(id).object_size(), 8)?;
        placements.push((base, default_instance, span));
    }
    // Pass 2: fill headers, entries, and bit fields.
    for (id, descriptor) in schema.iter() {
        let (base, default_instance, span) = placements[id.index()];
        let layout = layouts.layout(id);
        let entries = base + ADT_HEADER_BYTES;
        let is_submessage = entries + span * ADT_ENTRY_BYTES;

        mem.write_u64(base + header::DEFAULT_INSTANCE, default_instance);
        mem.write_u64(base + header::OBJECT_SIZE, layout.object_size());
        mem.write_u64(base + header::HASBITS_OFFSET, layout.hasbits_offset());
        mem.write_u32(base + header::MIN_FIELD, layout.min_field());
        mem.write_u32(base + header::MAX_FIELD, layout.max_field());
        mem.write_u64(base + header::ENTRIES_PTR, entries);
        mem.write_u64(base + header::IS_SUBMESSAGE_PTR, is_submessage);

        // Entries default to Undefined (zeroed memory already encodes that),
        // so only defined slots need writes.
        for field in descriptor.fields() {
            let slot = layout.slot(field.number()).expect("layout covers field");
            let sub_adt = match field.field_type() {
                FieldType::Message(sub) => placements[sub.index()].0,
                _ => 0,
            };
            let entry = FieldEntry {
                type_code: TypeCode::from_field_type(field.field_type()),
                repeated: field.is_repeated(),
                packed: field.is_packed(),
                zigzag: field.field_type().is_zigzag(),
                offset: slot.offset as u32,
                sub_adt,
            };
            let index = u64::from(field.number() - layout.min_field());
            mem.write_bytes(entries + index * ADT_ENTRY_BYTES, &entry.to_bytes());
            if field.field_type().is_message() {
                let bit = index;
                let addr = is_submessage + bit / 8;
                let old = mem.read_u8(addr);
                mem.write_u8(addr, old | (1 << (bit % 8)));
            }
        }
    }
    Ok(AdtTables {
        addrs: placements.iter().map(|&(base, _, _)| base).collect(),
        total_bytes: arena.used() - start_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_schema::{FieldType, SchemaBuilder};

    fn build() -> (Schema, MessageLayouts, GuestMemory, AdtTables) {
        let mut b = SchemaBuilder::new();
        let inner = b.declare("Inner");
        b.message(inner).optional("flag", FieldType::Bool, 1);
        let outer = b.declare("Outer");
        b.message(outer)
            .optional("id", FieldType::Int64, 2)
            .optional("name", FieldType::String, 3)
            .optional("sub", FieldType::Message(inner), 5)
            .packed("xs", FieldType::SInt32, 7);
        let schema = b.build().unwrap();
        let layouts = MessageLayouts::compute(&schema);
        let mut mem = GuestMemory::new();
        let mut arena = BumpArena::new(0x1_0000, 1 << 20);
        let tables = write_adts(&schema, &layouts, &mut mem, &mut arena).unwrap();
        (schema, layouts, mem, tables)
    }

    #[test]
    fn header_round_trips_layout_facts() {
        let (schema, layouts, mem, tables) = build();
        let outer = schema.id_by_name("Outer").unwrap();
        let adt = AdtLayout::read(&mem, tables.addr(outer));
        let layout = layouts.layout(outer);
        assert_eq!(adt.object_size, layout.object_size());
        assert_eq!(adt.hasbits_offset, layout.hasbits_offset());
        assert_eq!(adt.min_field, 2);
        assert_eq!(adt.max_field, 7);
        assert_eq!(adt.span(), 6);
        assert_ne!(adt.default_instance, 0);
    }

    #[test]
    fn entries_describe_fields_and_gaps() {
        let (schema, layouts, mem, tables) = build();
        let outer = schema.id_by_name("Outer").unwrap();
        let adt = AdtLayout::read(&mem, tables.addr(outer));
        let layout = layouts.layout(outer);

        let id_entry = adt.read_entry(&mem, 2).unwrap();
        assert_eq!(id_entry.type_code, TypeCode::Int64);
        assert!(!id_entry.repeated);
        assert_eq!(u64::from(id_entry.offset), layout.slot(2).unwrap().offset);

        let name_entry = adt.read_entry(&mem, 3).unwrap();
        assert_eq!(name_entry.type_code, TypeCode::Str);

        // Field 4 is a gap.
        let gap = adt.read_entry(&mem, 4).unwrap();
        assert!(!gap.is_defined());

        let packed = adt.read_entry(&mem, 7).unwrap();
        assert!(packed.repeated && packed.packed && packed.zigzag);
        assert_eq!(packed.type_code, TypeCode::SInt32);

        // Out-of-range numbers have no entry.
        assert_eq!(adt.read_entry(&mem, 1), None);
        assert_eq!(adt.read_entry(&mem, 8), None);
    }

    #[test]
    fn submessage_entry_points_to_sub_adt() {
        let (schema, _, mem, tables) = build();
        let outer = schema.id_by_name("Outer").unwrap();
        let inner = schema.id_by_name("Inner").unwrap();
        let adt = AdtLayout::read(&mem, tables.addr(outer));
        let sub = adt.read_entry(&mem, 5).unwrap();
        assert_eq!(sub.type_code, TypeCode::Message);
        assert_eq!(sub.sub_adt, tables.addr(inner));
    }

    #[test]
    fn is_submessage_bits_match_entries() {
        let (schema, _, mem, tables) = build();
        let outer = schema.id_by_name("Outer").unwrap();
        let adt = AdtLayout::read(&mem, tables.addr(outer));
        assert!(adt.is_submessage_bit(&mem, 5));
        for n in [2u32, 3, 4, 6, 7] {
            assert!(!adt.is_submessage_bit(&mem, n), "field {n}");
        }
        assert!(!adt.is_submessage_bit(&mem, 100));
    }

    #[test]
    fn entry_byte_codec_round_trips() {
        let entry = FieldEntry {
            type_code: TypeCode::SInt64,
            repeated: true,
            packed: true,
            zigzag: true,
            offset: 0xdead,
            sub_adt: 0x1234_5678_9abc,
        };
        assert_eq!(FieldEntry::from_bytes(&entry.to_bytes()), entry);
        let undef = FieldEntry::undefined();
        assert_eq!(FieldEntry::from_bytes(&undef.to_bytes()), undef);
        assert!(!undef.is_defined());
    }

    #[test]
    fn type_codes_round_trip_all_field_types() {
        for ft in FieldType::SCALARS {
            let code = TypeCode::from_field_type(ft);
            assert_eq!(TypeCode::from_raw(code as u8), Some(code));
        }
        assert_eq!(TypeCode::from_raw(200), None);
    }

    #[test]
    fn footprint_accounts_for_all_regions() {
        // span 6: header 64 + entries 96 + bitfield pad 8 = 168.
        assert_eq!(AdtLayout::footprint(6), 168);
        assert_eq!(AdtLayout::footprint(0), 64);
        let (_, _, _, tables) = build();
        assert!(tables.total_bytes() >= 168);
    }
}
