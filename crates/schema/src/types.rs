//! Proto2 field types and the performance-similar classes of Table 1.

use protoacc_wire::WireType;

use crate::descriptor::MessageId;

/// A proto2 field type.
///
/// All scalar types plus `string`/`bytes` and user-defined sub-message types.
/// Groups are deprecated and not modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// 64-bit IEEE-754, fixed 8 bytes on the wire.
    Double,
    /// 32-bit IEEE-754, fixed 4 bytes on the wire.
    Float,
    /// Variable-length signed 32-bit (two's-complement varint; negative
    /// values take 10 bytes).
    Int32,
    /// Variable-length signed 64-bit.
    Int64,
    /// Variable-length unsigned 32-bit.
    UInt32,
    /// Variable-length unsigned 64-bit.
    UInt64,
    /// Zigzag-then-varint signed 32-bit.
    SInt32,
    /// Zigzag-then-varint signed 64-bit.
    SInt64,
    /// Fixed 4-byte unsigned.
    Fixed32,
    /// Fixed 8-byte unsigned.
    Fixed64,
    /// Fixed 4-byte signed.
    SFixed32,
    /// Fixed 8-byte signed.
    SFixed64,
    /// Varint-encoded boolean.
    Bool,
    /// Varint-encoded enumeration value.
    Enum,
    /// Length-delimited UTF-8 text.
    String,
    /// Length-delimited opaque bytes.
    Bytes,
    /// A user-defined sub-message type, resolved to its schema slot.
    Message(MessageId),
}

/// The "performance-similar" classes of Table 1, used throughout the paper's
/// profiling analysis (Figures 4-6) to group field types that require a
/// similar amount of work to serialize or deserialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PerfClass {
    /// `bytes`, `string` (sizes bucketed as in Figure 4c).
    BytesLike,
    /// `{s,u}int{64,32}`, `int{64,32}`, `enum`, `bool` (1-10 bytes, by 1).
    VarintLike,
    /// `float` (4 bytes).
    FloatLike,
    /// `double` (8 bytes).
    DoubleLike,
    /// `fixed32`, `sfixed32` (4 bytes).
    Fixed32Like,
    /// `fixed64`, `sfixed64` (8 bytes).
    Fixed64Like,
}

impl PerfClass {
    /// All classes, in Table 1 order.
    pub const ALL: [PerfClass; 6] = [
        PerfClass::BytesLike,
        PerfClass::VarintLike,
        PerfClass::FloatLike,
        PerfClass::DoubleLike,
        PerfClass::Fixed32Like,
        PerfClass::Fixed64Like,
    ];

    /// Human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PerfClass::BytesLike => "bytes-like",
            PerfClass::VarintLike => "varint-like",
            PerfClass::FloatLike => "float-like",
            PerfClass::DoubleLike => "double-like",
            PerfClass::Fixed32Like => "fixed32-like",
            PerfClass::Fixed64Like => "fixed64-like",
        }
    }
}

impl std::fmt::Display for PerfClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a scalar value is represented in the C++-like in-memory object,
/// used by the layout engine and the accelerator's final write states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// 1-byte boolean.
    Bool,
    /// 4-byte integer (signedness tracked by the field type).
    I32,
    /// 8-byte integer.
    I64,
    /// 4-byte float.
    F32,
    /// 8-byte float.
    F64,
}

impl ScalarKind {
    /// In-memory size in bytes.
    pub fn size(self) -> usize {
        match self {
            ScalarKind::Bool => 1,
            ScalarKind::I32 | ScalarKind::F32 => 4,
            ScalarKind::I64 | ScalarKind::F64 => 8,
        }
    }
}

impl FieldType {
    /// The wire type this field uses when not packed (Section 2.1.2).
    pub fn wire_type(self) -> WireType {
        match self {
            FieldType::Double | FieldType::Fixed64 | FieldType::SFixed64 => WireType::Bits64,
            FieldType::Float | FieldType::Fixed32 | FieldType::SFixed32 => WireType::Bits32,
            FieldType::Int32
            | FieldType::Int64
            | FieldType::UInt32
            | FieldType::UInt64
            | FieldType::SInt32
            | FieldType::SInt64
            | FieldType::Bool
            | FieldType::Enum => WireType::Varint,
            FieldType::String | FieldType::Bytes | FieldType::Message(_) => {
                WireType::LengthDelimited
            }
        }
    }

    /// The Table 1 performance-similar class this type belongs to.
    ///
    /// Sub-messages have no class of their own: the paper accounts for them
    /// via the primitive fields they contain (Section 3.6.1), so this returns
    /// `None` for `Message`.
    pub fn perf_class(self) -> Option<PerfClass> {
        match self {
            FieldType::Bytes | FieldType::String => Some(PerfClass::BytesLike),
            FieldType::Int32
            | FieldType::Int64
            | FieldType::UInt32
            | FieldType::UInt64
            | FieldType::SInt32
            | FieldType::SInt64
            | FieldType::Bool
            | FieldType::Enum => Some(PerfClass::VarintLike),
            FieldType::Float => Some(PerfClass::FloatLike),
            FieldType::Double => Some(PerfClass::DoubleLike),
            FieldType::Fixed32 | FieldType::SFixed32 => Some(PerfClass::Fixed32Like),
            FieldType::Fixed64 | FieldType::SFixed64 => Some(PerfClass::Fixed64Like),
            FieldType::Message(_) => None,
        }
    }

    /// The in-memory scalar representation, or `None` for string/bytes and
    /// sub-message types (which are stored out-of-line behind pointers).
    pub fn scalar_kind(self) -> Option<ScalarKind> {
        match self {
            FieldType::Bool => Some(ScalarKind::Bool),
            FieldType::Int32
            | FieldType::UInt32
            | FieldType::SInt32
            | FieldType::Fixed32
            | FieldType::SFixed32
            | FieldType::Enum => Some(ScalarKind::I32),
            FieldType::Int64
            | FieldType::UInt64
            | FieldType::SInt64
            | FieldType::Fixed64
            | FieldType::SFixed64 => Some(ScalarKind::I64),
            FieldType::Float => Some(ScalarKind::F32),
            FieldType::Double => Some(ScalarKind::F64),
            FieldType::String | FieldType::Bytes | FieldType::Message(_) => None,
        }
    }

    /// Whether values of this type use zigzag encoding before the varint.
    pub fn is_zigzag(self) -> bool {
        matches!(self, FieldType::SInt32 | FieldType::SInt64)
    }

    /// Whether this type may appear in a packed repeated field.
    ///
    /// Proto2 allows packing for all scalar numeric types; strings, bytes,
    /// and messages cannot be packed.
    pub fn is_packable(self) -> bool {
        !matches!(
            self,
            FieldType::String | FieldType::Bytes | FieldType::Message(_)
        )
    }

    /// Whether this is a sub-message type.
    pub fn is_message(self) -> bool {
        matches!(self, FieldType::Message(_))
    }

    /// The keyword used in `.proto` source for this type, or `None` for
    /// message types (which use their type name).
    pub fn keyword(self) -> Option<&'static str> {
        Some(match self {
            FieldType::Double => "double",
            FieldType::Float => "float",
            FieldType::Int32 => "int32",
            FieldType::Int64 => "int64",
            FieldType::UInt32 => "uint32",
            FieldType::UInt64 => "uint64",
            FieldType::SInt32 => "sint32",
            FieldType::SInt64 => "sint64",
            FieldType::Fixed32 => "fixed32",
            FieldType::Fixed64 => "fixed64",
            FieldType::SFixed32 => "sfixed32",
            FieldType::SFixed64 => "sfixed64",
            FieldType::Bool => "bool",
            FieldType::Enum => "enum",
            FieldType::String => "string",
            FieldType::Bytes => "bytes",
            FieldType::Message(_) => return None,
        })
    }

    /// All non-message field types.
    pub const SCALARS: [FieldType; 16] = [
        FieldType::Double,
        FieldType::Float,
        FieldType::Int32,
        FieldType::Int64,
        FieldType::UInt32,
        FieldType::UInt64,
        FieldType::SInt32,
        FieldType::SInt64,
        FieldType::Fixed32,
        FieldType::Fixed64,
        FieldType::SFixed32,
        FieldType::SFixed64,
        FieldType::Bool,
        FieldType::Enum,
        FieldType::String,
        FieldType::Bytes,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_classification_is_complete() {
        // Every non-message type maps to exactly one Table 1 class.
        for ft in FieldType::SCALARS {
            assert!(ft.perf_class().is_some(), "{ft:?} must be classified");
        }
        assert_eq!(FieldType::Message(MessageId::new(0)).perf_class(), None);
    }

    #[test]
    fn table1_varint_group_matches_paper() {
        // Table 1: {s,u}int{64,32}, int{64,32}, enum, bool are varint-like.
        for ft in [
            FieldType::Int32,
            FieldType::Int64,
            FieldType::UInt32,
            FieldType::UInt64,
            FieldType::SInt32,
            FieldType::SInt64,
            FieldType::Enum,
            FieldType::Bool,
        ] {
            assert_eq!(ft.perf_class(), Some(PerfClass::VarintLike));
        }
    }

    #[test]
    fn table1_fixed_groups_match_paper() {
        assert_eq!(
            FieldType::Fixed32.perf_class(),
            Some(PerfClass::Fixed32Like)
        );
        assert_eq!(
            FieldType::SFixed32.perf_class(),
            Some(PerfClass::Fixed32Like)
        );
        assert_eq!(
            FieldType::Fixed64.perf_class(),
            Some(PerfClass::Fixed64Like)
        );
        assert_eq!(
            FieldType::SFixed64.perf_class(),
            Some(PerfClass::Fixed64Like)
        );
        assert_eq!(FieldType::Float.perf_class(), Some(PerfClass::FloatLike));
        assert_eq!(FieldType::Double.perf_class(), Some(PerfClass::DoubleLike));
        assert_eq!(FieldType::String.perf_class(), Some(PerfClass::BytesLike));
        assert_eq!(FieldType::Bytes.perf_class(), Some(PerfClass::BytesLike));
    }

    #[test]
    fn wire_type_mapping_matches_spec() {
        assert_eq!(FieldType::Double.wire_type(), WireType::Bits64);
        assert_eq!(FieldType::Float.wire_type(), WireType::Bits32);
        assert_eq!(FieldType::Int64.wire_type(), WireType::Varint);
        assert_eq!(FieldType::Bool.wire_type(), WireType::Varint);
        assert_eq!(FieldType::String.wire_type(), WireType::LengthDelimited);
        assert_eq!(
            FieldType::Message(MessageId::new(3)).wire_type(),
            WireType::LengthDelimited
        );
    }

    #[test]
    fn scalar_kinds_and_sizes() {
        assert_eq!(FieldType::Bool.scalar_kind(), Some(ScalarKind::Bool));
        assert_eq!(ScalarKind::Bool.size(), 1);
        assert_eq!(FieldType::Int32.scalar_kind(), Some(ScalarKind::I32));
        assert_eq!(ScalarKind::I32.size(), 4);
        assert_eq!(FieldType::Double.scalar_kind(), Some(ScalarKind::F64));
        assert_eq!(ScalarKind::F64.size(), 8);
        assert_eq!(FieldType::String.scalar_kind(), None);
    }

    #[test]
    fn packability() {
        assert!(FieldType::Int32.is_packable());
        assert!(FieldType::Double.is_packable());
        assert!(!FieldType::String.is_packable());
        assert!(!FieldType::Bytes.is_packable());
        assert!(!FieldType::Message(MessageId::new(0)).is_packable());
    }

    #[test]
    fn zigzag_only_for_sint() {
        assert!(FieldType::SInt32.is_zigzag());
        assert!(FieldType::SInt64.is_zigzag());
        assert!(!FieldType::Int32.is_zigzag());
        assert!(!FieldType::Int64.is_zigzag());
    }

    #[test]
    fn keywords_round_trip_through_parser_table() {
        for ft in FieldType::SCALARS {
            let kw = ft.keyword().unwrap();
            assert!(!kw.is_empty());
        }
        assert_eq!(FieldType::Message(MessageId::new(1)).keyword(), None);
    }

    #[test]
    fn perf_class_labels_are_stable() {
        let labels: Vec<&str> = PerfClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "bytes-like",
                "varint-like",
                "float-like",
                "double-like",
                "fixed32-like",
                "fixed64-like"
            ]
        );
    }
}
