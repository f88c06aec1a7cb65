//! Binary `FileDescriptorSet` ingestion and emission.
//!
//! `descriptor.proto` is itself a protobuf message, so this module dogfoods
//! the in-tree wire codec ([`protoacc_wire`]) to decode serialized
//! descriptor sets — the artifact `protoc --descriptor_set_out` produces and
//! the `FileDescriptorSet` → dynamic-message pipeline consumes — and lowers
//! them into the same [`Schema`] the `.proto` text parser builds. That makes
//! every static analysis in the workspace (lint, abstract-interpretation
//! envelopes, layouts) runnable on schemas it has never seen, loaded at
//! runtime rather than compiled in.
//!
//! The decoder is **total**: any input — truncated, bit-flipped, or
//! adversarial — yields either a valid `Schema` or a typed [`SchemaError`],
//! never a panic or unbounded recursion (`nested_type` chains are capped at
//! [`MAX_DESCRIPTOR_NESTING`]).
//!
//! Lowering mirrors [`crate::parse_proto`] exactly: messages register in
//! pre-order declaration order under package-stripped dotted names
//! (`Outer.Inner`), enum-typed fields map to [`FieldType::Enum`], and type
//! references resolve innermost-scope-outward. The same schema therefore
//! produces byte-identical analysis output whichever front-end ingested it.
//!
//! [`encode_descriptor_set`] is the inverse: it re-nests a [`Schema`] by its
//! dotted names (like [`crate::render_proto`]) and emits a canonical binary
//! set, used to generate the checked-in `.binpb` fixtures.

use std::collections::{HashMap, HashSet};

use protoacc_wire::{WireReader, WireType, WireWriter};

use crate::{FieldDescriptor, FieldType, Label, MessageDescriptor, MessageId, Schema, SchemaError};

/// Maximum `nested_type` depth the decoder accepts. Deeper sets — which no
/// real compiler emits — are rejected with a typed error instead of
/// recursing toward a stack overflow (the static twin of the fault plane's
/// depth bomb).
pub const MAX_DESCRIPTOR_NESTING: usize = 64;

// descriptor.proto field numbers (stable since proto2 shipped).
const SET_FILE: u32 = 1;
const FILE_NAME: u32 = 1;
const FILE_PACKAGE: u32 = 2;
const FILE_MESSAGE_TYPE: u32 = 4;
const FILE_ENUM_TYPE: u32 = 5;
const FILE_SYNTAX: u32 = 12;
const MSG_NAME: u32 = 1;
const MSG_FIELD: u32 = 2;
const MSG_NESTED_TYPE: u32 = 3;
const MSG_ENUM_TYPE: u32 = 4;
const FIELD_NAME: u32 = 1;
const FIELD_NUMBER: u32 = 3;
const FIELD_LABEL: u32 = 4;
const FIELD_TYPE: u32 = 5;
const FIELD_TYPE_NAME: u32 = 6;
const FIELD_OPTIONS: u32 = 8;
const OPTIONS_PACKED: u32 = 2;
const ENUM_NAME: u32 = 1;

// FieldDescriptorProto.Type enum values.
const TYPE_DOUBLE: u64 = 1;
const TYPE_FLOAT: u64 = 2;
const TYPE_INT64: u64 = 3;
const TYPE_UINT64: u64 = 4;
const TYPE_INT32: u64 = 5;
const TYPE_FIXED64: u64 = 6;
const TYPE_FIXED32: u64 = 7;
const TYPE_BOOL: u64 = 8;
const TYPE_STRING: u64 = 9;
const TYPE_GROUP: u64 = 10;
const TYPE_MESSAGE: u64 = 11;
const TYPE_BYTES: u64 = 12;
const TYPE_UINT32: u64 = 13;
const TYPE_ENUM: u64 = 14;
const TYPE_SFIXED32: u64 = 15;
const TYPE_SFIXED64: u64 = 16;
const TYPE_SINT32: u64 = 17;
const TYPE_SINT64: u64 = 18;

// FieldDescriptorProto.Label enum values.
const LABEL_OPTIONAL: u64 = 1;
const LABEL_REQUIRED: u64 = 2;
const LABEL_REPEATED: u64 = 3;

// ---------------------------------------------------------------------------
// Raw decoded descriptor tree
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct RawFile {
    package: String,
    syntax: String,
    messages: Vec<RawMessage>,
    enums: Vec<String>,
}

#[derive(Debug, Default)]
struct RawMessage {
    name: String,
    fields: Vec<RawField>,
    nested: Vec<RawMessage>,
    enums: Vec<String>,
}

#[derive(Debug, Default)]
struct RawField {
    name: String,
    number: Option<u64>,
    label: Option<u64>,
    type_code: Option<u64>,
    type_name: Option<String>,
    packed: bool,
}

fn structural(message: impl Into<String>) -> SchemaError {
    SchemaError::Descriptor {
        message: message.into(),
    }
}

fn decode_string(bytes: &[u8], what: &str) -> Result<String, SchemaError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| structural(format!("{what} is not valid UTF-8")))
}

/// Reads one varint-typed field, rejecting a mismatched wire type: a key
/// that names a known field must carry that field's encoding, so a mismatch
/// means the payload is corrupt rather than merely newer than us.
fn expect_varint(
    reader: &mut WireReader<'_>,
    wire_type: WireType,
    what: &str,
) -> Result<u64, SchemaError> {
    if wire_type != WireType::Varint {
        return Err(structural(format!("{what} has wire type {wire_type:?}")));
    }
    Ok(reader.read_varint()?)
}

fn expect_bytes<'a>(
    reader: &mut WireReader<'a>,
    wire_type: WireType,
    what: &str,
) -> Result<&'a [u8], SchemaError> {
    if wire_type != WireType::LengthDelimited {
        return Err(structural(format!("{what} has wire type {wire_type:?}")));
    }
    Ok(reader.read_length_delimited()?)
}

fn decode_field_options(bytes: &[u8]) -> Result<bool, SchemaError> {
    let mut reader = WireReader::new(bytes);
    let mut packed = false;
    while !reader.is_at_end() {
        let key = reader.read_key()?;
        if key.field_number() == OPTIONS_PACKED {
            packed = expect_varint(&mut reader, key.wire_type(), "FieldOptions.packed")? != 0;
        } else {
            reader.skip_value(key.wire_type())?;
        }
    }
    Ok(packed)
}

fn decode_field_proto(bytes: &[u8]) -> Result<RawField, SchemaError> {
    let mut reader = WireReader::new(bytes);
    let mut field = RawField::default();
    while !reader.is_at_end() {
        let key = reader.read_key()?;
        match key.field_number() {
            FIELD_NAME => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "field name")?;
                field.name = decode_string(raw, "field name")?;
            }
            FIELD_NUMBER => {
                field.number = Some(expect_varint(&mut reader, key.wire_type(), "field number")?);
            }
            FIELD_LABEL => {
                field.label = Some(expect_varint(&mut reader, key.wire_type(), "field label")?);
            }
            FIELD_TYPE => {
                field.type_code = Some(expect_varint(&mut reader, key.wire_type(), "field type")?);
            }
            FIELD_TYPE_NAME => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "field type_name")?;
                field.type_name = Some(decode_string(raw, "field type_name")?);
            }
            FIELD_OPTIONS => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "field options")?;
                field.packed = decode_field_options(raw)?;
            }
            _ => reader.skip_value(key.wire_type())?,
        }
    }
    Ok(field)
}

fn decode_enum_name(bytes: &[u8]) -> Result<String, SchemaError> {
    let mut reader = WireReader::new(bytes);
    let mut name = String::new();
    while !reader.is_at_end() {
        let key = reader.read_key()?;
        if key.field_number() == ENUM_NAME {
            let raw = expect_bytes(&mut reader, key.wire_type(), "enum name")?;
            name = decode_string(raw, "enum name")?;
        } else {
            reader.skip_value(key.wire_type())?;
        }
    }
    if name.is_empty() {
        return Err(structural("enum descriptor has no name"));
    }
    Ok(name)
}

fn decode_message_proto(bytes: &[u8], depth: usize) -> Result<RawMessage, SchemaError> {
    if depth >= MAX_DESCRIPTOR_NESTING {
        return Err(structural(format!(
            "nested_type depth exceeds the {MAX_DESCRIPTOR_NESTING}-level limit"
        )));
    }
    let mut reader = WireReader::new(bytes);
    let mut msg = RawMessage::default();
    while !reader.is_at_end() {
        let key = reader.read_key()?;
        match key.field_number() {
            MSG_NAME => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "message name")?;
                msg.name = decode_string(raw, "message name")?;
            }
            MSG_FIELD => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "field descriptor")?;
                msg.fields.push(decode_field_proto(raw)?);
            }
            MSG_NESTED_TYPE => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "nested type")?;
                msg.nested.push(decode_message_proto(raw, depth + 1)?);
            }
            MSG_ENUM_TYPE => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "enum descriptor")?;
                msg.enums.push(decode_enum_name(raw)?);
            }
            _ => reader.skip_value(key.wire_type())?,
        }
    }
    if msg.name.is_empty() {
        return Err(structural("message descriptor has no name"));
    }
    if msg.name.contains('.') {
        return Err(structural(format!(
            "message name `{}` contains a dot",
            msg.name
        )));
    }
    Ok(msg)
}

fn decode_file_proto(bytes: &[u8]) -> Result<RawFile, SchemaError> {
    let mut reader = WireReader::new(bytes);
    let mut file = RawFile::default();
    while !reader.is_at_end() {
        let key = reader.read_key()?;
        match key.field_number() {
            FILE_NAME => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "file name")?;
                decode_string(raw, "file name")?;
            }
            FILE_PACKAGE => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "file package")?;
                file.package = decode_string(raw, "file package")?;
            }
            FILE_MESSAGE_TYPE => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "message descriptor")?;
                file.messages.push(decode_message_proto(raw, 0)?);
            }
            FILE_ENUM_TYPE => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "enum descriptor")?;
                file.enums.push(decode_enum_name(raw)?);
            }
            FILE_SYNTAX => {
                let raw = expect_bytes(&mut reader, key.wire_type(), "file syntax")?;
                file.syntax = decode_string(raw, "file syntax")?;
            }
            _ => reader.skip_value(key.wire_type())?,
        }
    }
    if !(file.syntax.is_empty() || file.syntax == "proto2") {
        return Err(structural(format!(
            "only proto2 is supported (the accelerator targets proto2, Section 3.3), \
             found syntax `{}`",
            file.syntax
        )));
    }
    Ok(file)
}

fn decode_set(bytes: &[u8]) -> Result<Vec<RawFile>, SchemaError> {
    let mut reader = WireReader::new(bytes);
    let mut files = Vec::new();
    while !reader.is_at_end() {
        let key = reader.read_key()?;
        if key.field_number() == SET_FILE {
            let raw = expect_bytes(&mut reader, key.wire_type(), "file descriptor")?;
            files.push(decode_file_proto(raw)?);
        } else {
            reader.skip_value(key.wire_type())?;
        }
    }
    Ok(files)
}

// ---------------------------------------------------------------------------
// Lowering: raw descriptor tree → Schema
// ---------------------------------------------------------------------------

/// Name tables built in the same pre-order pass the text parser uses, so
/// `MessageId` assignment — and with it every downstream analysis artifact —
/// is identical across the two front-ends.
#[derive(Debug, Default)]
struct Lowering<'a> {
    message_ids: HashMap<String, usize>,
    order: Vec<(String, &'a RawMessage)>,
    enums: HashSet<String>,
}

impl<'a> Lowering<'a> {
    fn collect(&mut self, msg: &'a RawMessage, scope: &str) -> Result<(), SchemaError> {
        let full = qualify(scope, &msg.name);
        if self
            .message_ids
            .insert(full.clone(), self.order.len())
            .is_some()
        {
            return Err(SchemaError::DuplicateMessageName { name: full });
        }
        self.order.push((full.clone(), msg));
        for e in &msg.enums {
            self.enums.insert(qualify(&full, e));
        }
        for nested in &msg.nested {
            self.collect(nested, &full)?;
        }
        Ok(())
    }

    /// Resolves a `type_name` from inside `scope`. Fully-qualified names
    /// (leading dot, as `protoc` always emits) are looked up directly after
    /// stripping the file's package prefix; relative names walk scopes
    /// innermost-outward like the text parser.
    fn resolve(&self, type_name: &str, scope: &str, package: &str) -> Option<FieldType> {
        if let Some(absolute) = type_name.strip_prefix('.') {
            let stripped = if package.is_empty() {
                absolute
            } else {
                absolute
                    .strip_prefix(&format!("{package}."))
                    .unwrap_or(absolute)
            };
            return self.lookup(stripped);
        }
        let mut scope = scope.to_owned();
        loop {
            let candidate = qualify(&scope, type_name);
            if let Some(ft) = self.lookup(&candidate) {
                return Some(ft);
            }
            match scope.rfind('.') {
                Some(dot) => scope.truncate(dot),
                None if !scope.is_empty() => scope.clear(),
                None => return None,
            }
        }
    }

    fn lookup(&self, full: &str) -> Option<FieldType> {
        if let Some(&slot) = self.message_ids.get(full) {
            return Some(FieldType::Message(MessageId::new(slot)));
        }
        if self.enums.contains(full) {
            return Some(FieldType::Enum);
        }
        None
    }

    fn lower_field(
        &self,
        rf: &RawField,
        scope: &str,
        package: &str,
    ) -> Result<FieldDescriptor, SchemaError> {
        if rf.name.is_empty() {
            return Err(structural(format!("field in `{scope}` has no name")));
        }
        let number = rf
            .number
            .ok_or_else(|| structural(format!("field `{scope}.{}` has no number", rf.name)))?;
        let number = u32::try_from(number)
            .map_err(|_| SchemaError::InvalidFieldNumber { number: u32::MAX })?;
        let label = match rf.label {
            Some(LABEL_OPTIONAL) => Label::Optional,
            Some(LABEL_REQUIRED) => Label::Required,
            Some(LABEL_REPEATED) => Label::Repeated,
            other => {
                return Err(structural(format!(
                    "field `{scope}.{}` has invalid label {other:?}",
                    rf.name
                )))
            }
        };
        let field_type = match rf.type_code {
            Some(TYPE_DOUBLE) => FieldType::Double,
            Some(TYPE_FLOAT) => FieldType::Float,
            Some(TYPE_INT64) => FieldType::Int64,
            Some(TYPE_UINT64) => FieldType::UInt64,
            Some(TYPE_INT32) => FieldType::Int32,
            Some(TYPE_FIXED64) => FieldType::Fixed64,
            Some(TYPE_FIXED32) => FieldType::Fixed32,
            Some(TYPE_BOOL) => FieldType::Bool,
            Some(TYPE_STRING) => FieldType::String,
            Some(TYPE_BYTES) => FieldType::Bytes,
            Some(TYPE_UINT32) => FieldType::UInt32,
            Some(TYPE_ENUM) => FieldType::Enum,
            Some(TYPE_SFIXED32) => FieldType::SFixed32,
            Some(TYPE_SFIXED64) => FieldType::SFixed64,
            Some(TYPE_SINT32) => FieldType::SInt32,
            Some(TYPE_SINT64) => FieldType::SInt64,
            Some(TYPE_GROUP) => {
                return Err(structural(format!(
                    "field `{scope}.{}` uses the deprecated group encoding",
                    rf.name
                )))
            }
            Some(TYPE_MESSAGE) | None => {
                // `type` may legally be omitted when `type_name` is set.
                let type_name = rf.type_name.as_deref().ok_or_else(|| {
                    structural(format!(
                        "field `{scope}.{}` has neither a scalar type nor a type_name",
                        rf.name
                    ))
                })?;
                let resolved = self.resolve(type_name, scope, package).ok_or_else(|| {
                    SchemaError::UnknownMessageType {
                        name: type_name.to_owned(),
                    }
                })?;
                if rf.type_code == Some(TYPE_MESSAGE) && resolved == FieldType::Enum {
                    return Err(structural(format!(
                        "field `{scope}.{}` declares TYPE_MESSAGE but `{type_name}` is an enum",
                        rf.name
                    )));
                }
                resolved
            }
            Some(other) => {
                return Err(structural(format!(
                    "field `{scope}.{}` has unknown type code {other}",
                    rf.name
                )))
            }
        };
        FieldDescriptor::new(rf.name.clone(), number, field_type, label, rf.packed)
    }
}

fn qualify(scope: &str, name: &str) -> String {
    if scope.is_empty() {
        name.to_owned()
    } else {
        format!("{scope}.{name}")
    }
}

/// Decodes a serialized `FileDescriptorSet` and lowers it into a [`Schema`].
///
/// Multi-file sets are flattened in file order; within each file, messages
/// register in pre-order declaration order under package-stripped dotted
/// names, exactly like [`crate::parse_proto`], so the resulting schema —
/// down to `MessageId` assignment — is indistinguishable from one parsed
/// from equivalent `.proto` text.
///
/// # Errors
///
/// * [`SchemaError::Wire`] on any wire-level malformation (truncation,
///   varint overflow, bad keys, over-long lengths, group wire types).
/// * [`SchemaError::Descriptor`] on structurally invalid descriptors
///   (missing names or numbers, bad label/type enum values, `nested_type`
///   recursion past [`MAX_DESCRIPTOR_NESTING`], non-proto2 syntax, group
///   fields).
/// * The usual semantic errors ([`SchemaError::DuplicateFieldNumber`],
///   [`SchemaError::ReservedFieldNumber`], [`SchemaError::InvalidPacked`],
///   [`SchemaError::UnknownMessageType`], ...) from descriptor validation.
///
/// ```rust
/// use protoacc_schema::{encode_descriptor_set, parse_descriptor_set, parse_proto};
/// let schema = parse_proto("message Ping { optional uint64 seq = 1; }")?;
/// let bytes = encode_descriptor_set(&schema, "ping.proto");
/// let back = parse_descriptor_set(&bytes)?;
/// assert!(back.message_by_name("Ping").is_some());
/// # Ok::<(), protoacc_schema::SchemaError>(())
/// ```
pub fn parse_descriptor_set(bytes: &[u8]) -> Result<Schema, SchemaError> {
    let files = decode_set(bytes)?;
    let mut lowering = Lowering::default();
    for file in &files {
        for msg in &file.messages {
            lowering.collect(msg, "")?;
        }
        for e in &file.enums {
            lowering.enums.insert(e.clone());
        }
    }
    // File-level packages partition the order vector; remember each
    // message's owning package for type_name stripping.
    let mut packages = Vec::with_capacity(lowering.order.len());
    {
        let mut cursor = 0;
        for file in &files {
            let mut count = 0;
            for msg in &file.messages {
                count += count_messages(msg);
            }
            for _ in 0..count {
                packages.push(file.package.clone());
            }
            cursor += count;
        }
        debug_assert_eq!(cursor, lowering.order.len());
    }
    let mut schema = Schema::new();
    for (slot, (full, raw)) in lowering.order.iter().enumerate() {
        let mut fields = Vec::with_capacity(raw.fields.len());
        for rf in &raw.fields {
            fields.push(lowering.lower_field(rf, full, &packages[slot])?);
        }
        schema.add_message(MessageDescriptor::new(full.clone(), fields)?)?;
    }
    schema.validate()?;
    Ok(schema)
}

fn count_messages(msg: &RawMessage) -> usize {
    1 + msg.nested.iter().map(count_messages).sum::<usize>()
}

// ---------------------------------------------------------------------------
// Encoding: Schema → FileDescriptorSet bytes
// ---------------------------------------------------------------------------

/// Encodes a [`Schema`] as a canonical single-file `FileDescriptorSet`.
///
/// The inverse of [`parse_descriptor_set`]: nested types are reconstructed
/// from their dotted names (like [`crate::render_proto`]), enum fields emit
/// `TYPE_ENUM` referencing a synthesized `PlaceholderEnum`, and message
/// references use fully-qualified leading-dot `type_name`s. Output is
/// deterministic, so fixture files can be byte-compared against
/// regeneration.
#[must_use]
pub fn encode_descriptor_set(schema: &Schema, file_name: &str) -> Vec<u8> {
    let mut file = WireWriter::new();
    file.write_length_delimited_field(FILE_NAME, file_name.as_bytes())
        .expect("const field number");
    for (_, m) in schema.iter() {
        if !m.name().contains('.') {
            file.write_length_delimited_field(FILE_MESSAGE_TYPE, &encode_message(schema, m))
                .expect("const field number");
        }
    }
    let uses_enum = schema
        .iter()
        .any(|(_, m)| m.fields().iter().any(|f| f.field_type() == FieldType::Enum));
    if uses_enum {
        let mut e = WireWriter::new();
        e.write_length_delimited_field(ENUM_NAME, b"PlaceholderEnum")
            .expect("const field number");
        file.write_length_delimited_field(FILE_ENUM_TYPE, e.as_bytes())
            .expect("const field number");
    }
    file.write_length_delimited_field(FILE_SYNTAX, b"proto2")
        .expect("const field number");

    let mut set = WireWriter::new();
    set.write_length_delimited_field(SET_FILE, file.as_bytes())
        .expect("const field number");
    set.into_bytes()
}

fn encode_message(schema: &Schema, m: &MessageDescriptor) -> Vec<u8> {
    let mut w = WireWriter::new();
    let simple = m.name().rsplit('.').next().expect("non-empty name");
    w.write_length_delimited_field(MSG_NAME, simple.as_bytes())
        .expect("const field number");
    for f in m.fields() {
        w.write_length_delimited_field(MSG_FIELD, &encode_field(schema, f))
            .expect("const field number");
    }
    // Children: types named "<this>.<child>" with exactly one more segment,
    // in schema declaration order.
    let prefix = format!("{}.", m.name());
    for (_, child) in schema.iter() {
        if let Some(rest) = child.name().strip_prefix(&prefix) {
            if !rest.contains('.') {
                w.write_length_delimited_field(MSG_NESTED_TYPE, &encode_message(schema, child))
                    .expect("const field number");
            }
        }
    }
    w.into_bytes()
}

fn encode_field(schema: &Schema, f: &FieldDescriptor) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_length_delimited_field(FIELD_NAME, f.name().as_bytes())
        .expect("const field number");
    w.write_varint_field(FIELD_NUMBER, u64::from(f.number()))
        .expect("const field number");
    let label = match f.label() {
        Label::Optional => LABEL_OPTIONAL,
        Label::Required => LABEL_REQUIRED,
        Label::Repeated => LABEL_REPEATED,
    };
    w.write_varint_field(FIELD_LABEL, label)
        .expect("const field number");
    let (code, type_name) = match f.field_type() {
        FieldType::Double => (TYPE_DOUBLE, None),
        FieldType::Float => (TYPE_FLOAT, None),
        FieldType::Int64 => (TYPE_INT64, None),
        FieldType::UInt64 => (TYPE_UINT64, None),
        FieldType::Int32 => (TYPE_INT32, None),
        FieldType::Fixed64 => (TYPE_FIXED64, None),
        FieldType::Fixed32 => (TYPE_FIXED32, None),
        FieldType::Bool => (TYPE_BOOL, None),
        FieldType::String => (TYPE_STRING, None),
        FieldType::Bytes => (TYPE_BYTES, None),
        FieldType::UInt32 => (TYPE_UINT32, None),
        FieldType::Enum => (TYPE_ENUM, Some(".PlaceholderEnum".to_owned())),
        FieldType::SFixed32 => (TYPE_SFIXED32, None),
        FieldType::SFixed64 => (TYPE_SFIXED64, None),
        FieldType::SInt32 => (TYPE_SINT32, None),
        FieldType::SInt64 => (TYPE_SINT64, None),
        FieldType::Message(id) => (
            TYPE_MESSAGE,
            Some(format!(".{}", schema.message(id).name())),
        ),
    };
    w.write_varint_field(FIELD_TYPE, code)
        .expect("const field number");
    if let Some(name) = type_name {
        w.write_length_delimited_field(FIELD_TYPE_NAME, name.as_bytes())
            .expect("const field number");
    }
    if f.is_packed() {
        let mut opts = WireWriter::new();
        opts.write_varint_field(OPTIONS_PACKED, 1)
            .expect("const field number");
        w.write_length_delimited_field(FIELD_OPTIONS, opts.as_bytes())
            .expect("const field number");
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_proto;
    use protoacc_wire::MAX_FIELD_NUMBER;

    fn round_trip(source: &str) -> (Schema, Schema) {
        let schema = parse_proto(source).unwrap();
        let bytes = encode_descriptor_set(&schema, "test.proto");
        let back = parse_descriptor_set(&bytes).unwrap();
        (schema, back)
    }

    fn assert_equivalent(a: &Schema, b: &Schema) {
        assert_eq!(a.len(), b.len());
        for ((ia, ma), (ib, mb)) in a.iter().zip(b.iter()) {
            assert_eq!(ia, ib);
            // MessageIds align by construction, so descriptors (including
            // Message(id) references) must compare equal outright.
            assert_eq!(ma, mb);
        }
    }

    /// A one-file descriptor set declaring `messages` at top level.
    fn set_of(messages: &[&[u8]]) -> Vec<u8> {
        let mut file = WireWriter::new();
        for m in messages {
            file.write_length_delimited_field(FILE_MESSAGE_TYPE, m)
                .unwrap();
        }
        let mut set = WireWriter::new();
        set.write_length_delimited_field(SET_FILE, file.as_bytes())
            .unwrap();
        set.into_bytes()
    }

    #[test]
    fn both_front_ends_reject_a_repeated_message_name() {
        let rejects = |result: Result<Schema, SchemaError>, dup: &str| {
            assert!(
                matches!(&result, Err(SchemaError::DuplicateMessageName { name }) if name == dup),
                "{dup}: {result:?}"
            );
        };
        rejects(
            parse_proto(
                "message A { optional int32 x = 1; }\n\
                 message A { optional int32 y = 2; }\n\
                 message C { optional A a = 1; }",
            ),
            "A",
        );
        rejects(
            parse_proto(
                "message A {\n\
                   message B { optional int32 x = 1; }\n\
                   message B { optional int32 y = 2; }\n\
                 }",
            ),
            "A.B",
        );

        let one = parse_proto("message A { message B { optional int32 x = 1; } }").unwrap();
        let encoded = |name: &str| encode_message(&one, one.message(one.id_by_name(name).unwrap()));
        let (a, b) = (encoded("A"), encoded("A.B"));
        rejects(parse_descriptor_set(&set_of(&[&a, &a])), "A");
        let mut twice = WireWriter::new();
        twice
            .write_length_delimited_field(MSG_NESTED_TYPE, &b)
            .unwrap();
        let a_with_b_twice = [a.as_slice(), twice.as_bytes()].concat();
        rejects(parse_descriptor_set(&set_of(&[&a_with_b_twice])), "A.B");
        assert!(parse_descriptor_set(&set_of(&[&a])).is_ok());
    }

    #[test]
    fn text_and_binary_front_ends_agree() {
        let (schema, back) = round_trip(
            r#"
            syntax = "proto2";
            message Outer {
                message Inner {
                    message Deep { optional bool x = 1; }
                    optional Deep d = 1;
                }
                enum Mode { A = 0; }
                optional Inner i = 1;
                optional Inner.Deep shortcut = 2;
                optional Outer recur = 3;
                optional Mode mode = 4;
                repeated sint64 deltas = 5 [packed = true];
                required string tag = 6;
            }
            message Sibling { optional Outer o = 1; repeated bytes blobs = 2; }
            "#,
        );
        assert_equivalent(&schema, &back);
        assert_eq!(
            back.message_by_name("Outer")
                .unwrap()
                .field_by_name("mode")
                .unwrap()
                .field_type(),
            FieldType::Enum
        );
    }

    #[test]
    fn every_scalar_type_survives_the_binary_round_trip() {
        let mut source = String::from("message AllTypes {\n");
        for (i, kw) in [
            "double", "float", "int32", "int64", "uint32", "uint64", "sint32", "sint64", "fixed32",
            "fixed64", "sfixed32", "sfixed64", "bool", "string", "bytes",
        ]
        .iter()
        .enumerate()
        {
            source.push_str(&format!("  optional {kw} f{i} = {};\n", i + 1));
        }
        source.push('}');
        let (schema, back) = round_trip(&source);
        assert_equivalent(&schema, &back);
    }

    #[test]
    fn encoding_is_deterministic() {
        let schema = parse_proto("message A { optional A a = 1; } message B {}").unwrap();
        assert_eq!(
            encode_descriptor_set(&schema, "x.proto"),
            encode_descriptor_set(&schema, "x.proto")
        );
    }

    #[test]
    fn package_prefixes_are_stripped_like_the_text_parser_ignores_them() {
        // Hand-build a file with package "pb" and a message whose field
        // references ".pb.M" — the qualified form protoc emits.
        let mut field = WireWriter::new();
        field
            .write_length_delimited_field(FIELD_NAME, b"next")
            .unwrap();
        field.write_varint_field(FIELD_NUMBER, 1).unwrap();
        field
            .write_varint_field(FIELD_LABEL, LABEL_OPTIONAL)
            .unwrap();
        field.write_varint_field(FIELD_TYPE, TYPE_MESSAGE).unwrap();
        field
            .write_length_delimited_field(FIELD_TYPE_NAME, b".pb.M")
            .unwrap();
        let mut msg = WireWriter::new();
        msg.write_length_delimited_field(MSG_NAME, b"M").unwrap();
        msg.write_length_delimited_field(MSG_FIELD, field.as_bytes())
            .unwrap();
        let mut file = WireWriter::new();
        file.write_length_delimited_field(FILE_NAME, b"m.proto")
            .unwrap();
        file.write_length_delimited_field(FILE_PACKAGE, b"pb")
            .unwrap();
        file.write_length_delimited_field(FILE_MESSAGE_TYPE, msg.as_bytes())
            .unwrap();
        let mut set = WireWriter::new();
        set.write_length_delimited_field(SET_FILE, file.as_bytes())
            .unwrap();
        let schema = parse_descriptor_set(set.as_bytes()).unwrap();
        let m = schema.message_by_name("M").unwrap();
        assert_eq!(
            m.field_by_name("next").unwrap().field_type(),
            FieldType::Message(schema.id_by_name("M").unwrap())
        );
    }

    #[test]
    fn omitted_type_code_resolves_via_type_name() {
        // protoc may omit `type` when `type_name` is set.
        let mut field = WireWriter::new();
        field
            .write_length_delimited_field(FIELD_NAME, b"sub")
            .unwrap();
        field.write_varint_field(FIELD_NUMBER, 2).unwrap();
        field
            .write_varint_field(FIELD_LABEL, LABEL_REPEATED)
            .unwrap();
        field
            .write_length_delimited_field(FIELD_TYPE_NAME, b".M")
            .unwrap();
        let mut msg = WireWriter::new();
        msg.write_length_delimited_field(MSG_NAME, b"M").unwrap();
        msg.write_length_delimited_field(MSG_FIELD, field.as_bytes())
            .unwrap();
        let mut file = WireWriter::new();
        file.write_length_delimited_field(FILE_MESSAGE_TYPE, msg.as_bytes())
            .unwrap();
        let mut set = WireWriter::new();
        set.write_length_delimited_field(SET_FILE, file.as_bytes())
            .unwrap();
        let schema = parse_descriptor_set(set.as_bytes()).unwrap();
        assert!(schema
            .message_by_name("M")
            .unwrap()
            .field_by_name("sub")
            .unwrap()
            .is_repeated());
    }

    #[test]
    fn truncated_and_malformed_inputs_yield_typed_errors() {
        let schema = parse_proto("message M { optional string s = 1; }").unwrap();
        let bytes = encode_descriptor_set(&schema, "m.proto");
        for cut in 1..bytes.len() {
            match parse_descriptor_set(&bytes[..cut]) {
                Ok(_) | Err(_) => {} // must simply not panic
            }
        }
        // A dangling length-delimited header is a wire error.
        assert!(matches!(
            parse_descriptor_set(&[0x0a, 0xff]),
            Err(SchemaError::Wire { .. })
        ));
    }

    #[test]
    fn nested_type_depth_bomb_is_rejected_not_overflowed() {
        // Build MAX_DESCRIPTOR_NESTING + 8 levels of nested_type by hand.
        let mut inner = WireWriter::new();
        inner.write_length_delimited_field(MSG_NAME, b"N").unwrap();
        let mut payload = inner.into_bytes();
        for _ in 0..MAX_DESCRIPTOR_NESTING + 8 {
            let mut w = WireWriter::new();
            w.write_length_delimited_field(MSG_NAME, b"N").unwrap();
            w.write_length_delimited_field(MSG_NESTED_TYPE, &payload)
                .unwrap();
            payload = w.into_bytes();
        }
        let mut file = WireWriter::new();
        file.write_length_delimited_field(FILE_MESSAGE_TYPE, &payload)
            .unwrap();
        let mut set = WireWriter::new();
        set.write_length_delimited_field(SET_FILE, file.as_bytes())
            .unwrap();
        let err = parse_descriptor_set(set.as_bytes()).unwrap_err();
        assert!(matches!(err, SchemaError::Descriptor { .. }), "{err}");
    }

    #[test]
    fn proto3_sets_are_rejected() {
        let mut file = WireWriter::new();
        file.write_length_delimited_field(FILE_SYNTAX, b"proto3")
            .unwrap();
        let mut set = WireWriter::new();
        set.write_length_delimited_field(SET_FILE, file.as_bytes())
            .unwrap();
        let err = parse_descriptor_set(set.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("proto2"), "{err}");
    }

    #[test]
    fn reserved_and_out_of_range_numbers_are_rejected() {
        for number in [19_000u64, 19_999, u64::from(MAX_FIELD_NUMBER) + 1, 1 << 40] {
            let mut field = WireWriter::new();
            field
                .write_length_delimited_field(FIELD_NAME, b"f")
                .unwrap();
            field.write_varint_field(FIELD_NUMBER, number).unwrap();
            field
                .write_varint_field(FIELD_LABEL, LABEL_OPTIONAL)
                .unwrap();
            field.write_varint_field(FIELD_TYPE, TYPE_BOOL).unwrap();
            let mut msg = WireWriter::new();
            msg.write_length_delimited_field(MSG_NAME, b"M").unwrap();
            msg.write_length_delimited_field(MSG_FIELD, field.as_bytes())
                .unwrap();
            let mut file = WireWriter::new();
            file.write_length_delimited_field(FILE_MESSAGE_TYPE, msg.as_bytes())
                .unwrap();
            let mut set = WireWriter::new();
            set.write_length_delimited_field(SET_FILE, file.as_bytes())
                .unwrap();
            let err = parse_descriptor_set(set.as_bytes()).unwrap_err();
            assert!(
                matches!(
                    err,
                    SchemaError::ReservedFieldNumber { .. }
                        | SchemaError::InvalidFieldNumber { .. }
                ),
                "number {number}: {err}"
            );
        }
    }

    #[test]
    fn group_fields_are_rejected() {
        let mut field = WireWriter::new();
        field
            .write_length_delimited_field(FIELD_NAME, b"g")
            .unwrap();
        field.write_varint_field(FIELD_NUMBER, 1).unwrap();
        field
            .write_varint_field(FIELD_LABEL, LABEL_OPTIONAL)
            .unwrap();
        field.write_varint_field(FIELD_TYPE, TYPE_GROUP).unwrap();
        let mut msg = WireWriter::new();
        msg.write_length_delimited_field(MSG_NAME, b"M").unwrap();
        msg.write_length_delimited_field(MSG_FIELD, field.as_bytes())
            .unwrap();
        let mut file = WireWriter::new();
        file.write_length_delimited_field(FILE_MESSAGE_TYPE, msg.as_bytes())
            .unwrap();
        let mut set = WireWriter::new();
        set.write_length_delimited_field(SET_FILE, file.as_bytes())
            .unwrap();
        assert!(matches!(
            parse_descriptor_set(set.as_bytes()),
            Err(SchemaError::Descriptor { .. })
        ));
    }

    #[test]
    fn unknown_fields_in_descriptors_are_skipped() {
        // Append an unknown field (number 99) to an otherwise valid file.
        let schema = parse_proto("message M { optional bool b = 1; }").unwrap();
        let inner_set = encode_descriptor_set(&schema, "m.proto");
        // Re-decode the file payload, append unknown bytes, re-wrap.
        let mut reader = WireReader::new(&inner_set);
        let key = reader.read_key().unwrap();
        assert_eq!(key.field_number(), SET_FILE);
        let file_bytes = reader.read_length_delimited().unwrap();
        let mut file = WireWriter::new();
        file.write_raw_bytes(file_bytes);
        file.write_varint_field(99, 7).unwrap();
        let mut set = WireWriter::new();
        set.write_length_delimited_field(SET_FILE, file.as_bytes())
            .unwrap();
        let back = parse_descriptor_set(set.as_bytes()).unwrap();
        assert!(back.message_by_name("M").is_some());
    }
}
