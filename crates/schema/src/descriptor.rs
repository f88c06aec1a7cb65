//! Message and field descriptors.

use std::collections::HashMap;

use crate::{FieldType, SchemaError};
use protoacc_wire::{is_reserved_field_number, MAX_FIELD_NUMBER};

/// Index of a message type within its [`Schema`].
///
/// A lightweight handle used wherever a field references a sub-message type
/// (the schema analog of the ADT pointer in Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(usize);

impl MessageId {
    /// Creates an id from a raw schema slot index.
    pub fn new(index: usize) -> Self {
        MessageId(index)
    }

    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Proto2 field qualifier: `optional`, `required`, or `repeated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Field may be absent.
    Optional,
    /// Field must be present (proto2 only; checked by the reference codec).
    Required,
    /// Field is a vector of values.
    Repeated,
}

/// A single field definition inside a message type.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDescriptor {
    name: String,
    number: u32,
    field_type: FieldType,
    label: Label,
    packed: bool,
}

impl FieldDescriptor {
    /// Creates a field descriptor, validating number range and packability.
    ///
    /// # Errors
    ///
    /// * [`SchemaError::InvalidFieldNumber`] for number 0 or above 2^29-1.
    /// * [`SchemaError::ReservedFieldNumber`] for numbers in the
    ///   implementation-reserved 19000–19999 range.
    /// * [`SchemaError::InvalidPacked`] if `packed` is set on a non-repeated
    ///   field or an unpackable type.
    pub fn new(
        name: impl Into<String>,
        number: u32,
        field_type: FieldType,
        label: Label,
        packed: bool,
    ) -> Result<Self, SchemaError> {
        let name = name.into();
        if number == 0 || number > MAX_FIELD_NUMBER {
            return Err(SchemaError::InvalidFieldNumber { number });
        }
        if is_reserved_field_number(number) {
            return Err(SchemaError::ReservedFieldNumber { number });
        }
        if packed && (label != Label::Repeated || !field_type.is_packable()) {
            return Err(SchemaError::InvalidPacked { field: name });
        }
        Ok(FieldDescriptor {
            name,
            number,
            field_type,
            label,
            packed,
        })
    }

    /// Field name as written in the schema.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field number (stable across renames; the wire identity of the field).
    pub fn number(&self) -> u32 {
        self.number
    }

    /// The field's type.
    pub fn field_type(&self) -> FieldType {
        self.field_type
    }

    /// The proto2 qualifier.
    pub fn label(&self) -> Label {
        self.label
    }

    /// Whether a repeated field uses the packed encoding.
    pub fn is_packed(&self) -> bool {
        self.packed
    }

    /// Whether the field is repeated.
    pub fn is_repeated(&self) -> bool {
        self.label == Label::Repeated
    }
}

/// A message type: an ordered collection of fields (Section 2.1.1).
#[derive(Debug, Clone, PartialEq)]
pub struct MessageDescriptor {
    name: String,
    /// Fields sorted by ascending field number.
    fields: Vec<FieldDescriptor>,
    /// Field-number → slot in `fields`.
    by_number: HashMap<u32, usize>,
}

impl MessageDescriptor {
    /// Creates a message descriptor; fields are sorted by field number.
    ///
    /// # Errors
    ///
    /// [`SchemaError::DuplicateFieldNumber`] if two fields collide.
    pub fn new(
        name: impl Into<String>,
        mut fields: Vec<FieldDescriptor>,
    ) -> Result<Self, SchemaError> {
        let name = name.into();
        fields.sort_by_key(|f| f.number);
        let mut by_number = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if by_number.insert(f.number, i).is_some() {
                return Err(SchemaError::DuplicateFieldNumber {
                    message: name,
                    number: f.number,
                });
            }
        }
        Ok(MessageDescriptor {
            name,
            fields,
            by_number,
        })
    }

    /// Fully-qualified message name (nested types use `Outer.Inner`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields, sorted by ascending field number.
    pub fn fields(&self) -> &[FieldDescriptor] {
        &self.fields
    }

    /// Looks up a field by its number.
    pub fn field_by_number(&self, number: u32) -> Option<&FieldDescriptor> {
        self.by_number.get(&number).map(|&i| &self.fields[i])
    }

    /// Looks up a field by name.
    pub fn field_by_name(&self, name: &str) -> Option<&FieldDescriptor> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Smallest defined field number, or `None` for an empty message.
    ///
    /// Supplied to the accelerator so the sparse hasbits array can be offset
    /// against it (Section 4.2).
    pub fn min_field_number(&self) -> Option<u32> {
        self.fields.first().map(|f| f.number)
    }

    /// Largest defined field number, or `None` for an empty message.
    pub fn max_field_number(&self) -> Option<u32> {
        self.fields.last().map(|f| f.number)
    }

    /// The span of defined field numbers (`max - min + 1`), i.e. the number
    /// of slots the sparse hasbits array and the ADT entry region need.
    ///
    /// Computed in `u64` so the extreme single-field-at-2^29-1 and
    /// full-range (1..=2^29-1) cases cannot overflow even on 32-bit
    /// `usize` targets.
    pub fn field_number_span(&self) -> usize {
        match (self.min_field_number(), self.max_field_number()) {
            (Some(min), Some(max)) => (u64::from(max) - u64::from(min) + 1) as usize,
            _ => 0,
        }
    }
}

/// A set of message types closed under sub-message references.
///
/// The schema is the static information the paper's `protodb` source exposes
/// (Section 3.1.3): every message type, its proto version, packing, and field
/// number ranges.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    messages: Vec<MessageDescriptor>,
    by_name: HashMap<String, MessageId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Adds a message type, returning its id.
    ///
    /// # Errors
    ///
    /// [`SchemaError::DuplicateMessageName`] if the name is taken.
    pub fn add_message(&mut self, message: MessageDescriptor) -> Result<MessageId, SchemaError> {
        if self.by_name.contains_key(message.name()) {
            return Err(SchemaError::DuplicateMessageName {
                name: message.name().to_owned(),
            });
        }
        let id = MessageId(self.messages.len());
        self.by_name.insert(message.name().to_owned(), id);
        self.messages.push(message);
        Ok(id)
    }

    /// Number of message types.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the schema contains no message types.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Looks up a message by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this schema.
    pub fn message(&self, id: MessageId) -> &MessageDescriptor {
        &self.messages[id.0]
    }

    /// Looks up a message by fully-qualified name.
    pub fn message_by_name(&self, name: &str) -> Option<&MessageDescriptor> {
        self.id_by_name(name).map(|id| self.message(id))
    }

    /// Looks up a message id by fully-qualified name.
    pub fn id_by_name(&self, name: &str) -> Option<MessageId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over `(id, descriptor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, &MessageDescriptor)> {
        self.messages
            .iter()
            .enumerate()
            .map(|(i, m)| (MessageId(i), m))
    }

    /// Validates that every `Message` field reference points into this
    /// schema.
    ///
    /// # Errors
    ///
    /// [`SchemaError::UnknownMessageType`] naming the referring field if a
    /// dangling id is found.
    pub fn validate(&self) -> Result<(), SchemaError> {
        for m in &self.messages {
            for f in m.fields() {
                if let FieldType::Message(id) = f.field_type() {
                    if id.0 >= self.messages.len() {
                        return Err(SchemaError::UnknownMessageType {
                            name: format!("{}.{}", m.name(), f.name()),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Maximum sub-message nesting depth reachable from `root`, counting the
    /// root as depth 1. Recursive schemas return `usize::MAX` conceptually;
    /// we cap the walk at `limit` and return `None` if it is exceeded.
    ///
    /// Used to size the accelerator's metadata stacks (Section 3.8).
    pub fn nesting_depth(&self, root: MessageId, limit: usize) -> Option<usize> {
        fn walk(
            schema: &Schema,
            id: MessageId,
            depth: usize,
            limit: usize,
            stack: &mut Vec<MessageId>,
        ) -> Option<usize> {
            if depth > limit || stack.contains(&id) {
                return None;
            }
            stack.push(id);
            let mut max = depth;
            for f in schema.message(id).fields() {
                if let FieldType::Message(sub) = f.field_type() {
                    max = max.max(walk(schema, sub, depth + 1, limit, stack)?);
                }
            }
            stack.pop();
            Some(max)
        }
        walk(self, root, 1, limit, &mut Vec::new())
    }

    /// Every message type reachable from `root` through message-typed
    /// fields, in breadth-first discovery order, starting with `root`
    /// itself. Recursive references are visited once, so this terminates on
    /// cyclic schemas.
    ///
    /// This is the walk static analyses use: the set of types the
    /// accelerator can touch while processing one `root` message, and hence
    /// the set of descriptor tables its ADT cache must hold.
    pub fn reachable(&self, root: MessageId) -> Vec<MessageId> {
        let mut seen = vec![false; self.messages.len()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen[root.0] = true;
        queue.push_back(root);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for f in self.message(id).fields() {
                if let FieldType::Message(sub) = f.field_type() {
                    if !seen[sub.0] {
                        seen[sub.0] = true;
                        queue.push_back(sub);
                    }
                }
            }
        }
        order
    }

    /// Iterates over every field of every message type reachable from
    /// `root` (including the root's own fields), yielding the owning type's
    /// id and descriptor alongside each field.
    pub fn walk_fields(
        &self,
        root: MessageId,
    ) -> impl Iterator<Item = (MessageId, &MessageDescriptor, &FieldDescriptor)> {
        self.reachable(root).into_iter().flat_map(move |id| {
            let m = self.message(id);
            m.fields().iter().map(move |f| (id, m, f))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(name: &str, number: u32, ft: FieldType) -> FieldDescriptor {
        FieldDescriptor::new(name, number, ft, Label::Optional, false).unwrap()
    }

    #[test]
    fn fields_are_sorted_and_indexed_by_number() {
        let m = MessageDescriptor::new(
            "M",
            vec![
                field("c", 30, FieldType::Int32),
                field("a", 1, FieldType::Bool),
                field("b", 7, FieldType::String),
            ],
        )
        .unwrap();
        let numbers: Vec<u32> = m
            .fields()
            .iter()
            .map(super::FieldDescriptor::number)
            .collect();
        assert_eq!(numbers, [1, 7, 30]);
        assert_eq!(m.field_by_number(7).unwrap().name(), "b");
        assert_eq!(m.field_by_name("c").unwrap().number(), 30);
        assert_eq!(m.min_field_number(), Some(1));
        assert_eq!(m.max_field_number(), Some(30));
        assert_eq!(m.field_number_span(), 30);
    }

    #[test]
    fn duplicate_field_numbers_rejected() {
        let err = MessageDescriptor::new(
            "M",
            vec![
                field("a", 1, FieldType::Bool),
                field("b", 1, FieldType::Bool),
            ],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SchemaError::DuplicateFieldNumber { number: 1, .. }
        ));
    }

    #[test]
    fn field_number_validation() {
        assert!(matches!(
            FieldDescriptor::new("f", 0, FieldType::Bool, Label::Optional, false),
            Err(SchemaError::InvalidFieldNumber { number: 0 })
        ));
        assert!(FieldDescriptor::new(
            "f",
            MAX_FIELD_NUMBER,
            FieldType::Bool,
            Label::Optional,
            false
        )
        .is_ok());
        assert!(FieldDescriptor::new(
            "f",
            MAX_FIELD_NUMBER + 1,
            FieldType::Bool,
            Label::Optional,
            false
        )
        .is_err());
    }

    #[test]
    fn reserved_range_boundaries_are_exact() {
        let mk = |n| FieldDescriptor::new("f", n, FieldType::Bool, Label::Optional, false);
        assert!(mk(18_999).is_ok());
        assert!(matches!(
            mk(19_000),
            Err(SchemaError::ReservedFieldNumber { number: 19_000 })
        ));
        assert!(matches!(
            mk(19_999),
            Err(SchemaError::ReservedFieldNumber { number: 19_999 })
        ));
        assert!(mk(20_000).is_ok());
    }

    #[test]
    fn span_and_extrema_at_the_field_number_ceiling() {
        // A single field at the 2^29-1 maximum: span is 1, not the number.
        let m = MessageDescriptor::new("M", vec![field("top", MAX_FIELD_NUMBER, FieldType::Bool)])
            .unwrap();
        assert_eq!(m.min_field_number(), Some(MAX_FIELD_NUMBER));
        assert_eq!(m.max_field_number(), Some(MAX_FIELD_NUMBER));
        assert_eq!(m.field_number_span(), 1);

        // The widest legal message: field 1 and field 2^29-1 together span
        // the entire number space without overflowing.
        let m = MessageDescriptor::new(
            "W",
            vec![
                field("lo", 1, FieldType::Bool),
                field("hi", MAX_FIELD_NUMBER, FieldType::Bool),
            ],
        )
        .unwrap();
        assert_eq!(m.field_number_span(), MAX_FIELD_NUMBER as usize);
    }

    #[test]
    fn packed_requires_repeated_packable() {
        assert!(FieldDescriptor::new("f", 1, FieldType::Int32, Label::Repeated, true).is_ok());
        assert!(matches!(
            FieldDescriptor::new("f", 1, FieldType::Int32, Label::Optional, true),
            Err(SchemaError::InvalidPacked { .. })
        ));
        assert!(matches!(
            FieldDescriptor::new("f", 1, FieldType::String, Label::Repeated, true),
            Err(SchemaError::InvalidPacked { .. })
        ));
    }

    #[test]
    fn schema_name_lookup_and_duplicates() {
        let mut s = Schema::new();
        let m = MessageDescriptor::new("A", vec![field("x", 1, FieldType::Bool)]).unwrap();
        let id = s.add_message(m.clone()).unwrap();
        assert_eq!(s.id_by_name("A"), Some(id));
        assert_eq!(s.message(id).name(), "A");
        assert!(matches!(
            s.add_message(m),
            Err(SchemaError::DuplicateMessageName { .. })
        ));
    }

    #[test]
    fn validate_catches_dangling_references() {
        let mut s = Schema::new();
        let m = MessageDescriptor::new(
            "A",
            vec![field("sub", 1, FieldType::Message(MessageId::new(9)))],
        )
        .unwrap();
        s.add_message(m).unwrap();
        assert!(matches!(
            s.validate(),
            Err(SchemaError::UnknownMessageType { .. })
        ));
    }

    #[test]
    fn nesting_depth_linear_chain() {
        let mut s = Schema::new();
        // C (leaf), B contains C, A contains B.
        let c = s
            .add_message(MessageDescriptor::new("C", vec![field("x", 1, FieldType::Bool)]).unwrap())
            .unwrap();
        let b = s
            .add_message(
                MessageDescriptor::new("B", vec![field("c", 1, FieldType::Message(c))]).unwrap(),
            )
            .unwrap();
        let a = s
            .add_message(
                MessageDescriptor::new("A", vec![field("b", 1, FieldType::Message(b))]).unwrap(),
            )
            .unwrap();
        assert_eq!(s.nesting_depth(a, 100), Some(3));
        assert_eq!(s.nesting_depth(c, 100), Some(1));
    }

    #[test]
    fn nesting_depth_detects_recursion() {
        // Paper Figure 1 shows recursive types; depth is unbounded for them.
        let mut s = Schema::new();
        let id = s
            .add_message(
                MessageDescriptor::new(
                    "R",
                    vec![field("next", 1, FieldType::Message(MessageId::new(0)))],
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(s.nesting_depth(id, 100), None);
    }

    #[test]
    fn empty_message_span_is_zero() {
        let m = MessageDescriptor::new("E", vec![]).unwrap();
        assert_eq!(m.field_number_span(), 0);
        assert_eq!(m.min_field_number(), None);
    }

    #[test]
    fn reachable_walks_breadth_first_and_terminates_on_cycles() {
        let mut s = Schema::new();
        let c = s
            .add_message(MessageDescriptor::new("C", vec![field("x", 1, FieldType::Bool)]).unwrap())
            .unwrap();
        let b = s
            .add_message(
                MessageDescriptor::new(
                    "B",
                    vec![
                        field("c", 1, FieldType::Message(c)),
                        // Back-edge to itself: recursion must not loop.
                        field("again", 2, FieldType::Message(MessageId::new(1))),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let a = s
            .add_message(
                MessageDescriptor::new("A", vec![field("b", 1, FieldType::Message(b))]).unwrap(),
            )
            .unwrap();
        assert_eq!(s.reachable(a), vec![a, b, c]);
        assert_eq!(s.reachable(c), vec![c]);
        let fields: Vec<(&str, &str)> = s
            .walk_fields(a)
            .map(|(_, m, f)| (m.name(), f.name()))
            .collect();
        assert_eq!(
            fields,
            vec![("A", "b"), ("B", "c"), ("B", "again"), ("C", "x")]
        );
    }
}
