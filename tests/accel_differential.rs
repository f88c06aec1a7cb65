//! Differential round trips of one message type that covers every field
//! kind the accelerator handles (Section 4.4's deserializer, Section
//! 4.5's serializer): each message, and each handcrafted wire input, goes
//! through the differential oracle, so the accelerator's object graph must
//! equal the reference decoder's tree and its serialization must be
//! byte-identical to the reference encoder, as must the CPU codec's and
//! the fast path's.
//!
//! The accelerator-only behaviour (the batched pointer buffer, protocol
//! misuse, arena exhaustion, stack spills and offset hasbits) is tested in
//! `crates/core/tests/accel_edges.rs`.

use protoacc_suite::faults::{Oracle, Verdict};
use protoacc_suite::runtime::{reference, FieldPayload, MessageValue, Value};
use protoacc_suite::schema::{FieldType, MessageId, Schema, SchemaBuilder};
use protoacc_suite::wire::WireWriter;

/// `Outer` holds one field of each kind, `Inner` nested singly and
/// repeated; returns the schema with the ids of `Outer` and `Inner`.
fn schema() -> (Schema, MessageId, MessageId) {
    let mut b = SchemaBuilder::new();
    let inner = b.declare("Inner");
    b.message(inner)
        .optional("flag", FieldType::Bool, 1)
        .optional("note", FieldType::String, 2)
        .optional("count", FieldType::UInt64, 3);
    let outer = b.declare("Outer");
    b.message(outer)
        .optional("i32", FieldType::Int32, 1)
        .optional("s64", FieldType::SInt64, 2)
        .optional("dbl", FieldType::Double, 3)
        .optional("flt", FieldType::Float, 4)
        .optional("fx32", FieldType::Fixed32, 5)
        .optional("fx64", FieldType::Fixed64, 6)
        .optional("text", FieldType::String, 7)
        .optional("blob", FieldType::Bytes, 8)
        .optional("sub", FieldType::Message(inner), 9)
        .repeated("ri", FieldType::Int64, 10)
        .packed("pu", FieldType::UInt32, 11)
        .repeated("rstr", FieldType::String, 12)
        .repeated("rsub", FieldType::Message(inner), 13)
        .optional("en", FieldType::Enum, 14)
        .packed("pd", FieldType::Double, 15);
    (b.build().unwrap(), outer, inner)
}

/// An `Outer` with every field set.
fn sample(outer: MessageId, inner: MessageId) -> MessageValue {
    let mut sub = MessageValue::new(inner);
    sub.set(1, Value::Bool(true)).unwrap();
    sub.set(2, Value::Str("nested note".into())).unwrap();
    sub.set(3, Value::UInt64(u64::MAX)).unwrap();
    let mut m = MessageValue::new(outer);
    m.set(1, Value::Int32(-42)).unwrap();
    m.set(2, Value::SInt64(-1 << 40)).unwrap();
    m.set(3, Value::Double(3.25)).unwrap();
    m.set(4, Value::Float(-0.5)).unwrap();
    m.set(5, Value::Fixed32(0xdead_beef)).unwrap();
    m.set(6, Value::Fixed64(0x0123_4567_89ab_cdef)).unwrap();
    m.set(7, Value::Str("a string well beyond the SSO limit".into()))
        .unwrap();
    m.set(8, Value::Bytes((0..=255u8).collect())).unwrap();
    m.set(9, Value::Message(sub.clone())).unwrap();
    m.set_repeated(
        10,
        vec![Value::Int64(0), Value::Int64(-1), Value::Int64(1 << 50)],
    );
    m.set_repeated(
        11,
        vec![Value::UInt32(1), Value::UInt32(300), Value::UInt32(70000)],
    );
    m.set_repeated(
        12,
        vec![
            Value::Str(String::new()),
            Value::Str("short".into()),
            Value::Str("l".repeat(100)),
        ],
    );
    m.set_repeated(
        13,
        vec![
            Value::Message(sub),
            Value::Message(MessageValue::new(inner)),
        ],
    );
    m.set(14, Value::Enum(-3)).unwrap();
    m.set_repeated(15, vec![Value::Double(1.5), Value::Double(-2.5)]);
    m
}

/// Every codec serializes `m` byte-identically to the reference and
/// decodes those bytes back to `m`.
#[track_caller]
fn check_round_trip(oracle: &mut Oracle, m: &MessageValue) {
    let judgement = oracle.judge_value(m);
    assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
}

/// Every decoder accepts `wire`; returns the tree they all agree on.
#[track_caller]
fn accepted_tree(oracle: &mut Oracle, wire: &[u8]) -> MessageValue {
    let judgement = oracle.judge(wire);
    assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
    judgement.tree.expect("the reference decodes")
}

#[test]
fn full_message_round_trips() {
    let (schema, outer, inner) = schema();
    check_round_trip(&mut Oracle::new(&schema, outer), &sample(outer, inner));
}

#[test]
fn empty_message_round_trips() {
    let (schema, outer, _) = schema();
    check_round_trip(&mut Oracle::new(&schema, outer), &MessageValue::new(outer));
}

#[test]
fn single_field_variants_round_trip() {
    let (schema, outer, _) = schema();
    let mut oracle = Oracle::new(&schema, outer);
    let cases: Vec<(u32, Value)> = vec![
        (1, Value::Int32(i32::MIN)),
        (1, Value::Int32(0)),
        (2, Value::SInt64(i64::MIN)),
        (3, Value::Double(f64::NAN)),
        (4, Value::Float(f32::INFINITY)),
        (5, Value::Fixed32(0)),
        (6, Value::Fixed64(u64::MAX)),
        (7, Value::Str(String::new())),
        (7, Value::Str("x".repeat(15))), // SSO boundary
        (7, Value::Str("x".repeat(16))),
        (8, Value::Bytes(vec![0u8; 10_000])),
        (14, Value::Enum(i32::MAX)),
    ];
    for (number, value) in cases {
        let mut m = MessageValue::new(outer);
        m.set(number, value).unwrap();
        check_round_trip(&mut oracle, &m);
    }
}

#[test]
fn truncated_input_is_rejected() {
    let (schema, outer, inner) = schema();
    let wire = reference::encode(&sample(outer, inner), &schema).unwrap();
    let mut oracle = Oracle::new(&schema, outer);
    for cut in [1usize, wire.len() / 3, wire.len() - 1] {
        let judgement = oracle.judge(&wire[..cut]);
        assert!(
            matches!(judgement.verdict(), Some(Verdict::Reject(_))),
            "cut at {cut} must fail everywhere: {judgement:?}"
        );
    }
}

#[test]
fn interleaved_repeated_elements_accumulate_correctly() {
    // Proto2 permits elements of an unpacked repeated field to interleave
    // with other fields on the wire; the open-allocation-region logic
    // (Section 4.4.8) must still gather them all.
    let (schema, outer, _) = schema();
    let mut w = WireWriter::new();
    w.write_varint_field(10, 1).unwrap(); // ri element 1 (field 10: repeated int64)
    w.write_varint_field(1, 7).unwrap(); // unrelated scalar
    w.write_varint_field(10, 2).unwrap(); // ri element 2
    w.write_length_delimited_field(12, b"x").unwrap(); // rstr element
    w.write_varint_field(10, 3).unwrap(); // ri element 3
    let back = accepted_tree(&mut Oracle::new(&schema, outer), &w.into_bytes());
    match back.get(10) {
        Some(FieldPayload::Repeated(vs)) => {
            assert_eq!(
                vs,
                &[Value::Int64(1), Value::Int64(2), Value::Int64(3)],
                "element order preserved across interleaving"
            );
        }
        other => panic!("expected repeated payload, got {other:?}"),
    }
    assert_eq!(back.get_single(1), Some(&Value::Int32(7)));
}

#[test]
fn mixed_packed_and_unpacked_arrivals_combine() {
    // A packed body followed by unpacked elements of the same field.
    let (schema, outer, _) = schema();
    let mut body = WireWriter::new();
    body.write_raw_varint(10);
    body.write_raw_varint(20);
    let mut w = WireWriter::new();
    w.write_length_delimited_field(11, body.as_bytes()).unwrap(); // packed pu
    w.write_varint_field(11, 30).unwrap(); // unpacked arrival, same field
    let back = accepted_tree(&mut Oracle::new(&schema, outer), &w.into_bytes());
    match back.get(11) {
        Some(FieldPayload::Repeated(vs)) => {
            assert_eq!(
                vs,
                &[Value::UInt32(10), Value::UInt32(20), Value::UInt32(30)]
            );
        }
        other => panic!("expected repeated payload, got {other:?}"),
    }
}

#[test]
fn unknown_fields_are_skipped_by_the_deserializer() {
    // Hand-craft input with an out-of-range field and a gap field.
    let (schema, outer, _) = schema();
    let mut w = WireWriter::new();
    w.write_varint_field(1, 7).unwrap();
    w.write_varint_field(999, 5).unwrap(); // out of ADT range
    w.write_length_delimited_field(7, b"kept").unwrap();
    let back = accepted_tree(&mut Oracle::new(&schema, outer), &w.into_bytes());
    assert_eq!(back.get_single(1), Some(&Value::Int32(7)));
    assert_eq!(back.get_single(7), Some(&Value::Str("kept".into())));
    assert_eq!(back.present_fields(), 2);
}
