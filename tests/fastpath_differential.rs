//! Fast-path codec differential suite, judged by the differential oracle
//! (`protoacc_faults::Oracle`) over every HyperProtoBench suite, every
//! `protos/` schema through both ingestion paths (`.proto` text and
//! `.binpb` descriptor sets), truncation at every offset and handcrafted
//! wire edge cases (`corruption_differential` holds the ≥10k seeded
//! mutation sweeps).
//!
//! The contract: the fast path is allowed to be *faster* than the other
//! engines, never observably different. Its decodes must give the
//! accelerator's and `crates/cpu`'s verdict (the same `DecodeFault` class
//! on rejects) and the reference decoder's tree on accepts, and its
//! re-encodes must be byte-identical to theirs and to the reference
//! encoder's.

mod common;

use common::{load, load_binpb, root_of};
use protoacc_suite::accel::DecodeFault;
use protoacc_suite::fastpath::{swar, DecodeArena, FastCodec, TableKind};
use protoacc_suite::faults::{depth_bomb, Oracle, Verdict};
use protoacc_suite::hyperbench::{generate_suite, populate::populate_messages, ServiceProfile};
use protoacc_suite::runtime::{reference, FieldPayload, MessageValue, Value};
use protoacc_suite::schema::{parse_proto, MessageId, Schema};
use protoacc_suite::wire::varint;

/// Every codec encodes `message` byte-identically to the reference and
/// decodes those bytes back to `message`.
#[track_caller]
fn check_message(label: &str, oracle: &mut Oracle, message: &MessageValue) {
    let judgement = oracle.judge_value(message);
    assert_eq!(
        judgement.verdict(),
        Some(Verdict::Accept),
        "{label}: {judgement:?}"
    );
}

/// Truncates `wire` at each of `cuts` and requires the codecs to agree at
/// each cut, and all to accept `wire` whole.
fn check_truncations(
    label: &str,
    oracle: &mut Oracle,
    wire: &[u8],
    cuts: impl Iterator<Item = usize>,
) {
    for cut in cuts {
        let judgement = oracle.judge(&wire[..cut]);
        assert!(
            judgement.verdict().is_some(),
            "{label} truncated at byte {cut}/{}: {judgement:?}",
            wire.len()
        );
    }
    let judgement = oracle.judge(wire);
    assert_eq!(
        judgement.verdict(),
        Some(Verdict::Accept),
        "{label}: untruncated wire must decode everywhere ({judgement:?})"
    );
}

#[test]
fn hyperbench_suites_are_byte_and_value_identical() {
    for bench in generate_suite(8, 0xC0DE) {
        let mut oracle = Oracle::new(&bench.schema, bench.type_id);
        for (mi, message) in bench.messages.iter().enumerate() {
            check_message(
                &format!("{}/m{mi}", bench.profile.name),
                &mut oracle,
                message,
            );
        }
    }
}

/// Truncates every message of `generate_suite(2, 0xC0DE)` at every offset,
/// strided to at most 1,024 cuts per message; `half` 0 takes the even cuts
/// and 1 the odd ones, so the two halves run in parallel.
fn check_hyperbench_truncations(half: usize) {
    for bench in generate_suite(2, 0xC0DE) {
        let mut oracle = Oracle::new(&bench.schema, bench.type_id);
        for (mi, message) in bench.messages.iter().enumerate() {
            let wire = reference::encode(message, &bench.schema).unwrap();
            let stride = (wire.len() / 1024).max(1);
            let cuts = (0..wire.len()).step_by(stride).skip(half).step_by(2);
            let label = format!("{}/m{mi}", bench.profile.name);
            check_truncations(&label, &mut oracle, &wire, cuts);
        }
    }
}

#[test]
fn hyperbench_truncation_verdicts_match_the_cpu_oracle() {
    check_hyperbench_truncations(0);
}

#[test]
fn hyperbench_truncation_verdicts_match_the_cpu_oracle_odd_cuts() {
    check_hyperbench_truncations(1);
}

/// Text-ingested `.proto` corpus: deterministic handcrafted messages through
/// encode/decode identity plus exhaustive (unstrided) truncation.
#[test]
fn proto_text_corpus_round_trips_and_truncates_cleanly() {
    for (file, message) in corpus_messages() {
        let schema = load(file);
        let mut oracle = Oracle::new(&schema, message.type_id());
        check_message(file, &mut oracle, &message);
        let wire = reference::encode(&message, &schema).unwrap();
        check_truncations(file, &mut oracle, &wire, 0..wire.len());
    }
}

/// Binary-descriptor-ingested corpus (`protos/chain/*.binpb`): seeded
/// populations through the same identity and truncation gates.
#[test]
fn binpb_corpus_round_trips_and_truncates_cleanly() {
    for stem in ["consensus", "gossip", "state_sync", "transaction"] {
        let schema = load_binpb(stem);
        let root = root_of(&schema);
        let shape = ServiceProfile::bench(4).shape;
        let messages = populate_messages(&schema, root, &shape, 0xB1A9 + stem.len() as u64, 6);
        assert!(!messages.is_empty(), "{stem}: population is empty");
        let mut oracle = Oracle::new(&schema, root);
        for (mi, message) in messages.iter().enumerate() {
            check_message(&format!("chain/{stem}/m{mi}"), &mut oracle, message);
            let wire = reference::encode(message, &schema).unwrap();
            check_truncations(
                &format!("chain/{stem}/m{mi}"),
                &mut oracle,
                &wire,
                0..wire.len(),
            );
        }
    }
}

/// Depth bomb through every decoder: typed `DepthExceeded` everywhere,
/// bounded work, no stack exhaustion.
#[test]
fn depth_bomb_is_rejected_with_depth_exceeded_on_both_sides() {
    let schema = load("storage_row.proto");
    let row_id = schema.id_by_name("Row").unwrap();
    let mut oracle = Oracle::new(&schema, row_id);
    check_rejects_as(
        &mut oracle,
        &depth_bomb(15, 300),
        DecodeFault::DepthExceeded,
    );
    let shallow = oracle.judge(&depth_bomb(15, 10));
    assert_eq!(shallow.verdict(), Some(Verdict::Accept), "{shallow:?}");
}

/// Minimized regression (divergence sweep): a packed element whose varint
/// runs into the byte after the declared packed body must be `Truncated` on
/// every engine — never completed from the next field's bytes.
#[test]
fn packed_body_clamp_verdicts_agree() {
    let schema =
        parse_proto("message P { repeated sint32 v = 7 [packed = true]; optional int32 a = 1; }")
            .unwrap();
    let mut oracle = Oracle::new(&schema, schema.id_by_name("P").unwrap());
    // key(7, LD)=0x3a, body len 1, element byte 0x96 (continuation bit set),
    // then a valid `a = 5` field the clamped element must NOT consume.
    check_rejects_as(
        &mut oracle,
        &[0x3a, 0x01, 0x96, 0x08, 0x05],
        DecodeFault::Truncated,
    );
    // And the well-formed variant accepts everywhere.
    let ok = oracle.judge(&[0x3a, 0x02, 0x96, 0x01, 0x08, 0x05]);
    assert_eq!(ok.verdict(), Some(Verdict::Accept), "{ok:?}");
}

/// Minimized regression (divergence sweep): overlong-but-terminated varint
/// field payloads (redundant continuation bytes, 10-byte encodings of small
/// values) must decode to the same value on every engine.
#[test]
fn overlong_varint_payloads_agree() {
    let schema = parse_proto("message O { optional uint64 v = 1; optional int32 w = 2; }").unwrap();
    let type_id = schema.id_by_name("O").unwrap();
    // v = 5 encoded in exactly 10 bytes, then w = -1 sign-extended (always
    // 10 bytes on the wire).
    let mut wire = vec![
        0x08, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
    ];
    wire.extend_from_slice(&[0x10]);
    wire.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
    let mut expected = MessageValue::new(type_id);
    expected.set_unchecked(1, Value::UInt64(5));
    expected.set_unchecked(2, Value::Int32(-1));
    check_accepts_as(
        &mut Oracle::new(&schema, type_id),
        &schema,
        &wire,
        &expected,
    );
}

/// Minimized regression (divergence sweep): zigzag sign-extension extremes
/// stay byte- and value-identical across every engine at i32/i64 bounds.
#[test]
fn zigzag_extremes_are_byte_identical() {
    let schema = parse_proto(
        "message Z { optional sint32 a = 1; optional sint64 b = 2; \
         repeated sint32 pa = 3 [packed = true]; repeated sint64 pb = 4 [packed = true]; }",
    )
    .unwrap();
    let type_id = schema.id_by_name("Z").unwrap();
    let mut m = MessageValue::new(type_id);
    m.set_unchecked(1, Value::SInt32(i32::MIN));
    m.set_unchecked(2, Value::SInt64(i64::MIN));
    m.set_repeated(
        3,
        vec![
            Value::SInt32(i32::MIN),
            Value::SInt32(i32::MAX),
            Value::SInt32(-1),
            Value::SInt32(0),
        ],
    );
    m.set_repeated(
        4,
        vec![
            Value::SInt64(i64::MIN),
            Value::SInt64(i64::MAX),
            Value::SInt64(-1),
        ],
    );
    check_message("zigzag extremes", &mut Oracle::new(&schema, type_id), &m);
}

/// The SWAR decoder reached through the facade agrees with the scalar
/// decoder on a quick spot check (the exhaustive sweep lives in
/// `tests/varint_boundary.rs`).
#[test]
fn facade_exports_the_swar_decoder() {
    let buf = [0x96, 0x01, 0xde];
    assert_eq!(swar::decode(&buf).unwrap(), (150, 2));
    assert_eq!(swar::decode(&buf), varint::decode(&buf));
}

/// Deterministic handcrafted messages for each text `.proto` schema
/// (compact versions of the `proto_corpus` builders).
fn corpus_messages() -> Vec<(&'static str, MessageValue)> {
    let mut out = Vec::new();

    let schema = load("addressbook.proto");
    let phone_id = schema.id_by_name("Person.PhoneNumber").unwrap();
    let person_id = schema.id_by_name("Person").unwrap();
    let book_id = schema.id_by_name("AddressBook").unwrap();
    let mut phone = MessageValue::new(phone_id);
    phone.set_unchecked(1, Value::Str("+1-555-0001".into()));
    phone.set_unchecked(2, Value::Enum(1));
    let mut person = MessageValue::new(person_id);
    person.set_unchecked(1, Value::Str("Ada Lovelace".into()));
    person.set_unchecked(2, Value::Int32(-7));
    person.set_repeated(4, vec![Value::Message(phone)]);
    let mut book = MessageValue::new(book_id);
    book.set_repeated(1, vec![Value::Message(person)]);
    out.push(("addressbook.proto", book));

    let schema = load("telemetry.proto");
    let point_id = schema.id_by_name("Point").unwrap();
    let series_id = schema.id_by_name("TimeSeries").unwrap();
    let batch_id = schema.id_by_name("ScrapeBatch").unwrap();
    let points = (0..5)
        .map(|i| {
            let mut p = MessageValue::new(point_id);
            p.set_unchecked(1, Value::Fixed64(1_000_000 + i));
            p.set_unchecked(2, Value::Double(i as f64 * 1.5));
            p.set_unchecked(4, Value::SInt64(-(i as i64)));
            Value::Message(p)
        })
        .collect();
    let mut series = MessageValue::new(series_id);
    series.set_unchecked(1, Value::Str("cpu.utilization".into()));
    series.set_repeated(3, points);
    series.set_repeated(12, vec![Value::Double(0.5), Value::Double(0.99)]);
    series.set_repeated(13, (0..4).map(Value::Int64).collect());
    series.set_unchecked(120, Value::Bool(true));
    let mut batch = MessageValue::new(batch_id);
    batch.set_unchecked(1, Value::Fixed64(999));
    batch.set_repeated(2, vec![Value::Message(series)]);
    batch.set_unchecked(4, Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]));
    out.push(("telemetry.proto", batch));

    let schema = load("storage_row.proto");
    let cell_id = schema.id_by_name("Cell").unwrap();
    let family_id = schema.id_by_name("ColumnFamily").unwrap();
    let row_id = schema.id_by_name("Row").unwrap();
    let tablet_id = schema.id_by_name("Tablet").unwrap();
    let mut cell = MessageValue::new(cell_id);
    cell.set_unchecked(1, Value::Bytes(vec![0x5a; 96]));
    cell.set_unchecked(2, Value::UInt64(1001));
    let mut family = MessageValue::new(family_id);
    family.set_unchecked(1, Value::Str("cf".into()));
    family.set_repeated(2, vec![Value::Message(cell)]);
    let mut shadow = MessageValue::new(row_id);
    shadow.set_unchecked(1, Value::Bytes(b"shadow".to_vec()));
    let mut row = MessageValue::new(row_id);
    row.set_unchecked(1, Value::Bytes(b"row-0".to_vec()));
    row.set_repeated(2, vec![Value::Message(family)]);
    row.set_unchecked(15, Value::Message(shadow));
    let mut tablet = MessageValue::new(tablet_id);
    tablet.set_unchecked(1, Value::Str("metrics_table".into()));
    tablet.set_repeated(2, vec![Value::Message(row)]);
    tablet.set_unchecked(4, Value::Fixed64(77));
    out.push(("storage_row.proto", tablet));

    out
}

// ---------------------------------------------------------------------------
// Run prediction, bulk fixed-width arrays and reused decode scratch.
// ---------------------------------------------------------------------------

/// Schema for the run-loop and bulk-path edges: unpacked repeated scalars
/// (which may also arrive packed), repeated strings, a singular scalar,
/// packed fixed-width arrays, an unpacked fixed64 array, repeated
/// sub-messages that carry their own repeated run, and runs under 2-byte
/// keys (fields 16 and up).
const RUNS_PROTO: &str = "
message Inner { repeated uint32 x = 1; optional string t = 2; }
message R {
  repeated int32 a = 1;
  repeated string b = 2;
  optional int64 s = 3;
  repeated fixed32 f = 4 [packed = true];
  repeated double d = 5 [packed = true];
  repeated sfixed64 g = 6;
  repeated Inner m = 7;
  repeated sint32 wa = 16;
  repeated bytes wb = 17;
  repeated fixed32 wf = 18;
  repeated sfixed64 wg = 19;
}";

fn runs_schema() -> (Schema, MessageId) {
    let schema = parse_proto(RUNS_PROTO).expect("runs schema parses");
    let root = schema.id_by_name("R").unwrap();
    (schema, root)
}

/// Wire-building helpers: a key, a varint, a length-delimited field.
fn put_key(out: &mut Vec<u8>, number: u32, wire_type: u64) {
    varint::encode(u64::from(number) << 3 | wire_type, out);
}

fn put_varint_field(out: &mut Vec<u8>, number: u32, value: u64) {
    put_key(out, number, 0);
    varint::encode(value, out);
}

fn put_ld_field(out: &mut Vec<u8>, number: u32, body: &[u8]) {
    put_key(out, number, 2);
    varint::encode(body.len() as u64, out);
    out.extend_from_slice(body);
}

/// Every engine accepts `wire` with the tree `expected`, and every
/// re-encode is the reference encoding of that tree.
#[track_caller]
fn check_accepts_as(oracle: &mut Oracle, schema: &Schema, wire: &[u8], expected: &MessageValue) {
    let judgement = oracle.judge(wire);
    assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
    let tree = judgement.tree.expect("the reference decodes");
    assert!(
        tree.bits_eq(expected),
        "tree differs from expected: {tree:?}"
    );
    assert_eq!(
        judgement.encoded.unwrap(),
        reference::encode(expected, schema).unwrap(),
        "re-serialization differs"
    );
}

/// Every decoder rejects `wire` with `fault`.
#[track_caller]
fn check_rejects_as(oracle: &mut Oracle, wire: &[u8], fault: DecodeFault) {
    let judgement = oracle.judge(wire);
    assert_eq!(
        judgement.verdict(),
        Some(Verdict::Reject(fault)),
        "{judgement:?}"
    );
}

fn inner(schema: &Schema, xs: &[u32], t: Option<&str>) -> Value {
    let mut m = MessageValue::new(schema.id_by_name("Inner").unwrap());
    if !xs.is_empty() {
        m.set_repeated(1, xs.iter().map(|&x| Value::UInt32(x)).collect());
    }
    if let Some(t) = t {
        m.set_unchecked(2, Value::Str(t.into()));
    }
    Value::Message(m)
}

fn inner_body(xs: &[u32], t: Option<&str>) -> Vec<u8> {
    let mut body = Vec::new();
    for &x in xs {
        put_varint_field(&mut body, 1, u64::from(x));
    }
    if let Some(t) = t {
        put_ld_field(&mut body, 2, t.as_bytes());
    }
    body
}

/// Interleaved runs (A A B A, and sub-message runs split by scalars) keep
/// each field's arrival order: the accumulator cache must follow the key,
/// not the position in the run.
#[test]
fn interleaved_runs_keep_arrival_order() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    let mut wire = Vec::new();
    put_varint_field(&mut wire, 1, 1);
    put_varint_field(&mut wire, 1, 2);
    put_ld_field(&mut wire, 2, b"x");
    put_varint_field(&mut wire, 1, 3);
    put_ld_field(&mut wire, 7, &inner_body(&[7, 8], None));
    put_varint_field(&mut wire, 1, 300);
    put_ld_field(&mut wire, 7, &inner_body(&[9], Some("i")));
    put_ld_field(&mut wire, 2, b"yz");
    let mut expected = MessageValue::new(root);
    expected.set_repeated(1, [1, 2, 3, 300].into_iter().map(Value::Int32).collect());
    expected.set_repeated(2, vec![Value::Str("x".into()), Value::Str("yz".into())]);
    expected.set_repeated(
        7,
        vec![
            inner(&schema, &[7, 8], None),
            inner(&schema, &[9], Some("i")),
        ],
    );
    check_accepts_as(&mut oracle, &schema, &wire, &expected);

    // A run broken by a 2-byte overlong encoding of its own key (0x88 0x00
    // is field 1, varint): the element behind it still joins the field in
    // order, and the run after it resumes under the 1-byte key.
    let mut wire = Vec::new();
    put_varint_field(&mut wire, 1, 1);
    put_varint_field(&mut wire, 1, 2);
    wire.extend_from_slice(&[0x88, 0x00, 0x03]);
    put_varint_field(&mut wire, 1, 4);
    put_varint_field(&mut wire, 1, 5);
    // The same for a string run (0x92 0x00 is field 2, length-delimited).
    put_ld_field(&mut wire, 2, b"p");
    wire.extend_from_slice(&[0x92, 0x00, 0x01, b'q']);
    put_ld_field(&mut wire, 2, b"r");
    let mut expected = MessageValue::new(root);
    expected.set_repeated(1, (1..=5).map(Value::Int32).collect());
    expected.set_repeated(2, ["p", "q", "r"].map(|t| Value::Str(t.into())).to_vec());
    check_accepts_as(&mut oracle, &schema, &wire, &expected);

    // A string run with an empty element and one whose length prefix takes
    // two bytes.
    let long = "L".repeat(200);
    let mut wire = Vec::new();
    for t in ["a", "", long.as_str(), "", "z"] {
        put_ld_field(&mut wire, 2, t.as_bytes());
    }
    let mut expected = MessageValue::new(root);
    expected.set_repeated(
        2,
        ["a", "", long.as_str(), "", "z"]
            .map(|t| Value::Str(t.into()))
            .to_vec(),
    );
    check_accepts_as(&mut oracle, &schema, &wire, &expected);
}

/// Runs under 2-byte keys (fields 16 to 19) decode like 1-byte-key runs,
/// for varint, bytes and both fixed widths, and re-encode through the
/// per-element path byte-identically.
#[test]
fn runs_under_two_byte_keys_agree() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    let mut wire = Vec::new();
    for v in [0u64, 1, 2, 3, 300] {
        put_varint_field(&mut wire, 16, v);
    }
    for body in [&b"k"[..], b"", &[0xab; 130]] {
        put_ld_field(&mut wire, 17, body);
    }
    for v in [7u32, 0, u32::MAX] {
        put_key(&mut wire, 18, 5);
        wire.extend_from_slice(&v.to_le_bytes());
    }
    for v in [i64::MIN, -1] {
        put_key(&mut wire, 19, 1);
        wire.extend_from_slice(&v.to_le_bytes());
    }
    let mut expected = MessageValue::new(root);
    expected.set_repeated(16, [0, -1, 1, -2, 150].map(Value::SInt32).to_vec());
    expected.set_repeated(
        17,
        vec![
            Value::Bytes(b"k".to_vec()),
            Value::Bytes(Vec::new()),
            Value::Bytes(vec![0xab; 130]),
        ],
    );
    expected.set_repeated(18, [7, 0, u32::MAX].map(Value::Fixed32).to_vec());
    expected.set_repeated(19, [i64::MIN, -1].map(Value::SFixed64).to_vec());
    check_accepts_as(&mut oracle, &schema, &wire, &expected);
    check_message("2-byte-key runs", &mut oracle, &expected);
    check_truncations("2-byte-key runs", &mut oracle, &wire, 0..wire.len());
}

/// A run whose last element is cut gets the CPU decoder's verdict: at the
/// end of the input for each element kind, and at a sub-message's clamped
/// end with valid bytes after it that the element must not run into.
#[test]
fn runs_cut_at_a_frame_end_match_the_cpu_oracle() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    // Cut at the end of the input: a 2-byte varint, a fixed64, a string
    // payload and a string length prefix, each the last of a 3-element run.
    let mut varints = Vec::new();
    for v in [5, 6, 300] {
        put_varint_field(&mut varints, 1, v);
    }
    let mut fixeds = Vec::new();
    for v in [1i64, 2, 3] {
        put_key(&mut fixeds, 6, 1);
        fixeds.extend_from_slice(&v.to_le_bytes());
    }
    let mut strings = Vec::new();
    for t in [&b"ab"[..], b"cd", b"efgh"] {
        put_ld_field(&mut strings, 2, t);
    }
    let mut long_prefix = Vec::new();
    for t in [&b"ab"[..], &[b'x'; 140]] {
        put_ld_field(&mut long_prefix, 2, t);
    }
    for (wire, keep, fault) in [
        (&varints, 1, DecodeFault::Truncated),
        (&fixeds, 3, DecodeFault::Truncated),
        (&strings, 2, DecodeFault::LengthOverrun),
        (&long_prefix, 141, DecodeFault::Truncated),
    ] {
        check_rejects_as(&mut oracle, &wire[..wire.len() - keep], fault);
        check_truncations("cut run", &mut oracle, wire, 0..wire.len());
    }
    // Cut at a sub-message's clamped end: the Inner frame declares 4 bytes
    // ending in a varint with its continuation bit set, and a valid `a`
    // field follows that the element must not consume.
    let mut wire = Vec::new();
    put_ld_field(&mut wire, 7, &[0x08, 0x01, 0x08, 0x96]);
    put_varint_field(&mut wire, 1, 1);
    check_rejects_as(&mut oracle, &wire, DecodeFault::Truncated);
    // The same for a string run inside Inner: the frame ends inside the
    // second payload, and a valid field follows.
    let mut wire = Vec::new();
    put_ld_field(&mut wire, 7, &[0x12, 0x01, b'a', 0x12, 0x03, b'b']);
    put_varint_field(&mut wire, 1, 1);
    check_rejects_as(&mut oracle, &wire, DecodeFault::LengthOverrun);
}

/// Packed and unpacked arrivals of one field concatenate in arrival order,
/// for varint and fixed-width element types alike.
#[test]
fn packed_and_unpacked_arrivals_of_one_field_mix() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    let mut wire = Vec::new();
    put_varint_field(&mut wire, 1, 1);
    let mut packed = Vec::new();
    varint::encode(2, &mut packed);
    varint::encode(3, &mut packed);
    put_ld_field(&mut wire, 1, &packed);
    put_varint_field(&mut wire, 1, 4);
    // Field 4 is declared packed but may arrive one fixed32 at a time.
    put_key(&mut wire, 4, 5);
    wire.extend_from_slice(&10u32.to_le_bytes());
    put_ld_field(
        &mut wire,
        4,
        &[11u32.to_le_bytes(), 12u32.to_le_bytes()].concat(),
    );
    put_key(&mut wire, 4, 5);
    wire.extend_from_slice(&13u32.to_le_bytes());
    let mut expected = MessageValue::new(root);
    expected.set_repeated(1, (1..=4).map(Value::Int32).collect());
    expected.set_repeated(4, (10..=13).map(Value::Fixed32).collect());
    check_accepts_as(&mut oracle, &schema, &wire, &expected);
}

/// One repeated field per fast-path op, none declared packed, and a
/// singular field to split their runs with.
const OPS_PROTO: &str = "
message Inner { optional uint32 v = 1; }
message Ops {
  repeated int64 raw = 1;
  repeated int32 i32 = 2;
  repeated uint32 u32 = 3;
  repeated bool flag = 4;
  repeated sint32 zig32 = 5;
  repeated sint64 zig64 = 6;
  repeated fixed32 fixed32 = 7;
  repeated double fixed64 = 8;
  repeated string text = 9;
  repeated Inner sub = 10;
  optional uint32 other = 11;
}";

/// Five elements for each repeated field of [`OPS_PROTO`], fields 1 to 10
/// in order, at the edges of the op's wire and arena widths.
fn ops_elements(schema: &Schema) -> Vec<Vec<Value>> {
    let inner = schema.id_by_name("Inner").unwrap();
    let sub = |v| {
        let mut m = MessageValue::new(inner);
        m.set_unchecked(1, Value::UInt32(v));
        Value::Message(m)
    };
    let text = |n: usize| Value::Str("t".repeat(n));
    vec![
        [i64::MIN, -1, 0, 1 << 35, i64::MAX]
            .map(Value::Int64)
            .to_vec(),
        [i32::MIN, -1, 0, 300, i32::MAX].map(Value::Int32).to_vec(),
        [0, 127, 128, 1 << 28, u32::MAX].map(Value::UInt32).to_vec(),
        [true, false, true, true, false].map(Value::Bool).to_vec(),
        [i32::MIN, -1, 0, 1, i32::MAX].map(Value::SInt32).to_vec(),
        [i64::MIN, -1, 0, 1, i64::MAX].map(Value::SInt64).to_vec(),
        [0, 1, 1 << 31, 0xdead_beef, u32::MAX]
            .map(Value::Fixed32)
            .to_vec(),
        [-0.0, f64::MAX, f64::MIN_POSITIVE, f64::NAN, 1.5]
            .map(Value::Double)
            .to_vec(),
        [0, 1, 63, 65, 200].map(text).to_vec(),
        [0, 1, 300, u32::MAX, 7].map(sub).to_vec(),
    ]
}

/// For every op, a second arrival appends to an accumulator that already
/// holds elements: a field split into two runs around another field, and,
/// for the packable ops, a packed body followed by an unpacked run. Both
/// engines accept with the same value tree, and the arena re-encodes
/// byte-identically.
#[test]
fn split_runs_append_to_the_accumulator_at_every_op() {
    let schema = parse_proto(OPS_PROTO).unwrap();
    let root = schema.id_by_name("Ops").unwrap();
    let mut oracle = Oracle::new(&schema, root);
    let encode = |number: u32, values: &[Value]| {
        let mut m = MessageValue::new(root);
        m.set_repeated(number, values.to_vec());
        reference::encode(&m, &schema).unwrap()
    };
    for (number, values) in (1..).zip(ops_elements(&schema)) {
        let mut expected = MessageValue::new(root);
        expected.set_repeated(number, values.clone());

        let mut wire = encode(number, &values[..2]);
        put_varint_field(&mut wire, 11, 5);
        wire.extend_from_slice(&encode(number, &values[2..]));
        let mut split = expected.clone();
        split.set_unchecked(11, Value::UInt32(5));
        check_accepts_as(&mut oracle, &schema, &wire, &split);

        if matches!(values[0], Value::Str(_) | Value::Message(_)) {
            continue;
        }
        // Each element's unpacked encoding behind its 1-byte key is its
        // packed encoding.
        let body: Vec<u8> = values[..2]
            .iter()
            .flat_map(|v| encode(number, std::slice::from_ref(v))[1..].to_vec())
            .collect();
        let mut wire = Vec::new();
        put_ld_field(&mut wire, number, &body);
        wire.extend_from_slice(&encode(number, &values[2..]));
        check_accepts_as(&mut oracle, &schema, &wire, &expected);
    }
}

/// A run of one singular field stays last-one-wins, with and without other
/// fields between the arrivals.
#[test]
fn repeated_singular_field_is_last_one_wins() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    let mut wire = Vec::new();
    for v in [1, 2, 3] {
        put_varint_field(&mut wire, 3, v);
    }
    let mut expected = MessageValue::new(root);
    expected.set_unchecked(3, Value::Int64(3));
    check_accepts_as(&mut oracle, &schema, &wire, &expected);
    put_varint_field(&mut wire, 1, 5);
    put_varint_field(&mut wire, 3, u64::MAX);
    expected.set_repeated(1, vec![Value::Int32(5)]);
    expected.set_unchecked(3, Value::Int64(-1));
    check_accepts_as(&mut oracle, &schema, &wire, &expected);
}

/// Runs of an unknown field are skipped every time (unknown keys are never
/// cached), and a truncated run member gets the same verdict on both sides.
#[test]
fn runs_of_an_unknown_field_are_skipped() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    let mut wire = Vec::new();
    for v in [1, 300, 70_000] {
        put_varint_field(&mut wire, 100, v);
    }
    for body in [&b"ab"[..], b"", b"cde"] {
        put_ld_field(&mut wire, 101, body);
    }
    put_varint_field(&mut wire, 1, 7);
    for _ in 0..3 {
        put_key(&mut wire, 102, 1);
        wire.extend_from_slice(&u64::MAX.to_le_bytes());
    }
    let mut expected = MessageValue::new(root);
    expected.set_repeated(1, vec![Value::Int32(7)]);
    check_accepts_as(&mut oracle, &schema, &wire, &expected);
    check_rejects_as(&mut oracle, &wire[..wire.len() - 3], DecodeFault::Truncated);
}

/// A field number whose key is cached, arriving again with a different
/// wire type, is a `WireTypeMismatch` — the cache is keyed on the raw key,
/// wire type included.
#[test]
fn cached_field_with_the_wrong_wire_type_mismatches() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    // Repeated `a` (varint), then a fixed64 arrival of field 1.
    let mut wire = Vec::new();
    put_varint_field(&mut wire, 1, 1);
    put_varint_field(&mut wire, 1, 2);
    put_key(&mut wire, 1, 1);
    wire.extend_from_slice(&[0; 8]);
    check_rejects_as(&mut oracle, &wire, DecodeFault::WireTypeMismatch);
    // Singular `s` (varint), then a length-delimited arrival of field 3:
    // not packable, so not a packed body either.
    let mut wire = Vec::new();
    put_varint_field(&mut wire, 3, 1);
    put_varint_field(&mut wire, 3, 2);
    put_ld_field(&mut wire, 3, &[1]);
    check_rejects_as(&mut oracle, &wire, DecodeFault::WireTypeMismatch);
    // Unpacked sfixed64 `g`, then a fixed32 arrival of field 6.
    let mut wire = Vec::new();
    for _ in 0..2 {
        put_key(&mut wire, 6, 1);
        wire.extend_from_slice(&(-1i64).to_le_bytes());
    }
    put_key(&mut wire, 6, 5);
    wire.extend_from_slice(&[0; 4]);
    check_rejects_as(&mut oracle, &wire, DecodeFault::WireTypeMismatch);
}

/// Packed fixed32/fixed64 bodies whose length is not a multiple of the
/// element width are `Truncated` on both sides, even when a valid field
/// follows the body; whole multiples accept.
#[test]
fn ragged_packed_fixed_bodies_are_truncated() {
    let (schema, root) = runs_schema();
    let mut oracle = Oracle::new(&schema, root);
    for (number, width) in [(4u32, 4usize), (5, 8)] {
        for len in 1..=3 * width {
            let body: Vec<u8> = (0..len as u8).collect();
            let mut wire = Vec::new();
            put_ld_field(&mut wire, number, &body);
            put_varint_field(&mut wire, 1, 5);
            if len % width == 0 {
                let judgement = oracle.judge(&wire);
                assert_eq!(
                    judgement.verdict(),
                    Some(Verdict::Accept),
                    "{number}/{len}: {judgement:?}"
                );
            } else {
                check_rejects_as(&mut oracle, &wire, DecodeFault::Truncated);
            }
        }
    }
}

/// Packed float/double/fixed arrays, including -0.0, infinities,
/// subnormals and NaN payload bits, encode byte-identically to the
/// reference encoder from a value tree and from the decoded arena.
#[test]
fn packed_fixed_arrays_encode_byte_identically() {
    let schema = parse_proto(
        "message P { repeated float f = 1 [packed = true]; \
         repeated double d = 2 [packed = true]; \
         repeated fixed32 u = 3 [packed = true]; \
         repeated sfixed32 i = 4 [packed = true]; \
         repeated fixed64 v = 5 [packed = true]; \
         repeated sfixed64 j = 6 [packed = true]; }",
    )
    .unwrap();
    let type_id = schema.id_by_name("P").unwrap();
    let floats = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 2.0,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xff80_dead),
        1.5,
    ];
    let doubles = [
        -0.0,
        f64::MAX,
        f64::from_bits(1),
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff0_0000_dead_beef),
    ];
    let mut m = MessageValue::new(type_id);
    m.set_repeated(1, floats.into_iter().map(Value::Float).collect());
    m.set_repeated(2, doubles.into_iter().map(Value::Double).collect());
    m.set_repeated(3, vec![Value::Fixed32(0), Value::Fixed32(u32::MAX)]);
    m.set_repeated(4, vec![Value::SFixed32(i32::MIN), Value::SFixed32(-1)]);
    m.set_repeated(5, vec![Value::Fixed64(u64::MAX), Value::Fixed64(1)]);
    m.set_repeated(6, vec![Value::SFixed64(i64::MIN)]);
    check_message(
        "packed fixed arrays",
        &mut Oracle::new(&schema, type_id),
        &m,
    );
}

/// The encoder finds present fields by scanning hasbits words from the
/// top. Fields on bits 63 and 64 straddle the first word boundary, field
/// 130 sits in the third word and field 200 in the fourth; every subset of
/// them must encode byte-identically, from a value tree and from the
/// decoded arena.
#[test]
fn multi_word_hasbits_encode_byte_identically() {
    let schema = parse_proto(
        "message Sub { optional uint32 v = 1; }
         message W {
           optional int32 a = 1;
           optional string b = 64;
           repeated fixed32 c = 65;
           repeated uint64 d = 130 [packed = true];
           optional Sub e = 200;
         }",
    )
    .unwrap();
    let type_id = schema.id_by_name("W").unwrap();
    let mut oracle = Oracle::new(&schema, type_id);
    let mut sub = MessageValue::new(schema.id_by_name("Sub").unwrap());
    sub.set_unchecked(1, Value::UInt32(9));
    let fields: [(u32, Vec<Value>); 5] = [
        (1, vec![Value::Int32(-3)]),
        (64, vec![Value::Str("bit 63".into())]),
        (65, vec![Value::Fixed32(1), Value::Fixed32(2)]),
        (130, vec![Value::UInt64(300), Value::UInt64(0)]),
        (200, vec![Value::Message(sub)]),
    ];
    for mask in 0..1u32 << fields.len() {
        let mut m = MessageValue::new(type_id);
        for (i, (number, values)) in fields.iter().enumerate() {
            if mask & 1 << i == 0 {
                continue;
            }
            if matches!(number, 65 | 130) {
                m.set_repeated(*number, values.clone());
            } else {
                m.set_unchecked(*number, values[0].clone());
            }
        }
        check_message(&format!("hasbit words, mask {mask:#b}"), &mut oracle, &m);
    }
}

/// An ASCII payload of `len` bytes whose content depends on `seed`.
fn long_text(len: usize, seed: usize) -> String {
    (0..len)
        .map(|i| char::from(b'a' + ((i * 7 + seed) % 26) as u8))
        .collect()
}

/// Payloads below, at and above 8 KiB at depth 0, 1 and 2, and repeated
/// long strings, some adjacent: every message decodes value-identically
/// and re-encodes byte-identically to `reference::encode`.
#[test]
fn long_payloads_encode_byte_identically_at_every_depth() {
    const LONG: usize = 8 * 1024;
    let schema = parse_proto(
        "message Leaf { optional bytes blob = 1; repeated string notes = 2; optional uint32 n = 3; }
         message Mid { optional Leaf leaf = 1; repeated Leaf leaves = 2; optional bytes blob = 3;
                       optional string tag = 4; }
         message Top { optional bytes blob = 1; optional Mid mid = 2; repeated string notes = 3;
                       optional string name = 4; repeated Mid mids = 5; }",
    )
    .unwrap();
    let id = |name: &str| schema.id_by_name(name).unwrap();
    let (top, mid, leaf) = (id("Top"), id("Mid"), id("Leaf"));
    let blob = |len: usize, seed: usize| Value::Bytes(long_text(len, seed).into_bytes());
    let notes = |lens: &[usize]| -> Vec<Value> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| Value::Str(long_text(len, i)))
            .collect()
    };
    let (below, at, above) = (LONG - 1, LONG, LONG + 1);
    let leaf_of = |blob_len: usize, note_lens: &[usize]| {
        let mut m = MessageValue::new(leaf);
        m.set_unchecked(1, blob(blob_len, 1));
        if !note_lens.is_empty() {
            m.set_repeated(2, notes(note_lens));
        }
        m.set_unchecked(3, Value::UInt32(5));
        m
    };
    let mid_of = |blob_len: usize, leaf: Option<MessageValue>| {
        let mut m = MessageValue::new(mid);
        m.set_unchecked(3, blob(blob_len, 2));
        m.set_unchecked(4, Value::Str("tag".into()));
        if let Some(leaf) = leaf {
            m.set_unchecked(1, Value::Message(leaf));
        }
        m
    };
    let mut cases: Vec<(String, MessageValue)> = Vec::new();
    for len in [below, at, above, 3 * LONG] {
        let mut depth0 = MessageValue::new(top);
        depth0.set_unchecked(1, blob(len, 0));
        depth0.set_unchecked(4, Value::Str("name".into()));
        cases.push((format!("depth 0, {len} B"), depth0));
        let mut depth1 = MessageValue::new(top);
        depth1.set_unchecked(2, Value::Message(mid_of(len, None)));
        cases.push((format!("depth 1, {len} B"), depth1));
        let mut depth2 = MessageValue::new(top);
        let leaf = leaf_of(len, &[]);
        depth2.set_unchecked(2, Value::Message(mid_of(3, Some(leaf))));
        cases.push((format!("depth 2, {len} B"), depth2));
    }
    let runs = [at, 12, above, 2 * LONG, below, 0, at];
    let mut repeated = MessageValue::new(top);
    repeated.set_repeated(3, notes(&runs));
    cases.push(("repeated long strings".into(), repeated));
    let mut everywhere = MessageValue::new(top);
    everywhere.set_unchecked(1, blob(above, 3));
    everywhere.set_repeated(3, notes(&runs));
    let deep = leaf_of(at, &[above, above, 40]);
    everywhere.set_unchecked(2, Value::Message(mid_of(2 * LONG, Some(deep))));
    everywhere.set_repeated(
        5,
        vec![
            Value::Message(mid_of(below, Some(leaf_of(above, &[at])))),
            Value::Message(mid_of(at, None)),
        ],
    );
    cases.push(("long payloads at every depth".into(), everywhere));
    let mut oracle = Oracle::new(&schema, top);
    for (label, message) in &cases {
        check_message(label, &mut oracle, message);
    }
}

/// Every engine accepts `wire`, which is not canonical: the trees equal
/// the reference decoder's, and every re-encode equals the reference
/// encoding of that tree and differs from `wire`.
#[track_caller]
fn check_re_encode(label: &str, oracle: &mut Oracle, schema: &Schema, wire: &[u8]) {
    let judgement = oracle.judge(wire);
    assert_eq!(
        judgement.verdict(),
        Some(Verdict::Accept),
        "{label}: {judgement:?}"
    );
    let tree = judgement.tree.expect("reference decodes");
    let expected = reference::encode(&tree, schema).unwrap();
    assert_ne!(expected, wire, "{label}: the input must not be canonical");
    assert_eq!(
        judgement.encoded.unwrap(),
        expected,
        "{label}: re-serialization differs"
    );
}

/// Sub-message bodies that re-encode to another length, so the prefix the
/// encoder writes from the decoded length must be rewritten: one case per
/// rule (an unknown field dropped, a singular field sent twice, an
/// overlong varint, a 5-byte negative int32, an unpacked arrival of a
/// packed field), in singular and repeated sub-messages at depth 1 and 2,
/// at body lengths whose prefix keeps its width and whose prefix crosses
/// 127/128 and 16383/16384 either way.
#[test]
fn non_canonical_sub_messages_re_encode_like_the_reference() {
    let schema = parse_proto(
        "message Leaf { optional uint32 n = 1; optional int32 i = 2; optional string s = 3;
                        repeated uint32 p = 4 [packed = true]; optional uint32 m = 5; }
         message Mid { optional Leaf leaf = 1; repeated Leaf leaves = 2; optional string s = 3; }
         message Top { optional Mid mid = 1; repeated Mid mids = 2; optional Leaf leaf = 3;
                       repeated Leaf leaves = 4; }",
    )
    .unwrap();
    let mut oracle = Oracle::new(&schema, root_of(&schema));
    // Each rule's Leaf bytes and the bytes its re-encode gains or loses.
    let unknown = {
        let mut piece = Vec::new();
        put_varint_field(&mut piece, 99, 7);
        piece
    };
    let rules: [(&str, Vec<u8>); 5] = [
        ("unknown field", unknown),
        ("singular sent twice", vec![0x08, 0x01, 0x08, 0x02]),
        ("overlong varint", vec![0x08, 0x85, 0x80, 0x80, 0x00]),
        (
            "5-byte negative int32",
            vec![0x10, 0xff, 0xff, 0xff, 0xff, 0x0f],
        ),
        (
            "unpacked packed field",
            vec![0x20, 0x01, 0x20, 0x02, 0x20, 0x03],
        ),
    ];
    let canonical = [0x08, 0x07, 0x1a, 0x02, b'o', b'k'];
    // A Leaf body of exactly `target` bytes: the rule's bytes, then a
    // string and, where no string length fits, a 2-byte scalar.
    let leaf_body = |piece: &[u8], target: usize| {
        let fixed = piece.len() + 1;
        (target.saturating_sub(fixed + 5)..target.saturating_sub(fixed)).find_map(|pad| {
            let mut body = piece.to_vec();
            put_ld_field(&mut body, 3, long_text(pad, target).as_bytes());
            if body.len() + 2 == target {
                put_varint_field(&mut body, 5, 1);
            }
            (body.len() == target).then_some(body)
        })
    };
    let targets = (0..24).chain(123..=130).chain(16_379..=16_386);
    for (rule, piece) in &rules {
        for target in targets.clone() {
            if target < piece.len() + 2 {
                continue;
            }
            let body = leaf_body(piece, target).expect("a body of every longer length");
            let label = |shape: &str| format!("{rule}, {target} B body, {shape}");
            let mut wire = Vec::new();
            put_ld_field(&mut wire, 3, &body);
            check_re_encode(&label("depth 1 singular"), &mut oracle, &schema, &wire);
            let mut wire = Vec::new();
            for leaf in [&body[..], &canonical, &body] {
                put_ld_field(&mut wire, 4, leaf);
            }
            check_re_encode(&label("depth 1 repeated"), &mut oracle, &schema, &wire);
            let mut mid = Vec::new();
            put_ld_field(&mut mid, 1, &body);
            put_ld_field(&mut mid, 3, b"mid");
            let mut wire = Vec::new();
            put_ld_field(&mut wire, 1, &mid);
            check_re_encode(&label("depth 2 singular"), &mut oracle, &schema, &wire);
            let mut twice = Vec::new();
            put_ld_field(&mut twice, 1, &canonical);
            put_ld_field(&mut twice, 1, &body);
            let mut wire = Vec::new();
            put_ld_field(&mut wire, 1, &twice);
            check_re_encode(&label("depth 2, sent twice"), &mut oracle, &schema, &wire);
            let mut mids = Vec::new();
            for leaf in [&body[..], &canonical, &body] {
                put_ld_field(&mut mids, 2, leaf);
            }
            let mut wire = Vec::new();
            put_ld_field(&mut wire, 2, &mids);
            put_ld_field(&mut wire, 2, &mid);
            check_re_encode(&label("depth 2 repeated"), &mut oracle, &schema, &wire);
        }
    }
}

/// A message whose field-number span exceeds the dense limit compiles to a
/// sparse table, which the encoder walks backwards; present and absent
/// fields at both ends of the span and in between encode byte-identically.
#[test]
fn sparse_table_messages_encode_byte_identically() {
    let schema = parse_proto(
        "message S {
           optional uint32 lo = 1;
           repeated string mid = 3000;
           repeated fixed64 far = 5000;
           repeated sint32 run = 70000;
           optional bytes hi = 100000;
         }",
    )
    .unwrap();
    let type_id = schema.id_by_name("S").unwrap();
    let codec = FastCodec::new(&schema);
    assert_eq!(
        codec.compiled().message(type_id).table_kind(),
        TableKind::Sparse
    );
    let mut oracle = Oracle::new(&schema, type_id);
    let fields: [(u32, Value); 5] = [
        (1, Value::UInt32(1)),
        (3000, Value::Str("m".into())),
        (5000, Value::Fixed64(u64::MAX)),
        (70000, Value::SInt32(-5)),
        (100_000, Value::Bytes(vec![1, 2, 3])),
    ];
    for mask in 0..1u32 << fields.len() {
        let mut m = MessageValue::new(type_id);
        for (i, (number, value)) in fields.iter().enumerate() {
            if mask & 1 << i == 0 {
                continue;
            }
            if matches!(number, 1 | 100_000) {
                m.set_unchecked(*number, value.clone());
            } else {
                m.set_repeated(*number, vec![value.clone(), value.clone()]);
            }
        }
        check_message(&format!("sparse, mask {mask:#b}"), &mut oracle, &m);
    }
}

/// Encodes `m` of the runs schema and appends `tail` as a final field.
fn runs_wire(schema: &Schema, m: &MessageValue, tail: &[u8]) -> Vec<u8> {
    let mut wire = reference::encode(m, schema).unwrap();
    wire.extend_from_slice(tail);
    wire
}

/// One arena pushed through different schemas and mid-decode errors decodes
/// every later input exactly like a fresh arena: same value tree, same
/// `encode_decoded` bytes. The errors leave accumulators open at the moment
/// they strike — inside a repeated run, and inside a repeated sub-message
/// that has its own run open — so a scratch stack that is not unwound
/// would leak elements into the next decode.
#[test]
fn reused_arena_decodes_like_a_fresh_one_after_errors() {
    let (runs, root) = runs_schema();
    let runs_codec = FastCodec::new(&runs);
    let mut oracle = Oracle::new(&runs, root);
    let mut m = MessageValue::new(root);
    m.set_repeated(1, (0..40).map(|i| Value::Int32(i * 37 - 500)).collect());
    m.set_repeated(2, vec![Value::Str("run".into()); 5]);
    m.set_repeated(4, (0..9).map(Value::Fixed32).collect());
    m.set_repeated(
        7,
        vec![
            inner(&runs, &[1, 2, 3], Some("a")),
            inner(&runs, &[300; 6], None),
        ],
    );
    let clean = runs_wire(&runs, &m, &[]);
    // Truncation inside the run of `a`: the run's last element is a
    // two-byte varint cut after its first byte.
    let mut run_cut = Vec::new();
    for v in [5, 6, 300] {
        put_varint_field(&mut run_cut, 1, v);
    }
    let run_cut = runs_wire(&runs, &m, &run_cut[..run_cut.len() - 1]);
    // Truncation inside a repeated sub-message's own run: the frame length
    // is intact, the last `x` inside it is cut.
    let mut body = inner_body(&[4, 5], None);
    put_key(&mut body, 1, 0);
    body.push(0x96);
    let mut nested_cut = Vec::new();
    put_ld_field(&mut nested_cut, 7, &body);
    let nested_cut = runs_wire(&runs, &m, &nested_cut);
    for bad in [&run_cut, &nested_cut] {
        check_rejects_as(&mut oracle, bad, DecodeFault::Truncated);
    }

    let suites = generate_suite(2, 0xA4E7A);
    let mut shared = DecodeArena::new();
    let mut check = |codec: &FastCodec, type_id: MessageId, wire: &[u8], label: &str| {
        let mut fresh = DecodeArena::new();
        let want = codec.decode(type_id, wire, &mut fresh);
        let got = codec.decode(type_id, wire, &mut shared);
        match (want, got) {
            (Ok(want), Ok(got)) => {
                let fresh_tree = codec.to_value(type_id, wire, &fresh, want);
                let shared_tree = codec.to_value(type_id, wire, &shared, got);
                assert!(shared_tree.bits_eq(&fresh_tree), "{label}: tree differs");
                assert_eq!(
                    codec.encode_decoded(type_id, wire, &shared, got),
                    codec.encode_decoded(type_id, wire, &fresh, want),
                    "{label}: encode_decoded differs"
                );
                assert_eq!(shared.len(), fresh.len(), "{label}: object bytes differ");
            }
            (want, got) => assert_eq!(got.err(), want.err(), "{label}: verdict differs"),
        }
    };
    for round in 0..2 {
        for bench in &suites {
            let codec = FastCodec::new(&bench.schema);
            for (mi, message) in bench.messages.iter().enumerate() {
                let wire = reference::encode(message, &bench.schema).unwrap();
                let label = format!("round {round} {}/m{mi}", bench.profile.name);
                check(&codec, bench.type_id, &wire, &label);
                check(
                    &runs_codec,
                    root,
                    &run_cut,
                    &format!("{label} then run cut"),
                );
                check(&runs_codec, root, &clean, &format!("{label} then runs"));
                check(
                    &runs_codec,
                    root,
                    &nested_cut,
                    &format!("{label} then nested cut"),
                );
                check(&codec, bench.type_id, &wire, &format!("{label} again"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stale arena bytes: allocation does not zero.
// ---------------------------------------------------------------------------

/// `m` with every other present field dropped, at every depth.
fn every_other_field(m: &MessageValue) -> MessageValue {
    let thin = |v: &Value| match v {
        Value::Message(sub) => Value::Message(every_other_field(sub)),
        v => v.clone(),
    };
    let mut out = MessageValue::new(m.type_id());
    for (number, payload) in m.iter().step_by(2) {
        match payload {
            FieldPayload::Single(v) => out.set_unchecked(number, thin(v)),
            FieldPayload::Repeated(vs) => out.set_repeated(number, vs.iter().map(thin).collect()),
        }
    }
    out
}

/// Decodes `full` and then `subset` through one arena. The arena does not
/// zero what it allocates, so the subset's objects sit on bytes the full
/// decode wrote; only their cleared hasbits keep stale fields out. The
/// result must equal a fresh arena's decode of `subset`: the same value
/// tree (which is `subset` itself), the same `encode_decoded` bytes and
/// the same `DecodeArena::len`.
#[track_caller]
fn check_stale_reuse(
    label: &str,
    schema: &Schema,
    type_id: MessageId,
    full: &MessageValue,
    subset: &MessageValue,
) {
    let codec = FastCodec::new(schema);
    let full_wire = reference::encode(full, schema).unwrap();
    let wire = reference::encode(subset, schema).unwrap();
    let mut fresh = DecodeArena::new();
    let want = codec.decode(type_id, &wire, &mut fresh).unwrap();
    let mut shared = DecodeArena::new();
    codec.decode(type_id, &full_wire, &mut shared).unwrap();
    let got = codec.decode(type_id, &wire, &mut shared).unwrap();
    let tree = codec.to_value(type_id, &wire, &shared, got);
    assert!(
        tree.bits_eq(&codec.to_value(type_id, &wire, &fresh, want)),
        "{label}: tree differs"
    );
    assert!(tree.bits_eq(subset), "{label}: stale fields show through");
    assert_eq!(
        codec.encode_decoded(type_id, &wire, &shared, got),
        codec.encode_decoded(type_id, &wire, &fresh, want),
        "{label}: encode_decoded differs"
    );
    assert_eq!(shared.len(), fresh.len(), "{label}: object bytes differ");
}

#[test]
fn stale_arena_bytes_never_show_through_a_dense_root() {
    let mut dense_roots = 0;
    for bench in generate_suite(2, 0x57A1E) {
        let codec = FastCodec::new(&bench.schema);
        if codec.compiled().message(bench.type_id).table_kind() != TableKind::Dense {
            continue;
        }
        dense_roots += 1;
        for (mi, full) in bench.messages.iter().enumerate() {
            let subset = every_other_field(full);
            let label = format!("{}/m{mi}", bench.profile.name);
            check_stale_reuse(&label, &bench.schema, bench.type_id, full, &subset);
            let empty = MessageValue::new(bench.type_id);
            check_stale_reuse(
                &format!("{label} then empty"),
                &bench.schema,
                bench.type_id,
                full,
                &empty,
            );
        }
    }
    assert!(dense_roots > 0, "no suite has a dense root");
}

/// The consensus schema's `Vote` carries field 250000, so its table is
/// sparse and its hasbits array spans 31 KB, of which decode clears only
/// the fields' own bytes. Covered as a root of its own and as the
/// repeated sub-message of the corpus root.
#[test]
fn stale_arena_bytes_never_show_through_the_consensus_sparse_root() {
    let schema = load_binpb("consensus");
    let vote = schema.id_by_name("Vote").expect("consensus defines Vote");
    let codec = FastCodec::new(&schema);
    assert_eq!(
        codec.compiled().message(vote).table_kind(),
        TableKind::Sparse
    );
    let mut full = MessageValue::new(vote);
    full.set_unchecked(1, Value::UInt64(1 << 40));
    full.set_unchecked(2, Value::UInt32(7));
    full.set_unchecked(3, Value::Bytes(vec![0xab; 32]));
    full.set_unchecked(4, Value::SInt64(-9));
    full.set_unchecked(250_000, Value::UInt64(u64::MAX));
    for keep in [vec![], vec![1], vec![2, 250_000], vec![3, 4]] {
        let mut subset = MessageValue::new(vote);
        for number in &keep {
            subset.set_unchecked(*number, full.get_single(*number).unwrap().clone());
        }
        check_stale_reuse(
            &format!("Vote keeping {keep:?}"),
            &schema,
            vote,
            &full,
            &subset,
        );
    }
    let root = root_of(&schema);
    let shape = ServiceProfile::bench(4).shape;
    let messages = populate_messages(&schema, root, &shape, 0x57A1E, 6);
    assert!(!messages.is_empty(), "consensus population is empty");
    for (mi, full) in messages.iter().enumerate() {
        let subset = every_other_field(full);
        check_stale_reuse(
            &format!("chain/consensus/m{mi}"),
            &schema,
            root,
            full,
            &subset,
        );
    }
}
