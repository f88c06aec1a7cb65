//! Fast-path codec differential suite: `protoacc-fastpath` vs `crates/cpu`
//! (verdicts) and vs the reference encoder (bytes), over every HyperProtoBench
//! suite, every `protos/` schema through both ingestion paths (`.proto` text
//! and `.binpb` descriptor sets), truncation at every offset, and a ≥10k
//! seeded mutation sweep.
//!
//! The contract: the fast path is allowed to be *faster* than the existing
//! engines, never observably different. Encodes must be byte-identical to
//! the reference encoder; decodes must produce value-identical trees on
//! accepts and the same `DecodeFault` class as `crates/cpu` on rejects.

mod common;

use common::{load, load_binpb, root_of};
use protoacc_suite::accel::DecodeFault;
use protoacc_suite::fastpath::{swar, DecodeArena, FastCodec, TableKind};
use protoacc_suite::faults::{depth_bomb, mutate, DiffReport, FastpathHarness, Verdict};
use protoacc_suite::hyperbench::{generate_suite, populate::populate_messages, ServiceProfile};
use protoacc_suite::runtime::{reference, FieldPayload, MessageValue, Value};
use protoacc_suite::schema::{parse_proto, MessageId, Schema};
use protoacc_suite::wire::varint;
use protoacc_suite::xrand::StdRng;

/// Byte-identity + value-identity + verdict checks for one (schema, message).
#[track_caller]
fn check_message(label: &str, schema: &Schema, type_id: MessageId, message: &MessageValue) {
    let codec = FastCodec::new(schema);
    let wire = reference::encode(message, schema).expect("corpus message encodes");
    // Decode: value-identical tree. Encode: the arena re-serialization is
    // byte-identical to the reference (and hence cpu) serializer.
    let mut arena = DecodeArena::new();
    let obj = codec
        .decode(type_id, &wire, &mut arena)
        .expect("fastpath decodes its own encoding");
    let back = codec.to_value(type_id, &wire, &arena, obj);
    assert!(back.bits_eq(message), "{label}: decoded tree diverges");
    assert_eq!(
        codec.encode_decoded(type_id, &wire, &arena, obj),
        wire,
        "{label}: arena re-serialization diverges"
    );
}

/// Truncates `wire` at every offset (strided above `max_cuts` for very large
/// messages) and requires verdict agreement with the CPU oracle at each cut.
fn check_truncations(label: &str, h: &mut FastpathHarness, wire: &[u8], max_cuts: usize) {
    let stride = (wire.len() / max_cuts.max(1)).max(1);
    for cut in (0..wire.len()).step_by(stride) {
        let (fast, cpu) = h.verdicts(&wire[..cut]);
        assert_eq!(
            fast,
            cpu,
            "{label} truncated at byte {cut}/{}: fastpath {fast:?} vs cpu {cpu:?}",
            wire.len()
        );
    }
    let (fast, cpu) = h.verdicts(wire);
    assert!(
        fast.is_accept() && cpu.is_accept(),
        "{label}: untruncated wire must decode on both sides ({fast:?} / {cpu:?})"
    );
}

#[test]
fn hyperbench_suites_are_byte_and_value_identical() {
    for bench in generate_suite(8, 0xC0DE) {
        for (mi, message) in bench.messages.iter().enumerate() {
            check_message(
                &format!("{}/m{mi}", bench.profile.name),
                &bench.schema,
                bench.type_id,
                message,
            );
        }
    }
}

#[test]
fn hyperbench_truncation_verdicts_match_the_cpu_oracle() {
    for bench in generate_suite(2, 0xC0DE) {
        let mut h = FastpathHarness::new(&bench.schema, bench.type_id);
        for (mi, message) in bench.messages.iter().enumerate() {
            let wire = reference::encode(message, &bench.schema).unwrap();
            check_truncations(
                &format!("{}/m{mi}", bench.profile.name),
                &mut h,
                &wire,
                1024,
            );
        }
    }
}

/// Text-ingested `.proto` corpus: deterministic handcrafted messages through
/// encode/decode identity plus exhaustive (unstrided) truncation.
#[test]
fn proto_text_corpus_round_trips_and_truncates_cleanly() {
    for (file, message) in corpus_messages() {
        let schema = load(file);
        let type_id = message.type_id();
        check_message(file, &schema, type_id, &message);
        let wire = reference::encode(&message, &schema).unwrap();
        let mut h = FastpathHarness::new(&schema, type_id);
        check_truncations(file, &mut h, &wire, usize::MAX);
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
        let mut h = FastpathHarness::new(&schema, root);
        for (mi, message) in messages.iter().enumerate() {
            check_message(&format!("chain/{stem}/m{mi}"), &schema, root, message);
            let wire = reference::encode(message, &schema).unwrap();
            check_truncations(&format!("chain/{stem}/m{mi}"), &mut h, &wire, usize::MAX);
        }
    }
}

/// The ≥10k seeded mutation sweep: every verdict must match the CPU oracle,
/// and the sweep must exercise both accepts and rejects.
#[test]
fn mutation_sweep_verdicts_match_the_cpu_oracle() {
    let mutations_per_message = if cfg!(feature = "slow-tests") {
        210 * 16
    } else {
        210
    };
    let suite = generate_suite(8, 0xC0DE);
    let mut rng = StdRng::seed_from_u64(0xFA57_D1FF);
    let mut report = DiffReport::default();
    for bench in &suite {
        let mut h = FastpathHarness::new(&bench.schema, bench.type_id);
        for (mi, message) in bench.messages.iter().enumerate() {
            let wire = reference::encode(message, &bench.schema).unwrap();
            h.observe(
                &format!("{}/m{mi}/clean", bench.profile.name),
                &wire,
                &mut report,
            );
            for trial in 0..mutations_per_message {
                let (fault, mutated) = mutate(&wire, &mut rng);
                h.observe(
                    &format!("{}/m{mi}/t{trial}/{}", bench.profile.name, fault.label()),
                    &mutated,
                    &mut report,
                );
            }
        }
    }
    assert!(report.is_clean(), "{}", report.summary());
    assert!(
        report.trials >= 10_000,
        "only {} trials — the sweep shrank below its 10k floor",
        report.trials
    );
    assert!(report.accepted > 0, "{}", report.summary());
    assert!(report.rejected > 0, "{}", report.summary());
}

/// Depth bomb through the fast path: typed `DepthExceeded` on both sides,
/// bounded work, no stack exhaustion.
#[test]
fn depth_bomb_is_rejected_with_depth_exceeded_on_both_sides() {
    let schema = load("storage_row.proto");
    let row_id = schema.id_by_name("Row").unwrap();
    let mut h = FastpathHarness::new(&schema, row_id);
    let (fast, cpu) = h.verdicts(&depth_bomb(15, 300));
    assert_eq!(fast, Verdict::Reject(DecodeFault::DepthExceeded));
    assert_eq!(cpu, Verdict::Reject(DecodeFault::DepthExceeded));
    let (fast, cpu) = h.verdicts(&depth_bomb(15, 10));
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
}

/// Minimized regression (divergence sweep): a packed element whose varint
/// runs into the byte after the declared packed body must be `Truncated` on
/// both engines — never completed from the next field's bytes.
#[test]
fn packed_body_clamp_verdicts_agree() {
    let schema =
        parse_proto("message P { repeated sint32 v = 7 [packed = true]; optional int32 a = 1; }")
            .unwrap();
    let type_id = schema.id_by_name("P").unwrap();
    let mut h = FastpathHarness::new(&schema, type_id);
    // key(7, LD)=0x3a, body len 1, element byte 0x96 (continuation bit set),
    // then a valid `a = 5` field the clamped element must NOT consume.
    let bytes = [0x3a, 0x01, 0x96, 0x08, 0x05];
    let (fast, cpu) = h.verdicts(&bytes);
    assert_eq!(fast, cpu, "packed clamp: {fast:?} vs {cpu:?}");
    assert!(
        !fast.is_accept(),
        "a clamped mid-varint element must reject"
    );
    // And the well-formed variant accepts on both.
    let ok = [0x3a, 0x02, 0x96, 0x01, 0x08, 0x05];
    let (fast, cpu) = h.verdicts(&ok);
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
}

/// Minimized regression (divergence sweep): overlong-but-terminated varint
/// field payloads (redundant continuation bytes, 10-byte encodings of small
/// values) must decode to the same value on both engines.
#[test]
fn overlong_varint_payloads_agree() {
    let schema = parse_proto("message O { optional uint64 v = 1; optional int32 w = 2; }").unwrap();
    let type_id = schema.id_by_name("O").unwrap();
    let codec = FastCodec::new(&schema);
    let mut h = FastpathHarness::new(&schema, type_id);
    // v = 5 encoded in exactly 10 bytes, then w = -1 sign-extended (always
    // 10 bytes on the wire).
    let mut wire = vec![
        0x08, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
    ];
    wire.extend_from_slice(&[0x10]);
    wire.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
    let (fast, cpu) = h.verdicts(&wire);
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
    let mut arena = DecodeArena::new();
    let obj = codec.decode(type_id, &wire, &mut arena).unwrap();
    let back = codec.to_value(type_id, &wire, &arena, obj);
    assert_eq!(back.get_single(1), Some(&Value::UInt64(5)));
    assert_eq!(back.get_single(2), Some(&Value::Int32(-1)));
}

/// Minimized regression (divergence sweep): zigzag sign-extension extremes
/// stay byte- and value-identical across both engines at i32/i64 bounds.
#[test]
fn zigzag_extremes_are_byte_identical() {
    let schema = parse_proto(
        "message Z { optional sint32 a = 1; optional sint64 b = 2; \
         repeated sint32 pa = 3 [packed = true]; repeated sint64 pb = 4 [packed = true]; }",
    )
    .unwrap();
    let type_id = schema.id_by_name("Z").unwrap();
    let codec = FastCodec::new(&schema);
    let mut h = FastpathHarness::new(&schema, type_id);
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
    let wire = reference::encode(&m, &schema).unwrap();
    let (fast, cpu) = h.verdicts(&wire);
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
    let mut arena = DecodeArena::new();
    let obj = codec.decode(type_id, &wire, &mut arena).unwrap();
    let back = codec.to_value(type_id, &wire, &arena, obj);
    assert!(back.bits_eq(&m), "zigzag extremes diverge after round trip");
    assert_eq!(codec.encode_decoded(type_id, &wire, &arena, obj), wire);
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

/// Both engines accept `wire`; the fast path's value tree equals the
/// reference decoder's and `expected`, and re-serializes to the reference
/// encoding of that tree.
#[track_caller]
fn check_accepts_as(
    h: &mut FastpathHarness,
    schema: &Schema,
    wire: &[u8],
    expected: &MessageValue,
) {
    let (fast, cpu) = h.verdicts(wire);
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
    let type_id = expected.type_id();
    let oracle = reference::decode(wire, type_id, schema).expect("reference decodes");
    assert!(
        oracle.bits_eq(expected),
        "reference tree differs from expected"
    );
    let codec = h.codec();
    let mut arena = DecodeArena::new();
    let obj = codec.decode(type_id, wire, &mut arena).unwrap();
    let back = codec.to_value(type_id, wire, &arena, obj);
    assert!(back.bits_eq(expected), "fastpath tree differs: {back:?}");
    assert_eq!(
        codec.encode_decoded(type_id, wire, &arena, obj),
        reference::encode(expected, schema).unwrap(),
        "arena re-serialization differs"
    );
}

/// Both engines reject `wire` with `fault`.
#[track_caller]
fn check_rejects_as(h: &mut FastpathHarness, wire: &[u8], fault: DecodeFault) {
    let (fast, cpu) = h.verdicts(wire);
    assert_eq!(fast, cpu, "fastpath {fast:?} vs cpu {cpu:?}");
    assert_eq!(fast, Verdict::Reject(fault));
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
    let mut h = FastpathHarness::new(&schema, root);
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
    check_accepts_as(&mut h, &schema, &wire, &expected);

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
    check_accepts_as(&mut h, &schema, &wire, &expected);

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
    check_accepts_as(&mut h, &schema, &wire, &expected);
}

/// Runs under 2-byte keys (fields 16 to 19) decode like 1-byte-key runs,
/// for varint, bytes and both fixed widths, and re-encode through the
/// per-element path byte-identically.
#[test]
fn runs_under_two_byte_keys_agree() {
    let (schema, root) = runs_schema();
    let mut h = FastpathHarness::new(&schema, root);
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
    check_accepts_as(&mut h, &schema, &wire, &expected);
    check_message("2-byte-key runs", &schema, root, &expected);
    check_truncations("2-byte-key runs", &mut h, &wire, usize::MAX);
}

/// A run whose last element is cut gets the CPU decoder's verdict: at the
/// end of the input for each element kind, and at a sub-message's clamped
/// end with valid bytes after it that the element must not run into.
#[test]
fn runs_cut_at_a_frame_end_match_the_cpu_oracle() {
    let (schema, root) = runs_schema();
    let mut h = FastpathHarness::new(&schema, root);
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
        check_rejects_as(&mut h, &wire[..wire.len() - keep], fault);
        check_truncations("cut run", &mut h, wire, usize::MAX);
    }
    // Cut at a sub-message's clamped end: the Inner frame declares 4 bytes
    // ending in a varint with its continuation bit set, and a valid `a`
    // field follows that the element must not consume.
    let mut wire = Vec::new();
    put_ld_field(&mut wire, 7, &[0x08, 0x01, 0x08, 0x96]);
    put_varint_field(&mut wire, 1, 1);
    check_rejects_as(&mut h, &wire, DecodeFault::Truncated);
    // The same for a string run inside Inner: the frame ends inside the
    // second payload, and a valid field follows.
    let mut wire = Vec::new();
    put_ld_field(&mut wire, 7, &[0x12, 0x01, b'a', 0x12, 0x03, b'b']);
    put_varint_field(&mut wire, 1, 1);
    check_rejects_as(&mut h, &wire, DecodeFault::LengthOverrun);
}

/// Packed and unpacked arrivals of one field concatenate in arrival order,
/// for varint and fixed-width element types alike.
#[test]
fn packed_and_unpacked_arrivals_of_one_field_mix() {
    let (schema, root) = runs_schema();
    let mut h = FastpathHarness::new(&schema, root);
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
    check_accepts_as(&mut h, &schema, &wire, &expected);
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
    let mut h = FastpathHarness::new(&schema, root);
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
        check_accepts_as(&mut h, &schema, &wire, &split);

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
        check_accepts_as(&mut h, &schema, &wire, &expected);
    }
}

/// A run of one singular field stays last-one-wins, with and without other
/// fields between the arrivals.
#[test]
fn repeated_singular_field_is_last_one_wins() {
    let (schema, root) = runs_schema();
    let mut h = FastpathHarness::new(&schema, root);
    let mut wire = Vec::new();
    for v in [1, 2, 3] {
        put_varint_field(&mut wire, 3, v);
    }
    let mut expected = MessageValue::new(root);
    expected.set_unchecked(3, Value::Int64(3));
    check_accepts_as(&mut h, &schema, &wire, &expected);
    put_varint_field(&mut wire, 1, 5);
    put_varint_field(&mut wire, 3, u64::MAX);
    expected.set_repeated(1, vec![Value::Int32(5)]);
    expected.set_unchecked(3, Value::Int64(-1));
    check_accepts_as(&mut h, &schema, &wire, &expected);
}

/// Runs of an unknown field are skipped every time (unknown keys are never
/// cached), and a truncated run member gets the same verdict on both sides.
#[test]
fn runs_of_an_unknown_field_are_skipped() {
    let (schema, root) = runs_schema();
    let mut h = FastpathHarness::new(&schema, root);
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
    check_accepts_as(&mut h, &schema, &wire, &expected);
    check_rejects_as(&mut h, &wire[..wire.len() - 3], DecodeFault::Truncated);
}

/// A field number whose key is cached, arriving again with a different
/// wire type, is a `WireTypeMismatch` — the cache is keyed on the raw key,
/// wire type included.
#[test]
fn cached_field_with_the_wrong_wire_type_mismatches() {
    let (schema, root) = runs_schema();
    let mut h = FastpathHarness::new(&schema, root);
    // Repeated `a` (varint), then a fixed64 arrival of field 1.
    let mut wire = Vec::new();
    put_varint_field(&mut wire, 1, 1);
    put_varint_field(&mut wire, 1, 2);
    put_key(&mut wire, 1, 1);
    wire.extend_from_slice(&[0; 8]);
    check_rejects_as(&mut h, &wire, DecodeFault::WireTypeMismatch);
    // Singular `s` (varint), then a length-delimited arrival of field 3:
    // not packable, so not a packed body either.
    let mut wire = Vec::new();
    put_varint_field(&mut wire, 3, 1);
    put_varint_field(&mut wire, 3, 2);
    put_ld_field(&mut wire, 3, &[1]);
    check_rejects_as(&mut h, &wire, DecodeFault::WireTypeMismatch);
    // Unpacked sfixed64 `g`, then a fixed32 arrival of field 6.
    let mut wire = Vec::new();
    for _ in 0..2 {
        put_key(&mut wire, 6, 1);
        wire.extend_from_slice(&(-1i64).to_le_bytes());
    }
    put_key(&mut wire, 6, 5);
    wire.extend_from_slice(&[0; 4]);
    check_rejects_as(&mut h, &wire, DecodeFault::WireTypeMismatch);
}

/// Packed fixed32/fixed64 bodies whose length is not a multiple of the
/// element width are `Truncated` on both sides, even when a valid field
/// follows the body; whole multiples accept.
#[test]
fn ragged_packed_fixed_bodies_are_truncated() {
    let (schema, root) = runs_schema();
    let mut h = FastpathHarness::new(&schema, root);
    for (number, width) in [(4u32, 4usize), (5, 8)] {
        for len in 1..=3 * width {
            let body: Vec<u8> = (0..len as u8).collect();
            let mut wire = Vec::new();
            put_ld_field(&mut wire, number, &body);
            put_varint_field(&mut wire, 1, 5);
            if len % width == 0 {
                let (fast, cpu) = h.verdicts(&wire);
                assert!(
                    fast.is_accept() && cpu.is_accept(),
                    "{number}/{len}: {fast:?} / {cpu:?}"
                );
            } else {
                check_rejects_as(&mut h, &wire, DecodeFault::Truncated);
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
    check_message("packed fixed arrays", &schema, type_id, &m);
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
        check_message(
            &format!("hasbit words, mask {mask:#b}"),
            &schema,
            type_id,
            &m,
        );
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
        check_message(&format!("sparse, mask {mask:#b}"), &schema, type_id, &m);
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
    let mut h = FastpathHarness::new(&runs, root);
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
        check_rejects_as(&mut h, bad, DecodeFault::Truncated);
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
