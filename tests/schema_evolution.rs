//! Schema evolution (§2.1.1): "fields are numbered for stability across
//! field name changes, and fields may be optionally present" — old readers
//! must tolerate new writers and vice versa, on every system.

use protoacc_suite::faults::{Oracle, Verdict};
use protoacc_suite::runtime::{reference, MessageValue, Value};
use protoacc_suite::schema::parse_proto;

const V1: &str = r#"
    syntax = "proto2";
    message Record {
        required int64 id = 1;
        optional string name = 2;
    }
"#;

// V2 adds fields (7, 9), renames field 2, and widens the number range.
const V2: &str = r#"
    syntax = "proto2";
    message Record {
        required int64 id = 1;
        optional string display_name = 2;
        optional double score = 7;
        repeated string tags = 9;
    }
"#;

#[test]
fn new_writer_old_reader_skips_unknown_fields() {
    let v1 = parse_proto(V1).unwrap();
    let v2 = parse_proto(V2).unwrap();
    let v2_id = v2.id_by_name("Record").unwrap();
    let v1_id = v1.id_by_name("Record").unwrap();

    // Write with v2.
    let mut new_msg = MessageValue::new(v2_id);
    new_msg.set(1, Value::Int64(42)).unwrap();
    new_msg
        .set(2, Value::Str("renamed but same number".into()))
        .unwrap();
    new_msg.set(7, Value::Double(0.9)).unwrap();
    new_msg.set_repeated(9, vec![Value::Str("a".into()), Value::Str("b".into())]);
    let wire = reference::encode(&new_msg, &v2).unwrap();

    // Read with v1 (reference decoder): unknown fields 7 and 9 skipped,
    // field 2 still lands despite the rename.
    let old_view = reference::decode(&wire, v1_id, &v1).unwrap();
    assert_eq!(old_view.get_i64(1), Some(42));
    assert_eq!(old_view.get_str(2), Some("renamed but same number"));
    assert_eq!(old_view.present_fields(), 2);

    // Read with v1 on every codec: the same tree, and every re-encode
    // drops the unknown fields alike.
    let judgement = Oracle::new(&v1, v1_id).judge(&wire);
    assert_eq!(judgement.verdict(), Some(Verdict::Accept), "{judgement:?}");
    assert!(judgement.tree.unwrap().bits_eq(&old_view));
}

#[test]
fn old_writer_new_reader_sees_absent_fields() {
    let v1 = parse_proto(V1).unwrap();
    let v2 = parse_proto(V2).unwrap();
    let v1_id = v1.id_by_name("Record").unwrap();
    let v2_id = v2.id_by_name("Record").unwrap();

    let mut old_msg = MessageValue::new(v1_id);
    old_msg.set(1, Value::Int64(7)).unwrap();
    old_msg.set(2, Value::Str("v1 name".into())).unwrap();
    let wire = reference::encode(&old_msg, &v1).unwrap();

    let new_view = reference::decode(&wire, v2_id, &v2).unwrap();
    assert_eq!(new_view.get_i64(1), Some(7));
    assert_eq!(new_view.get_str(2), Some("v1 name"));
    assert_eq!(new_view.get_f64(7), None, "added field absent");
    assert!(new_view.get_repeated(9).is_empty());
    new_view
        .validate(&v2)
        .expect("valid under the new schema too");
}

#[test]
fn round_trip_through_old_schema_preserves_known_fields() {
    // v2 writer -> v1 reader -> v1 writer -> v2 reader: fields 1 and 2
    // survive; the v2-only fields are dropped by the v1 hop (no unknown-
    // field preservation in this runtime, matching its documented scope).
    let v1 = parse_proto(V1).unwrap();
    let v2 = parse_proto(V2).unwrap();
    let v1_id = v1.id_by_name("Record").unwrap();
    let v2_id = v2.id_by_name("Record").unwrap();
    let mut msg = MessageValue::new(v2_id);
    msg.set(1, Value::Int64(1)).unwrap();
    msg.set(2, Value::Str("kept".into())).unwrap();
    msg.set(7, Value::Double(1.5)).unwrap();
    let wire_v2 = reference::encode(&msg, &v2).unwrap();
    let as_v1 = reference::decode(&wire_v2, v1_id, &v1).unwrap();
    let wire_v1 = reference::encode(&as_v1, &v1).unwrap();
    let back = reference::decode(&wire_v1, v2_id, &v2).unwrap();
    assert_eq!(back.get_i64(1), Some(1));
    assert_eq!(back.get_str(2), Some("kept"));
    assert_eq!(back.get_f64(7), None);
}
