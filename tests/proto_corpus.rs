//! Parses the realistic `.proto` corpus in `protos/`, checks `protodb`
//! statistics, and drives populated messages, their truncations and a
//! depth bomb through the differential oracle for each schema.

mod common;

use common::load;
use protoacc_suite::accel::DecodeFault;
use protoacc_suite::faults::{depth_bomb, Oracle, Verdict};
use protoacc_suite::fleet::protodb::analyze_schema;
use protoacc_suite::runtime::{reference, MessageValue, Value};
use protoacc_suite::schema::Schema;

#[test]
fn addressbook_parses_with_nested_types_and_enums() {
    let schema = load("addressbook.proto");
    assert!(schema.message_by_name("Person").is_some());
    assert!(schema.message_by_name("Person.PhoneNumber").is_some());
    assert!(schema.message_by_name("AddressBook").is_some());
    let phones = schema
        .message_by_name("Person")
        .unwrap()
        .field_by_name("phones")
        .unwrap();
    assert!(phones.is_repeated());
    // Enum-typed field resolves to the Enum wire class.
    let ptype = schema
        .message_by_name("Person.PhoneNumber")
        .unwrap()
        .field_by_name("type")
        .unwrap();
    assert_eq!(ptype.field_type(), protoacc_suite::schema::FieldType::Enum);
}

#[test]
fn telemetry_stats_match_protodb_expectations() {
    let schema = load("telemetry.proto");
    let stats = analyze_schema(&schema);
    assert_eq!(stats.message_types, 4);
    assert_eq!(stats.packed_fields, 2);
    assert!(stats.max_field_number_span >= 120);
    assert!(
        stats.mean_static_density < 0.9,
        "{}",
        stats.mean_static_density
    );
}

#[test]
fn storage_row_is_recursive() {
    let schema = load("storage_row.proto");
    let row = schema.id_by_name("storage.is-not-a-name").is_none();
    assert!(row);
    let row_id = schema.id_by_name("Row").unwrap();
    // Row contains an optional Row (tombstone_shadow): recursion detected.
    assert_eq!(schema.nesting_depth(row_id, 50), None);
}

#[test]
fn corpus_schemas_round_trip_through_the_accelerator() {
    for (file, root, build) in corpus_messages() {
        let schema = load(file);
        let type_id = schema.id_by_name(root).unwrap_or_else(|| panic!("{root}"));
        let message = build(&schema);
        message.validate(&schema).expect("corpus message validates");
        // Every codec serializes the message byte-identically to the
        // reference and decodes those bytes back to it.
        let judgement = Oracle::new(&schema, type_id).judge_value(&message);
        assert_eq!(
            judgement.verdict(),
            Some(Verdict::Accept),
            "{file}: {judgement:?}"
        );
    }
}

type Builder = fn(&Schema) -> MessageValue;

fn corpus_messages() -> Vec<(&'static str, &'static str, Builder)> {
    vec![
        (
            "addressbook.proto",
            "AddressBook",
            build_addressbook as Builder,
        ),
        ("telemetry.proto", "ScrapeBatch", build_scrape as Builder),
        ("storage_row.proto", "Tablet", build_tablet as Builder),
    ]
}

fn build_addressbook(schema: &Schema) -> MessageValue {
    let person_id = schema.id_by_name("Person").unwrap();
    let phone_id = schema.id_by_name("Person.PhoneNumber").unwrap();
    let book_id = schema.id_by_name("AddressBook").unwrap();
    let mut people = Vec::new();
    for (i, name) in ["Ada Lovelace", "Alan Turing"].iter().enumerate() {
        let mut phone = MessageValue::new(phone_id);
        phone.set_unchecked(1, Value::Str(format!("+1-555-000{i}")));
        phone.set_unchecked(2, Value::Enum(i as i32));
        let mut person = MessageValue::new(person_id);
        person.set_unchecked(1, Value::Str((*name).to_owned()));
        person.set_unchecked(2, Value::Int32(i as i32 + 1));
        person.set_unchecked(3, Value::Str(format!("user{i}@example.com")));
        person.set_repeated(4, vec![Value::Message(phone)]);
        people.push(Value::Message(person));
    }
    let mut book = MessageValue::new(book_id);
    book.set_repeated(1, people);
    book
}

fn build_scrape(schema: &Schema) -> MessageValue {
    let label_id = schema.id_by_name("Label").unwrap();
    let point_id = schema.id_by_name("Point").unwrap();
    let series_id = schema.id_by_name("TimeSeries").unwrap();
    let batch_id = schema.id_by_name("ScrapeBatch").unwrap();
    let mut label = MessageValue::new(label_id);
    label.set_unchecked(1, Value::Str("job".into()));
    label.set_unchecked(2, Value::Str("protoacc".into()));
    let points = (0..6)
        .map(|i| {
            let mut p = MessageValue::new(point_id);
            p.set_unchecked(1, Value::Fixed64(1_000_000 + i));
            p.set_unchecked(2, Value::Double(i as f64 * 1.5));
            if i % 2 == 0 {
                p.set_unchecked(4, Value::SInt64(-(i as i64)));
            }
            Value::Message(p)
        })
        .collect();
    let mut series = MessageValue::new(series_id);
    series.set_unchecked(1, Value::Str("cpu.utilization".into()));
    series.set_repeated(2, vec![Value::Message(label)]);
    series.set_repeated(3, points);
    series.set_repeated(
        12,
        vec![Value::Double(0.5), Value::Double(0.9), Value::Double(0.99)],
    );
    series.set_repeated(13, (0..8).map(Value::Int64).collect());
    series.set_unchecked(100, Value::UInt64(0xFEED));
    series.set_unchecked(120, Value::Bool(true));
    let mut batch = MessageValue::new(batch_id);
    batch.set_unchecked(1, Value::Fixed64(999));
    batch.set_repeated(2, vec![Value::Message(series)]);
    batch.set_unchecked(3, Value::Str("collector-7".into()));
    batch.set_unchecked(4, Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]));
    batch
}

fn build_tablet(schema: &Schema) -> MessageValue {
    let cell_id = schema.id_by_name("Cell").unwrap();
    let family_id = schema.id_by_name("ColumnFamily").unwrap();
    let row_id = schema.id_by_name("Row").unwrap();
    let tablet_id = schema.id_by_name("Tablet").unwrap();
    let mut rows = Vec::new();
    for r in 0..3 {
        let cells = (0..4)
            .map(|c| {
                let mut cell = MessageValue::new(cell_id);
                cell.set_unchecked(1, Value::Bytes(vec![r as u8; 64 * (c + 1)]));
                cell.set_unchecked(2, Value::UInt64(1000 + c as u64));
                Value::Message(cell)
            })
            .collect();
        let mut family = MessageValue::new(family_id);
        family.set_unchecked(1, Value::Str("cf".into()));
        family.set_repeated(2, cells);
        let mut row = MessageValue::new(row_id);
        row.set_unchecked(1, Value::Bytes(format!("row-{r}").into_bytes()));
        row.set_repeated(2, vec![Value::Message(family)]);
        if r == 0 {
            // Exercise the recursive field one level deep.
            let mut shadow = MessageValue::new(row_id);
            shadow.set_unchecked(1, Value::Bytes(b"shadow".to_vec()));
            row.set_unchecked(15, Value::Message(shadow));
        }
        rows.push(Value::Message(row));
    }
    let mut tablet = MessageValue::new(tablet_id);
    tablet.set_unchecked(1, Value::Str("metrics_table".into()));
    tablet.set_repeated(2, rows);
    tablet.set_unchecked(3, Value::Bytes(vec![0xaa; 256]));
    tablet.set_unchecked(4, Value::Fixed64(77));
    tablet
}

/// Every prefix of every corpus message's encoding must decode or cleanly
/// error — never panic, never hang — and every codec must agree at every
/// cut point.
#[test]
fn corpus_wire_truncated_at_every_offset_errors_cleanly() {
    for (file, root, build) in corpus_messages() {
        let schema = load(file);
        let type_id = schema.id_by_name(root).unwrap_or_else(|| panic!("{root}"));
        let message = build(&schema);
        let wire = reference::encode(&message, &schema).unwrap();
        let mut oracle = Oracle::new(&schema, type_id);
        for cut in 0..wire.len() {
            let judgement = oracle.judge(&wire[..cut]);
            assert!(
                judgement.verdict().is_some(),
                "{file} truncated at byte {cut}/{}: {judgement:?}",
                wire.len()
            );
        }
        let judgement = oracle.judge(&wire);
        assert_eq!(
            judgement.verdict(),
            Some(Verdict::Accept),
            "{file}: untruncated wire must decode everywhere ({judgement:?})"
        );
    }
}

/// A recursion depth bomb on the storage schema's recursive field
/// (`Row.tombstone_shadow = 15`) must be rejected with the typed depth
/// fault by every decoder — bounded work, no stack exhaustion, no panic.
#[test]
fn storage_row_depth_bomb_is_rejected_with_depth_exceeded() {
    let schema = load("storage_row.proto");
    let row_id = schema.id_by_name("Row").unwrap();
    let mut oracle = Oracle::new(&schema, row_id);
    let bomb = oracle.judge(&depth_bomb(15, 300));
    assert_eq!(
        bomb.verdict(),
        Some(Verdict::Reject(DecodeFault::DepthExceeded)),
        "{bomb:?}"
    );
    // Under the limit the same nesting decodes fine everywhere.
    let shallow = oracle.judge(&depth_bomb(15, 10));
    assert_eq!(shallow.verdict(), Some(Verdict::Accept), "{shallow:?}");
}
