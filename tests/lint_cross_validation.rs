//! Cross-validates `protoacc-lint`'s static predictions against the
//! behavioral model:
//!
//! * simulated deserialization cycles stay inside the static envelope
//!   [`Envelope::bounds`] that the diagnostics read;
//! * the instance-level spill predicate agrees exactly with the simulator's
//!   `stack_spills` counter (zero false positives, zero false negatives);
//! * lint-clean schemas take zero spill cycles.
//!
//! Also holds the satellite edge-case matrix: the maximum field number
//! (536,870,911), nesting at and one past the stack depth, empty messages,
//! and packed repeated scalars — each asserting the lint verdict AND
//! simulator agreement.

mod common;

use common::{chain_instance, chain_schema, load, measure};
use protoacc_suite::absint::Envelope;
use protoacc_suite::accel::AccelConfig;
use protoacc_suite::lint::{lint_schema, predicts_spill, DiagCode, LintConfig, Severity};
use protoacc_suite::mem::MemConfig;
use protoacc_suite::runtime::{MessageLayouts, MessageValue, Value};
use protoacc_suite::schema::{parse_proto, MessageId, Schema};

/// One cross-validation step: simulate, then check every static claim the
/// analyzer makes about this (schema, instance, config) triple.
fn check_predictions(schema: &Schema, message: &MessageValue, config: AccelConfig, label: &str) {
    let run = measure(schema, message, &config, false);
    let b = deser_envelope(schema, message.type_id(), config).bounds(run.wire_len, 1);
    assert!(
        b.contains(run.deser_cycles),
        "{label}: simulated {} cycles outside the static envelope [{}, {}] \
         ({} wire bytes)",
        run.deser_cycles,
        b.lower,
        b.upper,
        run.wire_len
    );
    let predicted = predicts_spill(message, &config);
    assert_eq!(
        predicted,
        run.stack_spills > 0,
        "{label}: lint predicted spill={predicted} but the simulator counted {} \
         spills (instance depth {}, stack depth {})",
        run.stack_spills,
        message.depth(),
        config.stack_depth
    );
}

fn deser_envelope(schema: &Schema, id: MessageId, config: AccelConfig) -> Envelope {
    let layouts = MessageLayouts::compute(schema);
    Envelope::deser(schema, &layouts, id, &config, &MemConfig::default())
}

// ---------------------------------------------------------------------------
// Corpus: realistic schemas, strings/bytes/sub-messages everywhere.
// ---------------------------------------------------------------------------

#[test]
fn corpus_respects_bounds_and_never_spills() {
    let config = AccelConfig::default();
    for (file, message) in corpus_instances() {
        let schema = load(file);
        let message = message(&schema);
        // The corpus lints deny-free, and none of these instances nests past
        // the metadata stacks: the simulator must agree with zero spills.
        let report = lint_schema(&schema, &LintConfig::default());
        assert_eq!(report.deny_count(), 0, "{file} must stay deny-free");
        check_predictions(&schema, &message, config, file);
        assert!(
            !predicts_spill(&message, &config),
            "{file} instance is shallow"
        );
    }
}

/// Lint-clean types (no PA001 at any severity) can never spill, whatever
/// the instance: their static nesting depth bounds every instance's depth.
#[test]
fn lint_clean_types_take_zero_spill_cycles() {
    let config = AccelConfig::default();
    for (file, message) in corpus_instances() {
        let schema = load(file);
        let message = message(&schema);
        let report = lint_schema(&schema, &LintConfig::default());
        let root_name = schema.message(message.type_id()).name().to_string();
        let clean_of_pa001 = !report
            .with_code(DiagCode::StackSpill)
            .any(|d| d.message_type == root_name);
        let run = measure(&schema, &message, &config, false);
        if clean_of_pa001 {
            assert_eq!(run.stack_spills, 0, "{file}: lint-clean type spilled");
        }
    }
}

type Builder = fn(&Schema) -> MessageValue;

fn corpus_instances() -> Vec<(&'static str, Builder)> {
    vec![
        ("addressbook.proto", build_addressbook as Builder),
        ("telemetry.proto", build_scrape as Builder),
        ("storage_row.proto", build_tablet as Builder),
    ]
}

fn build_addressbook(schema: &Schema) -> MessageValue {
    let person_id = schema.id_by_name("Person").unwrap();
    let phone_id = schema.id_by_name("Person.PhoneNumber").unwrap();
    let book_id = schema.id_by_name("AddressBook").unwrap();
    let mut people = Vec::new();
    for i in 0..3 {
        let mut phone = MessageValue::new(phone_id);
        phone.set_unchecked(1, Value::Str(format!("+1-555-010{i}")));
        phone.set_unchecked(2, Value::Enum(i % 2));
        let mut person = MessageValue::new(person_id);
        person.set_unchecked(1, Value::Str(format!("Person {i}")));
        person.set_unchecked(2, Value::Int32(i + 1));
        person.set_repeated(4, vec![Value::Message(phone)]);
        people.push(Value::Message(person));
    }
    let mut book = MessageValue::new(book_id);
    book.set_repeated(1, people);
    book
}

fn build_scrape(schema: &Schema) -> MessageValue {
    let point_id = schema.id_by_name("Point").unwrap();
    let series_id = schema.id_by_name("TimeSeries").unwrap();
    let batch_id = schema.id_by_name("ScrapeBatch").unwrap();
    let points = (0..5)
        .map(|i| {
            let mut p = MessageValue::new(point_id);
            p.set_unchecked(1, Value::Fixed64(2_000_000 + i));
            p.set_unchecked(2, Value::Double(i as f64 * 0.25));
            Value::Message(p)
        })
        .collect();
    let mut series = MessageValue::new(series_id);
    series.set_unchecked(1, Value::Str("mem.rss".into()));
    series.set_repeated(3, points);
    // Packed doubles and varints: the PA005-flagged fields.
    series.set_repeated(12, vec![Value::Double(0.5), Value::Double(0.99)]);
    series.set_repeated(13, (0..12).map(Value::Int64).collect());
    let mut batch = MessageValue::new(batch_id);
    batch.set_unchecked(1, Value::Fixed64(4242));
    batch.set_repeated(2, vec![Value::Message(series)]);
    batch
}

fn build_tablet(schema: &Schema) -> MessageValue {
    let row_id = schema.id_by_name("Row").unwrap();
    let tablet_id = schema.id_by_name("Tablet").unwrap();
    // Chain the recursive tombstone_shadow field several levels deep — but
    // still comfortably inside the 25-frame stacks.
    let mut row = MessageValue::new(row_id);
    row.set_unchecked(1, Value::Bytes(b"innermost".to_vec()));
    for i in 0..6 {
        let mut outer = MessageValue::new(row_id);
        outer.set_unchecked(1, Value::Bytes(format!("row-{i}").into_bytes()));
        outer.set_unchecked(15, Value::Message(row));
        row = outer;
    }
    let mut tablet = MessageValue::new(tablet_id);
    tablet.set_unchecked(1, Value::Str("t".into()));
    tablet.set_repeated(2, vec![Value::Message(row)]);
    tablet
}

// ---------------------------------------------------------------------------
// Edge cases (satellite matrix).
// ---------------------------------------------------------------------------

/// Nesting exactly at the stack depth leaves the stacks full but unspilled;
/// one more level spills — and the lint predicate flips at the same point.
#[test]
fn nesting_at_and_past_stack_depth_agrees_with_simulator() {
    // A shallow custom stack keeps the simulated objects small; the
    // invariant is depth-relative, not tied to the paper's 25.
    let config = AccelConfig {
        stack_depth: 4,
        ..AccelConfig::default()
    };
    let schema = chain_schema(8);
    for depth in 1..=6 {
        let message = chain_instance(&schema, depth);
        assert_eq!(message.depth(), depth);
        check_predictions(&schema, &message, config, &format!("chain depth {depth}"));
    }
    // Spot-check the boundary explicitly.
    let at = measure(&schema, &chain_instance(&schema, 4), &config, false);
    assert_eq!(at.stack_spills, 0, "at stack_depth: no spill");
    let past = measure(&schema, &chain_instance(&schema, 5), &config, false);
    assert!(past.stack_spills > 0, "past stack_depth: spills");
}

/// The default 25-frame configuration spills at depth 26, exactly as PA001's
/// deny condition states for a schema whose finite depth is 26.
#[test]
fn default_stack_depth_boundary() {
    let config = AccelConfig::default();
    let depth = config.stack_depth + 1;
    let schema = chain_schema(depth);
    let report = lint_schema(&schema, &LintConfig::default());
    let deny: Vec<_> = report
        .with_code(DiagCode::StackSpill)
        .filter(|d| d.severity == Severity::Deny)
        .collect();
    assert_eq!(deny.len(), 1, "only M0 reaches past the stacks: {deny:?}");

    check_predictions(
        &schema,
        &chain_instance(&schema, depth - 1),
        config,
        "at depth",
    );
    check_predictions(
        &schema,
        &chain_instance(&schema, depth),
        config,
        "past depth",
    );
    assert!(predicts_spill(&chain_instance(&schema, depth), &config));
}

#[test]
fn empty_message_costs_only_the_dispatch_floor() {
    let config = AccelConfig::default();
    let schema = parse_proto("message Empty {}").unwrap();
    let id = schema.id_by_name("Empty").unwrap();
    let report = lint_schema(&schema, &LintConfig::default());
    assert!(report.is_clean(), "{:?}", report.diagnostics);

    // Zero wire bytes: the dispatch plus the root ADT load and close.
    let floor = deser_envelope(&schema, id, config).lower_bound(0);
    assert_eq!(floor, config.rocc_dispatch_cycles + 2);

    let message = MessageValue::new(id);
    let run = measure(&schema, &message, &config, false);
    assert_eq!(run.wire_len, 0);
    check_predictions(&schema, &message, config, "empty message");
}

#[test]
fn max_field_number_lints_wide_key_and_round_trips() {
    let config = AccelConfig::default();
    let schema =
        parse_proto("message Extreme { optional uint64 lo = 1; optional uint64 hi = 536870911; }")
            .unwrap();
    let id = schema.id_by_name("Extreme").unwrap();
    let report = lint_schema(&schema, &LintConfig::default());
    assert_eq!(report.with_code(DiagCode::WideKey).count(), 1);

    let mut message = MessageValue::new(id);
    message.set_unchecked(1, Value::UInt64(1));
    message.set_unchecked(536_870_911, Value::UInt64(u64::MAX));
    check_predictions(&schema, &message, config, "max field number");
}

#[test]
fn packed_repeated_scalars_lint_window_starve_and_respect_bound() {
    let config = AccelConfig::default();
    let schema = parse_proto(
        "message Packed { repeated uint32 a = 1 [packed = true]; \
         repeated fixed64 b = 2 [packed = true]; }",
    )
    .unwrap();
    let id = schema.id_by_name("Packed").unwrap();
    let report = lint_schema(&schema, &LintConfig::default());
    assert_eq!(report.with_code(DiagCode::WindowStarve).count(), 2);

    let mut message = MessageValue::new(id);
    message.set_repeated(1, (0..64).map(Value::UInt32).collect());
    message.set_repeated(2, (0..32).map(Value::Fixed64).collect());
    check_predictions(&schema, &message, config, "packed scalars");
}

/// Scalar-only schemas activate the FSM term of the floor (four cycles per
/// record of at most 11 bytes): verify the simulator still clears it on
/// dense small records, where the floor is tightest.
#[test]
fn scalar_only_schema_respects_the_fsm_floor() {
    let config = AccelConfig::default();
    let schema = parse_proto(
        "message Flat { optional uint32 a = 1; optional uint64 b = 2; \
         optional bool c = 3; optional fixed32 d = 4; optional sint64 e = 5; }",
    )
    .unwrap();
    let id = schema.id_by_name("Flat").unwrap();
    let floor = deser_envelope(&schema, id, config).lower_bound(1100);
    assert!(
        floor >= config.rocc_dispatch_cycles + 2 + 4 * 100,
        "all fields bounded: floor {floor}"
    );

    let mut message = MessageValue::new(id);
    message.set_unchecked(1, Value::UInt32(1));
    message.set_unchecked(2, Value::UInt64(u64::MAX));
    message.set_unchecked(3, Value::Bool(true));
    message.set_unchecked(4, Value::Fixed32(0xFFFF_FFFF));
    message.set_unchecked(5, Value::SInt64(i64::MIN));
    check_predictions(&schema, &message, config, "scalar-only message");
}
