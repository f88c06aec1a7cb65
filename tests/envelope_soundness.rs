//! Soundness of the two-sided cycle envelopes of `protoacc-absint`, the
//! workspace's one static cycle model: for every fixture schema, randomized
//! hyperbench service, fleet-traffic prototype and Fig 11 microbenchmark,
//! the simulator's measured deserialization AND serialization cycles must
//! sit inside the statically derived `[lower, upper]` envelope. Warm
//! microbenchmark runs, whose caches and TLBs are hot, must still pay the
//! floor on every operation.
//!
//! Also covers the edge matrix — nesting at/past the metadata stack depth
//! (spill cycles must stay under the ceiling) and the maximum field number
//! 536,870,911 — and checks that the floor is never weaker than the RoCC
//! dispatch plus the memloader streaming one window per cycle.

mod common;

use common::{chain_instance, chain_schema, load, measure};
use protoacc_suite::absint::Envelope;
use protoacc_suite::accel::AccelConfig;
use protoacc_suite::bench::serving::fleet_mix;
use protoacc_suite::bench::ubench::{alloc_workloads, nonalloc_workloads};
use protoacc_suite::bench::{systems, Workload};
use protoacc_suite::hyperbench::{Generator, ServiceProfile};
use protoacc_suite::mem::MemConfig;
use protoacc_suite::runtime::{MessageLayouts, MessageValue, Value};
use protoacc_suite::schema::{parse_proto, Schema};
use protoacc_suite::xrand::StdRng;

/// Full envelope check for one (schema, instance, config) triple.
fn check_envelopes(schema: &Schema, message: &MessageValue, config: &AccelConfig, label: &str) {
    let mem_cfg = MemConfig::default();
    let layouts = MessageLayouts::compute(schema);
    let id = message.type_id();
    let deser_env = Envelope::deser(schema, &layouts, id, config, &mem_cfg);
    let ser_env = Envelope::ser(schema, &layouts, id, config, &mem_cfg);

    let m = measure(schema, message, config, true);
    let ser_cycles = m.ser_cycles.expect("the serializer ran");
    let db = deser_env.bounds(m.wire_len, 1);
    assert!(
        db.contains(m.deser_cycles),
        "{label}: deser {} cycles outside [{}, {}] at {} wire bytes",
        m.deser_cycles,
        db.lower,
        db.upper,
        m.wire_len
    );
    let sb = ser_env.bounds(m.wire_len, 1);
    assert!(
        sb.contains(ser_cycles),
        "{label}: ser {ser_cycles} cycles outside [{}, {}] at {} wire bytes",
        sb.lower,
        sb.upper,
        m.wire_len
    );
}

// ---------------------------------------------------------------------------
// Fixture corpus.
// ---------------------------------------------------------------------------

#[test]
fn addressbook_fixture_stays_inside_both_envelopes() {
    let schema = load("addressbook.proto");
    let person_id = schema.id_by_name("Person").unwrap();
    let phone_id = schema.id_by_name("Person.PhoneNumber").unwrap();
    let book_id = schema.id_by_name("AddressBook").unwrap();
    let mut people = Vec::new();
    for i in 0..4 {
        let mut phone = MessageValue::new(phone_id);
        phone.set_unchecked(1, Value::Str(format!("+44-20-7946-{i:04}")));
        phone.set_unchecked(2, Value::Enum(i % 3));
        let mut person = MessageValue::new(person_id);
        person.set_unchecked(1, Value::Str(format!("Envelope Tester {i}")));
        person.set_unchecked(2, Value::Int32(100 + i));
        person.set_repeated(4, vec![Value::Message(phone)]);
        people.push(Value::Message(person));
    }
    let mut book = MessageValue::new(book_id);
    book.set_repeated(1, people);
    check_envelopes(&schema, &book, &AccelConfig::default(), "addressbook");
}

#[test]
fn telemetry_fixture_stays_inside_both_envelopes() {
    let schema = load("telemetry.proto");
    let point_id = schema.id_by_name("Point").unwrap();
    let series_id = schema.id_by_name("TimeSeries").unwrap();
    let batch_id = schema.id_by_name("ScrapeBatch").unwrap();
    let points = (0..8)
        .map(|i| {
            let mut p = MessageValue::new(point_id);
            p.set_unchecked(1, Value::Fixed64(9_000_000 + i));
            p.set_unchecked(2, Value::Double(i as f64 * 1.5));
            Value::Message(p)
        })
        .collect();
    let mut series = MessageValue::new(series_id);
    series.set_unchecked(1, Value::Str("disk.io.await".into()));
    series.set_repeated(3, points);
    series.set_repeated(12, (0..16).map(|i| Value::Double(i as f64)).collect());
    series.set_repeated(13, (0..32).map(Value::Int64).collect());
    let mut batch = MessageValue::new(batch_id);
    batch.set_unchecked(1, Value::Fixed64(7));
    batch.set_repeated(2, vec![Value::Message(series)]);
    check_envelopes(&schema, &batch, &AccelConfig::default(), "telemetry");
}

#[test]
fn storage_row_fixture_stays_inside_both_envelopes() {
    let schema = load("storage_row.proto");
    let row_id = schema.id_by_name("Row").unwrap();
    let tablet_id = schema.id_by_name("Tablet").unwrap();
    let mut row = MessageValue::new(row_id);
    row.set_unchecked(1, Value::Bytes(b"leaf".to_vec()));
    for i in 0..5 {
        let mut outer = MessageValue::new(row_id);
        outer.set_unchecked(1, Value::Bytes(format!("shadow-{i}").into_bytes()));
        outer.set_unchecked(15, Value::Message(row));
        row = outer;
    }
    let mut tablet = MessageValue::new(tablet_id);
    tablet.set_unchecked(1, Value::Str("tablet-0".into()));
    tablet.set_repeated(2, vec![Value::Message(row)]);
    check_envelopes(&schema, &tablet, &AccelConfig::default(), "storage_row");
}

// ---------------------------------------------------------------------------
// Randomized populations.
// ---------------------------------------------------------------------------

/// xrand-randomized hyperbench services: six schema shapes, several seeds,
/// every generated message checked in both directions.
#[test]
fn randomized_hyperbench_messages_stay_inside_envelopes() {
    use protoacc_suite::xrand::Rng;
    let mut seed_rng = StdRng::seed_from_u64(0xE57E_107E);
    for service in 0..6 {
        for round in 0..2 {
            let seed = seed_rng.gen::<u64>();
            let bench = Generator::new(ServiceProfile::bench(service), seed).generate(2);
            for (i, m) in bench.messages.iter().enumerate() {
                check_envelopes(
                    &bench.schema,
                    m,
                    &AccelConfig::default(),
                    &format!("hyperbench service {service} round {round} msg {i}"),
                );
            }
        }
    }
}

/// The serve workload's own prototype population: every fleet-traffic
/// prototype of the serving studies' mix seed is bracketed in both
/// directions.
#[test]
fn traffic_mix_prototypes_stay_inside_envelopes() {
    let mix = fleet_mix(12);
    for (i, p) in mix.prototypes.iter().enumerate() {
        check_envelopes(
            &mix.schema,
            &p.message,
            &AccelConfig::default(),
            &format!("traffic prototype {i}"),
        );
    }
}

/// Every Fig 11 microbenchmark workload (13 non-allocating, 20
/// allocating). Each repeats one message, so one message covers its cold
/// op in both directions.
fn microbenchmarks() -> Vec<Workload> {
    let workloads: Vec<Workload> = nonalloc_workloads()
        .into_iter()
        .chain(alloc_workloads())
        .collect();
    assert_eq!(workloads.len(), 33);
    workloads
}

#[test]
fn microbenchmark_messages_stay_inside_both_envelopes() {
    for w in microbenchmarks() {
        check_envelopes(&w.schema, &w.messages[0], &AccelConfig::default(), &w.name);
    }
}

/// The harness's warm runs (one warm-up pass, then the timed passes over
/// the whole workload volume) still pay the floor on every operation.
#[test]
fn warm_microbenchmark_runs_pay_the_floor_per_operation() {
    let accel = AccelConfig::default();
    let mem_cfg = MemConfig::default();
    for w in microbenchmarks() {
        let layouts = MessageLayouts::compute(&w.schema);
        let msg_len = w.wire_bytes() / w.messages.len() as u64;
        for (direction, env) in [
            (
                systems::Direction::Deserialize,
                Envelope::deser(&w.schema, &layouts, w.type_id, &accel, &mem_cfg),
            ),
            (
                systems::Direction::Serialize,
                Envelope::ser(&w.schema, &layouts, w.type_id, &accel, &mem_cfg),
            ),
        ] {
            let m = systems::measure(accel, &w, direction);
            let ops = m.wire_bytes / msg_len;
            let floor = ops * env.lower_bound(msg_len);
            assert!(
                m.cycles >= floor,
                "{} {direction:?}: {} cycles for {ops} ops of {msg_len} B beat the floor {floor}",
                w.name,
                m.cycles
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Edge matrix.
// ---------------------------------------------------------------------------

/// Nesting at the stack depth (no spill), and one past it (every push
/// spills): the spill cycles must stay under the static ceiling, and the
/// floor must hold on the tiny spilling input too.
#[test]
fn stack_depth_boundary_stays_inside_envelopes() {
    let config = AccelConfig::default();
    let chain_len = config.stack_depth + 1;
    let schema = chain_schema(chain_len);
    for depth in [config.stack_depth - 1, config.stack_depth, chain_len] {
        let message = chain_instance(&schema, depth);
        assert_eq!(message.depth(), depth);
        check_envelopes(&schema, &message, &config, &format!("chain depth {depth}"));
    }
}

/// The maximum legal field number (2^29 - 1) forces 5-byte wire keys and
/// the widest descriptor span. The serializer frontend scans the whole
/// span, so simulating it takes minutes; the deserializer does not, so the
/// deser envelope is checked at the true maximum and the two-sided check
/// runs on a still-PA002-wide but simulable span.
#[test]
fn max_field_number_stays_inside_deser_envelope() {
    let config = AccelConfig::default();
    let mem_cfg = MemConfig::default();
    let schema =
        parse_proto("message Extreme { optional uint64 lo = 1; optional uint64 hi = 536870911; }")
            .unwrap();
    let id = schema.id_by_name("Extreme").unwrap();
    let mut message = MessageValue::new(id);
    message.set_unchecked(1, Value::UInt64(1));
    message.set_unchecked(536_870_911, Value::UInt64(u64::MAX));

    let run = measure(&schema, &message, &config, false);

    let layouts = MessageLayouts::compute(&schema);
    let env = Envelope::deser(&schema, &layouts, id, &config, &mem_cfg);
    let b = env.bounds(run.wire_len, 1);
    assert!(
        b.contains(run.deser_cycles),
        "max field number: deser {} cycles outside [{}, {}]",
        run.deser_cycles,
        b.lower,
        b.upper
    );
}

/// A wide-but-simulable field number (still far past the 2-byte key fast
/// path) gets the full two-sided check in both directions.
#[test]
fn wide_field_number_stays_inside_both_envelopes() {
    let schema =
        parse_proto("message Wide { optional uint64 lo = 1; optional uint64 hi = 300000; }")
            .unwrap();
    let id = schema.id_by_name("Wide").unwrap();
    let mut message = MessageValue::new(id);
    message.set_unchecked(1, Value::UInt64(1));
    message.set_unchecked(300_000, Value::UInt64(u64::MAX));
    check_envelopes(
        &schema,
        &message,
        &AccelConfig::default(),
        "wide field number",
    );
}

#[test]
fn empty_message_envelope_is_tight_at_zero_bytes() {
    let schema = parse_proto("message Empty {}").unwrap();
    let id = schema.id_by_name("Empty").unwrap();
    let message = MessageValue::new(id);
    check_envelopes(&schema, &message, &AccelConfig::default(), "empty message");
}

/// Emits the envelope-tightness table of EXPERIMENTS.md: per fixture root
/// type, the `[lower, upper]` envelopes at the measured wire length, the
/// measured cycles, and the upper/lower ratio. Run with
/// `cargo test --test envelope_soundness -- --ignored --nocapture`.
#[test]
#[ignore = "report generator, not a check"]
fn envelope_tightness_report() {
    let accel = AccelConfig::default();
    let mem_cfg = MemConfig::default();
    let fixtures: Vec<(&str, Schema, MessageValue)> = vec![
        {
            let schema = load("addressbook.proto");
            let person_id = schema.id_by_name("Person").unwrap();
            let book_id = schema.id_by_name("AddressBook").unwrap();
            let mut person = MessageValue::new(person_id);
            person.set_unchecked(1, Value::Str("Report Person".into()));
            person.set_unchecked(2, Value::Int32(1));
            let mut book = MessageValue::new(book_id);
            book.set_repeated(1, vec![Value::Message(person)]);
            ("AddressBook", schema, book)
        },
        {
            let schema = load("telemetry.proto");
            let series_id = schema.id_by_name("TimeSeries").unwrap();
            let batch_id = schema.id_by_name("ScrapeBatch").unwrap();
            let mut series = MessageValue::new(series_id);
            series.set_unchecked(1, Value::Str("cpu.user".into()));
            series.set_repeated(13, (0..16).map(Value::Int64).collect());
            let mut batch = MessageValue::new(batch_id);
            batch.set_unchecked(1, Value::Fixed64(1));
            batch.set_repeated(2, vec![Value::Message(series)]);
            ("ScrapeBatch", schema, batch)
        },
        {
            let schema = load("storage_row.proto");
            let row_id = schema.id_by_name("Row").unwrap();
            let tablet_id = schema.id_by_name("Tablet").unwrap();
            let mut row = MessageValue::new(row_id);
            row.set_unchecked(1, Value::Bytes(b"key".to_vec()));
            let mut tablet = MessageValue::new(tablet_id);
            tablet.set_unchecked(1, Value::Str("t".into()));
            tablet.set_repeated(2, vec![Value::Message(row)]);
            ("Tablet", schema, tablet)
        },
    ];
    println!("| fixture | wire B | deser [lo, hi] | measured | ratio | ser [lo, hi] | measured | ratio |");
    println!("|---|---|---|---|---|---|---|---|");
    for (name, schema, message) in &fixtures {
        let layouts = MessageLayouts::compute(schema);
        let id = message.type_id();
        let denv = Envelope::deser(schema, &layouts, id, &accel, &mem_cfg);
        let senv = Envelope::ser(schema, &layouts, id, &accel, &mem_cfg);
        let m = measure(schema, message, &accel, true);
        let db = denv.bounds(m.wire_len, 1);
        let sb = senv.bounds(m.wire_len, 1);
        println!(
            "| {name} | {} | [{}, {}] | {} | {:.0}x | [{}, {}] | {} | {:.0}x |",
            m.wire_len,
            db.lower,
            db.upper,
            m.deser_cycles,
            db.ratio(),
            sb.lower,
            sb.upper,
            m.ser_cycles.expect("the serializer ran"),
            sb.ratio()
        );
    }
}

// ---------------------------------------------------------------------------
// The floor is never weaker than dispatch plus streaming.
// ---------------------------------------------------------------------------

#[test]
fn absint_floor_dominates_the_streaming_floor_at_every_length() {
    let accel = AccelConfig::default();
    let mem_cfg = MemConfig::default();
    for file in ["addressbook.proto", "telemetry.proto", "storage_row.proto"] {
        let schema = load(file);
        let layouts = MessageLayouts::compute(&schema);
        for (id, msg) in schema.iter() {
            let env = Envelope::deser(&schema, &layouts, id, &accel, &mem_cfg);
            for len in [0u64, 1, 15, 16, 17, 255, 256, 4096, 1 << 20] {
                let stream = accel.rocc_dispatch_cycles + len.div_ceil(accel.window_bytes as u64);
                assert!(
                    env.lower_bound(len) >= stream,
                    "{file}/{}: absint floor {} < streaming floor {stream} at {len} bytes",
                    msg.name(),
                    env.lower_bound(len)
                );
            }
        }
    }
}
