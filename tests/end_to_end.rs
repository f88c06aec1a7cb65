//! End-to-end integration: proto2 source text → schema → layouts → ADTs →
//! accelerator round trips, plus performance-ordering sanity across the
//! three systems.

use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
use protoacc_suite::bench::{measure, Direction, SystemKind, Workload};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{
    object, reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
};
use protoacc_suite::schema::parse_proto;

const PROTO_SOURCE: &str = r#"
    syntax = "proto2";
    package acme.telemetry;

    message Sample {
        required fixed64 timestamp_us = 1;
        required double value = 2;
        optional string unit = 3;
    }

    message Series {
        required string metric = 1;
        repeated Sample samples = 2;
        repeated int64 tags = 3 [packed = true];
        optional Series child = 9;
    }
"#;

fn build_series(schema: &protoacc_suite::schema::Schema, depth: usize) -> MessageValue {
    let series_id = schema.id_by_name("Series").unwrap();
    let sample_id = schema.id_by_name("Sample").unwrap();
    let mut series = MessageValue::new(series_id);
    series.set_unchecked(1, Value::Str(format!("cpu.util.depth{depth}")));
    let samples = (0..4)
        .map(|i| {
            let mut s = MessageValue::new(sample_id);
            s.set_unchecked(1, Value::Fixed64(1_700_000_000_000 + i));
            s.set_unchecked(2, Value::Double(i as f64 * 0.25));
            if i % 2 == 0 {
                s.set_unchecked(3, Value::Str("percent".into()));
            }
            Value::Message(s)
        })
        .collect();
    series.set_repeated(2, samples);
    series.set_repeated(3, (0..6).map(|i| Value::Int64(i * 1000 - 3)).collect());
    if depth > 0 {
        series.set_unchecked(9, Value::Message(build_series(schema, depth - 1)));
    }
    series
}

#[test]
fn proto_text_to_accelerator_round_trip() {
    let schema = parse_proto(PROTO_SOURCE).unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let series_id = schema.id_by_name("Series").unwrap();
    let message = build_series(&schema, 3);
    message.validate(&schema).unwrap();

    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(0x1_0000, 1 << 24);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.ser_assign_arena(0x4000_0000, 1 << 24, 0x7000_0000, 1 << 14);
    accel.deser_assign_arena(0x8000_0000, 1 << 24);

    // Serialize on the accelerator; verify byte identity with the reference.
    let obj =
        object::write_message(&mut mem.data, &schema, &layouts, &mut setup, &message).unwrap();
    let layout = layouts.layout(series_id);
    let ser = accel
        .do_proto_ser(
            &mut mem,
            adts.addr(series_id),
            obj,
            layout.hasbits_offset(),
            layout.min_field(),
            layout.max_field(),
        )
        .unwrap();
    let expect = reference::encode(&message, &schema).unwrap();
    assert_eq!(
        mem.data.read_vec(ser.out_addr, ser.out_len as usize),
        expect
    );

    // Deserialize the accelerator's own output back.
    let dest = setup.alloc(layout.object_size(), 8).unwrap();
    accel
        .do_proto_deser(
            &mut mem,
            adts.addr(series_id),
            ser.out_addr,
            ser.out_len,
            dest,
            layout.min_field(),
        )
        .unwrap();
    let back = object::read_message(&mem.data, &schema, &layouts, series_id, dest).unwrap();
    assert!(back.bits_eq(&message));

    // Stats reflect the work: nested series means stack pushes.
    let stats = accel.stats();
    assert!(stats.stack_pushes > 0);
    assert!(stats.varints > 0);
    assert_eq!(stats.ser_ops, 1);
    assert_eq!(stats.deser_ops, 1);
}

#[test]
fn performance_ordering_holds_on_a_representative_workload() {
    let schema = parse_proto(PROTO_SOURCE).unwrap();
    let series_id = schema.id_by_name("Series").unwrap();
    let messages = (0..12).map(|_| build_series(&schema, 1)).collect();
    let workload = Workload {
        name: "telemetry".into(),
        schema,
        type_id: series_id,
        messages,
    };
    for direction in [Direction::Deserialize, Direction::Serialize] {
        let boom = measure(SystemKind::RiscvBoom, &workload, direction);
        let xeon = measure(SystemKind::Xeon, &workload, direction);
        let accel = measure(SystemKind::RiscvBoomAccel, &workload, direction);
        // The paper's Figure 11/12/13 ordering on varint/submessage-heavy
        // workloads: accel > Xeon > BOOM.
        assert!(
            accel.gbits > xeon.gbits && xeon.gbits > boom.gbits,
            "{direction:?}: accel {:.2} xeon {:.2} boom {:.2}",
            accel.gbits,
            xeon.gbits,
            boom.gbits
        );
        // And the accelerated speedup is in the paper's order of magnitude.
        let speedup = accel.gbits / boom.gbits;
        assert!(
            (3.0..40.0).contains(&speedup),
            "{direction:?} speedup {speedup:.2}"
        );
    }
}

#[test]
fn batching_deserializations_matches_paper_api_flow() {
    // §4.4.1: the CPU can issue several deserializations back to back; each
    // command's run carries its own cycles.
    let schema = parse_proto(PROTO_SOURCE).unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let series_id = schema.id_by_name("Series").unwrap();
    let layout = layouts.layout(series_id);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(0x1_0000, 1 << 24);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup).unwrap();
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(0x8000_0000, 1 << 24);

    let mut inputs = Vec::new();
    let mut originals = Vec::new();
    let mut cursor = 0x2000_0000u64;
    for depth in 0..5 {
        let m = build_series(&schema, depth);
        let wire = reference::encode(&m, &schema).unwrap();
        mem.data.write_bytes(cursor, &wire);
        inputs.push((cursor, wire.len() as u64));
        originals.push(m);
        cursor += wire.len() as u64 + 32;
    }
    let mut dests = Vec::new();
    let mut total = 0;
    for &(addr, len) in &inputs {
        let dest = setup.alloc(layout.object_size(), 8).unwrap();
        let run = accel
            .do_proto_deser(
                &mut mem,
                adts.addr(series_id),
                addr,
                len,
                dest,
                layout.min_field(),
            )
            .unwrap();
        assert!(run.cycles > 0);
        total += run.cycles;
        dests.push(dest);
    }
    assert_eq!(total, accel.stats().deser_cycles);
    for (dest, original) in dests.iter().zip(&originals) {
        let back = object::read_message(&mem.data, &schema, &layouts, series_id, *dest).unwrap();
        assert!(back.bits_eq(original));
    }
}
