//! Tests for the Section 7 proto3-support path: UTF-8 validation of string
//! fields during deserialization.

use protoacc::{AccelConfig, AccelError, ProtoAccelerator};
use protoacc_mem::{MemConfig, Memory};
use protoacc_runtime::{object, write_adts, AdtTables, BumpArena, MessageLayouts, RuntimeError};
use protoacc_schema::{FieldType, MessageId, Schema, SchemaBuilder};
use protoacc_wire::WireWriter;

fn rig() -> (
    Schema,
    MessageLayouts,
    Memory,
    AdtTables,
    BumpArena,
    MessageId,
) {
    let mut b = SchemaBuilder::new();
    let id = b.define("M", |m| {
        m.optional("text", FieldType::String, 1)
            .optional("blob", FieldType::Bytes, 2);
    });
    let schema = b.build().unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut arena = BumpArena::new(0x1_0000, 1 << 22);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut arena).unwrap();
    (schema, layouts, mem, adts, arena, id)
}

fn deser(
    config: AccelConfig,
    mem: &mut Memory,
    adts: &AdtTables,
    arena: &mut BumpArena,
    layouts: &MessageLayouts,
    id: MessageId,
    wire: &[u8],
) -> Result<u64, AccelError> {
    mem.data.write_bytes(0x20_0000, wire);
    let dest = arena.alloc(layouts.layout(id).object_size(), 8).unwrap();
    let mut accel = ProtoAccelerator::new(config);
    accel.deser_assign_arena(0x100_0000, 1 << 22);
    accel.do_proto_deser(mem, adts.addr(id), 0x20_0000, wire.len() as u64, dest, 1)?;
    Ok(dest)
}

#[test]
fn proto2_mode_accepts_invalid_utf8_in_strings() {
    let (_, layouts, mut mem, adts, mut arena, id) = rig();
    let mut w = WireWriter::new();
    w.write_length_delimited_field(1, &[0xff, 0xfe]).unwrap();
    // proto2 (default): no validation — the bytes land in the string.
    let dest = deser(
        AccelConfig::default(),
        &mut mem,
        &adts,
        &mut arena,
        &layouts,
        id,
        w.as_bytes(),
    )
    .unwrap();
    let slot = layouts.layout(id).slot(1).unwrap().offset;
    let str_obj = mem.data.read_u64(dest + slot);
    assert_eq!(
        object::read_string_object(&mem.data, str_obj),
        vec![0xff, 0xfe]
    );
}

#[test]
fn proto3_mode_rejects_invalid_utf8_in_strings() {
    let (_, layouts, mut mem, adts, mut arena, id) = rig();
    let mut w = WireWriter::new();
    w.write_length_delimited_field(1, &[0xff, 0xfe]).unwrap();
    let config = AccelConfig {
        validate_utf8: true,
        ..AccelConfig::default()
    };
    let err = deser(
        config,
        &mut mem,
        &adts,
        &mut arena,
        &layouts,
        id,
        w.as_bytes(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        AccelError::Runtime(RuntimeError::InvalidUtf8 { field_number: 1 })
    ));
}

#[test]
fn proto3_mode_accepts_valid_utf8_and_any_bytes_field() {
    let (_, layouts, mut mem, adts, mut arena, id) = rig();
    let mut w = WireWriter::new();
    w.write_length_delimited_field(1, "δοκιμή with ascii".as_bytes())
        .unwrap();
    // bytes fields are never validated, even in proto3 mode.
    w.write_length_delimited_field(2, &[0xff, 0x80, 0x00])
        .unwrap();
    let config = AccelConfig {
        validate_utf8: true,
        ..AccelConfig::default()
    };
    let dest = deser(
        config,
        &mut mem,
        &adts,
        &mut arena,
        &layouts,
        id,
        w.as_bytes(),
    )
    .unwrap();
    let layout = layouts.layout(id);
    let text_obj = mem.data.read_u64(dest + layout.slot(1).unwrap().offset);
    assert_eq!(
        object::read_string_object(&mem.data, text_obj),
        "δοκιμή with ascii".as_bytes()
    );
    let blob_obj = mem.data.read_u64(dest + layout.slot(2).unwrap().offset);
    assert_eq!(
        object::read_string_object(&mem.data, blob_obj),
        vec![0xff, 0x80, 0x00]
    );
}

#[test]
fn validation_costs_at_most_a_cycle_per_string() {
    // The validator overlaps with the copy; total cycles grow by ~1 per
    // string field, not per byte.
    let mut w = WireWriter::new();
    w.write_length_delimited_field(1, &[b'a'; 4096]).unwrap();
    let wire = w.into_bytes();

    // Fresh memory/caches per run so the only difference is validation.
    let run_with = |validate: bool| {
        let (_, layouts, mut mem, adts, mut arena, id) = rig();
        let mut accel = ProtoAccelerator::new(AccelConfig {
            validate_utf8: validate,
            ..AccelConfig::default()
        });
        accel.deser_assign_arena(0x100_0000, 1 << 22);
        mem.data.write_bytes(0x20_0000, &wire);
        let dest = arena.alloc(layouts.layout(id).object_size(), 8).unwrap();
        accel
            .do_proto_deser(
                &mut mem,
                adts.addr(id),
                0x20_0000,
                wire.len() as u64,
                dest,
                1,
            )
            .unwrap()
            .fsm_cycles
    };
    let without = run_with(false);
    let with = run_with(true);
    assert!(with >= without);
    assert!(
        with - without <= 4,
        "validation added {} cycles",
        with - without
    );
}
