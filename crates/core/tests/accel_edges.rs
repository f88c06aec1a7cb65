//! Accelerator-only behaviour: metadata-stack spills, the batched output
//! pointer buffer, arena exhaustion, protocol misuse and offset hasbits.
//! The accelerator's round trips against the other codecs live in the
//! root `tests/accel_differential.rs`, through the differential oracle.

use protoacc::{AccelConfig, AccelError, ProtoAccelerator};
use protoacc_mem::{MemConfig, Memory};
use protoacc_runtime::{
    object, reference, write_adts, AdtTables, BumpArena, MessageLayouts, MessageValue, Value,
};
use protoacc_schema::{FieldType, MessageId, Schema, SchemaBuilder};

const INPUT_ADDR: u64 = 0x20_0000;

/// `Outer { int32 i32 = 1; string text = 7; }` staged in guest memory.
struct Setup {
    schema: Schema,
    layouts: MessageLayouts,
    mem: Memory,
    adts: AdtTables,
    arena: BumpArena,
    outer: MessageId,
}

fn setup() -> Setup {
    let mut b = SchemaBuilder::new();
    let outer = b.declare("Outer");
    b.message(outer)
        .optional("i32", FieldType::Int32, 1)
        .optional("text", FieldType::String, 7);
    let schema = b.build().unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut arena = BumpArena::new(0x1_0000, 1 << 22);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut arena).unwrap();
    Setup {
        schema,
        layouts,
        mem,
        adts,
        arena,
        outer,
    }
}

#[test]
fn deeply_nested_messages_spill_the_stack_and_still_decode() {
    // Build a chain deeper than the on-chip stack depth (25).
    let mut b = SchemaBuilder::new();
    let node = b.declare("Node");
    b.message(node).optional("v", FieldType::Int32, 1).optional(
        "next",
        FieldType::Message(node),
        2,
    );
    let schema = b.build().unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup_arena = BumpArena::new(0x1_0000, 1 << 22);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup_arena).unwrap();

    let mut m = MessageValue::new(node);
    m.set(1, Value::Int32(0)).unwrap();
    for depth in 1..40 {
        let mut parent = MessageValue::new(node);
        parent.set(1, Value::Int32(depth)).unwrap();
        parent.set(2, Value::Message(m)).unwrap();
        m = parent;
    }
    let wire = reference::encode(&m, &schema).unwrap();
    mem.data.write_bytes(INPUT_ADDR, &wire);

    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(0x100_0000, 1 << 24);
    let dest = setup_arena
        .alloc(layouts.layout(node).object_size(), 8)
        .unwrap();
    accel
        .do_proto_deser(
            &mut mem,
            adts.addr(node),
            INPUT_ADDR,
            wire.len() as u64,
            dest,
            1,
        )
        .unwrap();
    let stats = accel.stats();
    assert!(
        stats.stack_spills > 0,
        "39-deep chain must spill depth-25 stacks"
    );
    let back = object::read_message(&mem.data, &schema, &layouts, node, dest).unwrap();
    assert!(back.bits_eq(&m));

    // And serialization of the same graph is byte-identical.
    accel.ser_assign_arena(0x300_0000, 1 << 24, 0x500_0000, 1 << 16);
    let obj =
        object::write_message(&mut mem.data, &schema, &layouts, &mut setup_arena, &m).unwrap();
    let layout = layouts.layout(node);
    let run = accel
        .do_proto_ser(
            &mut mem,
            adts.addr(node),
            obj,
            layout.hasbits_offset(),
            1,
            2,
        )
        .unwrap();
    assert_eq!(mem.data.read_vec(run.out_addr, run.out_len as usize), wire);
}

#[test]
fn batched_serializations_pack_output_and_pointer_buffer() {
    let mut s = setup();
    let layout = s.layouts.layout(s.outer);
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.ser_assign_arena(0x300_0000, 1 << 24, 0x500_0000, 1 << 16);
    let mut expected = Vec::new();
    let mut cycles = 0;
    for i in 0..5 {
        let mut m = MessageValue::new(s.outer);
        m.set(1, Value::Int32(i)).unwrap();
        m.set(7, Value::Str(format!("message number {i}"))).unwrap();
        let obj = object::write_message(&mut s.mem.data, &s.schema, &s.layouts, &mut s.arena, &m)
            .unwrap();
        let run = accel
            .do_proto_ser(
                &mut s.mem,
                s.adts.addr(s.outer),
                obj,
                layout.hasbits_offset(),
                1,
                layout.max_field(),
            )
            .unwrap();
        cycles += run.cycles;
        expected.push(reference::encode(&m, &s.schema).unwrap());
    }
    assert!(cycles > 0);
    assert_eq!(cycles, accel.stats().ser_cycles);
    assert_eq!(accel.serialized_outputs(), 5);
    for (i, expect) in expected.iter().enumerate() {
        let (addr, len) = accel.serialized_output(&s.mem, i as u64).unwrap();
        assert_eq!(
            &s.mem.data.read_vec(addr, len as usize),
            expect,
            "output {i}"
        );
    }
    assert!(accel.serialized_output(&s.mem, 5).is_none());
}

#[test]
fn arena_exhaustion_is_reported() {
    let mut s = setup();
    let mut m = MessageValue::new(s.outer);
    m.set(7, Value::Str("long enough to need a heap buffer".into()))
        .unwrap();
    let wire = reference::encode(&m, &s.schema).unwrap();
    s.mem.data.write_bytes(INPUT_ADDR, &wire);
    let dest = s
        .arena
        .alloc(s.layouts.layout(s.outer).object_size(), 8)
        .unwrap();
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(0x100_0000, 16); // far too small
    assert!(matches!(
        accel.do_proto_deser(
            &mut s.mem,
            s.adts.addr(s.outer),
            INPUT_ADDR,
            wire.len() as u64,
            dest,
            1
        ),
        Err(AccelError::Arena(_))
    ));
}

#[test]
fn protocol_misuse_is_rejected() {
    let mut s = setup();
    let adt = s.adts.addr(s.outer);
    let layout = s.layouts.layout(s.outer);
    let (hasbits, min, max) = (
        layout.hasbits_offset(),
        layout.min_field(),
        layout.max_field(),
    );
    let mut fresh = ProtoAccelerator::new(AccelConfig::default());
    assert!(matches!(
        fresh.do_proto_deser(&mut s.mem, adt, INPUT_ADDR, 0, 0x9000, min),
        Err(AccelError::ArenaNotAssigned { .. })
    ));
    assert!(matches!(
        fresh.do_proto_ser(&mut s.mem, adt, 0x9000, hasbits, min, max),
        Err(AccelError::ArenaNotAssigned { .. })
    ));

    // With both arenas assigned, each operand that disagrees with the ADT
    // header is named, and the refused command changes no state.
    fresh.deser_assign_arena(0x100_0000, 1 << 20);
    fresh.ser_assign_arena(0x300_0000, 1 << 20, 0x500_0000, 1 << 12);
    let mismatch = |operand, supplied, adt| {
        Err(AccelError::OperandMismatch {
            operand,
            supplied,
            adt,
        })
    };
    let before = (fresh.stats(), format!("{:?}", s.mem.system.stats()));
    assert_eq!(
        fresh
            .do_proto_deser(&mut s.mem, adt, INPUT_ADDR, 0, 0x9000, min + 1)
            .map(|_| ()),
        mismatch("min_field", u64::from(min + 1), u64::from(min))
    );
    let ser_cases = [
        (
            hasbits + 8,
            min,
            max,
            mismatch("hasbits_offset", hasbits + 8, hasbits),
        ),
        (
            hasbits,
            min + 1,
            max,
            mismatch("min_field", u64::from(min + 1), u64::from(min)),
        ),
        (
            hasbits,
            min,
            max + 1,
            mismatch("max_field", u64::from(max + 1), u64::from(max)),
        ),
    ];
    for (hasbits, min, max, expect) in ser_cases {
        assert_eq!(
            fresh
                .do_proto_ser(&mut s.mem, adt, 0x9000, hasbits, min, max)
                .map(|_| ()),
            expect
        );
    }
    assert_eq!(
        (fresh.stats(), format!("{:?}", s.mem.system.stats())),
        before
    );
    assert_eq!(fresh.serialized_outputs(), 0);
}

#[test]
fn large_minimum_field_numbers_use_offset_hasbits() {
    // §4.2: "To save memory in the common case where field numbers are
    // contiguous but start at a large number, we provide the accelerator
    // with the minimum defined field number ... with respect to which it
    // calculates field-number offsets."
    let mut b = SchemaBuilder::new();
    let id = b.declare("HighFields");
    {
        let mut mb = b.message(id);
        for n in 5000..5010u32 {
            mb.optional(&format!("f{n}"), FieldType::UInt64, n);
        }
        mb.optional("s", FieldType::String, 5015);
    }
    let schema = b.build().unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let layout = layouts.layout(id);
    assert_eq!(layout.min_field(), 5000);
    // The sparse hasbits stay small despite the large numbers.
    assert!(layout.hasbits_bytes() <= 8, "{}", layout.hasbits_bytes());

    let mut mem = protoacc_mem::Memory::new(MemConfig::default());
    let mut arena = BumpArena::new(0x1_0000, 1 << 22);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut arena).unwrap();
    let mut m = MessageValue::new(id);
    for n in (5000..5010u32).step_by(3) {
        m.set_unchecked(n, Value::UInt64(u64::from(n)));
    }
    m.set_unchecked(5015, Value::Str("offset hasbits".into()));
    let wire = reference::encode(&m, &schema).unwrap();
    mem.data.write_bytes(INPUT_ADDR, &wire);
    let dest = arena.alloc(layout.object_size(), 8).unwrap();
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(0x100_0000, 1 << 22);
    accel
        .do_proto_deser(
            &mut mem,
            adts.addr(id),
            INPUT_ADDR,
            wire.len() as u64,
            dest,
            layout.min_field(),
        )
        .unwrap();
    let back = object::read_message(&mem.data, &schema, &layouts, id, dest).unwrap();
    assert!(back.bits_eq(&m));

    // And back out through the serializer, byte-identical.
    accel.ser_assign_arena(0x40_0000, 1 << 20, 0x60_0000, 1 << 12);
    let run = accel
        .do_proto_ser(
            &mut mem,
            adts.addr(id),
            dest,
            layout.hasbits_offset(),
            layout.min_field(),
            layout.max_field(),
        )
        .unwrap();
    assert_eq!(mem.data.read_vec(run.out_addr, run.out_len as usize), wire);
}
