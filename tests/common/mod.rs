//! Helpers shared by the root test suites: fixture loading, the
//! nesting-chain schema, and the one-message driver that holds simulated
//! cycles against the static envelopes.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{
    object, reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
};
use protoacc_suite::schema::{parse_descriptor_set, parse_proto, MessageId, Schema};

/// Parses `protos/<name>`.
pub fn load(name: &str) -> Schema {
    let path = format!("{}/protos/{name}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_proto(&source).unwrap_or_else(|e| panic!("{name} must parse: {e}"))
}

/// Decodes the binary descriptor set `protos/chain/<stem>.binpb`.
pub fn load_binpb(stem: &str) -> Schema {
    let path = format!("{}/protos/chain/{stem}.binpb", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_descriptor_set(&bytes).unwrap_or_else(|e| panic!("{stem}.binpb must parse: {e}"))
}

/// The corpus convention: the last top-level message is the aggregate root.
pub fn root_of(schema: &Schema) -> MessageId {
    schema
        .iter()
        .filter(|(_, m)| !m.name().contains('.'))
        .map(|(id, _)| id)
        .last()
        .expect("schema has at least one message")
}

/// A linear chain of `n` message types `M0 -> M1 -> ... -> M{n-1}`, each
/// optionally holding the next, the last holding a scalar leaf.
pub fn chain_schema(n: usize) -> Schema {
    let mut src = String::new();
    for i in 0..n {
        if i + 1 < n {
            src.push_str(&format!(
                "message M{i} {{ optional M{} next = 1; }}\n",
                i + 1
            ));
        } else {
            src.push_str(&format!("message M{i} {{ optional uint32 leaf = 1; }}\n"));
        }
    }
    parse_proto(&src).unwrap()
}

/// An instance of `M0` from [`chain_schema`] nested exactly `depth` levels
/// (root counts as level 1); the innermost message is left empty.
pub fn chain_instance(schema: &Schema, depth: usize) -> MessageValue {
    let id = |i: usize| -> MessageId { schema.id_by_name(&format!("M{i}")).unwrap() };
    let mut inner = MessageValue::new(id(depth - 1));
    if depth == schema.len() {
        inner.set_unchecked(1, Value::UInt32(7));
    }
    for i in (0..depth - 1).rev() {
        let mut outer = MessageValue::new(id(i));
        outer.set_unchecked(1, Value::Message(inner));
        inner = outer;
    }
    inner
}

/// What one message costs the simulated accelerator.
pub struct Measured {
    pub wire_len: u64,
    pub deser_cycles: u64,
    /// Metadata-stack spills of the deserialization.
    pub stack_spills: u64,
    /// Serialization cycles, when the serializer ran.
    pub ser_cycles: Option<u64>,
}

/// Drives `message` through the deserializer (from reference-encoded
/// bytes) and, with `ser`, the serializer (from a runtime-written object
/// graph). Panics unless each run is functionally exact, so every cycle
/// check is also a correctness check. The serializer frontend scans the
/// whole field-number span, so a maximum-field-number schema takes minutes
/// to serialize: leave `ser` off there.
pub fn measure(
    schema: &Schema,
    message: &MessageValue,
    config: &AccelConfig,
    ser: bool,
) -> Measured {
    let type_id = message.type_id();
    let layouts = MessageLayouts::compute(schema);
    let mut mem = Memory::new(MemConfig::default());
    // Guest memory is sparse, so the arena can span a huge address range:
    // descriptor tables are sized by field-number *span*, and the
    // max-field-number edge case needs ~8.6 GB of ADT address space.
    let mut arena = BumpArena::new(0x1_0000, 16 << 30);
    let adts = write_adts(schema, &layouts, &mut mem.data, &mut arena).unwrap();
    let layout = layouts.layout(type_id);

    let wire = reference::encode(message, schema).unwrap();
    mem.data.write_bytes(0x10_0000_0000, &wire);

    let mut accel = ProtoAccelerator::new(*config);
    accel.deser_assign_arena(0x20_0000_0000, 1 << 24);
    let dest = arena.alloc(layout.object_size(), 8).unwrap();
    accel.deser_info(adts.addr(type_id), dest);
    let deser = accel
        .do_proto_deser(
            &mut mem,
            0x10_0000_0000,
            wire.len() as u64,
            layout.min_field(),
        )
        .unwrap();
    let back = object::read_message(&mem.data, schema, &layouts, type_id, dest).unwrap();
    assert!(back.bits_eq(message), "deser round trip");
    let stack_spills = accel.stats().stack_spills;

    let ser_cycles = ser.then(|| {
        let obj =
            object::write_message(&mut mem.data, schema, &layouts, &mut arena, message).unwrap();
        accel.ser_assign_arena(0x30_0000_0000, 1 << 24, 0x31_0000_0000, 1 << 16);
        accel.ser_info(
            layout.hasbits_offset(),
            layout.min_field(),
            layout.max_field(),
        );
        let run = accel
            .do_proto_ser(&mut mem, adts.addr(type_id), obj)
            .unwrap();
        assert_eq!(
            mem.data.read_vec(run.out_addr, run.out_len as usize),
            wire,
            "ser output is byte-identical to the reference codec"
        );
        run.cycles
    });

    Measured {
        wire_len: wire.len() as u64,
        deser_cycles: deser.cycles,
        stack_spills,
        ser_cycles,
    }
}
