//! Quickstart: define a schema, run both accelerator units, verify against
//! the reference codec, and inspect cycle counts.
//!
//! Run with: `cargo run --example quickstart`

use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{
    object, reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
};
use protoacc_suite::schema::parse_proto;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A schema, straight from proto2 source.
    let schema = parse_proto(
        r#"
        syntax = "proto2";
        message Point {
            required sint32 x = 1;
            required sint32 y = 2;
            optional string label = 3;
        }
        message Route {
            optional string name = 1;
            repeated Point points = 2;
            optional uint64 version = 15;
        }
        "#,
    )?;
    let route_id = schema.id_by_name("Route").expect("Route defined");
    let point_id = schema.id_by_name("Point").expect("Point defined");
    let layouts = MessageLayouts::compute(&schema);

    // 2. A message, as an application would build it.
    let mut route = MessageValue::new(route_id);
    route.set(1, Value::Str("bay-loop".into()))?;
    route.set(15, Value::UInt64(7))?;
    let mut points = Vec::new();
    for (x, y, label) in [(0, 0, "start"), (-120, 44, "midpoint"), (3, -9, "end")] {
        let mut p = MessageValue::new(point_id);
        p.set(1, Value::SInt32(x))?;
        p.set(2, Value::SInt32(y))?;
        p.set(3, Value::Str(label.into()))?;
        points.push(Value::Message(p));
    }
    route.set_repeated(2, points);
    route.validate(&schema)?;

    // 3. The simulated SoC: guest memory + the load-time ADTs the modified
    //    protoc generates (Section 4.2 of the paper).
    let mut mem = Memory::new(MemConfig::default());
    let mut setup_arena = BumpArena::new(0x1_0000, 1 << 22);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup_arena)?;
    println!(
        "ADTs for {} message types occupy {} bytes",
        schema.len(),
        adts.total_bytes()
    );

    // 4. Serialize on the accelerator: materialize the C++-like object
    //    graph, then issue one `do_proto_ser` command.
    let obj = object::write_message(&mut mem.data, &schema, &layouts, &mut setup_arena, &route)?;
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.ser_assign_arena(0x40_0000, 1 << 20, 0x60_0000, 1 << 12);
    let layout = layouts.layout(route_id);
    let ser_run = accel.do_proto_ser(
        &mut mem,
        adts.addr(route_id),
        obj,
        layout.hasbits_offset(),
        layout.min_field(),
        layout.max_field(),
    )?;
    let wire = mem
        .data
        .read_vec(ser_run.out_addr, ser_run.out_len as usize);
    println!(
        "serialized {} bytes in {} accelerator cycles ({:.2} Gbit/s at 2 GHz)",
        ser_run.out_len,
        ser_run.cycles,
        accel
            .config()
            .gbits_per_sec(ser_run.out_len, ser_run.cycles)
    );

    // Wire-compatible with standard protobufs: the reference encoder
    // produces the identical bytes.
    assert_eq!(wire, reference::encode(&route, &schema)?);

    // 5. Deserialize the same bytes on the accelerator.
    accel.deser_assign_arena(0x100_0000, 1 << 22);
    let dest = setup_arena.alloc(layout.object_size(), 8)?;
    let deser_run = accel.do_proto_deser(
        &mut mem,
        adts.addr(route_id),
        ser_run.out_addr,
        ser_run.out_len,
        dest,
        layout.min_field(),
    )?;
    println!(
        "deserialized in {} accelerator cycles ({} fields, {} varints decoded)",
        deser_run.cycles,
        deser_run.fields,
        accel.stats().varints
    );

    let back = object::read_message(&mem.data, &schema, &layouts, route_id, dest)?;
    assert!(back.bits_eq(&route), "round trip must be lossless");
    println!("round trip verified: accelerator output matches the original message");
    Ok(())
}
