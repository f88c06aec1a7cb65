//! Read-modify-write configuration updates using the Section 7 ops unit:
//! a base config object is kept in memory, delta messages arrive over the
//! wire, and each update is `deserialize(delta)` + `merge(base, delta)` —
//! all on the accelerator, with the software baseline for comparison.
//!
//! Run with: `cargo run --release --example config_updates`

use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
use protoacc_suite::cpu::{CostTable, SoftwareCodec};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{
    object, reference, text, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
};
use protoacc_suite::schema::parse_proto;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = parse_proto(
        r#"
        syntax = "proto2";
        message ServerConfig {
            optional uint32 max_connections = 1;
            optional uint32 timeout_ms = 2;
            optional string log_level = 3;
            repeated string allowed_origins = 4;
            message Tls {
                optional bool enabled = 1;
                optional string cert_path = 2;
            }
            optional Tls tls = 9;
        }
        "#,
    )?;
    let cfg_id = schema.id_by_name("ServerConfig").unwrap();
    let tls_id = schema.id_by_name("ServerConfig.Tls").unwrap();
    let layouts = MessageLayouts::compute(&schema);
    let layout = layouts.layout(cfg_id);

    // Base config.
    let mut base = MessageValue::new(cfg_id);
    base.set(1, Value::UInt32(1024))?;
    base.set(2, Value::UInt32(5000))?;
    base.set(3, Value::Str("info".into()))?;
    base.set_repeated(4, vec![Value::Str("https://a.example".into())]);

    // A stream of deltas: tighten timeout, add an origin, enable TLS.
    let mut tls = MessageValue::new(tls_id);
    tls.set(1, Value::Bool(true))?;
    tls.set(2, Value::Str("/etc/certs/server.pem".into()))?;
    let deltas: Vec<MessageValue> = vec![
        {
            let mut d = MessageValue::new(cfg_id);
            d.set(2, Value::UInt32(2500))?;
            d
        },
        {
            let mut d = MessageValue::new(cfg_id);
            d.set_repeated(4, vec![Value::Str("https://b.example".into())]);
            d
        },
        {
            let mut d = MessageValue::new(cfg_id);
            d.set(3, Value::Str("debug".into()))?;
            d.set(9, Value::Message(tls))?;
            d
        },
    ];

    // ---- Accelerated pipeline ----
    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(0x1_0000, 1 << 22);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup)?;
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(0x100_0000, 1 << 24);
    let base_obj = object::write_message(&mut mem.data, &schema, &layouts, &mut setup, &base)?;
    let mut accel_cycles = 0u64;
    for (i, delta) in deltas.iter().enumerate() {
        let wire = reference::encode(delta, &schema)?;
        let addr = 0x20_0000 + (i as u64) * 4096;
        mem.data.write_bytes(addr, &wire);
        // deserialize the delta…
        let delta_obj = setup.alloc(layout.object_size(), 8)?;
        let d = accel.do_proto_deser(
            &mut mem,
            adts.addr(cfg_id),
            addr,
            wire.len() as u64,
            delta_obj,
            layout.min_field(),
        )?;
        // …and merge it into the live config.
        let m = accel.do_proto_merge(&mut mem, adts.addr(cfg_id), base_obj, delta_obj)?;
        accel_cycles += d.cycles + m.cycles;
    }
    let final_accel = object::read_message(&mem.data, &schema, &layouts, cfg_id, base_obj)?;

    // ---- Software pipeline (riscv-boom) ----
    let boom = CostTable::boom();
    let codec = SoftwareCodec::new(&boom);
    let mut mem2 = Memory::new(boom.mem);
    let mut arena2 = BumpArena::new(0x100_0000, 1 << 24);
    let base_obj2 = object::write_message(&mut mem2.data, &schema, &layouts, &mut arena2, &base)?;
    let mut sw_cycles = 0u64;
    for (i, delta) in deltas.iter().enumerate() {
        let wire = reference::encode(delta, &schema)?;
        let addr = 0x20_0000 + (i as u64) * 4096;
        mem2.data.write_bytes(addr, &wire);
        let delta_obj = arena2.alloc(layout.object_size(), 8)?;
        let d = codec.deserialize(
            &mut mem2,
            &schema,
            &layouts,
            cfg_id,
            addr,
            wire.len() as u64,
            delta_obj,
            &mut arena2,
        )?;
        let m = codec.merge(
            &mut mem2,
            &schema,
            &layouts,
            cfg_id,
            base_obj2,
            delta_obj,
            &mut arena2,
        )?;
        sw_cycles += d.cycles + m.cycles;
    }
    let final_sw = object::read_message(&mem2.data, &schema, &layouts, cfg_id, base_obj2)?;

    // Both pipelines agree with the host-side reference semantics.
    let mut expect = base.clone();
    for d in &deltas {
        expect.merge_from(d);
    }
    assert!(final_accel.bits_eq(&expect));
    assert!(final_sw.bits_eq(&expect));

    println!("final config after {} deltas:", deltas.len());
    print!("{}", text::to_text(&final_accel, &schema));
    println!();
    println!("software (riscv-boom): {sw_cycles} cycles");
    println!("accelerated:           {accel_cycles} cycles");
    println!(
        "deserialize+merge pipeline speedup: {:.2}x",
        sw_cycles as f64 / accel_cycles as f64
    );
    Ok(())
}
