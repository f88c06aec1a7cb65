//! An RPC-style exchange: a client serializes requests, the "network" moves
//! the bytes, a server deserializes, handles, and responds — comparing the
//! software baseline against the accelerated SoC end-to-end.
//!
//! The paper's §3.4 insight: only a minority of (de)serialization cycles are
//! RPC-related, but RPC is still the canonical motivating flow. Run with:
//! `cargo run --release --example rpc_service`

use protoacc_suite::accel::{AccelConfig, ProtoAccelerator};
use protoacc_suite::cpu::{CostTable, SoftwareCodec};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{object, write_adts, BumpArena, MessageLayouts, MessageValue, Value};
use protoacc_suite::schema::{parse_proto, Schema};

const REQUESTS: usize = 200;

fn build_request(schema: &Schema, i: usize) -> MessageValue {
    let req_id = schema.id_by_name("SearchRequest").expect("defined");
    let mut m = MessageValue::new(req_id);
    m.set_unchecked(1, Value::Str(format!("query terms number {i}")));
    m.set_unchecked(2, Value::Int32((i % 10) as i32));
    m.set_unchecked(3, Value::Int32(25));
    m.set_unchecked(7, Value::UInt64(0xfeed_0000 + i as u64));
    m
}

fn build_response(schema: &Schema, request: &MessageValue, i: usize) -> MessageValue {
    let resp_id = schema.id_by_name("SearchResponse").expect("defined");
    let hit_id = schema.id_by_name("SearchResponse.Hit").expect("defined");
    let mut resp = MessageValue::new(resp_id);
    resp.set_unchecked(1, Value::UInt64(0xfeed_0000 + i as u64));
    let query = match request.get_single(1) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let hits = (0..5)
        .map(|h| {
            let mut hit = MessageValue::new(hit_id);
            hit.set_unchecked(1, Value::Str(format!("result {h} for '{query}'")));
            hit.set_unchecked(2, Value::Float(1.0 / (h as f32 + 1.0)));
            hit.set_unchecked(3, Value::Str("x".repeat(120 + 40 * h)));
            Value::Message(hit)
        })
        .collect();
    resp.set_repeated(2, hits);
    resp
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = parse_proto(
        r#"
        syntax = "proto2";
        message SearchRequest {
            required string query = 1;
            optional int32 page = 2;
            optional int32 results_per_page = 3;
            optional uint64 trace_id = 7;
        }
        message SearchResponse {
            message Hit {
                required string url = 1;
                optional float score = 2;
                optional string snippet = 3;
            }
            optional uint64 trace_id = 1;
            repeated Hit hits = 2;
        }
        "#,
    )?;
    let layouts = MessageLayouts::compute(&schema);
    let req_id = schema.id_by_name("SearchRequest").expect("defined");
    let resp_id = schema.id_by_name("SearchResponse").expect("defined");

    // ---- Software path (riscv-boom) ----
    let boom = CostTable::boom();
    let codec = SoftwareCodec::new(&boom);
    let mut mem = Memory::new(boom.mem);
    let mut arena = BumpArena::new(0x1000_0000, 1 << 28);
    let mut sw_cycles = 0u64;
    let mut bytes_moved = 0u64;
    for i in 0..REQUESTS {
        // Client side: build + serialize the request.
        let request = build_request(&schema, i);
        let req_obj =
            object::write_message(&mut mem.data, &schema, &layouts, &mut arena, &request)?;
        let (run, req_len) =
            codec.serialize(&mut mem, &schema, &layouts, req_id, req_obj, 0x2000_0000)?;
        sw_cycles += run.cycles;
        // Server side: deserialize, handle, serialize the response.
        let dest = arena.alloc(layouts.layout(req_id).object_size(), 8)?;
        let run = codec.deserialize(
            &mut mem,
            &schema,
            &layouts,
            req_id,
            0x2000_0000,
            req_len,
            dest,
            &mut arena,
        )?;
        sw_cycles += run.cycles;
        let seen = object::read_message(&mem.data, &schema, &layouts, req_id, dest)?;
        let response = build_response(&schema, &seen, i);
        let resp_obj =
            object::write_message(&mut mem.data, &schema, &layouts, &mut arena, &response)?;
        let (run, resp_len) =
            codec.serialize(&mut mem, &schema, &layouts, resp_id, resp_obj, 0x3000_0000)?;
        sw_cycles += run.cycles;
        // Client side: deserialize the response.
        let dest = arena.alloc(layouts.layout(resp_id).object_size(), 8)?;
        let run = codec.deserialize(
            &mut mem,
            &schema,
            &layouts,
            resp_id,
            0x3000_0000,
            resp_len,
            dest,
            &mut arena,
        )?;
        sw_cycles += run.cycles;
        bytes_moved += req_len + resp_len;
    }

    // ---- Accelerated path (riscv-boom-accel) ----
    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(0x1_0000, 1 << 24);
    let adts = write_adts(&schema, &layouts, &mut mem.data, &mut setup)?;
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    let mut arena = BumpArena::new(0x1000_0000, 1 << 28);
    let mut accel_cycles = 0u64;
    for i in 0..REQUESTS {
        accel.deser_assign_arena(0x8000_0000 + (i as u64) * (1 << 20), 1 << 20);
        accel.ser_assign_arena(0x2000_0000, 1 << 20, 0x6000_0000, 1 << 12);
        let request = build_request(&schema, i);
        let req_obj =
            object::write_message(&mut mem.data, &schema, &layouts, &mut arena, &request)?;
        let req_layout = layouts.layout(req_id);
        let ser = accel.do_proto_ser(
            &mut mem,
            adts.addr(req_id),
            req_obj,
            req_layout.hasbits_offset(),
            req_layout.min_field(),
            req_layout.max_field(),
        )?;
        let dest = arena.alloc(req_layout.object_size(), 8)?;
        let deser = accel.do_proto_deser(
            &mut mem,
            adts.addr(req_id),
            ser.out_addr,
            ser.out_len,
            dest,
            req_layout.min_field(),
        )?;
        let seen = object::read_message(&mem.data, &schema, &layouts, req_id, dest)?;
        let response = build_response(&schema, &seen, i);
        let resp_obj =
            object::write_message(&mut mem.data, &schema, &layouts, &mut arena, &response)?;
        let resp_layout = layouts.layout(resp_id);
        let ser2 = accel.do_proto_ser(
            &mut mem,
            adts.addr(resp_id),
            resp_obj,
            resp_layout.hasbits_offset(),
            resp_layout.min_field(),
            resp_layout.max_field(),
        )?;
        let dest = arena.alloc(resp_layout.object_size(), 8)?;
        let deser2 = accel.do_proto_deser(
            &mut mem,
            adts.addr(resp_id),
            ser2.out_addr,
            ser2.out_len,
            dest,
            resp_layout.min_field(),
        )?;
        accel_cycles += ser.cycles + deser.cycles + ser2.cycles + deser2.cycles;
    }

    println!("RPC exchange: {REQUESTS} request/response pairs, {bytes_moved} wire bytes total");
    println!(
        "riscv-boom (software codec): {sw_cycles} cycles ({:.3} ms at 2 GHz)",
        sw_cycles as f64 / 2e9 * 1e3
    );
    println!(
        "riscv-boom-accel:            {accel_cycles} cycles ({:.3} ms at 2 GHz)",
        accel_cycles as f64 / 2e9 * 1e3
    );
    println!(
        "end-to-end (de)serialization speedup: {:.2}x",
        sw_cycles as f64 / accel_cycles as f64
    );
    Ok(())
}
