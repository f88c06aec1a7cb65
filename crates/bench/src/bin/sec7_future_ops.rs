//! Section 7 extension: merge / copy / clear on the future-work ops unit
//! vs the software baselines.
//!
//! The paper estimates these operations add another 17.1% of fleet-wide C++
//! protobuf cycles to the accelerator's addressable pool; this binary
//! measures the modeled speedups and extends the fleet-savings
//! extrapolation accordingly.

use hyperprotobench::{Generator, ServiceProfile};
use protoacc::{AccelConfig, ProtoAccelerator};
use protoacc_bench::geomean;
use protoacc_cpu::{CostTable, SoftwareCodec};
use protoacc_fleet::gwp::FleetProfile;
use protoacc_mem::{MemConfig, Memory};
use protoacc_runtime::{object, write_adts, BumpArena, MessageLayouts};

#[derive(Debug, Clone, Copy)]
enum Op {
    Merge,
    Copy,
    Clear,
}

fn main() {
    println!("Section 7: merge / copy / clear (cycles per operation, lower is better)");
    println!(
        "{:<10} {:<10} {:>14} {:>14} {:>14} {:>10}",
        "Bench", "Op", "riscv-boom", "Xeon", "accel", "speedup"
    );
    let mut speedups = Vec::new();
    for service in [0usize, 3, 5] {
        for op in [Op::Merge, Op::Copy, Op::Clear] {
            let boom = run_software(&CostTable::boom(), service, op);
            let xeon = run_software(&CostTable::xeon(), service, op);
            let accel = run_accel(service, op);
            let speedup = boom as f64 / accel as f64;
            speedups.push(speedup);
            println!(
                "bench{service:<5} {:<10} {boom:>14} {xeon:>14} {accel:>14} {speedup:>9.2}x",
                format!("{op:?}")
            );
        }
    }
    let overall = geomean(&speedups);
    println!();
    println!("geomean speedup vs riscv-boom: {overall:.2}x");
    let profile = FleetProfile::google_2021();
    let base = profile.acceleration_opportunity();
    let extra = profile.protobuf_fraction_of_fleet
        * profile.cpp_fraction_of_protobuf
        * profile.merge_copy_clear_share();
    let savings = base * (1.0 - 1.0 / 7.0) + extra * (1.0 - 1.0 / overall);
    println!(
        "addressable fleet cycles grow from {:.2}% (ser+deser) to {:.2}% with merge/copy/clear \
         (paper: +17.1% of protobuf cycles)",
        base * 100.0,
        (base + extra) * 100.0
    );
    println!(
        "extended fleet-savings extrapolation: {:.2}% of fleet cycles",
        savings * 100.0
    );
}

/// Cycles for one pass of the op over a generated population (software).
fn run_software(cost: &CostTable, service: usize, op: Op) -> u64 {
    let bench = Generator::new(ServiceProfile::bench(service), 0x5EC7).generate(12);
    let layouts = MessageLayouts::compute(&bench.schema);
    let mut mem = Memory::new(cost.mem);
    let mut arena = BumpArena::new(0x1_0000_0000, 1 << 28);
    let codec = SoftwareCodec::new(cost);
    let objects: Vec<(u64, u64)> = bench
        .messages
        .chunks(2)
        .filter(|c| c.len() == 2)
        .map(|pair| {
            let dst =
                object::write_message(&mut mem.data, &bench.schema, &layouts, &mut arena, &pair[0])
                    .unwrap();
            let src =
                object::write_message(&mut mem.data, &bench.schema, &layouts, &mut arena, &pair[1])
                    .unwrap();
            (dst, src)
        })
        .collect();
    let mut cycles = 0;
    for &(dst, src) in &objects {
        let run = match op {
            Op::Merge => codec
                .merge(
                    &mut mem,
                    &bench.schema,
                    &layouts,
                    bench.type_id,
                    dst,
                    src,
                    &mut arena,
                )
                .unwrap(),
            Op::Copy => codec
                .copy(
                    &mut mem,
                    &bench.schema,
                    &layouts,
                    bench.type_id,
                    dst,
                    src,
                    &mut arena,
                )
                .unwrap(),
            Op::Clear => codec.clear(&mut mem, &layouts, bench.type_id, dst).unwrap(),
        };
        cycles += run.cycles;
    }
    cycles / objects.len() as u64
}

/// Cycles for one pass of the op on the accelerator's ops unit.
fn run_accel(service: usize, op: Op) -> u64 {
    let bench = Generator::new(ServiceProfile::bench(service), 0x5EC7).generate(12);
    let layouts = MessageLayouts::compute(&bench.schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup = BumpArena::new(0x1_0000, 1 << 26);
    let adts = write_adts(&bench.schema, &layouts, &mut mem.data, &mut setup).unwrap();
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(0x1_0000_0000, 1 << 28);
    let objects: Vec<(u64, u64)> = bench
        .messages
        .chunks(2)
        .filter(|c| c.len() == 2)
        .map(|pair| {
            let dst =
                object::write_message(&mut mem.data, &bench.schema, &layouts, &mut setup, &pair[0])
                    .unwrap();
            let src =
                object::write_message(&mut mem.data, &bench.schema, &layouts, &mut setup, &pair[1])
                    .unwrap();
            (dst, src)
        })
        .collect();
    let adt = adts.addr(bench.type_id);
    let mut cycles = 0;
    for &(dst, src) in &objects {
        let run = match op {
            Op::Merge => accel.do_proto_merge(&mut mem, adt, dst, src).unwrap(),
            Op::Copy => accel.do_proto_copy(&mut mem, adt, dst, src).unwrap(),
            Op::Clear => accel.do_proto_clear(&mut mem, adt, dst).unwrap(),
        };
        cycles += run.cycles;
    }
    cycles / objects.len() as u64
}
