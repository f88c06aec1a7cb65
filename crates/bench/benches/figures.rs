//! Wall-clock benches, one group per paper table/figure, timing the
//! simulation kernels that regenerate each result (host wall time of the
//! simulator — the studies `run_ae_full` runs report the *simulated*
//! cycles).
//!
//! Uses a tiny self-contained timing harness (`harness = false`) instead of
//! an external benchmark framework so `cargo bench` works with no network
//! access. Each kernel is warmed up, then timed over enough iterations to
//! smooth scheduler noise, and reported as ns/iter.

use std::hint::black_box;
use std::time::Instant;

use hyperprotobench::{Generator, ServiceProfile};
use protoacc_bench::ubench::nonalloc_workloads;
use protoacc_bench::{measure, Direction, SystemKind, Workload};
use protoacc_cpu::CostTable;
use protoacc_fleet::gwp::FleetProfile;
use protoacc_fleet::protobufz::{estimate_size_histogram, ShapeModel};
use protoacc_schema::FieldType;
use protoacc_wire::hw::{CombVarintDecoder, CombVarintEncoder};
use protoacc_wire::varint;
use xrand::StdRng;

/// Times `f` and prints a `name ... ns/iter` row. Iteration count adapts so
/// every kernel gets roughly the same (short) wall budget.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up + calibration: find an iteration count worth ~50 ms.
    let start = Instant::now();
    let mut calib_iters: u32 = 0;
    while start.elapsed().as_millis() < 10 || calib_iters < 3 {
        black_box(f());
        calib_iters += 1;
        if calib_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = start.elapsed().as_nanos().max(1) / u128::from(calib_iters);
    let iters = (50_000_000 / per_iter.max(1)).clamp(3, 1_000_000) as u32;
    let timed = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let ns = timed.elapsed().as_nanos() / u128::from(iters);
    println!("{name:<48} {ns:>12} ns/iter  ({iters} iters)");
}

fn bench_table1() {
    bench("table1/classify_all_field_types", || {
        for ft in FieldType::SCALARS {
            black_box(ft.perf_class());
            black_box(ft.wire_type());
        }
    });
}

fn bench_fig2() {
    let profile = FleetProfile::google_2021();
    bench("fig2/sample_and_estimate_10k_gwp_cycles", || {
        let mut rng = StdRng::seed_from_u64(2);
        let samples = profile.sample_cycles(&mut rng, 10_000);
        black_box(FleetProfile::estimate_shares(&samples));
    });
}

fn bench_fig3_fig4() {
    let model = ShapeModel::google_2021();
    bench("fig3_fig4/sample_1k_messages_and_histogram", || {
        let mut rng = StdRng::seed_from_u64(3);
        let samples = model.sample_population(&mut rng, 1000);
        black_box(estimate_size_histogram(&samples));
    });
}

fn bench_fig5_fig6() {
    // One representative slice measurement (the full model runs 24).
    let cost = CostTable::boom();
    bench("fig5_fig6/measure_varint5_slice_on_boom", || {
        black_box(protoacc_fleet::model24::Model24::build_single_for_bench(
            &cost,
        ))
    });
}

fn bench_fig11() {
    let workloads = nonalloc_workloads();
    let varint5 = workloads
        .iter()
        .find(|w| w.name == "varint-5")
        .expect("varint-5 defined")
        .clone();
    for system in SystemKind::ALL {
        bench(&format!("fig11/varint5_deser_{}", system.label()), || {
            black_box(measure(system, &varint5, Direction::Deserialize))
        });
    }
}

fn bench_fig12_fig13() {
    let workload: Workload = Generator::new(ServiceProfile::bench(0), 1)
        .generate(8)
        .into();
    bench("fig12_fig13/bench0_accel_deser", || {
        black_box(measure(
            SystemKind::RiscvBoomAccel,
            &workload,
            Direction::Deserialize,
        ))
    });
    bench("fig12_fig13/bench0_accel_ser", || {
        black_box(measure(
            SystemKind::RiscvBoomAccel,
            &workload,
            Direction::Serialize,
        ))
    });
}

fn bench_sec5_3() {
    let config = protoacc::AccelConfig::default();
    bench("sec5_3/asic_estimates", || {
        black_box(protoacc::asic::deserializer_estimate(&config));
        black_box(protoacc::asic::serializer_estimate(&config));
    });
}

fn bench_sec7() {
    use protoacc::{AccelConfig, ProtoAccelerator};
    use protoacc_mem::Memory;
    use protoacc_runtime::{object, write_adts, BumpArena, MessageLayouts};
    let bench_set = Generator::new(ServiceProfile::bench(0), 7).generate(4);
    let layouts = MessageLayouts::compute(&bench_set.schema);
    bench("sec7/accel_merge_bench0", || {
        let mut mem = Memory::new(protoacc_mem::MemConfig::default());
        let mut setup = BumpArena::new(0x1_0000, 1 << 26);
        let adts = write_adts(&bench_set.schema, &layouts, &mut mem.data, &mut setup).unwrap();
        let dst = object::write_message(
            &mut mem.data,
            &bench_set.schema,
            &layouts,
            &mut setup,
            &bench_set.messages[0],
        )
        .unwrap();
        let src = object::write_message(
            &mut mem.data,
            &bench_set.schema,
            &layouts,
            &mut setup,
            &bench_set.messages[1],
        )
        .unwrap();
        let mut accel = ProtoAccelerator::new(AccelConfig::default());
        accel.deser_assign_arena(0x1_0000_0000, 1 << 26);
        black_box(
            accel
                .do_proto_merge(&mut mem, adts.addr(bench_set.type_id), dst, src)
                .unwrap(),
        )
    });
}

fn bench_kernels() {
    let mut encoded = Vec::new();
    varint::encode(0x0123_4567_89ab, &mut encoded);
    let mut window = [0u8; 10];
    window[..encoded.len()].copy_from_slice(&encoded);
    bench("kernels/varint_software_decode", || {
        black_box(varint::decode(&encoded))
    });
    bench("kernels/varint_comb_decode", || {
        black_box(CombVarintDecoder::decode(&window))
    });
    bench("kernels/varint_comb_encode", || {
        black_box(CombVarintEncoder::encode(0x0123_4567_89ab))
    });
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    bench_table1();
    bench_fig2();
    bench_fig3_fig4();
    bench_fig5_fig6();
    bench_fig11();
    bench_fig12_fig13();
    bench_sec5_3();
    bench_sec7();
    bench_kernels();
}
