//! Regenerates the paper's headline speedups (§5.1.3 and §5.2): overall
//! microbenchmark and HyperProtoBench geomeans vs both baselines.
//!
//! Runs the complete Figure 11 and Figure 12/13 sweeps: about 2.5 s as a
//! release build on a 2-vCPU Xeon host.

use hyperprotobench::generate_suite;
use protoacc_bench::ubench::{alloc_workloads, nonalloc_workloads};
use protoacc_bench::{geomean, measure, Direction, SystemKind, Workload};

fn group_speedups(workloads: &[Workload], direction: Direction) -> (f64, f64) {
    let mut boom = Vec::new();
    let mut xeon = Vec::new();
    let mut accel = Vec::new();
    for w in workloads {
        boom.push(measure(SystemKind::RiscvBoom, w, direction).gbits);
        xeon.push(measure(SystemKind::Xeon, w, direction).gbits);
        accel.push(measure(SystemKind::RiscvBoomAccel, w, direction).gbits);
    }
    (
        geomean(&accel) / geomean(&boom),
        geomean(&accel) / geomean(&xeon),
    )
}

fn main() {
    let nonalloc = nonalloc_workloads();
    let alloc = alloc_workloads();
    let groups = [
        (
            "ubench 11a (deser non-alloc)",
            &nonalloc,
            Direction::Deserialize,
            7.0,
            2.6,
        ),
        (
            "ubench 11b (ser inline)",
            &nonalloc,
            Direction::Serialize,
            15.5,
            4.5,
        ),
        (
            "ubench 11c (deser alloc)",
            &alloc,
            Direction::Deserialize,
            14.2,
            6.9,
        ),
        (
            "ubench 11d (ser non-inline)",
            &alloc,
            Direction::Serialize,
            10.1,
            2.8,
        ),
    ];
    println!(
        "{:<32} {:>10} {:>12} {:>10} {:>12}",
        "Group", "vs boom", "paper", "vs Xeon", "paper"
    );
    let mut boom_all = Vec::new();
    let mut xeon_all = Vec::new();
    for (name, workloads, direction, paper_boom, paper_xeon) in groups {
        let (b, x) = group_speedups(workloads, direction);
        boom_all.push(b);
        xeon_all.push(x);
        println!("{name:<32} {b:>9.2}x {paper_boom:>11.1}x {x:>9.2}x {paper_xeon:>11.1}x");
    }
    println!(
        "{:<32} {:>9.2}x {:>11.1}x {:>9.2}x {:>11.1}x",
        "ubench overall",
        geomean(&boom_all),
        11.2,
        geomean(&xeon_all),
        3.8
    );

    let suite = generate_suite(48, 0xB0B);
    let workloads: Vec<Workload> = suite
        .into_iter()
        .map(|bench| Workload {
            name: bench.profile.label(),
            schema: bench.schema,
            type_id: bench.type_id,
            messages: bench.messages,
        })
        .collect();
    let (hd_boom, hd_xeon) = group_speedups(&workloads, Direction::Deserialize);
    let (hs_boom, hs_xeon) = group_speedups(&workloads, Direction::Serialize);
    let hpb_boom = geomean(&[hd_boom, hs_boom]);
    let hpb_xeon = geomean(&[hd_xeon, hs_xeon]);
    println!(
        "{:<32} {:>9.2}x {:>11.1}x {:>9.2}x {:>11.1}x",
        "HyperProtoBench overall", hpb_boom, 6.2, hpb_xeon, 3.8
    );
}
