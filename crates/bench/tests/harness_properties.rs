//! Properties of the measurement harness itself: determinism, and the
//! paper's headline shape facts that must hold on every build.

use protoacc_bench::studies::evaluation::speedup_table;
use protoacc_bench::ubench::{alloc_workloads, nonalloc_workloads};
use protoacc_bench::{geomean_gbits, measure, Direction, SystemKind, Workload};
use protoacc_cpu::CostTable;

/// The whole simulator is deterministic: measuring the same cell twice
/// produces the identical simulated cycle count (the FireSim-like
/// repeatability claim in the README).
#[test]
fn measurements_are_deterministic() {
    let workloads = nonalloc_workloads();
    let w = &workloads[5]; // varint-5
    for system in SystemKind::ALL {
        let a = measure(system, w, Direction::Deserialize);
        let b = measure(system, w, Direction::Deserialize);
        assert_eq!(a.cycles, b.cycles, "{}", system.label());
        assert_eq!(a.wire_bytes, b.wire_bytes);
    }
}

/// Figure 11a/b shape: varint throughput rises with varint size on the
/// accelerated system.
#[test]
fn accel_varint_throughput_rises_with_size() {
    let workloads = nonalloc_workloads();
    let small = measure(
        SystemKind::RiscvBoomAccel,
        &workloads[1],
        Direction::Deserialize,
    );
    let large = measure(
        SystemKind::RiscvBoomAccel,
        &workloads[10],
        Direction::Deserialize,
    );
    assert!(
        large.gbits > 2.0 * small.gbits,
        "varint-10 {:.2} vs varint-1 {:.2}",
        large.gbits,
        small.gbits
    );
}

/// Figure 11d shape: on very-long-string *serialization* the Xeon nearly
/// closes the gap with the accelerator (both are memcpy-bound), while the
/// accelerator keeps a clear deserialization lead (it also allocates).
#[test]
fn xeon_closes_gap_on_very_long_string_serialization() {
    let workloads = alloc_workloads();
    let very_long = workloads
        .iter()
        .find(|w| w.name == "string_very_long")
        .expect("workload defined");
    let ser_xeon = measure(SystemKind::Xeon, very_long, Direction::Serialize);
    let ser_accel = measure(SystemKind::RiscvBoomAccel, very_long, Direction::Serialize);
    let ratio = ser_accel.gbits / ser_xeon.gbits;
    assert!(
        (0.7..1.6).contains(&ratio),
        "ser accel/xeon ratio {ratio:.2} should be near parity"
    );
    let deser_xeon = measure(SystemKind::Xeon, very_long, Direction::Deserialize);
    let deser_accel = measure(
        SystemKind::RiscvBoomAccel,
        very_long,
        Direction::Deserialize,
    );
    assert!(
        deser_accel.gbits > 1.2 * deser_xeon.gbits,
        "deser accel {:.2} vs xeon {:.2}",
        deser_accel.gbits,
        deser_xeon.gbits
    );
}

/// The sub-message microbenchmarks are the slowest class on every system
/// (per-byte overhead of nesting), matching Figure 11c's left-to-right
/// profile.
#[test]
fn submessage_benchmarks_are_slowest_per_byte() {
    let workloads = alloc_workloads();
    let bool_sub = workloads.iter().find(|w| w.name == "bool-SUB").unwrap();
    let plain = &nonalloc_workloads()[5];
    for system in SystemKind::ALL {
        let sub = measure(system, bool_sub, Direction::Deserialize);
        let flat = measure(system, plain, Direction::Deserialize);
        assert!(
            sub.gbits < flat.gbits,
            "{}: bool-SUB {:.2} should trail varint-5 {:.2}",
            system.label(),
            sub.gbits,
            flat.gbits
        );
    }
}

/// A system and its cost table are one machine: measuring through either
/// runs the same loop and gives the same cycles.
#[test]
fn boom_cost_table_measures_like_the_boom_system() {
    let workloads = nonalloc_workloads();
    let w = &workloads[5]; // varint-5
    for direction in [Direction::Deserialize, Direction::Serialize] {
        assert_eq!(
            measure(CostTable::boom(), w, direction),
            measure(SystemKind::RiscvBoom, w, direction),
            "{direction:?}"
        );
    }
}

/// Appendix A.7.1: the in-order Rocket core is a weaker host than BOOM on
/// the Figure 11a set.
#[test]
fn rocket_deserializes_slower_than_boom_on_fig11a() {
    let workloads = nonalloc_workloads();
    let rocket = geomean_gbits(CostTable::rocket(), &workloads, Direction::Deserialize);
    let boom = geomean_gbits(CostTable::boom(), &workloads, Direction::Deserialize);
    assert!(rocket < boom, "rocket {rocket:.3} vs boom {boom:.3} Gbit/s");
}

/// Section 7: a per-call frontend refill tax strictly lowers BOOM's
/// Figure 11a deserialization throughput as it grows.
#[test]
fn frontend_flush_lowers_boom_throughput() {
    let workloads = nonalloc_workloads();
    let gbits: Vec<f64> = [0, 500, 2000]
        .into_iter()
        .map(|flush| {
            let cost = CostTable {
                frontend_flush_cycles: flush,
                ..CostTable::boom()
            };
            geomean_gbits(cost, &workloads, Direction::Deserialize)
        })
        .collect();
    assert!(
        gbits.windows(2).all(|pair| pair[1] < pair[0]),
        "Gbit/s at flush 0/500/2000: {gbits:?}"
    );
}

/// Figure 11's part orderings vs riscv-boom (§5.1.3, EXPERIMENTS.md):
/// deserializing allocating field types gains more than non-allocating
/// ones (11a < 11c), and serializing inline field types more than
/// non-inline ones (11d < 11b). Measured through the panel function
/// `fig11_microbench` prints.
#[test]
fn fig11_part_speedups_keep_the_recorded_order() {
    let vs_boom = |workloads: &[Workload], direction| {
        speedup_table(&mut String::new(), "", workloads, direction)
            .expect("formatting into a String")
            .0
    };
    let (nonalloc, alloc) = (nonalloc_workloads(), alloc_workloads());
    let a = vs_boom(&nonalloc, Direction::Deserialize);
    let b = vs_boom(&nonalloc, Direction::Serialize);
    let c = vs_boom(&alloc, Direction::Deserialize);
    let d = vs_boom(&alloc, Direction::Serialize);
    assert!(a < c, "11a {a:.2}x should trail 11c {c:.2}x");
    assert!(d < b, "11d {d:.2}x should trail 11b {b:.2}x");
}
