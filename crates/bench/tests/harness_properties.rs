//! Properties of the measurement harness itself: determinism, and the
//! paper's headline shape facts that must hold on every build.

use protoacc_bench::ubench::{alloc_workloads, nonalloc_workloads};
use protoacc_bench::{geomean, measure, Direction, SystemKind, Workload};
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

/// Deserialization geomean of `cost` over `workloads`, in Gbit/s.
fn deser_geomean(cost: &CostTable, workloads: &[Workload]) -> f64 {
    let gbits: Vec<f64> = workloads
        .iter()
        .map(|w| measure(cost.clone(), w, Direction::Deserialize).gbits)
        .collect();
    geomean(&gbits)
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
    let rocket = deser_geomean(&CostTable::rocket(), &workloads);
    let boom = deser_geomean(&CostTable::boom(), &workloads);
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
            deser_geomean(&cost, &workloads)
        })
        .collect();
    assert!(
        gbits.windows(2).all(|pair| pair[1] < pair[0]),
        "Gbit/s at flush 0/500/2000: {gbits:?}"
    );
}
