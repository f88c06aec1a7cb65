//! The evaluation of Section 5: the microbenchmarks (Figure 11),
//! HyperProtoBench (Figures 12 and 13) and the ASIC results (§5.3).

use std::fmt::{self, Write};

use hyperprotobench::generate_suite;
use protoacc::asic::{deserializer_estimate, serializer_estimate};
use protoacc::AccelConfig;
use protoacc_fleet::gwp::{FleetProfile, ServiceCycles};

use crate::ubench::{alloc_workloads, nonalloc_workloads};
use crate::{geomean, measure, Direction, SystemKind, Workload};

/// One Figure 11/12/13 panel: measures every workload on every
/// [`SystemKind`] in `direction`, appends the Gbit/s table under `title`
/// (one row per workload, one column per system, then a geomean row) and
/// the geomean speedup line, and returns the accelerator's geomean speedup
/// over riscv-boom and over Xeon.
pub fn speedup_table(
    out: &mut String,
    title: &str,
    workloads: &[Workload],
    direction: Direction,
) -> Result<(f64, f64), fmt::Error> {
    writeln!(out, "== {title} ==")?;
    write!(out, "{:<22}", "Benchmark")?;
    for system in SystemKind::ALL {
        write!(out, "{:>18}", system.label())?;
    }
    writeln!(out)?;
    let mut columns = vec![Vec::new(); SystemKind::ALL.len()];
    for w in workloads {
        write!(out, "{:<22}", w.name)?;
        for (column, system) in columns.iter_mut().zip(SystemKind::ALL) {
            let gbits = measure(system, w, direction).gbits;
            write!(out, "{gbits:>18.3}")?;
            column.push(gbits);
        }
        writeln!(out)?;
    }
    write!(out, "{:<22}", "geomean")?;
    let geomeans: Vec<f64> = columns.iter().map(|column| geomean(column)).collect();
    for g in &geomeans {
        write!(out, "{g:>18.3}")?;
    }
    writeln!(out)?;
    // Columns follow `SystemKind::ALL`: riscv-boom, Xeon, riscv-boom-accel.
    let vs_boom = geomeans[2] / geomeans[0];
    let vs_xeon = geomeans[2] / geomeans[1];
    writeln!(
        out,
        "speedup (geomean): {vs_boom:.2}x vs riscv-boom, {vs_xeon:.2}x vs Xeon\n"
    )?;
    Ok((vs_boom, vs_xeon))
}

/// Figure 11: the protobuf microbenchmarks, in the paper's four parts —
/// (a) deserialization of field types that need no in-accelerator
/// allocation, (b) serialization of field types inline in the C++ object,
/// (c) deserialization of allocating field types, (d) serialization of
/// non-inline field types — then each part's speedups beside the paper's
/// (§5.1.3).
pub fn fig11_microbench(out: &mut String) -> fmt::Result {
    let nonalloc = nonalloc_workloads();
    let alloc = alloc_workloads();
    // (summary row, panel title, workloads, direction, paper's speedups vs
    // riscv-boom and vs Xeon)
    let parts = [
        (
            "11a deser non-alloc",
            "Figure 11a: deserialization, non-allocating field types",
            &nonalloc,
            Direction::Deserialize,
            (7.0, 2.6),
        ),
        (
            "11b ser inline",
            "Figure 11b: serialization, inline field types",
            &nonalloc,
            Direction::Serialize,
            (15.5, 4.5),
        ),
        (
            "11c deser alloc",
            "Figure 11c: deserialization, allocating field types",
            &alloc,
            Direction::Deserialize,
            (14.2, 6.9),
        ),
        (
            "11d ser non-inline",
            "Figure 11d: serialization, non-inline field types",
            &alloc,
            Direction::Serialize,
            (10.1, 2.8),
        ),
    ];
    let mut summaries = Vec::new();
    for (name, title, workloads, direction, paper) in parts {
        let speedups = speedup_table(out, title, workloads, direction)?;
        summaries.push((name, speedups, paper));
    }
    writeln!(out, "== Overall microbenchmark summary (Section 5.1.3) ==")?;
    for (name, (b, x), (paper_b, paper_x)) in &summaries {
        writeln!(
            out,
            "{name:<22} {b:>6.2}x vs boom (paper: {paper_b:>4.1}x) {x:>6.2}x vs Xeon \
             (paper: {paper_x:>3.1}x)"
        )?;
    }
    let boom_overall = geomean(&summaries.iter().map(|s| s.1 .0).collect::<Vec<_>>());
    let xeon_overall = geomean(&summaries.iter().map(|s| s.1 .1).collect::<Vec<_>>());
    writeln!(
        out,
        "overall geomean: {boom_overall:.2}x vs riscv-boom (paper: 11.2x), \
         {xeon_overall:.2}x vs Xeon (paper: 3.8x)"
    )
}

/// Figures 12 and 13's tables: HyperProtoBench deserialization and
/// serialization (bench0..bench5 + geomean) on the three systems. Returns
/// the overall speedup, the geomean over both directions, vs riscv-boom
/// and vs Xeon.
pub fn hyperbench_speedups(out: &mut String) -> Result<(f64, f64), fmt::Error> {
    let workloads: Vec<Workload> = generate_suite(48, 0xB0B)
        .into_iter()
        .map(|bench| Workload {
            name: format!("bench{} ({})", bench.profile.index, bench.profile.name),
            ..bench.into()
        })
        .collect();
    let (deser_boom, deser_xeon) = speedup_table(
        out,
        "Figure 12: HyperProtoBench deserialization",
        &workloads,
        Direction::Deserialize,
    )?;
    let (ser_boom, ser_xeon) = speedup_table(
        out,
        "Figure 13: HyperProtoBench serialization",
        &workloads,
        Direction::Serialize,
    )?;
    Ok((
        geomean(&[deser_boom, ser_boom]),
        geomean(&[deser_xeon, ser_xeon]),
    ))
}

/// §5.2's fleet-savings extrapolation: the share of fleet cycles saved by
/// running the fleet's C++ (de)serialization cycles `speedup` times faster.
#[must_use]
pub fn fleet_savings(speedup: f64) -> f64 {
    FleetProfile::google_2021().acceleration_opportunity() * (1.0 - 1.0 / speedup)
}

/// Figures 12 and 13 (see [`hyperbench_speedups`]), then the overall
/// speedups and §5.2's fleet-savings extrapolation.
pub fn fig12_hyperbench(out: &mut String) -> fmt::Result {
    let (boom, xeon) = hyperbench_speedups(out)?;
    writeln!(
        out,
        "HyperProtoBench overall: {boom:.2}x vs riscv-boom (paper: 6.2x), \
         {xeon:.2}x vs Xeon (paper: 3.8x)"
    )?;
    writeln!(
        out,
        "extrapolated fleet-cycle savings: {:.2}% (paper: >2.5%)",
        fleet_savings(boom) * 100.0
    )?;
    // Service-weighted view: each benchmark represents a service with a
    // known share of fleet (de)serialization cycles (§5.2 selection).
    let cycles = ServiceCycles::google_2021();
    let (deser_cov, ser_cov) = cycles.union_coverage(6);
    writeln!(
        out,
        "the six modeled services cover {:.0}% of fleet deser and {:.0}% of fleet ser \
         cycles (paper: >13% and >18%)",
        deser_cov * 100.0,
        ser_cov * 100.0
    )
}

/// Section 5.3: ASIC critical path and area for both units in the 22 nm
/// structural model, plus the scaling knobs.
pub fn sec5_3_asic(out: &mut String) -> fmt::Result {
    let config = AccelConfig::default();
    let deser = deserializer_estimate(&config);
    let ser = serializer_estimate(&config);
    writeln!(
        out,
        "Section 5.3: ASIC critical path and area (22 nm structural model)"
    )?;
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>14} {:>12}",
        "Unit", "area (mm^2)", "freq (GHz)", "logic (gates)", "SRAM (bits)"
    )?;
    writeln!(
        out,
        "{:<14} {:>12.3} {:>12.2} {:>14.0} {:>12.0}",
        "deserializer", deser.area_mm2, deser.freq_ghz, deser.gates, deser.sram_bits
    )?;
    writeln!(
        out,
        "{:<14} {:>12.3} {:>12.2} {:>14.0} {:>12.0}",
        "serializer", ser.area_mm2, ser.freq_ghz, ser.gates, ser.sram_bits
    )?;
    writeln!(out)?;
    writeln!(out, "paper (commercial 22 nm FinFET synthesis):")?;
    writeln!(out, "  deserializer: 0.133 mm^2 @ 1.95 GHz")?;
    writeln!(out, "  serializer:   0.278 mm^2 @ 1.84 GHz")?;
    writeln!(out)?;
    writeln!(out, "scaling with field-serializer count:")?;
    for fsus in [1usize, 2, 4, 8] {
        let est = serializer_estimate(&AccelConfig {
            field_serializers: fsus,
            ..AccelConfig::default()
        });
        writeln!(
            out,
            "  {fsus} FSUs: {:.3} mm^2 @ {:.2} GHz",
            est.area_mm2, est.freq_ghz
        )?;
    }
    writeln!(out, "scaling with memloader window width:")?;
    for window in [8usize, 16, 32, 64] {
        let est = deserializer_estimate(&AccelConfig {
            window_bytes: window,
            ..AccelConfig::default()
        });
        writeln!(
            out,
            "  {window} B window: {:.3} mm^2 @ {:.2} GHz",
            est.area_mm2, est.freq_ghz
        )?;
    }
    Ok(())
}
