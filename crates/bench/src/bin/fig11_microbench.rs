//! Regenerates Figure 11: protobuf microbenchmark results.
//!
//! Four parts, as in the paper:
//! * `a` — deserialization, field types that need no in-accelerator
//!   allocation (Fig 11a);
//! * `b` — serialization, field types "inline" in the C++ object (Fig 11b);
//! * `c` — deserialization, allocating field types (Fig 11c);
//! * `d` — serialization, non-inline field types (Fig 11d).
//!
//! Usage: `fig11_microbench [--part a|b|c|d|all]` (default `all`).

use protoacc_bench::cli::Args;
use protoacc_bench::ubench::{alloc_workloads, nonalloc_workloads};
use protoacc_bench::{format_gbits_table, geomean, measure, Direction, SystemKind, Workload};

fn run_part(title: &str, workloads: &[Workload], direction: Direction) -> (f64, f64) {
    println!("== {title} ==");
    let rows: Vec<(String, Vec<protoacc_bench::Measurement>)> = workloads
        .iter()
        .map(|w| {
            let measurements = SystemKind::ALL
                .iter()
                .map(|&system| measure(system, w, direction))
                .collect();
            (w.name.clone(), measurements)
        })
        .collect();
    print!("{}", format_gbits_table(&rows));
    let accel: Vec<f64> = rows.iter().map(|(_, ms)| ms[2].gbits).collect();
    let boom: Vec<f64> = rows.iter().map(|(_, ms)| ms[0].gbits).collect();
    let xeon: Vec<f64> = rows.iter().map(|(_, ms)| ms[1].gbits).collect();
    let vs_boom = geomean(&accel) / geomean(&boom);
    let vs_xeon = geomean(&accel) / geomean(&xeon);
    println!("speedup (geomean): {vs_boom:.2}x vs riscv-boom, {vs_xeon:.2}x vs Xeon\n");
    (vs_boom, vs_xeon)
}

fn main() {
    let part = Args::parse("fig11_microbench [--part a|b|c|d|all]")
        .value("--part")
        .unwrap_or_else(|| "all".to_owned());
    let nonalloc = nonalloc_workloads();
    let alloc = alloc_workloads();
    let mut summaries = Vec::new();
    if part == "a" || part == "all" {
        summaries.push((
            "11a deser non-alloc",
            run_part(
                "Figure 11a: deserialization, non-allocating field types",
                &nonalloc,
                Direction::Deserialize,
            ),
        ));
    }
    if part == "b" || part == "all" {
        summaries.push((
            "11b ser inline",
            run_part(
                "Figure 11b: serialization, inline field types",
                &nonalloc,
                Direction::Serialize,
            ),
        ));
    }
    if part == "c" || part == "all" {
        summaries.push((
            "11c deser alloc",
            run_part(
                "Figure 11c: deserialization, allocating field types",
                &alloc,
                Direction::Deserialize,
            ),
        ));
    }
    if part == "d" || part == "all" {
        summaries.push((
            "11d ser non-inline",
            run_part(
                "Figure 11d: serialization, non-inline field types",
                &alloc,
                Direction::Serialize,
            ),
        ));
    }
    if summaries.len() == 4 {
        println!("== Overall microbenchmark summary (Section 5.1.3) ==");
        for (name, (b, x)) in &summaries {
            println!("{name:<22} {b:>6.2}x vs boom {x:>6.2}x vs Xeon");
        }
        let boom_overall = geomean(&summaries.iter().map(|s| s.1 .0).collect::<Vec<_>>());
        let xeon_overall = geomean(&summaries.iter().map(|s| s.1 .1).collect::<Vec<_>>());
        println!(
            "overall geomean: {boom_overall:.2}x vs riscv-boom (paper: 11.2x), \
             {xeon_overall:.2}x vs Xeon (paper: 3.8x)"
        );
    }
}
