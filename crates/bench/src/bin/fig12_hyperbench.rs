//! Regenerates Figures 12 and 13: HyperProtoBench deserialization and
//! serialization results (bench0..bench5 + geomean) on the three systems.
//!
//! Usage: `fig12_hyperbench [--op deser|ser|both]` (default `both`).

use hyperprotobench::generate_suite;
use protoacc_bench::cli::Args;
use protoacc_bench::{format_gbits_table, geomean, measure, Direction, SystemKind, Workload};
use protoacc_fleet::gwp::ServiceCycles;

fn run(direction: Direction, workloads: &[Workload]) -> (f64, f64) {
    let figure = match direction {
        Direction::Deserialize => "Figure 12: HyperProtoBench deserialization",
        Direction::Serialize => "Figure 13: HyperProtoBench serialization",
    };
    println!("== {figure} ==");
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
    let op = Args::parse("fig12_hyperbench [--op deser|ser|both]")
        .value("--op")
        .unwrap_or_else(|| "both".to_owned());
    let suite = generate_suite(48, 0xB0B);
    let workloads: Vec<Workload> = suite
        .into_iter()
        .map(|bench| Workload {
            name: format!("bench{} ({})", bench.profile.index, bench.profile.name),
            schema: bench.schema,
            type_id: bench.type_id,
            messages: bench.messages,
        })
        .collect();
    let mut results = Vec::new();
    if op == "deser" || op == "both" {
        results.push(("deser", run(Direction::Deserialize, &workloads)));
    }
    if op == "ser" || op == "both" {
        results.push(("ser", run(Direction::Serialize, &workloads)));
    }
    if results.len() == 2 {
        let boom = geomean(&results.iter().map(|r| r.1 .0).collect::<Vec<_>>());
        let xeon = geomean(&results.iter().map(|r| r.1 .1).collect::<Vec<_>>());
        println!(
            "HyperProtoBench overall: {boom:.2}x vs riscv-boom (paper: 6.2x), \
             {xeon:.2}x vs Xeon (paper: 3.8x)"
        );
        // §5.2's fleet-savings extrapolation: accelerating 3.45% of fleet
        // cycles by the measured factor.
        let saved = 0.0345 * (1.0 - 1.0 / boom);
        println!(
            "extrapolated fleet-cycle savings: {:.2}% (paper: >2.5%)",
            saved * 100.0
        );
        // Service-weighted view: each benchmark represents a service with a
        // known share of fleet (de)serialization cycles (§5.2 selection).
        let cycles = ServiceCycles::google_2021();
        let (deser_cov, ser_cov) = cycles.union_coverage(6);
        println!(
            "the six modeled services cover {:.0}% of fleet deser and {:.0}% of fleet ser \
             cycles (paper: >13% and >18%)",
            deser_cov * 100.0,
            ser_cov * 100.0
        );
    }
}
