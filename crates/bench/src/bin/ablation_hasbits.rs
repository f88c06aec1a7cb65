//! Ablation: sparse vs dense hasbits / per-instance schema tables (§3.7).
//!
//! Sweeps message populations across the density spectrum and compares the
//! per-instance programming-interface cost of the two designs: prior work
//! (Optimus Prime-style) writes 64 bits of schema-table state per present
//! field; protoacc reads one hasbit per defined field-number slot.

use protoacc_runtime::hasbits::interface_cost;

fn main() {
    println!("Ablation: programming-interface state per message instance (Section 3.7)");
    println!(
        "{:<12} {:>10} {:>18} {:>18} {:>10}",
        "density", "present", "prior-work bits", "protoacc bits", "winner"
    );
    let span = 64u64;
    for present in [0u64, 1, 2, 4, 8, 16, 32, 64] {
        let density = present as f64 / span as f64;
        let cost = interface_cost(present, span);
        let winner = if cost.protoacc_bits < cost.prior_work_bits {
            "protoacc"
        } else if cost.protoacc_bits == cost.prior_work_bits {
            "tie"
        } else {
            "prior work"
        };
        println!(
            "{density:<12.4} {present:>10} {:>18} {:>18} {:>10}",
            cost.prior_work_bits, cost.protoacc_bits, winner
        );
    }
    println!();
    println!(
        "crossover at density 1/64 = {:.4}; Figure 7 shows >=92% of fleet messages sit above it",
        1.0 / 64.0
    );
    println!();
    // Fleet-level aggregate, echoing fig7_density.
    use protoacc_fleet::density::{aggregate_interface_cost, fraction_favoring_protoacc};
    use protoacc_fleet::protobufz::ShapeModel;
    use xrand::StdRng;
    let mut rng = StdRng::seed_from_u64(0xAB2);
    let samples = ShapeModel::google_2021().sample_population(&mut rng, 50_000);
    let (prior, ours) = aggregate_interface_cost(&samples);
    println!(
        "fleet population: protoacc favored for {:.1}% of messages; aggregate state ratio {:.1}x",
        fraction_favoring_protoacc(&samples) * 100.0,
        prior as f64 / ours as f64
    );

    // Cycle-level comparison on the accelerator itself: the evaluated sparse
    // design vs the rejected dense packing (mapping-table read per field,
    // Section 4.2).
    use protoacc::AccelConfig;
    use protoacc_bench::ubench::nonalloc_workloads;
    use protoacc_bench::{geomean, measure, Direction};
    let workloads = nonalloc_workloads();
    let sparse: Vec<f64> = workloads
        .iter()
        .map(|w| measure(AccelConfig::default(), w, Direction::Deserialize).gbits)
        .collect();
    let dense_config = AccelConfig {
        dense_hasbits: true,
        ..AccelConfig::default()
    };
    let dense: Vec<f64> = workloads
        .iter()
        .map(|w| measure(dense_config, w, Direction::Deserialize).gbits)
        .collect();
    println!();
    println!(
        "accelerator deser geomean (Fig 11a set): sparse hasbits {:.3} Gbit/s vs dense \
         packing {:.3} Gbit/s ({:.1}% slower with the mapping-table read)",
        geomean(&sparse),
        geomean(&dense),
        (1.0 - geomean(&dense) / geomean(&sparse)) * 100.0
    );
}
