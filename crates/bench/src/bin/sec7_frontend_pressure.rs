//! Section 7 study: instruction-cache and branch-predictor pressure.
//!
//! "protoc generates large amounts of branch-heavy code ... a call to
//! serialize or deserialize can even effectively act like an I$ and branch
//! predictor flush. Offloading ... eliminates both of these pressures. This
//! can save significant CPU cycles, potentially as many as accelerating
//! protobufs itself."
//!
//! The study re-runs the Figure 11a set with a per-call frontend-refill tax
//! on the software baselines (the accelerator's RoCC path has no generated
//! code to refill) and reports how the speedup grows with the assumed
//! refill cost.

use protoacc_bench::ubench::nonalloc_workloads;
use protoacc_bench::{geomean, measure, Direction, SystemKind};
use protoacc_cpu::CostTable;

fn main() {
    let workloads = nonalloc_workloads();
    println!("Section 7: frontend (I$/BPU) pressure study — Fig 11a set, deserialization");
    println!(
        "{:<22} {:>16} {:>16}",
        "flush cycles/call", "boom geomean Gb/s", "accel speedup"
    );
    let accel: Vec<f64> = workloads
        .iter()
        .map(|w| measure(SystemKind::RiscvBoomAccel, w, Direction::Deserialize).gbits)
        .collect();
    let accel_geo = geomean(&accel);
    let mut base_speedup = 0.0;
    for flush in [0u64, 500, 1000, 2000, 4000] {
        let cost = CostTable {
            frontend_flush_cycles: flush,
            ..CostTable::boom()
        };
        let boom: Vec<f64> = workloads
            .iter()
            .map(|w| measure(cost.clone(), w, Direction::Deserialize).gbits)
            .collect();
        let boom_geo = geomean(&boom);
        let speedup = accel_geo / boom_geo;
        if flush == 0 {
            base_speedup = speedup;
        }
        println!("{flush:<22} {boom_geo:>16.3} {speedup:>15.2}x");
    }
    println!();
    println!(
        "the paper's point: under frontend pressure the effective speedup grows well past \
         the warm-cache {base_speedup:.1}x, because offloading also removes the generated \
         code's I$/BPU footprint"
    );
}
