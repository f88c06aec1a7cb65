//! Configuration study (Appendix A.7.1): attaching the accelerator to an
//! in-order Rocket-class core instead of the superscalar BOOM.
//!
//! The accelerator's cycles are host-independent (it only shares the memory
//! system), so the *speedup* grows as the host weakens — the cheaper the
//! core, the stronger the case for offload.

use protoacc_bench::ubench::nonalloc_workloads;
use protoacc_bench::{geomean, measure, Direction, SystemKind};
use protoacc_cpu::CostTable;

fn main() {
    let workloads = nonalloc_workloads();
    println!("Host-core study: accelerator speedup by host class (Fig 11a/11b sets)");
    println!(
        "{:<14} {:>16} {:>16} {:>16}",
        "direction", "vs rocket", "vs boom", "vs Xeon"
    );
    for direction in [Direction::Deserialize, Direction::Serialize] {
        let accel: Vec<f64> = workloads
            .iter()
            .map(|w| measure(SystemKind::RiscvBoomAccel, w, direction).gbits)
            .collect();
        let boom: Vec<f64> = workloads
            .iter()
            .map(|w| measure(SystemKind::RiscvBoom, w, direction).gbits)
            .collect();
        let xeon: Vec<f64> = workloads
            .iter()
            .map(|w| measure(SystemKind::Xeon, w, direction).gbits)
            .collect();
        let rocket: Vec<f64> = workloads
            .iter()
            .map(|w| measure(CostTable::rocket(), w, direction).gbits)
            .collect();
        let label = match direction {
            Direction::Deserialize => "deserialize",
            Direction::Serialize => "serialize",
        };
        println!(
            "{label:<14} {:>15.2}x {:>15.2}x {:>15.2}x",
            geomean(&accel) / geomean(&rocket),
            geomean(&accel) / geomean(&boom),
            geomean(&accel) / geomean(&xeon)
        );
    }
    println!();
    println!(
        "(the accelerator itself is host-independent; weaker hosts make the offload case\n\
         stronger — the A.7.1 customization space the artifact exposes)"
    );
}
