//! Ablation: memloader consumer window width (§4.4.2).
//!
//! Narrower windows bound how much serialized data the deserializer can
//! discard per cycle (hurting bulk skips and copies); wider windows cost
//! area and critical path.

use protoacc::asic::deserializer_estimate;
use protoacc::AccelConfig;
use protoacc_bench::ubench::alloc_workloads;
use protoacc_bench::{geomean, measure, Direction};

fn main() {
    let workloads = alloc_workloads();
    println!("Ablation: memloader window width (deserialization, Fig 11c set)");
    println!(
        "{:<10} {:>16} {:>12} {:>12}",
        "Window B", "deser geomean", "area mm^2", "freq GHz"
    );
    for window in [4usize, 8, 16, 32, 64] {
        let config = AccelConfig {
            window_bytes: window,
            ..AccelConfig::default()
        };
        let gbits: Vec<f64> = workloads
            .iter()
            .map(|w| measure(config, w, Direction::Deserialize).gbits)
            .collect();
        let est = deserializer_estimate(&config);
        println!(
            "{window:<10} {:>16.3} {:>12.3} {:>12.2}",
            geomean(&gbits),
            est.area_mm2,
            est.freq_ghz
        );
    }
}
