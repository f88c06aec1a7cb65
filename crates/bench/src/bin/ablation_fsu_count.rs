//! Ablation: number of parallel field serializer units (§4.5.4).
//!
//! Sweeps the FSU count and reports serialization throughput on a
//! field-dense workload plus the ASIC cost of each point.

use hyperprotobench::{Generator, ServiceProfile};
use protoacc::asic::serializer_estimate;
use protoacc::AccelConfig;
use protoacc_bench::{measure, Direction, Workload};

fn main() {
    // analytics-rows: wide records, many handle-field-ops per message.
    let bench = Generator::new(ServiceProfile::bench(5), 0xAB1).generate(48);
    let workload = Workload {
        name: bench.profile.label(),
        schema: bench.schema,
        type_id: bench.type_id,
        messages: bench.messages,
    };
    println!("Ablation: field serializer unit count (serialization, bench5)");
    println!(
        "{:<8} {:>14} {:>12} {:>12}",
        "FSUs", "ser Gbits/s", "area mm^2", "freq GHz"
    );
    for fsus in [1usize, 2, 4, 8, 16] {
        let config = AccelConfig {
            field_serializers: fsus,
            ..AccelConfig::default()
        };
        let m = measure(config, &workload, Direction::Serialize);
        let est = serializer_estimate(&config);
        println!(
            "{fsus:<8} {:>14.3} {:>12.3} {:>12.2}",
            m.gbits, est.area_mm2, est.freq_ghz
        );
    }
}
