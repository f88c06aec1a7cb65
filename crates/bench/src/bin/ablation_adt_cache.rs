//! Ablation: the accelerator's ADT cache (the typeInfo state, §4.4.5).
//!
//! The field-handler FSM blocks in typeInfo for the ADT entry response; a
//! small on-accelerator cache turns repeat visits into single-cycle hits.
//! This sweep shrinks the cache until every field pays the L2 round trip.

use hyperprotobench::{Generator, ServiceProfile};
use protoacc::AccelConfig;
use protoacc_bench::ubench::nonalloc_workloads;
use protoacc_bench::{geomean, measure, Direction, Workload};

fn main() {
    let mut workloads = vec![];
    workloads.extend(nonalloc_workloads().into_iter().take(6));
    let bench5 = Generator::new(ServiceProfile::bench(5), 0xADC).generate(24);
    workloads.push(Workload {
        name: "bench5".into(),
        schema: bench5.schema,
        type_id: bench5.type_id,
        messages: bench5.messages,
    });
    println!("Ablation: ADT cache size (deserialization geomean, Gbits/s)");
    println!("{:<14} {:>16}", "cache entries", "deser geomean");
    for entries in [1usize, 4, 16, 64, 128, 512] {
        let config = AccelConfig {
            adt_cache_entries: entries,
            ..AccelConfig::default()
        };
        let gbits: Vec<f64> = workloads
            .iter()
            .map(|w| measure(config, w, Direction::Deserialize).gbits)
            .collect();
        println!("{entries:<14} {:>16.3}", geomean(&gbits));
    }
    println!();
    println!(
        "(each miss blocks the typeInfo state on an L2 access; the default 128 entries\n\
         cover the hot message types of every workload here)"
    );
}
