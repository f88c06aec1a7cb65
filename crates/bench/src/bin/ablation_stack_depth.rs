//! Ablation: on-chip sub-message metadata stack depth (§3.8).
//!
//! The paper sizes the stacks at 25 entries because 99.999% of fleet bytes
//! sit at depth <= 25, spilling to DRAM beyond. This sweep deserializes
//! deeply nested chains at several stack depths.

use protoacc::AccelConfig;
use protoacc_bench::{measure, Direction, Workload};
use protoacc_runtime::{MessageValue, Value};
use protoacc_schema::{FieldType, SchemaBuilder};

fn chain_workload(depth: usize) -> Workload {
    let mut b = SchemaBuilder::new();
    let node = b.declare("Node");
    b.message(node).optional("v", FieldType::Int64, 1).optional(
        "next",
        FieldType::Message(node),
        2,
    );
    let schema = b.build().expect("chain schema");
    let mut m = MessageValue::new(node);
    m.set_unchecked(1, Value::Int64(0));
    for level in 1..depth {
        let mut parent = MessageValue::new(node);
        parent.set_unchecked(1, Value::Int64(level as i64));
        parent.set_unchecked(2, Value::Message(m));
        m = parent;
    }
    Workload {
        name: format!("chain-{depth}"),
        schema,
        type_id: node,
        messages: vec![m; 16],
    }
}

fn main() {
    println!("Ablation: on-chip metadata stack depth (deserializing nested chains)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "msg depth", "stack 8", "stack 25", "stack 50", "stack 100"
    );
    for msg_depth in [4usize, 12, 25, 40, 80] {
        let workload = chain_workload(msg_depth);
        print!("{msg_depth:<12}");
        for stack in [8usize, 25, 50, 100] {
            let config = AccelConfig {
                stack_depth: stack,
                ..AccelConfig::default()
            };
            let m = measure(config, &workload, Direction::Deserialize);
            print!(" {:>9.3}", m.gbits);
        }
        println!();
    }
    println!();
    println!(
        "(throughput in Gbits/s; depth-25 stacks cover 99.999% of fleet bytes per §3.8,\n\
         so only the rare deeper chains pay the spill penalty)"
    );
}
