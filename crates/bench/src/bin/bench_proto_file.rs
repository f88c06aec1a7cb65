//! Benchmark *your own* `.proto` file on all three systems — the adoption
//! path for downstream users.
//!
//! Usage:
//!
//! ```text
//! bench_proto_file --proto protos/telemetry.proto [--root ScrapeBatch]
//!                  [--count 32] [--seed 42]
//! ```
//!
//! Parses the schema, populates a deterministic message population (sized
//! by the rpc-metadata shape profile unless the schema's own strings say
//! otherwise), and prints deserialization and serialization throughput for
//! riscv-boom, Xeon, and riscv-boom-accel.

use hyperprotobench::{populate::populate_messages, ServiceProfile};
use protoacc_bench::cli::Args;
use protoacc_bench::{measure, Direction, SystemKind, Workload};
use protoacc_schema::parse_proto;

fn main() {
    let args = Args::parse(
        "bench_proto_file --proto <file.proto> [--root <Message>] [--count N] [--seed S]",
    );
    let Some(path) = args.value::<String>("--proto") else {
        args.fail("--proto is required");
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    };
    let schema = match parse_proto(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    };
    // Root: --root by name, else the last top-level message (files
    // conventionally build up to their aggregate type).
    let root = match args.value::<String>("--root") {
        Some(name) => schema.id_by_name(&name).unwrap_or_else(|| {
            eprintln!("message `{name}` not found in {path}");
            std::process::exit(2);
        }),
        None => schema
            .default_root()
            .expect("schema has at least one message"),
    };
    let count = args.value("--count").unwrap_or(32);
    let seed = args.value("--seed").unwrap_or(42);

    let params = ServiceProfile::bench(4).shape; // balanced default mix
    let messages = populate_messages(&schema, root, &params, seed, count);
    let workload = Workload {
        name: schema.message(root).name().to_owned(),
        schema,
        type_id: root,
        messages,
    };
    println!(
        "{}: {} messages, {} wire bytes per pass",
        workload.name,
        workload.messages.len(),
        workload.wire_bytes()
    );
    println!(
        "{:<20} {:>16} {:>16}",
        "System", "deser Gbits/s", "ser Gbits/s"
    );
    for system in SystemKind::ALL {
        let d = measure(system, &workload, Direction::Deserialize);
        let s = measure(system, &workload, Direction::Serialize);
        println!("{:<20} {:>16.3} {:>16.3}", system.label(), d.gbits, s.gbits);
    }
}
