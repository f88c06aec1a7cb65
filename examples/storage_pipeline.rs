//! A storage pipeline: append protobuf records to a log region, then scan
//! it back — the *non-RPC* serialization user the paper's §3.4 insight says
//! dominates fleet cycles (over 83% of deserialization cycles are not
//! RPC-related).
//!
//! Uses the HyperProtoBench `storage-rows` service profile and compares all
//! three systems. Run with: `cargo run --release --example storage_pipeline`

use protoacc_suite::bench::{measure, Direction, SystemKind, Workload};
use protoacc_suite::hyperbench::{Generator, ServiceProfile};
use protoacc_suite::runtime::reference;
use protoacc_suite::wire::WireReader;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Generate a population of storage rows.
    let bench = Generator::new(ServiceProfile::bench(2), 0x570).generate(64);
    println!(
        "storage rows: {} records, {} wire bytes total",
        bench.messages.len(),
        bench.total_wire_bytes()
    );

    // Build the log: length-prefixed records, as storage systems frame them.
    let mut log = Vec::new();
    for m in &bench.messages {
        let wire = reference::encode(m, &bench.schema)?;
        let mut len_prefix = Vec::new();
        protoacc_suite::wire::varint::encode(wire.len() as u64, &mut len_prefix);
        log.extend_from_slice(&len_prefix);
        log.extend_from_slice(&wire);
    }
    println!(
        "log segment: {} bytes (records + varint length prefixes)",
        log.len()
    );

    // Scan it back and verify every record.
    let mut reader = WireReader::new(&log);
    let mut recovered = 0;
    while !reader.is_at_end() {
        let record = reader.read_length_delimited()?;
        let m = reference::decode(record, bench.type_id, &bench.schema)?;
        assert!(m.bits_eq(&bench.messages[recovered]), "record {recovered}");
        recovered += 1;
    }
    println!("scan verified {recovered} records losslessly\n");

    // Compare the three systems on the same workload, both directions.
    let workload = Workload {
        name: "storage-rows".into(),
        ..bench.into()
    };
    println!(
        "{:<20} {:>16} {:>16}",
        "System", "append (ser)", "scan (deser)"
    );
    for system in SystemKind::ALL {
        let ser = measure(system, &workload, Direction::Serialize);
        let deser = measure(system, &workload, Direction::Deserialize);
        println!(
            "{:<20} {:>12.2} Gb/s {:>12.2} Gb/s",
            system.label(),
            ser.gbits,
            deser.gbits
        );
    }
    println!(
        "\n(blob-heavy rows are the accelerator's *least* favorable case — the gap here\n\
         is mostly memcpy bandwidth, per the paper's Figure 11c/d discussion)"
    );
    Ok(())
}
