//! Ablations of the accelerator's design choices: sparse hasbits, the
//! field serializer count, the memloader window, the metadata stack depth
//! and the ADT cache.

use std::fmt::{self, Write};

use hyperprotobench::{Generator, ServiceProfile};
use protoacc::asic::{deserializer_estimate, serializer_estimate};
use protoacc::AccelConfig;
use protoacc_fleet::density::{aggregate_interface_cost, fraction_favoring_protoacc};
use protoacc_fleet::protobufz::ShapeModel;
use protoacc_runtime::hasbits::interface_cost;
use protoacc_runtime::{MessageValue, Value};
use protoacc_schema::{FieldType, SchemaBuilder};
use xrand::StdRng;

use crate::ubench::{alloc_workloads, nonalloc_workloads};
use crate::{geomean_gbits, measure, Direction, Workload};

/// Sparse vs dense hasbits / per-instance schema tables (§3.7). Sweeps
/// message populations across the density spectrum and compares the
/// per-instance programming-interface cost of the two designs: prior work
/// (Optimus Prime-style) writes 64 bits of schema-table state per present
/// field; protoacc reads one hasbit per defined field-number slot.
pub fn ablation_hasbits(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Ablation: programming-interface state per message instance (Section 3.7)"
    )?;
    writeln!(
        out,
        "{:<12} {:>10} {:>18} {:>18} {:>10}",
        "density", "present", "prior-work bits", "protoacc bits", "winner"
    )?;
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
        writeln!(
            out,
            "{density:<12.4} {present:>10} {:>18} {:>18} {:>10}",
            cost.prior_work_bits, cost.protoacc_bits, winner
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "crossover at density 1/64 = {:.4}; Figure 7 shows >=92% of fleet messages sit above it",
        1.0 / 64.0
    )?;
    writeln!(out)?;
    // Fleet-level aggregate, echoing fig7_density.
    let mut rng = StdRng::seed_from_u64(0xAB2);
    let samples = ShapeModel::google_2021().sample_population(&mut rng, 50_000);
    let (prior, ours) = aggregate_interface_cost(&samples);
    writeln!(
        out,
        "fleet population: protoacc favored for {:.1}% of messages; aggregate state ratio {:.1}x",
        fraction_favoring_protoacc(&samples) * 100.0,
        prior as f64 / ours as f64
    )?;

    // Cycle-level comparison on the accelerator itself: the evaluated sparse
    // design vs the rejected dense packing (mapping-table read per field,
    // Section 4.2).
    let workloads = nonalloc_workloads();
    let sparse = geomean_gbits(AccelConfig::default(), &workloads, Direction::Deserialize);
    let dense_config = AccelConfig {
        dense_hasbits: true,
        ..AccelConfig::default()
    };
    let dense = geomean_gbits(dense_config, &workloads, Direction::Deserialize);
    writeln!(out)?;
    writeln!(
        out,
        "accelerator deser geomean (Fig 11a set): sparse hasbits {:.3} Gbit/s vs dense \
         packing {:.3} Gbit/s ({:.1}% slower with the mapping-table read)",
        sparse,
        dense,
        (1.0 - dense / sparse) * 100.0
    )
}

/// Number of parallel field serializer units (§4.5.4): serialization
/// throughput on a field-dense workload plus the ASIC cost of each point.
pub fn ablation_fsu_count(out: &mut String) -> fmt::Result {
    // analytics-rows: wide records, many handle-field-ops per message.
    let workload: Workload = Generator::new(ServiceProfile::bench(5), 0xAB1)
        .generate(48)
        .into();
    writeln!(
        out,
        "Ablation: field serializer unit count (serialization, bench5)"
    )?;
    writeln!(
        out,
        "{:<8} {:>14} {:>12} {:>12}",
        "FSUs", "ser Gbits/s", "area mm^2", "freq GHz"
    )?;
    for fsus in [1usize, 2, 4, 8, 16] {
        let config = AccelConfig {
            field_serializers: fsus,
            ..AccelConfig::default()
        };
        let m = measure(config, &workload, Direction::Serialize);
        let est = serializer_estimate(&config);
        writeln!(
            out,
            "{fsus:<8} {:>14.3} {:>12.3} {:>12.2}",
            m.gbits, est.area_mm2, est.freq_ghz
        )?;
    }
    Ok(())
}

/// Memloader consumer window width (§4.4.2). Narrower windows bound how
/// much serialized data the deserializer can discard per cycle (hurting
/// bulk skips and copies); wider windows cost area and critical path.
pub fn ablation_window(out: &mut String) -> fmt::Result {
    let workloads = alloc_workloads();
    writeln!(
        out,
        "Ablation: memloader window width (deserialization, Fig 11c set)"
    )?;
    writeln!(
        out,
        "{:<10} {:>16} {:>12} {:>12}",
        "Window B", "deser geomean", "area mm^2", "freq GHz"
    )?;
    for window in [4usize, 8, 16, 32, 64] {
        let config = AccelConfig {
            window_bytes: window,
            ..AccelConfig::default()
        };
        let est = deserializer_estimate(&config);
        writeln!(
            out,
            "{window:<10} {:>16.3} {:>12.3} {:>12.2}",
            geomean_gbits(config, &workloads, Direction::Deserialize),
            est.area_mm2,
            est.freq_ghz
        )?;
    }
    Ok(())
}

/// A population of 16 `depth`-deep `Node { v, next }` chains.
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

/// On-chip sub-message metadata stack depth (§3.8). The paper sizes the
/// stacks at 25 entries because 99.999% of fleet bytes sit at depth <= 25,
/// spilling to DRAM beyond; this sweep deserializes deeply nested chains
/// at several stack depths.
pub fn ablation_stack_depth(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Ablation: on-chip metadata stack depth (deserializing nested chains)"
    )?;
    writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "msg depth", "stack 8", "stack 25", "stack 50", "stack 100"
    )?;
    for msg_depth in [4usize, 12, 25, 40, 80] {
        let workload = chain_workload(msg_depth);
        write!(out, "{msg_depth:<12}")?;
        for stack in [8usize, 25, 50, 100] {
            let config = AccelConfig {
                stack_depth: stack,
                ..AccelConfig::default()
            };
            let m = measure(config, &workload, Direction::Deserialize);
            write!(out, " {:>9.3}", m.gbits)?;
        }
        writeln!(out)?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "(throughput in Gbits/s; depth-25 stacks cover 99.999% of fleet bytes per §3.8,\n\
         so only the rare deeper chains pay the spill penalty)"
    )
}

/// The accelerator's ADT cache (the typeInfo state, §4.4.5). The
/// field-handler FSM blocks in typeInfo for the ADT entry response; a small
/// on-accelerator cache turns repeat visits into single-cycle hits. This
/// sweep shrinks the cache until every field pays the L2 round trip.
pub fn ablation_adt_cache(out: &mut String) -> fmt::Result {
    let mut workloads: Vec<Workload> = nonalloc_workloads().into_iter().take(6).collect();
    workloads.push(
        Generator::new(ServiceProfile::bench(5), 0xADC)
            .generate(24)
            .into(),
    );
    writeln!(
        out,
        "Ablation: ADT cache size (deserialization geomean, Gbits/s)"
    )?;
    writeln!(out, "{:<14} {:>16}", "cache entries", "deser geomean")?;
    for entries in [1usize, 4, 16, 64, 128, 512] {
        let config = AccelConfig {
            adt_cache_entries: entries,
            ..AccelConfig::default()
        };
        writeln!(
            out,
            "{entries:<14} {:>16.3}",
            geomean_gbits(config, &workloads, Direction::Deserialize)
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "(each miss blocks the typeInfo state on an L2 access; the default 128 entries\n\
         cover the hot message types of every workload here)"
    )
}
