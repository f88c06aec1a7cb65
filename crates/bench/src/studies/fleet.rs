//! The fleet-profiling results of Section 3: Table 1 and Figures 2-7.

use std::fmt::{self, Write};

use protoacc_cpu::CostTable;
use protoacc_fleet::density::{
    aggregate_interface_cost, density_histogram, fraction_favoring_protoacc,
};
use protoacc_fleet::gwp::{FleetProfile, ProtoOp};
use protoacc_fleet::model24::Model24;
use protoacc_fleet::protobufz::{
    estimate_bytes_field_size_histogram, estimate_field_bytes_shares, estimate_field_count_shares,
    estimate_size_histogram, ShapeModel, TRACKED_TYPES,
};
use protoacc_fleet::{bucket_label, SIZE_BUCKET_COUNT};
use protoacc_schema::{FieldType, PerfClass};
use xrand::StdRng;

/// Table 1: classification of protobuf field types into
/// performance-similar groups.
pub fn fig_table1(out: &mut String) -> fmt::Result {
    writeln!(out, "Table 1: Classification of protobuf field types")?;
    writeln!(
        out,
        "{:<16} {:<44} Sizes (bytes)",
        "Perf class", "Protobuf types (incl. repeated)"
    )?;
    for class in PerfClass::ALL {
        let types: Vec<&str> = FieldType::SCALARS
            .iter()
            .filter(|t| t.perf_class() == Some(class))
            .map(|t| t.keyword().expect("scalar keyword"))
            .collect();
        let sizes = match class {
            PerfClass::BytesLike => "see Fig. 4c buckets".to_owned(),
            PerfClass::VarintLike => "1-10, by 1".to_owned(),
            PerfClass::FloatLike | PerfClass::Fixed32Like => "4".to_owned(),
            PerfClass::DoubleLike | PerfClass::Fixed64Like => "8".to_owned(),
        };
        writeln!(
            out,
            "{:<16} {:<44} {}",
            class.label(),
            types.join(", "),
            sizes
        )?;
    }
    Ok(())
}

/// Figure 2: fleet-wide C++ protobuf cycles by operation. Draws a large
/// synthetic GWP sample population from the fleet profile and re-estimates
/// the per-operation shares, printing both beside the model's ground truth.
pub fn fig2_cycles_by_op(out: &mut String) -> fmt::Result {
    let profile = FleetProfile::google_2021();
    let mut rng = StdRng::seed_from_u64(0x6F2);
    let samples = profile.sample_cycles(&mut rng, 1_000_000);
    let estimated = FleetProfile::estimate_shares(&samples);

    writeln!(out, "Figure 2: fleet-wide C++ protobuf cycles by operation")?;
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>16}",
        "Operation", "model %", "estimated %", "% of fleet cycles"
    )?;
    for (i, op) in ProtoOp::ALL.iter().enumerate() {
        writeln!(
            out,
            "{:<14} {:>11.1}% {:>11.1}% {:>15.2}%",
            op.label(),
            profile.op_shares[i] * 100.0,
            estimated[i] * 100.0,
            profile.fleet_fraction(*op) * 100.0
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "protobuf ops are {:.1}% of fleet cycles; {:.0}% of protobuf cycles are C++",
        profile.protobuf_fraction_of_fleet * 100.0,
        profile.cpp_fraction_of_protobuf * 100.0
    )?;
    writeln!(
        out,
        "acceleration opportunity (deser + ser + byte-size): {:.2}% of fleet cycles (paper: 3.45%)",
        profile.acceleration_opportunity() * 100.0
    )?;
    writeln!(
        out,
        "future-work merge/copy/clear (Section 7): {:.1}% of protobuf cycles (paper: 17.1%)",
        profile.merge_copy_clear_share() * 100.0
    )
}

/// Figure 3: fleet-wide top-level message size distribution.
pub fn fig3_msg_sizes(out: &mut String) -> fmt::Result {
    let model = ShapeModel::google_2021();
    let mut rng = StdRng::seed_from_u64(0xF163);
    let samples = model.sample_population(&mut rng, 200_000);
    let hist = estimate_size_histogram(&samples);

    writeln!(
        out,
        "Figure 3: fleet-wide top-level message size distribution"
    )?;
    writeln!(
        out,
        "{:<18} {:>10} {:>12}",
        "Bucket (bytes)", "model %", "estimated %"
    )?;
    let total: f64 = model.size_bucket_weights.iter().sum();
    for (i, share) in hist.iter().enumerate().take(SIZE_BUCKET_COUNT) {
        writeln!(
            out,
            "{:<18} {:>9.2}% {:>11.2}%",
            bucket_label(i),
            model.size_bucket_weights[i] / total * 100.0,
            share * 100.0
        )?;
    }
    let le8 = hist[0];
    let le32 = hist[0] + hist[1];
    let le512: f64 = hist[..6].iter().sum();
    writeln!(out)?;
    writeln!(
        out,
        "cumulative: {:.0}% <= 8 B (paper: 24%), {:.0}% <= 32 B (paper: 56%), \
         {:.0}% <= 512 B (paper: 93%)",
        le8 * 100.0,
        le32 * 100.0,
        le512 * 100.0
    )
}

/// Figure 4: fleet-wide field-type and bytes-field breakdowns: (a) % of
/// fields observed by type; (b) % of message bytes by type; (c) % of bytes
/// fields by field size.
pub fn fig4_field_breakdown(out: &mut String) -> fmt::Result {
    let model = ShapeModel::google_2021();
    let mut rng = StdRng::seed_from_u64(0xF164);
    let samples = model.sample_population(&mut rng, 100_000);

    let counts = estimate_field_count_shares(&samples);
    let bytes = estimate_field_bytes_shares(&samples);
    writeln!(
        out,
        "Figure 4a/4b: field-type breakdowns (fields observed vs message bytes)"
    )?;
    writeln!(
        out,
        "{:<10} {:>12} {:>14}",
        "Type", "% of fields", "% of bytes"
    )?;
    for (i, t) in TRACKED_TYPES.iter().enumerate() {
        writeln!(
            out,
            "{:<10} {:>11.1}% {:>13.1}%",
            t.keyword().expect("tracked scalar"),
            counts[i] * 100.0,
            bytes[i] * 100.0
        )?;
    }
    let varint_fields: f64 = TRACKED_TYPES
        .iter()
        .zip(counts.iter())
        .filter(|(t, _)| t.perf_class() == Some(PerfClass::VarintLike))
        .map(|(_, &s)| s)
        .sum();
    let bytes_volume = bytes[0] + bytes[1];
    writeln!(out)?;
    writeln!(
        out,
        "varint-like share of fields: {:.0}% (paper: >56%); string+bytes share of bytes: \
         {:.0}% (paper: >92%)",
        varint_fields * 100.0,
        bytes_volume * 100.0
    )?;

    writeln!(out)?;
    writeln!(out, "Figure 4c: bytes-field size distribution")?;
    let hist = estimate_bytes_field_size_histogram(&samples);
    writeln!(out, "{:<18} {:>12}", "Bucket (bytes)", "% of fields")?;
    for (i, share) in hist.iter().enumerate().take(SIZE_BUCKET_COUNT) {
        writeln!(out, "{:<18} {:>11.2}%", bucket_label(i), share * 100.0)?;
    }
    Ok(())
}

/// Figure 5: estimated fleet-wide deserialization time by field type and
/// size, via the 24-slice model of §3.6.4.
pub fn fig5_deser_time_model(out: &mut String) -> fmt::Result {
    let model = Model24::build(&ShapeModel::google_2021(), &CostTable::boom());
    let shares = model.deser_time_shares();
    writeln!(
        out,
        "Figure 5: estimated deserialization time by field type, fleet-wide"
    )?;
    writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>14}",
        "Slice", "% bytes", "% of time", "Gbits/s"
    )?;
    for (slice, share) in model.slices().iter().zip(shares.iter()) {
        writeln!(
            out,
            "{:<24} {:>9.2}% {:>11.2}% {:>14.3}",
            slice.label,
            slice.bytes_fraction * 100.0,
            share * 100.0,
            model.deser_gbits(slice)
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "time spent on data deserialized faster than 1 GB/s: {:.1}% (paper: 14%)",
        model.deser_time_fraction_above(8.0) * 100.0
    )
}

/// Figure 6: estimated fleet-wide serialization time by field type and
/// size, via the 24-slice model of §3.6.4.
pub fn fig6_ser_time_model(out: &mut String) -> fmt::Result {
    let model = Model24::build(&ShapeModel::google_2021(), &CostTable::boom());
    let shares = model.ser_time_shares();
    writeln!(
        out,
        "Figure 6: estimated serialization time by field type, fleet-wide"
    )?;
    writeln!(out, "{:<24} {:>10} {:>12}", "Slice", "% bytes", "% of time")?;
    for (slice, share) in model.slices().iter().zip(shares.iter()) {
        writeln!(
            out,
            "{:<24} {:>9.2}% {:>11.2}%",
            slice.label,
            slice.bytes_fraction * 100.0,
            share * 100.0
        )?;
    }
    // The paper notes the largest byte bucket is relatively more significant
    // for serialization than deserialization, but other types still matter.
    let huge_ser = shares[19];
    let huge_deser = model.deser_time_shares()[19];
    writeln!(out)?;
    writeln!(
        out,
        "largest bytes bucket share: ser {:.1}% vs deser {:.1}% (the paper finds the largest \n\
         bucket relatively more significant for serialization; see EXPERIMENTS.md)",
        huge_ser * 100.0,
        huge_deser * 100.0
    )
}

/// Figure 7: field-number usage density distribution, weighted by observed
/// messages, plus the §3.7 programming-interface comparison.
pub fn fig7_density(out: &mut String) -> fmt::Result {
    let model = ShapeModel::google_2021();
    let mut rng = StdRng::seed_from_u64(0xF167);
    let samples = model.sample_population(&mut rng, 100_000);

    writeln!(out, "Figure 7: field-number usage density distribution")?;
    writeln!(out, "{:<10} {:>14}", "Density", "% of messages")?;
    let hist = density_histogram(&samples);
    for (i, share) in hist.iter().enumerate() {
        writeln!(out, "{:<10.2} {:>13.2}%", i as f64 * 0.05, share * 100.0)?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "messages with density > 1/64 (favoring protoacc's ADTs + sparse hasbits): \
         {:.1}% (paper: >=92%)",
        fraction_favoring_protoacc(&samples) * 100.0
    )?;
    let (prior, ours) = aggregate_interface_cost(&samples);
    writeln!(
        out,
        "aggregate table state: prior work writes {prior} bits; protoacc reads {ours} bits \
         ({:.1}x less)",
        prior as f64 / ours as f64
    )
}
