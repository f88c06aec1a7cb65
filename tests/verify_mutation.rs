//! Mutation-proven translation validation: the `protoacc-verify` PA016–PA020
//! checker against the `protoacc-faults` table-mutation plane.
//!
//! Two sides of the same contract:
//!
//! * **Clean silence** — every in-tree schema (protos/, protos/chain/, and
//!   the HyperProtoBench suites) verifies with zero violations. The checker
//!   has no license to cry wolf on the compiler's actual output.
//! * **Detection** — seeded corruptions of the compiled dispatch tables and
//!   the hardware ADT image must be flagged: at least 99% of applied
//!   mutants overall, and every *kind* of mutation must be caught at least
//!   once (a kind with zero detections means a whole corruption class is
//!   invisible to the verifier).
//!
//! `cargo run -p protoacc-bench --bin bench_verify` runs the same campaign
//! at larger trial counts and emits `target/BENCH_verify.json` for CI.

mod common;

use common::{load, load_binpb};
use protoacc_suite::fastpath::CompiledSchema;
use protoacc_suite::faults::{mutate_adt, mutate_compiled, ADT_MUTATIONS, TABLE_MUTATIONS};
use protoacc_suite::hyperbench::generate_suite;
use protoacc_suite::runtime::MessageLayouts;
use protoacc_suite::schema::Schema;
use protoacc_suite::verify::{
    build_adt_image, check_adt_image, verify_schema, verify_software, VerifyConfig,
};
use protoacc_suite::xrand::StdRng;

fn corpus() -> Vec<(String, Schema)> {
    let mut out: Vec<(String, Schema)> = generate_suite(1, 0x7AB1E)
        .into_iter()
        .map(|b| (b.profile.name.to_string(), b.schema))
        .collect();
    for stem in ["addressbook", "storage_row", "telemetry"] {
        out.push((stem.to_string(), load(&format!("{stem}.proto"))));
    }
    for stem in ["consensus", "gossip", "state_sync", "transaction"] {
        out.push((format!("chain/{stem}"), load_binpb(stem)));
    }
    out
}

#[test]
fn every_clean_schema_verifies_silently() {
    let config = VerifyConfig::default();
    for (name, schema) in corpus() {
        let report = verify_schema(&schema, &config);
        assert!(
            report.is_clean(),
            "{name} must verify clean, got: {:?}",
            report.violations
        );
        assert_eq!(report.types_checked, schema.len());
        assert_eq!(report.stats.len(), schema.len());
    }
}

#[test]
fn mutation_campaign_detects_at_least_99_percent() {
    const TRIALS: usize = 3;
    let config = VerifyConfig::default();
    let corpus = corpus();

    let mut attempted = 0usize;
    let mut applied = 0usize;
    let mut detected = 0usize;
    let mut escapes: Vec<String> = Vec::new();

    // Software plane: corrupt the compiled dispatch tables.
    for (kind_idx, &mutation) in TABLE_MUTATIONS.iter().enumerate() {
        let mut kind_detected = 0usize;
        for (w_idx, (name, schema)) in corpus.iter().enumerate() {
            let layouts = MessageLayouts::compute(schema);
            let compiled = CompiledSchema::compile(schema);
            for trial in 0..TRIALS {
                attempted += 1;
                let mut rng = StdRng::seed_from_u64(
                    0x5EED ^ (kind_idx as u64) << 24 ^ (w_idx as u64) << 12 ^ trial as u64,
                );
                let Some((mutated, id)) = mutate_compiled(schema, &compiled, mutation, &mut rng)
                else {
                    continue;
                };
                applied += 1;
                if verify_software(schema, &layouts, &mutated, &config).is_empty() {
                    escapes.push(format!(
                        "software `{}` on {name}/{} (seed trial {trial}) escaped",
                        mutation.label(),
                        schema.message(id).name()
                    ));
                } else {
                    detected += 1;
                    kind_detected += 1;
                }
            }
        }
        assert!(
            kind_detected > 0,
            "software mutation kind `{}` was never detected",
            mutation.label()
        );
    }

    // Hardware plane: corrupt the ADT image in guest memory.
    for (kind_idx, &mutation) in ADT_MUTATIONS.iter().enumerate() {
        let mut kind_detected = 0usize;
        for (w_idx, (name, schema)) in corpus.iter().enumerate() {
            let layouts = MessageLayouts::compute(schema);
            let compiled = CompiledSchema::compile(schema);
            for trial in 0..TRIALS {
                attempted += 1;
                let mut rng = StdRng::seed_from_u64(
                    0xADu64 << 32 ^ (kind_idx as u64) << 24 ^ (w_idx as u64) << 12 ^ trial as u64,
                );
                let (mut mem, adts) = build_adt_image(schema, &layouts);
                let Some(id) = mutate_adt(schema, &mut mem, &adts, mutation, &mut rng) else {
                    continue;
                };
                applied += 1;
                if check_adt_image(schema, &compiled, &mem, &adts).is_empty() {
                    escapes.push(format!(
                        "adt `{}` on {name}/{} (seed trial {trial}) escaped",
                        mutation.label(),
                        schema.message(id).name()
                    ));
                } else {
                    detected += 1;
                    kind_detected += 1;
                }
            }
        }
        assert!(
            kind_detected > 0,
            "adt mutation kind `{}` was never detected",
            mutation.label()
        );
    }

    assert!(
        applied * 2 >= attempted,
        "most mutations must be applicable"
    );
    let rate = detected as f64 / applied as f64;
    assert!(
        rate >= 0.99,
        "detection rate {rate:.4} below 0.99 ({detected}/{applied}); escapes:\n{}",
        escapes.join("\n")
    );
}

#[test]
fn verifier_is_total_over_mutated_artifacts() {
    // Every mutation kind, every schema, one seed each: the verifier must
    // return violations, never panic or overflow, on arbitrary corruption.
    let config = VerifyConfig::default();
    for (name, schema) in corpus() {
        let layouts = MessageLayouts::compute(&schema);
        let compiled = CompiledSchema::compile(&schema);
        for (kind_idx, &mutation) in TABLE_MUTATIONS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x70AD ^ kind_idx as u64);
            if let Some((mutated, _)) = mutate_compiled(&schema, &compiled, mutation, &mut rng) {
                let violations = verify_software(&schema, &layouts, &mutated, &config);
                assert!(
                    !violations.is_empty(),
                    "{name}: {} silent",
                    mutation.label()
                );
            }
        }
    }
}
