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
//! The campaign is `protoacc_bench::mutation::run_campaign`; `cargo run -p
//! protoacc-bench --bin bench_verify` runs it at larger trial counts and
//! emits `target/BENCH_verify.json` for CI.

use protoacc_suite::bench::mutation::{corpus, run_campaign};
use protoacc_suite::fastpath::CompiledSchema;
use protoacc_suite::faults::{mutate_compiled, TABLE_MUTATIONS};
use protoacc_suite::runtime::MessageLayouts;
use protoacc_suite::schema::Schema;
use protoacc_suite::verify::{verify_schema, verify_software, VerifyConfig};
use protoacc_suite::xrand::StdRng;

/// The shared corpus, with the HyperProtoBench suites generated from the
/// seed `bench_verify` uses by default.
fn workloads() -> Vec<(String, Schema)> {
    corpus(0x7AB1E)
}

#[test]
fn every_clean_schema_verifies_silently() {
    let config = VerifyConfig::default();
    for (name, schema) in workloads() {
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
    let rows = run_campaign(&workloads(), &VerifyConfig::default(), TRIALS, 0x5EED);

    // A kind with zero detections means a whole corruption class is
    // invisible to the verifier.
    for row in &rows {
        assert!(
            row.detected > 0,
            "{} mutation kind `{}` was never detected",
            row.plane,
            row.label
        );
    }
    let attempted: usize = rows.iter().map(|r| r.attempted).sum();
    let applied: usize = rows.iter().map(|r| r.applied).sum();
    let detected: usize = rows.iter().map(|r| r.detected).sum();
    assert!(
        applied * 2 >= attempted,
        "most mutations must be applicable"
    );
    let rate = detected as f64 / applied as f64;
    let escapes: Vec<&str> = rows
        .iter()
        .flat_map(|r| r.escapes.iter().map(String::as_str))
        .collect();
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
    for (name, schema) in workloads() {
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
