//! The table/ADT mutation campaign for `protoacc-verify` (PA016–PA020),
//! shared by the `bench_verify` bin and the `verify_mutation` test suite.
//!
//! Every seeded corruption from the `protoacc-faults` table plane (the
//! software dispatch-table mutations and the hardware ADT-image mutations)
//! is applied `trials` times to every workload of the [`corpus`], and the
//! verifier must flag what it is handed.

use hyperprotobench::generate_suite;
use protoacc_fastpath::CompiledSchema;
use protoacc_faults::{mutate_adt, mutate_compiled, ADT_MUTATIONS, TABLE_MUTATIONS};
use protoacc_runtime::MessageLayouts;
use protoacc_schema::{parse_descriptor_set, parse_proto, Schema};
use protoacc_verify::{build_adt_image, check_adt_image, verify_software, VerifyConfig};
use xrand::StdRng;

/// The in-tree schema corpus, anchored on this crate's directory.
const PROTOS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../protos");

/// The six HyperProtoBench suites (schemas only, generated from
/// `suite_seed`), every `protos/*.proto`, and every `protos/chain/*.binpb`
/// descriptor set.
///
/// # Panics
///
/// Panics if an in-tree fixture is missing or does not parse.
pub fn corpus(suite_seed: u64) -> Vec<(String, Schema)> {
    let mut out: Vec<(String, Schema)> = generate_suite(1, suite_seed)
        .into_iter()
        .map(|bench| (bench.profile.name.to_string(), bench.schema))
        .collect();
    for stem in ["addressbook", "storage_row", "telemetry"] {
        let path = format!("{PROTOS}/{stem}.proto");
        let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let schema = parse_proto(&source).unwrap_or_else(|e| panic!("{path}: {e}"));
        out.push((stem.to_string(), schema));
    }
    for stem in CHAIN {
        out.push((format!("chain/{stem}"), chain_schema(stem)));
    }
    out
}

/// The stems of the `protos/chain/*.binpb` descriptor-set corpus.
pub const CHAIN: [&str; 4] = ["consensus", "gossip", "state_sync", "transaction"];

/// Decodes `protos/chain/<stem>.binpb`, anchored on this crate's directory.
///
/// # Panics
///
/// Panics if the fixture is missing or does not parse.
#[must_use]
pub fn chain_schema(stem: &str) -> Schema {
    let path = format!("{PROTOS}/chain/{stem}.binpb");
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_descriptor_set(&bytes).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// One mutation kind's tally over the whole corpus.
#[derive(Debug, Clone)]
pub struct MutationRow {
    /// `"software"` (dispatch tables) or `"adt"` (hardware ADT image).
    pub plane: &'static str,
    /// The mutation kind's label.
    pub label: &'static str,
    /// Trials run.
    pub attempted: usize,
    /// Trials whose mutation found something to corrupt.
    pub applied: usize,
    /// Applied mutants the verifier flagged.
    pub detected: usize,
    /// One line per applied mutant the verifier missed.
    pub escapes: Vec<String>,
}

/// Applies every mutation kind `trials` times per workload, in both planes,
/// and counts how many applied mutants the verifier flags. Trial `t` of
/// kind `k` on workload `w` draws from the seed
/// `seed ^ k << 24 ^ w << 12 ^ t`, with `0xAD << 32` mixed in on the ADT
/// plane.
///
/// # Panics
///
/// Panics if a workload's clean tables do not verify silently.
pub fn run_campaign(
    workloads: &[(String, Schema)],
    config: &VerifyConfig,
    trials: usize,
    seed: u64,
) -> Vec<MutationRow> {
    let trial_seed = |plane: u64, kind: usize, workload: usize, trial: usize| {
        seed ^ plane << 32 ^ (kind as u64) << 24 ^ (workload as u64) << 12 ^ trial as u64
    };
    let mut rows = Vec::new();
    for (kind_idx, &mutation) in TABLE_MUTATIONS.iter().enumerate() {
        let mut row = MutationRow::new("software", mutation.label());
        for (w_idx, (name, schema)) in workloads.iter().enumerate() {
            let layouts = MessageLayouts::compute(schema);
            let compiled = CompiledSchema::compile(schema);
            assert!(
                verify_software(schema, &layouts, &compiled, config).is_empty(),
                "clean baseline must be silent before mutating"
            );
            for trial in 0..trials {
                let mut rng = StdRng::seed_from_u64(trial_seed(0, kind_idx, w_idx, trial));
                let mutant = mutate_compiled(schema, &compiled, mutation, &mut rng);
                row.tally(mutant.map(|(mutated, id)| {
                    let caught = !verify_software(schema, &layouts, &mutated, config).is_empty();
                    (caught, name.as_str(), schema.message(id).name(), trial)
                }));
            }
        }
        rows.push(row);
    }
    for (kind_idx, &mutation) in ADT_MUTATIONS.iter().enumerate() {
        let mut row = MutationRow::new("adt", mutation.label());
        for (w_idx, (name, schema)) in workloads.iter().enumerate() {
            let layouts = MessageLayouts::compute(schema);
            let compiled = CompiledSchema::compile(schema);
            for trial in 0..trials {
                let mut rng = StdRng::seed_from_u64(trial_seed(0xAD, kind_idx, w_idx, trial));
                let (mut mem, adts) = build_adt_image(schema, &layouts);
                let mutant = mutate_adt(schema, &mut mem, &adts, mutation, &mut rng);
                row.tally(mutant.map(|id| {
                    let caught = !check_adt_image(schema, &compiled, &mem, &adts).is_empty();
                    (caught, name.as_str(), schema.message(id).name(), trial)
                }));
            }
        }
        rows.push(row);
    }
    rows
}

impl MutationRow {
    fn new(plane: &'static str, label: &'static str) -> Self {
        MutationRow {
            plane,
            label,
            attempted: 0,
            applied: 0,
            detected: 0,
            escapes: Vec::new(),
        }
    }

    /// Books one trial: `None` if the mutation did not apply, else whether
    /// the verifier caught it and where it was applied.
    fn tally(&mut self, outcome: Option<(bool, &str, &str, usize)>) {
        self.attempted += 1;
        let Some((caught, workload, message, trial)) = outcome else {
            return;
        };
        self.applied += 1;
        if caught {
            self.detected += 1;
        } else {
            self.escapes.push(format!(
                "{} `{}` on {workload}/{message} (seed trial {trial}) escaped",
                self.plane, self.label
            ));
        }
    }
}
