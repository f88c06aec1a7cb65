//! The study registry and the committed goldens name the same set: every
//! study has an `artifacts/<name>.txt`, every golden a study, and the
//! exported HyperProtoBench schemas are exactly the committed ones.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use protoacc_bench::studies::extensions::{exported_suite, HYPERBENCH_DIR};
use protoacc_bench::studies::STUDIES;

/// The workspace root, which `run_ae_full` runs from.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Names of the files in `dir` that end in `suffix`, with it stripped.
fn stems(dir: &Path, suffix: &str) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|name| name.strip_suffix(suffix).map(str::to_owned))
        .collect()
}

#[test]
fn every_study_has_a_golden_and_every_golden_a_study() {
    let studies: BTreeSet<String> = STUDIES.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(studies.len(), STUDIES.len(), "a study name repeats");
    assert_eq!(studies, stems(&root().join("artifacts"), ".txt"));
}

#[test]
fn export_hyperbench_writes_every_committed_schema() {
    let dir = root().join(HYPERBENCH_DIR);
    let committed: BTreeMap<String, String> = stems(&dir, ".proto")
        .into_iter()
        .map(|stem| {
            let source = fs::read_to_string(dir.join(format!("{stem}.proto"))).unwrap();
            (stem, source)
        })
        .collect();
    let exported: BTreeMap<String, String> = exported_suite()
        .iter()
        .map(|bench| (bench.profile.label(), bench.proto_source()))
        .collect();
    assert_eq!(exported, committed);
}
