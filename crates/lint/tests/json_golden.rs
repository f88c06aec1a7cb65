//! Golden-file test for the versioned JSON report format.
//!
//! The JSON output is a machine-readable interface (CI gates and dashboards
//! parse it), so format drift must be deliberate. This test pins the exact
//! bytes for a representative schema. To re-bless after an intentional
//! format change, bump [`protoacc_lint::SCHEMA_VERSION`] if the change is
//! breaking and run:
//!
//! ```text
//! PROTOACC_LINT_BLESS=1 cargo test -p protoacc-lint --test json_golden
//! ```

use std::path::Path;
use std::process::Command;

use protoacc_lint::{
    lint_schema, lint_schema_verified, violations_to_diagnostics, DiagCode, LintConfig,
};
use protoacc_schema::parse_proto;

/// Schema chosen to exercise every output shape: a warn diagnostic
/// (recursion), a deny-capable type, finite and unbounded nesting, a
/// bounded-scalar type and an unbounded (string) one.
const GOLDEN_PROTO: &str = "\
message Node { optional Node next = 1; optional uint64 id = 2; }\n\
message Blob { optional string body = 1; required fixed32 crc = 2; }\n";

/// Compares `actual` with `tests/golden/<name>`, or rewrites that file
/// when `PROTOACC_LINT_BLESS` is set. Returns the golden text.
fn check_golden(name: &str, actual: &str) -> String {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("PROTOACC_LINT_BLESS").is_some() {
        std::fs::write(&golden_path, actual).unwrap();
        return actual.to_string();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; bless with PROTOACC_LINT_BLESS=1");
    assert_eq!(
        actual, golden,
        "{name} drifted from the golden file; if intentional, re-bless \
         (and bump SCHEMA_VERSION on breaking changes)"
    );
    golden
}

#[test]
fn json_report_matches_golden_file() {
    let schema = parse_proto(GOLDEN_PROTO).unwrap();
    let report = lint_schema(&schema, &LintConfig::default());
    check_golden("report.json", &report.render_json());
}

/// Pins the JSON rendering of every verifier code PA016–PA020. Clean
/// in-tree schemas never trip PA016–PA019 (that is the point of translation
/// validation), so those four are staged as synthetic
/// [`protoacc_verify::Violation`]s through the same
/// [`violations_to_diagnostics`] mapping the `--verify` mode uses; PA020 is
/// produced for real by shrinking the table budget below the golden
/// schema's footprint.
#[test]
fn verify_report_matches_golden_file() {
    let schema = parse_proto(GOLDEN_PROTO).unwrap();
    let tight = LintConfig {
        dense_table_budget: 1,
        ..LintConfig::default()
    };
    let mut report = lint_schema_verified(&schema, &tight);

    let synthetic: Vec<protoacc_verify::Violation> = [
        (
            DiagCode::SlotOverlap,
            "slot [8, 16) for field 2 aliases slot [8, 16) for field 3",
        ),
        (
            DiagCode::DispatchTotality,
            "dense table resolves undefined field number 7",
        ),
        (
            DiagCode::EntryConsistency,
            "field 2 op: schema implies Varint64, table holds Fixed64",
        ),
        (
            DiagCode::AdtEquivalence,
            "field 2 hw offset 24 != sw offset 16",
        ),
    ]
    .into_iter()
    .map(|(code, detail)| protoacc_verify::Violation {
        code,
        type_name: "Node".to_string(),
        detail: detail.to_string(),
    })
    .collect();
    report
        .diagnostics
        .extend(violations_to_diagnostics(&synthetic, &tight));
    let golden = check_golden("verify_report.json", &report.render_json());
    for code in ["PA016", "PA017", "PA018", "PA019", "PA020"] {
        assert!(
            golden.contains(&format!("\"code\": \"{code}\"")),
            "golden must cover {code}"
        );
    }
}

/// Pins the human and JSON reports of `protoacc-lint --verify protos/
/// --descriptor-set protos/chain`: every code the in-tree corpus fires,
/// with its severity, name and detail text, through both front ends.
#[test]
fn corpus_reports_match_golden_files() {
    let protos = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../protos");
    let report = |format: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_protoacc-lint"))
            .args(["--format", format, "--verify"])
            .arg(&protos)
            .arg("--descriptor-set")
            .arg(protos.join("chain"))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    check_golden("corpus_report.txt", &report("human"));
    check_golden("corpus_report.json", &report("json"));
}

#[test]
fn golden_file_is_current_schema_version() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/report.json"
    ))
    .unwrap();
    assert!(golden.contains(&format!(
        "\"schema_version\": {}",
        protoacc_lint::SCHEMA_VERSION
    )));
}
