//! Translation-validation benchmark + mutation campaign for
//! `protoacc-verify` (PA016–PA020).
//!
//! Two gates, both required:
//!
//! 1. **Clean silence** — every in-tree workload (the six HyperProtoBench
//!    suites, `protos/*.proto`, and every `protos/chain/*.binpb` descriptor
//!    set) must verify with zero violations, timed per workload.
//! 2. **Mutation detection** — every seeded corruption from the
//!    `protoacc-faults` table plane (12 software dispatch-table mutations ×
//!    10 hardware ADT-image mutations) is applied repeatedly and the
//!    verifier must flag at least 99% of the applied mutants.
//!
//! Usage:
//!
//! ```text
//! bench_verify [--smoke] [--out target/BENCH_verify.json] [--seed S]
//! ```
//!
//! `--smoke` shrinks the per-mutation trial count for CI but keeps every
//! mutation kind and every workload in play. Exit codes: 0 both gates pass,
//! 1 a clean workload produced violations or the detection rate fell below
//! the floor, 2 setup error.

use std::time::Instant;

use protoacc_bench::cli::Args;
use protoacc_bench::mutation::{corpus, run_campaign, MutationRow};
use protoacc_trace::json::{self, Json};
use protoacc_verify::{verify_schema, VerifyConfig};

/// Minimum fraction of applied mutants the verifier must detect.
const DETECTION_FLOOR: f64 = 0.99;

/// One clean-verification row.
struct CleanRow {
    name: String,
    types: usize,
    violations: usize,
    wall_ms: f64,
}

fn main() {
    let args = Args::parse("bench_verify [--smoke] [--out PATH] [--seed S]");
    let smoke = args.flag("--smoke");
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| "target/BENCH_verify.json".to_string());
    let seed = args.value("--seed").unwrap_or(0x7AB1E);
    let trials_per_workload = if smoke { 2 } else { 8 };

    let workloads = corpus(seed);

    // Gate 1: every clean workload verifies silently, timed.
    let config = VerifyConfig::default();
    let mut clean_rows = Vec::with_capacity(workloads.len());
    println!(
        "{:<26} {:>6} {:>11} {:>10}",
        "workload", "types", "violations", "wall ms"
    );
    for (name, schema) in &workloads {
        let start = Instant::now();
        let report = verify_schema(schema, &config);
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        println!(
            "{:<26} {:>6} {:>11} {:>10.3}",
            name,
            report.types_checked,
            report.violations.len(),
            wall_ms
        );
        for v in &report.violations {
            eprintln!("  {} {}: {}", v.code.code(), v.type_name, v.detail);
        }
        clean_rows.push(CleanRow {
            name: name.clone(),
            types: report.types_checked,
            violations: report.violations.len(),
            wall_ms,
        });
    }
    let silent = clean_rows.iter().all(|r| r.violations == 0);

    // Gate 2: the mutation campaign.
    let mutation_rows = run_campaign(&workloads, &config, trials_per_workload, seed);
    let attempted: usize = mutation_rows.iter().map(|r| r.attempted).sum();
    let applied: usize = mutation_rows.iter().map(|r| r.applied).sum();
    let detected: usize = mutation_rows.iter().map(|r| r.detected).sum();
    let rate = if applied == 0 {
        0.0
    } else {
        detected as f64 / applied as f64
    };
    println!(
        "\n{:<10} {:<22} {:>9} {:>8} {:>9}",
        "plane", "mutation", "attempted", "applied", "detected"
    );
    for r in &mutation_rows {
        println!(
            "{:<10} {:<22} {:>9} {:>8} {:>9}",
            r.plane, r.label, r.attempted, r.applied, r.detected
        );
        if r.detected < r.applied {
            eprintln!(
                "bench_verify: {} mutation `{}` escaped detection ({}/{})",
                r.plane, r.label, r.detected, r.applied
            );
        }
    }
    println!(
        "campaign: {applied}/{attempted} applied, {detected} detected ({:.2}% rate)",
        rate * 100.0
    );

    let json = render_json(
        if smoke { "smoke" } else { "full" },
        &clean_rows,
        &mutation_rows,
        silent,
        rate,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("bench_verify: {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");

    if !silent {
        eprintln!("bench_verify: a clean in-tree workload produced violations — failing");
        std::process::exit(1);
    }
    if rate < DETECTION_FLOOR {
        eprintln!(
            "bench_verify: detection rate {rate:.4} below the {DETECTION_FLOOR} floor — failing"
        );
        std::process::exit(1);
    }
}

fn render_json(
    mode: &str,
    clean: &[CleanRow],
    mutations: &[MutationRow],
    silent: bool,
    rate: f64,
) -> String {
    let workloads = clean.iter().map(|r| {
        Json::obj([
            ("name", r.name.as_str().into()),
            ("types", r.types.into()),
            ("violations", r.violations.into()),
            ("wall_ms", Json::fixed(r.wall_ms, 3)),
        ])
    });
    let rows = mutations.iter().map(|r| {
        Json::obj([
            ("plane", r.plane.into()),
            ("label", r.label.into()),
            ("attempted", r.attempted.into()),
            ("applied", r.applied.into()),
            ("detected", r.detected.into()),
        ])
    });
    let attempted: usize = mutations.iter().map(|r| r.attempted).sum();
    let applied: usize = mutations.iter().map(|r| r.applied).sum();
    let detected: usize = mutations.iter().map(|r| r.detected).sum();
    json::write(&Json::obj([
        ("schema_version", 1u32.into()),
        ("mode", mode.into()),
        ("workloads", Json::Arr(workloads.collect())),
        ("mutations", Json::Arr(rows.collect())),
        (
            "campaign",
            Json::obj([
                ("attempted", attempted.into()),
                ("applied", applied.into()),
                ("detected", detected.into()),
                ("detection_rate", Json::fixed(rate, 4)),
                ("detection_floor", Json::Num(DETECTION_FLOOR.to_string())),
                ("clean_workloads_silent", silent.into()),
            ]),
        ),
    ]))
}
