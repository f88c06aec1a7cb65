//! `protoacc-lint`: lint `.proto` files and binary descriptor sets against
//! the accelerator model.
//!
//! ```text
//! protoacc-lint [OPTIONS] PATH...
//!
//! PATH                 a .proto file or a directory scanned recursively
//! --descriptor-set P   a binary FileDescriptorSet (.binpb) file, or a
//!                      directory scanned recursively for .binpb files;
//!                      repeatable, combinable with PATH inputs
//! --format human|json  output format (default human)
//! --fail-on SEV        exit 1 when a diagnostic at/above SEV exists
//!                      (deny|warn|never; default deny)
//! --allow CODE         silence a check (PAxxx or kebab name)
//! --warn CODE          downgrade/force a check to warn
//! --deny CODE          upgrade a check to deny
//! --stack-depth N      override the modeled metadata stack depth
//! --watchdog-budget N  serve watchdog cycle budget (enables PA010/PA015)
//! --utf8               lint under proto3 semantics (UTF-8 validation)
//! --bench-out FILE     write per-input wall time + finding counts as JSON
//! --verify             also run the PA016–PA020 translation validator over
//!                      the compiled dispatch tables and hardware ADT image
//! --dense-table-budget N  PA020 per-type table byte budget (default 8 MiB)
//! ```
//!
//! Both front-ends lower to the same `Schema`, so a schema produces
//! byte-identical reports whether it arrives as text or as a binary
//! descriptor set — the differential gate in `tests/descriptor_ingestion.rs`
//! holds the two paths together.
//!
//! Exit codes: 0 clean (below the `--fail-on` threshold), 1 gate failure,
//! 2 usage or parse error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use protoacc_lint::{
    lint_schema, lint_schema_verified, DiagCode, LintConfig, LintReport, Severity,
};
use protoacc_schema::{parse_descriptor_set, parse_proto};
use protoacc_trace::json::{self, Json};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Format {
    Human,
    Json,
}

/// Which front-end an input file goes through.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum InputKind {
    Proto,
    DescriptorSet,
}

impl InputKind {
    fn as_str(self) -> &'static str {
        match self {
            InputKind::Proto => "proto",
            InputKind::DescriptorSet => "descriptor-set",
        }
    }
}

struct Options {
    format: Format,
    fail_on: Option<Severity>,
    config: LintConfig,
    paths: Vec<PathBuf>,
    descriptor_sets: Vec<PathBuf>,
    bench_out: Option<PathBuf>,
    verify: bool,
}

fn usage() -> String {
    "usage: protoacc-lint [--format human|json] [--fail-on deny|warn|never] \
     [--allow CODE] [--warn CODE] [--deny CODE] [--stack-depth N] \
     [--watchdog-budget N] [--utf8] [--descriptor-set PATH]... \
     [--bench-out FILE] [--verify] [--dense-table-budget N] PATH..."
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Human,
        fail_on: Some(Severity::Deny),
        config: LintConfig::default(),
        paths: Vec::new(),
        descriptor_sets: Vec::new(),
        bench_out: None,
        verify: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`\n{}", usage())),
                };
            }
            "--fail-on" => {
                let v = value("--fail-on")?;
                opts.fail_on = match v.as_str() {
                    "never" => None,
                    s => Some(
                        Severity::parse(s)
                            .filter(|s| *s != Severity::Allow)
                            .ok_or_else(|| format!("unknown fail level `{v}`\n{}", usage()))?,
                    ),
                };
            }
            "--allow" | "--warn" | "--deny" => {
                let sev = Severity::parse(&arg[2..]).expect("flag name is a severity");
                let v = value(arg)?;
                let code = DiagCode::parse(&v)
                    .ok_or_else(|| format!("unknown diagnostic code `{v}`\n{}", usage()))?;
                opts.config.overrides.push((code, sev));
            }
            "--stack-depth" => {
                let v = value("--stack-depth")?;
                opts.config.accel.stack_depth = v
                    .parse()
                    .map_err(|_| format!("bad stack depth `{v}`\n{}", usage()))?;
            }
            "--watchdog-budget" => {
                let v = value("--watchdog-budget")?;
                opts.config.watchdog_budget = Some(
                    v.parse()
                        .map_err(|_| format!("bad watchdog budget `{v}`\n{}", usage()))?,
                );
            }
            "--descriptor-set" => {
                opts.descriptor_sets.push(PathBuf::from(value(arg)?));
            }
            "--bench-out" => {
                opts.bench_out = Some(PathBuf::from(value(arg)?));
            }
            "--dense-table-budget" => {
                let v = value("--dense-table-budget")?;
                opts.config.dense_table_budget = v
                    .parse()
                    .map_err(|_| format!("bad dense table budget `{v}`\n{}", usage()))?;
            }
            "--verify" => opts.verify = true,
            "--utf8" => opts.config.accel.validate_utf8 = true,
            "--help" | "-h" => return Err(usage()),
            p if p.starts_with("--") => {
                return Err(format!("unknown option `{p}`\n{}", usage()));
            }
            p => opts.paths.push(PathBuf::from(p)),
        }
    }
    if opts.paths.is_empty() && opts.descriptor_sets.is_empty() {
        return Err(format!("no input paths\n{}", usage()));
    }
    Ok(opts)
}

/// Collects files with `ext`: a file path is taken as-is, a directory is
/// scanned recursively with deterministic (sorted) ordering.
fn collect_files(path: &Path, ext: &str, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    if !path.is_dir() {
        return Err(format!("{}: no such file or directory", path.display()));
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_files(&entry, ext, out)?;
        } else if entry.extension().is_some_and(|e| e == ext) {
            out.push(entry);
        }
    }
    Ok(())
}

/// One per-input row of the `--bench-out` report.
struct BenchRow {
    path: String,
    kind: InputKind,
    types: usize,
    deny: usize,
    warn: usize,
    wall_ms: f64,
}

fn render_bench(rows: &[BenchRow], report: &LintReport, total_ms: f64) -> String {
    let inputs = rows.iter().map(|r| {
        Json::obj([
            ("path", Json::Str(r.path.replace('\\', "/"))),
            ("kind", r.kind.as_str().into()),
            ("types", r.types.into()),
            ("deny", r.deny.into()),
            ("warn", r.warn.into()),
            ("wall_ms", Json::fixed(r.wall_ms, 3)),
        ])
    });
    let codes = DiagCode::ALL
        .iter()
        .map(|code| (code.code(), report.with_code(*code).count().into()));
    json::write(&Json::obj([
        ("inputs", Json::Arr(inputs.collect())),
        ("codes", Json::obj(codes)),
        (
            "total",
            Json::obj([
                ("files", rows.len().into()),
                ("types", report.types.len().into()),
                ("deny", report.deny_count().into()),
                ("warn", report.warn_count().into()),
                ("wall_ms", Json::fixed(total_ms, 3)),
            ]),
        ),
    ]))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    let mut inputs: Vec<(PathBuf, InputKind)> = Vec::new();
    {
        let mut protos = Vec::new();
        for path in &opts.paths {
            collect_files(path, "proto", &mut protos)?;
        }
        if !opts.paths.is_empty() && protos.is_empty() {
            return Err("no .proto files found under the given paths".to_string());
        }
        inputs.extend(protos.into_iter().map(|p| (p, InputKind::Proto)));
        let mut sets = Vec::new();
        for path in &opts.descriptor_sets {
            collect_files(path, "binpb", &mut sets)?;
        }
        if !opts.descriptor_sets.is_empty() && sets.is_empty() {
            return Err("no .binpb files found under the --descriptor-set paths".to_string());
        }
        inputs.extend(sets.into_iter().map(|p| (p, InputKind::DescriptorSet)));
    }

    let started = Instant::now();
    let mut report = LintReport::default();
    let mut rows = Vec::with_capacity(inputs.len());
    for (file, kind) in &inputs {
        let file_start = Instant::now();
        let schema = match kind {
            InputKind::Proto => {
                let source = std::fs::read_to_string(file)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
                parse_proto(&source).map_err(|e| format!("{}: parse error: {e}", file.display()))?
            }
            InputKind::DescriptorSet => {
                let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
                parse_descriptor_set(&bytes)
                    .map_err(|e| format!("{}: descriptor error: {e}", file.display()))?
            }
        };
        let one = if opts.verify {
            lint_schema_verified(&schema, &opts.config)
        } else {
            lint_schema(&schema, &opts.config)
        };
        rows.push(BenchRow {
            path: file.display().to_string(),
            kind: *kind,
            types: one.types.len(),
            deny: one.deny_count(),
            warn: one.warn_count(),
            wall_ms: file_start.elapsed().as_secs_f64() * 1000.0,
        });
        report.merge(one);
    }
    let total_ms = started.elapsed().as_secs_f64() * 1000.0;

    if let Some(out) = &opts.bench_out {
        std::fs::write(out, render_bench(&rows, &report, total_ms))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }

    match opts.format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
    }

    let failed = match opts.fail_on {
        None => false,
        Some(level) => report.max_severity().is_some_and(|max| max >= level),
    };
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("protoacc-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_overrides_and_paths() {
        let o = parse_args(&args(&[
            "--format",
            "json",
            "--deny",
            "PA005",
            "--allow",
            "stack-spill",
            "--stack-depth",
            "4",
            "protos",
        ]))
        .unwrap();
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.config.accel.stack_depth, 4);
        assert_eq!(
            o.config.overrides,
            vec![
                (DiagCode::WindowStarve, Severity::Deny),
                (DiagCode::StackSpill, Severity::Allow)
            ]
        );
        assert_eq!(o.paths, vec![PathBuf::from("protos")]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--format", "xml", "p"])).is_err());
        assert!(parse_args(&args(&["--deny", "PA999", "p"])).is_err());
        assert!(parse_args(&args(&["--bogus", "p"])).is_err());
        assert!(parse_args(&args(&["--watchdog-budget", "abc", "p"])).is_err());
    }

    #[test]
    fn fail_on_never_disables_the_gate() {
        let o = parse_args(&args(&["--fail-on", "never", "p"])).unwrap();
        assert_eq!(o.fail_on, None);
        let o = parse_args(&args(&["--fail-on", "warn", "p"])).unwrap();
        assert_eq!(o.fail_on, Some(Severity::Warn));
    }

    #[test]
    fn descriptor_set_inputs_stand_alone() {
        // --descriptor-set alone satisfies the input requirement.
        let o = parse_args(&args(&["--descriptor-set", "protos/chain"])).unwrap();
        assert!(o.paths.is_empty());
        assert_eq!(o.descriptor_sets, vec![PathBuf::from("protos/chain")]);
        // New knobs parse.
        let o = parse_args(&args(&[
            "--watchdog-budget",
            "500000",
            "--bench-out",
            "bench.json",
            "p",
        ]))
        .unwrap();
        assert_eq!(o.config.watchdog_budget, Some(500_000));
        assert_eq!(o.bench_out, Some(PathBuf::from("bench.json")));
    }

    #[test]
    fn verify_flags_parse() {
        let o = parse_args(&args(&["--verify", "--dense-table-budget", "4096", "p"])).unwrap();
        assert!(o.verify);
        assert_eq!(o.config.dense_table_budget, 4096);
        let o = parse_args(&args(&["p"])).unwrap();
        assert!(!o.verify);
        assert_eq!(
            o.config.dense_table_budget,
            LintConfig::default().dense_table_budget
        );
        assert!(parse_args(&args(&["--dense-table-budget", "lots", "p"])).is_err());
    }

    #[test]
    fn bench_report_parses_back_with_escaped_paths() {
        let rows = vec![
            BenchRow {
                path: "protos/x.proto".to_string(),
                kind: InputKind::Proto,
                types: 2,
                deny: 0,
                warn: 1,
                wall_ms: 0.25,
            },
            BenchRow {
                path: "protos\\a \"quoted\" dir\\y.proto".to_string(),
                kind: InputKind::Proto,
                types: 1,
                deny: 0,
                warn: 0,
                wall_ms: 0.5,
            },
        ];
        let json = render_bench(&rows, &LintReport::default(), 0.5);
        let root = json::parse(&json).expect("the bench report is valid JSON");
        let inputs = root.get("inputs").and_then(Json::as_arr).unwrap();
        let field = |i: usize, key| inputs[i].get(key).and_then(Json::as_str);
        assert_eq!(field(0, "kind"), Some("proto"));
        assert_eq!(field(0, "path"), Some("protos/x.proto"));
        assert_eq!(field(1, "path"), Some("protos/a \"quoted\" dir/y.proto"));
        let codes = root.get("codes").unwrap();
        assert_eq!(codes.get("PA011").and_then(Json::as_u64), Some(0));
    }
}
