//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <host-small|host-blob|sim-rpc-2x|sim-sharded> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's host facts, then, as the last line, one JSON object:
//! `correct`, `attempted`, `failed`, and every end-to-end metric (`--trace
//! 0`) or every per-layer metric (`--trace 1`), each with its unit. Exits 1
//! when a correctness gate fails and 2 on a usage error.

use std::process::ExitCode;

use perfbench::{Workload, END_TO_END, PER_LAYER};

fn arg(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <host-small|host-blob|sim-rpc-2x|sim-sharded> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let Some(workload) = arg("--workload").as_deref().and_then(Workload::parse) else {
        return usage("--workload names no workload");
    };
    let Some(seed) = arg("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed takes a whole number");
    };
    let Some(seconds) = arg("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("--seconds takes a positive number");
    };
    let trace = match arg("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };

    let out = perfbench::run(workload, seed, seconds, trace);
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"host_facts\": {{{}}}}}", facts.join(", "));
    for p in &out.problems {
        println!("FAIL: {p}");
    }
    println!(
        "{}",
        out.result_json(if trace { &PER_LAYER } else { &END_TO_END })
    );
    if out.correct && out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
