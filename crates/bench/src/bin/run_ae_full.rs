//! Artifact-evaluation runner (the paper's Appendix A `run-ae-full.sh`):
//! runs every study in [`protoacc_bench::studies::STUDIES`] in process,
//! writing each report to `artifacts/<name>.txt` and printing a checklist.
//!
//! Usage: `cargo run --release -p protoacc-bench --bin run_ae_full`
//! (about 5.5 s of study time as a release build on a 2-vCPU Xeon host).

use std::path::Path;
use std::time::Instant;

use protoacc_bench::studies::STUDIES;

fn main() {
    let out_dir = Path::new("artifacts");
    std::fs::create_dir_all(out_dir).expect("create artifacts/");
    println!(
        "Artifact evaluation: {} studies -> {}/",
        STUDIES.len(),
        out_dir.display()
    );
    for (name, study) in STUDIES {
        let started = Instant::now();
        let mut report = String::new();
        study(&mut report).unwrap_or_else(|e| panic!("{name}: {e}"));
        let path = out_dir.join(format!("{name}.txt"));
        std::fs::write(&path, report).expect("write artifact");
        println!(
            "  [ok]   {name:<26} {:>6.1}s  -> {}",
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
    println!(
        "\nrun_ae_full complete: all {} artifacts regenerated.",
        STUDIES.len()
    );
    println!("Compare against EXPERIMENTS.md for the paper-vs-measured record.");
}
