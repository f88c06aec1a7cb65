//! Artifact-evaluation runner (the paper's Appendix A `run-ae-full.sh`):
//! regenerates every table, figure, ablation, and extension study, writing
//! each result to `artifacts/<name>.txt` and printing a checklist.
//!
//! Usage: `cargo run --release -p protoacc-bench --bin run_ae_full`
//! (the full sweep takes about 7 s as a release build on a 2-vCPU Xeon
//! host).

use std::path::Path;
use std::process::Command;

const GENERATORS: &[&str] = &[
    "fig_table1",
    "fig2_cycles_by_op",
    "fig3_msg_sizes",
    "fig4_field_breakdown",
    "fig5_deser_time_model",
    "fig6_ser_time_model",
    "fig7_density",
    "fig11_microbench",
    "fig12_hyperbench",
    "sec5_3_asic",
    "ablation_hasbits",
    "ablation_fsu_count",
    "ablation_window",
    "ablation_stack_depth",
    "ablation_adt_cache",
    "sec7_future_ops",
    "sec7_frontend_pressure",
    "sec7_ctor_dtor",
    "scaling_multi_accel",
    "sweep_message_size",
    "related_optimus_prime",
    "config_inorder_core",
    "export_hyperbench",
];

fn main() {
    let out_dir = Path::new("artifacts");
    std::fs::create_dir_all(out_dir).expect("create artifacts/");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin directory")
        .to_path_buf();
    println!(
        "Artifact evaluation: {} generators -> {}/",
        GENERATORS.len(),
        out_dir.display()
    );
    let mut failures = 0;
    for name in GENERATORS {
        let started = std::time::Instant::now();
        let bin = exe_dir.join(name);
        let output = if bin.exists() {
            Command::new(&bin).output()
        } else {
            // Fall back to cargo when siblings were not built (e.g. `cargo
            // run --bin run_ae_full` without a prior full build).
            Command::new("cargo")
                .args([
                    "run",
                    "--release",
                    "-q",
                    "-p",
                    "protoacc-bench",
                    "--bin",
                    name,
                ])
                .output()
        };
        match output {
            Ok(out) if out.status.success() => {
                let path = out_dir.join(format!("{name}.txt"));
                std::fs::write(&path, &out.stdout).expect("write artifact");
                println!(
                    "  [ok]   {name:<26} {:>6.1}s  -> {}",
                    started.elapsed().as_secs_f64(),
                    path.display()
                );
            }
            Ok(out) => {
                failures += 1;
                println!(
                    "  [FAIL] {name:<26} exit {:?}\n{}",
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            Err(e) => {
                failures += 1;
                println!("  [FAIL] {name:<26} {e}");
            }
        }
    }
    if failures == 0 {
        println!(
            "\nrun_ae_full complete: all {} artifacts regenerated.",
            GENERATORS.len()
        );
        println!("Compare against EXPERIMENTS.md for the paper-vs-measured record.");
    } else {
        println!("\nrun_ae_full: {failures} generator(s) failed.");
        std::process::exit(1);
    }
}
