//! Benchmark harness for the protoacc reproduction.
//!
//! Regenerates every table and figure of the paper's evaluation (Section 5)
//! plus the profiling figures (Section 3) it builds on. The three systems
//! compared are the paper's:
//!
//! * `riscv-boom` — the instrumented software codec with the BOOM cost table;
//! * `Xeon` — the same codec with the Xeon cost table;
//! * `riscv-boom-accel` — the cycle-level accelerator model on the BOOM SoC's
//!   memory system.
//!
//! Every study is a function in [`studies`], listed in
//! [`studies::STUDIES`]; the `run_ae_full` binary runs them all and writes
//! each report to `artifacts/<name>.txt`. `benches/figures.rs` times the
//! simulation kernels themselves with its own wall-clock harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod mutation;
pub mod serving;
pub mod studies;
pub mod systems;
pub mod ubench;

pub use systems::{
    geomean, geomean_gbits, measure, Direction, Machine, Measurement, SystemKind, Workload,
};
