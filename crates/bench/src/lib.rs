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
//! Per-figure generator binaries live in `src/bin/` (`fig2_cycles_by_op`,
//! `fig3_msg_sizes`, …, `fig11_microbench`, `fig12_hyperbench`,
//! `sec5_3_asic`, `headline_speedups`, and the `ablation_*` studies); each
//! prints the same rows/series the paper reports. Criterion benches under
//! `benches/` time the simulation kernels themselves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod lintrep;
pub mod report;
pub mod serving;
pub mod systems;
pub mod ubench;

pub use lintrep::{format_lint_table, lint_workload, WorkloadLint};
pub use report::{format_gbits_table, geomean};
pub use systems::{measure, Direction, Machine, Measurement, SystemKind, Workload};
