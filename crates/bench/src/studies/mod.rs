//! Every table, figure, ablation, extension and serving study, as a
//! function that appends its report to a `String`.
//!
//! [`STUDIES`] lists them in the order `run_ae_full` (the paper's
//! Appendix A `run-ae-full.sh`) runs them; each name is also the stem of
//! the study's committed golden, `artifacts/<name>.txt`.

use std::fmt;

pub mod ablations;
pub mod evaluation;
pub mod extensions;
pub mod fleet;
pub mod sec7;
pub mod serve;

/// A study: appends its report to the string.
pub type Study = fn(&mut String) -> fmt::Result;

/// Every study, by artifact name, in the order `run_ae_full` runs them.
pub const STUDIES: &[(&str, Study)] = &[
    ("fig_table1", fleet::fig_table1),
    ("fig2_cycles_by_op", fleet::fig2_cycles_by_op),
    ("fig3_msg_sizes", fleet::fig3_msg_sizes),
    ("fig4_field_breakdown", fleet::fig4_field_breakdown),
    ("fig5_deser_time_model", fleet::fig5_deser_time_model),
    ("fig6_ser_time_model", fleet::fig6_ser_time_model),
    ("fig7_density", fleet::fig7_density),
    ("fig11_microbench", evaluation::fig11_microbench),
    ("fig12_hyperbench", evaluation::fig12_hyperbench),
    ("sec5_3_asic", evaluation::sec5_3_asic),
    ("ablation_hasbits", ablations::ablation_hasbits),
    ("ablation_fsu_count", ablations::ablation_fsu_count),
    ("ablation_window", ablations::ablation_window),
    ("ablation_stack_depth", ablations::ablation_stack_depth),
    ("ablation_adt_cache", ablations::ablation_adt_cache),
    ("sec7_future_ops", sec7::sec7_future_ops),
    ("sec7_frontend_pressure", sec7::sec7_frontend_pressure),
    ("sec7_ctor_dtor", sec7::sec7_ctor_dtor),
    ("sweep_message_size", extensions::sweep_message_size),
    ("related_optimus_prime", extensions::related_optimus_prime),
    ("config_inorder_core", extensions::config_inorder_core),
    ("export_hyperbench", extensions::export_hyperbench),
    ("serve_tail_latency", serve::serve_tail_latency),
    ("serve_faults", serve::serve_faults),
    ("serve_rpc", serve::serve_rpc),
];
