//! The five workloads. Each module's header says why it exists.

pub mod apsp_dense;
pub mod republish_churn;
pub mod serve_mixed;
pub mod serve_read;
pub mod sparse_sweep;

use crate::harness::{run, Outcome, RunCfg};

/// Every workload, in the order `/BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "apsp_dense",
    "sparse_sweep",
    "republish_churn",
    "serve_read",
    "serve_mixed",
];

/// Runs the workload `cfg` names; `None` for a name not in [`NAMES`].
pub fn dispatch(cfg: &RunCfg) -> Option<Outcome> {
    Some(match cfg.workload.as_str() {
        "apsp_dense" => run::<apsp_dense::ApspDense>(cfg),
        "sparse_sweep" => run::<sparse_sweep::SparseSweep>(cfg),
        "republish_churn" => run::<republish_churn::RepublishChurn>(cfg),
        "serve_read" => run::<serve_read::ServeRead>(cfg),
        "serve_mixed" => run::<serve_mixed::ServeMixed>(cfg),
        _ => return None,
    })
}
