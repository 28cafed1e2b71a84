//! The per-table / per-figure experiment implementations.
//!
//! See DESIGN.md's experiment index: each module regenerates one (or a
//! coupled pair) of the paper's tables and figures, printing the same
//! rows/series the paper reports in modeled seconds.

pub mod ablation_cache_policies;
pub mod ablation_compression;
pub mod ablation_derived;
pub mod ablation_loading;
pub mod ablation_progressive;
pub mod fig06_engine_iso;
pub mod fig07_08_propfan_iso;
pub mod fig09_engine_vortex;
pub mod fig10_12_propfan_vortex;
pub mod fig11_vortex_prefetch;
pub mod fig13_pathlines;
pub mod fig14_pathline_prefetch;
pub mod fig15_components;
pub mod stream_progress;
pub mod table1_datasets;

use crate::config::BenchConfig;
use crate::result::ExperimentResult;

/// All experiment ids in run order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "fig06",
        "fig07-08",
        "fig09",
        "fig10-12",
        "fig11",
        "fig13",
        "fig14",
        "fig15",
        "e12-policies",
        "e13-stream",
        "e14-loading",
        "e15-progressive",
        "e16-compression",
        "e17-derived",
    ]
}

/// Runs one experiment by id; an id can produce several results (coupled
/// figures measured in the same runs).
pub fn run_experiment(id: &str, cfg: &BenchConfig) -> Option<Vec<ExperimentResult>> {
    Some(match id {
        "table1" => vec![table1_datasets::run(cfg)],
        "fig06" => vec![fig06_engine_iso::run(cfg)],
        "fig07-08" => fig07_08_propfan_iso::run(cfg),
        "fig09" => vec![fig09_engine_vortex::run(cfg)],
        "fig10-12" => fig10_12_propfan_vortex::run(cfg),
        "fig11" => vec![fig11_vortex_prefetch::run(cfg)],
        "fig13" => vec![fig13_pathlines::run(cfg)],
        "fig14" => vec![fig14_pathline_prefetch::run(cfg)],
        "fig15" => vec![fig15_components::run(cfg)],
        "e12-policies" => vec![ablation_cache_policies::run(cfg)],
        "e13-stream" => stream_progress::run(cfg),
        "e14-loading" => vec![ablation_loading::run(cfg)],
        "e15-progressive" => vec![ablation_progressive::run(cfg)],
        "e16-compression" => vec![ablation_compression::run(cfg)],
        "e17-derived" => vec![ablation_derived::run(cfg)],
        _ => return None,
    })
}
