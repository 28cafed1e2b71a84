//! E1 — Table 1: the multi-block test data sets.

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::Dataset;

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    let mut e = ExperimentResult::new("table1", "Multi-block test data sets", "Table 1");
    for d in [Dataset::Engine, Dataset::Propfan] {
        let ds = d.build(cfg);
        let spec = &ds.spec;
        e.push(Row::new(
            d.name(),
            "# of time steps",
            spec.n_steps as f64,
            "",
        ));
        e.push(Row::new(d.name(), "# of blocks", spec.n_blocks as f64, ""));
        e.push(Row::new(
            d.name(),
            "Size on disk [GB] (nominal)",
            spec.nominal_disk_bytes as f64 / (1024.0 * 1024.0 * 1024.0),
            "",
        ));
        e.push(Row::new(
            d.name(),
            "Points per block (scaled grid)",
            spec.block_dims.n_points() as f64,
            "",
        ));
    }
    e.note(
        "Nominal sizes match the paper (1.12 GB / 19.5 GB); actual grids are \
         scaled-down analytic stand-ins with identical block and time-step \
         structure (see DESIGN.md substitutions).",
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_structure() {
        let _guard = crate::timing_lock();
        let e = run(&BenchConfig::quick());
        let engine_steps = e
            .rows
            .iter()
            .find(|r| r.series == "Engine" && r.x == "# of time steps")
            .unwrap();
        assert_eq!(engine_steps.value, 63.0);
        let propfan_blocks = e
            .rows
            .iter()
            .find(|r| r.series == "Propfan" && r.x == "# of blocks")
            .unwrap();
        assert_eq!(propfan_blocks.value, 144.0);
    }
}
