//! E11 — Figure 15: essential isosurface algorithm components (Engine
//! data), without and with caching.
//!
//! The paper's pies: SimpleIso ≈ 50 % compute / 49 % read / 1 % send;
//! IsoDataMan ≈ 85 % compute / 5 % read / 10 % send.

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    let mut e = ExperimentResult::new(
        "fig15",
        "Isosurface component shares (Engine), without and with caching",
        "Figure 15",
    );
    let mut h = Harness::launch(Dataset::Engine, cfg, 1, proxy_with_prefetcher("none"));
    let simple = h.run("SimpleIso", cfg, 1);
    let dataman = h.run_warm("IsoDataMan", cfg, 1);
    h.finish();

    for (name, rec) in [("SimpleIso", &simple), ("IsoDataMan", &dataman)] {
        let total = rec.report.read_s + rec.report.compute_s + rec.report.send_s;
        if total <= 0.0 {
            continue;
        }
        e.push(Row::new(
            name,
            "Compute",
            100.0 * rec.report.compute_s / total,
            "%",
        ));
        e.push(Row::new(
            name,
            "Read",
            100.0 * rec.report.read_s / total,
            "%",
        ));
        e.push(Row::new(
            name,
            "Send",
            100.0 * rec.report.send_s / total,
            "%",
        ));
        // Bricktree pruning effectiveness: how much of the contouring
        // scan the min/max bricks eliminated.
        e.push(Row::new(
            name,
            "Cells pruned",
            rec.report.cells_skipped as f64,
            "cells",
        ));
        e.push(Row::new(
            name,
            "Bricks pruned",
            rec.report.bricks_skipped as f64,
            "bricks",
        ));
    }
    e.note("Paper: SimpleIso 50/49/1, IsoDataMan 85/5/10 (compute/read/send).");
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_shares_match_paper_shape() {
        let _guard = crate::timing_lock();
        let cfg = BenchConfig::quick();
        let e = run(&cfg);
        let cell = |series: &str, x: &str| {
            e.rows
                .iter()
                .find(|r| r.series == series && r.x == x)
                .unwrap()
                .value
        };
        // SimpleIso: read is a major share; caching reduces it massively.
        assert!(cell("SimpleIso", "Read") > 30.0);
        assert!(cell("IsoDataMan", "Read") < 15.0);
        assert!(cell("IsoDataMan", "Compute") > 60.0);
        // Shares sum to 100 per command.
        for name in ["SimpleIso", "IsoDataMan"] {
            let sum = cell(name, "Compute") + cell(name, "Read") + cell(name, "Send");
            assert!((sum - 100.0).abs() < 1e-6);
        }
    }
}
