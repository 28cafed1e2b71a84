//! E9 — Figure 13: Engine pathlines, total runtime for
//! `SimplePathlines` vs `PathlinesDataMan` (warm cache).
//!
//! Expected shape: poor scalability of both variants (load imbalance —
//! every pathline has different computational effort and block
//! requirements), with the fully cached variant much faster overall.

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    // Pathline runs use the dedicated (higher) dilation.
    let mut cfg = cfg.clone();
    cfg.dilation_engine = cfg.dilation_pathlines;
    let cfg = &cfg;
    let mut e = ExperimentResult::new("fig13", "Engine, pathlines, total runtime", "Figure 13");
    for &w in &cfg.pathline_sweep {
        let mut h = Harness::launch(Dataset::Engine, cfg, w, proxy_with_prefetcher("none"));
        let simple = h.run("SimplePathlines", cfg, w);
        let dataman = h.run_warm("PathlinesDataMan", cfg, w);
        h.finish();
        let x = format!("workers={w}");
        e.push(Row::new(
            "SimplePathlines",
            x.clone(),
            simple.total_s,
            "modeled s",
        ));
        e.push(Row::new(
            "PathlinesDataMan",
            x,
            dataman.total_s,
            "modeled s",
        ));
    }
    e.note(format!(
        "{} seed points distributed round-robin; PathlinesDataMan measured \
         on fully cached data. Scalability is limited by load imbalance \
         across traces (§7.3).",
        cfg.n_seeds
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_pathlines_beat_simple() {
        let _guard = crate::timing_lock();
        let mut cfg = BenchConfig::quick();
        cfg.pathline_sweep = vec![1];
        cfg.n_seeds = 4;
        let e = run(&cfg);
        let simple = e.series("SimplePathlines")[0].1;
        let dataman = e.series("PathlinesDataMan")[0].1;
        assert!(dataman < simple, "{dataman} vs {simple}");
    }
}
