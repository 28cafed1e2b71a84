//! E2 — Figure 6: Engine, isosurface extraction, total runtime over the
//! worker sweep for `SimpleIso`, `ViewerIso` and `IsoDataMan`.
//!
//! Methodology (paper §7): DMS commands are measured on a warm cache;
//! `SimpleIso` has no cache. Expected shape: IsoDataMan ≪ SimpleIso (the
//! "grand leap" from eliminating loading), ViewerIso slightly above
//! IsoDataMan (BSP + streaming overhead), diminishing returns toward 16
//! workers.

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    sweep_iso(cfg, Dataset::Engine, "fig06", "Figure 6")
}

pub(crate) fn sweep_iso(
    cfg: &BenchConfig,
    dataset: Dataset,
    id: &str,
    paper_ref: &str,
) -> ExperimentResult {
    let mut e = ExperimentResult::new(
        id,
        &format!("{}, isosurface, total runtime", dataset.name()),
        paper_ref,
    );
    for &w in &cfg.worker_sweep {
        // Fresh back-end per configuration: caches start cold, the warm
        // run fills them exactly as the paper's advance call does.
        let mut h = Harness::launch(dataset, cfg, w, proxy_with_prefetcher("obl"));
        let simple = h.run("SimpleIso", cfg, w);
        let viewer = h.run_warm("ViewerIso", cfg, w);
        let dataman = h.run_warm("IsoDataMan", cfg, w);
        h.finish();
        let x = format!("workers={w}");
        e.push(Row::new(
            "SimpleIso",
            x.clone(),
            simple.total_s,
            "modeled s",
        ));
        e.push(Row::new(
            "ViewerIso",
            x.clone(),
            viewer.total_s,
            "modeled s",
        ));
        e.push(Row::new("IsoDataMan", x, dataman.total_s, "modeled s"));
    }
    e.note(format!(
        "{} time steps per run; DMS commands measured on warm caches.",
        dataset.steps(cfg)
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_iso_shape_holds() {
        let _guard = crate::timing_lock();
        let mut cfg = BenchConfig::quick();
        cfg.worker_sweep = vec![1, 2];
        let e = run(&cfg);
        let simple = e.series("SimpleIso");
        let dataman = e.series("IsoDataMan");
        // Data management wins at every worker count.
        for (s, d) in simple.iter().zip(&dataman) {
            assert!(d.1 < s.1, "IsoDataMan {d:?} must beat SimpleIso {s:?}");
        }
        // Parallelization helps SimpleIso.
        assert!(simple[1].1 < simple[0].1);
    }
}
