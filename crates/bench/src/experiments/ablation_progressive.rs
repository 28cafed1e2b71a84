//! E15 — progressive multi-resolution extraction (§5.3): latency gained
//! vs total-runtime overhead as the pyramid deepens.
//!
//! Expected shape: more levels → earlier (much smaller) first results,
//! at the cost of total computation exceeding the single-pass extraction
//! ("a progressive computation scheme might take much longer for the
//! computation of the final result than a highly optimized standard
//! algorithm. However, the reduction in query latency … might outweigh
//! this disadvantage considerably").

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    let mut e = ExperimentResult::new(
        "e15-progressive",
        "Progressive multi-resolution isosurface (Engine): latency vs overhead",
        "§5.3 / §9 extension",
    );
    for levels in [1usize, 2, 3] {
        let mut h = Harness::launch(Dataset::Engine, cfg, 2, proxy_with_prefetcher("obl"));
        let params = h
            .params_for("ProgressiveIso", cfg)
            .set("levels", levels)
            .set("batch", 4000);
        // Warm cache so the comparison isolates the computation scheme.
        let _ = h.run_with("ProgressiveIso", params.clone(), 2);
        let rec = h.run_with("ProgressiveIso", params, 2);
        h.finish();
        let x = format!("levels={levels}");
        e.push(Row::new("latency", x.clone(), rec.latency_s, "modeled s"));
        e.push(Row::new(
            "total runtime",
            x.clone(),
            rec.total_s,
            "modeled s",
        ));
        e.push(Row::new(
            "compute",
            x.clone(),
            rec.report.compute_s,
            "modeled s",
        ));
        // Pruning effectiveness across all pyramid levels: every level
        // runs through the bricktree-pruned extractor.
        e.push(Row::new(
            "cells pruned",
            x.clone(),
            rec.report.cells_skipped as f64,
            "cells",
        ));
        e.push(Row::new(
            "bricks pruned",
            x,
            rec.report.bricks_skipped as f64,
            "bricks",
        ));
    }
    e.note(
        "levels=1 is the plain extraction baseline; each added level streams \
         a coarser preview first (base data) and repeats the pass at the \
         next resolution.",
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_levels_cut_latency_but_add_compute() {
        let _guard = crate::timing_lock();
        let cfg = BenchConfig::quick();
        let e = run(&cfg);
        let latency = e.series("latency");
        let total = e.series("total runtime");
        let compute = e.series("compute");
        // The pyramid streams previews well before the job completes.
        // (Absolute latencies sit near the measurement noise floor in the
        // quick config, so compare against the run's own total.)
        let (l3, t3) = (latency.last().unwrap().1, total.last().unwrap().1);
        assert!(
            l3 < t3,
            "levels=3 must stream before completion: {l3} vs {t3}"
        );
        // Total compute grows with the pyramid depth — the deterministic
        // meter-based signature of the progressive overhead (§5.3).
        assert!(
            compute.last().unwrap().1 > compute[0].1,
            "progressive overhead must exist: {compute:?}"
        );
    }
}
