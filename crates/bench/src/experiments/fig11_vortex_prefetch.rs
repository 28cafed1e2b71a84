//! E7 — Figure 11: Engine λ₂ runtime on a **cold** cache, without and
//! with (OBL) prefetching.
//!
//! Expected shape: prefetching overlaps I/O with the λ₂ computation, so
//! the cold-start runtimes approach the warm-cache numbers; the benefit
//! shrinks as workers multiply ("the less time the computation takes,
//! the lower the number of prefetches that are possible", §7.2).

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    let mut e = ExperimentResult::new(
        "fig11",
        "Engine, Lambda-2, cold-cache runtime without and with prefetching",
        "Figure 11",
    );
    // Cold runs are the noisiest measurements of the suite; each
    // configuration is run twice from scratch and the minimum is taken.
    let best_cold = |prefetcher: &str, w: usize| -> f64 {
        (0..2)
            .map(|_| {
                let mut h =
                    Harness::launch(Dataset::Engine, cfg, w, proxy_with_prefetcher(prefetcher));
                let r = h.run("VortexDataMan", cfg, w);
                h.finish();
                r.total_s
            })
            .fold(f64::INFINITY, f64::min)
    };
    for &w in &cfg.worker_sweep {
        let without = best_cold("none", w);
        let with = best_cold("obl", w);
        let x = format!("workers={w}");
        e.push(Row::new(
            "without prefetching",
            x.clone(),
            without,
            "modeled s",
        ));
        e.push(Row::new("with prefetching", x, with, "modeled s"));
    }
    e.note(
        "Cold caches in both configurations — the total-miss scenario of a \
         time-varying data set with uncached next time levels (§7.2).",
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetching_reduces_cold_runtime() {
        let _guard = crate::timing_lock();
        let mut cfg = BenchConfig::quick();
        cfg.worker_sweep = vec![1];
        let e = run(&cfg);
        let without = e.series("without prefetching")[0].1;
        let with = e.series("with prefetching")[0].1;
        assert!(
            with < without,
            "prefetching must overlap I/O with compute: {with} vs {without}"
        );
    }
}
