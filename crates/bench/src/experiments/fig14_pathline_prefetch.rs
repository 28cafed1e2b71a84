//! E10 — Figure 14: the Markov prefetcher's influence on pathline
//! computation (Engine data).
//!
//! Methodology of §7.3: both configurations work on **uncached** data
//! ("otherwise prefetching would be unnecessary"). The Markov prefetcher
//! is given a learning phase — one identical pathline command — after
//! which the caches are cleared but the learned successor graph is kept.
//! The paper reports runtime savings up to 40 % and up to 95 % of cache
//! misses eliminated; naive sequential prefetchers (OBL) fail on the
//! non-uniform block requests of time-dependent particle traces.

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    // Pathline runs use the dedicated (higher) dilation.
    let mut cfg = cfg.clone();
    cfg.dilation_engine = cfg.dilation_pathlines;
    let cfg = &cfg;
    let mut e = ExperimentResult::new(
        "fig14",
        "Prefetching influence on pathline computation (Engine data)",
        "Figure 14",
    );
    let mut miss_elimination: Vec<f64> = Vec::new();
    for &w in &cfg.pathline_sweep {
        // Cold runs are noisy; run each configuration twice and keep the
        // better (minimum) measurement.
        let mut without_best = f64::INFINITY;
        let mut without_misses = 0;
        for _ in 0..2 {
            let mut h = Harness::launch(Dataset::Engine, cfg, w, proxy_with_prefetcher("none"));
            let r = h.run("PathlinesDataMan", cfg, w);
            h.finish();
            if r.total_s < without_best {
                without_best = r.total_s;
                without_misses = r.report.cache_misses;
            }
        }

        // Markov prefetcher: learning phase → clear caches (keep learned
        // transitions) → measured cold run.
        let mut with_best = f64::INFINITY;
        let mut with_misses = 0;
        for _ in 0..2 {
            let mut h = Harness::launch(Dataset::Engine, cfg, w, proxy_with_prefetcher("markov"));
            let _learning = h.run("PathlinesDataMan", cfg, w);
            h.clear_caches(false);
            let r = h.run("PathlinesDataMan", cfg, w);
            h.finish();
            if r.total_s < with_best {
                with_best = r.total_s;
                with_misses = r.report.cache_misses;
            }
        }

        let x = format!("workers={w}");
        e.push(Row::new(
            "without prefetching",
            x.clone(),
            without_best,
            "modeled s",
        ));
        e.push(Row::new("with prefetching", x, with_best, "modeled s"));
        if without_misses > 0 {
            let eliminated = 1.0 - with_misses as f64 / without_misses as f64;
            miss_elimination.push(eliminated * 100.0);
        }
    }
    if let Some(best) = miss_elimination
        .iter()
        .cloned()
        .fold(None::<f64>, |a, v| Some(a.map_or(v, |m| m.max(v))))
    {
        e.note(format!(
            "Cache misses eliminated by the learned Markov prefetcher: up to \
             {best:.0} % (paper: up to 95 %)."
        ));
    }
    e.note(
        "Identical learning and measurement traces (the paper's repeated \
         command); caches cleared between the two, learned transitions kept.",
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markov_prefetching_saves_time_on_repeat_traces() {
        let _guard = crate::timing_lock();
        let mut cfg = BenchConfig::quick();
        cfg.pathline_sweep = vec![1];
        cfg.n_seeds = 4;
        let e = run(&cfg);
        let without = e.series("without prefetching")[0].1;
        let with = e.series("with prefetching")[0].1;
        assert!(with < without, "markov run {with} vs baseline {without}");
    }
}
