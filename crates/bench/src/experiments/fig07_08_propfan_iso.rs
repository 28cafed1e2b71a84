//! E3 + E4 — Figures 7 and 8: Propfan isosurface total runtime and
//! latency, measured in the same runs.
//!
//! Figure 8's expected shape: `ViewerIso` latency is small and almost
//! constant with respect to the number of workers (the first worker
//! streams its first batch as soon as any data is available), while
//! `IsoDataMan`'s latency *is* its total runtime (a single transmission
//! after the computation finishes).

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> Vec<ExperimentResult> {
    let mut fig07 =
        ExperimentResult::new("fig07", "Propfan, isosurface, total runtime", "Figure 7");
    let mut fig08 = ExperimentResult::new("fig08", "Propfan, isosurface, latency time", "Figure 8");
    for &w in &cfg.worker_sweep {
        let mut h = Harness::launch(Dataset::Propfan, cfg, w, proxy_with_prefetcher("obl"));
        let simple = h.run("SimpleIso", cfg, w);
        let viewer = h.run_warm("ViewerIso", cfg, w);
        let dataman = h.run_warm("IsoDataMan", cfg, w);
        h.finish();
        let x = format!("workers={w}");
        fig07.push(Row::new(
            "SimpleIso",
            x.clone(),
            simple.total_s,
            "modeled s",
        ));
        fig07.push(Row::new(
            "ViewerIso",
            x.clone(),
            viewer.total_s,
            "modeled s",
        ));
        fig07.push(Row::new(
            "IsoDataMan",
            x.clone(),
            dataman.total_s,
            "modeled s",
        ));
        fig08.push(Row::new(
            "ViewerIso",
            x.clone(),
            viewer.latency_s,
            "modeled s",
        ));
        fig08.push(Row::new("IsoDataMan", x, dataman.latency_s, "modeled s"));
    }
    let note = format!(
        "{} of 50 Propfan time steps per run (modeled totals scale linearly).",
        Dataset::Propfan.steps(cfg)
    );
    fig07.note(note.clone());
    fig08.note(
        "IsoDataMan latency equals its total runtime: the only transmission \
         happens after the computation completes (§7.1).",
    );
    fig08.note(note);
    vec![fig07, fig08]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_shape_holds() {
        let _guard = crate::timing_lock();
        let mut cfg = BenchConfig::quick();
        cfg.worker_sweep = vec![1, 2];
        let results = run(&cfg);
        let fig08 = &results[1];
        let viewer = fig08.series("ViewerIso");
        let dataman = fig08.series("IsoDataMan");
        // Streaming always delivers first results earlier.
        for (v, d) in viewer.iter().zip(&dataman) {
            assert!(v.1 < d.1, "ViewerIso latency {v:?} must beat {d:?}");
        }
    }
}
