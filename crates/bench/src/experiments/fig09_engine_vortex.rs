//! E5 — Figure 9: Engine, λ₂ vortex extraction, total runtime for
//! `SimpleVortex`, `StreamedVortex` and `VortexDataMan`.
//!
//! Expected shape: the absence of data management hurts exactly as in
//! the isosurface case, and — because λ₂ is compute-heavy — the
//! streaming overhead of `StreamedVortex` is *relatively* smaller than
//! ViewerIso's was (§7.2).

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    sweep_vortex(cfg, Dataset::Engine, "fig09", "Figure 9").0
}

pub(crate) fn sweep_vortex(
    cfg: &BenchConfig,
    dataset: Dataset,
    id: &str,
    paper_ref: &str,
) -> (ExperimentResult, ExperimentResult) {
    let mut runtime = ExperimentResult::new(
        id,
        &format!("{}, Lambda-2, total runtime", dataset.name()),
        paper_ref,
    );
    let mut latency = ExperimentResult::new(
        &format!("{id}-latency"),
        &format!("{}, Lambda-2, latency time", dataset.name()),
        "Figure 12",
    );
    for &w in &cfg.worker_sweep {
        let mut h = Harness::launch(dataset, cfg, w, proxy_with_prefetcher("obl"));
        let simple = h.run("SimpleVortex", cfg, w);
        let streamed = h.run_warm("StreamedVortex", cfg, w);
        let dataman = h.run_warm("VortexDataMan", cfg, w);
        h.finish();
        let x = format!("workers={w}");
        runtime.push(Row::new(
            "SimpleVortex",
            x.clone(),
            simple.total_s,
            "modeled s",
        ));
        runtime.push(Row::new(
            "StreamedVortex",
            x.clone(),
            streamed.total_s,
            "modeled s",
        ));
        runtime.push(Row::new(
            "VortexDataMan",
            x.clone(),
            dataman.total_s,
            "modeled s",
        ));
        latency.push(Row::new(
            "StreamedVortex",
            x.clone(),
            streamed.latency_s,
            "modeled s",
        ));
        latency.push(Row::new("VortexDataMan", x, dataman.latency_s, "modeled s"));
    }
    runtime.note(format!("{} time steps per run.", dataset.steps(cfg)));
    (runtime, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vortex_runtime_shape_holds() {
        let _guard = crate::timing_lock();
        let mut cfg = BenchConfig::quick();
        cfg.worker_sweep = vec![1, 2];
        let e = run(&cfg);
        let simple = e.series("SimpleVortex");
        let dataman = e.series("VortexDataMan");
        for (s, d) in simple.iter().zip(&dataman) {
            assert!(d.1 < s.1, "VortexDataMan must beat SimpleVortex");
        }
        // Streaming overhead exists but is modest relative to λ₂ compute.
        let streamed = e.series("StreamedVortex");
        for (st, d) in streamed.iter().zip(&dataman) {
            assert!(st.1 < d.1 * 1.6, "streamed {st:?} vs dataman {d:?}");
        }
    }
}
