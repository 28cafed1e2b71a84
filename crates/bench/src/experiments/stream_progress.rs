//! E13 — the streaming behaviour Figures 4 and 5 illustrate with
//! screenshots: streamed triangles over time for view-dependent
//! isosurface extraction (Engine) and streamed λ₂ vortices (Propfan),
//! plus the batch-size ablation (latency vs overhead, the "good
//! compromise between low latency and interactivity" of §5.2).

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use crate::runner::{proxy_with_prefetcher, Dataset, Harness};

pub fn run(cfg: &BenchConfig) -> Vec<ExperimentResult> {
    let mut progress = ExperimentResult::new(
        "e13-stream",
        "Streamed geometry arrival over time",
        "Figures 4 & 5 (proxy)",
    );
    // Engine ViewerIso arrival series.
    {
        let mut h = Harness::launch(Dataset::Engine, cfg, 4, proxy_with_prefetcher("obl"));
        let rec = h.run("ViewerIso", cfg, 4.min(h.n_workers()));
        h.finish();
        for (t, cum) in sample_series(&rec.packet_series, 8) {
            progress.push(Row::new(
                "ViewerIso (Engine)",
                format!("t={t:.1}s"),
                cum as f64,
                "cumulative triangles",
            ));
        }
    }
    // Propfan StreamedVortex arrival series.
    {
        let mut h = Harness::launch(Dataset::Propfan, cfg, 4, proxy_with_prefetcher("obl"));
        let rec = h.run("StreamedVortex", cfg, 4.min(h.n_workers()));
        h.finish();
        for (t, cum) in sample_series(&rec.packet_series, 8) {
            progress.push(Row::new(
                "StreamedVortex (Propfan)",
                format!("t={t:.1}s"),
                cum as f64,
                "cumulative triangles",
            ));
        }
    }
    progress.note(
        "The figures themselves are VR screenshots; the streaming behaviour \
         they illustrate is the monotone growth of delivered geometry long \
         before the job completes.",
    );

    // Batch-size ablation on the Engine.
    let mut batch = ExperimentResult::new(
        "e13-batch",
        "Streaming batch size: latency vs total runtime (Engine ViewerIso)",
        "§5.2 trade-off",
    );
    for batch_size in [500usize, 2000, 8000] {
        let mut h = Harness::launch(Dataset::Engine, cfg, 2, proxy_with_prefetcher("obl"));
        let params = h.params_for("ViewerIso", cfg).set("batch", batch_size);
        let rec = h.run_with("ViewerIso", params, 2);
        h.finish();
        let x = format!("batch={batch_size}");
        batch.push(Row::new("latency", x.clone(), rec.latency_s, "modeled s"));
        batch.push(Row::new(
            "total runtime",
            x.clone(),
            rec.total_s,
            "modeled s",
        ));
        batch.push(Row::new(
            "packets",
            x,
            rec.packet_series.len() as f64,
            "modeled s",
        ));
    }
    batch.note(
        "Smaller batches lower the first-result latency but multiply \
         per-packet transmission overhead — many work nodes 'literally \
         firing data at the visualization system' can overload it (§5.2).",
    );
    vec![progress, batch]
}

/// Downsamples an arrival series to at most `n` evenly spaced points
/// (always keeping the first and last).
fn sample_series(series: &[(f64, u64)], n: usize) -> Vec<(f64, u64)> {
    if series.len() <= n {
        return series.to_vec();
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let idx = i * (series.len() - 1) / (n - 1);
        out.push(series[idx]);
    }
    out.dedup_by_key(|p| p.0.to_bits());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_series_keeps_endpoints() {
        let _guard = crate::timing_lock();
        let s: Vec<(f64, u64)> = (0..100).map(|i| (i as f64, i as u64)).collect();
        let d = sample_series(&s, 8);
        assert!(d.len() <= 8);
        assert_eq!(d[0], s[0]);
        assert_eq!(*d.last().unwrap(), *s.last().unwrap());
    }

    #[test]
    fn progress_series_is_monotone() {
        let _guard = crate::timing_lock();
        let mut cfg = BenchConfig::quick();
        cfg.worker_sweep = vec![2];
        let results = run(&cfg);
        let progress = &results[0];
        for name in progress.series_names() {
            let vals: Vec<f64> = progress.series(&name).iter().map(|(_, v)| *v).collect();
            assert!(
                vals.windows(2).all(|w| w[1] >= w[0]),
                "{name}: cumulative triangles must grow: {vals:?}"
            );
        }
    }
}
