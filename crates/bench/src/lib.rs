//! # vira-bench
//!
//! The experiment harness of the Viracocha reproduction: regenerates
//! every table and figure of the paper's evaluation (§6–§7) plus the
//! ablations DESIGN.md calls out, reporting modeled seconds produced by
//! the time-dilation cost model.
//!
//! Entry points:
//!
//! * `cargo run -p vira-bench --release --bin repro [-- ids…]` — runs
//!   experiments (default: all), prints markdown tables and writes JSON
//!   records under `crates/bench/results/`.
//! * `cargo bench -p vira-bench --bench micro` — std-timed
//!   micro-benchmarks of the extraction kernels.
//!
//! `VIRA_QUICK=1` switches to a scaled-down smoke configuration.

pub mod config;
pub mod experiments;
pub mod micro_manifest;
pub mod result;
pub mod runner;

pub use config::BenchConfig;
pub use result::{ExperimentResult, Row};
pub use runner::{Dataset, Harness, RunRecord};

use std::path::Path;

/// Timing-sensitive tests (anything that interprets dilated sleeps) must
/// not run concurrently with each other — parallel test threads distort
/// each other's wall-clock measurements on small hosts. Tests grab this
/// process-wide lock.
#[doc(hidden)]
pub fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs a set of experiment ids (or all when empty), printing each
/// result and collecting them. When `trace_out` is set the observability
/// layer is enabled and each experiment's spans, events and metric
/// *deltas* are exported under `trace_out/<id>/` (Chrome trace + JSONL +
/// metrics dump, each schema-checked before writing).
pub fn run_ids_traced(
    ids: &[String],
    cfg: &BenchConfig,
    trace_out: Option<&Path>,
) -> Vec<ExperimentResult> {
    let selected: Vec<String> = if ids.is_empty() {
        experiments::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        ids.to_vec()
    };
    if trace_out.is_some() {
        vira_obs::set_enabled(true);
        // Discard anything recorded before the first experiment.
        let _ = vira_obs::trace::drain();
        let _ = vira_obs::drain_events();
    }
    let mut metrics_before = vira_obs::metrics::snapshot();
    let mut all = Vec::new();
    for id in &selected {
        let t0 = std::time::Instant::now();
        match experiments::run_experiment(id, cfg) {
            Some(results) => {
                vira_obs::info(
                    "repro",
                    &format!("{id} finished"),
                    &[("wall_s", t0.elapsed().as_secs_f64().into())],
                );
                for r in results {
                    println!("{}", r.to_markdown());
                    all.push(r);
                }
            }
            None => vira_obs::warn(
                "repro",
                &format!(
                    "unknown experiment id '{id}' (known: {:?})",
                    experiments::all_ids()
                ),
                &[],
            ),
        }
        if let Some(dir) = trace_out {
            let metrics_now = vira_obs::metrics::snapshot();
            let delta = metrics_now.delta(&metrics_before);
            metrics_before = metrics_now;
            let dump = vira_obs::trace::drain();
            let (events, dropped_events) = vira_obs::drain_events();
            match vira_obs::export::write_artifacts(
                &dir.join(id),
                &dump,
                &events,
                dropped_events,
                &delta,
            ) {
                Ok(s) => vira_obs::info(
                    "repro",
                    &format!(
                        "trace artifacts for {id} written to {}",
                        dir.join(id).display()
                    ),
                    &[
                        ("spans", (s.spans as u64).into()),
                        ("events", (s.events as u64).into()),
                        ("dropped_spans", s.dropped_spans.into()),
                    ],
                ),
                Err(e) => {
                    vira_obs::error("repro", &format!("trace export for {id} failed: {e}"), &[])
                }
            }
        }
    }
    all
}

/// Writes experiment results as JSON files under `dir`.
pub fn write_json(results: &[ExperimentResult], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for r in results {
        let path = dir.join(format!("{}.json", r.id));
        std::fs::write(path, r.to_json().pretty())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_reported_not_fatal() {
        let cfg = BenchConfig::quick();
        let out = run_ids_traced(&["does-not-exist".into()], &cfg, None);
        assert!(out.is_empty());
    }
}
