//! The measurement harness: launches back-ends, runs commands, converts
//! wall measurements back into modeled time.
//!
//! Methodology mirrors the paper (§7): times are taken from the
//! post-processing server (the scheduler's accept→done window), DMS
//! commands are measured on a warm cache by issuing one call of the
//! command at hand in advance, and cold-cache experiments start from a
//! freshly cleared proxy.

use crate::config::BenchConfig;
use std::sync::Arc;
use vira_dms::proxy::ProxyConfig;
use vira_grid::synth::{self, SyntheticDataset};
use vira_storage::source::CachedSynthSource;
use vira_vista::{CommandParams, JobReport, PacketRecord, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

/// Which stand-in dataset a harness serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Engine,
    Propfan,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Engine => "Engine",
            Dataset::Propfan => "Propfan",
        }
    }

    pub fn build(self, cfg: &BenchConfig) -> Arc<SyntheticDataset> {
        match self {
            Dataset::Engine => Arc::new(synth::engine(cfg.engine_res)),
            Dataset::Propfan => Arc::new(synth::propfan(cfg.propfan_res)),
        }
    }

    pub fn dilation(self, cfg: &BenchConfig) -> f64 {
        match self {
            Dataset::Engine => cfg.dilation_engine,
            Dataset::Propfan => cfg.dilation_propfan,
        }
    }

    /// Steps processed per run.
    pub fn steps(self, cfg: &BenchConfig) -> usize {
        match self {
            Dataset::Engine => cfg.engine_steps,
            Dataset::Propfan => cfg.propfan_steps,
        }
    }

    /// A viewpoint outside the dataset, for `ViewerIso`.
    pub fn viewpoint(self) -> [f64; 3] {
        match self {
            Dataset::Engine => [0.15, 0.0, 0.05],
            Dataset::Propfan => [1.5, 0.0, 0.6],
        }
    }

    /// An iso level that cuts through the dataset's speed range.
    pub fn iso_value(self) -> f64 {
        match self {
            Dataset::Engine => 15.0,
            Dataset::Propfan => 27.0,
        }
    }

    /// A λ₂ threshold slightly below zero ("in practice a value about
    /// zero is used", §1.1).
    pub fn lambda2_threshold(self) -> f64 {
        match self {
            Dataset::Engine => -2.0e4,
            Dataset::Propfan => -120.0,
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Modeled total runtime (scheduler accept → final merge).
    pub total_s: f64,
    /// Modeled time until the first streamed geometry arrived (equals
    /// `total_s` for non-streamed commands, per the paper's definition).
    pub latency_s: f64,
    pub report: JobReport,
    /// Streamed packet arrivals converted to modeled seconds:
    /// `(t_modeled, cumulative items)`.
    pub packet_series: Vec<(f64, u64)>,
    pub triangles: usize,
    pub polylines: usize,
}

/// A launched back-end + client pair bound to one dataset.
pub struct Harness {
    backend: Option<Viracocha>,
    pub client: VistaClient,
    pub dataset: Dataset,
    pub dilation: f64,
    n_workers: usize,
}

impl Harness {
    /// Launches a back-end serving `dataset` with `n_workers` workers.
    pub fn launch(
        dataset: Dataset,
        cfg: &BenchConfig,
        n_workers: usize,
        proxy: ProxyConfig,
    ) -> Harness {
        let dilation = dataset.dilation(cfg);
        let vcfg = ViracochaConfig {
            n_workers,
            dilation,
            proxy,
            ..ViracochaConfig::default()
        };
        let (backend, link) = Viracocha::launch(vcfg);
        let ds = dataset.build(cfg);
        let source = Arc::new(CachedSynthSource::new(ds));
        // Materialize everything up front so item generation never
        // pollutes the dilated measurements.
        source.prewarm();
        backend.register_dataset(source, false);
        Harness {
            backend: Some(backend),
            client: VistaClient::new(link),
            dataset,
            dilation,
            n_workers,
        }
    }

    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Base parameters of a command on this harness's dataset.
    pub fn params_for(&self, command: &str, cfg: &BenchConfig) -> CommandParams {
        let d = self.dataset;
        let mut p = CommandParams::new().set("n_steps", d.steps(cfg));
        match command {
            "SimpleIso" | "IsoDataMan" | "CollectiveIso" | "ProgressiveIso" => {
                p = p.set("iso", d.iso_value());
            }
            "ViewerIso" => {
                p = p
                    .set("iso", d.iso_value())
                    .set_vec3("viewpoint", d.viewpoint())
                    .set("batch", 2000);
            }
            "SimpleVortex" | "VortexDataMan" => {
                p = p.set("threshold", d.lambda2_threshold());
            }
            "StreamedVortex" => {
                p = p.set("threshold", d.lambda2_threshold()).set("batch", 2000);
            }
            "SimplePathlines" | "PathlinesDataMan" => {
                p = p.set("n_seeds", cfg.n_seeds).set("rngseed", 42);
            }
            _ => {}
        }
        p
    }

    /// Runs one command with explicit parameters and returns the
    /// measured record.
    pub fn run_with(&mut self, command: &str, params: CommandParams, workers: usize) -> RunRecord {
        let spec = SubmitSpec {
            command: command.into(),
            dataset: self.dataset.name().into(),
            params,
            workers,
        };
        let out = self
            .client
            .run(&spec)
            .unwrap_or_else(|e| panic!("command {command} on {} failed: {e}", self.dataset.name()));
        let to_modeled = |w: std::time::Duration| w.as_secs_f64() / self.dilation;
        let total_s = out.report.total_runtime_s;
        let latency_s = out.first_result_wall.map(to_modeled).unwrap_or(total_s);
        let packet_series = out
            .packets
            .iter()
            .map(|p: &PacketRecord| (to_modeled(p.elapsed), p.cumulative_items))
            .collect();
        RunRecord {
            total_s,
            latency_s,
            report: out.report,
            packet_series,
            triangles: out.triangles.n_triangles(),
            polylines: out.polylines.len(),
        }
    }

    /// Runs a command with the standard parameters.
    pub fn run(&mut self, command: &str, cfg: &BenchConfig, workers: usize) -> RunRecord {
        let params = self.params_for(command, cfg);
        self.run_with(command, params, workers)
    }

    /// Warm-cache run of the paper's methodology: "one single call of the
    /// command at hand was issued in advance of the measurements".
    pub fn run_warm(&mut self, command: &str, cfg: &BenchConfig, workers: usize) -> RunRecord {
        let _ = self.run(command, cfg, workers);
        self.run(command, cfg, workers)
    }

    /// Clears every worker's caches (optionally resetting learned
    /// prefetcher state).
    pub fn clear_caches(&mut self, reset_prefetcher: bool) {
        let params = CommandParams::new().set(
            "reset_prefetcher",
            if reset_prefetcher { "true" } else { "false" },
        );
        let spec = SubmitSpec {
            command: "ClearCache".into(),
            dataset: self.dataset.name().into(),
            params,
            workers: self.n_workers,
        };
        self.client.run(&spec).expect("ClearCache failed");
    }

    /// Shuts the back-end down.
    pub fn finish(mut self) {
        let _ = self.client.shutdown();
        if let Some(b) = self.backend.take() {
            b.join();
        }
    }
}

/// Proxy configuration helpers.
pub fn proxy_with_prefetcher(prefetcher: &str) -> ProxyConfig {
    ProxyConfig {
        l1_capacity_bytes: 1 << 30,
        l1_policy: "fbr".into(),
        l2: None,
        prefetcher: prefetcher.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_a_quick_run() {
        let _guard = crate::timing_lock();
        let cfg = BenchConfig::quick();
        let mut h = Harness::launch(Dataset::Engine, &cfg, 2, proxy_with_prefetcher("none"));
        let rec = h.run("IsoDataMan", &cfg, 2);
        assert!(rec.total_s > 0.0);
        assert!(rec.triangles > 0);
        assert!(rec.latency_s <= rec.total_s * 1.5);
        h.finish();
    }

    #[test]
    fn warm_run_is_faster_than_cold() {
        let _guard = crate::timing_lock();
        let cfg = BenchConfig::quick();
        let mut h = Harness::launch(Dataset::Engine, &cfg, 2, proxy_with_prefetcher("none"));
        let cold = h.run("IsoDataMan", &cfg, 2);
        let warm = h.run("IsoDataMan", &cfg, 2);
        assert!(warm.report.read_s < cold.report.read_s);
        assert!(warm.total_s < cold.total_s);
        h.finish();
    }

    #[test]
    fn clear_caches_restores_cold_behaviour() {
        let _guard = crate::timing_lock();
        let cfg = BenchConfig::quick();
        let mut h = Harness::launch(Dataset::Engine, &cfg, 2, proxy_with_prefetcher("none"));
        let cold = h.run("IsoDataMan", &cfg, 2);
        h.clear_caches(true);
        let cold2 = h.run("IsoDataMan", &cfg, 2);
        // Both cold: similar read time (within 50 %).
        assert!(cold2.report.read_s > 0.5 * cold.report.read_s);
        h.finish();
    }
}
