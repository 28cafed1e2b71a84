//! Benchmark configuration: dataset resolutions, time dilations and
//! worker sweeps for the experiment harness.
//!
//! Defaults are tuned so the full reproduction runs in a few minutes on
//! a small host while keeping the measured-time error from *real*
//! computation under ~10 % even at the largest worker counts (see
//! DESIGN.md on time dilation). `VIRA_QUICK=1` shrinks everything for
//! smoke runs.

/// Harness-wide settings.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Grid points per block direction for the Engine stand-in.
    pub engine_res: usize,
    /// Grid points per block direction for the Propfan stand-in.
    pub propfan_res: usize,
    /// Number of Propfan time steps processed per run (the full 50 make
    /// runs long without changing any shape; the modeled numbers scale
    /// linearly and EXPERIMENTS.md reports the workload used).
    pub propfan_steps: usize,
    /// Number of Engine time steps processed per run.
    pub engine_steps: usize,
    /// Wall seconds per modeled second for Engine experiments.
    pub dilation_engine: f64,
    /// Wall seconds per modeled second for Propfan experiments.
    pub dilation_propfan: f64,
    /// Wall seconds per modeled second for pathline experiments (higher:
    /// pathline integration does real numerical work whose wall time must
    /// stay far below the modeled sleeps).
    pub dilation_pathlines: f64,
    /// Worker counts for the runtime sweeps (Figures 6–12).
    pub worker_sweep: Vec<usize>,
    /// Worker counts for the pathline sweeps (Figure 13–14).
    pub pathline_sweep: Vec<usize>,
    /// Seeds per pathline job.
    pub n_seeds: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        if std::env::var("VIRA_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            BenchConfig::quick()
        } else {
            BenchConfig::full()
        }
    }
}

impl BenchConfig {
    /// The standard configuration used for EXPERIMENTS.md.
    pub fn full() -> Self {
        BenchConfig {
            engine_res: 5,
            propfan_res: 4,
            propfan_steps: 12,
            engine_steps: 63,
            dilation_engine: 0.05,
            dilation_propfan: 0.02,
            dilation_pathlines: 0.1,
            worker_sweep: vec![1, 2, 4, 8, 16],
            pathline_sweep: vec![1, 2, 4, 8],
            n_seeds: 16,
        }
    }

    /// Smoke configuration (`VIRA_QUICK=1`).
    pub fn quick() -> Self {
        BenchConfig {
            engine_res: 4,
            propfan_res: 3,
            propfan_steps: 3,
            engine_steps: 8,
            dilation_engine: 0.02,
            dilation_propfan: 0.01,
            dilation_pathlines: 0.05,
            worker_sweep: vec![1, 2, 4],
            pathline_sweep: vec![1, 2, 4],
            n_seeds: 6,
        }
    }

    /// The largest worker count in the sweep (= pool size needed).
    pub fn max_workers(&self) -> usize {
        self.worker_sweep
            .iter()
            .chain(self.pathline_sweep.iter())
            .copied()
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_sweeps_to_16() {
        let c = BenchConfig::full();
        assert_eq!(c.max_workers(), 16);
        assert!(c.dilation_engine > 0.0);
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = BenchConfig::quick();
        let f = BenchConfig::full();
        assert!(q.engine_steps < f.engine_steps);
        assert!(q.max_workers() <= f.max_workers());
    }
}
