//! Pathline commands (paper §6.3, §7.3).
//!
//! Seed points are distributed round-robin over the group; every trace
//! integrates with adaptive RK4 over the dataset's full time span. The
//! data access pattern — non-uniform, time-advancing block requests —
//! is exactly the workload the Markov prefetcher is built for: with the
//! DMS variant every block request goes through the proxy, so a learning
//! pass followed by a traced pass reproduces the paper's Figure 14.

use super::{integrator_cfg, my_seeds, time_span, topology};
use crate::command::{Command, CommandError, JobCtx};
use vira_extract::pathline::{trace_pathline, FieldSampler, MultiBlockSampler, TimeScheme};
use vira_grid::block::BlockStepId;
use vira_grid::field::SharedBlockData;
use vira_grid::math::Vec3;
use vira_storage::costmodel;

/// Wraps a sampler so every velocity evaluation charges a slice of the
/// modeled integration cost — spreading compute over the trace so that
/// prefetch I/O genuinely overlaps it.
struct ChargedSampler<'c, 'a, S: FieldSampler> {
    inner: S,
    ctx: &'c JobCtx<'a>,
    cost_per_eval: f64,
}

impl<S: FieldSampler> FieldSampler for ChargedSampler<'_, '_, S> {
    fn velocity(&mut self, p: Vec3, t: f64) -> Option<Vec3> {
        self.ctx.charge_compute(self.cost_per_eval);
        self.inner.velocity(p, t)
    }

    fn velocity_at_level(&mut self, p: Vec3, t: f64, hi: bool) -> Option<Vec3> {
        self.ctx.charge_compute(self.cost_per_eval);
        self.inner.velocity_at_level(p, t, hi)
    }

    fn level_alpha(&self, t: f64) -> f64 {
        self.inner.level_alpha(t)
    }
}

fn run_pathlines(ctx: &mut JobCtx<'_>, use_dms: bool) -> Result<(), CommandError> {
    let (t0, t1) = time_span(ctx)?;
    let topo = topology(ctx)?;
    let scheme = match ctx.params.get("scheme") {
        Some("adjacent-levels") => TimeScheme::AdjacentLevels,
        _ => TimeScheme::VelocityInterp,
    };
    let cfg = integrator_cfg(ctx, scheme);
    // 12 velocity evaluations per step-doubled RK4 triple.
    let cost_per_eval = costmodel::PATHLINE_S_PER_STEP / 12.0;

    for seed in my_seeds(ctx) {
        if ctx.is_cancelled() {
            break;
        }
        // Borrow-friendly fetcher: captures ctx immutably. Without data
        // management every trace re-reads its items from the file server
        // (the sampler holds an item only for the duration of one trace).
        let ctx_ref: &JobCtx<'_> = ctx;
        let fetch = |id: BlockStepId| -> Option<SharedBlockData> {
            if use_dms {
                ctx_ref.load_block(id).ok()
            } else {
                ctx_ref.direct_read(id).ok()
            }
        };
        let sampler =
            MultiBlockSampler::new(fetch, topo.clone(), ctx_ref.spec.n_steps, ctx_ref.spec.dt);
        let mut charged = ChargedSampler {
            inner: sampler,
            ctx: ctx_ref,
            cost_per_eval,
        };
        let result = trace_pathline(&mut charged, seed, t0, t1, &cfg);
        if result.line.len() > 1 {
            ctx.emit_polylines(std::slice::from_ref(&result.line))?;
        }
    }
    Ok(())
}

/// Pathline integration without data management: every trace loads its
/// blocks from the file server anew — the Fig. 13 baseline with its poor
/// scalability under load imbalance.
pub struct SimplePathlines;

impl Command for SimplePathlines {
    fn name(&self) -> &'static str {
        "SimplePathlines"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        run_pathlines(ctx, false)
    }
}

/// Pathline integration through the DMS: cached blocks are reused across
/// commands and the (Markov) prefetcher overlaps block loading with the
/// numerical integration.
pub struct PathlinesDataMan;

impl Command for PathlinesDataMan {
    fn name(&self) -> &'static str {
        "PathlinesDataMan"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        run_pathlines(ctx, true)
    }
}
