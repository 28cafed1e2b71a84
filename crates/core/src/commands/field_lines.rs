//! Streamlines and streaklines — the particle-trace extensions the
//! paper's future work (§9) names next to pathlines.
//!
//! * **Streamlines**: instantaneous field lines of a single time level
//!   (the unsteady sampler frozen at one instant).
//! * **Streaklines**: the locus of all particles continuously released
//!   from a seed during a time interval, observed at the interval's end.
//!
//! Both run through the DMS like `PathlinesDataMan` and report progress
//! per seed (§9's progress-indicator suggestion).

use super::{integrator_cfg, my_seeds, param_u32, time_span, topology};
use crate::command::{Command, CommandError, JobCtx};
use vira_extract::pathline::{
    trace_pathline, trace_streakline, MultiBlockSampler, SteadySampler, TimeScheme,
};
use vira_grid::block::BlockStepId;
use vira_grid::field::SharedBlockData;
use vira_storage::costmodel;

/// Instantaneous streamlines of one time level.
///
/// Parameters: `step` (time level, default 0), `n_seeds`, `rngseed`,
/// `t_span` (pseudo-time integration horizon, default 2·n_steps·dt).
pub struct Streamlines;

impl Command for Streamlines {
    fn name(&self) -> &'static str {
        "Streamlines"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        let step = param_u32(&ctx.params, "step").unwrap_or(0);
        if step >= ctx.spec.n_steps {
            return Err(CommandError::BadParams(format!(
                "step {step} out of range (dataset has {})",
                ctx.spec.n_steps
            )));
        }
        let t_span = ctx
            .params
            .get_f64("t_span")
            .unwrap_or(2.0 * ctx.spec.n_steps as f64 * ctx.spec.dt);
        let topo = topology(ctx)?;
        let cfg = integrator_cfg(ctx, TimeScheme::VelocityInterp);
        let cost_per_seed = costmodel::PATHLINE_S_PER_STEP * 20.0;
        let frozen_t = step as f64 * ctx.spec.dt;

        let seeds = my_seeds(ctx);
        let total = seeds.len().max(1);
        for (n, seed) in seeds.into_iter().enumerate() {
            if ctx.is_cancelled() {
                break;
            }
            let ctx_ref: &JobCtx<'_> = ctx;
            let fetch = |id: BlockStepId| -> Option<SharedBlockData> {
                // Streamlines only ever touch the frozen level.
                ctx_ref.load_block(BlockStepId::new(id.block, step)).ok()
            };
            let inner =
                MultiBlockSampler::new(fetch, topo.clone(), ctx_ref.spec.n_steps, ctx_ref.spec.dt);
            let mut sampler = SteadySampler::new(inner, frozen_t);
            ctx.charge_compute(cost_per_seed);
            let r = trace_pathline(&mut sampler, seed, 0.0, t_span, &cfg);
            if r.line.len() > 1 {
                ctx.emit_polylines(std::slice::from_ref(&r.line))?;
            }
            ctx.report_progress((n + 1) as f32 / total as f32)?;
        }
        Ok(())
    }
}

/// Streaklines over `[t0, t1]` with `releases` particles per seed.
pub struct Streaklines;

impl Command for Streaklines {
    fn name(&self) -> &'static str {
        "Streaklines"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        let (t0, t1) = time_span(ctx)?;
        let releases = ctx.params.get_usize("releases").unwrap_or(20).max(1);
        let topo = topology(ctx)?;
        let cfg = integrator_cfg(ctx, TimeScheme::VelocityInterp);
        // A streakline costs roughly `releases` short pathlines.
        let cost_per_seed = costmodel::PATHLINE_S_PER_STEP * 10.0 * releases as f64;

        let seeds = my_seeds(ctx);
        let total = seeds.len().max(1);
        for (n, seed) in seeds.into_iter().enumerate() {
            if ctx.is_cancelled() {
                break;
            }
            let ctx_ref: &JobCtx<'_> = ctx;
            let fetch = |id: BlockStepId| ctx_ref.load_block(id).ok();
            let mut sampler =
                MultiBlockSampler::new(fetch, topo.clone(), ctx_ref.spec.n_steps, ctx_ref.spec.dt);
            ctx.charge_compute(cost_per_seed);
            let line = trace_streakline(&mut sampler, seed, t0, t1, releases, &cfg);
            if line.len() > 1 {
                ctx.emit_polylines(std::slice::from_ref(&line))?;
            }
            ctx.report_progress((n + 1) as f32 / total as f32)?;
        }
        Ok(())
    }
}
