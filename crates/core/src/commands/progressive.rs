//! `ProgressiveIso` — progressive multi-resolution isosurface extraction
//! (paper §5.3 / future work §9).
//!
//! Each block's isosurface is extracted on a subsampling pyramid from
//! coarse to fine; every level is streamed to the client the moment it
//! is available. The base level gives the user a near-immediate
//! impression of the final result; the finest level is the exact
//! surface. The extra levels make the total computation cost exceed a
//! single-pass extraction — the latency/overhead trade-off quantified by
//! the `ablation_progressive` experiment.

use super::{batch_size, id_order, require_f64, share};
use crate::command::{Command, CommandError, CommandOutput, JobCtx};
use vira_extract::multires::progressive_isosurface;
use vira_storage::costmodel;

pub struct ProgressiveIso;

impl Command for ProgressiveIso {
    fn name(&self) -> &'static str {
        "ProgressiveIso"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<CommandOutput, CommandError> {
        let iso = require_f64(ctx, "iso")?;
        let levels = ctx.params.get_usize("levels").unwrap_or(3).max(1);
        let batch = batch_size(ctx);
        let nominal = ctx.nominal_cells();
        let mut out = CommandOutput::default();

        for id in share(ctx, &id_order(ctx)) {
            if ctx.is_cancelled() {
                return Ok(out);
            }
            let mut block_span = vira_obs::span("extract.block", "extract")
                .arg("job", ctx.job)
                .arg("block", id.block)
                .arg("step", id.step);
            let data = ctx.load_block(id)?;
            let field = data.velocity.magnitude();
            let mut stream_err: Option<CommandError> = None;
            let mut cells_skipped = 0u64;
            let mut bricks_skipped = 0u64;
            progressive_isosurface(&data.grid, &field, iso, levels, |level| {
                let _level_span = vira_obs::span("extract.level", "extract")
                    .arg("stride", level.stride as u64)
                    .arg("triangles", level.surface.n_triangles());
                cells_skipped += level.stats.cells_skipped as u64;
                bricks_skipped += level.stats.bricks_skipped as u64;
                if stream_err.is_some() {
                    return;
                }
                // A level subsampled by stride s has ~1/s³ of the
                // nominal cells; charge the level's share before its
                // surface goes out.
                let frac = 1.0 / (level.stride as f64).powi(3);
                ctx.charge_compute(costmodel::ISO_S_PER_CELL * nominal * frac);
                let mut remaining = level.surface.clone();
                while !remaining.is_empty() {
                    let chunk = remaining.drain_front(batch);
                    if let Err(e) = ctx.stream_triangles(&chunk) {
                        stream_err = Some(e);
                        return;
                    }
                }
            });
            block_span.set_arg("cells_skipped", cells_skipped);
            block_span.set_arg("bricks_skipped", bricks_skipped);
            drop(block_span);
            if let Some(e) = stream_err {
                return Err(e);
            }
            out.cells_skipped += cells_skipped;
            out.bricks_skipped += bricks_skipped;
        }
        Ok(out)
    }
}
