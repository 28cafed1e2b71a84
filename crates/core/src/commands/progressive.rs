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
use crate::command::{Command, CommandError, JobCtx};
use vira_extract::mesh::TriangleSoup;
use vira_extract::multires::progressive_isosurface;
use vira_storage::costmodel;

pub struct ProgressiveIso;

impl Command for ProgressiveIso {
    fn name(&self) -> &'static str {
        "ProgressiveIso"
    }

    fn streams(&self) -> bool {
        true
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        let iso = require_f64(ctx, "iso")?;
        let levels = ctx.params.get_usize("levels").unwrap_or(3).max(1);
        let batch = batch_size(ctx);
        let nominal = ctx.nominal_cells();
        // Each `batch` triangles of a level in turn, as one packet.
        let mut packet = TriangleSoup::with_capacity(batch);

        for id in share(ctx, &id_order(ctx)) {
            if ctx.is_cancelled() {
                return Ok(());
            }
            let mut block_span = vira_obs::span("extract.block", "extract")
                .arg("job", ctx.job)
                .arg("block", id.block)
                .arg("step", id.step);
            let data = ctx.load_block(id)?;
            let field = data.velocity.magnitude();
            let mut emit_err: Option<CommandError> = None;
            let mut cells_skipped = 0u64;
            let mut bricks_skipped = 0u64;
            progressive_isosurface(&data.grid, &field, iso, levels, |level| {
                let _level_span = vira_obs::span("extract.level", "extract")
                    .arg("stride", level.stride as u64)
                    .arg("triangles", level.surface.n_triangles());
                cells_skipped += level.stats.cells_skipped as u64;
                bricks_skipped += level.stats.bricks_skipped as u64;
                if emit_err.is_some() {
                    return;
                }
                // A level subsampled by stride s has ~1/s³ of the
                // nominal cells; charge the level's share before its
                // surface goes out.
                let frac = 1.0 / (level.stride as f64).powi(3);
                ctx.charge_compute(costmodel::ISO_S_PER_CELL * nominal * frac);
                for tris in level.surface.positions.chunks(3 * batch) {
                    packet.positions.clear();
                    packet.positions.extend_from_slice(tris);
                    if let Err(e) = ctx.emit_triangles(&packet) {
                        emit_err = Some(e);
                        return;
                    }
                }
            });
            block_span.set_arg("cells_skipped", cells_skipped);
            block_span.set_arg("bricks_skipped", bricks_skipped);
            drop(block_span);
            if let Some(e) = emit_err {
                return Err(e);
            }
            ctx.count_skipped(cells_skipped, bricks_skipped);
        }
        Ok(())
    }
}
