//! `ViewerIso` — the view-dependent streaming isosurface of §6.3:
//!
//! 1. all blocks are sorted front-to-back with respect to the viewer's
//!    position and distributed round-robin over the workers;
//! 2. per block, a BSP tree of its domain is built and traversed in a
//!    view-dependent fashion, producing the active-cell list while
//!    pruning empty branches;
//! 3. active cells are triangulated, and whenever a user-specified
//!    number of triangles is reached the fragment is streamed directly
//!    to the visualization client.
//!
//! Unlike occlusion-culling view-dependent extractors, the *full*
//! isosurface is always computed — the user will inspect it from other
//! viewpoints in the virtual environment; the view dependence only
//! controls the *order* of delivery.

use super::{batch_size, front_to_back_order, require_f64, share};
use crate::command::{Command, CommandError, JobCtx};
use vira_extract::bsp::BspTree;
use vira_extract::mesh::TriangleSoup;
use vira_extract::tetra::contour_cell;
use vira_grid::math::Vec3;
use vira_storage::costmodel;

pub struct ViewerIso;

impl Command for ViewerIso {
    fn name(&self) -> &'static str {
        "ViewerIso"
    }

    fn streams(&self) -> bool {
        true
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        let iso = require_f64(ctx, "iso")?;
        let vp = ctx
            .params
            .get_vec3("viewpoint")
            .ok_or_else(|| CommandError::BadParams("missing parameter 'viewpoint'".into()))?;
        let viewpoint = Vec3::new(vp[0], vp[1], vp[2]);
        let batch = batch_size(ctx);
        let order = front_to_back_order(ctx, viewpoint);
        // BSP construction and traversal add to the plain per-cell cost —
        // the "true cost of streaming" the paper leaves in deliberately.
        let compute_per_item =
            (costmodel::ISO_S_PER_CELL + costmodel::BSP_OVERHEAD_S_PER_CELL) * ctx.nominal_cells();

        for id in share(ctx, &order) {
            if ctx.is_cancelled() {
                return Ok(());
            }
            // The data manager assists file loading with simple OBL
            // prefetching (configured at the proxy); the request
            // itself goes through the DMS.
            let data = ctx.load_block(id)?;
            ctx.charge_compute(compute_per_item);
            let field = data.velocity.magnitude();
            let tree = BspTree::build(&data.grid, &field);
            let mut pending = TriangleSoup::new();
            let mut stream_err: Option<CommandError> = None;
            tree.traverse_front_to_back(iso, viewpoint, &field, |(i, j, k)| {
                if stream_err.is_some() {
                    return;
                }
                let corners = data.grid.cell_corners(i, j, k);
                let scalars = field.cell_corners(i, j, k);
                contour_cell(&corners, &scalars, iso, &mut pending);
                if pending.n_triangles() >= batch {
                    if let Err(e) = ctx.emit_triangles(&std::mem::take(&mut pending)) {
                        stream_err = Some(e);
                    }
                }
            });
            if let Some(e) = stream_err {
                return Err(e);
            }
            ctx.emit_triangles(&pending)?;
        }
        Ok(())
    }
}
