//! λ₂ vortex-region commands (paper §6.3, Figures 9–12): direct-read and
//! DMS baselines that send each worker's surface in its final package,
//! and the streamed variant that sends every block's surface in batches
//! as soon as the block is contoured.
//!
//! All three walk their share through [`walk_share`] and extract an item
//! the same way: the complete λ₂ field of the block ([`lambda2_field`],
//! or a memoized [`DerivedField`] with its bricktree), contoured at the
//! threshold by [`contour`]. They differ in how an item is loaded and in
//! where its batches go.

use super::{require_f64, walk_share};
use crate::command::{Command, CommandError, JobCtx};
use crate::derived::DerivedField;
use std::sync::Arc;
use vira_extract::bricktree::brick_counts;
use vira_extract::halo::GhostedBlock;
use vira_extract::iso::{extract_streamed, extract_streamed_with_tree, IsoStats};
use vira_extract::lambda2::lambda2_field;
use vira_extract::mesh::TriangleSoup;
use vira_grid::block::{BlockDims, BlockStepId};
use vira_grid::field::SharedBlockData;
use vira_grid::topology::BlockTopology;
use vira_grid::{BlockData, ScalarField};
use vira_storage::costmodel;

/// One λ₂ item once its loads are done.
enum Lambda2Item {
    /// The memoized range cannot straddle the threshold: the block's
    /// cells and bricks are skipped without touching the field, and
    /// counted as the bricktree walk would count them.
    Outside(BlockDims),
    /// Memoized field: only the contouring is left, on the bricktree the
    /// first contour builds.
    Memoized(SharedBlockData, Arc<DerivedField>),
    /// Derive λ₂ (across the face neighbours, when given), then contour.
    Fresh(SharedBlockData, Option<Vec<SharedBlockData>>),
}

/// The face neighbours of `id` at its step, loaded through the DMS (so
/// they are usually cache hits on another worker's behalf); `None`
/// without ghost exchange.
fn neighbours(
    ctx: &JobCtx<'_>,
    topology: Option<&BlockTopology>,
    id: BlockStepId,
) -> Result<Option<Vec<SharedBlockData>>, CommandError> {
    topology
        .map(|topo| {
            topo.neighbors(id.block)
                .iter()
                .map(|&nb| ctx.load_block(BlockStepId::new(nb, id.step)))
                .collect()
        })
        .transpose()
}

/// The λ₂ field of `data`, with centered stencils across the block
/// interfaces when its neighbours are given.
fn derive(data: &BlockData, neighbours: Option<&[SharedBlockData]>) -> ScalarField {
    match neighbours {
        Some(nbs) => {
            let refs: Vec<&BlockData> = nbs.iter().map(|d| &**d).collect();
            GhostedBlock::assemble(data, &refs, 1e-9).lambda2_field()
        }
        None => lambda2_field(data),
    }
}

/// Contours one item at `threshold`, cut into batches of at least
/// `batch` triangles (the last one may be short); `usize::MAX` keeps the
/// surface in one piece.
fn contour(item: &Lambda2Item, threshold: f64, batch: usize) -> (Vec<TriangleSoup>, IsoStats) {
    let mut batches = Vec::new();
    let sink = |soup| batches.push(soup);
    let stats = match item {
        Lambda2Item::Outside(dims) => {
            let (nx, ny, nz) = brick_counts(*dims);
            IsoStats {
                cells_skipped: dims.n_cells(),
                bricks_skipped: nx * ny * nz,
                ..IsoStats::default()
            }
        }
        Lambda2Item::Memoized(data, memo) => extract_streamed_with_tree(
            &data.grid,
            &memo.field,
            threshold,
            Some(memo.tree()),
            batch,
            sink,
        ),
        Lambda2Item::Fresh(data, nbs) => {
            let field = derive(data, nbs.as_deref());
            extract_streamed(&data.grid, &field, threshold, batch, sink)
        }
    };
    (batches, stats)
}

fn vortex_items(ctx: &mut JobCtx<'_>, use_dms: bool) -> Result<(), CommandError> {
    let threshold = require_f64(ctx, "threshold")?;
    // With `cache_fields`, the derived λ₂ field is memoized per node —
    // the explorative threshold-tweaking loop (§1.1) then only pays the
    // cheap re-isosurfacing, not the tensor/eigen computation.
    let cache_fields = ctx
        .params
        .get("cache_fields")
        .map(|v| v == "true" || v == "1")
        .unwrap_or(false);
    // With `ghosts`, each block additionally loads its face neighbours
    // and computes λ₂ with centered stencils across block interfaces —
    // no seams in the vortex boundaries.
    let ghosts = ctx
        .params
        .get("ghosts")
        .map(|v| v == "true" || v == "1")
        .unwrap_or(false);
    let topology = if ghosts {
        Some(ctx.server.topology(&ctx.dataset).ok_or_else(|| {
            CommandError::BadParams(format!(
                "dataset {} has no topology metadata for ghost exchange",
                ctx.dataset
            ))
        })?)
    } else {
        None
    };
    let topology = topology.as_deref();
    let kind = if ghosts { "lambda2-ghosted" } else { "lambda2" };
    let lambda2_cost = costmodel::LAMBDA2_S_PER_CELL * ctx.nominal_cells();
    let iso_cost = costmodel::ISO_S_PER_CELL * ctx.nominal_cells();
    let load = |ctx: &JobCtx<'_>, id: BlockStepId| {
        let data = if use_dms {
            ctx.load_block(id)?
        } else {
            ctx.direct_read(id)?
        };
        if !cache_fields {
            ctx.charge_compute(lambda2_cost);
            return Ok(Lambda2Item::Fresh(data, neighbours(ctx, topology, id)?));
        }
        if let Some(memo) = ctx.derived.get(&ctx.dataset, kind, id) {
            // Block-level prune on the memoized range: when the whole
            // block straddles nothing at this threshold, a sweep
            // iteration skips it without touching the field or the tree.
            // Mirrors the brick activity test (`hi > iso && lo <= iso`),
            // so geometry is unchanged.
            if let Some((lo, hi)) = memo.range() {
                if !(hi > threshold && lo <= threshold) {
                    return Ok(Lambda2Item::Outside(data.dims()));
                }
            }
            // A memoized field costs just the re-contouring.
            ctx.charge_compute(iso_cost);
            return Ok(Lambda2Item::Memoized(data, memo));
        }
        // Every load precedes the derivation, so a failed one leaves
        // nothing in the cache.
        let nbs = neighbours(ctx, topology, id)?;
        ctx.charge_compute(lambda2_cost);
        let memo = ctx
            .derived
            .get_or_compute(&ctx.dataset, kind, id, || derive(&data, nbs.as_deref()));
        Ok(Lambda2Item::Memoized(data, memo))
    };
    walk_share(ctx, load, |item| contour(item, threshold, usize::MAX))
}

/// λ₂ extraction without data management: the Fig. 9/10 baseline.
pub struct SimpleVortex;

impl Command for SimpleVortex {
    fn name(&self) -> &'static str {
        "SimpleVortex"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        vortex_items(ctx, false)
    }
}

/// λ₂ extraction through the DMS, full field per block (non-streamed).
pub struct VortexDataMan;

impl Command for VortexDataMan {
    fn name(&self) -> &'static str {
        "VortexDataMan"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        vortex_items(ctx, true)
    }
}

/// Streamed λ₂ extraction: every block's surface goes to the client in
/// batches of `batch` triangles as soon as the block is contoured, so
/// first fragments arrive long before the last block is done (paper
/// §6.3). The final package carries only the pruning counters.
pub struct StreamedVortex;

impl Command for StreamedVortex {
    fn name(&self) -> &'static str {
        "StreamedVortex"
    }

    fn streams(&self) -> bool {
        true
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        let threshold = require_f64(ctx, "threshold")?;
        let batch = super::batch_size(ctx);
        // Streaming overhead: the paper's cell-wise pass costs slightly
        // more than its full-field pass (extra bookkeeping per cell).
        let compute_per_item =
            (costmodel::LAMBDA2_S_PER_CELL + 0.1 * costmodel::ISO_S_PER_CELL) * ctx.nominal_cells();
        let load = |ctx: &JobCtx<'_>, id: BlockStepId| {
            let data = ctx.load_block(id)?;
            ctx.charge_compute(compute_per_item);
            // Reuse the field an earlier full-field pass (VortexDataMan
            // with `cache_fields`) memoized; never fill the cache from
            // here.
            Ok(match ctx.derived.get(&ctx.dataset, "lambda2", id) {
                Some(memo) => Lambda2Item::Memoized(data, memo),
                None => Lambda2Item::Fresh(data, None),
            })
        };
        walk_share(ctx, load, |item| contour(item, threshold, batch))
    }
}
