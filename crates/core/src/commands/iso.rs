//! Isosurface commands on the velocity magnitude: the paper's
//! `SimpleIso` (no data management) and `IsoDataMan` (DMS-enabled)
//! baselines, plus a collective-I/O variant for the §4.3 ablation.
//!
//! All three walk their share through [`walk_share`]; they differ only
//! in how an item is loaded.

use super::{require_f64, walk_share};
use crate::command::{Command, CommandError, JobCtx};
use vira_extract::iso::extract_isosurface;
use vira_storage::costmodel;

fn extract_items(
    ctx: &mut JobCtx<'_>,
    use_dms: bool,
    collective: bool,
) -> Result<(), CommandError> {
    let iso = require_f64(ctx, "iso")?;
    let compute_per_item = costmodel::ISO_S_PER_CELL * ctx.nominal_cells();
    walk_share(
        ctx,
        |ctx, id| {
            let data = if collective && !ctx.proxy.is_cached(&ctx.dataset, id) {
                // Cold item: all group members fetch their items in one
                // coordinated operation.
                ctx.server
                    .collective_read(&ctx.dataset, id, ctx.group.len(), &ctx.meter)?
            } else if use_dms {
                ctx.load_block(id)?
            } else {
                ctx.direct_read(id)?
            };
            ctx.charge_compute(compute_per_item);
            Ok(data)
        },
        |data| {
            let (soup, stats) = extract_isosurface(&data.grid, &data.velocity.magnitude(), iso);
            (vec![soup], stats)
        },
    )
}

/// Isosurface extraction without any data management (paper Fig. 6/7
/// baseline): every item is read straight from the file server.
pub struct SimpleIso;

impl Command for SimpleIso {
    fn name(&self) -> &'static str {
        "SimpleIso"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        extract_items(ctx, false, false)
    }
}

/// Isosurface extraction through the DMS: caches, prefetching and
/// adaptive loading strategies.
pub struct IsoDataMan;

impl Command for IsoDataMan {
    fn name(&self) -> &'static str {
        "IsoDataMan"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        extract_items(ctx, true, false)
    }
}

/// Isosurface extraction using collective I/O for cold items (§4.3:
/// "applicable when multiple processors collectively access a file …
/// mostly at cold starts").
pub struct CollectiveIso;

impl Command for CollectiveIso {
    fn name(&self) -> &'static str {
        "CollectiveIso"
    }

    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
        extract_items(ctx, true, true)
    }
}
