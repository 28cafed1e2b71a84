//! The built-in post-processing commands — the paper's evaluation
//! workloads (§6.3) plus the progressive extension (§5.3) and a
//! collective-I/O variant (§4.3).
//!
//! | Command | Data path | Streaming ([`Command::streams`](crate::Command::streams)) |
//! |---|---|---|
//! | `SimpleIso` | direct file-server reads | no |
//! | `IsoDataMan` | DMS | no |
//! | `ViewerIso` | DMS | view-dependent, BSP front-to-back |
//! | `CollectiveIso` | collective I/O on cold items | no |
//! | `SimpleVortex` | direct reads | no |
//! | `VortexDataMan` | DMS | no |
//! | `StreamedVortex` | DMS | per-block λ₂ surface batches |
//! | `SimplePathlines` | direct reads (job-local map) | no |
//! | `PathlinesDataMan` | DMS (Markov-friendly) | no |
//! | `ProgressiveIso` | DMS | coarse-to-fine levels |
//! | `Streamlines` | DMS (frozen level) | no |
//! | `Streaklines` | DMS | no |
//!
//! Shared parameter conventions: `iso` (scalar level on \|u\|),
//! `threshold` (λ₂ level), `viewpoint` ("x,y,z"), `batch` (triangles per
//! streamed packet), `n_steps` (limit the number of processed time
//! steps), `step0` (first step), pathlines: `n_seeds`, `t0`, `t1`,
//! `rngseed`, `scheme`.

mod admin;
mod field_lines;
mod iso;
mod pathlines;
mod progressive;
mod viewer;
mod vortex;

pub use admin::ClearCache;
pub use field_lines::{Streaklines, Streamlines};
pub use iso::{CollectiveIso, IsoDataMan, SimpleIso};
pub use pathlines::{PathlinesDataMan, SimplePathlines};
pub use progressive::ProgressiveIso;
pub use viewer::ViewerIso;
pub use vortex::{SimpleVortex, StreamedVortex, VortexDataMan};

use crate::command::{CommandError, CommandRegistry, JobCtx};
use std::ops::Range;
use std::sync::Arc;
use vira_extract::iso::IsoStats;
use vira_extract::mesh::TriangleSoup;
use vira_extract::pathline::{PathlineConfig, TimeScheme};
use vira_extract::scoped_map;
use vira_grid::block::{BlockId, BlockStepId};
use vira_grid::math::Vec3;
use vira_grid::topology::BlockTopology;
use vira_vista::protocol::CommandParams;

/// Registers every built-in command.
pub fn default_registry() -> CommandRegistry {
    let mut r = CommandRegistry::new();
    r.register(Arc::new(ClearCache));
    r.register(Arc::new(SimpleIso));
    r.register(Arc::new(IsoDataMan));
    r.register(Arc::new(ViewerIso));
    r.register(Arc::new(CollectiveIso));
    r.register(Arc::new(SimpleVortex));
    r.register(Arc::new(VortexDataMan));
    r.register(Arc::new(StreamedVortex));
    r.register(Arc::new(SimplePathlines));
    r.register(Arc::new(PathlinesDataMan));
    r.register(Arc::new(ProgressiveIso));
    r.register(Arc::new(Streamlines));
    r.register(Arc::new(Streaklines));
    r
}

/// Required f64 parameter.
pub(crate) fn require_f64(ctx: &JobCtx<'_>, key: &str) -> Result<f64, CommandError> {
    ctx.params
        .get_f64(key)
        .ok_or_else(|| CommandError::BadParams(format!("missing parameter '{key}'")))
}

/// Triangles per streamed packet.
pub(crate) fn batch_size(ctx: &JobCtx<'_>) -> usize {
    ctx.params.get_usize("batch").unwrap_or(2000).max(1)
}

/// A step-valued parameter, saturated at `u32::MAX` rather than
/// truncated: a client's `2^32` must not read as step 0.
pub(crate) fn param_u32(params: &CommandParams, key: &str) -> Option<u32> {
    params
        .get_usize(key)
        .map(|v| u32::try_from(v).unwrap_or(u32::MAX))
}

/// The time steps a job covers: `step0 ..` limited by `n_steps`
/// (default: the whole unsteady dataset, as in the paper's evaluation),
/// clipped to the dataset's `n_steps`. The scheduler's placement scores
/// the same window the workers walk.
pub(crate) fn step_window(params: &CommandParams, n_steps: u32) -> Range<u32> {
    let step0 = param_u32(params, "step0").unwrap_or(0);
    let limit = param_u32(params, "n_steps").unwrap_or(n_steps);
    step0..n_steps.min(step0.saturating_add(limit))
}

/// This worker's share of the job, step-major: the [`step_window`], each
/// step with the blocks of `order` dealt round-robin over the group.
pub(crate) fn share(ctx: &JobCtx<'_>, order: &[BlockId]) -> Vec<BlockStepId> {
    step_window(&ctx.params, ctx.spec.n_steps)
        .flat_map(|s| ctx.my_blocks(s, order))
        .collect()
}

/// Block ids in id order, the order every command but `ViewerIso` walks.
pub(crate) fn id_order(ctx: &JobCtx<'_>) -> Vec<BlockId> {
    (0..ctx.spec.n_blocks).collect()
}

/// Items per extraction thread in one round of [`walk_share`] beyond one
/// thread: every round spawns its pool afresh, so fewer, fuller rounds
/// spawn less and balance uneven blocks, while a worker still holds a
/// bounded number of loaded items. The micro rungs
/// `walk/cold_8_items_rounds_of_{2,8}_2t` time rounds of one and of four
/// items per thread.
const ITEMS_PER_THREAD: usize = 4;

/// Walks this worker's share in id order: the one item loop of the
/// isosurface and λ₂ commands.
///
/// `load` runs on the calling thread, one item at a time, and does
/// everything order-sensitive: DMS requests, the cost meter and
/// derived-field memoization. `extract` is pure and hands back the
/// item's surface as batches. Each round loads its items, extracts them
/// side by side on [`scoped_map`] with `ctx.extract_threads` threads and
/// takes the results in item order, handing every batch to
/// [`JobCtx::emit_triangles`]. Either way the command streams or merges
/// them, the geometry is byte-identical at any width, and a worker holds
/// at most one round of loaded items. At one thread a round is one item
/// and `scoped_map` runs it inline: load, extraction and sends alternate
/// as in a plain loop, which is what gives a prefetch time to land.
/// Progress goes to the client every ~5 % of the share; a cancel keeps
/// what was emitted so far.
pub(crate) fn walk_share<W: Sync>(
    ctx: &mut JobCtx<'_>,
    mut load: impl FnMut(&JobCtx<'_>, BlockStepId) -> Result<W, CommandError>,
    extract: impl Fn(&W) -> (Vec<TriangleSoup>, IsoStats) + Sync,
) -> Result<(), CommandError> {
    let items = share(ctx, &id_order(ctx));
    let total = items.len();
    let width = ctx.extract_threads.clamp(1, total.max(1));
    let round_len = if width == 1 {
        1
    } else {
        width * ITEMS_PER_THREAD
    };
    let job = ctx.job;
    let mut done = 0usize;
    for round in items.chunks(round_len) {
        // The walking thread's part of the round: its loads, and the
        // extraction itself or its wait on the pool.
        let round_span = vira_obs::span("extract.round", "extract")
            .arg("job", job)
            .arg("items", round.len() as u64);
        let mut loaded = Vec::with_capacity(round.len());
        for &id in round {
            if ctx.is_cancelled() {
                return Ok(());
            }
            loaded.push((id, load(ctx, id)?));
        }
        let results = scoped_map(width, &loaded, |_, (id, item)| {
            let mut block_span = vira_obs::span("extract.block", "extract")
                .arg("job", job)
                .arg("block", id.block)
                .arg("step", id.step);
            let (batches, stats) = extract(item);
            block_span.set_arg("triangles", stats.triangles);
            block_span.set_arg("cells_skipped", stats.cells_skipped as u64);
            block_span.set_arg("bricks_skipped", stats.bricks_skipped as u64);
            (batches, stats)
        });
        drop(round_span);
        for (batches, stats) in results {
            for batch in &batches {
                ctx.emit_triangles(batch)?;
            }
            ctx.count_skipped(stats.cells_skipped as u64, stats.bricks_skipped as u64);
            done += 1;
            if done.is_multiple_of((total / 20).max(1)) || done == total {
                ctx.report_progress(done as f32 / total as f32)?;
            }
        }
    }
    Ok(())
}

/// Block ids sorted front-to-back with respect to a viewpoint (by
/// bounding-box distance); falls back to id order when the server has no
/// geometry metadata for the dataset.
pub(crate) fn front_to_back_order(ctx: &JobCtx<'_>, viewpoint: Vec3) -> Vec<BlockId> {
    let ids = id_order(ctx);
    let Some(bboxes) = ctx.server.block_bboxes(&ctx.dataset) else {
        return ids;
    };
    let mut with_d: Vec<(f64, BlockId)> = ids
        .iter()
        .map(|&b| (bboxes[b as usize].distance_sq(viewpoint), b))
        .collect();
    with_d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    with_d.into_iter().map(|(_, b)| b).collect()
}

/// Deterministic seed points inside the dataset's bounding box (shrunk
/// toward the centre so seeds start well inside the flow). Plain LCG —
/// no RNG dependency needed, and reproducible across runs.
pub(crate) fn seed_points(ctx: &JobCtx<'_>, n: usize, rngseed: u64) -> Vec<Vec3> {
    let bbox = match ctx.server.block_bboxes(&ctx.dataset) {
        Some(bs) => {
            let mut u = vira_grid::math::Aabb::EMPTY;
            for b in bs.iter() {
                u.expand(b.min);
                u.expand(b.max);
            }
            u
        }
        None => vira_grid::math::Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
    };
    let c = bbox.center();
    let half = bbox.diagonal() * 0.5 * 0.6; // stay inside
    let mut state = rngseed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // [-1, 1)
    };
    (0..n)
        .map(|_| {
            Vec3::new(
                c.x + half.x * next(),
                c.y + half.y * next(),
                c.z + half.z * next(),
            )
        })
        .collect()
}

/// This worker's seeds for the particle-trace commands: the `n_seeds`
/// (default 16) [`seed_points`] of `rngseed` (default 42), dealt
/// round-robin over the group.
pub(crate) fn my_seeds(ctx: &JobCtx<'_>) -> Vec<Vec3> {
    let n_seeds = ctx.params.get_usize("n_seeds").unwrap_or(16);
    let rngseed = ctx
        .params
        .get("rngseed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    seed_points(ctx, n_seeds, rngseed)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % ctx.group.len() == ctx.my_index())
        .map(|(_, s)| s)
        .collect()
}

/// The `[t0, t1]` interval of an unsteady trace: `t0` (default 0) to
/// `t1` (default the last step's time); an empty interval is refused.
pub(crate) fn time_span(ctx: &JobCtx<'_>) -> Result<(f64, f64), CommandError> {
    let t0 = ctx.params.get_f64("t0").unwrap_or(0.0);
    let t1 = ctx
        .params
        .get_f64("t1")
        .unwrap_or((ctx.spec.n_steps.saturating_sub(1)) as f64 * ctx.spec.dt);
    if t1 <= t0 {
        return Err(CommandError::BadParams(format!(
            "invalid time span [{t0}, {t1}]"
        )));
    }
    Ok((t0, t1))
}

/// The block adjacency a particle trace walks across block faces.
pub(crate) fn topology(ctx: &JobCtx<'_>) -> Result<Arc<BlockTopology>, CommandError> {
    ctx.server.topology(&ctx.dataset).ok_or_else(|| {
        CommandError::BadParams(format!("dataset {} has no topology metadata", ctx.dataset))
    })
}

/// Adaptive RK4 settings of the particle-trace commands, in units of the
/// dataset's step `dt`: `h_init` (default dt/4), `tol`, `max_steps`.
pub(crate) fn integrator_cfg(ctx: &JobCtx<'_>, scheme: TimeScheme) -> PathlineConfig {
    let dt = ctx.spec.dt;
    PathlineConfig {
        h_init: ctx.params.get_f64("h_init").unwrap_or(dt / 4.0),
        h_min: dt * 1e-6,
        h_max: dt,
        tol: ctx.params.get_f64("tol").unwrap_or(1e-5),
        max_steps: ctx.params.get_usize("max_steps").unwrap_or(20_000),
        scheme,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_builtin_commands() {
        let r = default_registry();
        assert_eq!(
            r.names(),
            vec![
                "ClearCache",
                "CollectiveIso",
                "IsoDataMan",
                "PathlinesDataMan",
                "ProgressiveIso",
                "SimpleIso",
                "SimplePathlines",
                "SimpleVortex",
                "Streaklines",
                "StreamedVortex",
                "Streamlines",
                "ViewerIso",
                "VortexDataMan",
            ]
        );
    }
}
