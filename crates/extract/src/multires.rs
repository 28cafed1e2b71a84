//! Multi-resolution representations for progressive computation
//! (paper §5.3 and the "fully progressive multi-resolution extraction"
//! future work of §9).
//!
//! A resolution pyramid is built by point subsampling with stride `2^l`
//! (always keeping the block's boundary points so every level covers the
//! same domain). Progressive extraction runs coarse-to-fine, streaming
//! each level's surface as soon as it is available: the base level gives
//! the user an immediate impression of the final result, later levels
//! replace it. Per §5.3 the total work exceeds a single fine-level pass —
//! that overhead is exactly what experiment E15 quantifies.

use crate::iso::{extract_isosurface, IsoStats};
use crate::mesh::TriangleSoup;
use vira_grid::block::{BlockDims, CurvilinearBlock};
use vira_grid::field::{BlockData, ScalarField, VectorField};

/// Index mapping for one subsampled axis: stride `s`, boundary kept. A
/// one-point axis stays one point.
fn coarse_axis(n: usize, stride: usize) -> Vec<usize> {
    assert!(stride >= 1 && n >= 1);
    let mut idx: Vec<usize> = (0..n).step_by(stride).collect();
    if *idx.last().expect("non-empty") != n - 1 {
        idx.push(n - 1);
    }
    idx
}

/// Subsamples a block (geometry + velocity) by `stride` in every
/// direction. `stride = 1` returns a clone.
pub fn coarsen(data: &BlockData, stride: usize) -> BlockData {
    let d = data.dims();
    let ix = coarse_axis(d.ni, stride);
    let iy = coarse_axis(d.nj, stride);
    let iz = coarse_axis(d.nk, stride);
    let cd = BlockDims::new(ix.len(), iy.len(), iz.len());
    BlockData::new(
        data.id,
        coarsen_geometry(&data.grid, stride),
        VectorField::from_fn(cd, |i, j, k| data.velocity.at(ix[i], iy[j], iz[k])),
        data.time,
    )
}

/// Subsamples a scalar field consistently with [`coarsen`].
pub fn coarsen_scalar(field: &ScalarField, stride: usize) -> ScalarField {
    let d = field.dims;
    let ix = coarse_axis(d.ni, stride);
    let iy = coarse_axis(d.nj, stride);
    let iz = coarse_axis(d.nk, stride);
    let cd = BlockDims::new(ix.len(), iy.len(), iz.len());
    let mut values = Vec::with_capacity(cd.n_points());
    for &k in &iz {
        for &j in &iy {
            for &i in &ix {
                values.push(field.at(i, j, k));
            }
        }
    }
    ScalarField::new(cd, values)
}

/// A resolution pyramid, coarsest level first. `levels = 1` is just the
/// original data.
pub fn pyramid(data: &BlockData, levels: usize) -> Vec<BlockData> {
    assert!(levels >= 1);
    (0..levels).rev().map(|l| coarsen(data, 1 << l)).collect()
}

/// One level's output of a progressive extraction.
#[derive(Debug, Clone)]
pub struct ProgressiveLevel {
    /// Pyramid level (0 = coarsest).
    pub level: usize,
    /// Subsampling stride of this level.
    pub stride: usize,
    pub surface: TriangleSoup,
    pub stats: IsoStats,
}

/// Progressive isosurface extraction of one block: extracts the surface
/// on every pyramid level from coarse to fine, handing each level to
/// `emit` as soon as it is ready. Returns the per-level records. Every
/// level runs through the bricktree-pruned extractor, so each refinement
/// pass skips the inactive bricks of its own resolution (the per-level
/// `stats` report `cells_skipped`/`bricks_skipped`).
pub fn progressive_isosurface(
    grid: &CurvilinearBlock,
    field: &ScalarField,
    iso: f64,
    levels: usize,
    mut emit: impl FnMut(&ProgressiveLevel),
) -> Vec<ProgressiveLevel> {
    assert!(levels >= 1);
    let mut out = Vec::with_capacity(levels);
    for (n, l) in (0..levels).rev().enumerate() {
        let stride = 1 << l;
        let (cg, cf);
        let (g, f) = if stride == 1 {
            (grid, field)
        } else {
            cg = coarsen_geometry(grid, stride);
            cf = coarsen_scalar(field, stride);
            (&cg, &cf)
        };
        let (surface, stats) = extract_isosurface(g, f, iso);
        let rec = ProgressiveLevel {
            level: n,
            stride,
            surface,
            stats,
        };
        emit(&rec);
        out.push(rec);
    }
    out
}

/// Geometry-only variant of [`coarsen`] (used when the scalar field is
/// derived, not stored in the block data).
pub fn coarsen_geometry(grid: &CurvilinearBlock, stride: usize) -> CurvilinearBlock {
    let d = grid.dims;
    let ix = coarse_axis(d.ni, stride);
    let iy = coarse_axis(d.nj, stride);
    let iz = coarse_axis(d.nk, stride);
    let cd = BlockDims::new(ix.len(), iy.len(), iz.len());
    let mut points = Vec::with_capacity(cd.n_points());
    for &k in &iz {
        for &j in &iy {
            for &i in &ix {
                points.push(grid.point(i, j, k));
            }
        }
    }
    CurvilinearBlock::new(grid.id, cd, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockStepId;
    use vira_grid::math::Vec3;
    use vira_grid::synth::test_cube;

    fn data(res: usize) -> BlockData {
        test_cube(res, 1).generate(BlockStepId::new(0, 0))
    }

    #[test]
    fn coarse_axis_keeps_boundaries() {
        assert_eq!(coarse_axis(9, 2), vec![0, 2, 4, 6, 8]);
        assert_eq!(coarse_axis(8, 2), vec![0, 2, 4, 6, 7]);
        assert_eq!(coarse_axis(5, 4), vec![0, 4]);
        assert_eq!(coarse_axis(5, 16), vec![0, 4]);
        assert_eq!(coarse_axis(2, 1), vec![0, 1]);
        assert_eq!(coarse_axis(1, 4), vec![0]);
    }

    #[test]
    fn one_point_axis_progresses_to_empty_levels() {
        // A flat block has no cells: every level is empty, as a direct
        // extraction of the same block is.
        let dims = BlockDims::new(4, 1, 3);
        let grid =
            CurvilinearBlock::from_fn(0, dims, |i, j, k| Vec3::new(i as f64, j as f64, k as f64));
        let field = ScalarField::from_fn(dims, |i, _, k| (i + k) as f64);
        let levels = progressive_isosurface(&grid, &field, 2.5, 3, |_| {});
        assert_eq!(levels.len(), 3);
        for l in &levels {
            assert!(l.surface.is_empty(), "level {} has triangles", l.level);
            assert_eq!(l.stats.triangles, 0);
        }
        assert_eq!(coarsen_geometry(&grid, 4).dims, BlockDims::new(2, 1, 2));
    }

    #[test]
    fn coarsen_preserves_domain_bbox() {
        let d = data(9);
        let c = coarsen(&d, 2);
        assert_eq!(c.dims(), BlockDims::new(5, 5, 5));
        assert_eq!(c.grid.bbox(), d.grid.bbox());
        assert_eq!(c.time, d.time);
        // Corner samples survive subsampling exactly.
        assert_eq!(c.velocity.at(0, 0, 0), d.velocity.at(0, 0, 0));
        assert_eq!(c.velocity.at(4, 4, 4), d.velocity.at(8, 8, 8));
    }

    #[test]
    fn stride_one_is_identity() {
        let d = data(6);
        let c = coarsen(&d, 1);
        assert_eq!(c, d);
    }

    #[test]
    fn pyramid_is_coarse_to_fine() {
        let d = data(9);
        let p = pyramid(&d, 3);
        assert_eq!(p.len(), 3);
        assert!(p[0].dims().n_points() < p[1].dims().n_points());
        assert!(p[1].dims().n_points() < p[2].dims().n_points());
        assert_eq!(p[2], d, "finest level is the original");
    }

    #[test]
    fn progressive_iso_converges_to_final_surface() {
        let res = 17;
        let d = data(res);
        let grid = &d.grid;
        let field = ScalarField::new(grid.dims, grid.points.iter().map(|p| p.norm()).collect());
        let mut emitted = Vec::new();
        let levels = progressive_isosurface(grid, &field, 0.6, 3, |l| {
            emitted.push((l.level, l.stats.triangles));
        });
        assert_eq!(levels.len(), 3);
        assert_eq!(emitted.len(), 3);
        // Coarser levels produce fewer triangles; the finest equals a
        // direct extraction.
        assert!(levels[0].stats.triangles < levels[2].stats.triangles);
        let (direct, direct_stats) = extract_isosurface(grid, &field, 0.6);
        assert_eq!(levels[2].surface, direct);
        assert_eq!(levels[2].stats, direct_stats);
        // Every level approximates the same sphere: areas within 30 %.
        let fine_area = levels[2].surface.area();
        for l in &levels {
            if l.stats.triangles > 0 {
                let ratio = l.surface.area() / fine_area;
                assert!(
                    (0.7..1.3).contains(&ratio),
                    "level {} area ratio {ratio}",
                    l.level
                );
            }
        }
        // Total progressive work exceeds the single-pass cost (§5.3).
        let total: usize = levels.iter().map(|l| l.stats.cells_visited).sum();
        assert!(total > direct_stats.cells_visited);
    }

    #[test]
    fn coarsen_scalar_matches_geometry_subsampling() {
        let d = data(9);
        let f = ScalarField::from_fn(d.dims(), |i, j, k| (i + j + k) as f64);
        let cf = coarsen_scalar(&f, 2);
        assert_eq!(cf.dims, BlockDims::new(5, 5, 5));
        assert_eq!(cf.at(1, 1, 1), f.at(2, 2, 2));
        assert_eq!(cf.at(4, 0, 0), f.at(8, 0, 0));
    }

    #[test]
    fn coarsen_vec_and_geometry_agree() {
        let d = data(7);
        let c = coarsen(&d, 2);
        let g = coarsen_geometry(&d.grid, 2);
        assert_eq!(*c.grid, g);
    }

    #[test]
    fn uneven_dims_are_handled() {
        // 8 points → stride 2 keeps 0,2,4,6,7: spacing irregular at the
        // boundary but the domain is preserved.
        let ds = test_cube(8, 1);
        let d = ds.generate(BlockStepId::new(0, 0));
        let c = coarsen(&d, 2);
        assert_eq!(c.dims(), BlockDims::new(5, 5, 5));
        assert_eq!(c.grid.bbox(), d.grid.bbox());
        assert_eq!(
            c.grid.point(4, 4, 4),
            Vec3::splat(1.0),
            "boundary point preserved"
        );
    }
}
