//! Block-level isosurface extraction.
//!
//! The extractor walks the cells of a block in storage order; a min/max
//! [`BrickTree`] skips whole inactive bricks before a single cell of them
//! is read, and a per-cell corner-range check prunes the survivors.
//! Because the bricktree scan preserves storage order and its pruning is
//! conservative, the pruned surface is byte-identical to a plain
//! full-scan pass. Streaming variants deliver triangles in batches
//! through a sink callback, which is how the framework's streamed
//! commands flush partial results (paper §5.1: reorganization of data;
//! §6.3: "whenever a user-specified number of triangles is computed,
//! these fragments … are directly streamed").

use crate::bricktree::BrickTree;
use crate::mesh::TriangleSoup;
use crate::tetra::{contour_cell, contour_cell_oracle};
use vira_grid::block::CurvilinearBlock;
use vira_grid::field::ScalarField;
use vira_grid::lanes;

/// Counters reported by an extraction pass. `cells_visited` counts cells
/// actually examined; `cells_visited + cells_skipped` always equals the
/// block's cell count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsoStats {
    pub cells_visited: usize,
    pub active_cells: usize,
    pub triangles: usize,
    /// Cells never examined thanks to bricktree pruning.
    pub cells_skipped: usize,
    /// Bricks skipped whole.
    pub bricks_skipped: usize,
}

/// Extracts the full isosurface of one block into a fresh soup, building
/// a throwaway bricktree for pruning.
pub fn extract_isosurface(
    grid: &CurvilinearBlock,
    field: &ScalarField,
    iso: f64,
) -> (TriangleSoup, IsoStats) {
    let tree = BrickTree::build(field);
    extract_isosurface_with_tree(grid, field, iso, Some(&tree))
}

/// Like [`extract_isosurface`], but reusing a caller-held bricktree
/// (`None` disables pruning — the reference full-scan path).
pub fn extract_isosurface_with_tree(
    grid: &CurvilinearBlock,
    field: &ScalarField,
    iso: f64,
    tree: Option<&BrickTree>,
) -> (TriangleSoup, IsoStats) {
    // With no batch limit the sink sees at most one batch: keep it whole.
    let mut soup = None;
    let stats = extract_streamed_with_tree(grid, field, iso, tree, usize::MAX, |batch| {
        soup = Some(batch);
    });
    (soup.unwrap_or_default(), stats)
}

/// Extracts the isosurface, flushing `sink` whenever at least
/// `batch_triangles` triangles have accumulated (and once at the end for
/// the remainder). Cells are processed in storage order; a throwaway
/// bricktree prunes inactive bricks.
pub fn extract_streamed(
    grid: &CurvilinearBlock,
    field: &ScalarField,
    iso: f64,
    batch_triangles: usize,
    sink: impl FnMut(TriangleSoup),
) -> IsoStats {
    let tree = BrickTree::build(field);
    extract_streamed_with_tree(grid, field, iso, Some(&tree), batch_triangles, sink)
}

/// Streaming extraction with a caller-held bricktree (`None` disables
/// pruning). Surviving cells are visited in storage order either way, so
/// the concatenated batches are byte-identical across both modes.
///
/// This is the vectorized contour scan every entry point funnels into.
/// Cells arrive as maximal storage-order runs along `i` (from the
/// bricktree's run scan, or whole rows when pruning is off). Per run,
/// the corner ranges of every cell come from one adjacent-pair
/// min/max pass over the four contiguous point rows bounding the run
/// ([`lanes::cell_ranges_along_i`]) instead of a per-cell eight-corner
/// gather; only straddling cells fall through to the scalar cell-table
/// triangulation, in exactly the storage order of the classic pass —
/// the output stays byte-identical to [`extract_isosurface_oracle`].
pub fn extract_streamed_with_tree(
    grid: &CurvilinearBlock,
    field: &ScalarField,
    iso: f64,
    tree: Option<&BrickTree>,
    batch_triangles: usize,
    mut sink: impl FnMut(TriangleSoup),
) -> IsoStats {
    assert_eq!(grid.dims, field.dims, "grid/field dims mismatch");
    if let Some(t) = tree {
        assert!(t.matches(grid.dims), "bricktree dims mismatch");
    }
    let mut kernel_span =
        vira_obs::span("extract.iso_kernel", "extract").arg("pruned", u64::from(tree.is_some()));
    let mut stats = IsoStats::default();
    let mut pending = TriangleSoup::new();
    let (ci, _, _) = grid.dims.cell_dims();
    let mut lo_buf = vec![0.0; ci];
    let mut hi_buf = vec![0.0; ci];
    let mut visit_run = |r: std::ops::Range<usize>, j: usize, k: usize| {
        let n = r.len();
        stats.cells_visited += n;
        let rows = [
            &field.row(j, k)[r.start..r.end + 1],
            &field.row(j + 1, k)[r.start..r.end + 1],
            &field.row(j, k + 1)[r.start..r.end + 1],
            &field.row(j + 1, k + 1)[r.start..r.end + 1],
        ];
        lanes::cell_ranges_along_i(rows, n, &mut lo_buf, &mut hi_buf);
        for c in 0..n {
            if !(hi_buf[c] > iso && lo_buf[c] <= iso) {
                continue;
            }
            stats.active_cells += 1;
            let i = r.start + c;
            let corners = grid.cell_corners(i, j, k);
            let scalars = [
                rows[0][c],
                rows[0][c + 1],
                rows[1][c],
                rows[1][c + 1],
                rows[2][c],
                rows[2][c + 1],
                rows[3][c],
                rows[3][c + 1],
            ];
            let n_tri = contour_cell(&corners, &scalars, iso, &mut pending);
            stats.triangles += n_tri;
            if pending.n_triangles() >= batch_triangles {
                sink(std::mem::take(&mut pending));
            }
        }
    };
    let pruned = match tree {
        Some(t) => t.scan_candidate_runs(iso, &mut visit_run),
        None => {
            let (ci, cj, ck) = grid.dims.cell_dims();
            for k in 0..ck {
                for j in 0..cj {
                    visit_run(0..ci, j, k);
                }
            }
            Default::default()
        }
    };
    stats.cells_skipped = pruned.cells_skipped;
    stats.bricks_skipped = pruned.bricks_skipped;
    if !pending.is_empty() {
        sink(pending);
    }
    kernel_span.set_arg("triangles", stats.triangles);
    kernel_span.set_arg("cells_skipped", stats.cells_skipped);
    stats
}

/// The cell-at-a-time extractor, retained verbatim as the test oracle
/// for the vectorized scan: per cell, an eight-corner gather feeds a
/// scalar min/max fold and then the per-tetrahedron triangulation
/// [`contour_cell_oracle`], so the scan and the cell table are both
/// checked against kernels of their own.
pub fn extract_isosurface_oracle(
    grid: &CurvilinearBlock,
    field: &ScalarField,
    iso: f64,
    tree: Option<&BrickTree>,
) -> (TriangleSoup, IsoStats) {
    assert_eq!(grid.dims, field.dims, "grid/field dims mismatch");
    if let Some(t) = tree {
        assert!(t.matches(grid.dims), "bricktree dims mismatch");
    }
    let mut stats = IsoStats::default();
    let mut soup = TriangleSoup::new();
    let mut visit_cell = |i: usize, j: usize, k: usize| {
        stats.cells_visited += 1;
        let (lo, hi) = field.cell_range(i, j, k);
        if !(hi > iso && lo <= iso) {
            return;
        }
        stats.active_cells += 1;
        let corners = grid.cell_corners(i, j, k);
        let scalars = field.cell_corners(i, j, k);
        stats.triangles += contour_cell_oracle(&corners, &scalars, iso, &mut soup);
    };
    let pruned = match tree {
        Some(t) => t.scan_candidates(iso, &mut visit_cell),
        None => {
            for (i, j, k) in grid.dims.cells() {
                visit_cell(i, j, k);
            }
            Default::default()
        }
    };
    stats.cells_skipped = pruned.cells_skipped;
    stats.bricks_skipped = pruned.bricks_skipped;
    (soup, stats)
}

/// Lists the active cells (cells whose corner range straddles `iso`)
/// without triangulating — used by the view-dependent pipeline, which
/// triangulates in BSP traversal order instead of storage order. A
/// throwaway bricktree skips inactive bricks; the result is identical to
/// a full scan and in storage order.
pub fn active_cells(field: &ScalarField, iso: f64) -> Vec<(usize, usize, usize)> {
    let tree = BrickTree::build(field);
    let mut out = Vec::new();
    tree.scan_candidates(iso, |i, j, k| {
        let (lo, hi) = field.cell_range(i, j, k);
        if hi > iso && lo <= iso {
            out.push((i, j, k));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockDims;
    use vira_grid::math::Vec3;

    /// A uniform n³ grid on [-1,1]³ with the distance-from-origin field.
    fn sphere_case(n: usize) -> (CurvilinearBlock, ScalarField) {
        let dims = BlockDims::new(n, n, n);
        let grid = CurvilinearBlock::from_fn(0, dims, |i, j, k| {
            Vec3::new(
                2.0 * i as f64 / (n - 1) as f64 - 1.0,
                2.0 * j as f64 / (n - 1) as f64 - 1.0,
                2.0 * k as f64 / (n - 1) as f64 - 1.0,
            )
        });
        let pts = grid.points.clone();
        let field = ScalarField::new(dims, pts.iter().map(|p| p.norm()).collect());
        (grid, field)
    }

    #[test]
    fn sphere_isosurface_has_expected_area() {
        let (grid, field) = sphere_case(24);
        let r = 0.6;
        let (soup, stats) = extract_isosurface(&grid, &field, r);
        assert!(stats.triangles > 100);
        assert_eq!(stats.triangles, soup.n_triangles());
        assert!(soup.is_finite());
        // Surface area ≈ 4πr²; tetrahedral faceting stays within ~10 %.
        let expect = 4.0 * std::f64::consts::PI * r * r;
        let area = soup.area();
        assert!(
            (area - expect).abs() / expect < 0.1,
            "area {area} vs {expect}"
        );
        // All vertices near radius r (within a cell diagonal).
        let cell = 2.0 / 23.0;
        for v in &soup.positions {
            let rr = (v[0] as f64).hypot(v[1] as f64).hypot(v[2] as f64);
            assert!((rr - r).abs() < cell * 1.8, "vertex radius {rr}");
        }
    }

    #[test]
    fn pruned_extraction_matches_full_scan_exactly() {
        let (grid, field) = sphere_case(19);
        for iso in [0.3, 0.6, 0.9, 1.2] {
            let (pruned, ps) = extract_isosurface(&grid, &field, iso);
            let (full, fs) = extract_isosurface_with_tree(&grid, &field, iso, None);
            assert_eq!(pruned, full, "pruning changed geometry at iso {iso}");
            assert_eq!(ps.active_cells, fs.active_cells);
            assert_eq!(ps.triangles, fs.triangles);
            assert_eq!(
                ps.cells_visited + ps.cells_skipped,
                grid.dims.n_cells(),
                "visited + skipped must cover the block"
            );
            assert_eq!(fs.cells_skipped, 0);
            assert_eq!(fs.cells_visited, grid.dims.n_cells());
        }
    }

    #[test]
    fn sparse_iso_level_visits_minority_of_cells() {
        // The r = 0.3 sphere in a 24³ block is a small feature: the
        // bricktree must discard the bulk of the volume (acceptance
        // bar: < 25 % of cells examined).
        let (grid, field) = sphere_case(24);
        let (soup, stats) = extract_isosurface(&grid, &field, 0.3);
        assert!(!soup.is_empty());
        let total = grid.dims.n_cells();
        assert_eq!(stats.cells_visited + stats.cells_skipped, total);
        assert!(
            stats.cells_visited * 4 < total,
            "visited {} of {total} cells",
            stats.cells_visited
        );
        assert!(stats.bricks_skipped > 0);
    }

    #[test]
    fn iso_outside_range_gives_empty_surface() {
        let (grid, field) = sphere_case(8);
        let (soup, stats) = extract_isosurface(&grid, &field, 99.0);
        assert!(soup.is_empty());
        assert_eq!(stats.active_cells, 0);
        // The root brick rejects the whole block without touching a cell.
        assert_eq!(stats.cells_visited, 0);
        assert_eq!(stats.cells_skipped, 7 * 7 * 7);
    }

    #[test]
    fn streamed_batches_concatenate_to_full_surface() {
        let (grid, field) = sphere_case(16);
        let (full, full_stats) = extract_isosurface(&grid, &field, 0.7);
        let mut streamed = TriangleSoup::new();
        let mut batches = 0;
        let stats = extract_streamed(&grid, &field, 0.7, 50, |b| {
            assert!(!b.is_empty());
            batches += 1;
            streamed.extend_from(&b);
        });
        assert_eq!(stats, full_stats);
        assert_eq!(streamed, full, "batching must not change geometry");
        assert!(batches > 1, "expected multiple batches, got {batches}");
    }

    #[test]
    fn active_cells_match_triangulated_cells() {
        let (grid, field) = sphere_case(12);
        let active = active_cells(&field, 0.5);
        let (_, stats) = extract_isosurface(&grid, &field, 0.5);
        assert_eq!(active.len(), stats.active_cells);
        assert!(!active.is_empty());
        // Pruning must not disturb the storage order of the listing.
        let mut sorted = active.clone();
        sorted.sort_by_key(|&(i, j, k)| field.dims.cell_index(i, j, k));
        assert_eq!(active, sorted);
    }

    #[test]
    fn vectorized_scan_matches_oracle_bit_exactly() {
        let (grid, field) = sphere_case(19);
        let tree = BrickTree::build(&field);
        for iso in [0.3, 0.6, 0.9, 1.2, 99.0] {
            for t in [None, Some(&tree)] {
                let (fast, fast_stats) = extract_isosurface_with_tree(&grid, &field, iso, t);
                let (oracle, oracle_stats) = extract_isosurface_oracle(&grid, &field, iso, t);
                assert_eq!(
                    fast.to_bytes(),
                    oracle.to_bytes(),
                    "iso {iso} pruned {}",
                    t.is_some()
                );
                assert_eq!(fast_stats, oracle_stats);
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_dims_panic() {
        let (grid, _) = sphere_case(8);
        let field = ScalarField::from_fn(BlockDims::new(4, 4, 4), |_, _, _| 0.0);
        let _ = extract_isosurface(&grid, &field, 0.5);
    }
}
