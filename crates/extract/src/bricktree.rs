//! Hierarchical min/max acceleration ("bricktree") over the cells of one
//! block — the shared empty-region-skipping layer of the extraction hot
//! path.
//!
//! The block's cells are grouped into coarse bricks of [`BRICK`]³ cells;
//! each brick stores the min/max scalar range of the grid points it
//! touches. Levels double the brick edge until a single root brick spans
//! the block. An extraction pass at iso level `c` consults the tree to
//! skip whole bricks whose range cannot contain `c` — without reading a
//! single cell of them. Construction is one cheap pass over the field
//! (`ScalarField::range_over_points` keeps the inner loop on contiguous
//! slices), so the tree pays for itself after a fraction of one
//! extraction; callers that re-extract with varying iso levels (the
//! explorative loop of §1.1) amortize it further by caching the tree
//! alongside the derived field (`viracocha::derived`).
//!
//! Pruning is *conservative*: a brick's range bounds every contained
//! cell's corner range, so a skipped brick can never contain an active
//! cell, and [`scan_candidates`](BrickTree::scan_candidates) visits the
//! surviving cells in exactly the storage order of [`BlockDims::cells`] —
//! pruned extraction is triangle-identical to the plain pass (property
//! tested in `tests/bricktree_props.rs`).

use vira_grid::block::BlockDims;
use vira_grid::field::ScalarField;

/// Cells per brick edge at the finest level.
pub const BRICK: usize = 4;

#[derive(Debug, Clone)]
struct Level {
    nx: usize,
    ny: usize,
    nz: usize,
    /// `(lo, hi)` scalar range per brick, `x` fastest.
    ranges: Vec<(f64, f64)>,
}

impl Level {
    #[inline]
    fn range(&self, bx: usize, by: usize, bz: usize) -> (f64, f64) {
        self.ranges[(bz * self.ny + by) * self.nx + bx]
    }
}

#[inline]
fn straddles(r: (f64, f64), iso: f64) -> bool {
    // Matches the active-cell test of the extractors (`s > iso` inside).
    r.1 > iso && r.0 <= iso
}

#[inline]
fn bricks_along(cells: usize, edge: usize) -> usize {
    cells.div_ceil(edge).max(1)
}

/// Counters of one pruned scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Cells never examined because a containing brick was inactive.
    pub cells_skipped: usize,
    /// Finest-level bricks skipped whole.
    pub bricks_skipped: usize,
}

/// Min/max bricktree of one scalar field.
#[derive(Debug, Clone)]
pub struct BrickTree {
    cell_dims: (usize, usize, usize),
    /// Finest level first; the last level is a single root brick.
    levels: Vec<Level>,
}

impl BrickTree {
    /// Builds the tree for one field: one pass over the point data, the
    /// row-contiguous per-brick scans running through the lane-parallel
    /// min/max fold.
    pub fn build(field: &ScalarField) -> BrickTree {
        let dims = field.dims;
        let (ci, cj, ck) = dims.cell_dims();
        let mut levels = Vec::new();

        // Finest level: point ranges per brick of BRICK³ cells. A brick
        // covering cells [c0, c1) touches points [c0, c1] inclusive.
        let (nx, ny, nz) = (
            bricks_along(ci, BRICK),
            bricks_along(cj, BRICK),
            bricks_along(ck, BRICK),
        );
        let mut ranges = Vec::with_capacity(nx * ny * nz);
        for bz in 0..nz {
            for by in 0..ny {
                for bx in 0..nx {
                    let i1 = ((bx + 1) * BRICK).min(ci);
                    let j1 = ((by + 1) * BRICK).min(cj);
                    let k1 = ((bz + 1) * BRICK).min(ck);
                    ranges.push(field.range_over_points(
                        bx * BRICK..(i1 + 1).min(dims.ni),
                        by * BRICK..(j1 + 1).min(dims.nj),
                        bz * BRICK..(k1 + 1).min(dims.nk),
                    ));
                }
            }
        }
        levels.push(Level { nx, ny, nz, ranges });

        // Coarser levels: combine 2×2×2 children until one root brick.
        while levels.last().map(|l| l.nx * l.ny * l.nz > 1) == Some(true) {
            let child = levels.last().expect("just pushed");
            let (nx, ny, nz) = (
                child.nx.div_ceil(2),
                child.ny.div_ceil(2),
                child.nz.div_ceil(2),
            );
            let mut ranges = Vec::with_capacity(nx * ny * nz);
            for bz in 0..nz {
                for by in 0..ny {
                    for bx in 0..nx {
                        let mut lo = f64::INFINITY;
                        let mut hi = f64::NEG_INFINITY;
                        for cz in 2 * bz..(2 * bz + 2).min(child.nz) {
                            for cy in 2 * by..(2 * by + 2).min(child.ny) {
                                for cx in 2 * bx..(2 * bx + 2).min(child.nx) {
                                    let r = child.range(cx, cy, cz);
                                    lo = lo.min(r.0);
                                    hi = hi.max(r.1);
                                }
                            }
                        }
                        ranges.push((lo, hi));
                    }
                }
            }
            levels.push(Level { nx, ny, nz, ranges });
        }

        BrickTree {
            cell_dims: (ci, cj, ck),
            levels,
        }
    }

    /// Cell dimensions this tree was built for.
    pub fn cell_dims(&self) -> (usize, usize, usize) {
        self.cell_dims
    }

    /// True when the tree matches `dims` (the field it was built from).
    pub fn matches(&self, dims: BlockDims) -> bool {
        self.cell_dims == dims.cell_dims()
    }

    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Finest-level brick count.
    pub fn n_bricks(&self) -> usize {
        let l = &self.levels[0];
        l.nx * l.ny * l.nz
    }

    /// Scalar range of the whole block (the root brick).
    pub fn root_range(&self) -> (f64, f64) {
        self.levels.last().expect("at least one level").ranges[0]
    }

    /// Approximate heap footprint (for cache accounting).
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.ranges.len() * std::mem::size_of::<(f64, f64)>())
            .sum()
    }

    /// True when the finest brick containing cell `(i, j, k)` straddles
    /// `iso` — the cheap per-cell pre-test for callers that visit cells
    /// in their own order (BSP leaves).
    #[inline]
    pub fn cell_candidate(&self, i: usize, j: usize, k: usize, iso: f64) -> bool {
        let l = &self.levels[0];
        straddles(l.range(i / BRICK, j / BRICK, k / BRICK), iso)
    }

    /// For cell `(i, j, k)`: if a containing brick at some level is
    /// inactive for `iso`, returns the end (exclusive, along `i`) of the
    /// *largest* such brick, clipped to the block — the whole run
    /// `i..end` of this row can be skipped. `None` when even the finest
    /// brick straddles `iso`.
    #[inline]
    pub fn inactive_run_end(&self, i: usize, j: usize, k: usize, iso: f64) -> Option<usize> {
        let mut end = None;
        let mut edge = BRICK;
        for level in &self.levels {
            let (bx, by, bz) = (i / edge, j / edge, k / edge);
            if straddles(level.range(bx, by, bz), iso) {
                break;
            }
            end = Some(((bx + 1) * edge).min(self.cell_dims.0));
            edge *= 2;
        }
        end
    }

    /// Scans all cells in storage order ([`BlockDims::cells`] order),
    /// invoking `candidate` for every cell whose containing bricks all
    /// straddle `iso`, and skipping whole inactive bricks (hierarchically
    /// — an inactive coarse brick skips its full row run in one step).
    /// The visit order of surviving cells is exactly the storage order,
    /// so downstream triangulation output is byte-identical to an
    /// unpruned pass.
    pub fn scan_candidates(
        &self,
        iso: f64,
        mut candidate: impl FnMut(usize, usize, usize),
    ) -> PruneCounters {
        self.scan_candidate_runs(iso, |r, j, k| {
            for i in r {
                candidate(i, j, k);
            }
        })
    }

    /// Run-granular form of [`scan_candidates`](Self::scan_candidates):
    /// invokes `run` once per maximal run `i0..i1` of surviving cells at
    /// fixed `(j, k)`, in storage order. Counters and the set of
    /// surviving cells are exactly those of `scan_candidates`; the
    /// vectorized contour scan consumes runs so it can compute cell
    /// ranges from contiguous point rows instead of per-cell gathers.
    pub fn scan_candidate_runs(
        &self,
        iso: f64,
        mut run: impl FnMut(std::ops::Range<usize>, usize, usize),
    ) -> PruneCounters {
        let (ci, cj, ck) = self.cell_dims;
        let mut c = PruneCounters::default();
        if !straddles(self.root_range(), iso) {
            c.cells_skipped = ci * cj * ck;
            c.bricks_skipped = self.n_bricks();
            return c;
        }
        for k in 0..ck {
            for j in 0..cj {
                let mut i = 0;
                let mut run_start = None;
                while i < ci {
                    if let Some(end) = self.inactive_run_end(i, j, k, iso) {
                        if let Some(s) = run_start.take() {
                            run(s..i, j, k);
                        }
                        c.cells_skipped += end - i;
                        // Count each finest brick once: at its first row
                        // (i lands on brick boundaries, so `end - i`
                        // spans whole bricks).
                        if j % BRICK == 0 && k % BRICK == 0 {
                            c.bricks_skipped += (end - i).div_ceil(BRICK);
                        }
                        i = end;
                    } else {
                        if run_start.is_none() {
                            run_start = Some(i);
                        }
                        i = ((i / BRICK + 1) * BRICK).min(ci);
                    }
                }
                if let Some(s) = run_start {
                    run(s..ci, j, k);
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_field(n: usize) -> ScalarField {
        // s = i + j + k: ranges are exact and easy to reason about.
        ScalarField::from_fn(BlockDims::new(n, n, n), |i, j, k| (i + j + k) as f64)
    }

    #[test]
    fn root_range_matches_field_range() {
        let f = ramp_field(9);
        let t = BrickTree::build(&f);
        assert_eq!(t.root_range(), f.range().unwrap());
        assert!(t.n_levels() >= 2);
        assert!(t.matches(f.dims));
    }

    #[test]
    fn scan_covers_every_cell_when_nothing_prunes() {
        // iso in the middle of a diagonal ramp: the root straddles it and
        // most bricks do too; skipped + visited must cover all cells.
        let f = ramp_field(9);
        let t = BrickTree::build(&f);
        let mut visited = 0usize;
        let c = t.scan_candidates(12.0, |_, _, _| visited += 1);
        assert_eq!(visited + c.cells_skipped, f.dims.n_cells());
    }

    #[test]
    fn scan_order_is_storage_order() {
        let f = ramp_field(7);
        let t = BrickTree::build(&f);
        let mut seen = Vec::new();
        t.scan_candidates(9.0, |i, j, k| seen.push((i, j, k)));
        let mut sorted = seen.clone();
        sorted.sort_by_key(|&(i, j, k)| f.dims.cell_index(i, j, k));
        assert_eq!(seen, sorted, "candidates must arrive in storage order");
    }

    #[test]
    fn pruning_never_drops_an_active_cell() {
        let f = ramp_field(11);
        let t = BrickTree::build(&f);
        for iso in [0.5, 3.0, 10.2, 15.0, 29.5] {
            let mut candidates = Vec::new();
            t.scan_candidates(iso, |i, j, k| candidates.push((i, j, k)));
            let active: Vec<_> = f
                .dims
                .cells()
                .filter(|&(i, j, k)| {
                    let (lo, hi) = f.cell_range(i, j, k);
                    hi > iso && lo <= iso
                })
                .collect();
            for c in &active {
                assert!(candidates.contains(c), "active cell {c:?} pruned at {iso}");
            }
        }
    }

    #[test]
    fn out_of_range_iso_skips_everything() {
        let f = ramp_field(9);
        let t = BrickTree::build(&f);
        let mut visited = 0usize;
        let c = t.scan_candidates(99.0, |_, _, _| visited += 1);
        assert_eq!(visited, 0);
        assert_eq!(c.cells_skipped, f.dims.n_cells());
        assert_eq!(c.bricks_skipped, t.n_bricks());
    }

    #[test]
    fn localized_feature_prunes_most_bricks() {
        // A tiny bump in one corner: every brick away from it is skipped.
        let n = 17;
        let f = ScalarField::from_fn(BlockDims::new(n, n, n), |i, j, k| {
            if i < 3 && j < 3 && k < 3 {
                1.0
            } else {
                0.0
            }
        });
        let t = BrickTree::build(&f);
        let mut visited = 0usize;
        let c = t.scan_candidates(0.5, |_, _, _| visited += 1);
        assert!(visited > 0, "the bump's cells must survive");
        assert!(
            visited < f.dims.n_cells() / 4,
            "only near-bump cells examined: {visited}"
        );
        assert!(c.bricks_skipped > t.n_bricks() / 2);
        assert_eq!(visited + c.cells_skipped, f.dims.n_cells());
    }

    #[test]
    fn non_cubic_and_tiny_blocks() {
        for dims in [
            BlockDims::new(2, 2, 2),
            BlockDims::new(5, 3, 2),
            BlockDims::new(9, 2, 6),
        ] {
            let f = ScalarField::from_fn(dims, |i, j, k| (i * 7 + j * 3 + k) as f64);
            let t = BrickTree::build(&f);
            assert_eq!(t.root_range(), f.range().unwrap());
            let mut visited = 0usize;
            let c = t.scan_candidates(1.5, |_, _, _| visited += 1);
            assert_eq!(visited + c.cells_skipped, dims.n_cells());
        }
    }

    #[test]
    fn candidate_runs_concatenate_to_scan_candidates() {
        let f = ramp_field(11);
        let t = BrickTree::build(&f);
        for iso in [0.5, 9.0, 15.0, 29.5, 99.0] {
            let mut cells = Vec::new();
            let c1 = t.scan_candidates(iso, |i, j, k| cells.push((i, j, k)));
            let mut from_runs = Vec::new();
            let mut prev_row = None;
            let c2 = t.scan_candidate_runs(iso, |r, j, k| {
                assert!(!r.is_empty(), "empty run emitted");
                if prev_row == Some((j, k)) {
                    // Runs within a row must be separated by skipped
                    // cells (maximal), never adjacent.
                    let last_i = from_runs.last().map(|&(i, _, _)| i).unwrap();
                    assert!(r.start > last_i + 1, "runs not maximal at ({j}, {k})");
                }
                prev_row = Some((j, k));
                from_runs.extend(r.map(|i| (i, j, k)));
            });
            assert_eq!(cells, from_runs, "iso {iso}");
            assert_eq!(c1, c2, "iso {iso}");
        }
    }

    #[test]
    fn memory_is_small_fraction_of_field() {
        let f = ramp_field(33);
        let t = BrickTree::build(&f);
        let field_bytes = f.values.len() * std::mem::size_of::<f64>();
        assert!(t.memory_bytes() * 10 < field_bytes, "{}", t.memory_bytes());
    }
}
