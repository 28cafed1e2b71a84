//! Min/max acceleration ("bricktree") over the cells of one block — the
//! shared empty-region-skipping layer of the extraction hot path.
//!
//! The block's cells are grouped into bricks of [`BRICK`]³ cells, the
//! leaves; each stores the min/max scalar range of the grid points it
//! touches, and the root range of the whole block is folded from them.
//! An extraction pass at iso level `c` consults the leaves to skip whole
//! bricks whose range cannot contain `c` — without reading a single cell
//! of them.
//!
//! Construction is separable, one slab of bricks at a time: the slab's
//! k-planes fold into one plane, that plane's rows fold across each brick
//! row's j-range into one point row, and each leaf range is a five-point
//! i-window of that row. Every pass is an elementwise loop over
//! contiguous rows, so the tree costs a few times a plain min/max over
//! the field and pays for itself within one extraction; callers that
//! re-extract with varying iso levels (the explorative loop of §1.1)
//! amortize it further by caching the tree alongside the derived field
//! (`viracocha::derived`).
//!
//! Pruning is *conservative*: a brick's range bounds every contained
//! cell's corner range, so a skipped brick can never contain an active
//! cell. [`scan_candidate_runs`](BrickTree::scan_candidate_runs) works
//! out the runs of straddling bricks once per brick row and replays them
//! for each cell row in exactly the storage order of
//! [`BlockDims::cells`] — pruned extraction is triangle-identical to the
//! plain pass (property tested in `tests/bricktree_props.rs`).

use std::ops::Range;
use vira_grid::block::BlockDims;
use vira_grid::field::ScalarField;

/// Cells per brick edge.
pub const BRICK: usize = 4;

#[inline]
fn straddles(r: (f64, f64), iso: f64) -> bool {
    // Matches the active-cell test of the extractors (`s > iso` inside).
    r.1 > iso && r.0 <= iso
}

#[inline]
fn bricks_along(cells: usize) -> usize {
    cells.div_ceil(BRICK).max(1)
}

/// Bricks along `i`, `j` and `k` of the tree of a block of `dims`: the
/// brick layout, for callers that count a block's bricks without
/// building its tree.
pub fn brick_counts(dims: BlockDims) -> (usize, usize, usize) {
    let (ci, cj, ck) = dims.cell_dims();
    (bricks_along(ci), bricks_along(cj), bricks_along(ck))
}

/// Cells of brick `b` along an axis of `cells` cells.
#[inline]
fn brick_cells(b: usize, cells: usize) -> Range<usize> {
    (b * BRICK).min(cells)..((b + 1) * BRICK).min(cells)
}

/// Points touched by brick `b` along an axis of `points` points: its
/// cells `[c0, c1)` touch points `[c0, c1]`.
#[inline]
fn brick_points(b: usize, points: usize) -> Range<usize> {
    let cells = brick_cells(b, points.saturating_sub(1));
    cells.start..(cells.end + 1).min(points)
}

/// The range of no samples: every real sample widens it.
const EMPTY: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// Range `r` widened to cover `(l, h)` by comparison-select.
#[inline]
fn widen(r: (f64, f64), (l, h): (f64, f64)) -> (f64, f64) {
    (if l < r.0 { l } else { r.0 }, if h > r.1 { h } else { r.1 })
}

/// Elementwise `lo = min(lo, src_lo)`, `hi = max(hi, src_hi)` by
/// comparison-select (NaN never wins a comparison, so NaN samples are
/// skipped, as in `lanes::min_max`).
#[inline]
fn fold_rows(lo: &mut [f64], hi: &mut [f64], src_lo: &[f64], src_hi: &[f64]) {
    for (l, &v) in lo.iter_mut().zip(src_lo) {
        *l = if v < *l { v } else { *l };
    }
    for (h, &v) in hi.iter_mut().zip(src_hi) {
        *h = if v > *h { v } else { *h };
    }
}

/// Counters of one pruned scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Cells never examined because their brick was inactive.
    pub cells_skipped: usize,
    /// Bricks skipped whole: the leaves whose range does not straddle
    /// the iso value.
    pub bricks_skipped: usize,
}

/// Min/max bricktree of one scalar field.
#[derive(Debug, Clone)]
pub struct BrickTree {
    cell_dims: (usize, usize, usize),
    /// Bricks along `i` and `j`.
    nx: usize,
    ny: usize,
    /// `(lo, hi)` scalar range per leaf brick, `x` fastest.
    leaves: Vec<(f64, f64)>,
    /// Range of the whole block, folded from the leaves.
    root: (f64, f64),
}

impl BrickTree {
    /// Builds the tree for one field in separable passes per slab of
    /// bricks: k-planes → one plane, rows per brick row → one point row,
    /// five-point i-windows → leaf ranges.
    pub fn build(field: &ScalarField) -> BrickTree {
        let dims = field.dims;
        let (nx, ny, nz) = brick_counts(dims);
        let plane = dims.ni * dims.nj;
        let (mut plane_lo, mut plane_hi) = (vec![0.0; plane], vec![0.0; plane]);
        let (mut row_lo, mut row_hi) = (vec![0.0; dims.ni], vec![0.0; dims.ni]);
        let mut leaves = Vec::with_capacity(nx * ny * nz);
        for bz in 0..nz {
            plane_lo.fill(EMPTY.0);
            plane_hi.fill(EMPTY.1);
            for k in brick_points(bz, dims.nk) {
                let src = &field.values[k * plane..(k + 1) * plane];
                fold_rows(&mut plane_lo, &mut plane_hi, src, src);
            }
            for by in 0..ny {
                row_lo.fill(EMPTY.0);
                row_hi.fill(EMPTY.1);
                for j in brick_points(by, dims.nj) {
                    let row = j * dims.ni..(j + 1) * dims.ni;
                    fold_rows(
                        &mut row_lo,
                        &mut row_hi,
                        &plane_lo[row.clone()],
                        &plane_hi[row],
                    );
                }
                for bx in 0..nx {
                    let w = brick_points(bx, dims.ni);
                    let window = row_lo[w.clone()].iter().zip(&row_hi[w]);
                    leaves.push(window.fold(EMPTY, |r, (&l, &h)| widen(r, (l, h))));
                }
            }
        }
        let root = leaves.iter().copied().fold(EMPTY, widen);
        BrickTree {
            cell_dims: dims.cell_dims(),
            nx,
            ny,
            leaves,
            root,
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

    /// Leaf brick count.
    pub fn n_bricks(&self) -> usize {
        self.leaves.len()
    }

    /// Scalar range of the whole block.
    pub fn root_range(&self) -> (f64, f64) {
        self.root
    }

    /// Scalar range of the leaf brick `(bx, by, bz)`: the min/max over
    /// the grid points its cells touch.
    pub fn leaf_range(&self, bx: usize, by: usize, bz: usize) -> (f64, f64) {
        self.leaves[(bz * self.ny + by) * self.nx + bx]
    }

    /// Approximate heap footprint (for cache accounting): the leaves.
    pub fn memory_bytes(&self) -> usize {
        self.leaves.len() * std::mem::size_of::<(f64, f64)>()
    }

    /// True when the brick containing cell `(i, j, k)` straddles `iso` —
    /// the cheap per-cell pre-test for callers that visit cells in their
    /// own order (BSP leaves).
    #[inline]
    pub fn cell_candidate(&self, i: usize, j: usize, k: usize, iso: f64) -> bool {
        straddles(self.leaf_range(i / BRICK, j / BRICK, k / BRICK), iso)
    }

    /// Scans all cells in storage order ([`BlockDims::cells`] order),
    /// invoking `candidate` for every cell whose brick straddles `iso`
    /// and skipping whole inactive bricks. The visit order of surviving
    /// cells is exactly the storage order, so downstream triangulation
    /// output is byte-identical to an unpruned pass.
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
    /// fixed `(j, k)`, in storage order. The runs of one brick row are
    /// the same for each of its cell rows, so they are worked out once
    /// per brick row and replayed, `k` outer, then `j` across all brick
    /// rows. The vectorized contour scan consumes runs so it can compute
    /// cell ranges from contiguous point rows instead of per-cell
    /// gathers.
    pub fn scan_candidate_runs(
        &self,
        iso: f64,
        mut run: impl FnMut(Range<usize>, usize, usize),
    ) -> PruneCounters {
        let (ci, cj, ck) = self.cell_dims;
        let mut c = PruneCounters::default();
        if !straddles(self.root, iso) {
            c.cells_skipped = ci * cj * ck;
            c.bricks_skipped = self.n_bricks();
            return c;
        }
        // Runs of the current slab; brick row `by`'s are
        // `runs[starts[by]..starts[by + 1]]`. A slab holds no more runs
        // than bricks.
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(self.nx * self.ny);
        let mut starts = vec![0; self.ny + 1];
        for (bz, slab) in self.leaves.chunks_exact(self.nx * self.ny).enumerate() {
            let k_cells = brick_cells(bz, ck);
            runs.clear();
            for (by, row) in slab.chunks_exact(self.nx).enumerate() {
                let cell_rows = brick_cells(by, cj).len() * k_cells.len();
                let row_start = runs.len();
                for (bx, &r) in row.iter().enumerate() {
                    let cells = brick_cells(bx, ci);
                    if !straddles(r, iso) {
                        c.bricks_skipped += 1;
                        c.cells_skipped += cells.len() * cell_rows;
                    } else if let Some(last) = runs[row_start..]
                        .last_mut()
                        .filter(|l| l.end == cells.start)
                    {
                        last.end = cells.end;
                    } else if !cells.is_empty() {
                        runs.push(cells);
                    }
                }
                starts[by + 1] = runs.len();
            }
            for k in k_cells {
                for j in 0..cj {
                    let by = j / BRICK;
                    for r in &runs[starts[by]..starts[by + 1]] {
                        run(r.clone(), j, k);
                    }
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
