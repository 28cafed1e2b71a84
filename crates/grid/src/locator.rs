//! Spatial bins over the cells of one block: which cells may contain a
//! physical point. Block geometry is static, so a locator is built once
//! per block ([`crate::topology::BlockTopology::locator`] owns them) and
//! serves every time level and every trace.

use crate::block::{BlockDims, CurvilinearBlock};
use crate::math::{Aabb, Vec3};

/// A uniform bin grid over the bounding boxes of a block's cells, in
/// compressed-row form: the cells of bin `b` are
/// `cells[starts[b]..starts[b + 1]]`, in ascending cell index.
#[derive(Debug)]
pub struct BlockLocator {
    /// Dims and bounding box of the grid the bins were built from.
    dims: BlockDims,
    grid_bbox: Aabb,
    /// Extent of the bin grid (`grid_bbox`, slightly inflated).
    bbox: Aabb,
    /// Bin grid resolution per axis.
    nb: [usize; 3],
    starts: Vec<u32>,
    cells: Vec<u32>,
}

impl BlockLocator {
    pub fn build(grid: &CurvilinearBlock) -> BlockLocator {
        let n_cells = grid.dims.n_cells().max(1);
        // ~4 cells per bin on average.
        let per_axis = ((n_cells as f64 / 4.0).cbrt().ceil() as usize).clamp(1, 64);
        let nb = [per_axis, per_axis, per_axis];
        let bbox = grid.bbox().inflate(1e-12);
        // Each cell's bin range, then two passes over them in cell
        // order: count each bin's cells, drop every cell at its bin's
        // cursor.
        let ranges: Vec<_> = grid
            .dims
            .cells()
            .map(|(i, j, k)| bin_range(&bbox, nb, &grid.cell_bbox(i, j, k)))
            .collect();
        let mut starts = vec![0u32; nb[0] * nb[1] * nb[2] + 1];
        for_each_bin(&ranges, nb, |bin, _| starts[bin + 1] += 1);
        for bin in 1..starts.len() {
            starts[bin] += starts[bin - 1];
        }
        let mut cursor = starts.clone();
        let mut cells = vec![0u32; starts[starts.len() - 1] as usize];
        for_each_bin(&ranges, nb, |bin, cell| {
            cells[cursor[bin] as usize] = cell;
            cursor[bin] += 1;
        });
        BlockLocator {
            dims: grid.dims,
            grid_bbox: *grid.bbox(),
            bbox,
            nb,
            starts,
            cells,
        }
    }

    /// Whether `grid` has the geometry the bins were built from, as far
    /// as dims and bounding box tell.
    pub fn matches(&self, grid: &CurvilinearBlock) -> bool {
        self.dims == grid.dims && self.grid_bbox == *grid.bbox()
    }

    /// Cells whose bounding boxes may contain `p`.
    pub fn candidates(&self, p: Vec3) -> &[u32] {
        if !self.bbox.contains(p) {
            return &[];
        }
        let [bx, by, bz] = [0, 1, 2].map(|a| usize::from(axis_bin(&self.bbox, self.nb, a, p[a])));
        let bin = (bz * self.nb[1] + by) * self.nb[0] + bx;
        &self.cells[self.starts[bin] as usize..self.starts[bin + 1] as usize]
    }

    /// Heap bytes held by the two arrays.
    pub fn heap_bytes(&self) -> usize {
        (self.starts.len() + self.cells.len()) * std::mem::size_of::<u32>()
    }
}

/// Calls `visit(bin, cell)` for every bin in the range of every cell,
/// cells in ascending index.
fn for_each_bin(ranges: &[BinRange], nb: [usize; 3], mut visit: impl FnMut(usize, u32)) {
    for (cell, (lo, hi)) in ranges.iter().enumerate() {
        for bz in lo[2]..=hi[2] {
            for by in lo[1]..=hi[1] {
                for bx in lo[0]..=hi[0] {
                    let bin = (usize::from(bz) * nb[1] + usize::from(by)) * nb[0] + usize::from(bx);
                    visit(bin, cell as u32);
                }
            }
        }
    }
}

/// Lowest and highest bin per axis (at most 64 bins an axis).
type BinRange = ([u8; 3], [u8; 3]);

fn bin_range(bbox: &Aabb, nb: [usize; 3], cell: &Aabb) -> BinRange {
    (
        [0, 1, 2].map(|a| axis_bin(bbox, nb, a, cell.min[a])),
        [0, 1, 2].map(|a| axis_bin(bbox, nb, a, cell.max[a])),
    )
}

/// The bin along axis `a` that coordinate `x` falls in, clamped to the
/// grid; a flat axis has the one bin 0.
fn axis_bin(bbox: &Aabb, nb: [usize; 3], a: usize, x: f64) -> u8 {
    let extent = bbox.diagonal()[a];
    if extent <= 0.0 {
        return 0;
    }
    let bin = ((x - bbox.min[a]) / extent * nb[a] as f64) as isize;
    bin.clamp(0, nb[a] as isize - 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_block(n: usize) -> CurvilinearBlock {
        CurvilinearBlock::from_fn(0, BlockDims::new(n, n, n), |i, j, k| {
            Vec3::new(i as f64, j as f64, k as f64) / (n as f64 - 1.0)
        })
    }

    #[test]
    fn every_cell_is_a_candidate_for_its_own_centre() {
        let b = uniform_block(6);
        let loc = BlockLocator::build(&b);
        for (i, j, k) in b.dims.cells() {
            let centre = b.position_at((i, j, k), 0.5, 0.5, 0.5);
            let cell = b.dims.cell_index(i, j, k) as u32;
            assert!(loc.candidates(centre).contains(&cell), "cell {cell}");
        }
    }

    #[test]
    fn points_outside_the_block_have_no_candidates() {
        let loc = BlockLocator::build(&uniform_block(5));
        assert!(loc.candidates(Vec3::new(2.0, 0.5, 0.5)).is_empty());
        assert!(loc.candidates(Vec3::new(0.5, -0.1, 0.5)).is_empty());
    }

    #[test]
    fn a_21_cubed_block_costs_about_145_kb() {
        let loc = BlockLocator::build(&uniform_block(21));
        assert!(
            (100_000..200_000).contains(&loc.heap_bytes()),
            "{}",
            loc.heap_bytes()
        );
    }

    #[test]
    fn matches_compares_dims_and_bounding_box() {
        let loc = BlockLocator::build(&uniform_block(5));
        assert!(loc.matches(&uniform_block(5)));
        assert!(!loc.matches(&uniform_block(6)));
        let moved = CurvilinearBlock::from_fn(0, BlockDims::new(5, 5, 5), |i, j, k| {
            Vec3::new(i as f64 + 2.0, j as f64, k as f64) / 4.0
        });
        assert!(!loc.matches(&moved));
    }
}
