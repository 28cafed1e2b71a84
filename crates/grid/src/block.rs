//! A single curvilinear structured block of a multi-block CFD dataset.
//!
//! A block is a logically Cartesian lattice of `ni × nj × nk` grid points
//! whose physical coordinates are arbitrary (curvilinear). Cells are the
//! hexahedra between eight neighbouring points. Point storage is
//! `i`-fastest (then `j`, then `k`), matching the usual structured-CFD
//! convention.

use crate::math::{Aabb, Vec3};

/// Identifier of a block within a dataset.
pub type BlockId = u32;

/// Identifier of a time step within a dataset.
pub type StepId = u32;

/// A `(block, time step)` pair — the minimal unit of data handling in the
/// Viracocha data management system (a "data item" source address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockStepId {
    pub block: BlockId,
    pub step: StepId,
}

impl BlockStepId {
    pub const fn new(block: BlockId, step: StepId) -> Self {
        BlockStepId { block, step }
    }
}

/// Number of grid *points* along each computational direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockDims {
    pub ni: usize,
    pub nj: usize,
    pub nk: usize,
}

impl BlockDims {
    pub const fn new(ni: usize, nj: usize, nk: usize) -> Self {
        BlockDims { ni, nj, nk }
    }

    /// Total number of grid points.
    #[inline]
    pub fn n_points(&self) -> usize {
        self.ni * self.nj * self.nk
    }

    /// Number of cells along each direction (`dims - 1`).
    #[inline]
    pub fn cell_dims(&self) -> (usize, usize, usize) {
        (
            self.ni.saturating_sub(1),
            self.nj.saturating_sub(1),
            self.nk.saturating_sub(1),
        )
    }

    /// Total number of hexahedral cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        let (ci, cj, ck) = self.cell_dims();
        ci * cj * ck
    }

    /// Flat index of point `(i, j, k)`; `i` varies fastest.
    #[inline]
    pub fn point_index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.ni && j < self.nj && k < self.nk);
        (k * self.nj + j) * self.ni + i
    }

    /// Inverse of [`point_index`](Self::point_index).
    #[inline]
    pub fn point_coords(&self, idx: usize) -> (usize, usize, usize) {
        let i = idx % self.ni;
        let j = (idx / self.ni) % self.nj;
        let k = idx / (self.ni * self.nj);
        (i, j, k)
    }

    /// Flat index of cell `(i, j, k)` (cell origin corner), `i` fastest.
    #[inline]
    pub fn cell_index(&self, i: usize, j: usize, k: usize) -> usize {
        let (ci, cj, _) = self.cell_dims();
        debug_assert!(i < ci && j < cj);
        (k * cj + j) * ci + i
    }

    /// Inverse of [`cell_index`](Self::cell_index).
    #[inline]
    pub fn cell_coords(&self, idx: usize) -> (usize, usize, usize) {
        let (ci, cj, _) = self.cell_dims();
        let i = idx % ci;
        let j = (idx / ci) % cj;
        let k = idx / (ci * cj);
        (i, j, k)
    }

    /// Point indices of the eight corners of cell `(i, j, k)`, in the
    /// canonical order used by trilinear interpolation:
    /// `(i,j,k)`, `(i+1,j,k)`, `(i,j+1,k)`, `(i+1,j+1,k)`,
    /// `(i,j,k+1)`, `(i+1,j,k+1)`, `(i,j+1,k+1)`, `(i+1,j+1,k+1)`.
    #[inline]
    pub fn cell_corner_indices(&self, i: usize, j: usize, k: usize) -> [usize; 8] {
        [
            self.point_index(i, j, k),
            self.point_index(i + 1, j, k),
            self.point_index(i, j + 1, k),
            self.point_index(i + 1, j + 1, k),
            self.point_index(i, j, k + 1),
            self.point_index(i + 1, j, k + 1),
            self.point_index(i, j + 1, k + 1),
            self.point_index(i + 1, j + 1, k + 1),
        ]
    }

    /// Iterates over all cell coordinates in storage order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        let (ci, cj, ck) = self.cell_dims();
        (0..ck).flat_map(move |k| (0..cj).flat_map(move |j| (0..ci).map(move |i| (i, j, k))))
    }
}

/// Trilinear interpolation of eight corner values at local coordinates
/// `(u, v, w) ∈ [0,1]³`. Corner order is that of
/// [`BlockDims::cell_corner_indices`].
#[inline]
pub fn trilinear(corners: &[f64; 8], u: f64, v: f64, w: f64) -> f64 {
    let c00 = corners[0] + (corners[1] - corners[0]) * u;
    let c10 = corners[2] + (corners[3] - corners[2]) * u;
    let c01 = corners[4] + (corners[5] - corners[4]) * u;
    let c11 = corners[6] + (corners[7] - corners[6]) * u;
    let c0 = c00 + (c10 - c00) * v;
    let c1 = c01 + (c11 - c01) * v;
    c0 + (c1 - c0) * w
}

/// Trilinear interpolation of eight corner vectors.
#[inline]
pub fn trilinear_vec3(corners: &[Vec3; 8], u: f64, v: f64, w: f64) -> Vec3 {
    let c00 = corners[0].lerp(corners[1], u);
    let c10 = corners[2].lerp(corners[3], u);
    let c01 = corners[4].lerp(corners[5], u);
    let c11 = corners[6].lerp(corners[7], u);
    let c0 = c00.lerp(c10, v);
    let c1 = c01.lerp(c11, v);
    c0.lerp(c1, w)
}

/// Geometry of one curvilinear block: the physical coordinates of its grid
/// points. Geometry is shared by all time steps of a dataset (grids are
/// static; the flow fields vary in time), so a data item holds it behind
/// an `Arc` and every step's item of a block holds the same one
/// ([`crate::field::BlockData::grid`]). Immutable once built.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvilinearBlock {
    pub id: BlockId,
    pub dims: BlockDims,
    /// Physical point coordinates, `i` fastest; length `dims.n_points()`.
    pub points: Vec<Vec3>,
    /// Cached bounding box of all points.
    bbox: Aabb,
}

impl CurvilinearBlock {
    /// Builds a block from explicit points. Panics if the point count does
    /// not match `dims`.
    pub fn new(id: BlockId, dims: BlockDims, points: Vec<Vec3>) -> Self {
        assert_eq!(
            points.len(),
            dims.n_points(),
            "point count must equal ni*nj*nk"
        );
        let bbox = Aabb::from_points(points.iter().copied());
        CurvilinearBlock {
            id,
            dims,
            points,
            bbox,
        }
    }

    /// Builds a block by evaluating `f(i, j, k)` at every lattice point.
    pub fn from_fn(
        id: BlockId,
        dims: BlockDims,
        mut f: impl FnMut(usize, usize, usize) -> Vec3,
    ) -> Self {
        let mut points = Vec::with_capacity(dims.n_points());
        for k in 0..dims.nk {
            for j in 0..dims.nj {
                for i in 0..dims.ni {
                    points.push(f(i, j, k));
                }
            }
        }
        CurvilinearBlock::new(id, dims, points)
    }

    #[inline]
    pub fn point(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.points[self.dims.point_index(i, j, k)]
    }

    #[inline]
    pub fn bbox(&self) -> &Aabb {
        &self.bbox
    }

    /// The eight physical corner positions of cell `(i, j, k)`.
    #[inline]
    pub fn cell_corners(&self, i: usize, j: usize, k: usize) -> [Vec3; 8] {
        let idx = self.dims.cell_corner_indices(i, j, k);
        idx.map(|n| self.points[n])
    }

    /// Physical position at computational coordinates `(ci + u, cj + v,
    /// ck + w)`: trilinear interpolation within cell `(ci, cj, ck)`.
    pub fn position_at(&self, cell: (usize, usize, usize), u: f64, v: f64, w: f64) -> Vec3 {
        let corners = self.cell_corners(cell.0, cell.1, cell.2);
        trilinear_vec3(&corners, u, v, w)
    }

    /// Approximate number of bytes this block's geometry occupies in memory.
    pub fn geometry_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<Vec3>()
    }

    /// Bounding box of a single cell.
    pub fn cell_bbox(&self, i: usize, j: usize, k: usize) -> Aabb {
        Aabb::from_points(self.cell_corners(i, j, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_block(n: usize) -> CurvilinearBlock {
        let dims = BlockDims::new(n, n, n);
        CurvilinearBlock::from_fn(0, dims, |i, j, k| {
            Vec3::new(i as f64, j as f64, k as f64) / (n as f64 - 1.0)
        })
    }

    #[test]
    fn dims_counts() {
        let d = BlockDims::new(5, 4, 3);
        assert_eq!(d.n_points(), 60);
        assert_eq!(d.cell_dims(), (4, 3, 2));
        assert_eq!(d.n_cells(), 24);
    }

    #[test]
    fn point_index_roundtrip() {
        let d = BlockDims::new(5, 4, 3);
        for k in 0..3 {
            for j in 0..4 {
                for i in 0..5 {
                    let idx = d.point_index(i, j, k);
                    assert_eq!(d.point_coords(idx), (i, j, k));
                }
            }
        }
    }

    #[test]
    fn cell_index_roundtrip() {
        let d = BlockDims::new(5, 4, 3);
        for k in 0..2 {
            for j in 0..3 {
                for i in 0..4 {
                    let idx = d.cell_index(i, j, k);
                    assert_eq!(d.cell_coords(idx), (i, j, k));
                }
            }
        }
    }

    #[test]
    fn cells_iterator_covers_all_cells_in_order() {
        let d = BlockDims::new(3, 3, 2);
        let cells: Vec<_> = d.cells().collect();
        assert_eq!(cells.len(), d.n_cells());
        for (n, &(i, j, k)) in cells.iter().enumerate() {
            assert_eq!(d.cell_index(i, j, k), n);
        }
    }

    #[test]
    fn trilinear_at_corners() {
        let c = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(trilinear(&c, 0.0, 0.0, 0.0), 0.0);
        assert_eq!(trilinear(&c, 1.0, 0.0, 0.0), 1.0);
        assert_eq!(trilinear(&c, 0.0, 1.0, 0.0), 2.0);
        assert_eq!(trilinear(&c, 1.0, 1.0, 1.0), 7.0);
        // Center is the average of all corners for a multilinear function.
        assert!((trilinear(&c, 0.5, 0.5, 0.5) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn block_from_fn_positions() {
        let b = unit_block(3);
        assert_eq!(b.point(0, 0, 0), Vec3::ZERO);
        assert_eq!(b.point(2, 2, 2), Vec3::splat(1.0));
        assert_eq!(b.bbox().min, Vec3::ZERO);
        assert_eq!(b.bbox().max, Vec3::splat(1.0));
    }

    #[test]
    fn position_at_interpolates_within_cell() {
        let b = unit_block(3);
        // Center of the first cell of a uniform unit grid with spacing 0.5.
        let p = b.position_at((0, 0, 0), 0.5, 0.5, 0.5);
        assert!((p - Vec3::splat(0.25)).norm() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn wrong_point_count_panics() {
        let _ = CurvilinearBlock::new(0, BlockDims::new(2, 2, 2), vec![Vec3::ZERO; 7]);
    }

    #[test]
    fn cell_bbox_contains_interpolated_points() {
        let b = unit_block(4);
        let bb = b.cell_bbox(1, 2, 0);
        for &(u, v, w) in &[(0.1, 0.9, 0.5), (0.0, 0.0, 1.0), (0.99, 0.01, 0.3)] {
            assert!(bb.contains(b.position_at((1, 2, 0), u, v, w)));
        }
    }
}
