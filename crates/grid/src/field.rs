//! Flow-field data attached to the grid points of one block at one time
//! step, and the combined [`BlockData`] unit that the data management
//! system moves around.

use crate::block::{trilinear, trilinear_vec3, BlockDims, BlockStepId, CurvilinearBlock};
use crate::lanes;
use crate::math::Vec3;
use std::sync::Arc;

/// A scalar quantity sampled at every grid point of a block.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField {
    pub dims: BlockDims,
    /// Point samples, `i` fastest; length `dims.n_points()`.
    pub values: Vec<f64>,
}

impl ScalarField {
    pub fn new(dims: BlockDims, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), dims.n_points(), "scalar field size mismatch");
        ScalarField { dims, values }
    }

    /// Builds a field by evaluating `f` at every lattice point.
    pub fn from_fn(dims: BlockDims, mut f: impl FnMut(usize, usize, usize) -> f64) -> Self {
        let mut values = Vec::with_capacity(dims.n_points());
        for k in 0..dims.nk {
            for j in 0..dims.nj {
                for i in 0..dims.ni {
                    values.push(f(i, j, k));
                }
            }
        }
        ScalarField::new(dims, values)
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.values[self.dims.point_index(i, j, k)]
    }

    /// The eight corner samples of cell `(i, j, k)` in trilinear order.
    #[inline]
    pub fn cell_corners(&self, i: usize, j: usize, k: usize) -> [f64; 8] {
        self.dims
            .cell_corner_indices(i, j, k)
            .map(|n| self.values[n])
    }

    /// Trilinear interpolation at local coordinates within a cell.
    pub fn sample(&self, cell: (usize, usize, usize), u: f64, v: f64, w: f64) -> f64 {
        trilinear(&self.cell_corners(cell.0, cell.1, cell.2), u, v, w)
    }

    /// Minimum and maximum sample over the whole block; `None` when empty.
    ///
    /// Routed through the lane-parallel scan in [`crate::lanes`]; block
    /// ranges that feed pruning are additionally memoized next to the
    /// bricktree in `viracocha`'s derived-field cache.
    pub fn range(&self) -> Option<(f64, f64)> {
        if self.values.is_empty() {
            return None;
        }
        Some(lanes::min_max(&self.values))
    }

    /// One contiguous row of point samples at fixed `(j, k)`, `i` from
    /// `0` to `ni` — the slice primitive behind the vectorized kernels.
    #[inline]
    pub fn row(&self, j: usize, k: usize) -> &[f64] {
        let base = self.dims.point_index(0, j, k);
        &self.values[base..base + self.dims.ni]
    }

    /// Minimum and maximum over a half-open box of grid points, scanned
    /// row-wise so the inner loop runs over contiguous slices of
    /// `values`. This is the bulk primitive behind brick-range
    /// construction (`vira-extract`'s min/max bricktree).
    pub fn range_over_points(
        &self,
        i: std::ops::Range<usize>,
        j: std::ops::Range<usize>,
        k: std::ops::Range<usize>,
    ) -> (f64, f64) {
        debug_assert!(i.end <= self.dims.ni && j.end <= self.dims.nj && k.end <= self.dims.nk);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for kk in k {
            for jj in j.clone() {
                let base = self.dims.point_index(i.start, jj, kk);
                (lo, hi) = lanes::min_max_seeded(lo, hi, &self.values[base..base + i.len()]);
            }
        }
        (lo, hi)
    }

    /// Minimum and maximum over the eight corners of one cell.
    pub fn cell_range(&self, i: usize, j: usize, k: usize) -> (f64, f64) {
        let c = self.cell_corners(i, j, k);
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

/// A vector quantity (typically velocity) sampled at every grid point,
/// stored as one contiguous `f64` plane per component, `i` fastest.
///
/// The kernels that sweep a whole block — the velocity-gradient stencils
/// of λ₂, the magnitude — read one component at a time, and planar
/// storage turns those reads into unit-stride streams the autovectorizer
/// can chunk into lanes. Point queries ([`at`](Self::at),
/// [`sample`](Self::sample)) gather the three components back into a
/// `Vec3`. The block file format interleaves `(x, y, z)` per point;
/// `io` converts on the way through its slab.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    pub dims: BlockDims,
    /// Component planes, each of length `dims.n_points()`.
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub zs: Vec<f64>,
}

impl VectorField {
    pub fn new(dims: BlockDims, xs: Vec<f64>, ys: Vec<f64>, zs: Vec<f64>) -> Self {
        let n = dims.n_points();
        assert!(
            xs.len() == n && ys.len() == n && zs.len() == n,
            "vector field size mismatch"
        );
        VectorField { dims, xs, ys, zs }
    }

    /// Splits a `Vec3` point array (e.g. a block's geometry) into planes.
    pub fn from_vec3s(dims: BlockDims, values: &[Vec3]) -> Self {
        VectorField::new(
            dims,
            values.iter().map(|v| v.x).collect(),
            values.iter().map(|v| v.y).collect(),
            values.iter().map(|v| v.z).collect(),
        )
    }

    pub fn from_fn(dims: BlockDims, mut f: impl FnMut(usize, usize, usize) -> Vec3) -> Self {
        let n = dims.n_points();
        let (mut xs, mut ys, mut zs) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for k in 0..dims.nk {
            for j in 0..dims.nj {
                for i in 0..dims.ni {
                    let v = f(i, j, k);
                    xs.push(v.x);
                    ys.push(v.y);
                    zs.push(v.z);
                }
            }
        }
        VectorField { dims, xs, ys, zs }
    }

    #[inline]
    fn point(&self, n: usize) -> Vec3 {
        Vec3::new(self.xs[n], self.ys[n], self.zs[n])
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.point(self.dims.point_index(i, j, k))
    }

    #[inline]
    pub fn cell_corners(&self, i: usize, j: usize, k: usize) -> [Vec3; 8] {
        self.dims
            .cell_corner_indices(i, j, k)
            .map(|n| self.point(n))
    }

    /// Trilinear interpolation at local coordinates within a cell.
    pub fn sample(&self, cell: (usize, usize, usize), u: f64, v: f64, w: f64) -> Vec3 {
        trilinear_vec3(&self.cell_corners(cell.0, cell.1, cell.2), u, v, w)
    }

    /// Magnitude field: `sqrt(x² + y² + z²)` per point, one pass over the
    /// three planes, bit-identical to `Vec3::norm` (same association).
    pub fn magnitude(&self) -> ScalarField {
        let values: Vec<f64> = self
            .xs
            .iter()
            .zip(&self.ys)
            .zip(&self.zs)
            .map(|((x, y), z)| (x * x + y * y + z * z).sqrt())
            .collect();
        ScalarField {
            dims: self.dims,
            values,
        }
    }
}

/// One complete data item: geometry plus the unsteady flow field of a block
/// at one time step. This is the minimal unit of data handling in the DMS
/// (paper §4: "the minimal unit of data handling is a data item").
///
/// `BlockData` is shared between caches and workers behind an [`Arc`]; it is
/// immutable after construction. Grids are static, so the geometry is a
/// shared handle too: every step's item of a block holds the block's one
/// [`CurvilinearBlock`] (`SyntheticDataset::generate` clones the dataset's
/// handle, `io::read_block_data` reuses the geometry of an earlier read
/// whose points are bit-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockData {
    pub id: BlockStepId,
    pub grid: Arc<CurvilinearBlock>,
    pub velocity: VectorField,
    /// Physical solution time of this step.
    pub time: f64,
}

impl BlockData {
    pub fn new(
        id: BlockStepId,
        grid: impl Into<Arc<CurvilinearBlock>>,
        velocity: VectorField,
        time: f64,
    ) -> Self {
        let grid = grid.into();
        assert_eq!(grid.dims, velocity.dims, "grid / field dims mismatch");
        BlockData {
            id,
            grid,
            velocity,
            time,
        }
    }

    /// Bytes this item adds to memory, what it charges a cache: its
    /// velocity planes. The geometry is not charged, because every step's
    /// item of the block shares it; it stays resident while any of them
    /// is alive.
    pub fn memory_bytes(&self) -> usize {
        self.velocity.xs.len() * std::mem::size_of::<Vec3>()
    }

    pub fn dims(&self) -> BlockDims {
        self.grid.dims
    }
}

/// Shared, immutable handle to a loaded data item.
pub type SharedBlockData = Arc<BlockData>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDims;

    fn dims() -> BlockDims {
        BlockDims::new(3, 3, 3)
    }

    #[test]
    fn scalar_field_range() {
        let f = ScalarField::from_fn(dims(), |i, j, k| (i + 2 * j + 4 * k) as f64);
        let (lo, hi) = f.range().unwrap();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, (2 + 4 + 8) as f64);
    }

    #[test]
    fn scalar_cell_range_bounds_samples() {
        let f = ScalarField::from_fn(dims(), |i, j, k| (i * j + k) as f64);
        let (lo, hi) = f.cell_range(1, 1, 1);
        for &(u, v, w) in &[(0.2, 0.8, 0.5), (0.0, 1.0, 1.0), (0.5, 0.5, 0.5)] {
            let s = f.sample((1, 1, 1), u, v, w);
            assert!(s >= lo - 1e-12 && s <= hi + 1e-12);
        }
    }

    #[test]
    fn vector_field_sample_linear_exact() {
        // A linear field is reproduced exactly by trilinear interpolation.
        let f = VectorField::from_fn(dims(), |i, j, k| {
            Vec3::new(i as f64, 2.0 * j as f64, -(k as f64))
        });
        let s = f.sample((0, 0, 0), 0.25, 0.5, 0.75);
        assert!((s - Vec3::new(0.25, 1.0, -0.75)).norm() < 1e-12);
    }

    #[test]
    fn magnitude_field() {
        let f = VectorField::from_fn(dims(), |_, _, _| Vec3::new(3.0, 4.0, 0.0));
        let m = f.magnitude();
        assert!(m.values.iter().all(|&v| (v - 5.0).abs() < 1e-12));
    }

    #[test]
    fn block_data_memory_accounting() {
        let g =
            CurvilinearBlock::from_fn(7, dims(), |i, j, k| Vec3::new(i as f64, j as f64, k as f64));
        let v = VectorField::from_fn(dims(), |_, _, _| Vec3::ZERO);
        let bd = BlockData::new(BlockStepId::new(7, 0), g, v, 0.0);
        // 27 velocity vectors, 24 bytes each; the shared geometry is not
        // charged to the item.
        assert_eq!(bd.memory_bytes(), 27 * 24);
    }

    /// A field whose components differ in every bit pattern that matters
    /// to rounding, on dims that leave a ragged lane tail.
    fn wavy_field(d: BlockDims) -> VectorField {
        VectorField::from_fn(d, |i, j, k| {
            Vec3::new(
                (i as f64).sin() + 0.1,
                (j as f64 * 1.7).cos(),
                k as f64 - 1.3,
            )
        })
    }

    #[test]
    fn magnitude_bit_identical_to_vec3_norm() {
        let f = wavy_field(BlockDims::new(5, 3, 4));
        let m = f.magnitude();
        for k in 0..4 {
            for j in 0..3 {
                for i in 0..5 {
                    assert_eq!(m.at(i, j, k).to_bits(), f.at(i, j, k).norm().to_bits());
                }
            }
        }
    }

    #[test]
    fn sample_bit_identical_to_trilinear_over_gathered_corners() {
        let d = BlockDims::new(5, 3, 4);
        let f = wavy_field(d);
        for (i, j, k) in d.cells() {
            let gathered = d
                .cell_corner_indices(i, j, k)
                .map(|n| Vec3::new(f.xs[n], f.ys[n], f.zs[n]));
            assert_eq!(f.cell_corners(i, j, k), gathered);
            for &(u, v, w) in &[(0.0, 0.0, 0.0), (0.3, 0.9, 0.55), (1.0, 1.0, 1.0)] {
                let (a, b) = (
                    f.sample((i, j, k), u, v, w),
                    trilinear_vec3(&gathered, u, v, w),
                );
                assert_eq!(
                    [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                    [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()]
                );
            }
        }
    }

    #[test]
    fn lane_range_matches_scalar_fold() {
        // A field big enough to engage full lane chunks plus a tail.
        let d = BlockDims::new(11, 5, 3);
        let f = ScalarField::from_fn(d, |i, j, k| ((i * 31 + j * 7 + k * 3) % 13) as f64 - 6.0);
        let mut lo = f.values[0];
        let mut hi = f.values[0];
        for &v in &f.values[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert_eq!(f.range(), Some((lo, hi)));
    }

    #[test]
    #[should_panic]
    fn mismatched_dims_panic() {
        let g = CurvilinearBlock::from_fn(0, BlockDims::new(2, 2, 2), |i, j, k| {
            Vec3::new(i as f64, j as f64, k as f64)
        });
        let v = VectorField::from_fn(dims(), |_, _, _| Vec3::ZERO);
        let _ = BlockData::new(BlockStepId::new(0, 0), g, v, 0.0);
    }
}
