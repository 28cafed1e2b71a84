//! Point location in curvilinear blocks: finding the cell (and local
//! trilinear coordinates) containing a physical point — the inner loop of
//! particle tracing on multi-block grids.
//!
//! Strategy: Newton inversion of the trilinear mapping inside a cell,
//! combined with *cell walking* (stepping to the neighbouring cell in the
//! direction of the most violated local coordinate) from a hint cell.
//! When walking fails (bad hint, concave regions) the block's
//! [`BlockLocator`] — a bin grid over the cell bounding boxes, built once
//! per block and owned by the dataset's topology — provides candidates
//! for a robust restart.

use vira_grid::block::{trilinear_vec3, CurvilinearBlock};
use vira_grid::locator::BlockLocator;
use vira_grid::math::{Mat3, Vec3};

/// Local coordinates within a located cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellHit {
    pub cell: (usize, usize, usize),
    pub u: f64,
    pub v: f64,
    pub w: f64,
}

/// Tolerance on local coordinates: a point counts as inside for
/// `-TOL ≤ u,v,w ≤ 1+TOL` (shared cell faces belong to both cells).
const UVW_TOL: f64 = 1e-9;
/// Newton convergence threshold on local-coordinate updates.
const NEWTON_TOL: f64 = 1e-12;
const NEWTON_MAX_IT: usize = 24;
/// Maximum walking steps before falling back to the bin grid.
const WALK_MAX_STEPS: usize = 64;

/// Newton inversion of the trilinear map of one cell. Returns local
/// coordinates (possibly outside `[0,1]³`, which callers use to decide
/// the walking direction) or `None` when the iteration diverges.
///
/// The fused evaluation ([`TrilinearCell`]) hoists the twelve
/// loop-invariant corner differences out of the iteration; every float
/// operation matches the classic per-iteration evaluation
/// ([`invert_trilinear_oracle`]), so results are bit-identical.
pub fn invert_trilinear(corners: &[Vec3; 8], p: Vec3) -> Option<(f64, f64, f64)> {
    let cell = TrilinearCell::new(corners);
    let (mut u, mut v, mut w) = (0.5, 0.5, 0.5);
    for _ in 0..NEWTON_MAX_IT {
        let x = cell.value(u, v, w);
        let r = x - p;
        if r.max_abs() < NEWTON_TOL {
            return Some((u, v, w));
        }
        // Partial derivatives of the trilinear map.
        let (du, dv, dw) = cell.jacobian_cols(u, v, w);
        let jac = Mat3::from_cols(du, dv, dw);
        let inv = jac.inverse()?;
        let step = inv.mul_vec(r);
        u -= step.x;
        v -= step.y;
        w -= step.z;
        // Clamp the iterate to a generous neighbourhood of the cell to
        // keep the Jacobian well-behaved.
        u = u.clamp(-2.0, 3.0);
        v = v.clamp(-2.0, 3.0);
        w = w.clamp(-2.0, 3.0);
        if step.max_abs() < NEWTON_TOL {
            return Some((u, v, w));
        }
    }
    Some((u, v, w)) // best effort; caller validates residual bounds
}

/// The pre-fusion Newton inversion, retained verbatim as the test
/// oracle: corner differences are re-derived inside every iteration.
pub fn invert_trilinear_oracle(corners: &[Vec3; 8], p: Vec3) -> Option<(f64, f64, f64)> {
    let (mut u, mut v, mut w) = (0.5, 0.5, 0.5);
    for _ in 0..NEWTON_MAX_IT {
        let x = trilinear_vec3(corners, u, v, w);
        let r = x - p;
        if r.max_abs() < NEWTON_TOL {
            return Some((u, v, w));
        }
        let du = deriv_u(corners, v, w);
        let dv = deriv_v(corners, u, w);
        let dw = deriv_w(corners, u, v);
        let jac = Mat3::from_cols(du, dv, dw);
        let inv = jac.inverse()?;
        let step = inv.mul_vec(r);
        u -= step.x;
        v -= step.y;
        w -= step.z;
        u = u.clamp(-2.0, 3.0);
        v = v.clamp(-2.0, 3.0);
        w = w.clamp(-2.0, 3.0);
        if step.max_abs() < NEWTON_TOL {
            return Some((u, v, w));
        }
    }
    Some((u, v, w))
}

/// One cell's trilinear map with its twelve corner differences
/// precomputed — the Newton iteration then evaluates the map and all
/// three Jacobian columns from the cached differences. The difference
/// values are exactly those `deriv_u`/`deriv_v`/`deriv_w` recompute per
/// call, and the lerp chains reuse the same expressions, so fused
/// evaluation is bit-identical to the separate one.
pub struct TrilinearCell {
    c: [Vec3; 8],
    /// `c[1]-c[0], c[3]-c[2], c[5]-c[4], c[7]-c[6]` (u-direction).
    du: [Vec3; 4],
    /// `c[2]-c[0], c[3]-c[1], c[6]-c[4], c[7]-c[5]` (v-direction).
    dv: [Vec3; 4],
    /// `c[4]-c[0], c[5]-c[1], c[6]-c[2], c[7]-c[3]` (w-direction).
    dw: [Vec3; 4],
}

impl TrilinearCell {
    pub fn new(corners: &[Vec3; 8]) -> Self {
        let c = *corners;
        TrilinearCell {
            c,
            du: [c[1] - c[0], c[3] - c[2], c[5] - c[4], c[7] - c[6]],
            dv: [c[2] - c[0], c[3] - c[1], c[6] - c[4], c[7] - c[5]],
            dw: [c[4] - c[0], c[5] - c[1], c[6] - c[2], c[7] - c[3]],
        }
    }

    /// The trilinear map at `(u, v, w)`; same lerp chain as
    /// [`trilinear_vec3`] with the u-direction differences reused.
    #[inline]
    pub fn value(&self, u: f64, v: f64, w: f64) -> Vec3 {
        let c00 = self.c[0] + self.du[0] * u;
        let c10 = self.c[2] + self.du[1] * u;
        let c01 = self.c[4] + self.du[2] * u;
        let c11 = self.c[6] + self.du[3] * u;
        let c0 = c00.lerp(c10, v);
        let c1 = c01.lerp(c11, v);
        c0.lerp(c1, w)
    }

    /// The three Jacobian columns `(∂x/∂u, ∂x/∂v, ∂x/∂w)` at `(u, v, w)`.
    #[inline]
    pub fn jacobian_cols(&self, u: f64, v: f64, w: f64) -> (Vec3, Vec3, Vec3) {
        let du = self.du[0]
            .lerp(self.du[1], v)
            .lerp(self.du[2].lerp(self.du[3], v), w);
        let dv = self.dv[0]
            .lerp(self.dv[1], u)
            .lerp(self.dv[2].lerp(self.dv[3], u), w);
        let dw = self.dw[0]
            .lerp(self.dw[1], u)
            .lerp(self.dw[2].lerp(self.dw[3], u), v);
        (du, dv, dw)
    }
}

fn deriv_u(c: &[Vec3; 8], v: f64, w: f64) -> Vec3 {
    let d00 = c[1] - c[0];
    let d10 = c[3] - c[2];
    let d01 = c[5] - c[4];
    let d11 = c[7] - c[6];
    let d0 = d00.lerp(d10, v);
    let d1 = d01.lerp(d11, v);
    d0.lerp(d1, w)
}

fn deriv_v(c: &[Vec3; 8], u: f64, w: f64) -> Vec3 {
    let d00 = c[2] - c[0];
    let d10 = c[3] - c[1];
    let d01 = c[6] - c[4];
    let d11 = c[7] - c[5];
    let d0 = d00.lerp(d10, u);
    let d1 = d01.lerp(d11, u);
    d0.lerp(d1, w)
}

fn deriv_w(c: &[Vec3; 8], u: f64, v: f64) -> Vec3 {
    let d00 = c[4] - c[0];
    let d10 = c[5] - c[1];
    let d01 = c[6] - c[2];
    let d11 = c[7] - c[3];
    let d0 = d00.lerp(d10, u);
    let d1 = d01.lerp(d11, u);
    d0.lerp(d1, v)
}

/// Locates `p` in `grid`, optionally starting a cell walk from `hint`;
/// `bins` (the block's [`BlockLocator`]) supplies the candidate cells
/// for a robust restart when the walk fails. Returns `None` when `p`
/// lies outside the block.
pub fn locate_cell(
    bins: &BlockLocator,
    grid: &CurvilinearBlock,
    p: Vec3,
    hint: Option<(usize, usize, usize)>,
) -> Option<CellHit> {
    if let Some(h) = hint {
        if let Some(hit) = walk_from(grid, p, h) {
            return Some(hit);
        }
    }
    bins.candidates(p)
        .iter()
        .find_map(|&c| try_cell(grid, p, grid.dims.cell_coords(c as usize)))
}

/// Whether local coordinates lie in the cell, shared faces included.
fn inside_cell(u: f64, v: f64, w: f64) -> bool {
    let inside = |x: f64| (-UVW_TOL..=1.0 + UVW_TOL).contains(&x);
    inside(u) && inside(v) && inside(w)
}

/// Turns the Newton solution `(u, v, w)` for `cell` — already found
/// [`inside_cell`] — into a hit, unless the residual says Newton stalled.
fn accept(
    grid: &CurvilinearBlock,
    p: Vec3,
    cell: (usize, usize, usize),
    corners: &[Vec3; 8],
    (u, v, w): (f64, f64, f64),
) -> Option<CellHit> {
    let x = trilinear_vec3(corners, u, v, w);
    let scale = grid.cell_bbox(cell.0, cell.1, cell.2).diagonal().norm() + 1e-30;
    ((x - p).norm() < 1e-8 * scale.max(1.0)).then(|| CellHit {
        cell,
        u: u.clamp(0.0, 1.0),
        v: v.clamp(0.0, 1.0),
        w: w.clamp(0.0, 1.0),
    })
}

/// Attempts Newton inversion within one specific cell; succeeds only if
/// the solution lies inside (within tolerance).
fn try_cell(grid: &CurvilinearBlock, p: Vec3, cell: (usize, usize, usize)) -> Option<CellHit> {
    let corners = grid.cell_corners(cell.0, cell.1, cell.2);
    let (u, v, w) = invert_trilinear(&corners, p)?;
    if !inside_cell(u, v, w) {
        return None;
    }
    accept(grid, p, cell, &corners, (u, v, w))
}

/// Walks from `start` toward `p`, stepping one cell per iteration in the
/// direction of the most violated local coordinate.
fn walk_from(grid: &CurvilinearBlock, p: Vec3, start: (usize, usize, usize)) -> Option<CellHit> {
    let (ci, cj, ck) = grid.dims.cell_dims();
    if ci == 0 || cj == 0 || ck == 0 {
        return None;
    }
    let mut cell = (
        start.0.min(ci - 1),
        start.1.min(cj - 1),
        start.2.min(ck - 1),
    );
    for _ in 0..WALK_MAX_STEPS {
        let corners = grid.cell_corners(cell.0, cell.1, cell.2);
        let (u, v, w) = invert_trilinear(&corners, p)?;
        if inside_cell(u, v, w) {
            return accept(grid, p, cell, &corners, (u, v, w));
        }
        // Step toward the most violated coordinate.
        let viol = [violation(u), violation(v), violation(w)];
        let axis = (0..3)
            .max_by(|&a, &b| {
                viol[a]
                    .abs()
                    .partial_cmp(&viol[b].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("three axes");
        if viol[axis] == 0.0 {
            return None; // numerically inside but residual failed
        }
        let dims = [ci, cj, ck];
        let c = [&mut cell.0, &mut cell.1, &mut cell.2];
        if viol[axis] > 0.0 {
            if *c[axis] + 1 >= dims[axis] {
                return None; // left the block
            }
            *c[axis] += 1;
        } else {
            if *c[axis] == 0 {
                return None;
            }
            *c[axis] -= 1;
        }
    }
    None
}

#[inline]
fn violation(x: f64) -> f64 {
    if x < 0.0 {
        x
    } else if x > 1.0 {
        x - 1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockDims;

    fn uniform_block(n: usize) -> CurvilinearBlock {
        CurvilinearBlock::from_fn(0, BlockDims::new(n, n, n), |i, j, k| {
            Vec3::new(i as f64, j as f64, k as f64) / (n as f64 - 1.0)
        })
    }

    /// A smoothly sheared (non-degenerate curvilinear) block.
    fn sheared_block(n: usize) -> CurvilinearBlock {
        CurvilinearBlock::from_fn(0, BlockDims::new(n, n, n), |i, j, k| {
            let u = i as f64 / (n - 1) as f64;
            let v = j as f64 / (n - 1) as f64;
            let w = k as f64 / (n - 1) as f64;
            Vec3::new(
                u + 0.15 * (std::f64::consts::PI * v).sin(),
                v + 0.1 * (std::f64::consts::PI * w).sin(),
                w + 0.05 * (std::f64::consts::PI * u).sin(),
            )
        })
    }

    #[test]
    fn invert_trilinear_roundtrip_uniform() {
        let b = uniform_block(4);
        let corners = b.cell_corners(1, 2, 0);
        let p = vira_grid::block::trilinear_vec3(&corners, 0.3, 0.7, 0.1);
        let (u, v, w) = invert_trilinear(&corners, p).unwrap();
        assert!((u - 0.3).abs() < 1e-9);
        assert!((v - 0.7).abs() < 1e-9);
        assert!((w - 0.1).abs() < 1e-9);
    }

    #[test]
    fn invert_trilinear_roundtrip_sheared() {
        let b = sheared_block(5);
        for &(cell, uvw) in &[
            ((0, 0, 0), (0.25, 0.5, 0.9)),
            ((3, 2, 1), (0.9, 0.1, 0.5)),
            ((1, 3, 3), (0.0, 1.0, 0.5)),
        ] {
            let corners = b.cell_corners(cell.0, cell.1, cell.2);
            let p = vira_grid::block::trilinear_vec3(&corners, uvw.0, uvw.1, uvw.2);
            let (u, v, w) = invert_trilinear(&corners, p).unwrap();
            assert!((u - uvw.0).abs() < 1e-7, "u {u} vs {}", uvw.0);
            assert!((v - uvw.1).abs() < 1e-7);
            assert!((w - uvw.2).abs() < 1e-7);
        }
    }

    #[test]
    fn fused_newton_bit_identical_to_oracle() {
        let b = sheared_block(5);
        // Interior, face, and far-outside targets: converged and
        // non-converged (best-effort) iterations must all agree bitwise.
        let probes = [
            Vec3::new(0.31, 0.47, 0.22),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(5.0, -3.0, 7.0),
            Vec3::new(0.999, 0.5, 0.001),
        ];
        for cell in [(0, 0, 0), (1, 2, 3), (3, 3, 3)] {
            let corners = b.cell_corners(cell.0, cell.1, cell.2);
            for &p in &probes {
                let fast = invert_trilinear(&corners, p);
                let oracle = invert_trilinear_oracle(&corners, p);
                match (fast, oracle) {
                    (Some((u1, v1, w1)), Some((u2, v2, w2))) => {
                        assert_eq!(u1.to_bits(), u2.to_bits(), "{cell:?} {p:?}");
                        assert_eq!(v1.to_bits(), v2.to_bits());
                        assert_eq!(w1.to_bits(), w2.to_bits());
                    }
                    (None, None) => {}
                    other => panic!("divergent outcomes {other:?}"),
                }
            }
        }
    }

    #[test]
    fn locator_finds_interior_points() {
        let b = sheared_block(6);
        let loc = BlockLocator::build(&b);
        for &(cell, uvw) in &[
            ((0, 0, 0), (0.5, 0.5, 0.5)),
            ((4, 4, 4), (0.2, 0.8, 0.6)),
            ((2, 1, 3), (0.99, 0.01, 0.5)),
        ] {
            let p = b.position_at(cell, uvw.0, uvw.1, uvw.2);
            let hit = locate_cell(&loc, &b, p, None).expect("point must be found");
            // Verify by forward evaluation (the cell may legitimately be a
            // neighbour when the point lies on a face).
            let x = b.position_at(hit.cell, hit.u, hit.v, hit.w);
            assert!((x - p).norm() < 1e-7, "residual {}", (x - p).norm());
        }
    }

    #[test]
    fn locator_rejects_outside_points() {
        let b = uniform_block(5);
        let loc = BlockLocator::build(&b);
        assert!(locate_cell(&loc, &b, Vec3::new(2.0, 0.5, 0.5), None).is_none());
        assert!(locate_cell(&loc, &b, Vec3::new(-0.5, 0.5, 0.5), None).is_none());
    }

    #[test]
    fn walking_from_hint_succeeds_across_the_block() {
        let b = uniform_block(8);
        let loc = BlockLocator::build(&b);
        let p = b.position_at((6, 6, 6), 0.5, 0.5, 0.5);
        // Hint at the opposite corner: the walker must cross the block.
        let hit = locate_cell(&loc, &b, p, Some((0, 0, 0))).unwrap();
        assert_eq!(hit.cell, (6, 6, 6));
        assert!((hit.u - 0.5).abs() < 1e-7);
    }

    #[test]
    fn boundary_points_are_located() {
        let b = uniform_block(5);
        let loc = BlockLocator::build(&b);
        // Exact block corner and a face point.
        for p in [
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(0.5, 0.0, 0.25),
        ] {
            let hit = locate_cell(&loc, &b, p, None);
            assert!(hit.is_some(), "boundary point {p:?} not found");
        }
    }

    #[test]
    fn hint_equal_to_target_is_fast_path() {
        let b = sheared_block(6);
        let loc = BlockLocator::build(&b);
        let p = b.position_at((3, 3, 3), 0.4, 0.4, 0.4);
        let hit = locate_cell(&loc, &b, p, Some((3, 3, 3))).unwrap();
        let x = b.position_at(hit.cell, hit.u, hit.v, hit.w);
        assert!((x - p).norm() < 1e-8);
    }
}
