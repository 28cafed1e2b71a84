//! λ₂ vortex-region extraction (Jeong & Hussain; paper §6.3, §7.2).
//!
//! The velocity-gradient tensor on a curvilinear grid is computed with
//! the chain rule: central differences in computational (index) space
//! give `∂x/∂ξ` and `∂u/∂ξ`; inverting the geometric Jacobian yields
//! `∇u = (∂u/∂ξ)(∂x/∂ξ)⁻¹`. λ₂ is the middle eigenvalue of `S² + Ω²`.
//!
//! Two paths mirror the paper's two commands:
//!
//! * [`lambda2_field`] computes the **complete** scalar field first (the
//!   `VortexDataMan` approach) — the result can then be isosurfaced with
//!   any extractor;
//! * [`Lambda2Streamer`] processes cells one by one, computing λ₂ values
//!   lazily per grid point (memoized), collecting active cells into a
//!   list and flushing triangulated batches — the `StreamedVortex`
//!   approach that avoids materializing the full field before first
//!   results. When a [`BrickTree`] over a previously memoized λ₂ field is
//!   available (derived-field cache hit), the streamer skips whole
//!   inactive bricks; without one it conservatively computes on first
//!   touch as before.

use crate::bricktree::BrickTree;
use crate::eigen::lambda2_of_gradient;
use crate::mesh::TriangleSoup;
use crate::tetra::contour_cell;
use vira_grid::field::{BlockData, ScalarField, VectorField};
use vira_grid::math::{Mat3, Vec3};

/// A value differentiable by the index stencil: subtraction, scaling by
/// `f64`, and an additive zero for degenerate (single-point) axes.
pub trait StencilValue:
    Copy + std::ops::Sub<Output = Self> + std::ops::Mul<f64, Output = Self>
{
    const ZERO: Self;
}

impl StencilValue for f64 {
    const ZERO: Self = 0.0;
}

impl StencilValue for Vec3 {
    const ZERO: Self = Vec3::ZERO;
}

/// Central-difference derivative stencil along one index axis.
#[inline]
fn index_derivative<T: StencilValue, F: Fn(usize) -> T>(n: usize, idx: usize, sample: F) -> T {
    if n < 2 {
        // Degenerate axis: no variation.
        return T::ZERO;
    }
    if idx == 0 {
        sample(1) - sample(0)
    } else if idx == n - 1 {
        sample(n - 1) - sample(n - 2)
    } else {
        (sample(idx + 1) - sample(idx - 1)) * 0.5
    }
}

/// Assembles `∇u` from the six index-space derivatives via the chain
/// rule: `∇u = (∂u/∂ξ)(∂x/∂ξ)⁻¹`. `None` where the geometric Jacobian is
/// singular.
pub fn gradient_from_derivatives(
    dx_di: Vec3,
    dx_dj: Vec3,
    dx_dk: Vec3,
    du_di: Vec3,
    du_dj: Vec3,
    du_dk: Vec3,
) -> Option<Mat3> {
    let jac = Mat3::from_cols(dx_di, dx_dj, dx_dk);
    let jac_inv = jac.inverse()?;
    let du_dxi = Mat3::from_cols(du_di, du_dj, du_dk);
    Some(du_dxi.mul_mat(&jac_inv))
}

/// λ₂ from the six index-space derivatives, branch-free: the
/// singular-Jacobian case is folded into a final value select instead of
/// an early return, and every float operation is shared with (and
/// ordered exactly as in) [`gradient_from_derivatives`] +
/// [`lambda2_of_gradient`] — so a lane evaluation inside the row
/// kernel is bit-identical to the scalar [`lambda2_at`] path. With a
/// singular Jacobian the unconditional `1/det` produces non-finite
/// intermediates; they are discarded by the select, never observed.
#[inline(always)]
pub fn lambda2_element(
    dx_di: Vec3,
    dx_dj: Vec3,
    dx_dk: Vec3,
    du_di: Vec3,
    du_dj: Vec3,
    du_dk: Vec3,
) -> f64 {
    let jac = Mat3::from_cols(dx_di, dx_dj, dx_dk);
    let d = jac.det();
    let jac_inv = jac.scaled_adjugate(1.0 / d);
    let g = Mat3::from_cols(du_di, du_dj, du_dk).mul_mat(&jac_inv);
    let l2 = lambda2_of_gradient(&g);
    if d.abs() < 1e-300 {
        f64::INFINITY
    } else {
        l2
    }
}

/// Velocity-gradient tensor `∇u` at grid point `(i, j, k)`, or `None`
/// where the geometric Jacobian is singular (collapsed cells).
pub fn velocity_gradient(data: &BlockData, i: usize, j: usize, k: usize) -> Option<Mat3> {
    let d = data.dims();
    // ∂x/∂ξ columns and ∂u/∂ξ columns for ξ = (i, j, k) directions.
    let dx_di = index_derivative(d.ni, i, |ii| data.grid.point(ii, j, k));
    let dx_dj = index_derivative(d.nj, j, |jj| data.grid.point(i, jj, k));
    let dx_dk = index_derivative(d.nk, k, |kk| data.grid.point(i, j, kk));
    let du_di = index_derivative(d.ni, i, |ii| data.velocity.at(ii, j, k));
    let du_dj = index_derivative(d.nj, j, |jj| data.velocity.at(i, jj, k));
    let du_dk = index_derivative(d.nk, k, |kk| data.velocity.at(i, j, kk));
    gradient_from_derivatives(dx_di, dx_dj, dx_dk, du_di, du_dj, du_dk)
}

/// λ₂ at one grid point (`+∞` where the metric is singular, so the point
/// never reads as a vortex).
pub fn lambda2_at(data: &BlockData, i: usize, j: usize, k: usize) -> f64 {
    velocity_gradient(data, i, j, k)
        .map(|g| lambda2_of_gradient(&g))
        .unwrap_or(f64::INFINITY)
}

/// The point-at-a-time λ₂ field computation, retained verbatim as the
/// test oracle: one [`lambda2_at`] evaluation per grid point, each
/// re-deriving its six stencil samples through indexed accesses.
pub fn lambda2_field_oracle(data: &BlockData) -> ScalarField {
    let d = data.dims();
    ScalarField::from_fn(d, |i, j, k| lambda2_at(data, i, j, k))
}

/// Computes the complete λ₂ scalar field of a block, row by row over
/// component planes: the velocity planes are read in place, the
/// interleaved geometry is split into three scratch planes first. All six
/// index-space derivatives of a row are produced by branch-free
/// elementwise stencil loops over contiguous component rows, and the
/// per-point tensor pipeline runs as **staged row kernels**
/// ([`Lambda2RowKernel`]): Jacobian inversion → velocity gradient,
/// `S² + Ω²`, eigen invariants, the fixed-iteration Chebyshev solve, and
/// the final selects each get their own simple innermost loop over the
/// row. One fused per-point loop would nest the Newton iteration inside
/// the row loop — a shape the autovectorizer refuses; the staged loops
/// are each straight-line and lane-lowerable. Every per-element
/// expression is transcribed operation for operation from the scalar
/// [`lambda2_at`] path, which keeps the result bit-identical to
/// [`lambda2_field_oracle`].
pub fn lambda2_field(data: &BlockData) -> ScalarField {
    let d = data.dims();
    let geo = VectorField::from_vec3s(d, &data.grid.points);
    let vel = &data.velocity;
    let n = d.n_points();
    let mut values = vec![0.0; n];

    // Per-row derivative buffers: [source plane][direction] with source
    // planes (gx, gy, gz, vx, vy, vz) and directions (i, j, k).
    let ni = d.ni;
    let mut deriv: Vec<Vec<f64>> = (0..18).map(|_| vec![0.0; ni]).collect();
    let mut kernel = Lambda2RowKernel::new(ni);

    for k in 0..d.nk {
        for j in 0..d.nj {
            let planes = [
                (&geo.xs, 0),
                (&geo.ys, 1),
                (&geo.zs, 2),
                (&vel.xs, 3),
                (&vel.ys, 4),
                (&vel.zs, 5),
            ];
            for (plane, s) in planes {
                let base = d.point_index(0, j, k);
                let row = &plane[base..base + ni];
                stencil_along_row(row, &mut deriv[s * 3]);
                stencil_across_rows(plane, d, j, k, Axis::J, &mut deriv[s * 3 + 1]);
                stencil_across_rows(plane, d, j, k, Axis::K, &mut deriv[s * 3 + 2]);
            }
            let out_base = d.point_index(0, j, k);
            let out = &mut values[out_base..out_base + ni];
            // Pin every derivative row to length `ni` up front: indexed
            // accesses below then carry no bounds-check branches, which
            // would otherwise block lane lowering of the stage loops.
            let mut rows: [&[f64]; 18] = [&[]; 18];
            for (row, buf) in rows.iter_mut().zip(deriv.iter()) {
                *row = &buf[..ni];
            }
            kernel.compute(&rows, out);
        }
    }
    ScalarField::new(d, values)
}

/// Reusable row workspace of the staged λ₂ kernel — one `ni`-long buffer
/// per intermediate quantity, allocated once per block and reused for
/// every row.
///
/// Why stages instead of one per-point loop: the middle-eigenvalue solve
/// contains a fixed-count Newton iteration, and a loop nested inside the
/// row loop keeps LLVM's loop vectorizer away from the whole body. Split
/// into five branch-free elementwise loops, each is an innermost loop of
/// mul/add/sqrt/div/min/max the autovectorizer lowers to lanes.
///
/// Bit-identity contract: every expression below is transcribed
/// operation for operation (same literals, same association) from
/// `Mat3::det` / `Mat3::scaled_adjugate` / `Mat3::mul_mat` /
/// `Mat3::symmetric_part` / `Mat3::antisymmetric_part` /
/// `symmetric_middle_eigenvalue` / `chebyshev_middle_root` as invoked by
/// the scalar [`lambda2_element`] — the unit and property tests assert
/// the per-point equality bit for bit.
struct Lambda2RowKernel {
    /// Velocity-gradient entries `G = (∂u/∂ξ)(∂x/∂ξ)⁻¹`, row-major.
    g: [Vec<f64>; 9],
    /// Geometric Jacobian determinant (for the singularity select).
    det: Vec<f64>,
    /// `M = S² + Ω²`: diagonal + upper triangle
    /// (`m00, m01, m02, m11, m12, m22` — all the eigensolve reads).
    mm: [Vec<f64>; 6],
    /// Off-diagonal magnitude `p1` of `M`.
    p1: Vec<f64>,
    /// `q = tr(M)/3`.
    q: Vec<f64>,
    /// `p = ‖M − qI‖/√6`.
    p: Vec<f64>,
    /// Normalized half-determinant `r ∈ [−1, 1]`.
    r: Vec<f64>,
    /// Middle of the diagonal — the exact `p1 == 0` path.
    diag_mid: Vec<f64>,
    /// Chebyshev middle root of `r`.
    u: Vec<f64>,
}

impl Lambda2RowKernel {
    fn new(ni: usize) -> Self {
        Lambda2RowKernel {
            g: std::array::from_fn(|_| vec![0.0; ni]),
            det: vec![0.0; ni],
            mm: std::array::from_fn(|_| vec![0.0; ni]),
            p1: vec![0.0; ni],
            q: vec![0.0; ni],
            p: vec![0.0; ni],
            r: vec![0.0; ni],
            diag_mid: vec![0.0; ni],
            u: vec![0.0; ni],
        }
    }

    /// λ₂ of one grid row from its 18 index-space derivative rows
    /// (layout: `rows[s * 3 + dir]`, sources gx, gy, gz, vx, vy, vz and
    /// directions i, j, k).
    fn compute(&mut self, rows: &[&[f64]; 18], out: &mut [f64]) {
        let ni = out.len();
        // Stage 1: Jacobian determinant, scaled adjugate, and
        // G = (∂u/∂ξ) · J⁻¹. J's row r is the (x, y, z)[r] component of
        // the three direction derivatives (Mat3::from_cols).
        {
            let [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17] =
                std::array::from_fn::<_, 18, _>(|s| &rows[s][..ni]);
            let [g0, g1, g2, g3, g4, g5, g6, g7, g8] = &mut self.g;
            let (g0, g1, g2) = (&mut g0[..ni], &mut g1[..ni], &mut g2[..ni]);
            let (g3, g4, g5) = (&mut g3[..ni], &mut g4[..ni], &mut g5[..ni]);
            let (g6, g7, g8) = (&mut g6[..ni], &mut g7[..ni], &mut g8[..ni]);
            let det = &mut self.det[..ni];
            for p in 0..ni {
                let (j00, j01, j02) = (r0[p], r1[p], r2[p]);
                let (j10, j11, j12) = (r3[p], r4[p], r5[p]);
                let (j20, j21, j22) = (r6[p], r7[p], r8[p]);
                let dj = j00 * (j11 * j22 - j12 * j21) - j01 * (j10 * j22 - j12 * j20)
                    + j02 * (j10 * j21 - j11 * j20);
                // Unconditional reciprocal: singular rows produce
                // non-finite G entries that stage 5 discards, exactly as
                // lambda2_element does.
                let inv_d = 1.0 / dj;
                let a00 = (j11 * j22 - j12 * j21) * inv_d;
                let a01 = (j02 * j21 - j01 * j22) * inv_d;
                let a02 = (j01 * j12 - j02 * j11) * inv_d;
                let a10 = (j12 * j20 - j10 * j22) * inv_d;
                let a11 = (j00 * j22 - j02 * j20) * inv_d;
                let a12 = (j02 * j10 - j00 * j12) * inv_d;
                let a20 = (j10 * j21 - j11 * j20) * inv_d;
                let a21 = (j01 * j20 - j00 * j21) * inv_d;
                let a22 = (j00 * j11 - j01 * j10) * inv_d;
                let (u00, u01, u02) = (r9[p], r10[p], r11[p]);
                let (u10, u11, u12) = (r12[p], r13[p], r14[p]);
                let (u20, u21, u22) = (r15[p], r16[p], r17[p]);
                g0[p] = u00 * a00 + u01 * a10 + u02 * a20;
                g1[p] = u00 * a01 + u01 * a11 + u02 * a21;
                g2[p] = u00 * a02 + u01 * a12 + u02 * a22;
                g3[p] = u10 * a00 + u11 * a10 + u12 * a20;
                g4[p] = u10 * a01 + u11 * a11 + u12 * a21;
                g5[p] = u10 * a02 + u11 * a12 + u12 * a22;
                g6[p] = u20 * a00 + u21 * a10 + u22 * a20;
                g7[p] = u20 * a01 + u21 * a11 + u22 * a21;
                g8[p] = u20 * a02 + u21 * a12 + u22 * a22;
                det[p] = dj;
            }
        }
        // Stage 2: M = S² + Ω² with S = (G + Gᵀ)/2, Ω = (G − Gᵀ)/2.
        // Entry expressions follow symmetric_part / antisymmetric_part /
        // mul_mat / add_mat exactly; only the six entries the eigensolve
        // reads are materialized.
        {
            let [g0, g1, g2, g3, g4, g5, g6, g7, g8] = &self.g;
            let (g0, g1, g2) = (&g0[..ni], &g1[..ni], &g2[..ni]);
            let (g3, g4, g5) = (&g3[..ni], &g4[..ni], &g5[..ni]);
            let (g6, g7, g8) = (&g6[..ni], &g7[..ni], &g8[..ni]);
            let [m0, m1, m2, m3, m4, m5] = &mut self.mm;
            let (m0, m1, m2) = (&mut m0[..ni], &mut m1[..ni], &mut m2[..ni]);
            let (m3, m4, m5) = (&mut m3[..ni], &mut m4[..ni], &mut m5[..ni]);
            for p in 0..ni {
                let (g00, g01, g02) = (g0[p], g1[p], g2[p]);
                let (g10, g11, g12) = (g3[p], g4[p], g5[p]);
                let (g20, g21, g22) = (g6[p], g7[p], g8[p]);
                let s00 = 0.5 * (g00 + g00);
                let s01 = 0.5 * (g01 + g10);
                let s02 = 0.5 * (g02 + g20);
                let s10 = 0.5 * (g10 + g01);
                let s11 = 0.5 * (g11 + g11);
                let s12 = 0.5 * (g12 + g21);
                let s20 = 0.5 * (g20 + g02);
                let s21 = 0.5 * (g21 + g12);
                let s22 = 0.5 * (g22 + g22);
                // The diagonal of Ω is written as the oracle's antisymmetric_part
                // computes it (`g - g`, which is +0.0 and NaN for a NaN gradient),
                // not as a literal zero: the transcription stays entry for entry.
                #[allow(clippy::eq_op)]
                let o00 = 0.5 * (g00 - g00);
                let o01 = 0.5 * (g01 - g10);
                let o02 = 0.5 * (g02 - g20);
                let o10 = 0.5 * (g10 - g01);
                #[allow(clippy::eq_op)] // as o00
                let o11 = 0.5 * (g11 - g11);
                let o12 = 0.5 * (g12 - g21);
                let o20 = 0.5 * (g20 - g02);
                let o21 = 0.5 * (g21 - g12);
                #[allow(clippy::eq_op)] // as o00
                let o22 = 0.5 * (g22 - g22);
                m0[p] = (s00 * s00 + s01 * s10 + s02 * s20) + (o00 * o00 + o01 * o10 + o02 * o20);
                m1[p] = (s00 * s01 + s01 * s11 + s02 * s21) + (o00 * o01 + o01 * o11 + o02 * o21);
                m2[p] = (s00 * s02 + s01 * s12 + s02 * s22) + (o00 * o02 + o01 * o12 + o02 * o22);
                m3[p] = (s10 * s01 + s11 * s11 + s12 * s21) + (o10 * o01 + o11 * o11 + o12 * o21);
                m4[p] = (s10 * s02 + s11 * s12 + s12 * s22) + (o10 * o02 + o11 * o12 + o12 * o22);
                m5[p] = (s20 * s02 + s21 * s12 + s22 * s22) + (o20 * o02 + o21 * o12 + o22 * o22);
            }
        }
        // Stage 3: eigen invariants of M, exactly as
        // symmetric_middle_eigenvalue computes them.
        {
            let [m0, m1, m2, m3, m4, m5] = &self.mm;
            let (m0, m1, m2) = (&m0[..ni], &m1[..ni], &m2[..ni]);
            let (m3, m4, m5) = (&m3[..ni], &m4[..ni], &m5[..ni]);
            let p1r = &mut self.p1[..ni];
            let qr = &mut self.q[..ni];
            let pr = &mut self.p[..ni];
            let rr = &mut self.r[..ni];
            let dmr = &mut self.diag_mid[..ni];
            for i in 0..ni {
                let (m00, m01, m02) = (m0[i], m1[i], m2[i]);
                let (m11, m12, m22) = (m3[i], m4[i], m5[i]);
                let p1 = m01 * m01 + m02 * m02 + m12 * m12;
                let q = (m00 + m11 + m22) / 3.0;
                let d0 = m00 - q;
                let d1 = m11 - q;
                let d2 = m22 - q;
                let p2 = d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * p1;
                let p = (p2 / 6.0).sqrt();
                let inv_p = 1.0 / p;
                let b00 = d0 * inv_p;
                let b11 = d1 * inv_p;
                let b22 = d2 * inv_p;
                let b01 = m01 * inv_p;
                let b02 = m02 * inv_p;
                let b12 = m12 * inv_p;
                let det_b = b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                    + b02 * (b01 * b12 - b11 * b02);
                p1r[i] = p1;
                qr[i] = q;
                pr[i] = p;
                rr[i] = (det_b / 2.0).clamp(-1.0, 1.0);
                dmr[i] = m00.min(m11).max(m00.max(m11).min(m22));
            }
        }
        // Stage 4: the Chebyshev middle-root solve — the fixed-count
        // Newton iteration of chebyshev_middle_root, verbatim. Isolated
        // in its own loop so the 0..5 iteration unrolls and the row loop
        // vectorizes (this stage is why the kernel is staged at all).
        {
            let rr = &self.r[..ni];
            let ur = &mut self.u[..ni];
            for i in 0..ni {
                let r = rr[i];
                let a = r.abs();
                let eps = 1.0 - a;
                let d0 = (eps / 6.0).sqrt();
                let d1 = (eps / (6.0 - 4.0 * d0)).sqrt();
                let mut v = (a / 3.0).max(0.5 - d1);
                for _ in 0..5 {
                    let h = 3.0 * v - 4.0 * v * v * v - a;
                    let hp = 3.0 - 12.0 * v * v;
                    v = (v - h / hp.max(1e-12)).clamp(0.0, 0.5);
                }
                ur[i] = if r >= 0.0 { -v } else { v };
            }
        }
        // Stage 5: assemble the eigenvalue and fold the degenerate cases
        // in as value selects — same order as symmetric_middle_eigenvalue
        // and lambda2_element.
        {
            let p1r = &self.p1[..ni];
            let qr = &self.q[..ni];
            let pr = &self.p[..ni];
            let dmr = &self.diag_mid[..ni];
            let ur = &self.u[..ni];
            let det = &self.det[..ni];
            for i in 0..ni {
                let mid = qr[i] + 2.0 * pr[i] * ur[i];
                let l2 = if p1r[i] == 0.0 {
                    dmr[i]
                } else if pr[i] < 1e-300 {
                    qr[i]
                } else {
                    mid
                };
                out[i] = if det[i].abs() < 1e-300 {
                    f64::INFINITY
                } else {
                    l2
                };
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Axis {
    J,
    K,
}

/// Central-difference stencil along the contiguous `i` axis of one row:
/// branch-free interior loop, forward/backward differences at the two
/// ends. Matches [`index_derivative`] term for term.
fn stencil_along_row(src: &[f64], out: &mut [f64]) {
    let n = src.len();
    if n < 2 {
        out[..n].fill(0.0);
        return;
    }
    out[0] = src[1] - src[0];
    for p in 1..n - 1 {
        out[p] = (src[p + 1] - src[p - 1]) * 0.5;
    }
    out[n - 1] = src[n - 1] - src[n - 2];
}

/// Derivative of a whole row along `j` or `k`: the stencil case is
/// decided once per row, then applied elementwise over two contiguous
/// neighbour rows. Matches [`index_derivative`] term for term.
fn stencil_across_rows(
    plane: &[f64],
    d: vira_grid::block::BlockDims,
    j: usize,
    k: usize,
    axis: Axis,
    out: &mut [f64],
) {
    let ni = d.ni;
    let (idx, n_axis) = match axis {
        Axis::J => (j, d.nj),
        Axis::K => (k, d.nk),
    };
    if n_axis < 2 {
        out[..ni].fill(0.0);
        return;
    }
    let row = |jj: usize, kk: usize| -> &[f64] {
        let base = d.point_index(0, jj, kk);
        &plane[base..base + ni]
    };
    let at = |v: usize| match axis {
        Axis::J => row(v, k),
        Axis::K => row(j, v),
    };
    if idx == 0 {
        let (a, b) = (at(1), at(0));
        for p in 0..ni {
            out[p] = a[p] - b[p];
        }
    } else if idx == n_axis - 1 {
        let (a, b) = (at(n_axis - 1), at(n_axis - 2));
        for p in 0..ni {
            out[p] = a[p] - b[p];
        }
    } else {
        let (a, b) = (at(idx + 1), at(idx - 1));
        for p in 0..ni {
            out[p] = (a[p] - b[p]) * 0.5;
        }
    }
}

/// Statistics of one streamed λ₂ pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lambda2Stats {
    pub cells_visited: usize,
    pub active_cells: usize,
    pub triangles: usize,
    /// λ₂ point evaluations actually performed (≤ number of points; the
    /// memo avoids recomputation across neighbouring cells).
    pub point_evals: usize,
    /// Cells never examined thanks to bricktree pruning.
    pub cells_skipped: usize,
    /// Finest-level bricks skipped whole.
    pub bricks_skipped: usize,
}

/// Cell-by-cell streamed λ₂ extraction with lazy, memoized point
/// evaluation. `threshold` is the λ₂ iso level (≈ 0, slightly negative in
/// practice); triangles are flushed to `sink` every `batch_triangles`.
pub struct Lambda2Streamer<'a> {
    data: &'a BlockData,
    /// Bricktree over an already-materialized λ₂ field (derived-field
    /// cache hit). `None` → no pruning; λ₂ is computed on first touch.
    tree: Option<&'a BrickTree>,
    /// Memoized λ₂ point values; NaN = not yet computed.
    memo: Vec<f64>,
    stats: Lambda2Stats,
}

impl<'a> Lambda2Streamer<'a> {
    pub fn new(data: &'a BlockData) -> Self {
        Lambda2Streamer {
            data,
            tree: None,
            memo: vec![f64::NAN; data.dims().n_points()],
            stats: Lambda2Stats::default(),
        }
    }

    /// A streamer that prunes with `tree` — a bricktree built over the
    /// memoized λ₂ field of this very block (see
    /// `viracocha::derived::DerivedFieldCache::peek_tree`). Pruning with a
    /// tree from a different field would silently drop triangles, so the
    /// dims are asserted.
    pub fn with_tree(data: &'a BlockData, tree: &'a BrickTree) -> Self {
        assert!(tree.matches(data.dims()), "bricktree dims mismatch");
        let mut s = Lambda2Streamer::new(data);
        s.tree = Some(tree);
        s
    }

    fn value_at(&mut self, i: usize, j: usize, k: usize) -> f64 {
        let idx = self.data.dims().point_index(i, j, k);
        let v = self.memo[idx];
        if !v.is_nan() {
            return v;
        }
        let v = lambda2_at(self.data, i, j, k);
        self.stats.point_evals += 1;
        self.memo[idx] = v;
        v
    }

    // The cell, the contour parameters and the two output ends of one
    // streaming scan; a struct for them would be built once per cell.
    #[allow(clippy::too_many_arguments)]
    fn process_cell(
        &mut self,
        i: usize,
        j: usize,
        k: usize,
        threshold: f64,
        batch_triangles: usize,
        pending: &mut TriangleSoup,
        sink: &mut impl FnMut(TriangleSoup),
    ) {
        self.stats.cells_visited += 1;
        // λ₂ at the eight corners, computed lazily.
        let idxs = [
            (i, j, k),
            (i + 1, j, k),
            (i, j + 1, k),
            (i + 1, j + 1, k),
            (i, j, k + 1),
            (i + 1, j, k + 1),
            (i, j + 1, k + 1),
            (i + 1, j + 1, k + 1),
        ];
        let mut scalars = [0.0; 8];
        for (n, &(a, b, c)) in idxs.iter().enumerate() {
            scalars[n] = self.value_at(a, b, c);
        }
        let (lo, hi) = scalars
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &s| {
                (l.min(s), h.max(s))
            });
        if !(hi > threshold && lo <= threshold) {
            return;
        }
        self.stats.active_cells += 1;
        let corners = self.data.grid.cell_corners(i, j, k);
        self.stats.triangles += contour_cell(&corners, &scalars, threshold, pending);
        if pending.n_triangles() >= batch_triangles {
            sink(std::mem::take(pending));
        }
    }

    /// Runs the full pass. Vortex boundaries are extracted as the
    /// iso-surface λ₂ = `threshold`. With a bricktree, whole inactive
    /// bricks are skipped (in storage order, so output is byte-identical
    /// to the unpruned pass).
    pub fn run(
        mut self,
        threshold: f64,
        batch_triangles: usize,
        mut sink: impl FnMut(TriangleSoup),
    ) -> Lambda2Stats {
        let mut pending = TriangleSoup::new();
        let pruned = match self.tree {
            Some(tree) => tree.scan_candidates(threshold, |i, j, k| {
                self.process_cell(i, j, k, threshold, batch_triangles, &mut pending, &mut sink)
            }),
            None => {
                for (i, j, k) in self.data.dims().cells() {
                    self.process_cell(i, j, k, threshold, batch_triangles, &mut pending, &mut sink);
                }
                Default::default()
            }
        };
        self.stats.cells_skipped = pruned.cells_skipped;
        self.stats.bricks_skipped = pruned.bricks_skipped;
        if !pending.is_empty() {
            sink(pending);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockStepId;
    use vira_grid::synth::test_cube;

    fn vortex_block(res: usize) -> BlockData {
        test_cube(res, 1).generate(BlockStepId::new(0, 0))
    }

    #[test]
    fn gradient_of_linear_field_is_exact() {
        // u = (2x, -y, 3z) on a uniform grid → ∇u = diag(2, -1, 3).
        let mut data = vortex_block(6);
        let pts = data.grid.points.clone();
        let linear: Vec<Vec3> = pts
            .iter()
            .map(|p| Vec3::new(2.0 * p.x, -p.y, 3.0 * p.z))
            .collect();
        data.velocity = VectorField::from_vec3s(data.dims(), &linear);
        for &(i, j, k) in &[(2, 3, 1), (0, 0, 0), (5, 5, 5)] {
            let g = velocity_gradient(&data, i, j, k).unwrap();
            for r in 0..3 {
                for c in 0..3 {
                    let expect = [[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 3.0]][r][c];
                    assert!(
                        (g.m[r][c] - expect).abs() < 1e-9,
                        "∇u[{r}][{c}] = {}",
                        g.m[r][c]
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_axis_derivative_is_zero() {
        assert_eq!(index_derivative(1, 0, |_| 42.0), 0.0);
        let v = index_derivative(1, 0, |_| Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(v, Vec3::ZERO);
    }

    #[test]
    fn lamb_oseen_core_has_negative_lambda2() {
        // The test-cube dataset is a Lamb–Oseen vortex along z through the
        // origin with core radius 0.4: λ₂ < 0 near the axis, ≥ 0 far away.
        let data = vortex_block(17);
        let f = lambda2_field(&data);
        let d = data.dims();
        let mid = d.ni / 2;
        let center = f.at(mid, mid, mid);
        assert!(center < 0.0, "core λ₂ = {center}");
        let corner = f.at(0, 0, 0);
        assert!(corner > center, "corner λ₂ {corner} vs core {center}");
    }

    #[test]
    fn field_bit_identical_to_oracle() {
        // Cube blocks, ragged dims, and degenerate (< 2 point) axes all
        // hit different stencil branches; all must match the oracle bit
        // for bit (including +inf at singular points).
        for data in [vortex_block(13), vortex_block(2)] {
            let fast = lambda2_field(&data);
            let oracle = lambda2_field_oracle(&data);
            assert_eq!(fast.dims, oracle.dims);
            for (a, b) in fast.values.iter().zip(&oracle.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "λ₂ mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn field_handles_degenerate_axes() {
        use vira_grid::block::BlockDims;
        use vira_grid::CurvilinearBlock;
        let dims = BlockDims::new(4, 1, 3);
        let grid = CurvilinearBlock::from_fn(0, dims, |i, j, k| {
            Vec3::new(i as f64, j as f64, k as f64)
        });
        let vel = VectorField::from_fn(dims, |i, _, k| Vec3::new(k as f64, i as f64, 0.0));
        let data = BlockData::new(vira_grid::block::BlockStepId::new(0, 0), grid, vel, 0.0);
        let fast = lambda2_field(&data);
        let oracle = lambda2_field_oracle(&data);
        for (a, b) in fast.values.iter().zip(&oracle.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A collapsed j axis makes the Jacobian singular everywhere.
        assert!(fast.values.iter().all(|v| *v == f64::INFINITY));
    }

    #[test]
    fn streamer_matches_full_field_extraction() {
        let data = vortex_block(13);
        let field = lambda2_field(&data);
        let (full, full_stats) = crate::iso::extract_isosurface(&data.grid, &field, -0.05);
        let mut streamed = TriangleSoup::new();
        let stats = Lambda2Streamer::new(&data).run(-0.05, 64, |b| streamed.extend_from(&b));
        assert_eq!(stats.triangles, full_stats.triangles);
        assert_eq!(stats.active_cells, full_stats.active_cells);
        assert_eq!(streamed, full);
        assert!(stats.triangles > 0, "vortex tube must produce a surface");
    }

    #[test]
    fn streamer_with_tree_matches_unpruned_streamer() {
        let data = vortex_block(13);
        let field = lambda2_field(&data);
        let tree = BrickTree::build(&field);
        let mut plain = TriangleSoup::new();
        let plain_stats = Lambda2Streamer::new(&data).run(-0.05, 64, |b| plain.extend_from(&b));
        let mut pruned = TriangleSoup::new();
        let pruned_stats =
            Lambda2Streamer::with_tree(&data, &tree).run(-0.05, 64, |b| pruned.extend_from(&b));
        assert_eq!(pruned, plain, "pruning changed vortex geometry");
        assert_eq!(pruned_stats.triangles, plain_stats.triangles);
        assert_eq!(pruned_stats.active_cells, plain_stats.active_cells);
        assert_eq!(
            pruned_stats.cells_visited + pruned_stats.cells_skipped,
            data.dims().n_cells()
        );
        assert!(
            pruned_stats.cells_skipped > 0,
            "vortex tube is localized; some bricks must be skipped"
        );
        // Pruning also avoids λ₂ evaluations, not just range checks.
        assert!(pruned_stats.point_evals < plain_stats.point_evals);
    }

    #[test]
    fn streamer_memo_avoids_recomputation() {
        let data = vortex_block(9);
        let mut sink = |_b: TriangleSoup| {};
        let stats = Lambda2Streamer::new(&data).run(-0.05, usize::MAX, &mut sink);
        // Every point is evaluated at most once.
        assert!(stats.point_evals <= data.dims().n_points());
        // All cells visited.
        assert_eq!(stats.cells_visited, data.dims().n_cells());
    }

    #[test]
    fn vortex_tube_is_roughly_cylindrical() {
        let data = vortex_block(17);
        let mut soup = TriangleSoup::new();
        Lambda2Streamer::new(&data).run(-0.05, usize::MAX, |b| soup.extend_from(&b));
        // Vertices cluster around the z axis: x² + y² roughly constant,
        // well inside the domain.
        assert!(soup.n_triangles() > 20);
        for v in &soup.positions {
            let r = ((v[0] * v[0] + v[1] * v[1]) as f64).sqrt();
            assert!(r < 0.95, "vortex boundary inside the cube, r = {r}");
        }
    }
}
