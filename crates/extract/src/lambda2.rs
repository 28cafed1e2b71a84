//! λ₂ vortex-region extraction (Jeong & Hussain; paper §6.3, §7.2).
//!
//! The velocity-gradient tensor on a curvilinear grid is computed with
//! the chain rule: central differences in computational (index) space
//! give `∂x/∂ξ` and `∂u/∂ξ`; inverting the geometric Jacobian yields
//! `∇u = (∂u/∂ξ)(∂x/∂ξ)⁻¹`. λ₂ is the middle eigenvalue of `S² + Ω²`.
//!
//! [`lambda2_field`] computes the complete scalar field of a block, which
//! every λ₂ command then contours with the isosurface extractor:
//! `SimpleVortex` and `VortexDataMan` in one piece, `StreamedVortex` in
//! batches ([`extract_streamed_with_tree`](crate::iso::extract_streamed_with_tree)).
//! [`lambda2_field_oracle`] is the point-at-a-time reference the kernel
//! is tested against.

use crate::eigen::lambda2_of_gradient;
use crate::halo::GhostLayer;
use vira_grid::block::BlockDims;
use vira_grid::faces::Face;
use vira_grid::field::{BlockData, ScalarField};
use vira_grid::math::{Mat3, Vec3};

/// A value differentiable by the index stencil: subtraction, scaling by
/// `f64`, and an additive zero for degenerate (single-point) axes.
trait StencilValue: Copy + std::ops::Sub<Output = Self> + std::ops::Mul<f64, Output = Self> {
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
fn gradient_from_derivatives(
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

/// Velocity-gradient tensor `∇u` at grid point `(i, j, k)`, or `None`
/// where the geometric Jacobian is singular (collapsed cells).
fn velocity_gradient(data: &BlockData, i: usize, j: usize, k: usize) -> Option<Mat3> {
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
fn lambda2_at(data: &BlockData, i: usize, j: usize, k: usize) -> f64 {
    velocity_gradient(data, i, j, k)
        .map(|g| lambda2_of_gradient(&g))
        .unwrap_or(f64::INFINITY)
}

/// The point-at-a-time λ₂ field computation, retained verbatim as the
/// test oracle: one `lambda2_at` evaluation per grid point, each
/// re-deriving its six stencil samples through indexed accesses.
pub fn lambda2_field_oracle(data: &BlockData) -> ScalarField {
    let d = data.dims();
    ScalarField::from_fn(d, |i, j, k| lambda2_at(data, i, j, k))
}

/// Computes the complete λ₂ scalar field of a block in **k-slab
/// passes**: every loop of the kernel runs over a whole `ni·nj` slab, not
/// over one `ni`-point row.
///
/// The velocity planes are read in place; the interleaved geometry is
/// split into component planes one slab at a time, into a ring of three
/// slab planes holding `k − 1`, `k` and `k + 1`, so each slab is split
/// once. The six sources (geometry and velocity x, y, z) are
/// differentiated along `i` (one contiguous central-difference pass, then
/// the two row ends), along `j` (one contiguous pass over the slab
/// interior against `p ± ni`, one-sided first and last rows) and along
/// `k` (against slabs `k ± 1`). The per-point tensor pipeline then runs
/// as five stage passes over the slab, from the velocity gradient to the
/// final selects. Every per-element expression is transcribed operation
/// for operation from the scalar `lambda2_at` path, which keeps the
/// result bit-identical to [`lambda2_field_oracle`].
pub fn lambda2_field(data: &BlockData) -> ScalarField {
    lambda2_field_ghosted(data, &Default::default())
}

/// The λ₂ field kernel behind [`lambda2_field`] and
/// [`GhostedBlock::lambda2_field`](crate::halo::GhostedBlock::lambda2_field):
/// `ghosts[face as usize]` is the ghost layer attached behind `face`, if
/// any, and replaces that face's one-sided boundary differences (see
/// [`patch_ghost_rows`]). With no layer it is [`lambda2_field`].
pub(crate) fn lambda2_field_ghosted(
    data: &BlockData,
    ghosts: &[Option<GhostLayer>; 6],
) -> ScalarField {
    let d = data.dims();
    let n = d.ni * d.nj;
    let vel = [&data.velocity.xs, &data.velocity.ys, &data.velocity.zs];
    let mut values = vec![0.0; d.n_points()];

    // One slab-sized scratch for the whole block, in groups of planes.
    let mut scratch = vec![0.0; 49 * n];
    // Geometry x, y, z of the slab at slot `k % 3`.
    let (ring, rest) = scratch.split_at_mut(9 * n);
    // `∂(gx, gy, gz, vx, vy, vz)/∂(i, j, k)`, source-major.
    let (deriv, rest) = rest.split_at_mut(18 * n);
    // `G` row-major, then `det J`.
    let (grad, rest) = rest.split_at_mut(10 * n);
    // `M = S² + Ω²`: `m00, m01, m02, m11, m12, m22`.
    let (tensor, rest) = rest.split_at_mut(6 * n);
    // `p1, q, p, r` and the diagonal's middle; then the root `u`.
    let (invariants, root) = rest.split_at_mut(5 * n);

    let split_geometry = |ring: &mut [f64], k: usize| {
        let slot = &mut ring[k % 3 * 3 * n..][..3 * n];
        let [xs, ys, zs] = planes_mut(slot, n);
        let points = &data.grid.points[k * n..(k + 1) * n];
        for (p, (x, (y, z))) in points.iter().zip(xs.iter_mut().zip(ys.iter_mut().zip(zs))) {
            (*x, *y, *z) = (p.x, p.y, p.z);
        }
    };
    if d.nk > 0 {
        split_geometry(ring, 0);
    }
    for k in 0..d.nk {
        if k + 1 < d.nk {
            split_geometry(ring, k + 1);
        }
        for s in 0..6 {
            let plane = |kk: usize| -> &[f64] {
                match s {
                    0..=2 => &ring[(kk % 3 * 3 + s) * n..][..n],
                    _ => &vel[s - 3][kk * n..(kk + 1) * n],
                }
            };
            let cur = plane(k);
            let below = (k > 0).then(|| plane(k - 1));
            let above = (k + 1 < d.nk).then(|| plane(k + 1));
            let [di, dj, dk] = planes_mut(&mut deriv[3 * s * n..], n);
            stencil_i(cur, d.ni, di);
            stencil_j(cur, d.ni, dj);
            stencil_k(cur, below, above, dk);
            let neighbours = [below.unwrap_or(&[]), above.unwrap_or(&[])];
            patch_ghost_rows(ghosts, s, d, k, cur, neighbours, [di, dj, dk]);
        }
        gradient_stage(n, deriv, grad);
        tensor_stage(n, &grad[..9 * n], tensor);
        invariant_stage(n, tensor, invariants);
        root_stage(n, &invariants[3 * n..4 * n], root);
        let out = &mut values[k * n..(k + 1) * n];
        select_stage(n, invariants, root, &grad[9 * n..], out);
    }
    ScalarField::new(d, values)
}

/// The `N` consecutive `n`-long planes a scratch group starts with.
fn planes<const N: usize>(group: &[f64], n: usize) -> [&[f64]; N] {
    std::array::from_fn(|p| &group[p * n..(p + 1) * n])
}

/// [`planes`], writable.
fn planes_mut<const N: usize>(group: &mut [f64], n: usize) -> [&mut [f64]; N] {
    let mut rest = group;
    std::array::from_fn(|_| {
        let (plane, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        plane
    })
}

/// Compiles one elementwise pass twice from a single `#[inline(always)]`
/// body: `$name::baseline` at the target's baseline vector width and, on
/// x86-64, `$name::avx2` with AVX2 enabled — four `f64` lanes where the
/// baseline has two. The pass `$name` itself, carrying the doc comment,
/// runs the AVX2 build when the running CPU has AVX2. `fma` stays off:
/// with no fused multiply-add both builds round every operation the same
/// way, so they give the same bits. The pass is the `#[inline(never)]`
/// boundary the stage comment below asks for; the AVX2 build is a call
/// of its own, which a caller without AVX2 cannot inline.
macro_rules! lane_dispatched {
    ($(#[$attr:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$attr])*
        #[inline(never)]
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the AVX2 build needs no feature but AVX2, and
                // `is_x86_feature_detected!` just found it on this CPU.
                return unsafe { $name::avx2($($arg),*) };
            }
            $name::baseline($($arg),*)
        }

        mod $name {
            // Not every pass names an item of the parent module.
            #[allow(unused_imports)]
            use super::*;

            #[inline(always)]
            pub(super) fn baseline($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2($($arg: $ty),*) {
                baseline($($arg),*)
            }
        }
    };
}

lane_dispatched! {
    /// `out[p] = a[p] − b[p]`: a one-sided difference.
    fn diff(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, a), b) in out.iter_mut().zip(a).zip(b) {
            *o = a - b;
        }
    }
}

lane_dispatched! {
    /// `out[p] = (a[p] − b[p]) · 0.5`: a central difference.
    fn half_diff(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, a), b) in out.iter_mut().zip(a).zip(b) {
            *o = (a - b) * 0.5;
        }
    }
}

/// ∂/∂i over one slab: one contiguous central-difference pass, then the
/// forward and backward differences at both ends of every row overwrite
/// the pass's values there. Matches [`index_derivative`] term for term.
fn stencil_i(src: &[f64], ni: usize, out: &mut [f64]) {
    let n = src.len();
    if ni < 2 || n < ni {
        out.fill(0.0);
        return;
    }
    half_diff(&src[2..], &src[..n - 2], &mut out[1..n - 1]);
    for (o, s) in out.chunks_exact_mut(ni).zip(src.chunks_exact(ni)) {
        o[0] = s[1] - s[0];
        o[ni - 1] = s[ni - 1] - s[ni - 2];
    }
}

/// ∂/∂j over one slab: one contiguous central-difference pass over the
/// interior rows against `p ± ni`, one-sided first and last rows.
/// Matches [`index_derivative`] term for term.
fn stencil_j(src: &[f64], ni: usize, out: &mut [f64]) {
    let n = src.len();
    if n < 2 * ni {
        out.fill(0.0);
        return;
    }
    half_diff(&src[2 * ni..], &src[..n - 2 * ni], &mut out[ni..n - ni]);
    diff(&src[ni..2 * ni], &src[..ni], &mut out[..ni]);
    diff(&src[n - ni..], &src[n - 2 * ni..n - ni], &mut out[n - ni..]);
}

/// ∂/∂k over one slab against the slabs below and above it (`None`
/// beyond the block). Matches [`index_derivative`] term for term.
fn stencil_k(cur: &[f64], below: Option<&[f64]>, above: Option<&[f64]>, out: &mut [f64]) {
    match (below, above) {
        (Some(b), Some(a)) => half_diff(a, b, out),
        (None, Some(a)) => diff(a, cur, out),
        (Some(b), None) => diff(cur, b, out),
        (None, None) => out.fill(0.0),
    }
}

/// Replaces the one-sided boundary differences of source `s` (geometry
/// x, y, z, then velocity x, y, z) in slab `k` by central differences
/// across every ghosted face — `(next − ghost) · 0.5` behind a min face,
/// `(ghost − previous) · 0.5` behind a max face, the stencil an interior
/// point gets: the first or last element of every row for the I faces,
/// the first or last row of the slab for the J faces, the whole slab at
/// `k = 0` or `k = nk − 1` for the K faces. An axis with fewer than two
/// points keeps its zero derivative. `cur` is slab `k` of the source,
/// `[below, above]` slabs `k ∓ 1` (empty beyond the block).
fn patch_ghost_rows(
    ghosts: &[Option<GhostLayer>; 6],
    s: usize,
    d: BlockDims,
    k: usize,
    cur: &[f64],
    [below, above]: [&[f64]; 2],
    [di, dj, dk]: [&mut [f64]; 3],
) {
    let (ni, nj, nk) = (d.ni, d.nj, d.nk);
    let c = s % 3;
    // The ghost samples of source `s` behind `face`, by face lattice
    // index (`a` fastest, as `GhostLayer` orders them).
    let layer = |face: Face| {
        ghosts[face as usize]
            .as_ref()
            .map(|g| if s < 3 { &g.positions } else { &g.velocities })
    };
    if ni >= 2 {
        if let Some(g) = layer(Face::IMin) {
            for j in 0..nj {
                let p = j * ni;
                di[p] = (cur[p + 1] - g[k * nj + j][c]) * 0.5;
            }
        }
        if let Some(g) = layer(Face::IMax) {
            for j in 0..nj {
                let p = j * ni + ni - 1;
                di[p] = (g[k * nj + j][c] - cur[p - 1]) * 0.5;
            }
        }
    }
    if nj >= 2 {
        let last = (nj - 1) * ni;
        if let Some(g) = layer(Face::JMin) {
            for i in 0..ni {
                dj[i] = (cur[ni + i] - g[k * ni + i][c]) * 0.5;
            }
        }
        if let Some(g) = layer(Face::JMax) {
            for i in 0..ni {
                dj[last + i] = (g[k * ni + i][c] - cur[last - ni + i]) * 0.5;
            }
        }
    }
    if nk >= 2 {
        if let (0, Some(g)) = (k, layer(Face::KMin)) {
            for (p, o) in dk.iter_mut().enumerate() {
                *o = (above[p] - g[p][c]) * 0.5;
            }
        }
        if let (true, Some(g)) = (k == nk - 1, layer(Face::KMax)) {
            for (p, o) in dk.iter_mut().enumerate() {
                *o = (g[p][c] - below[p]) * 0.5;
            }
        }
    }
}

// The five stages of the per-point λ₂ pipeline, each one branch-free
// elementwise loop over a slab of `n` points.
//
// Why stages instead of one per-point loop: the middle-eigenvalue solve
// contains a fixed-count Newton iteration, and a loop nested inside the
// point loop keeps LLVM's loop vectorizer away from the whole body.
// Split up, each stage is an innermost loop of mul/add/sqrt/div/min/max
// the autovectorizer lowers to lanes. Each stage takes its input and
// its output as one scratch group each: two slice arguments the
// compiler knows to be disjoint, which it only knows across a call, so
// every stage stays out of line (`#[inline(never)]`, which
// `lane_dispatched!` adds to the passes it compiles). Given one slice per plane instead — 28 for stage
// 1 — or inlined, the planes could overlap as far as the compiler can
// tell, and a loop that needs that many run-time overlap checks is left
// scalar.
//
// The stages are bound by arithmetic, not by memory, so all five are
// compiled at two lane widths and pick the wider one where the CPU has
// it.
//
// Bit-identity contract: every expression below is transcribed
// operation for operation (same literals, same association) from the
// path `lambda2_field_oracle` runs — `gradient_from_derivatives`
// (`Mat3::det`, `Mat3::inverse` = `Mat3::scaled_adjugate(1 / det)`,
// `Mat3::mul_mat`) and `lambda2_of_gradient` (`Mat3::symmetric_part`,
// `Mat3::antisymmetric_part`, `symmetric_middle_eigenvalue`,
// `chebyshev_middle_root`); the singular-Jacobian early return is folded
// into the final select. The unit and property tests assert the
// per-point equality bit for bit.

lane_dispatched! {
    /// Stage 1: Jacobian determinant, scaled adjugate, and
    /// `G = (∂u/∂ξ) · J⁻¹` from the 18 derivative planes. J's row r is the
    /// (x, y, z)[r] component of the three direction derivatives
    /// (`Mat3::from_cols`).
    fn gradient_stage(n: usize, deriv: &[f64], grad: &mut [f64]) {
        let [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17] =
            planes(deriv, n);
        let [g0, g1, g2, g3, g4, g5, g6, g7, g8, det] = planes_mut(grad, n);
        for p in 0..n {
            let (j00, j01, j02) = (r0[p], r1[p], r2[p]);
            let (j10, j11, j12) = (r3[p], r4[p], r5[p]);
            let (j20, j21, j22) = (r6[p], r7[p], r8[p]);
            let dj = j00 * (j11 * j22 - j12 * j21) - j01 * (j10 * j22 - j12 * j20)
                + j02 * (j10 * j21 - j11 * j20);
            // Unconditional reciprocal: singular points produce non-finite
            // G entries that stage 5 discards, as Mat3::inverse's early
            // return does.
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
}

lane_dispatched! {
    /// Stage 2: `M = S² + Ω²` with `S = (G + Gᵀ)/2`, `Ω = (G − Gᵀ)/2`.
    /// Entry expressions follow `symmetric_part` / `antisymmetric_part` /
    /// `mul_mat` / `add_mat` exactly; only the six entries the eigensolve
    /// reads are materialized.
    fn tensor_stage(n: usize, g: &[f64], tensor: &mut [f64]) {
        let [g0, g1, g2, g3, g4, g5, g6, g7, g8] = planes(g, n);
        let [m0, m1, m2, m3, m4, m5] = planes_mut(tensor, n);
        for p in 0..n {
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
}

lane_dispatched! {
    /// Stage 3: the eigen invariants of `M`, exactly as
    /// `symmetric_middle_eigenvalue` computes them — the off-diagonal
    /// magnitude `p1`, `q = tr(M)/3`, `p = ‖M − qI‖/√6`, the normalized
    /// half-determinant `r ∈ [−1, 1]`, and the middle of the diagonal (the
    /// exact `p1 == 0` path).
    fn invariant_stage(n: usize, tensor: &[f64], invariants: &mut [f64]) {
        let [m0, m1, m2, m3, m4, m5] = planes(tensor, n);
        let [p1r, qr, pr, rr, dmr] = planes_mut(invariants, n);
        for i in 0..n {
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
}

lane_dispatched! {
    /// Stage 4: the Chebyshev middle root `u` of every `r`, as
    /// `chebyshev_middle_root` computes it — a seed pass, the five fixed
    /// Newton steps as five passes over the slab (iteration outer, point
    /// inner), then the sign pass. Each point gets the same operations in
    /// the same order as the scalar loop; only the loop nest is
    /// interchanged. Each step of a point waits on the divide of its
    /// previous step, but consecutive points do not depend on each other,
    /// so within a pass the divides of neighbouring points overlap instead
    /// of queueing behind one chain.
    fn root_stage(n: usize, r: &[f64], u: &mut [f64]) {
        let (r, u) = (&r[..n], &mut u[..n]);
        for (v, &r) in u.iter_mut().zip(r) {
            let a = r.abs();
            let eps = 1.0 - a;
            let d0 = (eps / 6.0).sqrt();
            let d1 = (eps / (6.0 - 4.0 * d0)).sqrt();
            *v = (a / 3.0).max(0.5 - d1);
        }
        for _ in 0..5 {
            for (u, &r) in u.iter_mut().zip(r) {
                let (v, a) = (*u, r.abs());
                let h = 3.0 * v - 4.0 * v * v * v - a;
                let hp = 3.0 - 12.0 * v * v;
                *u = (v - h / hp.max(1e-12)).clamp(0.0, 0.5);
            }
        }
        for (u, &r) in u.iter_mut().zip(r) {
            *u = if r >= 0.0 { -*u } else { *u };
        }
    }
}

lane_dispatched! {
    /// Stage 5: assemble the eigenvalue and fold the degenerate cases in as
    /// value selects — same order as `symmetric_middle_eigenvalue` and the
    /// `Mat3::inverse` early return. The selects are bit arithmetic
    /// ([`select`]): written as `if`/`else` they compiled to branches at
    /// either width.
    fn select_stage(n: usize, invariants: &[f64], u: &[f64], det: &[f64], out: &mut [f64]) {
        let [p1r, qr, pr, _, dmr] = planes(invariants, n);
        let (u, det, out) = (&u[..n], &det[..n], &mut out[..n]);
        for i in 0..n {
            let mid = qr[i] + 2.0 * pr[i] * u[i];
            let l2 = select(p1r[i] == 0.0, dmr[i], select(pr[i] < 1e-300, qr[i], mid));
            out[i] = select(det[i].abs() < 1e-300, f64::INFINITY, l2);
        }
    }
}

/// `if cond { a } else { b }`, bit for bit, without a branch: the mask is
/// all ones when `cond` holds, so a vector build blends lanes.
#[inline(always)]
fn select(cond: bool, a: f64, b: f64) -> f64 {
    let take_a = u64::from(cond).wrapping_neg();
    f64::from_bits((a.to_bits() & take_a) | (b.to_bits() & !take_a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockStepId;
    use vira_grid::field::VectorField;
    use vira_grid::synth::test_cube;

    fn vortex_block(res: usize) -> BlockData {
        test_cube(res, 1).generate(BlockStepId::new(0, 0))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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

    /// The 18 derivative planes of a whole block, laid out as the kernel's
    /// `deriv` group (source-major), one [`index_derivative`] per point.
    fn block_derivatives(data: &BlockData) -> Vec<f64> {
        let d = data.dims();
        let n = d.n_points();
        let mut deriv = vec![0.0; 18 * n];
        for p in 0..n {
            let (i, j, k) = d.point_coords(p);
            let along = [
                (
                    index_derivative(d.ni, i, |ii| data.grid.point(ii, j, k)),
                    index_derivative(d.ni, i, |ii| data.velocity.at(ii, j, k)),
                ),
                (
                    index_derivative(d.nj, j, |jj| data.grid.point(i, jj, k)),
                    index_derivative(d.nj, j, |jj| data.velocity.at(i, jj, k)),
                ),
                (
                    index_derivative(d.nk, k, |kk| data.grid.point(i, j, kk)),
                    index_derivative(d.nk, k, |kk| data.velocity.at(i, j, kk)),
                ),
            ];
            for (axis, (dx, du)) in along.into_iter().enumerate() {
                for (c, (x, u)) in [(dx.x, du.x), (dx.y, du.y), (dx.z, du.z)]
                    .into_iter()
                    .enumerate()
                {
                    deriv[(3 * c + axis) * n + p] = x;
                    deriv[(3 * (3 + c) + axis) * n + p] = u;
                }
            }
        }
        deriv
    }

    /// Every output of the dispatched passes over a whole block, each
    /// pass run through the build `$build` of its module: the stencil
    /// differences of `src`, then the five stages chained over `deriv`.
    macro_rules! passes_through {
        ($build:ident, $deriv:expr, $src:expr) => {{
            let (deriv, src): (&[f64], &[f64]) = ($deriv, $src);
            let n = deriv.len() / 18;
            let mut one_sided = vec![0.0; n - 1];
            diff::$build(&src[1..], &src[..n - 1], &mut one_sided);
            let mut central = vec![0.0; n - 2];
            half_diff::$build(&src[2..], &src[..n - 2], &mut central);
            let mut grad = vec![0.0; 10 * n];
            gradient_stage::$build(n, deriv, &mut grad);
            let mut tensor = vec![0.0; 6 * n];
            tensor_stage::$build(n, &grad[..9 * n], &mut tensor);
            let mut invariants = vec![0.0; 5 * n];
            invariant_stage::$build(n, &tensor, &mut invariants);
            let mut root = vec![0.0; n];
            root_stage::$build(n, &invariants[3 * n..4 * n], &mut root);
            let mut field = vec![0.0; n];
            select_stage::$build(n, &invariants, &root, &grad[9 * n..], &mut field);
            [one_sided, central, grad, tensor, invariants, root, field]
        }};
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn passes_avx2(deriv: &[f64], src: &[f64]) -> [Vec<f64>; 7] {
        passes_through!(avx2, deriv, src)
    }

    /// A block whose x coordinate stalls for three points along `i`, so
    /// `∂x/∂i` is zero at `i = 2` (a singular Jacobian, `+∞`), and whose
    /// velocity is `(2x, −y, 3z)` on its first two slabs, so `∇u` and
    /// `M` are diagonal there (the `p1 == 0` path).
    fn collapsed_block() -> BlockData {
        use vira_grid::CurvilinearBlock;
        let dims = BlockDims::new(5, 4, 4);
        let x = [0.0, 1.0, 1.0, 1.0, 2.0];
        let grid =
            CurvilinearBlock::from_fn(0, dims, |i, j, k| Vec3::new(x[i], j as f64, k as f64));
        let vel = VectorField::from_fn(dims, |i, j, k| {
            let (x, y, z) = (x[i], j as f64, k as f64);
            if k < 2 {
                Vec3::new(2.0 * x, -y, 3.0 * z)
            } else {
                Vec3::new(y * z, x * x, x + y)
            }
        });
        BlockData::new(BlockStepId::new(0, 0), grid, vel, 0.0)
    }

    #[test]
    fn both_lane_widths_give_the_same_bits() {
        let blocks = [
            vira_grid::synth::propfan(21).generate(BlockStepId::new(40, 0)),
            vortex_block(13),
            collapsed_block(),
        ];
        let (mut singular, mut diagonal) = (false, false);
        for data in &blocks {
            let deriv = block_derivatives(data);
            let n = data.dims().n_points();
            let narrow = passes_through!(baseline, &deriv, &data.velocity.xs);
            let (grad, invariants, field) = (&narrow[2], &narrow[4], &narrow[6]);
            let oracle = lambda2_field_oracle(data);
            assert_eq!(bits(field), bits(&oracle.values), "baseline vs oracle");
            assert_eq!(bits(&lambda2_field(data).values), bits(&oracle.values));
            singular |= oracle.values.contains(&f64::INFINITY);
            diagonal |= (0..n).any(|p| invariants[p] == 0.0 && grad[9 * n + p].abs() >= 1e-300);

            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `passes_avx2` needs no feature but AVX2, and
                // `is_x86_feature_detected!` just found it on this CPU.
                let wide = unsafe { passes_avx2(&deriv, &data.velocity.xs) };
                let passes = [
                    "diff",
                    "half_diff",
                    "gradient_stage",
                    "tensor_stage",
                    "invariant_stage",
                    "root_stage",
                    "select_stage",
                ];
                for ((pass, a), b) in passes.iter().zip(&narrow).zip(&wide) {
                    assert_eq!(bits(a), bits(b), "{pass}: baseline and AVX2 differ");
                }
                continue;
            }
            println!("no AVX2 on this CPU: only the baseline build was checked");
        }
        assert!(singular, "no block reached the det ≈ 0 → +∞ select");
        assert!(diagonal, "no block reached the p1 == 0 path");
    }

    #[test]
    fn field_handles_degenerate_axes() {
        use vira_grid::CurvilinearBlock;
        // A collapsed j axis makes the Jacobian singular everywhere; an
        // empty one leaves no point at all.
        for dims in [BlockDims::new(4, 1, 3), BlockDims::new(4, 0, 3)] {
            let grid = CurvilinearBlock::from_fn(0, dims, |i, j, k| {
                Vec3::new(i as f64, j as f64, k as f64)
            });
            let vel = VectorField::from_fn(dims, |i, _, k| Vec3::new(k as f64, i as f64, 0.0));
            let data = BlockData::new(vira_grid::block::BlockStepId::new(0, 0), grid, vel, 0.0);
            let fast = lambda2_field(&data);
            let oracle = lambda2_field_oracle(&data);
            assert_eq!(bits(&fast.values), bits(&oracle.values));
            assert!(fast.values.iter().all(|v| *v == f64::INFINITY));
        }
    }

    #[test]
    fn vortex_tube_is_roughly_cylindrical() {
        let data = vortex_block(17);
        let (soup, _) = crate::iso::extract_isosurface(&data.grid, &lambda2_field(&data), -0.05);
        // Vertices cluster around the z axis: x² + y² roughly constant,
        // well inside the domain.
        assert!(soup.n_triangles() > 20);
        for v in &soup.positions {
            let r = ((v[0] * v[0] + v[1] * v[1]) as f64).sqrt();
            assert!(r < 0.95, "vortex boundary inside the cube, r = {r}");
        }
    }
}
