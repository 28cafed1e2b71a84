//! Eigenvalues of symmetric 3×3 matrices, needed by the λ₂ vortex
//! test (eigenvalues of `S² + Ω²`, which is symmetric).
//!
//! Uses the analytic (trigonometric) method: exact for the 3×3 symmetric
//! case, allocation-free, and orders of magnitude faster than iterative
//! schemes — this sits in the innermost loop of vortex extraction.

use vira_grid::math::Mat3;

/// Eigenvalues of a symmetric 3×3 matrix, sorted **descending**
/// (`λ1 ≥ λ2 ≥ λ3`). Only the lower/upper triangle symmetry is assumed;
/// the strictly-antisymmetric part of the input is ignored.
pub fn symmetric_eigenvalues(a: &Mat3) -> [f64; 3] {
    let m = &a.m;
    // Off-diagonal magnitude.
    let p1 = m[0][1] * m[0][1] + m[0][2] * m[0][2] + m[1][2] * m[1][2];
    if p1 == 0.0 {
        // Already diagonal.
        let mut e = [m[0][0], m[1][1], m[2][2]];
        e.sort_by(|x, y| y.partial_cmp(x).expect("diagonal entries must not be NaN"));
        return e;
    }
    let q = a.trace() / 3.0;
    let d0 = m[0][0] - q;
    let d1 = m[1][1] - q;
    let d2 = m[2][2] - q;
    let p2 = d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * p1;
    let p = (p2 / 6.0).sqrt();
    if p < 1e-300 {
        return [q, q, q];
    }
    // B = (A - qI) / p
    let inv_p = 1.0 / p;
    let b = Mat3 {
        m: [
            [d0 * inv_p, m[0][1] * inv_p, m[0][2] * inv_p],
            [m[1][0] * inv_p, d1 * inv_p, m[1][2] * inv_p],
            [m[2][0] * inv_p, m[2][1] * inv_p, d2 * inv_p],
        ],
    };
    let r = (b.det() / 2.0).clamp(-1.0, 1.0);
    let phi = r.acos() / 3.0;
    let e1 = q + 2.0 * p * phi.cos();
    let e3 = q + 2.0 * p * (phi + 2.0 * std::f64::consts::FRAC_PI_3 * 2.0).cos();
    let e2 = 3.0 * q - e1 - e3;
    // By construction e1 >= e2 >= e3 for exact arithmetic; enforce under
    // rounding.
    let mut e = [e1, e2, e3];
    e.sort_by(|x, y| y.partial_cmp(x).expect("eigenvalues must not be NaN"));
    e
}

/// Middle root `u ∈ [−1/2, 1/2]` of the Chebyshev cubic `4u³ − 3u = r`
/// for `r ∈ [−1, 1]` — i.e. `cos(acos(r)/3 + 4π/3)` — computed with
/// plain arithmetic only (no libm trig).
///
/// This is the inner solve of the middle-eigenvalue path. The cubic has
/// three real roots (casus irreducibilis: no real-radical closed form),
/// so the classic route is `acos` + `cos`; those scalar libm calls were
/// measured at ~2/3 of the whole λ₂ field cost and cannot be processed
/// in lanes. Instead: exploit oddness (`u(−r) = −u(|r|)`-signed), seed
/// from the larger of the interior tangent `a/3` and a two-step
/// square-root expansion around the `a → 1` double root, then apply a
/// **fixed** number of guarded Newton steps. The operation sequence is
/// branch-free (comparisons select values, never control flow) and
/// identical for every input, so the autovectorizer can lower it across
/// lanes and a lane evaluation is bit-identical to a scalar one.
///
/// Accuracy: ~1e-15 absolute in the interior, degrading to ~1e-8 at the
/// double-root endpoints `r = ±1` — matching the trigonometric method,
/// which also loses digits exactly there.
#[inline(always)]
pub fn chebyshev_middle_root(r: f64) -> f64 {
    let a = r.abs();
    // Solve 3v − 4v³ = a for v ∈ [0, 1/2] (v = sin(asin(a)/3)).
    //
    // Seed: h(v) = 3v − 4v³ − a is increasing and concave on [0, 1/2],
    // so a Newton step from either side cannot cross to another root;
    // `a/3` starts below the root, the endpoint expansion
    // v ≈ 1/2 − √(ε/(6 − 4√(ε/6))) starts (barely) above it, and the
    // larger of the two is always the closer.
    let eps = 1.0 - a;
    let d0 = (eps / 6.0).sqrt();
    let d1 = (eps / (6.0 - 4.0 * d0)).sqrt();
    let mut v = (a / 3.0).max(0.5 - d1);
    // Fixed-count guarded Newton: quadratic from a ≲3e-2 seed error in
    // the interior; near the endpoint the slope guard keeps the
    // degenerate h' ≈ 0 step finite and the clamp keeps v in range.
    for _ in 0..5 {
        let h = 3.0 * v - 4.0 * v * v * v - a;
        let hp = 3.0 - 12.0 * v * v;
        v = (v - h / hp.max(1e-12)).clamp(0.0, 0.5);
    }
    if r >= 0.0 {
        -v
    } else {
        v
    }
}

/// Middle eigenvalue of a symmetric 3×3 matrix, branch-free.
///
/// Same invariant reduction as [`symmetric_eigenvalues`] (`q = tr/3`,
/// `p = ‖A − qI‖/√6`, `r = det((A − qI)/p)/2`), but only the middle
/// root is extracted, via [`chebyshev_middle_root`] instead of
/// `acos`/`cos`. Degenerate cases (diagonal input, `p ≈ 0`) are folded
/// in as value selects so the function stays a single straight-line
/// operation sequence — the shape the λ₂ slab kernel relies on for
/// lane execution, and scalar callers get bit-identical values.
#[inline(always)]
pub fn symmetric_middle_eigenvalue(a: &Mat3) -> f64 {
    let m = &a.m;
    let p1 = m[0][1] * m[0][1] + m[0][2] * m[0][2] + m[1][2] * m[1][2];
    let q = a.trace() / 3.0;
    let d0 = m[0][0] - q;
    let d1 = m[1][1] - q;
    let d2 = m[2][2] - q;
    let p2 = d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * p1;
    let p = (p2 / 6.0).sqrt();
    // det(B)/2 for B = (A − qI)/p. p may be zero here; the division
    // then yields non-finite lanes that the final selects discard.
    let inv_p = 1.0 / p;
    let b00 = d0 * inv_p;
    let b11 = d1 * inv_p;
    let b22 = d2 * inv_p;
    let b01 = m[0][1] * inv_p;
    let b02 = m[0][2] * inv_p;
    let b12 = m[1][2] * inv_p;
    let det_b = b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02);
    let r = (det_b / 2.0).clamp(-1.0, 1.0);
    let mid = q + 2.0 * p * chebyshev_middle_root(r);
    // Middle of the diagonal, exact — the p1 == 0 early path of
    // symmetric_eigenvalues, expressed as selects.
    let (e0, e1, e2) = (m[0][0], m[1][1], m[2][2]);
    let diag_mid = e0.min(e1).max(e0.max(e1).min(e2));
    if p1 == 0.0 {
        diag_mid
    } else if p < 1e-300 {
        q
    } else {
        mid
    }
}

/// The λ₂ value of a velocity-gradient tensor `J = ∇u`: the middle
/// eigenvalue of `S² + Ω²` with `S = (J + Jᵀ)/2`, `Ω = (J − Jᵀ)/2`
/// (Jeong & Hussain). Vortex regions are where λ₂ < 0.
pub fn lambda2_of_gradient(j: &Mat3) -> f64 {
    let s = j.symmetric_part();
    let o = j.antisymmetric_part();
    let m = s.mul_mat(&s).add_mat(&o.mul_mat(&o));
    symmetric_middle_eigenvalue(&m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::math::Vec3;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Mat3::from_rows(
            Vec3::new(3.0, 0.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
        );
        assert_eq!(symmetric_eigenvalues(&a), [3.0, 2.0, -1.0]);
    }

    #[test]
    fn known_symmetric_matrix() {
        // A = [[2,1,0],[1,2,0],[0,0,3]] has eigenvalues 3, 3, 1.
        let a = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.0),
            Vec3::new(1.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
        );
        let e = symmetric_eigenvalues(&a);
        // The double root sits at the acos boundary (r = ±1), where the
        // trigonometric method loses a few digits — 1e-7 relative is the
        // realistic accuracy there.
        assert!(close(e[0], 3.0, 1e-7));
        assert!(close(e[1], 3.0, 1e-7));
        assert!(close(e[2], 1.0, 1e-7));
    }

    #[test]
    fn invariants_match_trace_and_det() {
        let a = Mat3::from_rows(
            Vec3::new(4.0, -2.0, 0.5),
            Vec3::new(-2.0, 1.0, 3.0),
            Vec3::new(0.5, 3.0, -2.0),
        );
        let e = symmetric_eigenvalues(&a);
        assert!(close(e[0] + e[1] + e[2], a.trace(), 1e-10));
        assert!(close(e[0] * e[1] * e[2], a.det(), 1e-9));
        assert!(e[0] >= e[1] && e[1] >= e[2]);
    }

    #[test]
    fn multiple_of_identity() {
        let mut a = Mat3::IDENTITY;
        for i in 0..3 {
            a.m[i][i] = 2.5;
        }
        assert_eq!(symmetric_eigenvalues(&a), [2.5, 2.5, 2.5]);
    }

    #[test]
    fn pure_rotation_gradient_has_negative_lambda2() {
        // Solid-body rotation about z: u = (-ωy, ωx, 0).
        // J = [[0, -ω, 0], [ω, 0, 0], [0,0,0]]; S = 0, Ω = J.
        // Ω² has eigenvalues {-ω², -ω², 0} → λ₂ = -ω² < 0: a vortex.
        let w = 2.0;
        let j = Mat3::from_rows(
            Vec3::new(0.0, -w, 0.0),
            Vec3::new(w, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
        );
        let l2 = lambda2_of_gradient(&j);
        assert!(close(l2, -w * w, 1e-12), "λ₂ = {l2}");
    }

    #[test]
    fn chebyshev_root_matches_trig_across_range() {
        // Sweep r densely, including the double-root endpoints where
        // both methods degrade; the arithmetic solver must track the
        // trigonometric reference tightly in the interior and to ~1e-8
        // at the ends.
        for step in 0..=2000 {
            let r = -1.0 + step as f64 / 1000.0;
            let reference = (r.acos() / 3.0 + 4.0 * std::f64::consts::FRAC_PI_3).cos();
            let got = chebyshev_middle_root(r);
            let tol = if (1.0 - r.abs()) < 1e-3 { 1e-7 } else { 1e-12 };
            assert!(
                (got - reference).abs() < tol,
                "r = {r}: {got} vs {reference}"
            );
            assert!((-0.5..=0.5).contains(&got));
        }
        assert_eq!(chebyshev_middle_root(1.0), -0.5);
        assert_eq!(chebyshev_middle_root(-1.0), 0.5);
    }

    #[test]
    fn middle_eigenvalue_matches_full_solve() {
        let cases = [
            Mat3::from_rows(
                Vec3::new(4.0, -2.0, 0.5),
                Vec3::new(-2.0, 1.0, 3.0),
                Vec3::new(0.5, 3.0, -2.0),
            ),
            Mat3::from_rows(
                Vec3::new(2.0, 1.0, 0.0),
                Vec3::new(1.0, 2.0, 0.0),
                Vec3::new(0.0, 0.0, 3.0),
            ),
            Mat3::from_rows(
                Vec3::new(1e-8, 2e-9, 0.0),
                Vec3::new(2e-9, -3e-8, 1e-9),
                Vec3::new(0.0, 1e-9, 5e-8),
            ),
        ];
        for a in &cases {
            let full = symmetric_eigenvalues(a)[1];
            let mid = symmetric_middle_eigenvalue(a);
            assert!(close(mid, full, 1e-7), "middle {mid} vs full solve {full}");
        }
        // Diagonal and scalar matrices take the exact select paths.
        let diag = Mat3::from_rows(
            Vec3::new(3.0, 0.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
        );
        assert_eq!(symmetric_middle_eigenvalue(&diag), 2.0);
        let mut ident = Mat3::IDENTITY;
        for i in 0..3 {
            ident.m[i][i] = 2.5;
        }
        assert_eq!(symmetric_middle_eigenvalue(&ident), 2.5);
        assert_eq!(symmetric_middle_eigenvalue(&Mat3::ZERO), 0.0);
    }

    #[test]
    fn pure_shear_has_nonnegative_lambda2() {
        // Plane strain: u = (ax, -ay, 0) — no rotation, no vortex.
        let a = 1.5;
        let j = Mat3::from_rows(
            Vec3::new(a, 0.0, 0.0),
            Vec3::new(0.0, -a, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
        );
        let l2 = lambda2_of_gradient(&j);
        assert!(l2 >= -1e-12, "λ₂ = {l2} should be non-negative");
    }
}
