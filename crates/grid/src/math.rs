//! Small dense linear-algebra primitives used throughout the workspace.
//!
//! Only the operations needed by curvilinear-grid post-processing are
//! provided: 3-vectors, 3×3 matrices, and the handful of products the
//! velocity-gradient-tensor computation requires.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-component vector of `f64`, used for both physical positions and
/// velocities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Builds a vector with all three components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Returns the unit vector in the same direction, or `None` for a
    /// (near-)zero vector.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Linear interpolation: `self + t * (o - self)`.
    #[inline]
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Largest absolute component.
    #[inline]
    pub fn max_abs(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }

    /// The components as an array, `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A row-major 3×3 matrix of `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    pub const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };

    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Builds a matrix from three row vectors.
    #[inline]
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Mat3 {
        Mat3 {
            m: [r0.to_array(), r1.to_array(), r2.to_array()],
        }
    }

    /// Builds a matrix from three column vectors.
    #[inline]
    pub fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Mat3 {
        Mat3 {
            m: [[c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z]],
        }
    }

    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    #[inline]
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    #[inline]
    pub fn transpose(&self) -> Mat3 {
        Mat3::from_rows(self.col(0), self.col(1), self.col(2))
    }

    #[inline]
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix inverse via the adjugate; `None` if the determinant is
    /// numerically zero.
    pub fn inverse(&self) -> Option<Mat3> {
        let d = self.det();
        if d.abs() < 1e-300 {
            return None;
        }
        Some(self.scaled_adjugate(1.0 / d))
    }

    /// The adjugate scaled by `inv_d` — the branch-free core of
    /// [`Mat3::inverse`] (`inv_d = 1/det` gives the inverse). Exposed so
    /// lane kernels can fold the singularity check into a value select
    /// while computing the exact same entry expressions; with a
    /// non-finite `inv_d` the entries are garbage the caller must
    /// discard.
    #[inline]
    pub fn scaled_adjugate(&self, inv_d: f64) -> Mat3 {
        let m = &self.m;
        let mut r = [[0.0; 3]; 3];
        r[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_d;
        r[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_d;
        r[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_d;
        r[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_d;
        r[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_d;
        r[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_d;
        r[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_d;
        r[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_d;
        r[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_d;
        Mat3 { m: r }
    }

    /// Matrix-vector product.
    #[inline]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }

    /// Matrix-matrix product.
    #[inline]
    pub fn mul_mat(&self, o: &Mat3) -> Mat3 {
        let mut r = [[0.0; 3]; 3];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.row(i).dot(o.col(j));
            }
        }
        Mat3 { m: r }
    }

    /// Symmetric part `(A + Aᵀ) / 2`.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    pub fn symmetric_part(&self) -> Mat3 {
        let t = self.transpose();
        let mut r = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                r[i][j] = 0.5 * (self.m[i][j] + t.m[i][j]);
            }
        }
        Mat3 { m: r }
    }

    /// Anti-symmetric part `(A - Aᵀ) / 2`.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    pub fn antisymmetric_part(&self) -> Mat3 {
        let t = self.transpose();
        let mut r = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                r[i][j] = 0.5 * (self.m[i][j] - t.m[i][j]);
            }
        }
        Mat3 { m: r }
    }

    /// Sum of the diagonal entries.
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Element-wise sum.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    pub fn add_mat(&self, o: &Mat3) -> Mat3 {
        let mut r = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                r[i][j] = self.m[i][j] + o.m[i][j];
            }
        }
        Mat3 { m: r }
    }

    /// Largest absolute entry (max norm), useful for tolerance checks.
    pub fn max_abs(&self) -> f64 {
        self.m
            .iter()
            .flatten()
            .fold(0.0_f64, |acc, &v| acc.max(v.abs()))
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// An "empty" box that any point will expand.
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f64::INFINITY),
        max: Vec3::splat(f64::NEG_INFINITY),
    };

    pub fn new(min: Vec3, max: Vec3) -> Aabb {
        Aabb { min, max }
    }

    /// Builds the bounding box of a point set; `EMPTY` for no points.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(pts: I) -> Aabb {
        let mut b = Aabb::EMPTY;
        for p in pts {
            b.expand(p);
        }
        b
    }

    pub fn expand(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grows the box by `eps` on every side.
    pub fn inflate(&self, eps: f64) -> Aabb {
        Aabb::new(self.min - Vec3::splat(eps), self.max + Vec3::splat(eps))
    }

    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    pub fn intersects(&self, o: &Aabb) -> bool {
        self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    pub fn diagonal(&self) -> Vec3 {
        self.max - self.min
    }

    /// True if `min <= max` holds component-wise (the box holds at least one
    /// point).
    pub fn is_valid(&self) -> bool {
        self.min.x <= self.max.x && self.min.y <= self.max.y && self.min.z <= self.max.z
    }

    /// Squared distance from `p` to the closest point of the box (0 inside).
    pub fn distance_sq(&self, p: Vec3) -> f64 {
        let mut d = 0.0;
        for i in 0..3 {
            let v = p[i];
            if v < self.min[i] {
                d += (self.min[i] - v) * (self.min[i] - v);
            } else if v > self.max[i] {
                d += (v - self.max[i]) * (v - self.max[i]);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn vec3_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_close(a.dot(b), 12.0, 1e-12);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert_close(c.dot(a), 0.0, 1e-12);
        assert_close(c.dot(b), 0.0, 1e-12);
    }

    #[test]
    fn vec3_normalized() {
        let v = Vec3::new(3.0, 0.0, 4.0).normalized().unwrap();
        assert_close(v.norm(), 1.0, 1e-12);
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn vec3_lerp_endpoints() {
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(3.0, 5.0, -1.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(2.0, 3.0, 0.0));
    }

    #[test]
    fn vec3_index() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[2], 3.0);
        v[1] = 9.0;
        assert_eq!(v.y, 9.0);
    }

    #[test]
    #[should_panic]
    fn vec3_index_out_of_range() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn mat3_identity_inverse() {
        let i = Mat3::IDENTITY;
        assert_eq!(i.inverse().unwrap(), i);
        assert_close(i.det(), 1.0, 1e-15);
    }

    #[test]
    fn mat3_inverse_roundtrip() {
        let a = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.5),
            Vec3::new(-1.0, 3.0, 2.0),
            Vec3::new(0.0, 1.0, 4.0),
        );
        let inv = a.inverse().unwrap();
        let prod = a.mul_mat(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(prod.m[i][j], expect, 1e-12);
            }
        }
    }

    #[test]
    fn mat3_singular_has_no_inverse() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(2.0, 4.0, 6.0),
            Vec3::new(0.0, 1.0, 1.0),
        );
        assert!(a.inverse().is_none());
    }

    #[test]
    fn mat3_sym_antisym_decomposition() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        let s = a.symmetric_part();
        let q = a.antisymmetric_part();
        // S + Q == A
        for i in 0..3 {
            for j in 0..3 {
                assert_close(s.m[i][j] + q.m[i][j], a.m[i][j], 1e-12);
                assert_close(s.m[i][j], s.m[j][i], 1e-12);
                assert_close(q.m[i][j], -q.m[j][i], 1e-12);
            }
        }
    }

    #[test]
    fn mat3_mul_vec_matches_rows() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
        );
        assert_eq!(
            a.mul_vec(Vec3::new(1.0, 1.0, 1.0)),
            Vec3::new(1.0, 2.0, 3.0)
        );
    }

    #[test]
    fn aabb_contains_and_intersects() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(!b.contains(Vec3::new(1.5, 0.5, 0.5)));
        let c = Aabb::new(Vec3::splat(0.9), Vec3::splat(2.0));
        assert!(b.intersects(&c));
        let d = Aabb::new(Vec3::splat(1.1), Vec3::splat(2.0));
        assert!(!b.intersects(&d));
    }

    #[test]
    fn aabb_from_points_and_distance() {
        let b = Aabb::from_points([Vec3::ZERO, Vec3::new(2.0, 1.0, 0.0)]);
        assert!(b.is_valid());
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(2.0, 1.0, 0.0));
        assert_close(b.distance_sq(Vec3::new(3.0, 0.5, 0.0)), 1.0, 1e-12);
        assert_close(b.distance_sq(b.center()), 0.0, 1e-12);
        assert!(!Aabb::EMPTY.is_valid());
    }
}
