//! Marching tetrahedra over hexahedral cells.
//!
//! Each (possibly curvilinear) hexahedral cell is decomposed into six
//! tetrahedra around the main diagonal; the iso-contour of each
//! tetrahedron is triangulated exactly (1 or 2 triangles). Compared to
//! the classic 256-case marching cubes this is topologically unambiguous,
//! at the cost of a constant factor more triangles — no experiment in the
//! paper depends on absolute triangle counts (see DESIGN.md,
//! substitutions).
//!
//! The kernel is allocation-free: the 16 sign configurations of a
//! tetrahedron are resolved through the precomputed [`TET_CASES`] table
//! (lone vertex or two-two split, vertex roles in fixed arrays), so the
//! innermost loop of every extractor touches only the stack.

use crate::mesh::TriangleSoup;
use vira_grid::math::Vec3;

/// The six tetrahedra of a hexahedron, as indices into the canonical
/// corner order of `BlockDims::cell_corner_indices` (0 = (0,0,0) … 7 =
/// (1,1,1)). All six share the main diagonal 0–7 and tile the cell.
pub const CELL_TETRAHEDRA: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 6, 4, 7],
    [0, 4, 5, 7],
    [0, 5, 1, 7],
];

/// The six edges of a tetrahedron as local vertex pairs.
const TET_EDGES: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// One sign configuration of a tetrahedron, indexed by the mask with bit
/// `i` set iff `s[i] > iso`.
#[derive(Debug, Clone, Copy)]
enum TetCase {
    /// No crossing (all above or all at/below).
    Empty,
    /// One vertex separated from the other three: one triangle on the
    /// three edges incident to `lone`. `others` ascending; `lone_above`
    /// tells which side of the surface the lone vertex is on.
    Lone {
        lone: u8,
        others: [u8; 3],
        lone_above: bool,
    },
    /// Two-two split: the four crossing edges form a quad, two triangles.
    /// `inside`/`outside` each ascending.
    Quad { inside: [u8; 2], outside: [u8; 2] },
}

/// All 16 sign configurations. Vertex orderings reproduce exactly the
/// ascending-index enumeration of the original scan-based kernel, so the
/// emitted triangles are bit-identical to it.
const TET_CASES: [TetCase; 16] = {
    use TetCase::*;
    [
        /* 0b0000 */ Empty,
        /* 0b0001 */
        Lone {
            lone: 0,
            others: [1, 2, 3],
            lone_above: true,
        },
        /* 0b0010 */
        Lone {
            lone: 1,
            others: [0, 2, 3],
            lone_above: true,
        },
        /* 0b0011 */
        Quad {
            inside: [0, 1],
            outside: [2, 3],
        },
        /* 0b0100 */
        Lone {
            lone: 2,
            others: [0, 1, 3],
            lone_above: true,
        },
        /* 0b0101 */
        Quad {
            inside: [0, 2],
            outside: [1, 3],
        },
        /* 0b0110 */
        Quad {
            inside: [1, 2],
            outside: [0, 3],
        },
        /* 0b0111 */
        Lone {
            lone: 3,
            others: [0, 1, 2],
            lone_above: false,
        },
        /* 0b1000 */
        Lone {
            lone: 3,
            others: [0, 1, 2],
            lone_above: true,
        },
        /* 0b1001 */
        Quad {
            inside: [0, 3],
            outside: [1, 2],
        },
        /* 0b1010 */
        Quad {
            inside: [1, 3],
            outside: [0, 2],
        },
        /* 0b1011 */
        Lone {
            lone: 2,
            others: [0, 1, 3],
            lone_above: false,
        },
        /* 0b1100 */
        Quad {
            inside: [2, 3],
            outside: [0, 1],
        },
        /* 0b1101 */
        Lone {
            lone: 1,
            others: [0, 2, 3],
            lone_above: false,
        },
        /* 0b1110 */
        Lone {
            lone: 0,
            others: [1, 2, 3],
            lone_above: false,
        },
        /* 0b1111 */ Empty,
    ]
};

#[inline]
fn edge_point(pa: Vec3, pb: Vec3, sa: f64, sb: f64, iso: f64) -> Vec3 {
    // sa and sb straddle iso, so the denominator is non-zero.
    let t = (iso - sa) / (sb - sa);
    pa.lerp(pb, t.clamp(0.0, 1.0))
}

/// Pushes `a b c` with a winding such that the triangle normal points
/// along `toward` (from the above-iso region into the at/below-iso
/// region) — consistent orientation across the whole surface.
#[inline]
fn push_oriented(out: &mut TriangleSoup, a: Vec3, b: Vec3, c: Vec3, toward: Vec3) {
    let n = (b - a).cross(c - a);
    if n.dot(toward) < 0.0 {
        out.push_tri(a, c, b);
    } else {
        out.push_tri(a, b, c);
    }
}

/// Extracts the iso-surface of one tetrahedron into `out`. `p` are vertex
/// positions, `s` the scalar samples. Returns the number of triangles
/// appended (0, 1 or 2).
pub fn contour_tetra(p: &[Vec3; 4], s: &[f64; 4], iso: f64, out: &mut TriangleSoup) -> usize {
    let mask = ((s[0] > iso) as usize)
        | (((s[1] > iso) as usize) << 1)
        | (((s[2] > iso) as usize) << 2)
        | (((s[3] > iso) as usize) << 3);
    match TET_CASES[mask] {
        TetCase::Empty => 0,
        TetCase::Lone {
            lone,
            others,
            lone_above,
        } => {
            let l = lone as usize;
            let [o0, o1, o2] = others.map(|o| o as usize);
            let v0 = edge_point(p[l], p[o0], s[l], s[o0], iso);
            let v1 = edge_point(p[l], p[o1], s[l], s[o1], iso);
            let v2 = edge_point(p[l], p[o2], s[l], s[o2], iso);
            // Normal points away from the above-iso side.
            let centroid_others = (p[o0] + p[o1] + p[o2]) / 3.0;
            let toward = if lone_above {
                centroid_others - p[l]
            } else {
                p[l] - centroid_others
            };
            push_oriented(out, v0, v1, v2, toward);
            1
        }
        TetCase::Quad { inside, outside } => {
            let [a, b] = inside.map(|v| v as usize);
            let [c, d] = outside.map(|v| v as usize);
            // Cyclic order a-c, c-b, b-d, d-a keeps the quad planar-convex
            // in barycentric coordinates.
            let q0 = edge_point(p[a], p[c], s[a], s[c], iso);
            let q1 = edge_point(p[b], p[c], s[b], s[c], iso);
            let q2 = edge_point(p[b], p[d], s[b], s[d], iso);
            let q3 = edge_point(p[a], p[d], s[a], s[d], iso);
            // a, b are above iso; normals point toward the c/d side.
            let toward = (p[c] + p[d] - p[a] - p[b]) * 0.5;
            push_oriented(out, q0, q1, q2, toward);
            push_oriented(out, q0, q2, q3, toward);
            2
        }
    }
}

/// Extracts the iso-surface of one hexahedral cell given its 8 corner
/// positions and scalars (canonical trilinear corner order). Returns the
/// number of triangles appended.
pub fn contour_cell(
    corners: &[Vec3; 8],
    scalars: &[f64; 8],
    iso: f64,
    out: &mut TriangleSoup,
) -> usize {
    // Quick reject: a crossing requires some corner above iso and some
    // at/below it (the inside test is `s > iso`).
    let (mut lo, mut hi) = (scalars[0], scalars[0]);
    for &s in &scalars[1..] {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    if !(hi > iso && lo <= iso) {
        return 0;
    }
    let mut n = 0;
    for tet in &CELL_TETRAHEDRA {
        let p = [
            corners[tet[0]],
            corners[tet[1]],
            corners[tet[2]],
            corners[tet[3]],
        ];
        let s = [
            scalars[tet[0]],
            scalars[tet[1]],
            scalars[tet[2]],
            scalars[tet[3]],
        ];
        n += contour_tetra(&p, &s, iso, out);
    }
    n
}

/// Number of crossed edges of a tetra configuration — exposed for
/// property tests.
pub fn tet_crossing_edges(s: &[f64; 4], iso: f64) -> usize {
    TET_EDGES
        .iter()
        .filter(|&&(a, b)| (s[a] > iso) != (s[b] > iso))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tet() -> [Vec3; 4] {
        [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ]
    }

    fn unit_cell() -> [Vec3; 8] {
        [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        ]
    }

    /// The original scan-based kernel, kept as the oracle: the case table
    /// must reproduce its output bit for bit on every configuration.
    fn contour_tetra_reference(
        p: &[Vec3; 4],
        s: &[f64; 4],
        iso: f64,
        out: &mut TriangleSoup,
    ) -> usize {
        let mut mask = 0usize;
        for (i, &si) in s.iter().enumerate() {
            if si > iso {
                mask |= 1 << i;
            }
        }
        if mask == 0 || mask == 0b1111 {
            return 0;
        }
        let inside: Vec<usize> = (0..4).filter(|&i| mask & (1 << i) != 0).collect();
        match inside.len() {
            1 | 3 => {
                let lone = if inside.len() == 1 {
                    inside[0]
                } else {
                    (0..4)
                        .find(|i| !inside.contains(i))
                        .expect("one outside vertex")
                };
                let others: Vec<usize> = (0..4).filter(|&i| i != lone).collect();
                let v: Vec<Vec3> = others
                    .iter()
                    .map(|&o| edge_point(p[lone], p[o], s[lone], s[o], iso))
                    .collect();
                let centroid_others = (p[others[0]] + p[others[1]] + p[others[2]]) / 3.0;
                let toward = if s[lone] > iso {
                    centroid_others - p[lone]
                } else {
                    p[lone] - centroid_others
                };
                push_oriented(out, v[0], v[1], v[2], toward);
                1
            }
            2 => {
                let (a, b) = (inside[0], inside[1]);
                let outside: Vec<usize> = (0..4).filter(|&i| i != a && i != b).collect();
                let (c, d) = (outside[0], outside[1]);
                let q0 = edge_point(p[a], p[c], s[a], s[c], iso);
                let q1 = edge_point(p[b], p[c], s[b], s[c], iso);
                let q2 = edge_point(p[b], p[d], s[b], s[d], iso);
                let q3 = edge_point(p[a], p[d], s[a], s[d], iso);
                let toward = (p[c] + p[d] - p[a] - p[b]) * 0.5;
                push_oriented(out, q0, q1, q2, toward);
                push_oriented(out, q0, q2, q3, toward);
                2
            }
            _ => unreachable!("mask 0 and 15 handled above"),
        }
    }

    #[test]
    fn case_table_matches_reference_on_all_sixteen_masks() {
        let p = unit_tet();
        for mask in 0..16usize {
            let s: [f64; 4] = std::array::from_fn(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 });
            let mut fast = TriangleSoup::new();
            let mut slow = TriangleSoup::new();
            let nf = contour_tetra(&p, &s, 0.5, &mut fast);
            let ns = contour_tetra_reference(&p, &s, 0.5, &mut slow);
            assert_eq!(nf, ns, "triangle count differs on mask {mask:#06b}");
            assert_eq!(fast, slow, "geometry differs on mask {mask:#06b}");
        }
    }

    #[test]
    fn case_table_matches_reference_on_skewed_scalars() {
        // Non-symmetric scalars and a skewed tetra exercise the
        // interpolation parameters and orientation logic.
        let p = [
            Vec3::new(0.1, -0.2, 0.3),
            Vec3::new(1.4, 0.2, -0.1),
            Vec3::new(-0.3, 1.1, 0.4),
            Vec3::new(0.2, 0.3, 1.7),
        ];
        let scalar_sets = [
            [0.9, 0.1, 0.4, 0.2],
            [0.1, 0.9, 0.8, 0.2],
            [0.7, 0.6, 0.1, 0.9],
            [0.2, 0.8, 0.3, 0.6],
        ];
        for s in &scalar_sets {
            for iso in [0.25, 0.5, 0.65] {
                let mut fast = TriangleSoup::new();
                let mut slow = TriangleSoup::new();
                assert_eq!(
                    contour_tetra(&p, s, iso, &mut fast),
                    contour_tetra_reference(&p, s, iso, &mut slow),
                );
                assert_eq!(fast, slow, "geometry differs for {s:?} at {iso}");
            }
        }
    }

    #[test]
    fn tetra_all_inside_or_outside_yields_nothing() {
        let p = unit_tet();
        let mut out = TriangleSoup::new();
        assert_eq!(contour_tetra(&p, &[1.0; 4], 0.5, &mut out), 0);
        assert_eq!(contour_tetra(&p, &[0.0; 4], 0.5, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn tetra_single_vertex_case_yields_one_triangle() {
        let p = unit_tet();
        let s = [1.0, 0.0, 0.0, 0.0];
        let mut out = TriangleSoup::new();
        assert_eq!(contour_tetra(&p, &s, 0.5, &mut out), 1);
        assert_eq!(out.n_triangles(), 1);
        // All vertices at midpoints of edges from vertex 0.
        for v in &out.positions {
            let sum = v[0] + v[1] + v[2];
            assert!((sum - 0.5).abs() < 1e-6, "midpoint of an edge from origin");
        }
    }

    #[test]
    fn tetra_three_inside_mirrors_one_inside() {
        let p = unit_tet();
        let mut a = TriangleSoup::new();
        let mut b = TriangleSoup::new();
        contour_tetra(&p, &[1.0, 0.0, 0.0, 0.0], 0.5, &mut a);
        contour_tetra(&p, &[0.0, 1.0, 1.0, 1.0], 0.5, &mut b);
        assert_eq!(a.n_triangles(), 1);
        assert_eq!(b.n_triangles(), 1);
        // Same cut plane: identical vertex sets (up to order).
        let mut av: Vec<_> = a.positions.clone();
        let mut bv: Vec<_> = b.positions.clone();
        let key = |p: &[f32; 3]| (p[0].to_bits(), p[1].to_bits(), p[2].to_bits());
        av.sort_by_key(key);
        bv.sort_by_key(key);
        assert_eq!(av, bv);
    }

    #[test]
    fn tetra_two_two_case_yields_quad() {
        let p = unit_tet();
        let s = [1.0, 1.0, 0.0, 0.0];
        let mut out = TriangleSoup::new();
        assert_eq!(contour_tetra(&p, &s, 0.5, &mut out), 2);
        assert_eq!(out.n_triangles(), 2);
        assert!(out.area() > 0.0);
    }

    #[test]
    fn vertices_interpolate_to_iso_value() {
        // For scalars linear in position (s = x), every emitted vertex
        // must satisfy x == iso exactly.
        let p = unit_cell();
        let s = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]; // s = x
        let mut out = TriangleSoup::new();
        contour_cell(&p, &s, 0.25, &mut out);
        assert!(!out.is_empty());
        for v in &out.positions {
            assert!((v[0] - 0.25).abs() < 1e-6, "x = {}", v[0]);
        }
    }

    #[test]
    fn planar_cut_area_is_unit() {
        // s = z, iso = 0.5 cuts the unit cube in a unit square.
        let p = unit_cell();
        let s = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let mut out = TriangleSoup::new();
        contour_cell(&p, &s, 0.5, &mut out);
        assert!((out.area() - 1.0).abs() < 1e-9, "area = {}", out.area());
    }

    #[test]
    fn no_crossing_cell_is_skipped() {
        let p = unit_cell();
        let mut out = TriangleSoup::new();
        assert_eq!(contour_cell(&p, &[2.0; 8], 0.5, &mut out), 0);
    }

    #[test]
    fn cell_tetrahedra_tile_the_cell() {
        // Volumes of the 6 tets of the unit cube sum to 1.
        let p = unit_cell();
        let mut vol = 0.0;
        for tet in &CELL_TETRAHEDRA {
            let a = p[tet[1]] - p[tet[0]];
            let b = p[tet[2]] - p[tet[0]];
            let c = p[tet[3]] - p[tet[0]];
            vol += a.cross(b).dot(c).abs() / 6.0;
        }
        assert!((vol - 1.0).abs() < 1e-12, "total volume {vol}");
    }

    #[test]
    fn crossing_edge_count_matches_case() {
        assert_eq!(tet_crossing_edges(&[1.0, 0.0, 0.0, 0.0], 0.5), 3);
        assert_eq!(tet_crossing_edges(&[1.0, 1.0, 0.0, 0.0], 0.5), 4);
        assert_eq!(tet_crossing_edges(&[1.0; 4], 0.5), 0);
    }
}
