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
//! The kernel is allocation-free and resolves a whole cell with one
//! lookup: `CELL_CASES` holds, for each of the 256 sign masks of the
//! eight corners, the cell's crossed *directed* edges (each interpolated
//! once), one orientation reference per contributing tetrahedron, and
//! the triangles as slots into both. The table is built at compile time
//! by running the six [`CELL_TETRAHEDRA`] through the 16 sign cases of
//! one tetrahedron (`TET_CASES`), so its triangles are those of the
//! per-tetrahedron kernel, bit for bit and in the same order. That
//! kernel stays as [`contour_cell_oracle`], the reference the tests
//! compare against.

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
///
/// Always inlined: with its two pushes LLVM otherwise keeps it a call
/// per triangle, and pushing once after selecting the winding reads
/// ≈ 2 % slower than branching to either push.
#[inline(always)]
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
fn contour_tetra(p: &[Vec3; 4], s: &[f64; 4], iso: f64, out: &mut TriangleSoup) -> usize {
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

/// The most directed edges, orientation references and triangles one
/// cell mask needs (20, 6 and 12); a table that needed more would not
/// compile.
const MAX_EDGES: usize = 20;
const MAX_REFS: usize = 6;
const MAX_TRIS: usize = 12;

/// The triangulation of one cell sign mask. Every index is a corner of
/// the canonical order, or a slot of this entry.
struct CellCase {
    /// The crossed edges as `[from, to]`, in first-use order and each
    /// listed once: lone vertex → other, and above → below for a quad's
    /// four edges — the direction `contour_tetra` interpolates in. An
    /// edge two tetrahedra orient oppositely is listed once per
    /// direction, since the two interpolations may differ in their bits.
    edges: [[u8; 2]; MAX_EDGES],
    /// One orientation reference per contributing tetrahedron, grouped
    /// by how it is computed: `[lone, o0, o1, o2]` with the lone vertex
    /// above iso (`..n_above`), then at or below it (`..n_lone`), then
    /// quads as `[a, b, c, d]` with `a`, `b` above iso (`..n_refs`).
    refs: [[u8; 4]; MAX_REFS],
    /// The triangles in the order the tetrahedra emit them: three edge
    /// slots, then a reference slot.
    tris: [[u8; 4]; MAX_TRIS],
    n_edges: u8,
    n_above: u8,
    n_lone: u8,
    n_refs: u8,
    n_tris: u8,
}

/// One entry per cell mask, bit `i` set iff corner `i` lies above iso.
static CELL_CASES: [CellCase; 256] = {
    let mut cases = [CellCase::EMPTY; 256];
    let mut mask = 0;
    while mask < 256 {
        cases[mask] = CellCase::build(mask);
        mask += 1;
    }
    cases
};

impl CellCase {
    const EMPTY: CellCase = CellCase {
        edges: [[0; 2]; MAX_EDGES],
        refs: [[0; 4]; MAX_REFS],
        tris: [[0; 4]; MAX_TRIS],
        n_edges: 0,
        n_above: 0,
        n_lone: 0,
        n_refs: 0,
        n_tris: 0,
    };

    /// Runs the six tetrahedra of a cell with sign `mask` through
    /// `TET_CASES` as `contour_tetra` does, and records what it would
    /// compute instead of computing it.
    const fn build(mask: usize) -> CellCase {
        let mut case = CellCase::EMPTY;
        // References in tetrahedron order; `kind` 0 is a lone vertex
        // above iso, 1 one at or below it, 2 a quad.
        let mut refs = [[0u8; 4]; MAX_REFS];
        let mut kind = [0u8; MAX_REFS];
        let mut n_refs = 0;
        let mut t = 0;
        while t < CELL_TETRAHEDRA.len() {
            let mut tet = [0u8; 4];
            let mut local = 0;
            let mut v = 0;
            while v < 4 {
                tet[v] = CELL_TETRAHEDRA[t][v] as u8;
                local |= ((mask >> tet[v]) & 1) << v;
                v += 1;
            }
            let r = n_refs as u8;
            match TET_CASES[local] {
                TetCase::Empty => {}
                TetCase::Lone {
                    lone,
                    others: [o0, o1, o2],
                    lone_above,
                } => {
                    let [l, o0, o1, o2] = [
                        tet[lone as usize],
                        tet[o0 as usize],
                        tet[o1 as usize],
                        tet[o2 as usize],
                    ];
                    let v0 = case.edge_slot(l, o0);
                    let v1 = case.edge_slot(l, o1);
                    let v2 = case.edge_slot(l, o2);
                    case.push_tri([v0, v1, v2, r]);
                    refs[n_refs] = [l, o0, o1, o2];
                    kind[n_refs] = if lone_above { 0 } else { 1 };
                    n_refs += 1;
                }
                TetCase::Quad {
                    inside: [a, b],
                    outside: [c, d],
                } => {
                    let [a, b, c, d] = [
                        tet[a as usize],
                        tet[b as usize],
                        tet[c as usize],
                        tet[d as usize],
                    ];
                    let q0 = case.edge_slot(a, c);
                    let q1 = case.edge_slot(b, c);
                    let q2 = case.edge_slot(b, d);
                    let q3 = case.edge_slot(a, d);
                    case.push_tri([q0, q1, q2, r]);
                    case.push_tri([q0, q2, q3, r]);
                    refs[n_refs] = [a, b, c, d];
                    kind[n_refs] = 2;
                    n_refs += 1;
                }
            }
            t += 1;
        }
        // Group the references by kind; each triangle follows its own.
        let mut slot = [0u8; MAX_REFS];
        let mut next = 0;
        let mut k = 0;
        while k < 3 {
            let mut r = 0;
            while r < n_refs {
                if kind[r] == k {
                    case.refs[next] = refs[r];
                    slot[r] = next as u8;
                    next += 1;
                }
                r += 1;
            }
            match k {
                0 => case.n_above = next as u8,
                1 => case.n_lone = next as u8,
                _ => case.n_refs = next as u8,
            }
            k += 1;
        }
        let mut i = 0;
        while i < case.n_tris as usize {
            case.tris[i][3] = slot[case.tris[i][3] as usize];
            i += 1;
        }
        case
    }

    /// The slot of the directed edge `from → to`, appended on first use.
    const fn edge_slot(&mut self, from: u8, to: u8) -> u8 {
        let mut e = 0;
        while e < self.n_edges as usize {
            if self.edges[e][0] == from && self.edges[e][1] == to {
                return e as u8;
            }
            e += 1;
        }
        self.edges[e] = [from, to];
        self.n_edges += 1;
        e as u8
    }

    const fn push_tri(&mut self, tri: [u8; 4]) {
        self.tris[self.n_tris as usize] = tri;
        self.n_tris += 1;
    }
}

/// Quick reject: a crossing requires some corner above iso and some
/// at/below it (the inside test is `s > iso`).
#[inline]
fn straddles(scalars: &[f64; 8], iso: f64) -> bool {
    let (mut lo, mut hi) = (scalars[0], scalars[0]);
    for &s in &scalars[1..] {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    hi > iso && lo <= iso
}

/// Extracts the iso-surface of one hexahedral cell given its 8 corner
/// positions and scalars (canonical trilinear corner order). Returns the
/// number of triangles appended.
///
/// One lookup in `CELL_CASES` by the corners' sign mask gives the
/// cell's crossed edges, interpolated once each, its orientation
/// references and its triangles: the same triangles, in the same order
/// and bit for bit, as [`contour_cell_oracle`] emits tetrahedron by
/// tetrahedron.
pub fn contour_cell(
    corners: &[Vec3; 8],
    scalars: &[f64; 8],
    iso: f64,
    out: &mut TriangleSoup,
) -> usize {
    if !straddles(scalars, iso) {
        return 0;
    }
    let mut mask = 0;
    for (i, &s) in scalars.iter().enumerate() {
        mask |= usize::from(s > iso) << i;
    }
    let case = &CELL_CASES[mask];
    let corner = |c: u8| corners[usize::from(c)];
    let scalar = |c: u8| scalars[usize::from(c)];

    let mut verts = [Vec3::default(); MAX_EDGES];
    let edges = &case.edges[..usize::from(case.n_edges)];
    for (v, &[a, b]) in verts.iter_mut().zip(edges) {
        *v = edge_point(corner(a), corner(b), scalar(a), scalar(b), iso);
    }

    // The references, each with the operations `contour_tetra` uses.
    let mut toward = [Vec3::default(); MAX_REFS];
    let [n_above, n_lone, n_refs] = [case.n_above, case.n_lone, case.n_refs].map(usize::from);
    let (lone, quads) = case.refs[..n_refs].split_at(n_lone);
    let (lone_toward, quad_toward) = toward.split_at_mut(n_lone);
    for (r, (t, &[l, o0, o1, o2])) in lone_toward.iter_mut().zip(lone).enumerate() {
        let centroid_others = (corner(o0) + corner(o1) + corner(o2)) / 3.0;
        *t = if r < n_above {
            centroid_others - corner(l)
        } else {
            corner(l) - centroid_others
        };
    }
    for (t, &[a, b, c, d]) in quad_toward.iter_mut().zip(quads) {
        *t = (corner(c) + corner(d) - corner(a) - corner(b)) * 0.5;
    }

    let n_tris = usize::from(case.n_tris);
    for tri in &case.tris[..n_tris] {
        let [v0, v1, v2, r] = tri.map(usize::from);
        push_oriented(out, verts[v0], verts[v1], verts[v2], toward[r]);
    }
    n_tris
}

/// The per-tetrahedron kernel [`contour_cell`] replaced: each of the six
/// tetrahedra resolved through `TET_CASES` on its own, every edge
/// interpolated once per tetrahedron that crosses it. Kept as the
/// reference the table kernel is tested against, and run by
/// `extract_isosurface_oracle`.
#[doc(hidden)]
pub fn contour_cell_oracle(
    corners: &[Vec3; 8],
    scalars: &[f64; 8],
    iso: f64,
    out: &mut TriangleSoup,
) -> usize {
    if !straddles(scalars, iso) {
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
        let mut av: Vec<_> = a.positions.to_vec();
        let mut bv: Vec<_> = b.positions.to_vec();
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

    /// The bits of every vertex, for comparisons that tell −0.0 from 0.0.
    fn bits(soup: &TriangleSoup) -> Vec<[u32; 3]> {
        soup.positions.iter().map(|v| v.map(f32::to_bits)).collect()
    }

    /// The value halfway between `x` rounded to `f32` and the next `f32`
    /// away from zero: exact in `f64`, a rounding tie in `f32`.
    fn f32_tie(x: f64) -> f64 {
        let f = x as f32;
        let next = f32::from_bits(f.to_bits() + 1);
        (f64::from(f) + f64::from(next)) / 2.0
    }

    #[test]
    fn cell_table_matches_the_per_tetra_kernel_on_all_256_masks() {
        let mut g = vira_testkit::Gen::new(0x7e7a_ce11);
        let cube = unit_cell();
        for mask in 0..256usize {
            let above = |c: usize| mask & (1 << c) != 0;
            for variant in 0..12 {
                let iso = g.f64_in(-2.0, 2.0);
                let at_iso = (5..11).contains(&variant);
                let mut corners: [Vec3; 8] = std::array::from_fn(|c| {
                    let mut jitter = |x: f64| x + g.f64_in(-0.3, 0.3);
                    let p = Vec3::new(jitter(cube[c].x), jitter(cube[c].y), jitter(cube[c].z));
                    match at_iso && !above(c) {
                        true => Vec3::new(f32_tie(p.x), f32_tie(p.y), f32_tie(p.z)),
                        false => p,
                    }
                });
                if variant == 11 {
                    corners = [corners[0]; 8];
                }
                // Variants 0–4: scalars strictly on their side. 5–10: the
                // corners at or below iso exactly at iso and on `f32`
                // ties, so a vertex interpolated toward such a corner
                // lands on it, and one interpolated from the other end
                // may miss it by an ulp, which the tie turns into another
                // `f32`: an edge taken in the wrong direction shows in the
                // bits. 11: all eight corners on one point.
                let scalars: [f64; 8] = std::array::from_fn(|c| match above(c) {
                    true => iso + g.f64_in(1e-9, 1.0),
                    false if at_iso => iso,
                    false => iso - g.f64_in(0.0, 1.0),
                });
                let (mut table, mut oracle) = (TriangleSoup::new(), TriangleSoup::new());
                let n = contour_cell(&corners, &scalars, iso, &mut table);
                let n_oracle = contour_cell_oracle(&corners, &scalars, iso, &mut oracle);
                let at = format!("mask {mask:#010b}, variant {variant}");
                assert_eq!(n, n_oracle, "{at}");
                assert_eq!(n, table.n_triangles(), "{at}");
                assert_eq!(bits(&table), bits(&oracle), "{at}");
                assert_eq!(n == 0, mask == 0 || mask == 0xff, "{at}");
            }
        }
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
}
