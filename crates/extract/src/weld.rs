//! Vertex welding and normal computation: turns the triangle soups the
//! extraction commands stream into indexed meshes with per-vertex
//! normals — the representation a rendering front-end (ViSTA FlowLib)
//! actually uploads to the GPU.
//!
//! Welding also enables topological checks: on a closed iso-surface
//! every edge must be shared by exactly two triangles, which the test
//! suite uses to verify that marching tetrahedra produce watertight
//! surfaces away from block boundaries.

use crate::mesh::TriangleSoup;
use std::collections::HashMap;

/// An indexed triangle mesh with per-vertex normals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexedMesh {
    pub positions: Vec<[f32; 3]>,
    /// Vertex index triples.
    pub triangles: Vec<[u32; 3]>,
    /// Area-weighted, normalized per-vertex normals (zero where
    /// degenerate).
    pub normals: Vec<[f32; 3]>,
}

impl IndexedMesh {
    pub fn n_vertices(&self) -> usize {
        self.positions.len()
    }

    pub fn n_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Counts boundary edges (edges used by exactly one triangle) and
    /// non-manifold edges (used by more than two). A closed 2-manifold
    /// has zero of both.
    pub fn edge_defects(&self) -> EdgeDefects {
        let mut edges: HashMap<(u32, u32), u32> = HashMap::new();
        for t in &self.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                let key = (a.min(b), a.max(b));
                *edges.entry(key).or_insert(0) += 1;
            }
        }
        let mut d = EdgeDefects {
            total_edges: edges.len(),
            ..EdgeDefects::default()
        };
        for &c in edges.values() {
            match c {
                1 => d.boundary_edges += 1,
                2 => {}
                _ => d.non_manifold_edges += 1,
            }
        }
        d
    }
}

/// Result of [`IndexedMesh::edge_defects`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeDefects {
    pub total_edges: usize,
    pub boundary_edges: usize,
    pub non_manifold_edges: usize,
}

/// Welds a triangle soup into an indexed mesh, merging vertices that
/// agree within `tolerance` (coordinates are quantized to the tolerance
/// grid). Degenerate triangles (two or more identical welded vertices)
/// are dropped.
pub fn weld(soup: &TriangleSoup, tolerance: f32) -> IndexedMesh {
    assert!(tolerance > 0.0, "tolerance must be positive");
    let inv = 1.0 / tolerance;
    let quantize = |p: &[f32; 3]| -> (i64, i64, i64) {
        (
            (p[0] * inv).round() as i64,
            (p[1] * inv).round() as i64,
            (p[2] * inv).round() as i64,
        )
    };
    let mut index_of: HashMap<(i64, i64, i64), u32> = HashMap::new();
    let mut mesh = IndexedMesh::default();
    let mut tri = [0u32; 3];
    for (n, p) in soup.positions.iter().enumerate() {
        let key = quantize(p);
        let idx = *index_of.entry(key).or_insert_with(|| {
            mesh.positions.push(*p);
            (mesh.positions.len() - 1) as u32
        });
        tri[n % 3] = idx;
        if n % 3 == 2 && tri[0] != tri[1] && tri[1] != tri[2] && tri[0] != tri[2] {
            mesh.triangles.push(tri);
        }
    }
    compute_normals(&mut mesh);
    mesh
}

/// Recomputes area-weighted per-vertex normals in place.
pub fn compute_normals(mesh: &mut IndexedMesh) {
    let mut acc = vec![[0.0f64; 3]; mesh.positions.len()];
    for t in &mesh.triangles {
        let p = |i: u32| {
            let v = mesh.positions[i as usize];
            [v[0] as f64, v[1] as f64, v[2] as f64]
        };
        let (a, b, c) = (p(t[0]), p(t[1]), p(t[2]));
        let u = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
        let v = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
        // Cross product magnitude = 2 × area: natural area weighting.
        let n = [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ];
        for &i in t {
            for k in 0..3 {
                acc[i as usize][k] += n[k];
            }
        }
    }
    mesh.normals = acc
        .into_iter()
        .map(|n| {
            let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
            if len < 1e-30 {
                [0.0, 0.0, 0.0]
            } else {
                [
                    (n[0] / len) as f32,
                    (n[1] / len) as f32,
                    (n[2] / len) as f32,
                ]
            }
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockDims;
    use vira_grid::field::ScalarField;
    use vira_grid::math::Vec3;
    use vira_grid::CurvilinearBlock;

    fn sphere_soup(n: usize, r: f64) -> TriangleSoup {
        let dims = BlockDims::new(n, n, n);
        let grid = CurvilinearBlock::from_fn(0, dims, |i, j, k| {
            Vec3::new(
                2.0 * i as f64 / (n - 1) as f64 - 1.0,
                2.0 * j as f64 / (n - 1) as f64 - 1.0,
                2.0 * k as f64 / (n - 1) as f64 - 1.0,
            )
        });
        let pts = grid.points.clone();
        let field = ScalarField::new(dims, pts.iter().map(|p| p.norm()).collect());
        crate::iso::extract_isosurface(&grid, &field, r).0
    }

    #[test]
    fn welding_shrinks_vertex_count() {
        let soup = sphere_soup(16, 0.6);
        let mesh = weld(&soup, 1e-5);
        assert_eq!(
            mesh.n_triangles() + degenerate_count(&soup),
            soup.n_triangles()
        );
        // Each welded vertex is shared by ~6 triangles on average.
        assert!(mesh.n_vertices() * 2 < soup.positions.len());
        assert_eq!(mesh.normals.len(), mesh.n_vertices());
    }

    fn degenerate_count(soup: &TriangleSoup) -> usize {
        // Triangles collapsing under the weld tolerance.
        soup.n_triangles() - weld(soup, 1e-5).n_triangles()
    }

    #[test]
    fn marching_tetra_sphere_is_watertight() {
        // An iso-surface fully inside the block is a closed 2-manifold:
        // zero boundary edges, zero non-manifold edges after welding.
        let soup = sphere_soup(14, 0.55);
        let mesh = weld(&soup, 1e-6);
        let d = mesh.edge_defects();
        assert_eq!(d.boundary_edges, 0, "open edges: {d:?}");
        assert_eq!(d.non_manifold_edges, 0, "non-manifold: {d:?}");
        assert!(d.total_edges > 0);
    }

    #[test]
    fn sphere_normals_point_radially() {
        let soup = sphere_soup(16, 0.6);
        let mesh = weld(&soup, 1e-6);
        let mut aligned = 0;
        for (p, n) in mesh.positions.iter().zip(&mesh.normals) {
            let len_p = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            let dot = ((p[0] * n[0] + p[1] * n[1] + p[2] * n[2]) / len_p).abs();
            if dot > 0.9 {
                aligned += 1;
            }
        }
        // The vast majority of normals align with the radial direction
        // (sign depends on triangle orientation).
        assert!(
            aligned * 10 >= mesh.n_vertices() * 9,
            "{aligned} of {} aligned",
            mesh.n_vertices()
        );
    }

    #[test]
    fn degenerate_triangles_are_dropped() {
        let mut soup = TriangleSoup::new();
        // A triangle whose vertices weld to a single point.
        soup.push_tri(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1e-9, 0.0, 0.0),
            Vec3::new(0.0, 1e-9, 0.0),
        );
        soup.push_tri(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let mesh = weld(&soup, 1e-5);
        assert_eq!(mesh.n_triangles(), 1);
    }

    #[test]
    fn normals_are_unit_or_zero() {
        let soup = sphere_soup(12, 0.5);
        let mesh = weld(&soup, 1e-6);
        for n in &mesh.normals {
            let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
            assert!(len < 1e-6 || (len - 1.0).abs() < 1e-4, "|n| = {len}");
        }
    }

    #[test]
    fn empty_soup_welds_to_empty_mesh() {
        let mesh = weld(&TriangleSoup::new(), 1e-5);
        assert_eq!(mesh.n_vertices(), 0);
        assert_eq!(mesh.n_triangles(), 0);
        assert_eq!(mesh.edge_defects(), EdgeDefects::default());
    }
}
