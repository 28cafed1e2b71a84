//! Block faces and inter-block interface matching.
//!
//! Multi-block CFD grids abut along faces; knowing which face of which
//! block coincides with which neighbour is what makes features
//! continuous across block boundaries (and what a ghost-layer exchange
//! would be built on). These utilities extract the six logical faces of
//! a block and detect point-coincident interfaces — used by the test
//! suite to prove the synthetic datasets tile their domains without gaps
//! or overlaps.

use crate::block::CurvilinearBlock;
use crate::math::Vec3;

/// The six logical faces of a structured block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    IMin,
    IMax,
    JMin,
    JMax,
    KMin,
    KMax,
}

impl Face {
    pub const ALL: [Face; 6] = [
        Face::IMin,
        Face::IMax,
        Face::JMin,
        Face::JMax,
        Face::KMin,
        Face::KMax,
    ];

    /// The face on the opposite side of the block.
    pub fn opposite(self) -> Face {
        match self {
            Face::IMin => Face::IMax,
            Face::IMax => Face::IMin,
            Face::JMin => Face::JMax,
            Face::JMax => Face::JMin,
            Face::KMin => Face::KMax,
            Face::KMax => Face::KMin,
        }
    }
}

/// Dimensions `(n1, n2)` of a face's point lattice.
pub fn face_dims(block: &CurvilinearBlock, face: Face) -> (usize, usize) {
    let d = block.dims;
    match face {
        Face::IMin | Face::IMax => (d.nj, d.nk),
        Face::JMin | Face::JMax => (d.ni, d.nk),
        Face::KMin | Face::KMax => (d.ni, d.nj),
    }
}

/// The physical points of a face, ordered `(a, b)` with `a` fastest.
pub fn face_points(block: &CurvilinearBlock, face: Face) -> Vec<Vec3> {
    let d = block.dims;
    let (n1, n2) = face_dims(block, face);
    let mut out = Vec::with_capacity(n1 * n2);
    for b in 0..n2 {
        for a in 0..n1 {
            let p = match face {
                Face::IMin => block.point(0, a, b),
                Face::IMax => block.point(d.ni - 1, a, b),
                Face::JMin => block.point(a, 0, b),
                Face::JMax => block.point(a, d.nj - 1, b),
                Face::KMin => block.point(a, b, 0),
                Face::KMax => block.point(a, b, d.nk - 1),
            };
            out.push(p);
        }
    }
    out
}

/// Block point index of face-lattice position `(a, b)` at `depth`
/// layers inward from `face` (depth 0 = on the face itself).
pub fn face_lattice_point(
    block: &CurvilinearBlock,
    face: Face,
    a: usize,
    b: usize,
    depth: usize,
) -> usize {
    let d = block.dims;
    match face {
        Face::IMin => d.point_index(depth, a, b),
        Face::IMax => d.point_index(d.ni - 1 - depth, a, b),
        Face::JMin => d.point_index(a, depth, b),
        Face::JMax => d.point_index(a, d.nj - 1 - depth, b),
        Face::KMin => d.point_index(a, b, depth),
        Face::KMax => d.point_index(a, b, d.nk - 1 - depth),
    }
}

/// For every face-lattice position of `(blk_a, face_a)` (in
/// [`face_points`] order), the matching face-lattice flat index of
/// `(blk_b, face_b)` — the index correspondence a ghost-layer exchange
/// needs when two blocks index their shared face differently. `None`
/// when any point has no counterpart within `tol`.
pub fn face_correspondence(
    blk_a: &CurvilinearBlock,
    face_a: Face,
    blk_b: &CurvilinearBlock,
    face_b: Face,
    tol: f64,
) -> Option<Vec<usize>> {
    let pa = face_points(blk_a, face_a);
    let pb = face_points(blk_b, face_b);
    if pa.len() != pb.len() {
        return None;
    }
    let tol2 = tol * tol;
    let mut map = Vec::with_capacity(pa.len());
    for p in &pa {
        let (best, d2) = pb
            .iter()
            .enumerate()
            .map(|(n, q)| (n, (*p - *q).norm_sq()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        if d2 > tol2 {
            return None;
        }
        map.push(best);
    }
    Some(map)
}

/// A detected point-coincident interface between two blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interface {
    pub face_a: Face,
    pub face_b: Face,
    /// Largest point-to-closest-point distance across the interface.
    pub max_mismatch: f64,
}

/// Compares two faces as point *sets* (order-insensitive — abutting
/// blocks may index their shared face differently). Returns the largest
/// nearest-neighbour distance, or `None` when the lattices differ in
/// size.
fn face_set_distance(a: &[Vec3], b: &[Vec3]) -> Option<f64> {
    if a.len() != b.len() || a.is_empty() {
        return None;
    }
    // Face lattices are small (≤ a few hundred points at bench scales):
    // quadratic nearest-neighbour search is fine and dependency-free.
    let mut worst = 0.0f64;
    for p in a {
        let best = b
            .iter()
            .map(|q| (*p - *q).norm_sq())
            .fold(f64::INFINITY, f64::min);
        worst = worst.max(best.sqrt());
    }
    Some(worst)
}

/// Finds a face of `a` and a face of `b` whose point sets coincide
/// within `tol`. Returns the best-matching pair, or `None` when the
/// blocks do not share a full face.
pub fn matching_interface(
    a: &CurvilinearBlock,
    b: &CurvilinearBlock,
    tol: f64,
) -> Option<Interface> {
    let mut best: Option<Interface> = None;
    for fa in Face::ALL {
        let pa = face_points(a, fa);
        for fb in Face::ALL {
            if face_dims(a, fa) != face_dims(b, fb)
                && face_dims(a, fa) != {
                    let (x, y) = face_dims(b, fb);
                    (y, x)
                }
            {
                continue;
            }
            let pb = face_points(b, fb);
            if let Some(d) = face_set_distance(&pa, &pb) {
                if d <= tol && best.is_none_or(|i| d < i.max_mismatch) {
                    best = Some(Interface {
                        face_a: fa,
                        face_b: fb,
                        max_mismatch: d,
                    });
                }
            }
        }
    }
    best
}

/// Verifies that every neighbouring block pair of a dataset (per its
/// topology) shares a point-coincident interface. Returns the pairs that
/// do **not** match — empty means the dataset tiles cleanly.
pub fn unmatched_interfaces(
    ds: &crate::synth::SyntheticDataset,
    topo: &crate::topology::BlockTopology,
    tol: f64,
) -> Vec<(u32, u32)> {
    let mut bad = Vec::new();
    for a in 0..ds.spec.n_blocks {
        for &b in topo.neighbors(a) {
            if b <= a {
                continue;
            }
            let ba = ds.block_geometry(a);
            let bb = ds.block_geometry(b);
            // Diagonal neighbours (AABB contact without a shared face)
            // are fine; only flag pairs that share *many* points but no
            // full face.
            let shared = face_points(ba, Face::ALL[0]).len(); // lattice size
            let _ = shared;
            if matching_interface(ba, bb, tol).is_none() && shares_an_edge(ba, bb, tol) {
                bad.push((a, b));
            }
        }
    }
    bad
}

/// True when the blocks share at least one full lattice row of points —
/// distinguishes genuine face-neighbours from diagonal AABB contacts.
fn shares_an_edge(a: &CurvilinearBlock, b: &CurvilinearBlock, tol: f64) -> bool {
    let pa = face_points(a, Face::JMax);
    let pb: Vec<Vec3> = Face::ALL.iter().flat_map(|&f| face_points(b, f)).collect();
    let mut matches = 0;
    for p in &pa {
        if pb.iter().any(|q| (*p - *q).norm() <= tol) {
            matches += 1;
        }
    }
    matches * 2 >= pa.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDims;
    use crate::synth;
    use crate::topology::topology_of;

    fn unit_box(offset: Vec3, n: usize) -> CurvilinearBlock {
        CurvilinearBlock::from_fn(0, BlockDims::new(n, n, n), move |i, j, k| {
            offset
                + Vec3::new(
                    i as f64 / (n - 1) as f64,
                    j as f64 / (n - 1) as f64,
                    k as f64 / (n - 1) as f64,
                )
        })
    }

    #[test]
    fn face_dims_and_point_counts() {
        let b = unit_box(Vec3::ZERO, 4);
        for f in Face::ALL {
            let (n1, n2) = face_dims(&b, f);
            assert_eq!(face_points(&b, f).len(), n1 * n2);
        }
    }

    #[test]
    fn face_points_lie_on_the_face() {
        let b = unit_box(Vec3::ZERO, 5);
        for p in face_points(&b, Face::IMin) {
            assert_eq!(p.x, 0.0);
        }
        for p in face_points(&b, Face::KMax) {
            assert_eq!(p.z, 1.0);
        }
    }

    #[test]
    fn opposite_faces() {
        assert_eq!(Face::IMin.opposite(), Face::IMax);
        assert_eq!(Face::KMax.opposite(), Face::KMin);
        for f in Face::ALL {
            assert_eq!(f.opposite().opposite(), f);
        }
    }

    #[test]
    fn abutting_boxes_match_on_the_shared_face() {
        let a = unit_box(Vec3::ZERO, 4);
        let b = unit_box(Vec3::new(1.0, 0.0, 0.0), 4);
        let i = matching_interface(&a, &b, 1e-12).expect("shared face");
        assert_eq!(i.face_a, Face::IMax);
        assert_eq!(i.face_b, Face::IMin);
        assert!(i.max_mismatch < 1e-12);
    }

    #[test]
    fn separated_boxes_do_not_match() {
        let a = unit_box(Vec3::ZERO, 4);
        let b = unit_box(Vec3::new(2.5, 0.0, 0.0), 4);
        assert!(matching_interface(&a, &b, 1e-9).is_none());
    }

    #[test]
    fn engine_sectors_tile_cleanly() {
        let ds = synth::engine(5);
        let topo = topology_of(&ds, 1e-9);
        let bad = unmatched_interfaces(&ds, &topo, 1e-9);
        assert!(bad.is_empty(), "unmatched interfaces: {bad:?}");
    }

    #[test]
    fn propfan_blocks_tile_cleanly() {
        let ds = synth::propfan(4);
        let topo = topology_of(&ds, 1e-9);
        let bad = unmatched_interfaces(&ds, &topo, 1e-9);
        assert!(bad.is_empty(), "unmatched interfaces: {bad:?}");
    }

    #[test]
    fn engine_azimuthal_neighbors_share_a_face() {
        let ds = synth::engine(5);
        let a = ds.block_geometry(0);
        let b = ds.block_geometry(1);
        let i = matching_interface(a, b, 1e-9).expect("sector interface");
        assert!(i.max_mismatch < 1e-9);
    }
}
