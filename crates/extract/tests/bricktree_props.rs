//! Property tests of the extraction acceleration path: bricktree-pruned
//! contouring must be *byte-identical* to the exhaustive scan on
//! arbitrary fields, and the bulk triangle-soup wire codec must
//! round-trip exactly and reject malformed payloads.

use vira_extract::bricktree::BrickTree;
use vira_extract::iso::{extract_isosurface, extract_isosurface_with_tree};
use vira_extract::mesh::{payload_triangle_count, TriangleSoup};
use vira_grid::block::{BlockDims, CurvilinearBlock};
use vira_grid::field::ScalarField;
use vira_grid::math::Vec3;
use vira_testkit::{check, Gen, DEFAULT_CASES};

/// A regular grid of the given dims on the unit cube — geometry does not
/// influence pruning, so a simple lattice exercises everything.
fn lattice(dims: BlockDims) -> CurvilinearBlock {
    let mut points = Vec::with_capacity(dims.n_points());
    for k in 0..dims.nk {
        for j in 0..dims.nj {
            for i in 0..dims.ni {
                points.push(Vec3::new(
                    i as f64 / (dims.ni - 1).max(1) as f64,
                    j as f64 / (dims.nj - 1).max(1) as f64,
                    k as f64 / (dims.nk - 1).max(1) as f64,
                ));
            }
        }
    }
    CurvilinearBlock::new(0, dims, points)
}

/// Dims spanning sub-brick, exact-brick and multi-brick sizes per axis,
/// plus a value vector of matching length.
fn dims_and_values(g: &mut Gen) -> (BlockDims, Vec<f64>) {
    let dims = BlockDims::new(g.usize_in(2..12), g.usize_in(2..12), g.usize_in(2..12));
    let n = dims.n_points();
    (dims, g.vec(n..n + 1, |g| g.f64_in(-1.0, 1.0)))
}

/// The tentpole guarantee: pruning never changes the output. The
/// serialized surfaces (triangle order included) must be identical,
/// and the visited/skipped partition must cover every cell.
#[test]
fn pruned_extraction_is_byte_identical_to_unpruned() {
    check(DEFAULT_CASES, |g| {
        let (dims, values) = dims_and_values(g);
        let iso = g.f64_in(-1.2, 1.2);
        let grid = lattice(dims);
        let field = ScalarField::new(dims, values);
        let (pruned, pstats) = extract_isosurface(&grid, &field, iso);
        let (full, fstats) = extract_isosurface_with_tree(&grid, &field, iso, None);
        assert_eq!(&pruned.to_bytes()[..], &full.to_bytes()[..]);
        assert_eq!(pstats.triangles, fstats.triangles);
        assert_eq!(pstats.active_cells, fstats.active_cells);
        assert_eq!(
            pstats.cells_visited + pstats.cells_skipped,
            dims.n_cells(),
            "visited + skipped must partition the block"
        );
        assert!(pstats.cells_visited <= fstats.cells_visited);
    });
}

/// Every candidate the bricktree skips really is inactive: a skipped
/// cell's corner range can never straddle the iso value.
#[test]
fn skipped_cells_are_never_active() {
    check(DEFAULT_CASES, |g| {
        let (dims, values) = dims_and_values(g);
        let iso = g.f64_in(-1.2, 1.2);
        let field = ScalarField::new(dims, values);
        let tree = BrickTree::build(&field);
        let mut visited = vec![false; dims.n_cells()];
        let (ci, cj, _) = dims.cell_dims();
        tree.scan_candidates(iso, |i, j, k| {
            visited[(k * cj + j) * ci + i] = true;
        });
        for (i, j, k) in dims.cells() {
            if !visited[(k * cj + j) * ci + i] {
                let (lo, hi) = field.cell_range(i, j, k);
                assert!(
                    !(hi > iso && lo <= iso),
                    "skipped cell ({i},{j},{k}) straddles iso={iso}: [{lo},{hi}]"
                );
            }
        }
    });
}

/// The bulk encoder round-trips bit-exactly through `from_bytes`, and
/// `payload_triangle_count` agrees with the decoded count.
#[test]
fn soup_bytes_round_trip() {
    check(DEFAULT_CASES, |g| {
        let tris = g.vec(0..80, |g| [(); 9].map(|_| g.f64_in(-1e6, 1e6)));
        let mut soup = TriangleSoup::new();
        for t in &tris {
            soup.push_tri(
                Vec3::new(t[0], t[1], t[2]),
                Vec3::new(t[3], t[4], t[5]),
                Vec3::new(t[6], t[7], t[8]),
            );
        }
        let bytes = soup.to_bytes();
        assert_eq!(bytes.len(), 4 + 36 * tris.len());
        assert_eq!(payload_triangle_count(&bytes), Some(tris.len()));
        let back = TriangleSoup::from_bytes(bytes).expect("well-formed payload");
        assert_eq!(back, soup);
    });
}

/// Truncated or length-inconsistent payloads are rejected, never
/// mis-decoded — by both the decoder and the count validator.
#[test]
fn malformed_soup_bytes_are_rejected() {
    check(DEFAULT_CASES, |g| {
        let n_tris = g.u32_in(0..40);
        let cut = g.usize_in(1..36);
        let inflate = g.u32_in(1..1000);
        let mut soup = TriangleSoup::new();
        for t in 0..n_tris {
            let v = t as f64;
            soup.push_tri(Vec3::splat(v), Vec3::splat(v + 0.5), Vec3::splat(v + 1.0));
        }
        let good = soup.to_bytes();

        // Truncation anywhere inside the body (or into the header).
        let cut = cut.min(good.len());
        let truncated = good.slice(0..good.len() - cut);
        assert!(TriangleSoup::from_bytes(truncated.clone()).is_none());
        assert!(payload_triangle_count(&truncated).is_none());

        // A count prefix claiming more triangles than the body holds.
        let mut lying = good.to_vec();
        lying[..4].copy_from_slice(&(n_tris + inflate).to_le_bytes());
        assert!(TriangleSoup::from_bytes(lying.clone().into()).is_none());
        assert!(payload_triangle_count(&lying).is_none());
    });
}

/// Deterministic acceptance check: on a sparse iso
/// level — a small sphere in a large block — pruning must visit fewer
/// than 25 % of the cells while reproducing the full surface exactly.
#[test]
fn sparse_feature_visits_under_a_quarter_of_cells() {
    let dims = BlockDims::new(25, 25, 25);
    let grid = lattice(dims);
    let field = ScalarField::from_fn(dims, |i, j, k| {
        let p = grid.point(i, j, k) - Vec3::splat(0.5);
        p.norm()
    });
    let iso = 0.15;
    let (pruned, stats) = extract_isosurface(&grid, &field, iso);
    let (full, _) = extract_isosurface_with_tree(&grid, &field, iso, None);
    assert_eq!(pruned.to_bytes(), full.to_bytes());
    assert!(stats.triangles > 0, "the sphere must actually be extracted");
    let total = dims.n_cells();
    assert!(
        stats.cells_visited * 4 < total,
        "visited {} of {} cells (≥ 25 %)",
        stats.cells_visited,
        total
    );
    assert!(stats.bricks_skipped > 0);
}
