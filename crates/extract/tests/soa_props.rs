//! Property tests of the vectorized kernels against their retained
//! scalar oracles: the kernels are rewrites for throughput, not new
//! math, so on arbitrary inputs every one of them must be *bit-identical*
//! to the scalar original — and the scoped thread pool must preserve
//! item order at every thread count.

use vira_extract::bricktree::BrickTree;
use vira_extract::halo::GhostedBlock;
use vira_extract::iso::{extract_isosurface_oracle, extract_isosurface_with_tree};
use vira_extract::lambda2::{lambda2_field, lambda2_field_oracle};
use vira_extract::locate::{invert_trilinear, invert_trilinear_oracle};
use vira_extract::par::scoped_map;
use vira_grid::block::{BlockDims, BlockStepId, CurvilinearBlock};
use vira_grid::faces::Face;
use vira_grid::field::{BlockData, ScalarField, VectorField};
use vira_grid::math::Vec3;
use vira_testkit::{check, Gen, DEFAULT_CASES};

/// A regular lattice on the unit cube (geometry does not influence the
/// scan kernels, only the interpolated vertex positions).
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

/// Dims spanning sub-lane, exact-lane and multi-lane row lengths, plus
/// a value vector of matching length.
fn dims_and_values(g: &mut Gen) -> (BlockDims, Vec<f64>) {
    let dims = BlockDims::new(g.usize_in(2..12), g.usize_in(2..8), g.usize_in(2..8));
    let n = dims.n_points();
    (dims, g.vec(n..n + 1, |g| g.f64_in(-1.0, 1.0)))
}

/// A block on a jittered curvilinear lattice — every point of the
/// unit-spaced lattice moved by up to a quarter spacing per coordinate,
/// so the Jacobian stencils differ from point to point — with a random
/// velocity per point.
fn jittered_block(g: &mut Gen, dims: BlockDims) -> BlockData {
    let n = dims.n_points();
    let mut points = Vec::with_capacity(n);
    for k in 0..dims.nk {
        for j in 0..dims.nj {
            for i in 0..dims.ni {
                let [x, y, z] = [i, j, k].map(|c| c as f64 + g.f64_in(-0.25, 0.25));
                points.push(Vec3::new(x, y, z));
            }
        }
    }
    let [xs, ys, zs] = [(); 3].map(|_| g.vec(n..n + 1, |g| g.f64_in(-2.0, 2.0)));
    BlockData::new(
        BlockStepId::new(0, 0),
        CurvilinearBlock::new(0, dims, points),
        VectorField::new(dims, xs, ys, zs),
        0.0,
    )
}

/// The sub-block of `data` over the index box `lo..=hi`, points and
/// velocities copied exactly.
fn cut(data: &BlockData, id: u32, lo: [usize; 3], hi: [usize; 3]) -> BlockData {
    let dims = BlockDims::new(hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, hi[2] - lo[2] + 1);
    let at = |i: usize, j: usize, k: usize| (lo[0] + i, lo[1] + j, lo[2] + k);
    let grid = CurvilinearBlock::from_fn(id, dims, |i, j, k| {
        let (a, b, c) = at(i, j, k);
        data.grid.point(a, b, c)
    });
    let velocity = VectorField::from_fn(dims, |i, j, k| {
        let (a, b, c) = at(i, j, k);
        data.velocity.at(a, b, c)
    });
    BlockData::new(BlockStepId::new(id, 0), grid, velocity, 0.0)
}

/// Whether `face` is the low end of its axis.
fn is_min(face: Face) -> bool {
    matches!(face, Face::IMin | Face::JMin | Face::KMin)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The run-scan contour kernel reproduces the cell-at-a-time
/// oracle's surface byte for byte on arbitrary fields — unpruned
/// (pure scan comparison) and pruned through a bricktree (the shape
/// the parallel extraction path runs).
#[test]
fn contour_is_byte_identical_to_the_oracle() {
    check(DEFAULT_CASES, |g| {
        let (dims, values) = dims_and_values(g);
        let iso = g.f64_in(-1.2, 1.2);
        let grid = lattice(dims);
        let field = ScalarField::new(dims, values);

        let (oracle_soup, oracle_stats) = extract_isosurface_oracle(&grid, &field, iso, None);
        let oracle_bytes = oracle_soup.to_bytes();
        let (soup, stats) = extract_isosurface_with_tree(&grid, &field, iso, None);
        assert_eq!(&soup.to_bytes()[..], &oracle_bytes[..]);
        assert_eq!(stats.triangles, oracle_stats.triangles);
        assert_eq!(stats.active_cells, oracle_stats.active_cells);

        let tree = BrickTree::build(&field);
        let (pruned_soup, pruned_stats) =
            extract_isosurface_with_tree(&grid, &field, iso, Some(&tree));
        assert_eq!(&pruned_soup.to_bytes()[..], &oracle_bytes[..]);
        assert_eq!(pruned_stats.triangles, oracle_stats.triangles);
        assert_eq!(
            pruned_stats.cells_visited + pruned_stats.cells_skipped,
            dims.n_cells(),
            "visited + skipped must partition the block"
        );
    });
}

/// The λ₂ slab kernel is an operation-for-operation transcription of
/// the per-point oracle, so the two fields must agree to the last bit on
/// curvilinear geometry and arbitrary velocity data. Dims start at one
/// point per axis: one- and two-point axes and the first/last-row
/// stencils of the slab loops all come up.
#[test]
fn lambda2_rows_match_the_point_oracle_bitwise() {
    check(DEFAULT_CASES, |g| {
        let dims = BlockDims::new(g.usize_in(1..10), g.usize_in(1..8), g.usize_in(1..8));
        let data = jittered_block(g, dims);
        let rows = lambda2_field(&data);
        let oracle = lambda2_field_oracle(&data);
        assert_eq!(rows.dims, oracle.dims);
        assert_eq!(bits(&rows.values), bits(&oracle.values));
    });
}

/// The ghosted λ₂ field runs the same kernel: with no layer it is
/// `lambda2_field` bit for bit; with layers, every point off the
/// ghosted faces keeps its value bit for bit; and with all six faces
/// ghosted the block's field is the enclosing block's field over the
/// same points bit for bit — the ghost stencil is the interior one.
#[test]
fn ghosted_lambda2_patches_only_the_ghosted_faces() {
    check(DEFAULT_CASES, |g| {
        let d = [g.usize_in(1..7), g.usize_in(1..7), g.usize_in(1..7)];
        let outer = jittered_block(g, BlockDims::new(d[0] + 2, d[1] + 2, d[2] + 2));
        let block = cut(&outer, 0, [1; 3], d);
        let plain = lambda2_field(&block);
        let bare = GhostedBlock::assemble(&block, &[], 1e-9);
        assert!(bare.ghosted_faces().is_empty());
        assert_eq!(bits(&bare.lambda2_field().values), bits(&plain.values));

        // Face neighbours two points deep: the min neighbour along an
        // axis spans outer indices 0..=1 on it, the max one d..=d + 1.
        let all = g.bool();
        let mut neighbours = Vec::new();
        let mut wanted = Vec::new();
        for face in Face::ALL {
            if !(all || g.bool()) {
                continue;
            }
            let axis = face as usize / 2;
            let (mut lo, mut hi) = ([1; 3], d);
            (lo[axis], hi[axis]) = if is_min(face) {
                (0, 1)
            } else {
                (d[axis], d[axis] + 1)
            };
            neighbours.push(cut(&outer, 1 + face as u32, lo, hi));
            wanted.push(face);
        }
        let refs: Vec<&BlockData> = neighbours.iter().collect();
        let ghosted = GhostedBlock::assemble(&block, &refs, 1e-9);
        let faces = ghosted.ghosted_faces();
        if d.iter().all(|&n| n >= 2) {
            assert_eq!(faces, wanted, "each neighbour attaches behind its face");
        }
        let field = ghosted.lambda2_field();
        let whole = (all && d.iter().all(|&n| n >= 2)).then(|| lambda2_field(&outer));
        for (p, got) in field.values.iter().enumerate() {
            let (i, j, k) = block.dims().point_coords(p);
            let on_face = |f: Face| {
                let (idx, n) = [(i, d[0]), (j, d[1]), (k, d[2])][f as usize / 2];
                idx == if is_min(f) { 0 } else { n - 1 }
            };
            if !faces.iter().any(|&f| on_face(f)) {
                assert_eq!(got.to_bits(), plain.values[p].to_bits(), "({i},{j},{k})");
            }
            if let Some(whole) = &whole {
                let want = whole.at(i + 1, j + 1, k + 1);
                assert_eq!(got.to_bits(), want.to_bits(), "({i},{j},{k}): {want}");
            }
        }
    });
}

/// The lane min/max scan agrees exactly with a branchy scalar fold.
#[test]
fn lane_minmax_matches_the_scalar_fold() {
    check(DEFAULT_CASES, |g| {
        let (dims, values) = dims_and_values(g);
        let field = ScalarField::new(dims, values.clone());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert_eq!(field.range(), Some((lo, hi)));
    });
}

/// The fused Newton trilinear inversion (hoisted corner differences)
/// is bit-identical to the per-iteration oracle on random sheared
/// cells and probe points — including the divergence cases.
#[test]
fn fused_newton_inversion_matches_the_oracle_bitwise() {
    check(DEFAULT_CASES, |g| {
        let jitter = [(); 24].map(|_| g.f64_in(-0.2, 0.2));
        let probe = [(); 3].map(|_| g.f64_in(-0.4, 1.4));
        let unit = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let mut cell = unit;
        for (c, j) in cell.iter_mut().zip(jitter.chunks(3)) {
            *c += Vec3::new(j[0], j[1], j[2]);
        }
        let p = Vec3::new(probe[0], probe[1], probe[2]);
        let fused = invert_trilinear(&cell, p);
        let oracle = invert_trilinear_oracle(&cell, p);
        match (fused, oracle) {
            (Some(a), Some(b)) => {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1.to_bits(), b.1.to_bits());
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
            (None, None) => {}
            (a, b) => panic!("fused {a:?} vs oracle {b:?}"),
        }
    });
}

/// `scoped_map` returns results in item order at every thread count,
/// with each item visited exactly once at its own index.
#[test]
fn scoped_map_preserves_item_order_at_any_width() {
    check(DEFAULT_CASES, |g| {
        let items = g.vec(0..40, |g| g.u64() as i64);
        let threads = g.usize_in(1..9);
        let got = scoped_map(threads, &items, |idx, &v| (idx, v.wrapping_mul(3)));
        let want: Vec<(usize, i64)> = items
            .iter()
            .enumerate()
            .map(|(idx, &v)| (idx, v.wrapping_mul(3)))
            .collect();
        assert_eq!(got, want);
    });
}
