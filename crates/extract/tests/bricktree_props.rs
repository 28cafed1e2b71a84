//! Property tests of the extraction acceleration path: bricktree-pruned
//! contouring must be *byte-identical* to the exhaustive scan on
//! arbitrary fields, the separable leaf build and the per-brick-row run
//! scan must agree with brute-force references, and the bulk
//! triangle-soup wire codec must round-trip exactly and reject
//! malformed payloads.

use std::ops::Range;
use vira_extract::bricktree::{BrickTree, PruneCounters, BRICK};
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

/// Dims of 1–40 points per axis, and in one case of eight one axis of
/// more than 256 cells (the others kept small), so no word-sized limit
/// on bricks per row can hide.
fn any_dims(g: &mut Gen) -> BlockDims {
    let mut n = [g.usize_in(1..41), g.usize_in(1..41), g.usize_in(1..41)];
    if g.u64().is_multiple_of(8) {
        n = [g.usize_in(1..7), g.usize_in(1..7), g.usize_in(1..7)];
        n[g.usize_in(0..3)] = g.usize_in(258..300);
    }
    BlockDims::new(n[0], n[1], n[2])
}

/// Samples for `dims`: white noise in half the cases, a smooth radial
/// bump plus a little noise in the other half (so whole bricks fall
/// outside an iso level), with NaN sprinkled in one case of four.
fn any_values(g: &mut Gen, dims: BlockDims) -> Vec<f64> {
    let smooth = g.bool();
    let c = [
        g.f64_in(0.0, 40.0),
        g.f64_in(0.0, 40.0),
        g.f64_in(0.0, 40.0),
    ];
    let nan_share = if g.u64().is_multiple_of(4) {
        g.f64_in(0.0, 1.0)
    } else {
        0.0
    };
    let mut values = Vec::with_capacity(dims.n_points());
    for k in 0..dims.nk {
        for j in 0..dims.nj {
            for i in 0..dims.ni {
                let v = if g.f64_in(0.0, 1.0) < nan_share {
                    f64::NAN
                } else if smooth {
                    let d = [i as f64 - c[0], j as f64 - c[1], k as f64 - c[2]];
                    (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt() + g.f64_in(0.0, 0.5)
                } else {
                    g.f64_in(-1.0, 1.0)
                };
                values.push(v);
            }
        }
    }
    values
}

/// Bricks along an axis of `cells` cells (one even when there are none).
fn bricks_along(cells: usize) -> usize {
    cells.div_ceil(BRICK).max(1)
}

/// Grid points touched by brick `b` along an axis of `points` points.
fn brick_points(b: usize, points: usize) -> Range<usize> {
    let cells = points.saturating_sub(1);
    b * BRICK..(((b + 1) * BRICK).min(cells) + 1).min(points)
}

/// Every leaf range is the min/max over exactly the points its brick
/// touches, computed the direct way.
#[test]
fn leaf_ranges_equal_range_over_points() {
    check(DEFAULT_CASES, |g| {
        let dims = any_dims(g);
        let field = ScalarField::new(dims, any_values(g, dims));
        let tree = BrickTree::build(&field);
        let (ci, cj, ck) = dims.cell_dims();
        let (nx, ny, nz) = (bricks_along(ci), bricks_along(cj), bricks_along(ck));
        assert_eq!(tree.n_bricks(), nx * ny * nz);
        for bz in 0..nz {
            for by in 0..ny {
                for bx in 0..nx {
                    let want = field.range_over_points(
                        brick_points(bx, dims.ni),
                        brick_points(by, dims.nj),
                        brick_points(bz, dims.nk),
                    );
                    assert_eq!(
                        tree.leaf_range(bx, by, bz),
                        want,
                        "brick ({bx},{by},{bz}) of {dims:?}"
                    );
                }
            }
        }
    });
}

/// NaN samples never reach a range: the leaves and the root hold the
/// min/max of the other samples, and the root equals `field.range()`.
#[test]
fn nan_samples_are_skipped_and_root_is_the_field_range() {
    check(DEFAULT_CASES, |g| {
        let dims = any_dims(g);
        let mut values = any_values(g, dims);
        for _ in 0..g.usize_in(0..values.len() + 1) {
            let at = g.usize_in(0..values.len());
            values[at] = f64::NAN;
        }
        let field = ScalarField::new(dims, values);
        let tree = BrickTree::build(&field);
        assert_eq!(Some(tree.root_range()), field.range());
        let finite: Vec<f64> = field
            .values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(tree.root_range(), (lo, hi));
        let (ci, cj, ck) = dims.cell_dims();
        for bz in 0..bricks_along(ck) {
            for by in 0..bricks_along(cj) {
                for bx in 0..bricks_along(ci) {
                    let (l, h) = tree.leaf_range(bx, by, bz);
                    assert!(!l.is_nan() && !h.is_nan(), "NaN in brick ({bx},{by},{bz})");
                }
            }
        }
    });
}

/// The reference run scan: every cell asked through `cell_candidate` in
/// storage order, maximal runs of candidates per row, a skipped brick
/// for every leaf that does not straddle `iso`.
fn brute_force_runs(
    tree: &BrickTree,
    dims: BlockDims,
    iso: f64,
) -> (Vec<(Range<usize>, usize, usize)>, PruneCounters) {
    let (ci, cj, ck) = dims.cell_dims();
    let mut runs = Vec::new();
    let mut c = PruneCounters::default();
    for k in 0..ck {
        for j in 0..cj {
            let mut start = None;
            for i in 0..=ci {
                let candidate = i < ci && tree.cell_candidate(i, j, k, iso);
                match (candidate, start) {
                    (true, None) => start = Some(i),
                    (false, Some(s)) => {
                        runs.push((s..i, j, k));
                        start = None;
                    }
                    _ => {}
                }
                if i < ci && !candidate {
                    c.cells_skipped += 1;
                }
            }
        }
    }
    for bz in 0..bricks_along(ck) {
        for by in 0..bricks_along(cj) {
            for bx in 0..bricks_along(ci) {
                if !tree.cell_candidate(bx * BRICK, by * BRICK, bz * BRICK, iso) {
                    c.bricks_skipped += 1;
                }
            }
        }
    }
    (runs, c)
}

/// Runs replayed per brick row are exactly the brute-force runs, in the
/// same order, with the same counters.
#[test]
fn candidate_runs_match_a_per_cell_reference() {
    check(DEFAULT_CASES, |g| {
        let dims = any_dims(g);
        let field = ScalarField::new(dims, any_values(g, dims));
        let tree = BrickTree::build(&field);
        let (lo, hi) = tree.root_range();
        let iso = if lo <= hi && !g.u64().is_multiple_of(8) {
            g.f64_in(lo, hi)
        } else {
            g.f64_in(-50.0, 50.0)
        };
        let mut runs = Vec::new();
        let counters = tree.scan_candidate_runs(iso, |r, j, k| runs.push((r, j, k)));
        let (want_runs, want_counters) = brute_force_runs(&tree, dims, iso);
        assert_eq!(runs, want_runs, "iso {iso} on {dims:?}");
        assert_eq!(counters, want_counters, "iso {iso} on {dims:?}");
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

/// `f32` bit patterns a lossy decoder would disturb: quiet and
/// signalling NaNs with payloads, both zeros, subnormals, infinities.
const AWKWARD_F32: [u32; 9] = [
    0x7fc0_0001,
    0xffff_ffff,
    0x7f80_0001,
    0x8000_0000,
    0x0000_0000,
    0x0000_0001,
    0x807f_ffff,
    0x7f80_0000,
    0xff80_0000,
];

/// The wire decoder on arbitrary bytes: it never panics, accepts a
/// payload exactly when its length is `4 + 36 · count`, and every
/// payload it accepts re-encodes to the same bytes, bit for bit.
#[test]
fn soup_decoder_accepts_exactly_the_well_formed_and_is_lossless() {
    check(DEFAULT_CASES, |g| {
        let payload: Vec<u8> = if g.bool() {
            // Arbitrary bytes, mostly malformed.
            g.bytes(0..120)
        } else {
            // A count prefix with a body of about the right length,
            // floats drawn from random bits and the awkward patterns.
            let n = g.u32_in(0..6);
            let body = (36 * n as usize + g.usize_in(0..3)).saturating_sub(g.usize_in(0..3));
            let mut p = n.to_le_bytes().to_vec();
            while p.len() < 4 + body {
                let bits = if g.bool() {
                    AWKWARD_F32[g.usize_in(0..AWKWARD_F32.len())]
                } else {
                    g.u64() as u32
                };
                p.extend_from_slice(&bits.to_le_bytes());
            }
            p.truncate(4 + body);
            p
        };
        let well_formed = payload.len() >= 4 && {
            let n = u32::from_le_bytes(payload[..4].try_into().unwrap()) as u64;
            payload.len() as u64 == 4 + 36 * n
        };
        let decoded = TriangleSoup::from_bytes(payload.clone().into());
        assert_eq!(decoded.is_some(), well_formed, "{} bytes", payload.len());
        if let Some(soup) = decoded {
            assert_eq!(&soup.to_bytes()[..], &payload[..]);
        }
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
