//! Property tests of the vectorized kernels against their retained
//! scalar oracles: the kernels are rewrites for throughput, not new
//! math, so on arbitrary inputs every one of them must be *bit-identical*
//! to the scalar original — and the scoped thread pool must preserve
//! item order at every thread count.

use proptest::prelude::*;
use vira_extract::bricktree::BrickTree;
use vira_extract::iso::{extract_isosurface_oracle, extract_isosurface_with_tree};
use vira_extract::lambda2::{lambda2_field, lambda2_field_oracle};
use vira_extract::locate::{invert_trilinear, invert_trilinear_oracle};
use vira_extract::par::scoped_map;
use vira_grid::block::{BlockDims, CurvilinearBlock};
use vira_grid::field::{BlockData, ScalarField, VectorField};
use vira_grid::math::Vec3;

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
fn dims_and_values() -> impl Strategy<Value = (BlockDims, Vec<f64>)> {
    (2usize..=11, 2usize..=7, 2usize..=7)
        .prop_map(|(ni, nj, nk)| BlockDims::new(ni, nj, nk))
        .prop_flat_map(|d| {
            let n = d.n_points();
            (Just(d), prop::collection::vec(-1.0f64..1.0, n..=n))
        })
}

/// As above but with a velocity vector per point.
fn dims_and_velocities() -> impl Strategy<Value = (BlockDims, Vec<[f64; 3]>)> {
    (3usize..=9, 3usize..=7, 3usize..=7)
        .prop_map(|(ni, nj, nk)| BlockDims::new(ni, nj, nk))
        .prop_flat_map(|d| {
            let n = d.n_points();
            (
                Just(d),
                prop::collection::vec(prop::array::uniform3(-2.0f64..2.0), n..=n),
            )
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The run-scan contour kernel reproduces the cell-at-a-time
    /// oracle's surface byte for byte on arbitrary fields — unpruned
    /// (pure scan comparison) and pruned through a bricktree (the shape
    /// the parallel extraction path runs).
    #[test]
    fn contour_is_byte_identical_to_the_oracle(
        (dims, values) in dims_and_values(),
        iso in -1.2f64..1.2,
    ) {
        let grid = lattice(dims);
        let field = ScalarField::new(dims, values);

        let (oracle_soup, oracle_stats) = extract_isosurface_oracle(&grid, &field, iso, None);
        let (soup, stats) = extract_isosurface_with_tree(&grid, &field, iso, None);
        prop_assert_eq!(soup.to_bytes(), oracle_soup.to_bytes());
        prop_assert_eq!(stats.triangles, oracle_stats.triangles);
        prop_assert_eq!(stats.active_cells, oracle_stats.active_cells);

        let tree = BrickTree::build(&field);
        let (pruned_soup, pruned_stats) =
            extract_isosurface_with_tree(&grid, &field, iso, Some(&tree));
        prop_assert_eq!(pruned_soup.to_bytes(), oracle_soup.to_bytes());
        prop_assert_eq!(pruned_stats.triangles, oracle_stats.triangles);
        prop_assert_eq!(
            pruned_stats.cells_visited + pruned_stats.cells_skipped,
            dims.n_cells(),
            "visited + skipped must partition the block"
        );
    }

    /// The staged λ₂ row kernels are an operation-for-operation
    /// transcription of the per-point oracle, so the two fields must
    /// agree to the last bit on arbitrary velocity data.
    #[test]
    fn lambda2_rows_match_the_point_oracle_bitwise(
        (dims, vel) in dims_and_velocities(),
    ) {
        let grid = lattice(dims);
        let [xs, ys, zs] = [0, 1, 2].map(|c| vel.iter().map(|v| v[c]).collect());
        let velocity = VectorField::new(dims, xs, ys, zs);
        let data = BlockData::new(vira_grid::block::BlockStepId::new(0, 0), grid, velocity, 0.0);
        let rows = lambda2_field(&data);
        let oracle = lambda2_field_oracle(&data);
        prop_assert_eq!(rows.dims, oracle.dims);
        prop_assert_eq!(bits(&rows.values), bits(&oracle.values));
    }

    /// The lane min/max scan agrees exactly with a branchy scalar fold.
    #[test]
    fn lane_minmax_matches_the_scalar_fold(
        (dims, values) in dims_and_values(),
    ) {
        let field = ScalarField::new(dims, values.clone());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        prop_assert_eq!(field.range(), Some((lo, hi)));
    }

    /// The fused Newton trilinear inversion (hoisted corner differences)
    /// is bit-identical to the per-iteration oracle on random sheared
    /// cells and probe points — including the divergence cases.
    #[test]
    fn fused_newton_inversion_matches_the_oracle_bitwise(
        jitter in prop::array::uniform24(-0.2f64..0.2),
        probe in prop::array::uniform3(-0.4f64..1.4),
    ) {
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
            *c = *c + Vec3::new(j[0], j[1], j[2]);
        }
        let p = Vec3::new(probe[0], probe[1], probe[2]);
        let fused = invert_trilinear(&cell, p);
        let oracle = invert_trilinear_oracle(&cell, p);
        match (fused, oracle) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                prop_assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "fused {a:?} vs oracle {b:?}"),
        }
    }

    /// `scoped_map` returns results in item order at every thread count,
    /// with each item visited exactly once at its own index.
    #[test]
    fn scoped_map_preserves_item_order_at_any_width(
        items in prop::collection::vec(any::<i64>(), 0..40),
        threads in 1usize..9,
    ) {
        let got = scoped_map(threads, &items, |idx, &v| (idx, v.wrapping_mul(3)));
        let want: Vec<(usize, i64)> = items
            .iter()
            .enumerate()
            .map(|(idx, &v)| (idx, v.wrapping_mul(3)))
            .collect();
        prop_assert_eq!(got, want);
    }
}
