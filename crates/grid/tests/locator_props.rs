//! The compressed-row bins of [`BlockLocator`] against the structure
//! they replaced — one `Vec` of cell indices per bin — on randomly
//! sheared blocks: the same candidate cells in the same order for any
//! probe point, so a particle tries cells in the order it always did.

use vira_grid::block::{BlockDims, CurvilinearBlock};
use vira_grid::locator::BlockLocator;
use vira_grid::math::{Aabb, Vec3};
use vira_testkit::{check, Gen};

/// A block sheared by a sine in each direction; amplitudes up to a few
/// cell widths, so cell boxes overlap many bins and each other.
fn sheared_block(g: &mut Gen) -> CurvilinearBlock {
    let dims = BlockDims::new(g.usize_in(2..9), g.usize_in(2..9), g.usize_in(2..9));
    let amp = [g.f64_in(0.0, 0.3), g.f64_in(0.0, 0.3), g.f64_in(0.0, 0.3)];
    // One case in eight is flat in z: a zero-extent axis of the bin grid.
    let flat = g.u64_in(0..8) == 0;
    CurvilinearBlock::from_fn(0, dims, |i, j, k| {
        let u = i as f64 / (dims.ni - 1) as f64;
        let v = j as f64 / (dims.nj - 1) as f64;
        let w = k as f64 / (dims.nk - 1) as f64;
        let pi = std::f64::consts::PI;
        Vec3::new(
            u + amp[0] * (pi * v).sin(),
            v + amp[1] * (pi * w).sin(),
            if flat {
                0.0
            } else {
                w + amp[2] * (pi * u).sin()
            },
        )
    })
}

/// The nested-`Vec` bins as they were built before the locator became
/// two flat arrays, and the lookup into them.
struct NestedBins {
    bbox: Aabb,
    n: usize,
    bins: Vec<Vec<u32>>,
}

impl NestedBins {
    fn build(grid: &CurvilinearBlock) -> NestedBins {
        let n = ((grid.dims.n_cells().max(1) as f64 / 4.0).cbrt().ceil() as usize).clamp(1, 64);
        let bbox = grid.bbox().inflate(1e-12);
        let d = bbox.diagonal();
        let mut bins = vec![Vec::new(); n * n * n];
        for (i, j, k) in grid.dims.cells() {
            let cb = grid.cell_bbox(i, j, k);
            let range = |a: usize| {
                if d[a] <= 0.0 {
                    return 0..=0;
                }
                let f = |x: f64| {
                    (((x - bbox.min[a]) / d[a] * n as f64) as isize).clamp(0, n as isize - 1)
                };
                f(cb.min[a]) as usize..=f(cb.max[a]) as usize
            };
            for bz in range(2) {
                for by in range(1) {
                    for bx in range(0) {
                        bins[(bz * n + by) * n + bx].push(grid.dims.cell_index(i, j, k) as u32);
                    }
                }
            }
        }
        NestedBins { bbox, n, bins }
    }

    fn candidates(&self, p: Vec3) -> &[u32] {
        if !self.bbox.contains(p) {
            return &[];
        }
        let d = self.bbox.diagonal();
        let bin = |a: usize| {
            if d[a] <= 0.0 {
                0
            } else {
                (((p[a] - self.bbox.min[a]) / d[a] * self.n as f64) as usize).min(self.n - 1)
            }
        };
        &self.bins[(bin(2) * self.n + bin(1)) * self.n + bin(0)]
    }
}

#[test]
fn csr_bins_list_the_cells_the_nested_bins_listed() {
    check(64, |g| {
        let grid = sheared_block(g);
        let (csr, nested) = (BlockLocator::build(&grid), NestedBins::build(&grid));
        assert!(csr.matches(&grid));
        let entries: usize = nested.bins.iter().map(Vec::len).sum();
        assert_eq!(csr.heap_bytes(), (nested.bins.len() + 1 + entries) * 4);
        let lo = grid.bbox().min - Vec3::splat(0.05);
        let hi = grid.bbox().max + Vec3::splat(0.05);
        let mut probes: Vec<Vec3> = (0..200)
            .map(|_| {
                Vec3::new(
                    g.f64_in(lo.x, hi.x),
                    g.f64_in(lo.y, hi.y),
                    g.f64_in(lo.z, hi.z),
                )
            })
            .collect();
        // Grid points sit on bin and cell box boundaries.
        probes.extend(grid.points.iter().step_by(7));
        for p in probes {
            assert_eq!(csr.candidates(p), nested.candidates(p), "probe {p:?}");
        }
    });
}
