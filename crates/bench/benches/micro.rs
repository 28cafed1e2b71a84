//! Criterion micro-benchmarks of the extraction and DMS kernels that sit
//! in the framework's inner loops: the *real* (undilated) computational
//! costs, complementing the modeled-time experiment benches.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use vira_dms::cache::{CachePayload, MemoryCache};
use vira_dms::name::ItemId;
use vira_dms::policy::policy_by_name;
use vira_dms::prefetch::{MarkovPrefetch, Prefetcher};
use vira_extract::bricktree::BrickTree;
use vira_extract::bsp::BspTree;
use vira_extract::eigen::symmetric_eigenvalues;
use vira_extract::iso::{extract_isosurface, extract_isosurface_with_tree};
use vira_extract::lambda2::lambda2_field;
use vira_extract::locate::{invert_trilinear, BlockLocator};
use vira_extract::mesh::TriangleSoup;
use vira_extract::par::scoped_map;
use vira_extract::tetra::contour_cell;
use vira_extract::pathline::{trace_pathline, AnalyticSampler, PathlineConfig};
use vira_grid::block::BlockStepId;
use vira_grid::field::{BlockData, ScalarField};
use vira_grid::math::{Mat3, Vec3};
use vira_grid::synth::test_cube;

fn vortex_block(res: usize) -> BlockData {
    test_cube(res, 1).generate(BlockStepId::new(0, 0))
}

fn speed_field(data: &BlockData) -> ScalarField {
    data.velocity.magnitude()
}

fn bench_eigen(c: &mut Criterion) {
    let m = Mat3::from_rows(
        Vec3::new(4.0, -2.0, 0.5),
        Vec3::new(-2.0, 1.0, 3.0),
        Vec3::new(0.5, 3.0, -2.0),
    );
    c.bench_function("eigen/symmetric_3x3", |b| {
        b.iter(|| symmetric_eigenvalues(black_box(&m)))
    });
}

fn bench_iso(c: &mut Criterion) {
    let data = vortex_block(17);
    let field = speed_field(&data);
    c.bench_function("iso/extract_block_17cubed", |b| {
        b.iter(|| extract_isosurface(black_box(&data.grid), black_box(&field), 0.15))
    });
}

fn bench_contour(c: &mut Criterion) {
    // An active cell where all six tetrahedra cross the iso level —
    // the worst (and hottest) case of the inner loop.
    let corners = [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(1.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::new(1.0, 0.0, 1.0),
        Vec3::new(0.0, 1.0, 1.0),
        Vec3::new(1.0, 1.0, 1.0),
    ];
    let scalars = [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6];
    let mut out = TriangleSoup::with_capacity(16);
    c.bench_function("tetra/contour_cell_active", |b| {
        b.iter(|| {
            out.positions.clear();
            contour_cell(black_box(&corners), black_box(&scalars), 0.5, &mut out)
        })
    });
}

fn bench_bricktree(c: &mut Criterion) {
    // A sparse feature — small sphere in a 25³ block — is the case the
    // bricktree exists for.
    let data = vortex_block(25);
    let grid = &data.grid;
    let field = ScalarField::from_fn(grid.dims, |i, j, k| {
        (grid.point(i, j, k) - Vec3::splat(0.5)).norm()
    });
    let iso = 0.15;
    c.bench_function("bricktree/build_25cubed", |b| {
        b.iter(|| BrickTree::build(black_box(&field)))
    });
    let tree = BrickTree::build(&field);
    c.bench_function("bricktree/scan_sparse_25cubed", |b| {
        b.iter(|| {
            let mut n = 0usize;
            tree.scan_candidates(black_box(iso), |_, _, _| n += 1);
            n
        })
    });
    c.bench_function("iso/extract_sparse_pruned", |b| {
        b.iter(|| extract_isosurface_with_tree(grid, black_box(&field), iso, Some(&tree)))
    });
    c.bench_function("iso/extract_sparse_unpruned", |b| {
        b.iter(|| extract_isosurface_with_tree(grid, black_box(&field), iso, None))
    });
}

fn bench_mesh_encode(c: &mut Criterion) {
    let data = vortex_block(17);
    let field = speed_field(&data);
    let (soup, _) = extract_isosurface(&data.grid, &field, 0.15);
    assert!(!soup.is_empty());
    c.bench_function("mesh/soup_to_bytes", |b| {
        b.iter(|| black_box(&soup).to_bytes())
    });
    let bytes = soup.to_bytes();
    c.bench_function("mesh/soup_from_bytes", |b| {
        b.iter(|| TriangleSoup::from_bytes(black_box(bytes.clone())).expect("well-formed"))
    });
}

fn bench_lambda2(c: &mut Criterion) {
    let data = vortex_block(17);
    c.bench_function("lambda2/field_soa", |b| {
        b.iter(|| lambda2_field(black_box(&data)))
    });
}

fn bench_soa_contour(c: &mut Criterion) {
    // The vectorized cell scan, unpruned on the sparse 25³ sphere so the
    // row isolates the *scan* rather than the triangulation of active
    // cells; pruned-vs-unpruned is bench_bricktree's job.
    let data = vortex_block(25);
    let grid = &data.grid;
    let field = ScalarField::from_fn(grid.dims, |i, j, k| {
        (grid.point(i, j, k) - Vec3::splat(0.5)).norm()
    });
    let iso = 0.15;
    c.bench_function("contour/block_scan_soa", |b| {
        b.iter(|| extract_isosurface_with_tree(grid, black_box(&field), iso, None))
    });
}

fn bench_minmax(c: &mut Criterion) {
    let data = vortex_block(25);
    let speed = speed_field(&data);
    c.bench_function("minmax/block_range_lanes", |b| {
        b.iter(|| black_box(&speed).range())
    });
}

fn bench_newton_locate(c: &mut Criterion) {
    // Newton trilinear inversion on a sheared cell (fused residual +
    // Jacobian accumulation).
    let shear = |u: f64, v: f64, w: f64| {
        Vec3::new(u + 0.3 * v + 0.1 * w, v + 0.2 * w * u, w + 0.15 * u * v)
    };
    let cell = [
        shear(0.0, 0.0, 0.0),
        shear(1.0, 0.0, 0.0),
        shear(0.0, 1.0, 0.0),
        shear(1.0, 1.0, 0.0),
        shear(0.0, 0.0, 1.0),
        shear(1.0, 0.0, 1.0),
        shear(0.0, 1.0, 1.0),
        shear(1.0, 1.0, 1.0),
    ];
    let probe = shear(0.37, 0.61, 0.22);
    assert!(invert_trilinear(&cell, probe).is_some());
    c.bench_function("locate/newton_fused", |b| {
        b.iter(|| invert_trilinear(black_box(&cell), black_box(probe)))
    });
}

fn bench_parallel_extract(c: &mut Criterion) {
    // Intra-worker parallel block extraction: 8 items of 17³ (one block
    // over 8 steps — the test-cube dataset is single-block), full
    // extraction per item, scoped pool at 1/2/4/8 threads. On a
    // single-core box the >1t numbers measure pool overhead, not
    // speedup; the manifest notes flag them accordingly.
    let blocks: Vec<(BlockData, ScalarField, BrickTree)> = (0..8)
        .map(|s| {
            let data = test_cube(17, 8).generate(BlockStepId::new(0, s));
            let speed = speed_field(&data);
            let tree = BrickTree::build(&speed);
            (data, speed, tree)
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        c.bench_function(&format!("extract/parallel_blocks_{threads}t"), |b| {
            b.iter(|| {
                scoped_map(threads, &blocks, |_, (data, speed, tree)| {
                    extract_isosurface_with_tree(&data.grid, speed, 0.15, Some(tree))
                })
            })
        });
    }
}

fn bench_bsp(c: &mut Criterion) {
    let data = vortex_block(17);
    let field = speed_field(&data);
    c.bench_function("bsp/build_block_17cubed", |b| {
        b.iter(|| BspTree::build(black_box(&data.grid), black_box(&field)))
    });
    let tree = BspTree::build(&data.grid, &field);
    c.bench_function("bsp/traverse_front_to_back", |b| {
        b.iter(|| {
            let mut n = 0usize;
            tree.traverse_front_to_back(0.15, Vec3::new(5.0, 0.0, 0.0), &field, |_| n += 1);
            n
        })
    });
}

fn bench_locate(c: &mut Criterion) {
    let data = vortex_block(17);
    let locator = BlockLocator::build(&data.grid);
    let p = Vec3::new(0.31, -0.12, 0.44);
    c.bench_function("locate/point_cold", |b| {
        b.iter(|| locator.locate(black_box(&data.grid), black_box(p), None))
    });
    c.bench_function("locate/point_with_hint", |b| {
        b.iter(|| locator.locate(black_box(&data.grid), black_box(p), Some((10, 7, 11))))
    });
}

fn bench_pathline(c: &mut Criterion) {
    c.bench_function("pathline/rigid_rotation_one_turn", |b| {
        b.iter(|| {
            let mut s = AnalyticSampler {
                f: |p: Vec3, _t| Vec3::new(-p.y, p.x, 0.0),
            };
            trace_pathline(
                &mut s,
                Vec3::new(1.0, 0.0, 0.0),
                0.0,
                std::f64::consts::TAU,
                &PathlineConfig::default(),
            )
        })
    });
}

struct Blob(usize);
impl CachePayload for Blob {
    fn payload_bytes(&self) -> usize {
        self.0
    }
}

fn bench_cache(c: &mut Criterion) {
    for policy in ["lru", "lfu", "fbr"] {
        c.bench_function(&format!("cache/{policy}_churn_1000"), |b| {
            b.iter(|| {
                let mut cache =
                    MemoryCache::new(64, policy_by_name(policy).expect("known policy"));
                for i in 0..1000u64 {
                    let id = ItemId(i % 128);
                    if cache.get(id).is_none() {
                        cache.insert(id, Arc::new(Blob(1)));
                    }
                }
                cache.len()
            })
        });
    }
}

fn bench_markov(c: &mut Criterion) {
    c.bench_function("prefetch/markov_advise", |b| {
        let mut m = MarkovPrefetch::first_order();
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 64;
            m.advise(BlockStepId::new(i, 0), false)
        })
    });
}

fn bench_compress(c: &mut Criterion) {
    let data = vortex_block(17);
    let raw = vira_storage::compress::payload_bytes_f32(&data);
    c.bench_function("compress/rle_block_payload", |b| {
        b.iter(|| vira_storage::compress::rle_compress(black_box(&raw)))
    });
}

fn bench_dataset_generate(c: &mut Criterion) {
    let ds = vira_grid::synth::engine(5);
    c.bench_function("synth/engine_generate_item", |b| {
        b.iter(|| ds.generate(black_box(BlockStepId::new(3, 7))))
    });
}

fn bench_obs(c: &mut Criterion) {
    // The overhead bound the observability layer promises: with tracing
    // disabled a span is one relaxed atomic load; enabled, an open+drop
    // pushes one fixed-size record into a thread-local ring.
    vira_obs::set_enabled(false);
    c.bench_function("obs/span_disabled", |b| {
        b.iter(|| vira_obs::span(black_box("bench.span"), "bench"))
    });
    vira_obs::set_enabled(true);
    c.bench_function("obs/span_enabled", |b| {
        b.iter(|| vira_obs::span(black_box("bench.span"), "bench").arg("i", 1u64))
    });
    vira_obs::set_enabled(false);
    let _ = vira_obs::drain();
    let counter = vira_obs::counter("obs_bench_scratch_total");
    c.bench_function("obs/counter_inc", |b| b.iter(|| counter.inc()));
    // Trace-context propagation: what every dispatch/run_job pays to
    // adopt a wire context (install + guard drop), and what a span
    // opened under an installed context pays extra for inheriting the
    // parent linkage.
    let ctx = vira_obs::TraceCtx {
        trace_id: 0x5eed,
        parent_span_id: 7,
    };
    c.bench_function("obs/install_ctx", |b| {
        b.iter(|| vira_obs::install_ctx(black_box(ctx)))
    });
    vira_obs::set_enabled(true);
    let _guard = vira_obs::install_ctx(ctx);
    c.bench_function("obs/span_under_ctx", |b| {
        b.iter(|| vira_obs::span(black_box("bench.span"), "bench").arg("i", 1u64))
    });
    drop(_guard);
    vira_obs::set_enabled(false);
    let _ = vira_obs::drain();
}

criterion_group!(
    benches,
    bench_eigen,
    bench_iso,
    bench_contour,
    bench_bricktree,
    bench_mesh_encode,
    bench_lambda2,
    bench_soa_contour,
    bench_minmax,
    bench_newton_locate,
    bench_parallel_extract,
    bench_bsp,
    bench_locate,
    bench_pathline,
    bench_cache,
    bench_markov,
    bench_compress,
    bench_dataset_generate,
    bench_obs
);
criterion_main!(benches);
