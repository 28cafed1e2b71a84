//! Micro-benchmarks of the kernels and the bulk byte paths, timed with
//! `std::time::Instant` (`harness = false`, no bench framework).
//!
//! ```text
//! cargo bench -p vira-bench --bench micro > fresh_micro.json
//! cargo run -p vira-bench --bin bench_check -- fresh_micro.json
//! ```
//!
//! Emits a JSON array of `{"name", "measured_ns"}` pairs on stdout in
//! exactly the shape `vira_bench::micro_manifest::merge_measurements`
//! consumes (progress goes to stderr); the row names are those of
//! `results/BENCH_micro.json`.
//!
//! Methodology: per bench, the iteration count is calibrated so one
//! repetition takes a few milliseconds, then the **median** per-iteration
//! time over several repetitions is reported — robust against one-off
//! scheduling noise. Set `MICROBENCH_QUICK=1` for a fast smoke run (CI):
//! fewer repetitions and a smaller time budget, same output shape.

use bytes::Bytes;
use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use vira_comm::socket::{encode_frame, frame_crc, DecodeStep, FrameDecoder};
use vira_dms::cache::{BlockDataCodec, DiskCache};
use vira_dms::name::ItemId;
use vira_dms::policy::policy_by_name;
use vira_dms::proxy::{DataProxy, ProxyConfig};
use vira_dms::server::{DataServer, ServerConfig};
use vira_extract::bricktree::BrickTree;
use vira_extract::halo::GhostedBlock;
use vira_extract::iso::{
    active_cells, extract_isosurface, extract_isosurface_with_tree, extract_streamed,
};
use vira_extract::lambda2::lambda2_field;
use vira_extract::locate::invert_trilinear;
use vira_extract::mesh::TriangleSoup;
use vira_extract::par::scoped_map;
use vira_extract::pathline::{trace_pathline, MultiBlockSampler, PathlineConfig, TimeScheme};
use vira_extract::tetra::contour_cell;
use vira_grid::block::BlockStepId;
use vira_grid::field::{BlockData, ScalarField, SharedBlockData};
use vira_grid::io::{encoded_size, read_block_data, write_block_data};
use vira_grid::locator::BlockLocator;
use vira_grid::math::Vec3;
use vira_grid::synth::{engine, propfan, test_cube};
use vira_grid::topology::topology_of;
use vira_obs::json::Json;
use vira_storage::costmodel::{Meter, SimClock};
use vira_storage::source::SynthSource;

fn vortex_block(res: usize) -> BlockData {
    test_cube(res, 1).generate(BlockStepId::new(0, 0))
}

fn speed_field(data: &BlockData) -> ScalarField {
    data.velocity.magnitude()
}

struct Harness {
    quick: bool,
    results: Vec<(String, u64)>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            quick: std::env::var("MICROBENCH_QUICK")
                .map(|v| v == "1")
                .unwrap_or(false),
            results: Vec::new(),
        }
    }

    /// Times `f` and records the median per-iteration nanoseconds.
    fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let (budget_ns, reps) = if self.quick {
            (1_000_000u64, 5usize)
        } else {
            (5_000_000u64, 11usize)
        };
        // Calibrate: grow the per-rep iteration count until one rep
        // costs at least `budget_ns`.
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed().as_nanos() as u64;
            if elapsed >= budget_ns || iters >= 1 << 30 {
                break;
            }
            // Aim past the budget in one or two more doublings.
            iters = (iters * 2).max(iters * budget_ns / elapsed.max(1) / 2);
        }
        let mut per_iter: Vec<u64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                (t.elapsed().as_nanos() as u64).max(iters) / iters
            })
            .collect();
        per_iter.sort_unstable();
        let median = per_iter[per_iter.len() / 2];
        eprintln!("{name}: {median} ns/iter ({iters} iters x {reps} reps)");
        self.results.push((name.to_string(), median));
    }

    fn emit(&self) {
        let readings = self.results.iter().map(|(name, ns)| {
            Json::obj([
                ("name", name.as_str().into()),
                ("measured_ns", (*ns).into()),
            ])
        });
        println!("{}", Json::Arr(readings.collect()).pretty());
    }
}

fn main() {
    let mut h = Harness::new();
    vira_obs::set_enabled(false);

    // ---- tetra kernel ----
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
    h.bench("tetra/contour_cell_active", || {
        out.positions.clear();
        contour_cell(black_box(&corners), black_box(&scalars), 0.5, &mut out)
    });

    // ---- bricktree + sparse iso ----
    let data25 = vortex_block(25);
    let grid25 = &data25.grid;
    let sphere = ScalarField::from_fn(grid25.dims, |i, j, k| {
        (grid25.point(i, j, k) - Vec3::splat(0.5)).norm()
    });
    let iso_sphere = 0.15;
    h.bench("bricktree/build_25cubed", || {
        BrickTree::build(black_box(&sphere))
    });
    let tree25 = BrickTree::build(&sphere);
    h.bench("bricktree/scan_sparse_25cubed", || {
        let mut n = 0usize;
        tree25.scan_candidates(black_box(iso_sphere), |_, _, _| n += 1);
        n
    });
    h.bench("iso/extract_sparse_pruned", || {
        extract_isosurface_with_tree(grid25, black_box(&sphere), iso_sphere, Some(&tree25))
    });
    h.bench("iso/extract_sparse_unpruned", || {
        extract_isosurface_with_tree(grid25, black_box(&sphere), iso_sphere, None)
    });

    // ---- mesh encode/decode ----
    let data17 = vortex_block(17);
    let speed17 = speed_field(&data17);
    let (soup, _) = extract_isosurface(&data17.grid, &speed17, 0.15);
    assert!(!soup.is_empty());
    h.bench("mesh/soup_to_bytes", || black_box(&soup).to_bytes());
    let bytes = soup.to_bytes();
    h.bench("mesh/soup_from_bytes", || {
        TriangleSoup::from_bytes(black_box(bytes.clone())).expect("well-formed")
    });

    // ---- contour scan: unpruned on the sparse 25-cubed sphere, so the
    // row isolates the cell *scan* (the vectorized part) rather than the
    // triangulation of active cells; pruned-vs-unpruned is covered by
    // the iso/extract_sparse pair above. ----
    h.bench("contour/block_scan_soa", || {
        extract_isosurface_with_tree(grid25, black_box(&sphere), iso_sphere, None)
    });

    // ---- lambda2 field ----
    h.bench("lambda2/field_soa", || lambda2_field(black_box(&data17)));
    // Engine block 0 with its two ring neighbours: the ghosted field
    // `VortexDataMan` computes with the `ghosts` parameter.
    let sector = engine(17);
    let [b0, b1, b22] = [0, 1, 22].map(|b| sector.generate(BlockStepId::new(b, 0)));
    let ghosted = GhostedBlock::assemble(&b0, &[&b1, &b22], 1e-9);
    assert_eq!(ghosted.ghosted_faces().len(), 2);
    h.bench("lambda2/ghosted_field", || {
        black_box(&ghosted).lambda2_field()
    });

    // ---- min/max over a 25-cubed speed field ----
    let speed25 = speed_field(&data25);
    h.bench("minmax/block_range_lanes", || black_box(&speed25).range());

    // ---- Newton point location on a sheared cell ----
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
    h.bench("locate/newton_fused", || {
        invert_trilinear(black_box(&cell), black_box(probe))
    });

    // ---- cell bins of one 21-cubed Engine sector: paid once per block
    // and dataset, on the first trace that looks into the block ----
    let ring = engine(21);
    h.bench("locate/locator_build_21c", || {
        BlockLocator::build(black_box(ring.block_geometry(0)))
    });

    // ---- 40 pathlines over the Engine ring, 16 levels, one sampler per
    // seed as the commands make them, every item resident and (after
    // the calibration pass) every locator built: locate + RK4 alone,
    // what the pathline workload's jobs spend outside the DMS ----
    let (n_steps, dt) = (16u32, ring.spec.dt);
    let topology = std::sync::Arc::new(topology_of(&ring, 1e-9));
    let mut items: std::collections::HashMap<BlockStepId, SharedBlockData> = Default::default();
    let cfg = PathlineConfig {
        h_init: dt / 4.0,
        h_min: dt * 1e-6,
        h_max: dt,
        tol: 1e-5,
        max_steps: 20_000,
        scheme: TimeScheme::VelocityInterp,
    };
    let seeds: Vec<Vec3> = (0..40)
        .map(|n| {
            let (r, theta) = (0.030 + 0.0004 * n as f64, 0.61 * n as f64);
            Vec3::new(r * theta.cos(), r * theta.sin(), 0.055 + 0.001 * n as f64)
        })
        .collect();
    h.bench("pathline/engine_40_traces_21c_warm", || {
        let mut points = 0usize;
        for &seed in &seeds {
            let fetch = |id: BlockStepId| {
                let item = items
                    .entry(id)
                    .or_insert_with(|| std::sync::Arc::new(ring.generate(id)));
                Some(item.clone())
            };
            let mut sampler = MultiBlockSampler::new(fetch, topology.clone(), n_steps, dt);
            let t1 = f64::from(n_steps - 1) * dt;
            points += trace_pathline(&mut sampler, black_box(seed), 0.0, t1, &cfg)
                .line
                .len();
        }
        assert!(points > 40 * 12, "traces ended early: {points} points");
        points
    });
    drop(items);

    // ---- intra-worker parallel block extraction: 8 items of 17-cubed
    // (one block over 8 steps — the test-cube dataset is single-block),
    // full extraction per item, scoped pool at 1/2/4/8 threads ----
    let blocks: Vec<(BlockData, ScalarField, BrickTree)> = (0..8)
        .map(|s| {
            let data = test_cube(17, 8).generate(BlockStepId::new(0, s));
            let speed = speed_field(&data);
            let tree = BrickTree::build(&speed);
            (data, speed, tree)
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        h.bench(&format!("extract/parallel_blocks_{threads}t"), || {
            scoped_map(threads, &blocks, |_, (data, speed, tree)| {
                extract_isosurface_with_tree(&data.grid, speed, 0.15, Some(tree))
            })
        });
    }

    // ---- the round shape of the item walk (`commands::walk_share`):
    // 8 Engine 17-cubed items behind a cold DMS, loaded on this thread a
    // round at a time, each round extracted on the scoped pool and
    // merged in item order. At 2 threads, rounds of one item per thread
    // against rounds of four per thread ----
    let server = DataServer::new(SimClock::instant(), ServerConfig::default());
    server.register_dataset(Arc::new(SynthSource::new(Arc::new(engine(17)))), false);
    let proxy = DataProxy::new(
        0,
        server.clone(),
        ProxyConfig {
            prefetcher: "none".into(),
            ..ProxyConfig::default()
        },
    );
    let meter = Meter::new();
    let walk_ids: Vec<BlockStepId> = (0..8).map(|b| BlockStepId::new(b, 0)).collect();
    for (threads, round, name) in [
        (1usize, 1usize, "walk/cold_8_items_1t"),
        (2, 2, "walk/cold_8_items_rounds_of_2_2t"),
        (2, 8, "walk/cold_8_items_rounds_of_8_2t"),
    ] {
        h.bench(name, || {
            proxy.clear_cache(false);
            let mut merged = TriangleSoup::new();
            for ids in walk_ids.chunks(round) {
                let loaded: Vec<SharedBlockData> = ids
                    .iter()
                    .map(|&id| proxy.request("Engine", id, &meter).expect("synthetic load"))
                    .collect();
                let soups = scoped_map(threads, &loaded, |_, data| {
                    extract_isosurface(&data.grid, &data.velocity.magnitude(), 15.0).0
                });
                for soup in &soups {
                    merged.extend_from(soup);
                }
            }
            merged.n_triangles()
        });
    }
    drop(proxy);

    // ---- the iso job of the end-to-end benchmark's iso_warm_local
    // workload: |u| of the 144 Propfan 21-cubed blocks at 27.0. One
    // block's extraction (throwaway bricktree, scan, contour), and the
    // client's decode of the merged package of all 144 surfaces ----
    let fan = propfan(21);
    let iso_fan = 27.0;
    let mut merged = TriangleSoup::new();
    let mut speeds = Vec::new();
    for b in 0..fan.spec.n_blocks {
        let speed = speed_field(&fan.generate(BlockStepId::new(b, 0)));
        merged.extend_from(&extract_isosurface(fan.block_geometry(b), &speed, iso_fan).0);
        speeds.push(speed);
    }
    // Block 85 carries the median surface of the 96 that cut 27.0
    // (about 3 200 triangles).
    let fan_block = 85u32;
    let fan_grid = fan.block_geometry(fan_block);
    let fan_speed = &speeds[fan_block as usize];
    let fan_triangles = extract_isosurface(fan_grid, fan_speed, iso_fan).1.triangles;
    assert!(fan_triangles > 3000, "{fan_triangles} triangles");
    h.bench("iso/extract_propfan_21c", || {
        extract_isosurface(fan_grid, black_box(fan_speed), iso_fan)
    });
    // The triangulation alone, over the active cells of all 144 blocks
    // gathered beforehand: the real mix of sign masks, where
    // `tetra/contour_cell_active` repeats one mask and so predicts every
    // branch ----
    let mut fan_cells = Vec::new();
    for (b, speed) in speeds.iter().enumerate() {
        let grid = fan.block_geometry(b as u32);
        for (i, j, k) in active_cells(speed, iso_fan) {
            fan_cells.push((grid.cell_corners(i, j, k), speed.cell_corners(i, j, k)));
        }
    }
    assert_eq!(
        fan_cells.len(),
        49_236,
        "active cells of Propfan(21) at 27.0"
    );
    let mut fan_soup = TriangleSoup::with_capacity(325_344);
    h.bench("tetra/contour_propfan_active_cells", || {
        fan_soup.positions.clear();
        for (corners, scalars) in black_box(&fan_cells) {
            contour_cell(corners, scalars, iso_fan, &mut fan_soup);
        }
        assert_eq!(fan_soup.n_triangles(), 325_344);
    });
    drop(fan_cells);
    // ---- StreamedVortex's work on one Propfan 21-cubed block, from the
    // loaded data to its last batch: the λ₂ field, a throwaway bricktree
    // and the contour at the figures' threshold -120 in batches of 2000
    // triangles. Block 1 carries the median surface of the 120 that cut
    // -120 (about 3 400 triangles) ----
    let fan_vortex = fan.generate(BlockStepId::new(1, 0));
    h.bench("lambda2/streamed_block", || {
        let field = lambda2_field(black_box(&fan_vortex));
        let mut triangles = 0;
        extract_streamed(&fan_vortex.grid, &field, -120.0, 2000, |batch| {
            triangles += batch.n_triangles()
        });
        triangles
    });
    let package = merged.to_bytes();
    drop(merged);
    eprintln!("merged iso package: {} bytes", package.len());
    // Kept in place where its vertex block starts aligned, as a frame
    // buffer's does; copied out of the same bytes one offset further on.
    let kept = TriangleSoup::from_bytes(package.clone()).expect("well-formed");
    let kept_at = |soup: &TriangleSoup, package: &Bytes| {
        soup.positions.as_ptr().cast::<u8>() == package[4..].as_ptr()
    };
    assert!(kept_at(&kept, &package), "the package is kept");
    drop(kept);
    h.bench("mesh/soup_from_bytes_12mb", || {
        TriangleSoup::from_bytes(black_box(package.clone())).expect("well-formed")
    });
    let misaligned = {
        let mut buf = vec![0; 1];
        buf.extend_from_slice(&package);
        Bytes::from(buf).slice(1..1 + package.len())
    };
    drop(package);
    let copied = TriangleSoup::from_bytes(misaligned.clone()).expect("well-formed");
    assert!(!kept_at(&copied, &misaligned), "the package is copied");
    drop(copied);
    h.bench("mesh/soup_from_bytes_12mb_copy", || {
        TriangleSoup::from_bytes(black_box(misaligned.clone())).expect("well-formed")
    });
    drop(misaligned);

    // ---- two threads building the |u| bricktrees of 32 Propfan 21-cubed
    // blocks at once, as two workers of one process do: any write to
    // shared memory on the min/max path puts both on one cache line ----
    speeds.truncate(32);
    h.bench("bricktree/build_21c_2t", || {
        scoped_map(2, &speeds, |_, speed| BrickTree::build(speed))
    });

    // ---- bulk bytes: the socket frame codec on a 3 MB payload (the
    // size of a merged iso_scrub package), the item-file codec on a
    // 21-cubed item (a source's read of an item file), and one L2 cycle
    // of that item through a real spill file ----
    let payload: Vec<u8> = (0..3_000_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    h.bench("comm/frame_checksum_3mb", || {
        frame_crc(1, 2, 7, black_box(&payload))
    });
    h.bench("comm/frame_roundtrip_3mb", || {
        let wire = encode_frame(1, 2, 7, black_box(&payload));
        let mut dec = FrameDecoder::new();
        for chunk in wire.chunks(64 * 1024) {
            dec.feed(chunk);
        }
        match dec.next() {
            Some(DecodeStep::Frame(f)) => f.payload.len(),
            other => panic!("expected the frame back, got {other:?}"),
        }
    });
    // Through `dyn Write` / `dyn Read`, as a file source calls them. The
    // L2 no longer spills this layout (it writes the field alone), so
    // these rungs model item-file reads, not L2 spills.
    let data21 = vortex_block(21);
    let mut file = Vec::with_capacity(encoded_size(data21.dims()) as usize);
    h.bench("grid/block_encode_21c", || {
        file.clear();
        let mut w: &mut dyn Write = black_box(&mut file);
        write_block_data(&mut w, black_box(&data21)).expect("Vec writes cannot fail");
        file.len()
    });
    // Nothing holds the decoded item between iterations, so every read
    // is a block's first: it decodes the geometry and the velocity.
    let decode = || {
        let mut bytes = &file[..];
        let mut r: &mut dyn Read = black_box(&mut bytes);
        read_block_data(&mut r).expect("well-formed")
    };
    h.bench("grid/block_decode_21c", decode);
    // With one decoded item alive, a read of any step of the block
    // compares the points against that item's geometry and shares it.
    let held = decode();
    h.bench("grid/block_decode_21c_shared", decode);
    drop(held);
    // The disk tier's share of an L2 hit: the demotion's spill and the
    // promotion's read-back of the same item, then the entry's removal
    // that leaves the file for the next spill to overwrite.
    let spill = std::env::temp_dir().join(format!("vira_micro_l2_{}", std::process::id()));
    let mut l2 = DiskCache::new(
        spill,
        1 << 30,
        policy_by_name("lru").expect("lru"),
        BlockDataCodec,
    )
    .expect("spill dir must be creatable");
    h.bench("dms/l2_cycle_21c", || {
        l2.insert(ItemId(1), black_box(&data21)).expect("spill");
        let item = l2.get(ItemId(1)).expect("read back").expect("resident");
        l2.remove(ItemId(1)).expect("remove");
        item
    });
    drop(l2);

    // ---- obs layer ----
    vira_obs::set_enabled(false);
    h.bench("obs/span_disabled", || {
        vira_obs::span(black_box("bench.span"), "bench")
    });
    vira_obs::set_enabled(true);
    h.bench("obs/span_enabled", || {
        vira_obs::span(black_box("bench.span"), "bench").arg("i", 1u64)
    });
    vira_obs::set_enabled(false);
    let _ = vira_obs::drain();
    let counter = vira_obs::counter("obs_bench_scratch_total");
    h.bench("obs/counter_inc", || counter.inc());
    let ctx = vira_obs::TraceCtx {
        trace_id: 0x5eed,
        parent_span_id: 7,
    };
    h.bench("obs/install_ctx", || vira_obs::install_ctx(black_box(ctx)));
    vira_obs::set_enabled(true);
    let guard = vira_obs::install_ctx(ctx);
    h.bench("obs/span_under_ctx", || {
        vira_obs::span(black_box("bench.span"), "bench").arg("i", 1u64)
    });
    drop(guard);
    vira_obs::set_enabled(false);
    let _ = vira_obs::drain();

    h.emit();
}
