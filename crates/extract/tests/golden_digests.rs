//! Golden digests of the extraction outputs, recorded at the commit
//! before the field types were folded into one layout (ISSUE 13).
//!
//! The oracle comparisons elsewhere pin the contour scan, the λ₂ row
//! kernel, the lane min/max and the Newton solve. Nothing pins the paths
//! that have no second implementation — `VectorField::sample` under the
//! pathline integrator, `coarsen`, the ghost-layer stencils, the block
//! codec's interleave — so a change of storage layout could move an
//! output bit there unnoticed. Each digest below is FNV-1a over the bytes
//! a client or a file would receive.

use std::collections::HashMap;
use std::sync::Arc;
use vira_extract::halo::GhostedBlock;
use vira_extract::iso::extract_isosurface;
use vira_extract::lambda2::lambda2_field;
use vira_extract::multires::{coarsen, progressive_isosurface};
use vira_extract::pathline::{trace_pathline, MultiBlockSampler, PathlineConfig, TimeScheme};
use vira_grid::block::BlockStepId;
use vira_grid::field::SharedBlockData;
use vira_grid::io::write_block_data;
use vira_grid::math::Vec3;
use vira_grid::synth::{engine, test_cube};
use vira_grid::topology::topology_of;

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What the parent commit produced, in the order the test computes them.
const RECORDED: [&str; 6] = [
    "iso(|u|): 0x37478d19bb47f3c5",
    "λ₂ iso: 0x5154604d580f653f",
    "progressive, 3 levels: 0xdec55c5b50b6255e",
    "RK4 pathline: 0x4a98b51df13f6a30",
    "coarsen(2) as a block file: 0x7368220dc8b86ff1",
    "ghosted λ₂ field: 0xdc783732a69d5289",
];

#[test]
fn outputs_match_the_recorded_digests() {
    let mut got = Vec::new();
    let ds = Arc::new(test_cube(9, 2));
    let data = ds.generate(BlockStepId::new(0, 0));
    let speed = data.velocity.magnitude();

    let (soup, stats) = extract_isosurface(&data.grid, &speed, 0.15);
    assert!(stats.triangles > 0);
    got.push(("iso(|u|)", fnv1a(FNV_OFFSET, &soup.to_bytes())));

    let (soup, stats) = extract_isosurface(&data.grid, &lambda2_field(&data), -0.05);
    assert!(stats.triangles > 0);
    got.push(("λ₂ iso", fnv1a(FNV_OFFSET, &soup.to_bytes())));

    let levels = progressive_isosurface(&data.grid, &speed, 0.15, 3, |_| {});
    assert!(levels.iter().all(|l| l.stats.triangles > 0));
    let digest = levels
        .iter()
        .fold(FNV_OFFSET, |h, l| fnv1a(h, &l.surface.to_bytes()));
    got.push(("progressive, 3 levels", digest));

    let topology = Arc::new(topology_of(&ds, 1e-9));
    let mut held: HashMap<BlockStepId, SharedBlockData> = HashMap::new();
    let source = ds.clone();
    let fetch = move |id: BlockStepId| {
        let item = held
            .entry(id)
            .or_insert_with(|| Arc::new(source.generate(id)));
        Some(item.clone())
    };
    let mut sampler = MultiBlockSampler::new(fetch, topology, ds.spec.n_steps, ds.spec.dt);
    let cfg = PathlineConfig {
        h_init: ds.spec.dt / 10.0,
        tol: 1e-7,
        ..PathlineConfig::default()
    };
    let traced = trace_pathline(
        &mut sampler,
        Vec3::new(0.3, 0.1, -0.2),
        0.0,
        ds.spec.dt,
        &cfg,
    );
    assert!(traced.line.len() > 3);
    got.push(("RK4 pathline", fnv1a(FNV_OFFSET, &traced.line.to_bytes())));

    let mut file = Vec::new();
    write_block_data(&mut file, &coarsen(&data, 2)).expect("writing to a Vec");
    got.push(("coarsen(2) as a block file", fnv1a(FNV_OFFSET, &file)));

    let ring = engine(5);
    let [a, b, c] = [0, 1, 22].map(|block| ring.generate(BlockStepId::new(block, 0)));
    let ghosted = GhostedBlock::assemble(&a, &[&b, &c], 1e-9).lambda2_field();
    let digest = ghosted
        .values
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()));
    got.push(("ghosted λ₂ field", digest));

    let got: Vec<String> = got
        .iter()
        .map(|(what, d)| format!("{what}: {d:#018x}"))
        .collect();
    assert_eq!(got, RECORDED, "an output moved");
}

/// Recorded at the commit before block locators moved into the topology
/// and the sampler stopped fetching blocks it only looked at (ISSUE 15).
const RECORDED_MULTI_BLOCK: &str = "16 Engine pathlines: 0xff8a16985d3ffca5";

/// Sector of the Engine ring a polyline point lies in.
fn engine_sector(p: &[f32; 3]) -> u32 {
    let theta = f64::from(p[1])
        .atan2(f64::from(p[0]))
        .rem_euclid(std::f64::consts::TAU);
    (theta / std::f64::consts::TAU * 23.0) as u32
}

/// Sixteen traces over the 23-block Engine ring and 16 time levels, one
/// sampler per seed as every caller makes them, both temporal schemes:
/// the path the single-block `RK4 pathline` digest does not reach —
/// block hand-over, candidate order, hints carried across levels.
#[test]
fn multi_block_pathlines_match_the_recorded_digest() {
    let ds = Arc::new(engine(9));
    let (n_steps, dt) = (16u32, ds.spec.dt);
    let topology = Arc::new(topology_of(&ds, 1e-9));
    let mut bbox = *ds.blocks()[0].bbox();
    for b in ds.blocks() {
        bbox.expand(b.bbox().min);
        bbox.expand(b.bbox().max);
    }
    let (center, half) = (bbox.center(), bbox.diagonal() * 0.3);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut items: HashMap<BlockStepId, SharedBlockData> = HashMap::new();
    let mut digest = FNV_OFFSET;
    let mut crossed = 0;
    for n in 0..16 {
        let seed = Vec3::new(
            center.x + half.x * next(),
            center.y + half.y * next(),
            center.z + half.z * next(),
        );
        let fetch = |id: BlockStepId| {
            let item = items.entry(id).or_insert_with(|| Arc::new(ds.generate(id)));
            Some(item.clone())
        };
        let mut sampler = MultiBlockSampler::new(fetch, topology.clone(), n_steps, dt);
        let cfg = PathlineConfig {
            h_init: dt / 4.0,
            h_min: dt * 1e-6,
            h_max: dt,
            tol: 1e-5,
            max_steps: 20_000,
            scheme: if n % 2 == 0 {
                TimeScheme::VelocityInterp
            } else {
                TimeScheme::AdjacentLevels
            },
        };
        let traced = trace_pathline(&mut sampler, seed, 0.0, f64::from(n_steps - 1) * dt, &cfg);
        digest = fnv1a(digest, &traced.line.to_bytes());
        digest = fnv1a(digest, &(traced.steps_accepted as u64).to_le_bytes());
        digest = fnv1a(digest, &(traced.steps_rejected as u64).to_le_bytes());
        let sectors: Vec<u32> = traced.line.points.iter().map(engine_sector).collect();
        crossed += usize::from(sectors.iter().any(|&s| s != sectors[0]));
    }
    assert!(
        crossed >= 12,
        "only {crossed} of 16 traces cross a block boundary"
    );
    assert_eq!(
        format!("16 Engine pathlines: {digest:#018x}"),
        RECORDED_MULTI_BLOCK,
        "an output moved"
    );
}
