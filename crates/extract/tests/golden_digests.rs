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
use vira_extract::pathline::{trace_pathline, MultiBlockSampler, PathlineConfig};
use vira_grid::block::BlockStepId;
use vira_grid::field::SharedBlockData;
use vira_grid::io::write_block_data;
use vira_grid::math::Vec3;
use vira_grid::synth::{engine, test_cube};
use vira_grid::topology::topology_of;

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
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
        let item = held.entry(id).or_insert_with(|| Arc::new(source.generate(id)));
        Some(item.clone())
    };
    let mut sampler = MultiBlockSampler::new(fetch, topology, ds.spec.n_steps, ds.spec.dt);
    let cfg = PathlineConfig {
        h_init: ds.spec.dt / 10.0,
        tol: 1e-7,
        ..PathlineConfig::default()
    };
    let traced = trace_pathline(&mut sampler, Vec3::new(0.3, 0.1, -0.2), 0.0, ds.spec.dt, &cfg);
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

    let got: Vec<String> = got.iter().map(|(what, d)| format!("{what}: {d:#018x}")).collect();
    assert_eq!(got, RECORDED, "an output moved");
}
