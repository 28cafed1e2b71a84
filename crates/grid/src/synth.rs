//! Synthetic CFD datasets standing in for the paper's proprietary test data.
//!
//! The paper evaluates on two multi-block datasets (Table 1):
//!
//! * **Engine** — inflow of a 4-valve combustion engine; 63 time steps,
//!   23 blocks, 1.12 GB on disk.
//! * **Propfan** — aircraft engine with two counter-rotating fans; 50 time
//!   steps, 144 blocks, 19.5 GB on disk.
//!
//! Neither dataset is available, so this module builds analytic stand-ins
//! with the *same block and time-step structure*: a swirling intake flow in
//! a cylindrical chamber (Engine) and an annular duct with two
//! counter-rotating rings of blade-tip vortices (Propfan). The flows are
//! superpositions of Lamb–Oseen vortices and axial through-flow, so λ₂
//! vortex extraction and pathline integration find genuine structures.
//!
//! Per-block resolution is configurable; the nominal on-disk size charged to
//! the I/O cost model stays at the paper's full-scale byte counts, which is
//! what the caching/prefetching experiments actually measure.

use crate::block::{BlockDims, BlockId, BlockStepId, CurvilinearBlock, StepId};
use crate::field::{BlockData, VectorField};
use crate::math::Vec3;
use std::f64::consts::{PI, TAU};
use std::sync::Arc;

/// A time-dependent analytic velocity field.
pub trait AnalyticFlow: Send + Sync {
    /// Velocity at physical position `p` and solution time `t`.
    fn velocity(&self, p: Vec3, t: f64) -> Vec3;
}

/// Constant velocity everywhere.
#[derive(Debug, Clone, Copy)]
pub struct UniformFlow(pub Vec3);

impl AnalyticFlow for UniformFlow {
    fn velocity(&self, _p: Vec3, _t: f64) -> Vec3 {
        self.0
    }
}

/// A Lamb–Oseen (viscous) line vortex with axis through `origin` along
/// `axis`. Tangential speed: `v_θ(r) = Γ/(2πr) · (1 − exp(−r²/rc²))`.
#[derive(Debug, Clone, Copy)]
pub struct LambOseenVortex {
    pub origin: Vec3,
    /// Unit axis direction (normalized on construction).
    pub axis: Vec3,
    /// Circulation Γ; the sign selects the sense of rotation.
    pub circulation: f64,
    /// Core radius r_c.
    pub core_radius: f64,
}

impl LambOseenVortex {
    pub fn new(origin: Vec3, axis: Vec3, circulation: f64, core_radius: f64) -> Self {
        let axis = axis.normalized().expect("vortex axis must be non-zero");
        LambOseenVortex {
            origin,
            axis,
            circulation,
            core_radius,
        }
    }
}

impl AnalyticFlow for LambOseenVortex {
    fn velocity(&self, p: Vec3, _t: f64) -> Vec3 {
        // Radial vector from the axis line to p.
        let d = p - self.origin;
        let radial = d - self.axis * d.dot(self.axis);
        let r = radial.norm();
        if r < 1e-12 {
            return Vec3::ZERO;
        }
        let v_theta = self.circulation / (TAU * r)
            * (1.0 - (-r * r / (self.core_radius * self.core_radius)).exp());
        let tangent = self.axis.cross(radial / r);
        tangent * v_theta
    }
}

/// Sum of several component flows.
pub struct Superposition {
    parts: Vec<Box<dyn AnalyticFlow>>,
}

impl Superposition {
    pub fn new(parts: Vec<Box<dyn AnalyticFlow>>) -> Self {
        Superposition { parts }
    }
}

impl AnalyticFlow for Superposition {
    fn velocity(&self, p: Vec3, t: f64) -> Vec3 {
        self.parts
            .iter()
            .fold(Vec3::ZERO, |acc, f| acc + f.velocity(p, t))
    }
}

/// Swirling intake flow of the Engine stand-in: axial inflow with a
/// parabolic profile, a **concentrated** swirl vortex along the cylinder
/// axis that pulses with the valve cycle, and a weak tumble component.
///
/// The swirl uses a Burgers-type profile `v_θ(r) = v_max · (r/r_c) ·
/// exp(½(1 − (r/r_c)²))` — rotational inside the core, nearly
/// irrotational outside — so λ₂ discriminates the vortex core from the
/// bulk flow (a solid-body swirl would make the *entire* cylinder read
/// as one vortex).
#[derive(Debug, Clone, Copy)]
pub struct SwirlingIntake {
    /// Cylinder radius.
    pub radius: f64,
    /// Cylinder height (axis = z, base at z = 0).
    pub height: f64,
    /// Peak axial velocity.
    pub axial_peak: f64,
    /// Peak tangential velocity of the swirl vortex.
    pub swirl_vmax: f64,
    /// Swirl core radius as a fraction of the cylinder radius.
    pub core_frac: f64,
    /// Valve-cycle period.
    pub period: f64,
}

impl AnalyticFlow for SwirlingIntake {
    fn velocity(&self, p: Vec3, t: f64) -> Vec3 {
        let r2 = p.x * p.x + p.y * p.y;
        let r = r2.sqrt();
        let rr = (r2 / (self.radius * self.radius)).min(1.0);
        // Valve cycle modulation in [0.25, 1.0]: never fully stagnant.
        let cycle = 0.625 + 0.375 * (TAU * t / self.period).sin();
        let axial = -self.axial_peak * (1.0 - rr) * cycle;
        // Concentrated swirl vortex about the cylinder axis.
        let rc = self.core_frac * self.radius;
        let swirl = if r > 1e-12 {
            let s = r / rc;
            let v_theta = self.swirl_vmax * cycle * s * (0.5 * (1.0 - s * s)).exp();
            Vec3::new(-p.y / r, p.x / r, 0.0) * v_theta
        } else {
            Vec3::ZERO
        };
        // Weak tumble about the x axis through mid-height (kept far below
        // the swirl so the background stays effectively irrotational).
        let zc = p.z - 0.5 * self.height;
        let tumble_omega = 30.0 * cycle;
        let tumble = Vec3::new(0.0, -zc, p.y) * tumble_omega;
        swirl + tumble + Vec3::new(0.0, 0.0, axial)
    }
}

/// A ring of `n_blades` blade-tip vortices, equally spaced on a circle of
/// radius `ring_radius` in the plane `z = plane_z`, all with axes along +z,
/// the whole ring rotating with angular velocity `omega` (sign = sense).
#[derive(Debug, Clone, Copy)]
pub struct BladeVortexRing {
    pub n_blades: usize,
    pub ring_radius: f64,
    pub plane_z: f64,
    /// Rotation rate of the ring (rad/s); negative for the counter-rotating
    /// row.
    pub omega: f64,
    pub circulation: f64,
    pub core_radius: f64,
    /// Axial extent over which the vortices remain coherent.
    pub axial_decay: f64,
    /// Peak axial velocity deficit of the blade wakes (m/s); gives the
    /// speed magnitude |u| genuine structure for isosurfacing.
    pub axial_deficit: f64,
    /// Radius of the wake deficit tube around each vortex core.
    pub deficit_radius: f64,
}

impl AnalyticFlow for BladeVortexRing {
    fn velocity(&self, p: Vec3, t: f64) -> Vec3 {
        let mut v = Vec3::ZERO;
        // Wake strength decays downstream of the blade plane.
        let dz = p.z - self.plane_z;
        let decay = (-(dz * dz) / (self.axial_decay * self.axial_decay)).exp();
        if decay < 1e-6 {
            return v;
        }
        for b in 0..self.n_blades {
            let phase = TAU * b as f64 / self.n_blades as f64 + self.omega * t;
            let cx = self.ring_radius * phase.cos();
            let cy = self.ring_radius * phase.sin();
            // In-plane distance to this vortex core.
            let dx = p.x - cx;
            let dy = p.y - cy;
            let r2 = dx * dx + dy * dy;
            let r = r2.sqrt();
            if r < 1e-12 {
                continue;
            }
            let v_theta = self.circulation / (TAU * r)
                * (1.0 - (-r2 / (self.core_radius * self.core_radius)).exp());
            // Tangent of rotation about the (z-parallel) vortex axis.
            v += Vec3::new(-dy / r, dx / r, 0.0) * (v_theta * decay);
            // Axial momentum deficit in the blade wake.
            let wake = (-r2 / (self.deficit_radius * self.deficit_radius)).exp() * decay;
            v.z -= self.axial_deficit * wake;
        }
        v
    }
}

/// Static description of a synthetic dataset: structure, resolution and the
/// *nominal* (paper-scale) on-disk size used by the I/O cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    pub name: String,
    pub n_blocks: u32,
    pub n_steps: u32,
    /// Per-block lattice resolution (uniform across blocks).
    pub block_dims: BlockDims,
    /// Paper-scale total size on disk, in bytes; the per-item I/O cost is
    /// `nominal_disk_bytes / (n_blocks * n_steps)`.
    pub nominal_disk_bytes: u64,
    /// Physical time between steps.
    pub dt: f64,
}

impl DatasetSpec {
    /// Paper-scale size of a single `(block, step)` item.
    pub fn nominal_item_bytes(&self) -> u64 {
        self.nominal_disk_bytes / (self.n_blocks as u64 * self.n_steps as u64)
    }

    /// Paper-scale grid points per item, assuming 48 bytes per point
    /// (coordinates + velocity as f64 triplets). Cost models charge
    /// compute against this, not against the scaled-down actual grids.
    pub fn nominal_points_per_item(&self) -> u64 {
        self.nominal_item_bytes() / 48
    }

    /// Paper-scale cell count per item (≈ point count for large blocks).
    pub fn nominal_cells_per_item(&self) -> u64 {
        self.nominal_points_per_item()
    }

    /// All `(block, step)` addresses in file order (step-major: all blocks
    /// of step 0, then step 1, …) — the order data sets are stored in and
    /// the "next block" relation used by sequential prefetchers (§4.2).
    pub fn items_in_file_order(&self) -> impl Iterator<Item = BlockStepId> + '_ {
        (0..self.n_steps).flat_map(move |s| (0..self.n_blocks).map(move |b| BlockStepId::new(b, s)))
    }

    pub fn n_items(&self) -> u64 {
        self.n_blocks as u64 * self.n_steps as u64
    }
}

/// A fully specified synthetic dataset: block geometries plus the analytic
/// flow used to evaluate the unsteady field at any step on demand.
pub struct SyntheticDataset {
    pub spec: DatasetSpec,
    /// One geometry per block, handed to every item generated for it.
    blocks: Vec<Arc<CurvilinearBlock>>,
    flow: Arc<dyn AnalyticFlow>,
}

impl SyntheticDataset {
    pub fn new(
        spec: DatasetSpec,
        blocks: Vec<CurvilinearBlock>,
        flow: Arc<dyn AnalyticFlow>,
    ) -> Self {
        assert_eq!(blocks.len(), spec.n_blocks as usize, "block count mismatch");
        let blocks = blocks.into_iter().map(Arc::new).collect();
        SyntheticDataset { spec, blocks, flow }
    }

    pub fn block_geometry(&self, id: BlockId) -> &CurvilinearBlock {
        &self.blocks[id as usize]
    }

    pub fn blocks(&self) -> &[Arc<CurvilinearBlock>] {
        &self.blocks
    }

    pub fn flow(&self) -> &Arc<dyn AnalyticFlow> {
        &self.flow
    }

    /// Solution time of a step.
    pub fn time_of_step(&self, step: StepId) -> f64 {
        step as f64 * self.spec.dt
    }

    /// Materializes the data item for `(block, step)` by sampling the
    /// analytic flow at the block's grid points. The item shares the
    /// block's geometry with every other item of the block.
    pub fn generate(&self, id: BlockStepId) -> BlockData {
        assert!(id.block < self.spec.n_blocks, "block out of range");
        assert!(id.step < self.spec.n_steps, "step out of range");
        let _span = vira_obs::span("grid.generate", "grid")
            .arg("block", id.block)
            .arg("step", id.step);
        let grid = Arc::clone(&self.blocks[id.block as usize]);
        let t = self.time_of_step(id.step);
        let flow = &self.flow;
        let velocity =
            VectorField::from_fn(grid.dims, |i, j, k| flow.velocity(grid.point(i, j, k), t));
        BlockData::new(id, grid, velocity, t)
    }

    /// Stored bytes of one item, points + velocity (all items share the
    /// same dims, so this is uniform): what an item file holds past its
    /// header. Not what an item charges a cache — that is the velocity
    /// alone ([`BlockData::memory_bytes`]), the geometry being shared.
    pub fn actual_item_bytes(&self) -> usize {
        // points + velocity, 24 bytes each
        self.spec.block_dims.n_points() * std::mem::size_of::<Vec3>() * 2
    }
}

#[allow(clippy::too_many_arguments)]
fn cylinder_sector_block(
    id: BlockId,
    dims: BlockDims,
    r0: f64,
    r1: f64,
    theta0: f64,
    theta1: f64,
    z0: f64,
    z1: f64,
) -> CurvilinearBlock {
    CurvilinearBlock::from_fn(id, dims, |i, j, k| {
        let u = i as f64 / (dims.ni - 1) as f64;
        let v = j as f64 / (dims.nj - 1) as f64;
        let w = k as f64 / (dims.nk - 1) as f64;
        let r = r0 + (r1 - r0) * u;
        let theta = theta0 + (theta1 - theta0) * v;
        let z = z0 + (z1 - z0) * w;
        Vec3::new(r * theta.cos(), r * theta.sin(), z)
    })
}

/// Builds the **Engine** stand-in: a cylindrical combustion chamber split
/// into 23 azimuthal sector blocks, 63 time steps, with a pulsing swirling
/// intake flow. `res` is the number of grid points per block direction.
pub fn engine(res: usize) -> SyntheticDataset {
    let n_blocks = 23u32;
    let n_steps = 63u32;
    let radius = 0.05; // 50 mm bore
    let height = 0.10;
    let dims = BlockDims::new(res, res, res);
    let blocks = (0..n_blocks)
        .map(|b| {
            let theta0 = TAU * b as f64 / n_blocks as f64;
            let theta1 = TAU * (b + 1) as f64 / n_blocks as f64;
            cylinder_sector_block(b, dims, 0.15 * radius, radius, theta0, theta1, 0.0, height)
        })
        .collect();
    let period = 0.02; // one valve cycle
    let intake = SwirlingIntake {
        radius,
        height,
        axial_peak: 8.0,
        swirl_vmax: 25.0,
        core_frac: 0.35,
        period,
    };
    // A pair of intake-jet vortices that give λ₂ extraction off-axis
    // structures to find.
    let jet_a = LambOseenVortex::new(
        Vec3::new(0.55 * radius, 0.0, 0.0),
        Vec3::new(0.0, 0.2, 1.0),
        0.5,
        0.010,
    );
    let jet_b = LambOseenVortex::new(
        Vec3::new(-0.55 * radius, 0.0, 0.0),
        Vec3::new(0.0, -0.2, 1.0),
        -0.5,
        0.010,
    );
    let flow = Superposition::new(vec![Box::new(intake), Box::new(jet_a), Box::new(jet_b)]);
    let spec = DatasetSpec {
        name: "Engine".to_string(),
        n_blocks,
        n_steps,
        block_dims: dims,
        nominal_disk_bytes: (1.12 * 1024.0 * 1024.0 * 1024.0) as u64,
        dt: period / n_steps as f64,
    };
    SyntheticDataset::new(spec, blocks, Arc::new(flow))
}

/// Builds the **Propfan** stand-in: an annular duct around two
/// counter-rotating fan rows, split into 12 azimuthal sectors × 12 axial
/// segments = 144 blocks, 50 time steps. `res` is points per block
/// direction.
pub fn propfan(res: usize) -> SyntheticDataset {
    let n_sectors = 12u32;
    let n_axial = 12u32;
    let n_blocks = n_sectors * n_axial; // 144
    let n_steps = 50u32;
    let hub = 0.30;
    let tip = 0.55;
    let length = 1.2;
    let dims = BlockDims::new(res, res, res);
    let mut blocks = Vec::with_capacity(n_blocks as usize);
    for a in 0..n_axial {
        for s in 0..n_sectors {
            let id = a * n_sectors + s;
            let theta0 = TAU * s as f64 / n_sectors as f64;
            let theta1 = TAU * (s + 1) as f64 / n_sectors as f64;
            let z0 = length * a as f64 / n_axial as f64;
            let z1 = length * (a + 1) as f64 / n_axial as f64;
            blocks.push(cylinder_sector_block(
                id, dims, hub, tip, theta0, theta1, z0, z1,
            ));
        }
    }
    let omega = 2.0 * PI * 40.0; // 40 rev/s

    // Core radii are sized to stay resolvable on the scaled-down bench
    // grids; circulations give tangential speeds of a few m/s against the
    // 30 m/s through-flow, and the wake deficits carve |u| structure the
    // isosurface commands can extract.
    let row1 = BladeVortexRing {
        n_blades: 6,
        ring_radius: 0.46,
        plane_z: 0.35,
        omega,
        circulation: 2.2,
        core_radius: 0.075,
        axial_decay: 0.28,
        axial_deficit: 6.0,
        deficit_radius: 0.10,
    };
    let row2 = BladeVortexRing {
        n_blades: 6,
        ring_radius: 0.44,
        plane_z: 0.65,
        omega: -omega,
        circulation: -1.8,
        core_radius: 0.075,
        axial_decay: 0.28,
        axial_deficit: 5.0,
        deficit_radius: 0.10,
    };
    let through_flow = UniformFlow(Vec3::new(0.0, 0.0, 30.0));
    // Overall swirl imparted by the first row and removed by the second.
    let hub_vortex = LambOseenVortex::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 3.0, 0.20);
    let flow = Superposition::new(vec![
        Box::new(through_flow),
        Box::new(row1),
        Box::new(row2),
        Box::new(hub_vortex),
    ]);
    let spec = DatasetSpec {
        name: "Propfan".to_string(),
        n_blocks,
        n_steps,
        block_dims: dims,
        nominal_disk_bytes: (19.5 * 1024.0 * 1024.0 * 1024.0) as u64,
        dt: 0.025 / n_steps as f64, // one blade passage
    };
    SyntheticDataset::new(spec, blocks, Arc::new(flow))
}

/// A tiny single-block Cartesian dataset with a steady rotating flow —
/// convenient for unit and integration tests.
pub fn test_cube(res: usize, n_steps: u32) -> SyntheticDataset {
    let dims = BlockDims::new(res, res, res);
    let block = CurvilinearBlock::from_fn(0, dims, |i, j, k| {
        Vec3::new(
            i as f64 / (res - 1) as f64 * 2.0 - 1.0,
            j as f64 / (res - 1) as f64 * 2.0 - 1.0,
            k as f64 / (res - 1) as f64 * 2.0 - 1.0,
        )
    });
    let vortex = LambOseenVortex::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 1.0, 0.4);
    let spec = DatasetSpec {
        name: "TestCube".to_string(),
        n_blocks: 1,
        n_steps,
        block_dims: dims,
        nominal_disk_bytes: 64 * 1024 * 1024,
        dt: 0.01,
    };
    SyntheticDataset::new(spec, vec![block], Arc::new(vortex))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lamb_oseen_is_tangential_and_bounded() {
        let v = LambOseenVortex::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 1.0, 0.1);
        let p = Vec3::new(0.2, 0.0, 0.3);
        let vel = v.velocity(p, 0.0);
        // Velocity is tangential: orthogonal to the radial direction and to
        // the axis.
        assert!(vel.dot(Vec3::new(1.0, 0.0, 0.0)).abs() < 1e-12);
        assert!(vel.dot(Vec3::new(0.0, 0.0, 1.0)).abs() < 1e-12);
        assert!(
            vel.y > 0.0,
            "positive circulation rotates counter-clockwise"
        );
        // On the axis the velocity vanishes.
        assert_eq!(v.velocity(Vec3::new(0.0, 0.0, 1.0), 0.0), Vec3::ZERO);
    }

    #[test]
    fn lamb_oseen_peak_near_core_radius() {
        let v = LambOseenVortex::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 1.0, 0.1);
        let speed = |r: f64| v.velocity(Vec3::new(r, 0.0, 0.0), 0.0).norm();
        // The Lamb–Oseen profile peaks at ~1.12 r_c.
        assert!(speed(0.112) > speed(0.02));
        assert!(speed(0.112) > speed(0.5));
    }

    #[test]
    fn superposition_adds() {
        let f = Superposition::new(vec![
            Box::new(UniformFlow(Vec3::new(1.0, 0.0, 0.0))),
            Box::new(UniformFlow(Vec3::new(0.0, 2.0, 0.0))),
        ]);
        assert_eq!(f.velocity(Vec3::ZERO, 0.0), Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn engine_matches_table1_structure() {
        let ds = engine(5);
        assert_eq!(ds.spec.n_blocks, 23);
        assert_eq!(ds.spec.n_steps, 63);
        assert_eq!(ds.blocks().len(), 23);
        // ~1.12 GB nominal size
        assert!(ds.spec.nominal_disk_bytes > 1_100_000_000);
    }

    #[test]
    fn propfan_matches_table1_structure() {
        let ds = propfan(4);
        assert_eq!(ds.spec.n_blocks, 144);
        assert_eq!(ds.spec.n_steps, 50);
        assert!(ds.spec.nominal_disk_bytes > 19_000_000_000);
    }

    #[test]
    fn generate_produces_consistent_item() {
        let ds = engine(5);
        let id = BlockStepId::new(3, 7);
        let item = ds.generate(id);
        assert_eq!(item.id, id);
        assert_eq!(item.dims(), ds.spec.block_dims);
        assert!((item.time - 7.0 * ds.spec.dt).abs() < 1e-15);
        let speed = item.velocity.magnitude();
        assert!(speed.values.iter().all(|s| s.is_finite()));
        // The intake flow is not identically zero.
        assert!(speed.values.iter().any(|&s| s > 1e-6));
    }

    #[test]
    fn generate_is_deterministic() {
        let ds = propfan(4);
        let a = ds.generate(BlockStepId::new(10, 2));
        let b = ds.generate(BlockStepId::new(10, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn file_order_enumerates_all_items() {
        let ds = test_cube(4, 3);
        let items: Vec<_> = ds.spec.items_in_file_order().collect();
        assert_eq!(items.len() as u64, ds.spec.n_items());
        assert_eq!(items[0], BlockStepId::new(0, 0));
        assert_eq!(*items.last().unwrap(), BlockStepId::new(0, 2));
    }

    #[test]
    fn unsteady_flow_varies_in_time() {
        let ds = engine(5);
        let a = ds.generate(BlockStepId::new(0, 0));
        let b = ds.generate(BlockStepId::new(0, 20));
        assert_ne!(a.velocity, b.velocity);
        // Geometry is static across time: both steps hold the one grid.
        assert_eq!(a.grid, b.grid);
        assert!(Arc::ptr_eq(&a.grid, &b.grid));
    }

    #[test]
    fn blocks_tile_the_annulus_without_overlap_gaps() {
        let ds = propfan(4);
        // Adjacent sector blocks share their interface plane: last azimuth
        // row of points of block s equals first row of block s+1.
        let b0 = ds.block_geometry(0);
        let b1 = ds.block_geometry(1);
        let d = b0.dims;
        for k in 0..d.nk {
            for i in 0..d.ni {
                let p_end = b0.point(i, d.nj - 1, k);
                let p_start = b1.point(i, 0, k);
                assert!((p_end - p_start).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn nominal_item_bytes_partition_total() {
        let ds = engine(5);
        let per = ds.spec.nominal_item_bytes();
        // per-item × items ≈ total (within integer division slack)
        let total = per * ds.spec.n_items();
        assert!(total <= ds.spec.nominal_disk_bytes);
        assert!(ds.spec.nominal_disk_bytes - total < ds.spec.n_items());
    }
}
