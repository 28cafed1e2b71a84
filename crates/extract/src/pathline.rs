//! Pathline integration for unsteady multi-block flows (paper §6.3,
//! §7.3; scheme of Gerndt et al., PDPTA 2003 — the paper's ref. 15).
//!
//! Fourth-order Runge–Kutta with adaptive step-size control by step
//! doubling. Two temporal schemes are provided:
//!
//! * [`TimeScheme::VelocityInterp`] — classic unsteady RK4 on the
//!   time-interpolated velocity field;
//! * [`TimeScheme::AdjacentLevels`] — the paper's scheme: "the succeeding
//!   particle position is computed separately on adjacent time levels and
//!   finally interpolated with respect to the elapsed time".
//!
//! The integrator is generic over a [`FieldSampler`]; the framework crate
//! plugs in a sampler backed by the data management system (every block
//! request goes through the proxy, which is what makes pathline traces
//! interesting cache/prefetch workloads), while tests use analytic
//! samplers with known trajectories.

use crate::locate::{locate_cell, CellHit};
use crate::mesh::Polyline;
use std::collections::HashMap;
use std::sync::Arc;
use vira_grid::block::{BlockId, BlockStepId};
use vira_grid::field::SharedBlockData;
use vira_grid::math::Vec3;
use vira_grid::topology::BlockTopology;

/// Access to the velocity field during integration.
pub trait FieldSampler {
    /// Velocity at `(p, t)` with full temporal interpolation, or `None`
    /// outside the domain / when data is unavailable.
    fn velocity(&mut self, p: Vec3, t: f64) -> Option<Vec3>;

    /// Velocity with time frozen at the data level adjacent to `t`
    /// (`hi = false` → level ≤ t, `hi = true` → level ≥ t). The default
    /// ignores levels (appropriate for analytic fields).
    fn velocity_at_level(&mut self, p: Vec3, t: f64, _hi: bool) -> Option<Vec3> {
        self.velocity(p, t)
    }

    /// Interpolation weight of `t` between its adjacent data levels
    /// (0 → lower level, 1 → upper). The default has no discrete levels.
    fn level_alpha(&self, _t: f64) -> f64 {
        0.0
    }
}

/// Sampler over an analytic flow (tests, verification).
pub struct AnalyticSampler<F: Fn(Vec3, f64) -> Vec3> {
    pub f: F,
}

impl<F: Fn(Vec3, f64) -> Vec3> FieldSampler for AnalyticSampler<F> {
    fn velocity(&mut self, p: Vec3, t: f64) -> Option<Vec3> {
        Some((self.f)(p, t))
    }
}

/// Supplies block data items on demand — the bridge between the
/// integrator and the data management system.
pub trait BlockFetcher {
    fn fetch(&mut self, id: BlockStepId) -> Option<SharedBlockData>;
}

impl<F: FnMut(BlockStepId) -> Option<SharedBlockData>> BlockFetcher for F {
    fn fetch(&mut self, id: BlockStepId) -> Option<SharedBlockData> {
        self(id)
    }
}

/// The items one trace holds. Holding them (a) lets the integrator touch
/// its working set thousands of times without hammering the data
/// management system and (b) makes the fetch stream the clean per-item
/// load sequence a Markov prefetcher can learn from: each distinct item
/// is fetched exactly once per trace, and only for blocks the particle
/// enters (plus one item per block it merely comes close to).
struct HeldItems<F: BlockFetcher> {
    fetcher: F,
    items: HashMap<BlockStepId, SharedBlockData>,
    /// The first item fetched of each block: its grid stands for the
    /// block's geometry at every step.
    first_of_block: HashMap<BlockId, SharedBlockData>,
}

impl<F: BlockFetcher> HeldItems<F> {
    /// One fetcher call per distinct item per trace.
    fn item(&mut self, id: BlockStepId) -> Option<&SharedBlockData> {
        use std::collections::hash_map::Entry;
        match self.items.entry(id) {
            Entry::Occupied(held) => Some(held.into_mut()),
            Entry::Vacant(slot) => {
                let data = self.fetcher.fetch(id)?;
                self.first_of_block
                    .entry(id.block)
                    .or_insert_with(|| data.clone());
                Some(slot.insert(data))
            }
        }
    }

    /// Any held item of `block`; fetches `(block, step)` when the trace
    /// has none yet.
    fn geometry(&mut self, block: BlockId, step: u32) -> Option<&SharedBlockData> {
        if !self.first_of_block.contains_key(&block) {
            self.item(BlockStepId::new(block, step))?;
        }
        self.first_of_block.get(&block)
    }
}

/// Sampler over a time-dependent multi-block dataset. Maintains a block
/// hint (particles usually stay in a block for many steps), locates
/// through the topology's shared per-block locators, and performs linear
/// interpolation between adjacent time levels.
pub struct MultiBlockSampler<F: BlockFetcher> {
    held: HeldItems<F>,
    topology: Arc<BlockTopology>,
    n_steps: u32,
    dt: f64,
    hint: Option<(BlockId, (usize, usize, usize))>,
}

impl<F: BlockFetcher> MultiBlockSampler<F> {
    pub fn new(fetcher: F, topology: Arc<BlockTopology>, n_steps: u32, dt: f64) -> Self {
        assert!(n_steps >= 1 && dt > 0.0);
        MultiBlockSampler {
            held: HeldItems {
                fetcher,
                items: HashMap::new(),
                first_of_block: HashMap::new(),
            },
            topology,
            n_steps,
            dt,
            hint: None,
        }
    }

    /// Adjacent data levels of `t` and the interpolation weight.
    fn levels(&self, t: f64) -> (u32, u32, f64) {
        let max = (self.n_steps - 1) as f64;
        let s = (t / self.dt).clamp(0.0, max);
        let lo = s.floor() as u32;
        let hi = (lo + 1).min(self.n_steps - 1);
        let alpha = if hi == lo { 0.0 } else { s - lo as f64 };
        (lo, hi, alpha)
    }

    /// Finds the block and cell containing `p`, using the hint first.
    /// Geometry is static, so the answer holds at every time level;
    /// `step` only names the item to fetch for a candidate block the
    /// trace holds nothing of yet.
    fn locate(&mut self, p: Vec3, step: u32) -> Option<(BlockId, CellHit)> {
        let near = self.hint.map(|(b, _)| self.topology.candidates_near(p, b));
        let all = near
            .is_none()
            .then(|| self.topology.candidates_for_point(p));
        for b in near.into_iter().flatten().chain(all.into_iter().flatten()) {
            let grid = &self.held.geometry(b, step)?.grid;
            let hint_cell = match self.hint {
                Some((hb, c)) if hb == b => Some(c),
                _ => None,
            };
            if let Some(hit) = locate_cell(self.topology.locator(b, grid), grid, p, hint_cell) {
                self.hint = Some((b, hit.cell));
                return Some((b, hit));
            }
        }
        None
    }

    fn sample(&mut self, b: BlockId, step: u32, hit: &CellHit) -> Option<Vec3> {
        let data = self.held.item(BlockStepId::new(b, step))?;
        Some(data.velocity.sample(hit.cell, hit.u, hit.v, hit.w))
    }
}

impl<F: BlockFetcher> FieldSampler for MultiBlockSampler<F> {
    fn velocity(&mut self, p: Vec3, t: f64) -> Option<Vec3> {
        let (lo, hi, alpha) = self.levels(t);
        let (b, hit) = self.locate(p, lo)?;
        let v_lo = self.sample(b, lo, &hit)?;
        if hi == lo || alpha == 0.0 {
            return Some(v_lo);
        }
        let v_hi = self.sample(b, hi, &hit)?;
        Some(v_lo.lerp(v_hi, alpha))
    }

    fn velocity_at_level(&mut self, p: Vec3, t: f64, hi: bool) -> Option<Vec3> {
        let (lo, hi_lv, _) = self.levels(t);
        let step = if hi { hi_lv } else { lo };
        let (b, hit) = self.locate(p, step)?;
        self.sample(b, step, &hit)
    }

    fn level_alpha(&self, t: f64) -> f64 {
        self.levels(t).2
    }
}

/// Freezes an unsteady sampler at one instant — turns pathline
/// integration into **streamline** integration (the instantaneous field
/// lines of a single time level).
pub struct SteadySampler<S: FieldSampler> {
    inner: S,
    /// The frozen solution time.
    pub frozen_t: f64,
}

impl<S: FieldSampler> SteadySampler<S> {
    pub fn new(inner: S, frozen_t: f64) -> Self {
        SteadySampler { inner, frozen_t }
    }
}

impl<S: FieldSampler> FieldSampler for SteadySampler<S> {
    fn velocity(&mut self, p: Vec3, _t: f64) -> Option<Vec3> {
        self.inner.velocity(p, self.frozen_t)
    }
    // Frozen time has no levels: the defaults (no interpolation) apply.
}

/// Temporal handling of the unsteady field during one RK4 step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeScheme {
    /// RK4 on the time-interpolated velocity.
    VelocityInterp,
    /// The paper's scheme: integrate on both adjacent (frozen) time
    /// levels, then interpolate the resulting positions.
    AdjacentLevels,
}

/// Integration parameters.
#[derive(Debug, Clone, Copy)]
pub struct PathlineConfig {
    pub h_init: f64,
    pub h_min: f64,
    pub h_max: f64,
    /// Per-step position tolerance for the step-doubling control.
    pub tol: f64,
    pub max_steps: usize,
    pub scheme: TimeScheme,
}

impl Default for PathlineConfig {
    fn default() -> Self {
        PathlineConfig {
            h_init: 1e-3,
            h_min: 1e-7,
            h_max: 0.25,
            tol: 1e-6,
            max_steps: 100_000,
            scheme: TimeScheme::VelocityInterp,
        }
    }
}

/// Why a trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStatus {
    ReachedEndTime,
    LeftDomain,
    StepLimit,
    /// The controller could not meet the tolerance even at `h_min`.
    StepUnderflow,
}

/// A traced pathline plus integration diagnostics.
#[derive(Debug, Clone)]
pub struct PathlineResult {
    pub line: Polyline,
    pub status: TraceStatus,
    pub steps_accepted: usize,
    pub steps_rejected: usize,
}

fn rk4<S: FieldSampler>(
    sampler: &mut S,
    p: Vec3,
    t: f64,
    h: f64,
    level: Option<bool>,
) -> Option<Vec3> {
    let vel = |s: &mut S, q: Vec3, tt: f64| match level {
        Some(hi) => s.velocity_at_level(q, tt, hi),
        None => s.velocity(q, tt),
    };
    let k1 = vel(sampler, p, t)?;
    let k2 = vel(sampler, p + k1 * (h / 2.0), t + h / 2.0)?;
    let k3 = vel(sampler, p + k2 * (h / 2.0), t + h / 2.0)?;
    let k4 = vel(sampler, p + k3 * h, t + h)?;
    Some(p + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0))
}

/// One (tentative) step of the configured scheme.
fn scheme_step<S: FieldSampler>(
    sampler: &mut S,
    p: Vec3,
    t: f64,
    h: f64,
    scheme: TimeScheme,
) -> Option<Vec3> {
    match scheme {
        TimeScheme::VelocityInterp => rk4(sampler, p, t, h, None),
        TimeScheme::AdjacentLevels => {
            let p_lo = rk4(sampler, p, t, h, Some(false))?;
            let alpha = sampler.level_alpha(t + h);
            if alpha == 0.0 {
                return Some(p_lo);
            }
            let p_hi = rk4(sampler, p, t, h, Some(true))?;
            Some(p_lo.lerp(p_hi, alpha))
        }
    }
}

/// Traces a pathline from `seed` over `[t0, t1]`.
pub fn trace_pathline<S: FieldSampler>(
    sampler: &mut S,
    seed: Vec3,
    t0: f64,
    t1: f64,
    cfg: &PathlineConfig,
) -> PathlineResult {
    assert!(t1 > t0, "end time must exceed start time");
    let mut line = Polyline::default();
    line.push(seed, t0);
    let mut p = seed;
    let mut t = t0;
    let mut h = cfg.h_init.min(t1 - t0);
    let mut accepted = 0;
    let mut rejected = 0;

    while t < t1 {
        if accepted + rejected >= cfg.max_steps {
            return PathlineResult {
                line,
                status: TraceStatus::StepLimit,
                steps_accepted: accepted,
                steps_rejected: rejected,
            };
        }
        let h_eff = h.min(t1 - t);
        // Step doubling: one full step vs two half steps.
        let full = scheme_step(sampler, p, t, h_eff, cfg.scheme);
        let half1 = scheme_step(sampler, p, t, h_eff / 2.0, cfg.scheme);
        let fine =
            half1.and_then(|ph| scheme_step(sampler, ph, t + h_eff / 2.0, h_eff / 2.0, cfg.scheme));
        let (Some(full), Some(fine)) = (full, fine) else {
            return PathlineResult {
                line,
                status: TraceStatus::LeftDomain,
                steps_accepted: accepted,
                steps_rejected: rejected,
            };
        };
        let err = (full - fine).norm();
        if err > cfg.tol && h_eff > cfg.h_min {
            h = (h_eff / 2.0).max(cfg.h_min);
            rejected += 1;
            continue;
        }
        if err > cfg.tol && h_eff <= cfg.h_min {
            return PathlineResult {
                line,
                status: TraceStatus::StepUnderflow,
                steps_accepted: accepted,
                steps_rejected: rejected,
            };
        }
        // Accept the finer estimate.
        p = fine;
        t += h_eff;
        line.push(p, t);
        accepted += 1;
        // Grow the step when comfortably under tolerance.
        if err < cfg.tol / 32.0 {
            h = (h_eff * 2.0).min(cfg.h_max);
        } else {
            h = h_eff;
        }
    }
    PathlineResult {
        line,
        status: TraceStatus::ReachedEndTime,
        steps_accepted: accepted,
        steps_rejected: rejected,
    }
}

/// Traces a **streakline**: the locus, at observation time `t1`, of all
/// particles continuously released from `seed` during `[t0, t1]`
/// (paper §9 lists streaklines as future work next to pathlines).
///
/// `n_release` particles are released at equally spaced times; each is
/// advected to `t1` by the pathline integrator. The returned polyline
/// connects their final positions ordered by release time (latest
/// release — the point still at the seed — first), with the release time
/// stored as the point's time stamp. Particles that leave the domain are
/// dropped, which can shorten the line.
pub fn trace_streakline<S: FieldSampler>(
    sampler: &mut S,
    seed: Vec3,
    t0: f64,
    t1: f64,
    n_release: usize,
    cfg: &PathlineConfig,
) -> Polyline {
    assert!(n_release >= 1 && t1 > t0);
    let mut line = Polyline::default();
    for k in (0..n_release).rev() {
        let t_r = t0 + (t1 - t0) * k as f64 / n_release as f64;
        if t1 - t_r < 1e-12 {
            line.push(seed, t_r);
            continue;
        }
        let r = trace_pathline(sampler, seed, t_r, t1, cfg);
        if r.status == TraceStatus::ReachedEndTime {
            if let Some(p) = r.line.points.last() {
                line.push(Vec3::new(p[0] as f64, p[1] as f64, p[2] as f64), t_r);
            }
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::synth::test_cube;
    use vira_grid::topology::topology_of;

    #[test]
    fn rigid_rotation_stays_on_circle() {
        // u = ω × r with ω = (0,0,1): circles of constant radius, period 2π.
        let mut s = AnalyticSampler {
            f: |p: Vec3, _t| Vec3::new(-p.y, p.x, 0.0),
        };
        let seed = Vec3::new(1.0, 0.0, 0.0);
        let r = trace_pathline(
            &mut s,
            seed,
            0.0,
            2.0 * std::f64::consts::PI,
            &PathlineConfig::default(),
        );
        assert_eq!(r.status, TraceStatus::ReachedEndTime);
        // Radius preserved along the whole path.
        for p in &r.line.points {
            let rad = ((p[0] * p[0] + p[1] * p[1]) as f64).sqrt();
            assert!((rad - 1.0).abs() < 1e-4, "radius {rad}");
        }
        // One full revolution: back to the seed.
        let last = r.line.points.last().unwrap();
        assert!((last[0] as f64 - 1.0).abs() < 1e-3);
        assert!((last[1] as f64).abs() < 1e-3);
    }

    #[test]
    fn adaptive_control_rejects_large_steps() {
        // A stiff oscillator forces step rejection at the default h_init.
        let mut s = AnalyticSampler {
            f: |p: Vec3, t: f64| Vec3::new((40.0 * t).cos() * 10.0, -p.y * 0.1, 0.0),
        };
        let cfg = PathlineConfig {
            h_init: 0.2,
            tol: 1e-8,
            ..PathlineConfig::default()
        };
        let r = trace_pathline(&mut s, Vec3::ZERO, 0.0, 1.0, &cfg);
        assert_eq!(r.status, TraceStatus::ReachedEndTime);
        assert!(r.steps_rejected > 0, "controller never adapted");
    }

    #[test]
    fn leaving_the_domain_ends_the_trace() {
        let mut s = AnalyticSampler {
            f: |_p, _t| Vec3::new(1.0, 0.0, 0.0),
        };
        // Wrap the sampler to cut the domain at x = 0.5.
        struct Bounded<F: Fn(Vec3, f64) -> Vec3>(AnalyticSampler<F>);
        impl<F: Fn(Vec3, f64) -> Vec3> FieldSampler for Bounded<F> {
            fn velocity(&mut self, p: Vec3, t: f64) -> Option<Vec3> {
                if p.x > 0.5 {
                    None
                } else {
                    self.0.velocity(p, t)
                }
            }
        }
        let mut bounded = Bounded(AnalyticSampler {
            f: |_p, _t| Vec3::new(1.0, 0.0, 0.0),
        });
        let _ = &mut s;
        let r = trace_pathline(
            &mut bounded,
            Vec3::ZERO,
            0.0,
            10.0,
            &PathlineConfig::default(),
        );
        assert_eq!(r.status, TraceStatus::LeftDomain);
        let last = r.line.points.last().unwrap();
        assert!(last[0] <= 0.6, "stopped near the boundary: {}", last[0]);
        assert!(r.line.len() > 1, "partial path retained");
    }

    #[test]
    fn step_limit_is_enforced() {
        let mut s = AnalyticSampler {
            f: |_p, _t| Vec3::new(1e-12, 0.0, 0.0),
        };
        let cfg = PathlineConfig {
            h_init: 1e-6,
            h_max: 1e-6,
            max_steps: 10,
            ..PathlineConfig::default()
        };
        let r = trace_pathline(&mut s, Vec3::ZERO, 0.0, 1.0, &cfg);
        assert_eq!(r.status, TraceStatus::StepLimit);
        assert!(r.steps_accepted <= 10);
    }

    #[test]
    fn multiblock_sampler_traces_the_test_vortex() {
        let ds = Arc::new(test_cube(12, 4));
        let topo = Arc::new(topology_of(&ds, 1e-9));
        let mut cache: HashMap<BlockStepId, SharedBlockData> = HashMap::new();
        let ds2 = ds.clone();
        let fetch = move |id: BlockStepId| {
            Some(
                cache
                    .entry(id)
                    .or_insert_with(|| Arc::new(ds2.generate(id)))
                    .clone(),
            )
        };
        let mut sampler = MultiBlockSampler::new(fetch, topo, ds.spec.n_steps, ds.spec.dt);
        // Seed inside the vortex: rotates about the z axis.
        let seed = Vec3::new(0.3, 0.0, 0.0);
        let t1 = ds.spec.dt * 3.0;
        let cfg = PathlineConfig {
            h_init: ds.spec.dt / 10.0,
            tol: 1e-7,
            ..PathlineConfig::default()
        };
        let r = trace_pathline(&mut sampler, seed, 0.0, t1, &cfg);
        assert_eq!(r.status, TraceStatus::ReachedEndTime);
        assert!(r.line.len() > 3);
        // Radius approximately conserved in the steady vortex (modest
        // tolerance: trilinear interpolation is not exactly divergence
        // free).
        let last = r.line.points.last().unwrap();
        let rad = ((last[0] * last[0] + last[1] * last[1]) as f64).sqrt();
        assert!((rad - 0.3).abs() < 0.05, "radius {rad}");
    }

    #[test]
    fn adjacent_level_scheme_matches_velocity_interp_for_steady_flow() {
        // The test cube flow is steady → both schemes agree.
        let ds = Arc::new(test_cube(10, 3));
        let topo = Arc::new(topology_of(&ds, 1e-9));
        let make_sampler = || {
            let ds2 = ds.clone();
            let mut cache: HashMap<BlockStepId, SharedBlockData> = HashMap::new();
            MultiBlockSampler::new(
                move |id: BlockStepId| {
                    Some(
                        cache
                            .entry(id)
                            .or_insert_with(|| Arc::new(ds2.generate(id)))
                            .clone(),
                    )
                },
                topo.clone(),
                ds.spec.n_steps,
                ds.spec.dt,
            )
        };
        let seed = Vec3::new(0.25, 0.1, -0.2);
        let t1 = ds.spec.dt * 2.0;
        let mut cfg = PathlineConfig {
            h_init: ds.spec.dt / 8.0,
            ..PathlineConfig::default()
        };
        let a = trace_pathline(&mut make_sampler(), seed, 0.0, t1, &cfg);
        cfg.scheme = TimeScheme::AdjacentLevels;
        let b = trace_pathline(&mut make_sampler(), seed, 0.0, t1, &cfg);
        assert_eq!(a.status, TraceStatus::ReachedEndTime);
        assert_eq!(b.status, TraceStatus::ReachedEndTime);
        let pa = a.line.points.last().unwrap();
        let pb = b.line.points.last().unwrap();
        for i in 0..3 {
            assert!(
                (pa[i] - pb[i]).abs() < 1e-4,
                "axis {i}: {} vs {}",
                pa[i],
                pb[i]
            );
        }
    }

    #[test]
    fn sampler_requests_blocks_through_the_fetcher() {
        // The fetch log is the workload the Markov prefetcher learns from.
        let ds = Arc::new(test_cube(10, 4));
        let topo = Arc::new(topology_of(&ds, 1e-9));
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let ds2 = ds.clone();
        let log2 = log.clone();
        let mut cache: HashMap<BlockStepId, SharedBlockData> = HashMap::new();
        let fetch = move |id: BlockStepId| {
            log2.lock().unwrap().push(id);
            Some(
                cache
                    .entry(id)
                    .or_insert_with(|| Arc::new(ds2.generate(id)))
                    .clone(),
            )
        };
        let mut sampler = MultiBlockSampler::new(fetch, topo, ds.spec.n_steps, ds.spec.dt);
        let cfg = PathlineConfig {
            h_init: ds.spec.dt / 4.0,
            ..PathlineConfig::default()
        };
        let _ = trace_pathline(
            &mut sampler,
            Vec3::new(0.2, 0.0, 0.0),
            0.0,
            ds.spec.dt * 2.5,
            &cfg,
        );
        let requests = log.lock().unwrap().clone();
        assert!(!requests.is_empty());
        // The trace walks forward through the time levels overall (the
        // step-doubling controller re-evaluates earlier levels within one
        // step, so per-request monotonicity does not hold — but the trace
        // must start at level 0 and reach past it).
        let steps: Vec<u32> = requests.iter().map(|r| r.step).collect();
        assert_eq!(*steps.first().unwrap(), 0);
        assert!(
            *steps.iter().max().unwrap() >= 2,
            "reached later time levels"
        );
    }

    /// Engine ring at a small resolution with every item generated up
    /// front, and the configuration the benchmark traces with.
    struct Ring {
        ds: vira_grid::synth::SyntheticDataset,
        topology: Arc<BlockTopology>,
        items: HashMap<BlockStepId, SharedBlockData>,
        n_steps: u32,
    }

    impl Ring {
        fn new(n_steps: u32) -> Ring {
            let ds = vira_grid::synth::engine(7);
            let topology = Arc::new(topology_of(&ds, 1e-9));
            let items = (0..n_steps)
                .flat_map(|s| (0..ds.spec.n_blocks).map(move |b| BlockStepId::new(b, s)))
                .map(|id| (id, Arc::new(ds.generate(id))))
                .collect();
            Ring {
                ds,
                topology,
                items,
                n_steps,
            }
        }

        /// Traces from `seed` over all levels; `fetch` sees every request.
        fn trace(
            &self,
            seed: Vec3,
            fetch: impl FnMut(BlockStepId) -> Option<SharedBlockData>,
        ) -> PathlineResult {
            let dt = self.ds.spec.dt;
            let mut sampler =
                MultiBlockSampler::new(fetch, self.topology.clone(), self.n_steps, dt);
            let cfg = PathlineConfig {
                h_init: dt / 4.0,
                h_min: dt * 1e-6,
                h_max: dt,
                tol: 1e-5,
                max_steps: 20_000,
                scheme: TimeScheme::VelocityInterp,
            };
            trace_pathline(
                &mut sampler,
                seed,
                0.0,
                f64::from(self.n_steps - 1) * dt,
                &cfg,
            )
        }

        fn seeds(&self) -> [Vec3; 4] {
            [(0.03, 0.0), (-0.02, 0.02), (0.0, -0.035), (0.015, 0.03)]
                .map(|(x, y)| Vec3::new(x, y, 0.04))
        }
    }

    #[test]
    fn a_trace_fetches_each_item_once_and_only_what_it_samples() {
        let ring = Ring::new(6);
        for seed in ring.seeds() {
            let mut log = Vec::new();
            let reference = ring.trace(seed, |id| {
                log.push(id);
                ring.items.get(&id).cloned()
            });
            assert!(reference.line.len() > 3);
            let blocks: std::collections::HashSet<_> = log.iter().map(|id| id.block).collect();
            assert!(blocks.len() > 1, "the trace stays in one block: {log:?}");
            for (n, id) in log.iter().enumerate() {
                assert!(!log[..n].contains(id), "{id:?} fetched twice");
                if !log[..n].iter().any(|earlier| earlier.block == id.block) {
                    continue; // the block's first item may be held for its geometry alone
                }
                // Any later item must have been sampled: with its
                // velocities doubled the particle goes elsewhere.
                let mut doubled = (*ring.items[id]).clone();
                for plane in [
                    &mut doubled.velocity.xs,
                    &mut doubled.velocity.ys,
                    &mut doubled.velocity.zs,
                ] {
                    plane.iter_mut().for_each(|v| *v *= 2.0);
                }
                let doubled = Arc::new(doubled);
                let moved = ring.trace(seed, |other| {
                    if other == *id {
                        Some(doubled.clone())
                    } else {
                        ring.items.get(&other).cloned()
                    }
                });
                assert_ne!(
                    moved.line.to_bytes()[..],
                    reference.line.to_bytes()[..],
                    "{id:?} was fetched but never sampled"
                );
            }
        }
    }

    #[test]
    fn traces_sharing_a_topology_build_each_locator_once() {
        let ring = Ring::new(4);
        let trace_all = || -> Vec<Vec<u8>> {
            ring.seeds()
                .iter()
                .map(|&seed| {
                    ring.trace(seed, |id| ring.items.get(&id).cloned())
                        .line
                        .to_bytes()
                        .to_vec()
                })
                .collect()
        };
        let first = trace_all();
        let built = ring.topology.locators_built();
        assert!(
            (2..=ring.ds.spec.n_blocks as usize).contains(&built),
            "{built} locators"
        );
        let addresses = |topology: &BlockTopology| -> Vec<usize> {
            (0..ring.ds.spec.n_blocks)
                .map(|b| topology.locator(b, ring.ds.block_geometry(b)) as *const _ as usize)
                .collect()
        };
        // The same traces again, from two threads at once, find every
        // locator they need already built.
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(trace_all);
            (trace_all(), other.join().expect("tracing thread panicked"))
        });
        assert_eq!(a, first);
        assert_eq!(b, first);
        assert_eq!(
            ring.topology.locators_built(),
            built,
            "a repeated trace built a locator"
        );
        // Asking for all of them builds the rest, each exactly where it stays.
        let all = addresses(&ring.topology);
        assert_eq!(
            ring.topology.locators_built(),
            ring.ds.spec.n_blocks as usize
        );
        assert_eq!(addresses(&ring.topology), all);
    }

    #[test]
    fn steady_sampler_freezes_time() {
        // A field that grows with t; frozen at t=1 it is constant.
        let inner = AnalyticSampler {
            f: |_p: Vec3, t: f64| Vec3::new(t, 0.0, 0.0),
        };
        let mut s = SteadySampler::new(inner, 1.0);
        assert_eq!(s.velocity(Vec3::ZERO, 99.0), Some(Vec3::new(1.0, 0.0, 0.0)));
        assert_eq!(s.velocity(Vec3::ZERO, -5.0), Some(Vec3::new(1.0, 0.0, 0.0)));
        assert_eq!(s.level_alpha(12.0), 0.0);
    }

    #[test]
    fn streamline_of_rotation_is_a_circle() {
        let inner = AnalyticSampler {
            f: |p: Vec3, _t| Vec3::new(-p.y, p.x, 0.0),
        };
        let mut s = SteadySampler::new(inner, 0.0);
        let r = trace_pathline(
            &mut s,
            Vec3::new(0.5, 0.0, 0.0),
            0.0,
            std::f64::consts::PI, // half revolution
            &PathlineConfig::default(),
        );
        assert_eq!(r.status, TraceStatus::ReachedEndTime);
        let last = r.line.points.last().unwrap();
        assert!((last[0] as f64 + 0.5).abs() < 1e-3, "x = {}", last[0]);
        assert!((last[1] as f64).abs() < 1e-3);
    }

    #[test]
    fn streakline_of_uniform_flow_is_a_straight_segment() {
        // u = (1,0,0): a particle released at t_r sits at x = (t1 - t_r).
        let mut s = AnalyticSampler {
            f: |_p, _t| Vec3::new(1.0, 0.0, 0.0),
        };
        let line = trace_streakline(&mut s, Vec3::ZERO, 0.0, 1.0, 5, &PathlineConfig::default());
        assert_eq!(line.len(), 5);
        // Ordered latest-release first: x grows along the line.
        for (n, p) in line.points.iter().enumerate() {
            let t_r = line.times[n] as f64;
            assert!((p[0] as f64 - (1.0 - t_r)).abs() < 1e-6, "point {n}: {p:?}");
            assert!((p[1] as f64).abs() < 1e-9);
        }
        let xs: Vec<f32> = line.points.iter().map(|p| p[0]).collect();
        assert!(xs.windows(2).all(|w| w[1] > w[0]), "monotone: {xs:?}");
    }

    #[test]
    fn streakline_drops_escaping_particles() {
        struct Bounded;
        impl FieldSampler for Bounded {
            fn velocity(&mut self, p: Vec3, _t: f64) -> Option<Vec3> {
                if p.x > 0.5 {
                    None
                } else {
                    Some(Vec3::new(1.0, 0.0, 0.0))
                }
            }
        }
        let line = trace_streakline(
            &mut Bounded,
            Vec3::ZERO,
            0.0,
            1.0,
            8,
            &PathlineConfig::default(),
        );
        // Early releases left the domain (x would exceed 0.5) and are
        // dropped; late releases survive.
        assert!(!line.is_empty());
        assert!(line.len() < 8);
        for p in &line.points {
            assert!(p[0] <= 0.6);
        }
    }
}
