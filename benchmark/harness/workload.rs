//! The four workloads: what each runs on, over which transport, with
//! which DMS settings, and the seeded stream of job descriptors.
//!
//! Sizes were fitted on the seed commit so that a 20 s timed phase on two
//! cores completes well over 200 jobs (README.md, "Workloads").

use crate::data::DataKind;
use crate::job::{Job, Kind};
use crate::stats::SplitMix64;
use crate::world::{ProxySizes, TransportKind};

/// Which descriptors a workload's job stream draws.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 3 : 1 of |u| isosurfaces and λ₂ vortex regions, one step.
    IsoAndLambda2,
    /// |u| isosurface of a step reached by scrubbing: ±1/±2 per job.
    IsoScrub,
    Pathlines,
    Progressive,
}

pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    pub data: DataKind,
    pub transport: TransportKind,
    pub proxy: ProxySizes,
    /// Seeds per pathline job; triangles per streamed batch; levels.
    pub n_seeds: u32,
    pub batch: u32,
    pub levels: u32,
    /// Reference jobs checked byte for byte: timed jobs 0, 7, 14, ….
    pub n_refs: usize,
    /// Warm-up jobs run at the end of set-up.
    pub n_warmup: usize,
}

const MB: usize = 1 << 20;
const PROPFAN: DataKind = DataKind::PropfanStep { res: 21 };
const ENGINE: DataKind = DataKind::EngineFiles { res: 21, steps: 16 };
/// Everything resident, nothing to prefetch: the warm workloads run
/// without a background loader so their counts repeat exactly.
const WARM: ProxySizes = ProxySizes {
    l1_bytes: 256 * MB,
    l2_bytes: None,
    prefetcher: "none",
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "iso_warm_local",
        mix: Mix::IsoAndLambda2,
        data: PROPFAN,
        transport: TransportKind::Local,
        proxy: WARM,
        n_seeds: 0,
        batch: 0,
        levels: 0,
        n_refs: 4,
        n_warmup: 4,
    },
    Workload {
        name: "iso_scrub_unix",
        mix: Mix::IsoScrub,
        data: ENGINE,
        transport: TransportKind::Unix,
        // A worker's share of the 16 steps is ~82 MB: L1 holds under
        // three steps of it, L1 + L2 about eleven.
        proxy: ProxySizes {
            l1_bytes: 14 * MB,
            l2_bytes: Some(56 * MB),
            prefetcher: "obl",
        },
        n_seeds: 0,
        batch: 0,
        levels: 0,
        n_refs: 8,
        n_warmup: 24,
    },
    Workload {
        name: "pathlines_markov_local",
        mix: Mix::Pathlines,
        data: ENGINE,
        transport: TransportKind::Local,
        proxy: ProxySizes {
            l1_bytes: 14 * MB,
            l2_bytes: None,
            prefetcher: "markov+obl",
        },
        n_seeds: 4,
        batch: 0,
        levels: 0,
        n_refs: 4,
        n_warmup: 8,
    },
    Workload {
        name: "progressive_stream_tcp",
        mix: Mix::Progressive,
        data: PROPFAN,
        transport: TransportKind::Tcp,
        proxy: WARM,
        n_seeds: 0,
        batch: 2000,
        levels: 3,
        n_refs: 4,
        n_warmup: 4,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Job ids of the warm-up stream start here; the timed stream counts
/// from 0.
pub const WARMUP_ID_BASE: u64 = 1 << 32;

/// The seeded descriptor stream of one workload. Iso levels and λ₂
/// thresholds carry continuous jitter, the scrub step wanders, pathline
/// jobs draw fresh seed points: every descriptor of a run is distinct.
/// The seed moves values, not proportions — which job of four is the λ₂
/// one and how often the scrub turns is fixed — so runs on different
/// seeds do the same amount of work to within the jitter.
pub struct JobStream {
    w: &'static Workload,
    rng: SplitMix64,
    next_id: u64,
    /// Scrub position and direction.
    step: i64,
    dir: i64,
    /// Which job of every four is the λ₂ one.
    phase: u64,
}

impl JobStream {
    fn new(w: &'static Workload, seed: u64, next_id: u64, step: i64) -> JobStream {
        let mut rng = SplitMix64(seed);
        let phase = rng.next_u64() % 4;
        let dir = if rng.next_u64().is_multiple_of(2) {
            1
        } else {
            -1
        };
        JobStream {
            w,
            rng,
            next_id,
            step,
            dir,
            phase,
        }
    }

    pub fn timed(w: &'static Workload, seed: u64) -> JobStream {
        JobStream::new(w, seed, 0, 8)
    }

    pub fn warmup(w: &'static Workload, seed: u64) -> JobStream {
        JobStream::new(w, seed ^ 0x5eed_0000_0000_0001, WARMUP_ID_BASE, 6)
    }

    pub fn next_job(&mut self) -> Job {
        let id = self.next_id;
        self.next_id += 1;
        let mut job = Job {
            id,
            kind: Kind::Iso,
            step: 0,
            value: 0.0,
            rngseed: 0,
            n_seeds: self.w.n_seeds,
            levels: self.w.levels,
            batch: self.w.batch,
        };
        match self.w.mix {
            Mix::IsoAndLambda2 => {
                if (id + self.phase) % 4 == 3 {
                    job.kind = Kind::Lambda2;
                    job.value = -120.0 + 15.0 * self.rng.next_signed();
                } else {
                    job.value = 27.0 + 0.5 * self.rng.next_signed();
                }
            }
            Mix::IsoScrub => {
                let last = match self.w.data {
                    DataKind::EngineFiles { steps, .. } => steps as i64 - 1,
                    DataKind::PropfanStep { .. } => 0,
                };
                // Scrubbing: keep going by one or two steps, turn back
                // now and then, and always at either end of the span.
                if self.rng.next_u64().is_multiple_of(8) {
                    self.dir = -self.dir;
                }
                let mut s = self.step + self.dir * (1 + (self.rng.next_u64() % 2) as i64);
                if s < 0 {
                    s = -s;
                    self.dir = 1;
                }
                if s > last {
                    s = 2 * last - s;
                    self.dir = -1;
                }
                self.step = s;
                job.step = s as u32;
                job.value = 12.0 + self.rng.next_signed();
            }
            Mix::Pathlines => {
                job.kind = Kind::Pathlines;
                job.rngseed = self.rng.next_u64();
            }
            Mix::Progressive => {
                job.kind = Kind::Progressive;
                job.value = 25.5 + 0.5 * self.rng.next_signed();
            }
        }
        job
    }
}
