//! Job descriptors, the per-block kernels a job runs, and the payload
//! encodings — shared by the workers and by the serial reference path,
//! so both produce the same bytes from the same data.

use crate::trace::span;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::Arc;
use vira_extract::iso::{extract_isosurface, IsoStats};
use vira_extract::lambda2::lambda2_field;
use vira_extract::mesh::{Polyline, TriangleSoup};
use vira_extract::multires::progressive_isosurface;
use vira_extract::pathline::{trace_pathline, MultiBlockSampler, PathlineConfig, TimeScheme};
use vira_grid::block::BlockStepId;
use vira_grid::field::{BlockData, SharedBlockData};
use vira_grid::math::{Aabb, Vec3};
use vira_grid::synth::DatasetSpec;
use vira_grid::topology::BlockTopology;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Isosurface of |u|, batch gather/merge.
    Iso = 0,
    /// λ₂ field then isosurface at a threshold, batch gather/merge.
    Lambda2 = 1,
    /// A few pathlines over the full time span, batch gather/merge.
    Pathlines = 2,
    /// Multi-resolution isosurface of |u|, every batch streamed to rank 0.
    Progressive = 3,
}

/// What the client sends to every worker: a fixed 44-byte record.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Job {
    pub id: u64,
    pub kind: Kind,
    pub step: u32,
    /// Iso level or λ₂ threshold.
    pub value: f64,
    /// Pathlines: seed-point generator state.
    pub rngseed: u64,
    pub n_seeds: u32,
    /// Progressive: pyramid levels and triangles per streamed batch.
    pub levels: u32,
    pub batch: u32,
}

impl Job {
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(44);
        b.put_u64_le(self.id);
        b.put_u32_le(self.kind as u32);
        b.put_u32_le(self.step);
        b.put_f64_le(self.value);
        b.put_u64_le(self.rngseed);
        b.put_u32_le(self.n_seeds);
        b.put_u32_le(self.levels);
        b.put_u32_le(self.batch);
        b.freeze()
    }

    pub fn decode(mut b: Bytes) -> Option<Job> {
        if b.remaining() != 44 {
            return None;
        }
        let id = b.get_u64_le();
        let kind = match b.get_u32_le() {
            0 => Kind::Iso,
            1 => Kind::Lambda2,
            2 => Kind::Pathlines,
            3 => Kind::Progressive,
            _ => return None,
        };
        Some(Job {
            id,
            kind,
            step: b.get_u32_le(),
            value: b.get_f64_le(),
            rngseed: b.get_u64_le(),
            n_seeds: b.get_u32_le(),
            levels: b.get_u32_le(),
            batch: b.get_u32_le(),
        })
    }

    pub fn is_streamed(&self) -> bool {
        self.kind == Kind::Progressive
    }
}

/// One block of an `Iso` / `Lambda2` job: derive the scalar field,
/// contour it, and append the block's triangles to the share's soup.
pub fn contour_into(
    kind: Kind,
    data: &BlockData,
    value: f64,
    share: &mut TriangleSoup,
) -> IsoStats {
    let field = match kind {
        Kind::Lambda2 => {
            let _s = span("extract.lambda2");
            lambda2_field(data)
        }
        _ => {
            let _s = span("grid.magnitude");
            data.velocity.magnitude()
        }
    };
    let (soup, stats) = {
        let _s = span("extract.iso");
        extract_isosurface(&data.grid, &field, value)
    };
    let _s = span("extract.append");
    share.extend_from(&soup);
    stats
}

/// Count-prefixed wire form of a soup (what `TriangleSoup::from_bytes`
/// reads), built the way the worker builds a partial.
pub fn encode_soup(soup: &TriangleSoup) -> Bytes {
    let _s = span("extract.encode");
    let mut buf = BytesMut::with_capacity(4 + soup.positions.len() * 12);
    buf.put_u32_le(soup.n_triangles() as u32);
    soup.append_payload(&mut buf);
    buf.freeze()
}

/// One block of a `Progressive` job: every pyramid level, coarse to
/// fine, drained in `batch`-triangle soups handed to `sink` encoded.
/// Returns the level statistics summed.
pub fn progressive_block(data: &BlockData, job: &Job, mut sink: impl FnMut(Bytes)) -> IsoStats {
    let field = {
        let _s = span("grid.magnitude");
        data.velocity.magnitude()
    };
    let mut total = IsoStats::default();
    let _s = span("extract.progressive");
    progressive_isosurface(
        &data.grid,
        &field,
        job.value,
        job.levels as usize,
        |level| {
            total.triangles += level.stats.triangles;
            total.cells_skipped += level.stats.cells_skipped;
            total.bricks_skipped += level.stats.bricks_skipped;
            let mut remaining = level.surface.clone();
            while !remaining.is_empty() {
                let chunk = remaining.drain_front(job.batch as usize);
                let bytes = {
                    let _s = span("extract.encode");
                    chunk.to_bytes()
                };
                sink(bytes);
            }
        },
    );
    total
}

/// Seed points of a `Pathlines` job: the LCG of
/// `viracocha::commands::seed_points` inside 60 % of the domain box.
fn seed_points(bbox: &Aabb, n: u32, rngseed: u64) -> Vec<Vec3> {
    let c = bbox.center();
    let half = bbox.diagonal() * 0.5 * 0.6;
    let mut state = rngseed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    (0..n)
        .map(|_| {
            Vec3::new(
                c.x + half.x * next(),
                c.y + half.y * next(),
                c.z + half.z * next(),
            )
        })
        .collect()
}

/// The pathlines of group member `idx` of `members` (seeds dealt
/// round-robin), each traced with adaptive RK4 over the dataset's full
/// time span; `fetch` supplies blocks.
pub fn trace_share(
    job: &Job,
    spec: &DatasetSpec,
    topology: &Arc<BlockTopology>,
    bbox: &Aabb,
    idx: usize,
    members: usize,
    mut fetch: impl FnMut(BlockStepId) -> Option<SharedBlockData>,
) -> Vec<Polyline> {
    let dt = spec.dt;
    let cfg = PathlineConfig {
        h_init: dt / 4.0,
        h_min: dt * 1e-6,
        h_max: dt,
        tol: 1e-5,
        max_steps: 20_000,
        scheme: TimeScheme::VelocityInterp,
    };
    let t1 = (spec.n_steps - 1) as f64 * dt;
    let mut lines = Vec::new();
    for (i, seed) in seed_points(bbox, job.n_seeds, job.rngseed)
        .into_iter()
        .enumerate()
    {
        if i % members != idx {
            continue;
        }
        let _s = span("extract.pathline");
        let mut sampler = MultiBlockSampler::new(&mut fetch, topology.clone(), spec.n_steps, dt);
        let result = trace_pathline(&mut sampler, seed, 0.0, t1, &cfg);
        if result.line.len() > 1 {
            lines.push(result.line);
        }
    }
    lines
}

/// Wire form of several polylines: `u32` line count, then per line a
/// `u32` byte length and `Polyline::to_bytes`.
pub fn encode_lines(lines: &[Polyline]) -> Bytes {
    let _s = span("extract.encode");
    let mut buf = BytesMut::new();
    buf.put_u32_le(lines.len() as u32);
    for l in lines {
        let b = l.to_bytes();
        buf.put_u32_le(b.len() as u32);
        buf.extend_from_slice(&b);
    }
    buf.freeze()
}

pub fn decode_lines(b: &Bytes) -> Option<Vec<Polyline>> {
    let n = u32::from_le_bytes(b.get(..4)?.try_into().ok()?) as usize;
    let mut at = 4usize;
    let mut lines = Vec::new();
    for _ in 0..n {
        let len = u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        let end = at.checked_add(len).filter(|&e| e <= b.len())?;
        lines.push(Polyline::from_bytes(b.slice(at..end))?);
        at = end;
    }
    (at == b.len()).then_some(lines)
}

/// The master's merge of a triangle job, as `viracocha::worker::run_job`
/// does it: one growing buffer, the master's own vertex block appended
/// first, then each partial's body spliced verbatim in rank order, the
/// count prefix patched at the end. `None` when a partial is malformed.
pub fn merge_soups(own: &TriangleSoup, partials: &[Bytes]) -> Option<Bytes> {
    let _s = span("extract.merge");
    let bodies: usize = partials.iter().map(|p| p.len()).sum();
    let mut buf = BytesMut::with_capacity(4 + own.positions.len() * 12 + bodies);
    buf.put_u32_le(0);
    own.append_payload(&mut buf);
    let mut count = own.n_triangles();
    for p in partials {
        count += vira_extract::mesh::payload_triangle_count(p)?;
        buf.extend_from_slice(&p[4..]);
    }
    buf[..4].copy_from_slice(&(count as u32).to_le_bytes());
    Some(buf.freeze())
}

/// The master's merge of a pathline job: line records spliced in rank
/// order under one summed count. `None` when a part is too short.
pub fn merge_lines(parts: &[Bytes]) -> Option<Bytes> {
    let _s = span("extract.merge");
    let mut buf = BytesMut::with_capacity(parts.iter().map(|p| p.len()).sum());
    buf.put_u32_le(0);
    let mut count = 0u32;
    for p in parts {
        count += u32::from_le_bytes(p.get(..4)?.try_into().ok()?);
        buf.extend_from_slice(&p[4..]);
    }
    buf[..4].copy_from_slice(&count.to_le_bytes());
    Some(buf.freeze())
}
