//! Property tests (seeded cases, see `vira-testkit`) on the core data
//! structures and invariants across the workspace.

use bytes::Bytes;
use std::sync::Arc;
use vira_comm::transport::tags;
use vira_dms::cache::{CachePayload, MemoryCache};
use vira_dms::name::ItemId;
use vira_dms::policy::policy_by_name;
use vira_dms::prefetch::{MarkovPrefetch, Prefetcher, SequenceOrder};
use vira_extract::eigen::symmetric_eigenvalues;
use vira_extract::locate::invert_trilinear;
use vira_extract::mesh::{Polyline, TriangleSoup};
use vira_extract::tetra::contour_cell;
use vira_grid::block::{trilinear_vec3, BlockDims, BlockStepId, CurvilinearBlock};
use vira_grid::field::{BlockData, VectorField};
use vira_grid::io::{read_block_data, write_block_data};
use vira_grid::math::{Mat3, Vec3};
use vira_grid::synth::DatasetSpec;
use vira_storage::compress::{rle_compress, rle_decompress};
use vira_testkit::{check, Gen, DEFAULT_CASES};
use vira_vista::protocol;
use viracocha::wire;

#[derive(Debug)]
struct Blob(usize);

impl CachePayload for Blob {
    fn payload_bytes(&self) -> usize {
        self.0
    }
}

const UNIT_CELL: [Vec3; 8] = [
    Vec3::new(0.0, 0.0, 0.0),
    Vec3::new(1.0, 0.0, 0.0),
    Vec3::new(0.0, 1.0, 0.0),
    Vec3::new(1.0, 1.0, 0.0),
    Vec3::new(0.0, 0.0, 1.0),
    Vec3::new(1.0, 0.0, 1.0),
    Vec3::new(0.0, 1.0, 1.0),
    Vec3::new(1.0, 1.0, 1.0),
];

/// A soup of `n` triangles with `f32`-valued coordinates in `±extent`.
fn arb_soup(g: &mut Gen, n: usize, extent: f64) -> TriangleSoup {
    let mut soup = TriangleSoup::new();
    for _ in 0..n {
        let mut v = || {
            let c = [(); 3].map(|_| g.f64_in(-extent, extent) as f32 as f64);
            Vec3::new(c[0], c[1], c[2])
        };
        soup.push_tri(v(), v(), v());
    }
    soup
}

/// The memory cache never exceeds its byte capacity (except when a
/// single admitted item is itself larger), for every policy and any
/// access pattern.
#[test]
fn cache_capacity_invariant() {
    check(DEFAULT_CASES, |g| {
        let policy = ["lru", "lfu", "fbr"][g.usize_in(0..3)];
        let capacity = g.usize_in(1..200);
        let ops = g.vec(1..200, |g| (g.u64_in(0..40), g.usize_in(1..50)));
        let mut cache = MemoryCache::new(capacity, policy_by_name(policy).unwrap());
        for (id, size) in ops {
            let id = ItemId(id);
            if cache.get(id).is_none() {
                cache.insert(id, Arc::new(Blob(size)));
            }
            // Invariant: within capacity unless a lone oversized item.
            assert!(
                cache.used_bytes() <= capacity || cache.len() == 1,
                "{policy}: used {} > capacity {capacity} with {} items",
                cache.used_bytes(),
                cache.len()
            );
        }
    });
}

/// Accounting stays exact under interleaved inserts and removes.
#[test]
fn cache_byte_accounting_is_exact() {
    check(DEFAULT_CASES, |g| {
        let ops = g.vec(1..150, |g| (g.u64_in(0..20), g.usize_in(1..30), g.bool()));
        let mut cache = MemoryCache::new(10_000, policy_by_name("lru").unwrap());
        let mut shadow: std::collections::HashMap<u64, usize> = Default::default();
        for (id, size, remove) in ops {
            if remove {
                cache.remove(ItemId(id));
                shadow.remove(&id);
            } else if cache.get(ItemId(id)).is_none() {
                cache.insert(ItemId(id), Arc::new(Blob(size)));
                shadow.insert(id, size);
            }
            assert_eq!(cache.len(), shadow.len());
            assert_eq!(cache.used_bytes(), shadow.values().sum::<usize>());
        }
    });
}

/// After one full pass over a sequence of *distinct* items, a
/// first-order Markov prefetcher predicts every transition exactly.
#[test]
fn markov_perfect_recall_on_distinct_sequences() {
    check(DEFAULT_CASES, |g| {
        let raw = g.vec(2..40, |g| (g.u32_in(0..100), g.u32_in(0..100)));
        let mut seen = std::collections::HashSet::new();
        let seq: Vec<BlockStepId> = raw
            .into_iter()
            .map(|(b, s)| BlockStepId::new(b, s))
            .filter(|id| seen.insert(*id))
            .collect();
        if seq.len() < 2 {
            return;
        }
        let mut m = MarkovPrefetch::first_order();
        for &id in &seq {
            m.advise(id, false);
        }
        // Replay: each item predicts its successor.
        for w in seq.windows(2) {
            let advice = m.advise(w[0], true);
            assert_eq!(advice, vec![w[1]]);
        }
    });
}

/// Walking `SequenceOrder::next` from the first item enumerates every
/// item of the dataset exactly once.
#[test]
fn sequence_order_enumerates_all_items() {
    check(DEFAULT_CASES, |g| {
        let spec = DatasetSpec {
            name: "t".into(),
            n_blocks: g.u32_in(1..20),
            n_steps: g.u32_in(1..10),
            block_dims: BlockDims::new(2, 2, 2),
            nominal_disk_bytes: 1 << 20,
            dt: 0.1,
        };
        let order = SequenceOrder::file_order(&spec);
        let mut cur = Some(BlockStepId::new(0, 0));
        let mut visited = std::collections::HashSet::new();
        while let Some(id) = cur {
            assert!(visited.insert(id), "revisited {id:?}");
            cur = order.next(id);
        }
        assert_eq!(visited.len() as u64, spec.n_items());
    });
}

/// Point index mapping is a bijection.
#[test]
fn block_dims_index_bijection() {
    check(DEFAULT_CASES, |g| {
        let d = BlockDims::new(g.usize_in(2..8), g.usize_in(2..8), g.usize_in(2..8));
        for idx in 0..d.n_points() {
            let (i, j, k) = d.point_coords(idx);
            assert_eq!(d.point_index(i, j, k), idx);
        }
    });
}

/// Newton inversion of the trilinear map recovers local coordinates
/// on randomly perturbed (non-degenerate) cells.
#[test]
fn trilinear_inversion_roundtrip() {
    check(DEFAULT_CASES, |g| {
        // Unit cell corners plus bounded jitter stay a valid hexahedron.
        let mut corners = UNIT_CELL;
        for c in corners.iter_mut() {
            c.x += g.f64_in(-0.15, 0.15);
            c.y += g.f64_in(-0.15, 0.15);
            c.z += g.f64_in(-0.15, 0.15);
        }
        let [u, v, w] = [(); 3].map(|_| g.f64_in(0.05, 0.95));
        let p = trilinear_vec3(&corners, u, v, w);
        let (ru, rv, rw) = invert_trilinear(&corners, p).expect("inversion");
        let back = trilinear_vec3(&corners, ru, rv, rw);
        assert!((back - p).norm() < 1e-7, "residual {}", (back - p).norm());
    });
}

/// Marching tetrahedra: every emitted vertex lies inside the cell's
/// bounding box, and a linear scalar field puts all vertices exactly
/// on the iso plane.
#[test]
fn tetra_vertices_stay_in_cell() {
    check(DEFAULT_CASES, |g| {
        let s = [(); 8].map(|_| g.f64_in(-1.0, 1.0));
        let iso = g.f64_in(-0.9, 0.9);
        let mut out = TriangleSoup::new();
        contour_cell(&UNIT_CELL, &s, iso, &mut out);
        for v in &out.positions {
            for c in v {
                assert!((-1e-6..=1.0 + 1e-6).contains(&(*c as f64)), "vertex {v:?}");
            }
        }
        assert!(out.is_finite());
    });
}

/// Symmetric eigenvalue invariants: ordering, trace and determinant.
#[test]
fn eigen_invariants() {
    check(DEFAULT_CASES, |g| {
        let [a, b, c, d, e, f] = [(); 6].map(|_| g.f64_in(-5.0, 5.0));
        let m = Mat3::from_rows(Vec3::new(a, b, c), Vec3::new(b, d, e), Vec3::new(c, e, f));
        let eig = symmetric_eigenvalues(&m);
        assert!(eig[0] >= eig[1] && eig[1] >= eig[2]);
        let scale = 1.0 + eig.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        assert!((eig.iter().sum::<f64>() - m.trace()).abs() < 1e-8 * scale);
        assert!((eig[0] * eig[1] * eig[2] - m.det()).abs() < 1e-6 * scale * scale * scale);
    });
}

/// Triangle-soup wire encoding round-trips arbitrary geometry.
#[test]
fn soup_bytes_roundtrip() {
    check(DEFAULT_CASES, |g| {
        let n = g.usize_in(1..10);
        let soup = arb_soup(g, n, 1e6);
        let back = TriangleSoup::from_bytes(soup.to_bytes()).expect("roundtrip");
        assert_eq!(back, soup);
    });
}

/// A soup's encoding placed at offset 0–3 inside a larger buffer decodes
/// to the same vertex bits wherever it lies, and the decoded soup keeps
/// the received bytes exactly when its vertex block starts 4-aligned.
#[test]
fn soup_from_bytes_keeps_exactly_the_aligned_blocks() {
    let bits = |s: &TriangleSoup| -> Vec<[u32; 3]> {
        s.positions.iter().map(|v| v.map(f32::to_bits)).collect()
    };
    check(DEFAULT_CASES, |g| {
        let n = g.usize_in(0..40);
        let soup = arb_soup(g, n, 1e6);
        let encoding = soup.to_bytes();
        let mut kept = 0;
        for off in 0..4 {
            let mut buf = g.bytes(off..off + 1);
            buf.extend_from_slice(&encoding);
            buf.extend(g.bytes(0..8));
            let b = Bytes::from(buf).slice(off..off + encoding.len());
            let block = b.as_ptr().wrapping_add(4);
            let aligned = cfg!(target_endian = "little") && (block as usize).is_multiple_of(4);
            let back = TriangleSoup::from_bytes(b).expect("well-formed");
            assert_eq!(bits(&back), bits(&soup), "offset {off}");
            // Received means a view of the block itself, not a copy.
            let received = back.positions.as_ptr().cast::<u8>() == block;
            assert_eq!(received, aligned, "offset {off}");
            kept += usize::from(received);
        }
        if cfg!(target_endian = "little") {
            assert!(kept > 0, "no offset of four was aligned");
        }
    });
}

/// A polyline list decodes only when its declared records fill the
/// frame, as a soup does: a valid encoding followed by any non-empty
/// tail is refused.
#[test]
fn polyline_list_refuses_trailing_bytes() {
    check(DEFAULT_CASES, |g| {
        let lines = g.vec(0..4, |g| {
            let mut line = Polyline::default();
            for _ in 0..g.usize_in(0..5) {
                let [x, y, z] = [(); 3].map(|_| g.f64_in(-1e3, 1e3));
                line.push(Vec3::new(x, y, z), g.f64_in(0.0, 1.0));
            }
            line
        });
        let mut frame = protocol::encode_polylines(&lines).to_vec();
        let back = protocol::decode_polylines(Bytes::from(frame.clone()));
        assert_eq!(back.expect("roundtrip"), lines);
        frame.extend(g.bytes(1..64));
        assert!(protocol::decode_polylines(Bytes::from(frame)).is_err());
    });
}

/// Coordinates whose bit patterns `f64 ==` confuses: both zeros and two
/// NaN payloads, plus a plain value.
const TRICKY_COORDS: [u64; 5] = [
    0,
    1 << 63,
    0x3ff0_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0x7ff8_0000_0000_0002,
];

fn tricky_points(g: &mut Gen, dims: BlockDims) -> Vec<Vec3> {
    g.vec(dims.n_points()..dims.n_points() + 1, |g| {
        let [x, y, z] = [(); 3].map(|_| f64::from_bits(TRICKY_COORDS[g.usize_in(0..5)]));
        Vec3::new(x, y, z)
    })
}

fn bits(points: &[Vec3]) -> Vec<[u64; 3]> {
    points
        .iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

/// The `.vbk` bytes of step `step` of `block`: the given points, and the
/// same points again as the velocity.
fn block_file(block: u32, step: u32, dims: BlockDims, points: &[Vec3]) -> Vec<u8> {
    let item = BlockData::new(
        BlockStepId::new(block, step),
        CurvilinearBlock::new(block, dims, points.to_vec()),
        VectorField::from_vec3s(dims, points),
        0.0,
    );
    let mut file = Vec::new();
    write_block_data(&mut file, &item).expect("Vec writes cannot fail");
    file
}

/// Random byte blobs never panic any decoder (they may fail, never
/// crash).
#[test]
fn decoders_tolerate_garbage() {
    check(DEFAULT_CASES, |g| {
        // A valid header of a block of at most 4³ points, then garbage:
        // whatever geometry the garbage decodes to enters the table of
        // shared geometry, and a later well-formed read of the same
        // block must still return its own points. (Block ids apart from
        // the other properties' reads.)
        let block = g.u32_in(100..103);
        let dims = BlockDims::new(g.usize_in(1..5), g.usize_in(1..5), g.usize_in(1..5));
        let own = tricky_points(g, dims);
        let mut file = block_file(block, 0, dims, &own);
        file.truncate(36);
        file.extend(g.bytes(0..2 * dims.n_points() * 24 + 8));
        let garbage = read_block_data(&mut &file[..]);
        let read =
            read_block_data(&mut &block_file(block, 1, dims, &own)[..]).expect("well-formed");
        assert_eq!(bits(&read.grid.points), bits(&own));
        drop(garbage);

        let b = Bytes::from(g.bytes(0..256));
        let _ = read_block_data(&mut &b[..]);
        let _ = TriangleSoup::from_bytes(b.clone());
        let _ = Polyline::from_bytes(b.clone());
        let _ = protocol::decode_request(b.clone());
        let _ = protocol::decode_event(b.clone());
        let _ = protocol::decode_polylines(b.clone());
        let _ = wire::decode_cancel(&b);
        let _ = wire::decode_ping(&b);
        let _ = wire::decode_pong(&b);
        let _ = wire::decode_command(b.clone());
        let _ = wire::decode_result(tags::PARTIAL_RESULT, b.clone());
        let _ = wire::decode_result(tags::JOB_DONE, b);
    });
}

/// Interleaved writes and reads of small blocks whose ids and dims
/// collide and whose points differ in as little as a zero's sign or a
/// NaN payload: every read returns exactly the points written for it,
/// and while an earlier read of the same points is held, the new read
/// shares its geometry.
#[test]
fn block_reads_return_the_points_written_for_them() {
    const DIMS: [BlockDims; 2] = [BlockDims::new(1, 1, 1), BlockDims::new(2, 1, 2)];
    check(DEFAULT_CASES, |g| {
        let mut files: Vec<(u32, BlockDims, Vec<Vec3>, Vec<u8>)> = Vec::new();
        let mut held: Vec<BlockData> = Vec::new();
        for step in 0..g.u32_in(1..40) {
            if files.is_empty() || g.bool() {
                let (block, dims) = (g.u32_in(0..3), DIMS[g.usize_in(0..2)]);
                let points = tricky_points(g, dims);
                let file = block_file(block, step, dims, &points);
                files.push((block, dims, points, file));
                continue;
            }
            let (block, dims, points, file) = &files[g.usize_in(0..files.len())];
            let item = read_block_data(&mut &file[..]).expect("well-formed");
            assert_eq!((item.grid.id, item.dims()), (*block, *dims));
            assert_eq!(bits(&item.grid.points), bits(points));
            let v = &item.velocity;
            let velocity: Vec<_> = (0..points.len())
                .map(|n| Vec3::new(v.xs[n], v.ys[n], v.zs[n]))
                .collect();
            assert_eq!(bits(&velocity), bits(points));
            let same = |h: &&BlockData| {
                (h.grid.id, h.dims()) == (*block, *dims) && bits(&h.grid.points) == bits(points)
            };
            if let Some(earlier) = held.iter().find(same) {
                assert!(Arc::ptr_eq(&earlier.grid, &item.grid));
            }
            if g.bool() {
                held.push(item);
            }
            if !held.is_empty() && g.bool() {
                held.swap_remove(g.usize_in(0..held.len()));
            }
        }
    });
}

/// Client protocol round-trips arbitrary submit requests.
#[test]
fn protocol_request_roundtrip() {
    const LETTERS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const DIGITS: &str = "0123456789";
    check(DEFAULT_CASES, |g| {
        let mut params = g.vec(0..6, |g| {
            let key = g.string(&LETTERS[..26], 1..7);
            (
                key,
                g.string(&format!("{}{DIGITS}.-", &LETTERS[..26]), 1..9),
            )
        });
        params.sort();
        let req = protocol::ClientRequest::Submit {
            job: g.u64(),
            command: g.string(LETTERS, 1..17),
            dataset: g.string(&format!("{LETTERS}{DIGITS}"), 1..13),
            params: protocol::CommandParams(params),
            workers: g.usize_in(1..64),
            session: g.u64(),
            trace_id: g.u64(),
            parent_span_id: g.u64(),
        };
        let back = protocol::decode_request(protocol::encode_request(&req)).expect("roundtrip");
        assert_eq!(back, req);
    });
}

/// PackBits round-trips arbitrary byte strings.
#[test]
fn rle_roundtrip_arbitrary_bytes() {
    check(DEFAULT_CASES, |g| {
        // Noise (all literal packets, the worst case for expansion) or
        // runs (repeat packets).
        let data: Vec<u8> = if g.bool() {
            g.bytes(0..2048)
        } else {
            g.vec(0..64, |g| vec![g.u64() as u8; g.usize_in(1..64)])
                .concat()
        };
        let c = rle_compress(&data);
        let restored = rle_decompress(&c);
        assert_eq!(restored.as_deref(), Some(data.as_slice()));
        // Worst-case expansion is bounded by the literal-header overhead.
        assert!(c.len() <= data.len() + data.len() / 128 + 2);
    });
}

/// PackBits decompression never panics on arbitrary input.
#[test]
fn rle_decompress_tolerates_garbage() {
    check(DEFAULT_CASES, |g| {
        let _ = rle_decompress(&g.bytes(0..512));
    });
}

/// Histogram quantiles are monotone in q and bounded by the range.
#[test]
fn histogram_quantiles_are_monotone() {
    check(DEFAULT_CASES, |g| {
        let samples = g.vec(1..300, |g| g.f64_in(-10.0, 10.0));
        let (qa, qb) = (g.f64_in(0.0, 1.0), g.f64_in(0.0, 1.0));
        let mut h = vira_extract::stats::Histogram::new(-10.0, 10.0, 64);
        for &s in &samples {
            h.add(s);
        }
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let vlo = h.quantile(lo).unwrap();
        let vhi = h.quantile(hi).unwrap();
        assert!(vlo <= vhi + 1e-12, "q{lo} = {vlo} > q{hi} = {vhi}");
        assert!((-10.0..=10.0).contains(&vlo));
        assert!((-10.0..=10.0).contains(&vhi));
    });
}

/// Welding never invents geometry: vertex count bounded by the soup,
/// triangle count never grows, and every surviving index is valid.
#[test]
fn weld_is_conservative() {
    check(DEFAULT_CASES, |g| {
        let n = g.usize_in(1..18);
        let soup = arb_soup(g, n, 100.0);
        let mesh = vira_extract::weld(&soup, 1e-4);
        assert!(mesh.n_vertices() <= soup.positions.len());
        assert!(mesh.n_triangles() <= soup.n_triangles());
        for t in &mesh.triangles {
            for &i in t {
                assert!((i as usize) < mesh.n_vertices());
            }
        }
        assert_eq!(mesh.normals.len(), mesh.n_vertices());
    });
}

/// The face-lattice index helper stays within the block for every
/// face, lattice position and depth.
#[test]
fn face_lattice_points_are_in_bounds() {
    check(DEFAULT_CASES, |g| {
        let dims = BlockDims::new(g.usize_in(2..6), g.usize_in(2..6), g.usize_in(2..6));
        let depth = g.usize_in(0..2);
        let block = vira_grid::CurvilinearBlock::from_fn(0, dims, |i, j, k| {
            Vec3::new(i as f64, j as f64, k as f64)
        });
        for face in vira_grid::Face::ALL {
            let (n1, n2) = vira_grid::face_dims(&block, face);
            for b in 0..n2 {
                for a in 0..n1 {
                    let idx = vira_grid::faces::face_lattice_point(&block, face, a, b, depth);
                    assert!(idx < block.points.len());
                }
            }
        }
    });
}
