//! Triangle geometry produced by the extraction algorithms and its wire
//! encoding — the payload of streamed result packets.
//!
//! Geometry is transmitted as `f32` (display precision); computation
//! happens in `f64`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use vira_grid::math::{Aabb, Vec3};

/// A bag of triangles: 9 `f32` per triangle (three vertices), no
/// connectivity. The visualization client concatenates soups from many
/// partial packets.
///
/// A soup built here owns its vertices; one decoded by
/// [`from_bytes`](Self::from_bytes) may view the bytes it was received
/// in instead (see [`Vertices`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TriangleSoup {
    /// Vertex positions, three consecutive entries per triangle.
    pub positions: Vertices,
}

/// The vertex store of a [`TriangleSoup`]: a buffer of its own, or the
/// received wire bytes viewed in place. Either way it reads as
/// `[[f32; 3]]`. Every mutator first turns a received store into an
/// owned copy, so the received bytes never change.
///
/// Owned buffers are recycled per thread (see [`spare`]): a dropped
/// store leaves its buffer for the next one made on the same thread. A
/// received store's bytes belong to their `Bytes`: dropping it recycles
/// nothing, and cloning it clones the handle.
pub struct Vertices {
    /// The vertices, unless `received` holds them: then it is empty and
    /// unallocated, so an append finds no room and goes through
    /// [`grow`](Self::grow), which copies the received vertices out. The
    /// kernels' per-triangle push thus pays only `Vec`'s own capacity
    /// test.
    buf: Vec<[f32; 3]>,
    /// A vertex block that [`as_vertices`] accepts, viewed instead of
    /// `buf`.
    received: Option<Bytes>,
}

/// `block` viewed as vertices, if it starts 4-aligned and holds whole
/// vertices: on a little-endian target the wire format is the in-memory
/// layout of `[[f32; 3]]`.
#[cfg(target_endian = "little")]
fn as_vertices(block: &[u8]) -> Option<&[[f32; 3]]> {
    const VERTEX: usize = std::mem::size_of::<[f32; 3]>();
    let aligned = (block.as_ptr() as usize).is_multiple_of(std::mem::align_of::<[f32; 3]>());
    if !aligned || !block.len().is_multiple_of(VERTEX) {
        return None;
    }
    // SAFETY: `[f32; 3]` is 12 bytes, 4-aligned, with no padding. The
    // pointer is 4-aligned and the length a multiple of 12 (both checked
    // above), so the view is `len / 12` whole vertices inside `block`.
    // Every 32-bit pattern is a valid `f32` (NaNs included), so any bytes
    // read as vertices. The view borrows `block`, and a received store
    // keeps the immutable `Bytes` behind it alive, unchanged, for as long
    // as the store lives.
    Some(unsafe { std::slice::from_raw_parts(block.as_ptr().cast(), block.len() / VERTEX) })
}

/// On a big-endian target the wire bytes are not the vertices; every
/// block is decoded into a buffer.
#[cfg(not(target_endian = "little"))]
fn as_vertices(_: &[u8]) -> Option<&[[f32; 3]]> {
    None
}

impl Vertices {
    fn owned(buf: Vec<[f32; 3]>) -> Self {
        Vertices {
            buf,
            received: None,
        }
    }

    /// Whether this store views received bytes instead of owning its
    /// vertices.
    #[inline]
    pub(crate) fn is_received(&self) -> bool {
        self.received.is_some()
    }

    /// Removes every vertex. A received store becomes an empty owned one.
    #[inline]
    pub fn clear(&mut self) {
        self.received = None;
        self.buf.clear();
    }

    /// Appends `vertices`.
    #[inline]
    pub fn extend_from_slice(&mut self, vertices: &[[f32; 3]]) {
        if self.buf.capacity() - self.buf.len() < vertices.len() {
            self.grow(vertices.len());
        }
        self.buf.extend_from_slice(vertices);
    }

    /// The owned buffer, copied out of the received bytes first if the
    /// store holds those.
    fn to_mut(&mut self) -> &mut Vec<[f32; 3]> {
        if self.is_received() {
            self.grow(0);
        }
        &mut self.buf
    }

    /// Makes room for `additional` more vertices in `buf`, first copying
    /// the received vertices into it if the store holds those.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, additional: usize) {
        if self.is_received() {
            let mut buf = spare(self.len() + additional);
            buf.extend_from_slice(self);
            self.buf = buf;
            self.received = None;
        }
        self.buf.reserve(additional);
    }
}

impl Deref for Vertices {
    type Target = [[f32; 3]];

    #[inline]
    fn deref(&self) -> &[[f32; 3]] {
        match &self.received {
            None => &self.buf,
            Some(b) => as_vertices(b).expect("a received block is a vertex view"),
        }
    }
}

impl<'a> IntoIterator for &'a Vertices {
    type Item = &'a [f32; 3];
    type IntoIter = std::slice::Iter<'a, [f32; 3]>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Default for Vertices {
    fn default() -> Self {
        Vertices::owned(Vec::new())
    }
}

impl PartialEq for Vertices {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Vertices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Clone for Vertices {
    fn clone(&self) -> Self {
        match &self.received {
            None => {
                let mut copy = spare(self.buf.len());
                copy.extend_from_slice(&self.buf);
                Vertices::owned(copy)
            }
            Some(b) => Vertices {
                buf: Vec::new(),
                received: Some(b.clone()),
            },
        }
    }
}

impl Drop for Vertices {
    fn drop(&mut self) {
        // A received store's empty `buf` is outside the range too.
        if !SPARE_VERTICES.contains(&self.buf.capacity()) {
            return;
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        // Not during thread teardown; beyond the limit it is just freed.
        let _ = SPARE.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < SPARE_BUFFERS {
                s.push(buf);
            }
        });
    }
}

/// Buffers a thread keeps, and the capacities (in vertices) worth
/// keeping: one block's surface, not a whole job's merged package.
const SPARE_BUFFERS: usize = 8;
const SPARE_VERTICES: std::ops::RangeInclusive<usize> = 256..=1 << 15;

thread_local! {
    static SPARE: RefCell<Vec<Vec<[f32; 3]>>> = const { RefCell::new(Vec::new()) };
}

/// An empty vertex buffer, one a dropped soup left behind if there is
/// any: the first that holds `len` vertices, else the one dropped last.
///
/// A worker makes a handful of soups per block — the extractor's, the
/// caller's copy, its batches — and frees them all before the next
/// block. Through `malloc` that is a few hundred kilobytes taken from
/// and returned to the top of the thread's heap each time, a size at
/// which glibc may or may not hand the pages back to the kernel
/// depending on what else sits up there: measured on the streamed
/// benchmark workload, 0.3 to 1.1 million page faults per 8 s on one
/// worker and ±15 % on the job time from run to run. Recycling takes the
/// allocator out of the per-block path, so every run is the fast one.
fn spare(len: usize) -> Vec<[f32; 3]> {
    let recycled = SPARE.try_with(|s| {
        let mut s = s.borrow_mut();
        let at = s.iter().position(|v| v.capacity() >= len);
        let at = at.or(s.len().checked_sub(1))?;
        Some(s.swap_remove(at))
    });
    recycled.ok().flatten().unwrap_or_default()
}

impl TriangleSoup {
    pub fn new() -> Self {
        TriangleSoup {
            positions: Vertices::owned(spare(0)),
        }
    }

    pub fn with_capacity(n_triangles: usize) -> Self {
        let mut positions = spare(3 * n_triangles);
        positions.reserve(3 * n_triangles);
        TriangleSoup {
            positions: Vertices::owned(positions),
        }
    }

    #[inline]
    pub fn n_triangles(&self) -> usize {
        self.positions.len() / 3
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Appends one triangle given `f64` vertices, with one capacity check
    /// for its three.
    #[inline]
    pub fn push_tri(&mut self, a: Vec3, b: Vec3, c: Vec3) {
        let tri = [a, b, c].map(|v| [v.x as f32, v.y as f32, v.z as f32]);
        self.positions.extend_from_slice(&tri);
    }

    /// Appends all triangles of another soup. An empty soup takes over a
    /// received one by cloning its handle, not its bytes.
    pub fn extend_from(&mut self, other: &TriangleSoup) {
        if self.is_empty() && other.positions.is_received() {
            self.positions = other.positions.clone();
        } else {
            self.positions.extend_from_slice(&other.positions);
        }
    }

    /// Splits off the first `n` triangles into a new soup (fewer if not
    /// that many are available).
    pub fn drain_front(&mut self, n: usize) -> TriangleSoup {
        let rest = self.positions.to_mut();
        let take = (3 * n).min(rest.len());
        let mut positions = spare(take);
        positions.extend(rest.drain(..take));
        TriangleSoup {
            positions: Vertices::owned(positions),
        }
    }

    /// Bounding box of all vertices.
    pub fn bbox(&self) -> Aabb {
        Aabb::from_points(
            self.positions
                .iter()
                .map(|p| Vec3::new(p[0] as f64, p[1] as f64, p[2] as f64)),
        )
    }

    /// Total surface area.
    pub fn area(&self) -> f64 {
        let mut a = 0.0;
        for t in self.positions.chunks_exact(3) {
            let p0 = Vec3::new(t[0][0] as f64, t[0][1] as f64, t[0][2] as f64);
            let p1 = Vec3::new(t[1][0] as f64, t[1][1] as f64, t[1][2] as f64);
            let p2 = Vec3::new(t[2][0] as f64, t[2][1] as f64, t[2][2] as f64);
            a += 0.5 * (p1 - p0).cross(p2 - p0).norm();
        }
        a
    }

    /// True if every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.positions
            .iter()
            .all(|p| p.iter().all(|c| c.is_finite()))
    }

    /// Wire encoding: `u32` triangle count, then `9 × f32` per triangle,
    /// little-endian. The vertex block is appended in bulk
    /// ([`append_payload`](Self::append_payload)), not float by float.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.positions.len() * 12);
        buf.put_u32_le(self.n_triangles() as u32);
        self.append_payload(&mut buf);
        buf.freeze()
    }

    /// Appends the raw `9 × f32` little-endian vertex block (no count
    /// prefix) to `buf` — the bulk body shared by
    /// [`to_bytes`](Self::to_bytes) and the master-side partial-result
    /// merge, which concatenates vertex blocks from many packets without
    /// re-encoding.
    pub fn append_payload(&self, buf: &mut BytesMut) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `[f32; 3]` is 12 bytes with no padding, and the Vec
            // stores them contiguously; on a little-endian target the
            // in-memory representation already is the wire format.
            let raw = unsafe {
                std::slice::from_raw_parts(
                    self.positions.as_ptr() as *const u8,
                    self.positions.len() * std::mem::size_of::<[f32; 3]>(),
                )
            };
            buf.extend_from_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        for p in &self.positions {
            buf.put_f32_le(p[0]);
            buf.put_f32_le(p[1]);
            buf.put_f32_le(p[2]);
        }
    }

    /// Inverse of [`to_bytes`](Self::to_bytes). `None` on malformed input
    /// (short prefix, or body length inconsistent with the count).
    ///
    /// A vertex block that starts 4-aligned is kept, not copied (on a
    /// little-endian target): the soup views `b` until a mutator makes
    /// it owned. Any other block is decoded into a buffer of its own.
    pub fn from_bytes(mut b: Bytes) -> Option<TriangleSoup> {
        if b.remaining() < 4 {
            return None;
        }
        let n = b.get_u32_le() as usize;
        if b.remaining() != n.checked_mul(36)? {
            return None;
        }
        if as_vertices(&b).is_some() {
            return Some(TriangleSoup {
                positions: Vertices {
                    buf: Vec::new(),
                    received: Some(b),
                },
            });
        }
        // One exact-size extend over 12-byte vertex chunks: the iterator
        // knows its length, so the buffer is sized once and the loop
        // writes vertices without a capacity check per push.
        let mut positions = spare(3 * n);
        positions.extend(b.chunks_exact(12).map(|v| {
            [
                f32::from_le_bytes([v[0], v[1], v[2], v[3]]),
                f32::from_le_bytes([v[4], v[5], v[6], v[7]]),
                f32::from_le_bytes([v[8], v[9], v[10], v[11]]),
            ]
        }));
        Some(TriangleSoup {
            positions: Vertices::owned(positions),
        })
    }
}

/// Validates a wire-encoded soup without decoding it: returns the
/// triangle count when `payload` is structurally sound (count prefix
/// consistent with the body length). The master-side merge uses this to
/// splice vertex blocks from partial packets without a decode round-trip.
pub fn payload_triangle_count(payload: &[u8]) -> Option<usize> {
    if payload.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(payload[..4].try_into().ok()?) as usize;
    (payload.len() - 4 == n.checked_mul(36)?).then_some(n)
}

/// A traced particle path: positions with their solution times.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polyline {
    pub points: Vec<[f32; 3]>,
    pub times: Vec<f32>,
}

impl Polyline {
    pub fn push(&mut self, p: Vec3, t: f64) {
        self.points.push([p.x as f32, p.y as f32, p.z as f32]);
        self.times.push(t as f32);
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total arc length.
    pub fn arc_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let d = [
                    (w[1][0] - w[0][0]) as f64,
                    (w[1][1] - w[0][1]) as f64,
                    (w[1][2] - w[0][2]) as f64,
                ];
                (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
            })
            .sum()
    }

    /// Wire encoding: `u32` point count, then `4 × f32` (xyz + t) per
    /// point, little-endian.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.points.len() * 16);
        buf.put_u32_le(self.len() as u32);
        for (p, &t) in self.points.iter().zip(&self.times) {
            buf.put_f32_le(p[0]);
            buf.put_f32_le(p[1]);
            buf.put_f32_le(p[2]);
            buf.put_f32_le(t);
        }
        buf.freeze()
    }

    pub fn from_bytes(mut b: Bytes) -> Option<Polyline> {
        if b.remaining() < 4 {
            return None;
        }
        let n = b.get_u32_le() as usize;
        if b.remaining() != n * 16 {
            return None;
        }
        let mut line = Polyline::default();
        for _ in 0..n {
            let x = b.get_f32_le();
            let y = b.get_f32_le();
            let z = b.get_f32_le();
            let t = b.get_f32_le();
            line.points.push([x, y, z]);
            line.times.push(t);
        }
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_soup() -> TriangleSoup {
        let mut s = TriangleSoup::new();
        s.push_tri(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        s.push_tri(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(2.0, 0.0, 1.0),
            Vec3::new(0.0, 2.0, 1.0),
        );
        s
    }

    #[test]
    fn soup_counts_and_area() {
        let s = tri_soup();
        assert_eq!(s.n_triangles(), 2);
        assert!((s.area() - (0.5 + 2.0)).abs() < 1e-9);
        assert!(s.is_finite());
    }

    #[test]
    fn soup_bbox() {
        let b = tri_soup().bbox();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(2.0, 2.0, 1.0));
    }

    #[test]
    fn soup_roundtrip_bytes() {
        let s = tri_soup();
        let b = s.to_bytes();
        let back = TriangleSoup::from_bytes(b).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn bulk_encoding_matches_per_float_reference() {
        let s = tri_soup();
        let mut reference = BytesMut::new();
        reference.put_u32_le(s.n_triangles() as u32);
        for p in &s.positions {
            reference.put_f32_le(p[0]);
            reference.put_f32_le(p[1]);
            reference.put_f32_le(p[2]);
        }
        assert_eq!(s.to_bytes(), reference.freeze());
    }

    #[test]
    fn append_payload_is_body_of_to_bytes() {
        let s = tri_soup();
        let mut body = BytesMut::new();
        s.append_payload(&mut body);
        assert_eq!(&s.to_bytes()[4..], &body[..]);
    }

    #[test]
    fn payload_triangle_count_validates() {
        let s = tri_soup();
        let b = s.to_bytes();
        assert_eq!(payload_triangle_count(&b), Some(2));
        assert_eq!(
            payload_triangle_count(&TriangleSoup::new().to_bytes()),
            Some(0)
        );
        assert_eq!(payload_triangle_count(b"xy"), None);
        assert_eq!(payload_triangle_count(&b[..b.len() - 1]), None);
        // Count prefix inconsistent with body length.
        let mut bad = b.to_vec();
        bad[0] = 9;
        assert_eq!(payload_triangle_count(&bad), None);
    }

    #[test]
    fn soup_rejects_malformed_bytes() {
        assert!(TriangleSoup::from_bytes(Bytes::from_static(b"xy")).is_none());
        let mut good = tri_soup().to_bytes().to_vec();
        good.pop();
        assert!(TriangleSoup::from_bytes(Bytes::from(good)).is_none());
    }

    #[test]
    fn empty_soup_roundtrip() {
        let s = TriangleSoup::new();
        let back = TriangleSoup::from_bytes(s.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn drain_front_splits() {
        let mut s = tri_soup();
        let first = s.drain_front(1);
        assert_eq!(first.n_triangles(), 1);
        assert_eq!(s.n_triangles(), 1);
        let rest = s.drain_front(10);
        assert_eq!(rest.n_triangles(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = tri_soup();
        let b = tri_soup();
        a.extend_from(&b);
        assert_eq!(a.n_triangles(), 4);
    }

    /// A soup of `n` copies of one triangle.
    fn soup_of(n: usize) -> TriangleSoup {
        let mut s = TriangleSoup::new();
        for _ in 0..n {
            s.push_tri(
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            );
        }
        s
    }

    /// The capacity of an owned store; a received one has none.
    fn capacity(s: &TriangleSoup) -> usize {
        s.positions.buf.capacity()
    }

    // Each test runs on a thread of its own, so each starts with no
    // spare buffers.
    #[test]
    fn dropped_buffer_serves_the_next_soup() {
        let s = soup_of(1000);
        let (ptr, cap) = (s.positions.as_ptr(), capacity(&s));
        drop(s);
        let next = TriangleSoup::new();
        assert!(next.is_empty(), "recycled empty");
        assert_eq!((next.positions.as_ptr(), capacity(&next)), (ptr, cap));
        // While it is in use a second soup gets a buffer of its own.
        assert_eq!(capacity(&TriangleSoup::new()), 0);
    }

    #[test]
    fn clone_and_drain_front_recycle_and_keep_their_meaning() {
        let (big, small) = (soup_of(2000), soup_of(100));
        drop(small);
        drop(big);
        let mut s = soup_of(500); // takes the small one and grows it
        let copy = s.clone();
        assert_eq!(copy, s);
        assert_ne!(copy.positions.as_ptr(), s.positions.as_ptr());
        assert!(capacity(&copy) >= 6000, "the first buffer that fits");
        let front = s.drain_front(200);
        assert_eq!((front.n_triangles(), s.n_triangles()), (200, 300));
        assert_eq!(front.positions[..], copy.positions[..600]);
        assert_eq!(s.positions[..], copy.positions[600..]);
        let all = s.drain_front(usize::MAX / 3);
        assert_eq!(all.n_triangles(), 300);
        assert!(s.is_empty());
    }

    #[test]
    fn only_block_sized_buffers_are_kept_and_only_a_few() {
        drop(soup_of(1 << 14)); // 49 152 vertices: past the limit
        assert_eq!(capacity(&TriangleSoup::new()), 0);
        drop(soup_of(10)); // too small to matter
        assert_eq!(capacity(&TriangleSoup::new()), 0);
        let many: Vec<TriangleSoup> = (0..SPARE_BUFFERS + 3).map(|_| soup_of(200)).collect();
        let many: Vec<()> = many.into_iter().map(drop).collect();
        let again: Vec<TriangleSoup> = many.iter().map(|_| TriangleSoup::new()).collect();
        let kept = again.iter().filter(|s| capacity(s) > 0);
        assert_eq!(kept.count(), SPARE_BUFFERS);
    }

    #[test]
    fn a_soup_dropped_on_another_thread_is_recycled_there() {
        let s = soup_of(1000);
        std::thread::spawn(move || {
            let ptr = s.positions.as_ptr();
            drop(s);
            assert_eq!(TriangleSoup::new().positions.as_ptr(), ptr);
        })
        .join()
        .unwrap();
        assert_eq!(capacity(&TriangleSoup::new()), 0);
    }

    /// `bytes` copied into a buffer of their own at offset `off`.
    fn at_offset(bytes: &[u8], off: usize) -> Bytes {
        let mut buf = vec![0xA5; off];
        buf.extend_from_slice(bytes);
        Bytes::from(buf).slice(off..off + bytes.len())
    }

    /// `soup`'s encoding placed where its vertex block, past the count
    /// prefix, does or does not start 4-aligned.
    fn placed(soup: &TriangleSoup, aligned: bool) -> Bytes {
        let encoding = soup.to_bytes();
        (0..4)
            .map(|off| at_offset(&encoding, off))
            .find(|b| (b.as_ptr() as usize + 4).is_multiple_of(4) == aligned)
            .expect("one of four offsets")
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn an_aligned_block_is_kept_and_a_misaligned_one_copied() {
        let s = soup_of(300);
        let kept = TriangleSoup::from_bytes(placed(&s, true)).unwrap();
        let copied = TriangleSoup::from_bytes(placed(&s, false)).unwrap();
        assert_eq!((&kept, &copied), (&s, &s));
        assert!(kept.positions.is_received());
        assert!(!copied.positions.is_received());
        assert_eq!(kept.to_bytes()[..], s.to_bytes()[..]);
        // A clone of a received soup shares its bytes.
        assert_eq!(kept.clone().positions.as_ptr(), kept.positions.as_ptr());
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn every_mutator_leaves_the_received_bytes_and_owns_its_result() {
        type Mutator = fn(&mut TriangleSoup) -> Option<TriangleSoup>;
        let mutators: [(&str, Mutator); 6] = [
            ("push_tri", |s| {
                s.push_tri(
                    Vec3::ZERO,
                    Vec3::new(5.0, 0.0, 0.0),
                    Vec3::new(0.0, 5.0, 0.0),
                );
                None
            }),
            ("extend_from", |s| {
                s.extend_from(&tri_soup());
                None
            }),
            ("drain_front", |s| Some(s.drain_front(1))),
            ("drain_front all", |s| Some(s.drain_front(2))),
            ("clear", |s| {
                s.positions.clear();
                None
            }),
            ("extend_from_slice", |s| {
                s.positions.extend_from_slice(&[[7.0; 3]; 3]);
                None
            }),
        ];
        for (name, mutate) in mutators {
            let bytes = placed(&tri_soup(), true);
            let before = bytes.to_vec();
            let mut received = TriangleSoup::from_bytes(bytes.clone()).unwrap();
            assert!(received.positions.is_received());
            let mut owned = tri_soup();
            assert_eq!(mutate(&mut received), mutate(&mut owned), "{name}");
            assert_eq!(received, owned, "{name}");
            assert!(!received.positions.is_received(), "{name}");
            assert_eq!(bytes[..], before[..], "{name} changed the received bytes");
        }
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn an_empty_soup_takes_over_a_received_one_by_its_handle() {
        let received = TriangleSoup::from_bytes(placed(&tri_soup(), true)).unwrap();
        let mut all = TriangleSoup::new();
        all.extend_from(&received);
        assert_eq!(all.positions.as_ptr(), received.positions.as_ptr());
        // The next one makes it owned, and leaves the first as it was.
        all.extend_from(&received);
        assert_eq!(all.n_triangles(), 4);
        assert!(!all.positions.is_received());
        assert_eq!(received, tri_soup());
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn a_dropped_received_soup_leaves_no_spare_buffer() {
        // Encoded on another thread, so this one has no spare buffers.
        let bytes = std::thread::spawn(|| placed(&soup_of(1000), true))
            .join()
            .unwrap();
        let received = TriangleSoup::from_bytes(bytes).unwrap();
        assert!(received.positions.is_received());
        assert!(SPARE_VERTICES.contains(&received.positions.len()));
        drop(received.clone());
        drop(received);
        assert_eq!(capacity(&TriangleSoup::new()), 0);
    }

    #[test]
    fn malformed_inputs_are_refused_at_every_offset() {
        let good = tri_soup().to_bytes().to_vec();
        let with_count = |n: u32, body: &[u8]| [&n.to_le_bytes()[..], body].concat();
        let cases = [
            Vec::new(),
            good[..3].to_vec(),
            good[..good.len() - 1].to_vec(),
            good[..good.len() - 12].to_vec(),
            with_count(3, &good[4..]),
            with_count(1, &good[4..]),
            [&good[..], &[0; 36]].concat(),
            with_count(u32::MAX, &good[4..]),
        ];
        for case in &cases {
            for off in 0..4 {
                let b = at_offset(case, off);
                assert!(TriangleSoup::from_bytes(b).is_none(), "{case:?} at {off}");
            }
        }
    }

    #[test]
    fn polyline_roundtrip_and_length() {
        let mut l = Polyline::default();
        l.push(Vec3::ZERO, 0.0);
        l.push(Vec3::new(3.0, 4.0, 0.0), 0.1);
        l.push(Vec3::new(3.0, 4.0, 12.0), 0.2);
        assert_eq!(l.len(), 3);
        assert!((l.arc_length() - 17.0).abs() < 1e-6);
        let back = Polyline::from_bytes(l.to_bytes()).unwrap();
        assert_eq!(back, l);
        assert!(Polyline::from_bytes(Bytes::from_static(b"zz")).is_none());
    }
}
