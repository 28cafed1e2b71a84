//! On-disk multi-block dataset format.
//!
//! A dataset is a directory containing one binary file per `(block, step)`
//! data item plus a JSON descriptor. The binary layout (little-endian) is:
//!
//! ```text
//! magic    : [u8; 4] = b"VIRA"
//! version  : u32     = 1
//! block    : u32
//! step     : u32
//! ni,nj,nk : u32 × 3
//! time     : f64
//! points   : ni·nj·nk × 3 × f64      (i fastest)
//! velocity : ni·nj·nk × 3 × f64
//! ```
//!
//! This is Viracocha's own format; support for arbitrary formats is given
//! by keeping data and its manipulation methods separate (§4): the DMS
//! treats items as opaque payloads and delegates to loader callbacks.
//!
//! A second layout, the *field-only* item, is the same header with
//! version 2 followed by the velocity alone: what the DMS disk tier
//! spills ([`write_block_field`], [`read_block_field`]). Version 2 is not
//! a successor of version 1 — neither reader accepts the other's files.
//! The spill keeps the item's geometry in memory, so the reader takes
//! that geometry back and refuses a header naming another block, or
//! other dims, than it has. A spilled item costs
//! [`encoded_field_size`] bytes, about half of [`encoded_size`].
//!
//! [`write_block_data`] and [`read_block_data`] move a block in slabs:
//! the 36-byte header in one call, then each field array in one
//! `write_all` / `read_exact` of `n_points × 24` bytes, converted
//! between memory and little-endian bytes 24 at a time — the pass that
//! also splits the file's `(x, y, z)` triples into the velocity planes
//! and interleaves them again. The
//! reader or writer is therefore called three times per block whatever
//! its size (twice for a field-only item), and needs no buffering of its
//! own (a `File` or a `&[u8]` does as well as a `BufReader`). The header
//! of either layout is validated — magic, version, dims, in that order —
//! before anything is allocated from it, and a stream that ends early,
//! inside the header or after it, is a [`FormatError::Io`]
//! (`UnexpectedEof`).
//!
//! Every item file repeats its block's points (the layout above is
//! unchanged), but a read shares them: grids are static, so
//! [`read_block_data`] hands out the geometry an earlier read of the same
//! block decoded, as long as some item still holds it and the file's
//! points are bit-identical to it, and decodes only the velocity. A
//! private table of weak handles, keyed by block id and dims, finds that
//! geometry; it never keeps one alive. A file whose points differ — by a
//! single bit, `-0.0` for `+0.0` or another NaN payload included — gets
//! its own geometry, so what a read returns is always exactly what was
//! written.

use crate::block::{BlockDims, BlockId, BlockStepId, CurvilinearBlock};
use crate::field::{BlockData, VectorField};
use crate::math::Vec3;
use crate::synth::{DatasetSpec, SyntheticDataset};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use vira_obs::json::{self, Json};

const MAGIC: [u8; 4] = *b"VIRA";
const VERSION: u32 = 1;
/// The field-only layout's version (see the module docs).
const FIELD_VERSION: u32 = 2;

/// Errors produced by the dataset reader/writer.
#[derive(Debug)]
pub enum FormatError {
    Io(io::Error),
    BadMagic([u8; 4]),
    BadVersion(u32),
    /// Header dims are implausible (zero or would overflow).
    BadDims {
        ni: u32,
        nj: u32,
        nk: u32,
    },
    /// A field-only item names another block, or other dims, than the
    /// geometry it is read back onto.
    OtherGeometry {
        block: BlockId,
        dims: BlockDims,
    },
    /// Descriptor JSON was malformed.
    BadDescriptor(String),
    /// The requested item lies outside the dataset.
    OutOfRange(BlockStepId),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "I/O error: {e}"),
            FormatError::BadMagic(m) => write!(f, "bad magic {m:?}, not a VIRA file"),
            FormatError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::BadDims { ni, nj, nk } => {
                write!(f, "implausible block dims {ni}x{nj}x{nk}")
            }
            FormatError::OtherGeometry { block, dims } => write!(
                f,
                "field of block {block} ({}x{}x{}) does not fit the geometry held for it",
                dims.ni, dims.nj, dims.nk
            ),
            FormatError::BadDescriptor(s) => write!(f, "bad dataset descriptor: {s}"),
            FormatError::OutOfRange(id) => {
                write!(
                    f,
                    "item (block {}, step {}) out of range",
                    id.block, id.step
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// magic + version + block + step + dims (3×u32) + time
const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 12 + 8;
/// One `Vec3` on disk: x, y, z as f64.
const VEC3_LEN: usize = 24;

fn write_vec3s(
    w: &mut impl Write,
    vs: impl ExactSizeIterator<Item = Vec3>,
    slab: &mut Vec<u8>,
) -> io::Result<()> {
    slab.resize(vs.len() * VEC3_LEN, 0);
    for (v, out) in vs.zip(slab.chunks_exact_mut(VEC3_LEN)) {
        out[..8].copy_from_slice(&v.x.to_le_bytes());
        out[8..16].copy_from_slice(&v.y.to_le_bytes());
        out[16..].copy_from_slice(&v.z.to_le_bytes());
    }
    w.write_all(slab)
}

/// Reads `n` points into `slab`.
fn read_slab(r: &mut impl Read, n: usize, slab: &mut Vec<u8>) -> io::Result<()> {
    slab.resize(n * VEC3_LEN, 0);
    r.read_exact(slab)
}

/// The little-endian bit patterns of the `(x, y, z)` triples in `slab`.
fn triples(slab: &[u8]) -> impl ExactSizeIterator<Item = [u64; 3]> + '_ {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    slab.chunks_exact(VEC3_LEN)
        .map(move |c| [word(&c[..8]), word(&c[8..16]), word(&c[16..])])
}

/// Block geometry decoded by earlier reads, by block id and dims. The
/// handles are weak: a geometry lives as long as some item holds it.
/// Every update (prune, push) leaves the table valid, so a lock poisoned
/// by a panicking reader is taken over as is.
type GeometryKey = (BlockId, [u32; 3]);
static GEOMETRY: Mutex<BTreeMap<GeometryKey, Vec<Weak<CurvilinearBlock>>>> =
    Mutex::new(BTreeMap::new());

/// `true` when `slab` holds exactly `grid`'s points, bit for bit.
fn holds_points(slab: &[u8], grid: &CurvilinearBlock) -> bool {
    let differing = triples(slab)
        .zip(&grid.points)
        .fold(0, |acc, ([x, y, z], p)| {
            acc | (x ^ p.x.to_bits()) | (y ^ p.y.to_bits()) | (z ^ p.z.to_bits())
        });
    differing == 0 && slab.len() == grid.points.len() * VEC3_LEN
}

/// The geometry whose points `slab` holds: the one an earlier read of
/// `block` decoded, when a live item still holds it and its points are
/// bit-identical, else a fresh decode, registered for later reads.
///
/// Points are compared outside the lock. Before registering a fresh
/// decode the table is looked at again, so two readers racing on a
/// block's first read leave one geometry that both, and later reads,
/// share.
fn shared_geometry(block: BlockId, dims: BlockDims, slab: &[u8]) -> Arc<CurvilinearBlock> {
    let key = (block, [dims.ni, dims.nj, dims.nk].map(|n| n as u32));
    let mut compared: Vec<Arc<CurvilinearBlock>> = Vec::new();
    let mut fresh = None;
    loop {
        let unseen: Vec<_> = {
            let mut table = GEOMETRY.lock().unwrap_or_else(PoisonError::into_inner);
            let held = table.entry(key).or_default();
            held.retain(|g| g.strong_count() > 0);
            let unseen: Vec<_> = held
                .iter()
                .filter_map(Weak::upgrade)
                .filter(|g| !compared.iter().any(|c| Arc::ptr_eq(c, g)))
                .collect();
            match &fresh {
                Some(grid) if unseen.is_empty() => {
                    held.push(Arc::downgrade(grid));
                    return Arc::clone(grid);
                }
                _ => unseen,
            }
        };
        for grid in unseen {
            if holds_points(slab, &grid) {
                return grid;
            }
            compared.push(grid);
        }
        fresh.get_or_insert_with(|| {
            let points = triples(slab).map(|[x, y, z]| {
                Vec3::new(f64::from_bits(x), f64::from_bits(y), f64::from_bits(z))
            });
            Arc::new(CurvilinearBlock::new(block, dims, points.collect()))
        });
    }
}

/// What an item header holds after its magic and version.
struct Header {
    id: BlockStepId,
    dims: BlockDims,
    time: f64,
}

fn write_header(w: &mut impl Write, version: u32, item: &BlockData) -> io::Result<()> {
    let d = item.dims();
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    let words = [
        version,
        item.id.block,
        item.id.step,
        d.ni as u32,
        d.nj as u32,
        d.nk as u32,
    ];
    for (word, out) in words.iter().zip(header[4..28].chunks_exact_mut(4)) {
        out.copy_from_slice(&word.to_le_bytes());
    }
    header[28..].copy_from_slice(&item.time.to_le_bytes());
    w.write_all(&header)
}

/// Reads and validates a header of the layout `version`: magic, version,
/// then dims, before anything is allocated from it.
fn read_header(r: &mut impl Read, version: u32) -> Result<Header, FormatError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(FormatError::BadMagic(magic));
    }
    let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
    if word(4) != version {
        return Err(FormatError::BadVersion(word(4)));
    }
    let (ni, nj, nk) = (word(16), word(20), word(24));
    // 64M points (≈ 3 GB of f64 triplets) is far beyond any block we write;
    // treat larger headers as corruption rather than attempting the alloc.
    let n = (ni as u64) * (nj as u64) * (nk as u64);
    if ni == 0 || nj == 0 || nk == 0 || n > (1 << 26) {
        return Err(FormatError::BadDims { ni, nj, nk });
    }
    Ok(Header {
        id: BlockStepId::new(word(8), word(12)),
        dims: BlockDims::new(ni as usize, nj as usize, nk as usize),
        time: f64::from_le_bytes(header[28..].try_into().expect("8 bytes")),
    })
}

fn write_velocity(w: &mut impl Write, u: &VectorField, slab: &mut Vec<u8>) -> io::Result<()> {
    let velocity = u.xs.iter().zip(&u.ys).zip(&u.zs);
    write_vec3s(w, velocity.map(|((&x, &y), &z)| Vec3::new(x, y, z)), slab)
}

fn read_velocity(
    r: &mut impl Read,
    dims: BlockDims,
    slab: &mut Vec<u8>,
) -> io::Result<VectorField> {
    read_slab(r, dims.n_points(), slab)?;
    let (xs, (ys, zs)) = triples(slab)
        .map(|[x, y, z]| (f64::from_bits(x), (f64::from_bits(y), f64::from_bits(z))))
        .unzip();
    Ok(VectorField::new(dims, xs, ys, zs))
}

/// Serializes one data item to a writer.
pub fn write_block_data(w: &mut impl Write, item: &BlockData) -> Result<(), FormatError> {
    write_header(w, VERSION, item)?;
    let mut slab = Vec::new();
    write_vec3s(w, item.grid.points.iter().copied(), &mut slab)?;
    write_velocity(w, &item.velocity, &mut slab)?;
    Ok(())
}

/// Deserializes one data item from a reader. The item's geometry is the
/// one earlier reads of the block share when the points match it bit for
/// bit (see the module docs).
pub fn read_block_data(r: &mut impl Read) -> Result<BlockData, FormatError> {
    let Header { id, dims, time } = read_header(r, VERSION)?;
    let mut slab = Vec::new();
    read_slab(r, dims.n_points(), &mut slab)?;
    let grid = shared_geometry(id.block, dims, &slab);
    let velocity = read_velocity(r, dims, &mut slab)?;
    Ok(BlockData::new(id, grid, velocity, time))
}

/// Serializes one data item without its points: the field-only layout
/// (see the module docs), which [`read_block_field`] reads back onto the
/// item's geometry.
pub fn write_block_field(w: &mut impl Write, item: &BlockData) -> Result<(), FormatError> {
    write_header(w, FIELD_VERSION, item)?;
    write_velocity(w, &item.velocity, &mut Vec::new())?;
    Ok(())
}

/// Deserializes a field-only item onto `grid`, the geometry the item was
/// written from. A header naming another block or other dims than `grid`
/// is [`FormatError::OtherGeometry`]; a file of the v1 layout is
/// [`FormatError::BadVersion`].
pub fn read_block_field(
    r: &mut impl Read,
    grid: &Arc<CurvilinearBlock>,
) -> Result<BlockData, FormatError> {
    let Header { id, dims, time } = read_header(r, FIELD_VERSION)?;
    if id.block != grid.id || dims != grid.dims {
        return Err(FormatError::OtherGeometry {
            block: id.block,
            dims,
        });
    }
    let velocity = read_velocity(r, dims, &mut Vec::new())?;
    Ok(BlockData::new(id, Arc::clone(grid), velocity, time))
}

/// Serialized size in bytes of an item with the given dims: header,
/// points and velocity (every file carries its block's points).
pub fn encoded_size(dims: BlockDims) -> u64 {
    HEADER_LEN as u64 + dims.n_points() as u64 * VEC3_LEN as u64 * 2
}

/// Serialized size in bytes of a field-only item with the given dims:
/// header and velocity.
pub fn encoded_field_size(dims: BlockDims) -> u64 {
    HEADER_LEN as u64 + dims.n_points() as u64 * VEC3_LEN as u64
}

/// JSON descriptor stored next to the item files.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetDescriptor {
    pub spec: DatasetSpec,
    /// Relative file name of every item, indexed `step * n_blocks + block`.
    pub files: Vec<String>,
}

impl DatasetDescriptor {
    /// The `dataset.json` document.
    pub fn to_json(&self) -> Json {
        let spec = &self.spec;
        let dims = spec.block_dims;
        Json::obj([
            (
                "spec",
                Json::obj([
                    ("name", spec.name.as_str().into()),
                    ("n_blocks", spec.n_blocks.into()),
                    ("n_steps", spec.n_steps.into()),
                    (
                        "block_dims",
                        Json::obj([
                            ("ni", dims.ni.into()),
                            ("nj", dims.nj.into()),
                            ("nk", dims.nk.into()),
                        ]),
                    ),
                    ("nominal_disk_bytes", spec.nominal_disk_bytes.into()),
                    ("dt", spec.dt.into()),
                ]),
            ),
            ("files", Json::arr(self.files.iter().map(String::as_str))),
        ])
    }

    pub fn from_json(j: &Json) -> Result<DatasetDescriptor, String> {
        let spec = j.req("spec", |s| {
            Ok(DatasetSpec {
                name: s.req("name", json::string)?,
                n_blocks: s.req("n_blocks", json::u32)?,
                n_steps: s.req("n_steps", json::u32)?,
                block_dims: s.req("block_dims", |d| {
                    Ok(BlockDims::new(
                        d.req("ni", json::usize)?,
                        d.req("nj", json::usize)?,
                        d.req("nk", json::usize)?,
                    ))
                })?,
                nominal_disk_bytes: s.req("nominal_disk_bytes", json::u64)?,
                dt: s.req("dt", json::f64)?,
            })
        })?;
        let files = j.req("files", |f| json::list(f, json::string))?;
        Ok(DatasetDescriptor { spec, files })
    }
}

/// A dataset laid out on disk, one file per item.
#[derive(Debug, Clone)]
pub struct DiskDataset {
    pub dir: PathBuf,
    pub descriptor: DatasetDescriptor,
}

/// File name of one data item.
pub fn item_file_name(id: BlockStepId) -> String {
    format!("b{:04}_s{:04}.vbk", id.block, id.step)
}

impl DiskDataset {
    /// Writes every item of a synthetic dataset into `dir` (created if
    /// needed) together with the descriptor, and returns the handle.
    pub fn write_full(ds: &SyntheticDataset, dir: &Path) -> Result<DiskDataset, FormatError> {
        Self::write_subset(ds, dir, ds.spec.items_in_file_order())
    }

    /// Writes only selected items (e.g. a single time step). The descriptor
    /// still lists the full index; missing items fail at load time.
    pub fn write_subset(
        ds: &SyntheticDataset,
        dir: &Path,
        items: impl IntoIterator<Item = BlockStepId>,
    ) -> Result<DiskDataset, FormatError> {
        fs::create_dir_all(dir)?;
        for id in items {
            let item = ds.generate(id);
            write_block_data(&mut File::create(dir.join(item_file_name(id)))?, &item)?;
        }
        let files = ds.spec.items_in_file_order().map(item_file_name).collect();
        let descriptor = DatasetDescriptor {
            spec: ds.spec.clone(),
            files,
        };
        fs::write(dir.join("dataset.json"), descriptor.to_json().pretty())?;
        Ok(DiskDataset {
            dir: dir.to_path_buf(),
            descriptor,
        })
    }

    /// Opens an existing on-disk dataset by reading its descriptor.
    pub fn open(dir: &Path) -> Result<DiskDataset, FormatError> {
        let text = fs::read_to_string(dir.join("dataset.json"))?;
        let descriptor = json::parse(&text)
            .and_then(|j| DatasetDescriptor::from_json(&j))
            .map_err(FormatError::BadDescriptor)?;
        Ok(DiskDataset {
            dir: dir.to_path_buf(),
            descriptor,
        })
    }

    pub fn spec(&self) -> &DatasetSpec {
        &self.descriptor.spec
    }

    /// Absolute path of one item file.
    pub fn item_path(&self, id: BlockStepId) -> Result<PathBuf, FormatError> {
        let spec = self.spec();
        if id.block >= spec.n_blocks || id.step >= spec.n_steps {
            return Err(FormatError::OutOfRange(id));
        }
        Ok(self.dir.join(item_file_name(id)))
    }

    /// Loads one item from disk.
    pub fn load(&self, id: BlockStepId) -> Result<BlockData, FormatError> {
        read_block_data(&mut File::open(self.item_path(id)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::test_cube;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vira_grid_io_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_in_memory() {
        let ds = test_cube(5, 2);
        let item = ds.generate(BlockStepId::new(0, 1));
        let mut buf = Vec::new();
        write_block_data(&mut buf, &item).unwrap();
        assert_eq!(buf.len() as u64, encoded_size(item.dims()));
        let back = read_block_data(&mut buf.as_slice()).unwrap();
        assert_eq!(back, item);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = b"NOPE".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        match read_block_data(&mut buf.as_slice()) {
            Err(FormatError::BadMagic(m)) => assert_eq!(&m, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let ds = test_cube(3, 1);
        let item = ds.generate(BlockStepId::new(0, 0));
        let mut buf = Vec::new();
        write_block_data(&mut buf, &item).unwrap();
        // Neither layout's reader takes the other's files.
        assert!(matches!(
            read_block_field(&mut buf.as_slice(), &item.grid),
            Err(FormatError::BadVersion(VERSION))
        ));
        let mut field = Vec::new();
        write_block_field(&mut field, &item).unwrap();
        assert!(matches!(
            read_block_data(&mut field.as_slice()),
            Err(FormatError::BadVersion(FIELD_VERSION))
        ));
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_block_data(&mut buf.as_slice()),
            Err(FormatError::BadVersion(99))
        ));
    }

    #[test]
    fn implausible_dims_are_rejected() {
        let ds = test_cube(3, 1);
        let item = ds.generate(BlockStepId::new(0, 0));
        let mut buf = Vec::new();
        write_block_data(&mut buf, &item).unwrap();
        // ni field lives at offset 16.
        buf[16..20].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_block_data(&mut buf.as_slice()),
            Err(FormatError::BadDims { .. })
        ));
    }

    #[test]
    fn truncated_file_is_an_io_error() {
        let ds = test_cube(3, 1);
        let item = ds.generate(BlockStepId::new(0, 0));
        let mut buf = Vec::new();
        write_block_data(&mut buf, &item).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            read_block_data(&mut buf.as_slice()),
            Err(FormatError::Io(_))
        ));
    }

    /// The element-wise encoder the slab codec replaced, kept as the
    /// oracle for the on-disk v1 layout: one `write_all` per scalar.
    fn write_block_data_elementwise(w: &mut Vec<u8>, item: &BlockData) {
        w.extend_from_slice(&MAGIC);
        let d = item.dims();
        for word in [
            VERSION,
            item.id.block,
            item.id.step,
            d.ni as u32,
            d.nj as u32,
            d.nk as u32,
        ] {
            w.extend_from_slice(&word.to_le_bytes());
        }
        w.extend_from_slice(&item.time.to_le_bytes());
        let velocity = (0..d.n_points()).map(|n| {
            let (i, j, k) = d.point_coords(n);
            item.velocity.at(i, j, k)
        });
        for v in item.grid.points.iter().copied().chain(velocity) {
            for c in [v.x, v.y, v.z] {
                w.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    /// A block with the given (odd, unequal) dims and values that make
    /// every byte of every scalar matter.
    fn odd_block(ni: usize, nj: usize, nk: usize) -> BlockData {
        let dims = BlockDims::new(ni, nj, nk);
        let vec = |i: usize, salt: f64| {
            let t = i as f64 + salt;
            Vec3::new(
                t.sin() * 1e3,
                -t / 7.0,
                f64::from_bits(0x3ff0_0000_0000_0001 + i as u64),
            )
        };
        let n = dims.n_points();
        BlockData::new(
            BlockStepId::new(3, 9),
            CurvilinearBlock::new(3, dims, (0..n).map(|i| vec(i, 0.25)).collect()),
            VectorField::from_vec3s(dims, &(0..n).map(|i| vec(i, 0.75)).collect::<Vec<_>>()),
            -1.5e-3,
        )
    }

    #[test]
    fn slab_encoding_is_byte_identical_to_elementwise() {
        for (ni, nj, nk) in [(1, 1, 1), (1, 2, 3), (3, 1, 5), (5, 7, 3), (21, 21, 21)] {
            let item = odd_block(ni, nj, nk);
            let mut slab = Vec::new();
            write_block_data(&mut slab, &item).unwrap();
            let mut golden = Vec::new();
            write_block_data_elementwise(&mut golden, &item);
            assert_eq!(slab, golden, "{ni}x{nj}x{nk}");
            assert_eq!(slab.len() as u64, encoded_size(item.dims()));
            assert_eq!(read_block_data(&mut golden.as_slice()).unwrap(), item);
            // The field-only layout: the same header but its version,
            // then the same velocity bytes.
            let mut field = Vec::new();
            write_block_field(&mut field, &item).unwrap();
            assert_eq!(field.len() as u64, encoded_field_size(item.dims()));
            let velocity_at = golden.len() - (field.len() - HEADER_LEN);
            golden[4..8].copy_from_slice(&FIELD_VERSION.to_le_bytes());
            golden.drain(HEADER_LEN..velocity_at);
            assert_eq!(field, golden, "{ni}x{nj}x{nk}, field only");
            let back = read_block_field(&mut field.as_slice(), &item.grid).unwrap();
            assert_eq!(back, item);
            assert!(Arc::ptr_eq(&back.grid, &item.grid));
        }
    }

    #[test]
    fn every_prefix_truncation_is_an_io_error() {
        for (ni, nj, nk) in [(1, 1, 1), (3, 1, 5)] {
            let item = odd_block(ni, nj, nk);
            let (mut whole, mut field) = (Vec::new(), Vec::new());
            write_block_data(&mut whole, &item).unwrap();
            write_block_field(&mut field, &item).unwrap();
            for (buf, field_only) in [(whole, false), (field, true)] {
                for cut in 0..buf.len() {
                    let read = if field_only {
                        read_block_field(&mut &buf[..cut], &item.grid)
                    } else {
                        read_block_data(&mut &buf[..cut])
                    };
                    match read {
                        Err(FormatError::Io(e)) => {
                            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}")
                        }
                        other => panic!("cut {cut} of {}: expected Io, got {other:?}", buf.len()),
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_dims_are_rejected_before_allocation() {
        // 2^27 points would need 3 GB per array; nothing follows the
        // header, so reaching the allocation would also hide behind an
        // Io error — BadDims proves the bound came first.
        let mut buf = Vec::new();
        write_block_data(&mut buf, &odd_block(1, 1, 1)).unwrap();
        buf.truncate(36);
        buf[16..20].copy_from_slice(&(1u32 << 9).to_le_bytes());
        buf[20..24].copy_from_slice(&(1u32 << 9).to_le_bytes());
        buf[24..28].copy_from_slice(&(1u32 << 9).to_le_bytes());
        assert!(matches!(
            read_block_data(&mut buf.as_slice()),
            Err(FormatError::BadDims { .. })
        ));
    }

    #[test]
    fn a_field_of_another_block_or_other_dims_is_refused() {
        let item = odd_block(3, 1, 5);
        let mut field = Vec::new();
        write_block_field(&mut field, &item).unwrap();
        // Block id at offset 8; ni, nj, nk at 16, 20, 24. Dims are
        // swapped, so the point count (and the slab length) stays.
        for (at, word) in [(8, 4u32), (16, 5), (24, 3)] {
            let mut other = field.clone();
            other[at..at + 4].copy_from_slice(&word.to_le_bytes());
            match read_block_field(&mut other.as_slice(), &item.grid) {
                Err(FormatError::OtherGeometry { .. }) => {}
                res => panic!("word at {at} = {word}: expected OtherGeometry, got {res:?}"),
            }
        }
        // The step is the item's own business, not the geometry's.
        let mut later = field.clone();
        later[12..16].copy_from_slice(&10u32.to_le_bytes());
        let back = read_block_field(&mut later.as_slice(), &item.grid).unwrap();
        assert_eq!(back.id, BlockStepId::new(3, 10));
    }

    /// The file of step `step` of an `n`×1×1 block `block` with the
    /// given `n` points (each test below owns its block ids, so reads of
    /// other tests never meet its geometry).
    fn item_file(block: u32, step: u32, points: &[Vec3]) -> Vec<u8> {
        let dims = BlockDims::new(points.len(), 1, 1);
        let velocity: Vec<_> = (0..points.len())
            .map(|i| Vec3::splat((i as u32 + step) as f64))
            .collect();
        let item = BlockData::new(
            BlockStepId::new(block, step),
            CurvilinearBlock::new(block, dims, points.to_vec()),
            VectorField::from_vec3s(dims, &velocity),
            step as f64,
        );
        let mut buf = Vec::new();
        write_block_data(&mut buf, &item).unwrap();
        buf
    }

    fn points(salt: f64, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new(i as f64, salt, -(i as f64) / 3.0))
            .collect()
    }

    fn read(file: &[u8]) -> BlockData {
        read_block_data(&mut &file[..]).unwrap()
    }

    fn bits(points: &[Vec3]) -> Vec<[u64; 3]> {
        points
            .iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    }

    #[test]
    fn two_steps_of_a_block_share_one_geometry() {
        let a = read(&item_file(9001, 0, &points(0.5, 12)));
        let b = read(&item_file(9001, 1, &points(0.5, 12)));
        assert!(Arc::ptr_eq(&a.grid, &b.grid));
        assert_ne!(a.velocity, b.velocity);
        assert_eq!(b.id, BlockStepId::new(9001, 1));
    }

    #[test]
    fn other_points_under_the_same_id_and_dims_get_their_own_geometry() {
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        let mut base = points(0.0, 12);
        base[5].z = nan(1);
        let mut signed_zero = base.clone();
        signed_zero[0].y = -0.0;
        let mut other_nan = base.clone();
        other_nan[5].z = nan(2);
        let variants = [base, signed_zero, other_nan];
        let files: Vec<_> = variants.iter().map(|p| item_file(9002, 0, p)).collect();
        let mut held: Vec<BlockData> = Vec::new();
        for round in 0..3 {
            for (v, file) in files.iter().enumerate() {
                let item = read(file);
                assert_eq!(
                    bits(&item.grid.points),
                    bits(&variants[v]),
                    "round {round}, variant {v}"
                );
                if round > 0 {
                    assert!(
                        Arc::ptr_eq(&item.grid, &held[v].grid),
                        "round {round}, variant {v}"
                    );
                }
                held.push(item);
            }
        }
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert!(
                !Arc::ptr_eq(&held[a].grid, &held[b].grid),
                "variants {a} and {b}"
            );
        }
    }

    #[test]
    fn dropping_the_last_item_releases_the_geometry() {
        let file = item_file(9003, 0, &points(1.5, 12));
        let (first, second) = (read(&file), read(&file));
        let weak = Arc::downgrade(&first.grid);
        drop(first);
        assert!(weak.upgrade().is_some(), "the second item still holds it");
        drop(second);
        assert!(
            weak.upgrade().is_none(),
            "the table kept the geometry alive"
        );
        assert_eq!(bits(&read(&file).grid.points), bits(&points(1.5, 12)));
    }

    #[test]
    fn racing_first_reads_leave_one_geometry() {
        for round in 0..20 {
            // Enough points that the two decodes overlap: both racers
            // miss, and the re-check alone keeps them on one geometry.
            let file = item_file(9004 + round, 0, &points(2.5, 20_000));
            let start = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let racer = || {
                    start.wait();
                    read(&file)
                };
                let (a, b) = (s.spawn(racer), s.spawn(racer));
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(Arc::ptr_eq(&a.grid, &b.grid), "round {round}");
            assert!(Arc::ptr_eq(&a.grid, &read(&file).grid), "round {round}");
        }
    }

    #[test]
    fn disk_dataset_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let ds = test_cube(4, 3);
        let disk = DiskDataset::write_full(&ds, &dir).unwrap();
        let reopened = DiskDataset::open(&dir).unwrap();
        assert_eq!(reopened.spec().name, "TestCube");
        for id in ds.spec.items_in_file_order() {
            let loaded = reopened.load(id).unwrap();
            assert_eq!(loaded, ds.generate(id));
        }
        assert!(disk.item_path(BlockStepId::new(5, 0)).is_err());
        assert!(disk.item_path(BlockStepId::new(0, 5)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn descriptor_json_shape_is_pinned() {
        // Byte for byte what the derived encoder of earlier versions
        // wrote, so datasets on disk stay readable in both directions.
        let text = r#"{
  "spec": {
    "name": "TestCube",
    "n_blocks": 2,
    "n_steps": 3,
    "block_dims": {
      "ni": 4,
      "nj": 5,
      "nk": 6
    },
    "nominal_disk_bytes": 9007199254740993,
    "dt": 0.25
  },
  "files": [
    "b0000_s0000.vbk",
    "b0001_s0000.vbk"
  ]
}"#;
        let d = DatasetDescriptor {
            spec: DatasetSpec {
                name: "TestCube".into(),
                n_blocks: 2,
                n_steps: 3,
                block_dims: BlockDims::new(4, 5, 6),
                nominal_disk_bytes: (1 << 53) + 1,
                dt: 0.25,
            },
            files: vec!["b0000_s0000.vbk".into(), "b0001_s0000.vbk".into()],
        };
        assert_eq!(d.to_json().pretty(), text);
        let mut j = json::parse(text).unwrap();
        assert_eq!(DatasetDescriptor::from_json(&j).unwrap(), d);
        // An unknown key is skipped, a missing one is named.
        j.set("written_by", "a newer version".into());
        assert_eq!(DatasetDescriptor::from_json(&j).unwrap(), d);
        j.remove("files");
        let err = DatasetDescriptor::from_json(&j).unwrap_err();
        assert!(err.contains("files"), "{err}");
    }

    #[test]
    fn unreadable_descriptor_is_a_format_error() {
        let dir = tmp_dir("bad_descriptor");
        fs::create_dir_all(&dir).unwrap();
        for text in ["", "{\"spec\": 3}", "[[[["] {
            fs::write(dir.join("dataset.json"), text).unwrap();
            assert!(matches!(
                DiskDataset::open(&dir),
                Err(FormatError::BadDescriptor(_))
            ));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_item_file_fails_at_load() {
        let dir = tmp_dir("subset");
        let ds = test_cube(4, 2);
        // Write only step 0.
        let disk =
            DiskDataset::write_subset(&ds, &dir, (0..1).map(|b| BlockStepId::new(b, 0))).unwrap();
        assert!(disk.load(BlockStepId::new(0, 0)).is_ok());
        assert!(matches!(
            disk.load(BlockStepId::new(0, 1)),
            Err(FormatError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
