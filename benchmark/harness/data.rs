//! The datasets the workloads run on and the `DataSource`s that serve
//! them, plus the per-process scratch directory under `benchmark/out/`.

use crate::trace::span;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vira_grid::block::BlockStepId;
use vira_grid::field::BlockData;
use vira_grid::io::{encoded_size, item_file_name, read_block_data, write_block_data};
use vira_grid::math::Aabb;
use vira_grid::synth::{self, DatasetSpec, SyntheticDataset};
use vira_storage::source::{DataSource, StorageError};

/// `benchmark/out/run-<pid>/`: datasets, spill tiers and socket paths
/// of one harness process; removed when dropped. The path stays
/// relative to the working directory (the repository root) so a Unix
/// socket path under it fits `sun_path` wherever the checkout lives.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        let dir = Path::new("benchmark/out").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DataKind {
    /// Propfan, one time step generated into memory (the file server
    /// answers from RAM; the DMS is warm after the first sweep).
    PropfanStep { res: usize },
    /// Engine, the first `steps` time steps written to item files.
    EngineFiles { res: usize, steps: u32 },
}

/// Read-side counters of a [`FileSource`].
#[derive(Default)]
pub struct FileStats {
    pub fetch_calls: AtomicU64,
    pub fetch_failed: AtomicU64,
    pub decode_calls: AtomicU64,
}

pub struct Dataset {
    pub spec: DatasetSpec,
    pub source: Arc<dyn DataSource>,
    /// Present for file-backed datasets.
    pub file_stats: Option<Arc<FileStats>>,
    pub bbox: Aabb,
    /// Payload bytes of the whole dataset as the workload sees it.
    pub bytes: u64,
    /// Serialized size of one item file.
    pub item_file_bytes: u64,
}

impl Dataset {
    /// Generates (and for `EngineFiles` writes under `dir`) the dataset.
    pub fn build(kind: DataKind, dir: &Path) -> Result<Dataset, String> {
        let (ds, steps) = match kind {
            DataKind::PropfanStep { res } => (synth::propfan(res), 1),
            DataKind::EngineFiles { res, steps } => (synth::engine(res), steps),
        };
        let spec = DatasetSpec {
            n_steps: steps,
            ..ds.spec.clone()
        };
        let bboxes: Vec<Aabb> = ds.blocks().iter().map(|b| *b.bbox()).collect();
        let mut bbox = Aabb::EMPTY;
        for b in &bboxes {
            bbox.expand(b.min);
            bbox.expand(b.max);
        }
        let item_file_bytes = encoded_size(spec.block_dims);
        let bytes = ds.actual_item_bytes() as u64 * spec.n_items();
        let (source, file_stats): (Arc<dyn DataSource>, _) = match kind {
            DataKind::PropfanStep { .. } => {
                let items = spec
                    .items_in_file_order()
                    .map(|id| Arc::new(ds.generate(id)))
                    .collect();
                (
                    Arc::new(MemSource {
                        spec: spec.clone(),
                        items,
                        bboxes,
                    }),
                    None,
                )
            }
            DataKind::EngineFiles { .. } => {
                let data = dir.join("data");
                write_items(&ds, &spec, &data).map_err(|e| format!("writing dataset: {e}"))?;
                let stats = Arc::new(FileStats::default());
                let src = FileSource {
                    spec: spec.clone(),
                    dir: data,
                    bboxes,
                    stats: stats.clone(),
                };
                (Arc::new(src), Some(stats))
            }
        };
        Ok(Dataset {
            spec,
            source,
            file_stats,
            bbox,
            bytes,
            item_file_bytes,
        })
    }
}

fn write_items(ds: &SyntheticDataset, spec: &DatasetSpec, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for id in spec.items_in_file_order() {
        let f = std::fs::File::create(dir.join(item_file_name(id)))?;
        let mut w = std::io::BufWriter::with_capacity(1 << 16, f);
        write_block_data(&mut w, &ds.generate(id)).map_err(std::io::Error::other)?;
        w.flush()?;
    }
    Ok(())
}

fn in_range(spec: &DatasetSpec, id: BlockStepId) -> Result<(), StorageError> {
    if id.block >= spec.n_blocks || id.step >= spec.n_steps {
        return Err(StorageError::OutOfRange(id));
    }
    Ok(())
}

/// Serves pre-generated items as shared handles.
struct MemSource {
    spec: DatasetSpec,
    items: Vec<Arc<BlockData>>,
    bboxes: Vec<Aabb>,
}

impl DataSource for MemSource {
    fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    fn fetch(&self, id: BlockStepId) -> Result<Arc<BlockData>, StorageError> {
        in_range(&self.spec, id)?;
        Ok(self.items[(id.step * self.spec.n_blocks + id.block) as usize].clone())
    }

    fn block_bboxes(&self) -> Option<Vec<Aabb>> {
        Some(self.bboxes.clone())
    }
}

/// Reads item files through `vira_grid::io::read_block_data`. The files
/// were written moments earlier, so reads come from the page cache: this
/// measures the read and decode path, not a disk.
struct FileSource {
    spec: DatasetSpec,
    dir: PathBuf,
    bboxes: Vec<Aabb>,
    stats: Arc<FileStats>,
}

impl DataSource for FileSource {
    fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    fn fetch(&self, id: BlockStepId) -> Result<Arc<BlockData>, StorageError> {
        in_range(&self.spec, id)?;
        self.stats.fetch_calls.fetch_add(1, Ordering::Relaxed);
        let _s = span("storage.fetch");
        let fail = |e: StorageError| {
            self.stats.fetch_failed.fetch_add(1, Ordering::Relaxed);
            e
        };
        let raw = std::fs::read(self.dir.join(item_file_name(id)))
            .map_err(|e| fail(StorageError::Unavailable(e.to_string())))?;
        let _d = span("grid.read_block");
        self.stats.decode_calls.fetch_add(1, Ordering::Relaxed);
        let item = read_block_data(&mut raw.as_slice()).map_err(|e| fail(e.into()))?;
        Ok(Arc::new(item))
    }

    fn block_bboxes(&self) -> Option<Vec<Aabb>> {
        Some(self.bboxes.clone())
    }
}
