//! Data sources: where item payloads actually come from.
//!
//! The cost model decides *how long* a load takes; a [`DataSource`] decides
//! *what* is loaded. Two sources are provided: materialization from a
//! synthetic analytic dataset (the common case in tests and benches) and
//! real file reads from an on-disk dataset written by `vira_grid::io`.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};
use vira_grid::block::BlockStepId;
use vira_grid::field::BlockData;
use vira_grid::io::{DiskDataset, FormatError};
use vira_grid::synth::{DatasetSpec, SyntheticDataset};

/// Errors surfaced by storage operations.
#[derive(Debug)]
pub enum StorageError {
    /// The requested item does not exist in the dataset.
    OutOfRange(BlockStepId),
    /// Reading or decoding an on-disk item failed.
    Format(FormatError),
    /// The device refused the request (e.g. simulated failure injection).
    Unavailable(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfRange(id) => {
                write!(
                    f,
                    "item (block {}, step {}) out of range",
                    id.block, id.step
                )
            }
            StorageError::Format(e) => write!(f, "format error: {e}"),
            StorageError::Unavailable(s) => write!(f, "storage unavailable: {s}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<FormatError> for StorageError {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::OutOfRange(id) => StorageError::OutOfRange(id),
            other => StorageError::Format(other),
        }
    }
}

/// Provider of item payloads for one dataset.
pub trait DataSource: Send + Sync {
    /// The dataset this source serves.
    fn spec(&self) -> &DatasetSpec;

    /// Produces the payload of one item.
    fn fetch(&self, id: BlockStepId) -> Result<Arc<BlockData>, StorageError>;

    /// Per-block bounding boxes (geometry is static across time), when
    /// the source can provide them without loading items. Used for
    /// view-dependent block ordering and block topology.
    fn block_bboxes(&self) -> Option<Vec<vira_grid::math::Aabb>> {
        None
    }
}

/// Materializes items by evaluating a synthetic dataset's analytic flow.
pub struct SynthSource {
    ds: Arc<SyntheticDataset>,
}

impl SynthSource {
    pub fn new(ds: Arc<SyntheticDataset>) -> Self {
        SynthSource { ds }
    }

    pub fn dataset(&self) -> &Arc<SyntheticDataset> {
        &self.ds
    }
}

impl DataSource for SynthSource {
    fn spec(&self) -> &DatasetSpec {
        &self.ds.spec
    }

    fn fetch(&self, id: BlockStepId) -> Result<Arc<BlockData>, StorageError> {
        if id.block >= self.ds.spec.n_blocks || id.step >= self.ds.spec.n_steps {
            return Err(StorageError::OutOfRange(id));
        }
        Ok(Arc::new(self.ds.generate(id)))
    }

    fn block_bboxes(&self) -> Option<Vec<vira_grid::math::Aabb>> {
        Some(self.ds.blocks().iter().map(|b| *b.bbox()).collect())
    }
}

/// Reads items from a dataset directory on the real filesystem.
pub struct DiskSource {
    ds: DiskDataset,
}

impl DiskSource {
    pub fn new(ds: DiskDataset) -> Self {
        DiskSource { ds }
    }
}

impl DataSource for DiskSource {
    fn spec(&self) -> &DatasetSpec {
        self.ds.spec()
    }

    fn fetch(&self, id: BlockStepId) -> Result<Arc<BlockData>, StorageError> {
        Ok(Arc::new(self.ds.load(id)?))
    }
}

/// A memoizing wrapper around [`SynthSource`]: each item is materialized
/// once and served as a shared handle afterwards. Benchmarks use this so
/// repeated "reads" of the same item (whose *modeled* cost the cost model
/// charges anyway) do not re-pay the real generation cost and distort the
/// dilated timing.
pub struct CachedSynthSource {
    inner: SynthSource,
    memo: RwLock<HashMap<BlockStepId, Arc<BlockData>>>,
}

impl CachedSynthSource {
    pub fn new(ds: Arc<SyntheticDataset>) -> Self {
        CachedSynthSource {
            inner: SynthSource::new(ds),
            memo: RwLock::new(HashMap::new()),
        }
    }

    /// Materializes every item of the dataset up front (useful before a
    /// timing-sensitive experiment).
    pub fn prewarm(&self) {
        let spec = self.inner.spec().clone();
        for id in spec.items_in_file_order() {
            let _ = self.fetch(id);
        }
    }

    /// Number of memoized items.
    pub fn memoized(&self) -> usize {
        self.memo.read().unwrap().len()
    }
}

impl DataSource for CachedSynthSource {
    fn spec(&self) -> &DatasetSpec {
        self.inner.spec()
    }

    fn fetch(&self, id: BlockStepId) -> Result<Arc<BlockData>, StorageError> {
        if let Some(hit) = self.memo.read().unwrap().get(&id) {
            return Ok(hit.clone());
        }
        let item = self.inner.fetch(id)?;
        self.memo.write().unwrap().insert(id, item.clone());
        Ok(item)
    }

    fn block_bboxes(&self) -> Option<Vec<vira_grid::math::Aabb>> {
        self.inner.block_bboxes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::synth::test_cube;

    #[test]
    fn synth_source_fetches_items() {
        let src = SynthSource::new(Arc::new(test_cube(4, 2)));
        let item = src.fetch(BlockStepId::new(0, 1)).unwrap();
        assert_eq!(item.id, BlockStepId::new(0, 1));
    }

    #[test]
    fn synth_source_rejects_out_of_range() {
        let src = SynthSource::new(Arc::new(test_cube(4, 2)));
        assert!(matches!(
            src.fetch(BlockStepId::new(1, 0)),
            Err(StorageError::OutOfRange(_))
        ));
        assert!(matches!(
            src.fetch(BlockStepId::new(0, 2)),
            Err(StorageError::OutOfRange(_))
        ));
    }

    #[test]
    fn disk_source_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vira_storage_src_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = test_cube(4, 2);
        let disk = DiskDataset::write_full(&ds, &dir).unwrap();
        let src = DiskSource::new(disk);
        let item = src.fetch(BlockStepId::new(0, 0)).unwrap();
        assert_eq!(*item, ds.generate(BlockStepId::new(0, 0)));
        assert!(matches!(
            src.fetch(BlockStepId::new(9, 0)),
            Err(StorageError::OutOfRange(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
