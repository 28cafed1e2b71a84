//! Caching of **derived** data items.
//!
//! The DMS naming scheme deliberately distinguishes items by type and
//! parameters, not just by source file (§4): *"distinct data items may
//! be derived from the same file"*. The λ₂ workflow is the motivating
//! case — the scalar field is expensive to compute but independent of
//! the threshold, while the explorative loop (§1.1) keeps re-extracting
//! with new thresholds: *"in practice a value about zero is used … this
//! accurate adjustment depends on the data set."*
//!
//! [`DerivedFieldCache`] memoizes derived scalar fields per worker node,
//! keyed by the DMS item identity of `(dataset, type, block, step)`,
//! with LRU eviction under a byte budget. `VortexDataMan` uses it when
//! the `cache_fields` parameter is set; the `ablation_derived` bench
//! quantifies the effect on a threshold sweep.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use vira_extract::bricktree::BrickTree;
use vira_grid::block::BlockStepId;
use vira_grid::field::ScalarField;

/// Key of a derived field: which dataset, which derivation, which item.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    dataset: String,
    kind: &'static str,
    id: BlockStepId,
}

struct Entry {
    field: Arc<ScalarField>,
    /// Min/max bricktree over `field`, built lazily on first pruning
    /// request. Its footprint (< 5% of the field, see
    /// `BrickTree::memory_bytes`) is not charged to the byte budget.
    tree: Option<Arc<BrickTree>>,
    /// Whole-block min/max of `field`, memoized on first request so a
    /// threshold sweep's block-level skip test never rescans the field.
    /// Harvested for free from the bricktree root when one exists.
    range: Option<(f64, f64)>,
    bytes: usize,
    last_use: u64,
}

/// A byte-bounded LRU cache of derived scalar fields (one per worker
/// node, shared across jobs like the data proxy's caches).
pub struct DerivedFieldCache {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    used_bytes: usize,
    capacity_bytes: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl DerivedFieldCache {
    pub fn new(capacity_bytes: usize) -> DerivedFieldCache {
        DerivedFieldCache {
            inner: Mutex::new(Inner {
                capacity_bytes,
                ..Inner::default()
            }),
        }
    }

    /// Returns the cached field or computes and caches it.
    pub fn get_or_compute(
        &self,
        dataset: &str,
        kind: &'static str,
        id: BlockStepId,
        compute: impl FnOnce() -> ScalarField,
    ) -> Arc<ScalarField> {
        let key = Key {
            dataset: dataset.to_string(),
            kind,
            id,
        };
        {
            let mut g = self.inner.lock().unwrap();
            g.stamp += 1;
            let stamp = g.stamp;
            if g.map.contains_key(&key) {
                g.hits += 1;
                let e = g.map.get_mut(&key).expect("just checked");
                e.last_use = stamp;
                return e.field.clone();
            }
            g.misses += 1;
        }
        // Compute outside the lock: other items stay retrievable while
        // this (potentially long) derivation runs.
        let field = Arc::new(compute());
        let bytes = field.values.len() * std::mem::size_of::<f64>();
        let mut g = self.inner.lock().unwrap();
        g.stamp += 1;
        let stamp = g.stamp;
        // Another thread may have computed the same key concurrently:
        // keep the existing entry, drop our duplicate.
        if g.map.contains_key(&key) {
            let e = g.map.get_mut(&key).expect("just checked");
            e.last_use = stamp;
            return e.field.clone();
        }
        while g.used_bytes + bytes > g.capacity_bytes && !g.map.is_empty() {
            let victim = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
                .expect("non-empty map");
            if let Some(e) = g.map.remove(&victim) {
                g.used_bytes -= e.bytes;
            }
        }
        g.used_bytes += bytes;
        g.map.insert(
            key,
            Entry {
                field: field.clone(),
                tree: None,
                range: None,
                bytes,
                last_use: stamp,
            },
        );
        field
    }

    /// Like [`get_or_compute`](Self::get_or_compute), but also returns
    /// the field's min/max bricktree, building and memoizing it on first
    /// request so a threshold sweep pays the tree construction once.
    pub fn get_or_compute_with_tree(
        &self,
        dataset: &str,
        kind: &'static str,
        id: BlockStepId,
        compute: impl FnOnce() -> ScalarField,
    ) -> (Arc<ScalarField>, Arc<BrickTree>) {
        let field = self.get_or_compute(dataset, kind, id, compute);
        let key = Key {
            dataset: dataset.to_string(),
            kind,
            id,
        };
        {
            let mut g = self.inner.lock().unwrap();
            if let Some(e) = g.map.get_mut(&key) {
                if let Some(t) = &e.tree {
                    return (field, t.clone());
                }
            }
        }
        // Build outside the lock (one pass over the field). The field for
        // a given key is deterministic, so even if the entry was evicted
        // and recomputed concurrently the tree stays valid for `field`.
        let tree = Arc::new(BrickTree::build(&field));
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.map.get_mut(&key) {
            let t = e.tree.get_or_insert_with(|| tree.clone());
            return (field, t.clone());
        }
        (field, tree)
    }

    /// Bricktree for an already-cached field, or `None` when the field is
    /// not cached. Never computes a field: `StreamedVortex` uses this to
    /// reuse a memoized field and derive its own otherwise, without
    /// filling the cache.
    pub fn peek_tree(
        &self,
        dataset: &str,
        kind: &'static str,
        id: BlockStepId,
    ) -> Option<(Arc<ScalarField>, Arc<BrickTree>)> {
        let key = Key {
            dataset: dataset.to_string(),
            kind,
            id,
        };
        let field = {
            let mut g = self.inner.lock().unwrap();
            g.stamp += 1;
            let stamp = g.stamp;
            let e = g.map.get_mut(&key)?;
            e.last_use = stamp;
            if let Some(t) = &e.tree {
                return Some((e.field.clone(), t.clone()));
            }
            e.field.clone()
        };
        let tree = Arc::new(BrickTree::build(&field));
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.map.get_mut(&key) {
            let t = e.tree.get_or_insert_with(|| tree.clone()).clone();
            return Some((field, t));
        }
        Some((field, tree))
    }

    /// Whole-block min/max of an already-cached field, or `None` when
    /// the field is not cached. Memoized next to the bricktree: a
    /// memoized bricktree's root range is reused for free, otherwise one
    /// lane-parallel scan ([`ScalarField::range`]) runs and its result
    /// sticks to the entry. Never computes a field — callers use this
    /// for the cheap block-level "can this threshold produce geometry at
    /// all?" test and fall back to extraction when unknown.
    pub fn range_of(
        &self,
        dataset: &str,
        kind: &'static str,
        id: BlockStepId,
    ) -> Option<(f64, f64)> {
        let key = Key {
            dataset: dataset.to_string(),
            kind,
            id,
        };
        let field = {
            let mut g = self.inner.lock().unwrap();
            g.stamp += 1;
            let stamp = g.stamp;
            let e = g.map.get_mut(&key)?;
            e.last_use = stamp;
            if let Some(r) = e.range {
                return Some(r);
            }
            if let Some(t) = &e.tree {
                let r = t.root_range();
                e.range = Some(r);
                return Some(r);
            }
            e.field.clone()
        };
        // Scan outside the lock; a field for a given key is
        // deterministic, so a concurrent scan of the same key lands on
        // the same value.
        let r = field.range()?;
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.map.get_mut(&key) {
            e.range.get_or_insert(r);
        }
        Some(r)
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        let g = self.inner.lock().unwrap();
        (g.hits, g.misses)
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn used_bytes(&self) -> usize {
        self.inner.lock().unwrap().used_bytes
    }

    /// Drops every cached field.
    pub fn clear(&self) {
        let mut g = self.inner.lock().unwrap();
        g.map.clear();
        g.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockDims;

    fn field(v: f64) -> ScalarField {
        ScalarField::from_fn(BlockDims::new(4, 4, 4), |_, _, _| v)
    }

    fn bs(b: u32, s: u32) -> BlockStepId {
        BlockStepId::new(b, s)
    }

    #[test]
    fn second_lookup_hits_without_recompute() {
        let cache = DerivedFieldCache::new(1 << 20);
        let mut computes = 0;
        for _ in 0..3 {
            let f = cache.get_or_compute("Engine", "lambda2", bs(0, 0), || {
                computes += 1;
                field(1.0)
            });
            assert_eq!(f.values[0], 1.0);
        }
        assert_eq!(computes, 1);
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn distinct_items_do_not_collide() {
        let cache = DerivedFieldCache::new(1 << 20);
        let a = cache.get_or_compute("Engine", "lambda2", bs(0, 0), || field(1.0));
        let b = cache.get_or_compute("Engine", "lambda2", bs(1, 0), || field(2.0));
        let c = cache.get_or_compute("Engine", "speed", bs(0, 0), || field(3.0));
        let d = cache.get_or_compute("Propfan", "lambda2", bs(0, 0), || field(4.0));
        assert_eq!(
            (a.values[0], b.values[0], c.values[0], d.values[0]),
            (1.0, 2.0, 3.0, 4.0)
        );
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        // Each 4³ field is 512 bytes; capacity for two.
        let cache = DerivedFieldCache::new(1100);
        cache.get_or_compute("E", "f", bs(0, 0), || field(0.0));
        cache.get_or_compute("E", "f", bs(1, 0), || field(1.0));
        // Touch item 0 so item 1 is the LRU victim.
        cache.get_or_compute("E", "f", bs(0, 0), || unreachable!("cached"));
        cache.get_or_compute("E", "f", bs(2, 0), || field(2.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.used_bytes() <= 1100);
        // Item 1 was evicted: recompute happens.
        let mut recomputed = false;
        cache.get_or_compute("E", "f", bs(1, 0), || {
            recomputed = true;
            field(1.0)
        });
        assert!(recomputed);
    }

    #[test]
    fn tree_is_memoized_alongside_the_field() {
        let cache = DerivedFieldCache::new(1 << 20);
        let (f, t1) = cache.get_or_compute_with_tree("E", "f", bs(0, 0), || field(2.0));
        assert_eq!(t1.root_range(), (2.0, 2.0));
        assert!(t1.matches(f.dims));
        let (_, t2) = cache.get_or_compute_with_tree("E", "f", bs(0, 0), || unreachable!());
        assert!(Arc::ptr_eq(&t1, &t2), "second lookup reuses the tree");
        // The tree does not count against the byte budget.
        assert_eq!(cache.used_bytes(), 4 * 4 * 4 * 8);
    }

    #[test]
    fn range_is_memoized_and_harvested_from_the_tree() {
        let cache = DerivedFieldCache::new(1 << 20);
        assert!(
            cache.range_of("E", "f", bs(0, 0)).is_none(),
            "range_of never computes a field"
        );
        cache.get_or_compute("E", "f", bs(0, 0), || field(2.5));
        assert_eq!(cache.range_of("E", "f", bs(0, 0)), Some((2.5, 2.5)));
        // Asking again serves the memoized value.
        assert_eq!(cache.range_of("E", "f", bs(0, 0)), Some((2.5, 2.5)));
        // With a bricktree present its root range is harvested for free.
        cache.get_or_compute_with_tree("E", "f", bs(1, 0), || field(7.0));
        assert_eq!(cache.range_of("E", "f", bs(1, 0)), Some((7.0, 7.0)));
    }

    #[test]
    fn peek_tree_never_computes_a_field() {
        let cache = DerivedFieldCache::new(1 << 20);
        assert!(cache.peek_tree("E", "f", bs(0, 0)).is_none());
        cache.get_or_compute("E", "f", bs(0, 0), || field(3.0));
        let (f, t) = cache
            .peek_tree("E", "f", bs(0, 0))
            .expect("field is cached");
        assert_eq!(f.values[0], 3.0);
        assert_eq!(t.root_range(), (3.0, 3.0));
        // peek builds and memoizes the tree; the with_tree path reuses it.
        let (_, t2) = cache.get_or_compute_with_tree("E", "f", bs(0, 0), || unreachable!());
        assert!(Arc::ptr_eq(&t, &t2));
    }

    #[test]
    fn eviction_drops_the_tree_with_its_field() {
        let cache = DerivedFieldCache::new(1100);
        cache.get_or_compute_with_tree("E", "f", bs(0, 0), || field(0.0));
        cache.get_or_compute("E", "f", bs(1, 0), || field(1.0));
        cache.get_or_compute("E", "f", bs(2, 0), || field(2.0));
        // Item 0 was the LRU victim: its tree is gone too.
        assert!(cache.peek_tree("E", "f", bs(0, 0)).is_none());
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = DerivedFieldCache::new(1 << 20);
        cache.get_or_compute("E", "f", bs(0, 0), || field(0.0));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(DerivedFieldCache::new(1 << 20));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    let f = cache.get_or_compute("E", "f", bs(i % 8, 0), || field((i % 8) as f64));
                    assert_eq!(f.values[0], (i % 8) as f64, "thread {t}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 200);
        assert!(misses >= 8);
    }
}
