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
//! [`DerivedFieldCache`] memoizes derived scalar fields per worker node
//! as DMS items: each field is named [`ItemName::derived`]`(dataset,
//! kind, block-step)`, identified by the name server, and held in the
//! DMS's own byte-budgeted [`MemoryCache`] under LRU replacement. A
//! [`DerivedField`] carries what pruning needs of its field — the
//! bricktree and the whole-block range — built once, on first use.
//! `VortexDataMan` uses the cache when the `cache_fields` parameter is
//! set; the `ablation_derived` bench quantifies the effect on a
//! threshold sweep.

use std::sync::{Arc, Mutex, OnceLock};
use vira_dms::{CachePayload, ItemName, LruPolicy, MemoryCache, NameServer};
use vira_extract::bricktree::BrickTree;
use vira_grid::block::BlockStepId;
use vira_grid::field::ScalarField;

/// A memoized derived field with its pruning aids.
pub struct DerivedField {
    pub field: ScalarField,
    tree: OnceLock<BrickTree>,
    range: OnceLock<Option<(f64, f64)>>,
}

impl DerivedField {
    /// The field's min/max bricktree, built on first use so a threshold
    /// sweep pays its construction once.
    pub fn tree(&self) -> &BrickTree {
        self.tree.get_or_init(|| BrickTree::build(&self.field))
    }

    /// Whole-block min/max of the field, memoized so a sweep's
    /// block-level skip test never rescans it: the bricktree's root range
    /// when the tree is built, one lane-parallel scan
    /// ([`ScalarField::range`]) otherwise.
    pub fn range(&self) -> Option<(f64, f64)> {
        *self.range.get_or_init(|| match self.tree.get() {
            Some(tree) => Some(tree.root_range()),
            None => self.field.range(),
        })
    }
}

/// The budget charges the field alone: its bricktree is < 5 % of it
/// (see `BrickTree::memory_bytes`).
impl CachePayload for DerivedField {
    fn payload_bytes(&self) -> usize {
        self.field.values.len() * std::mem::size_of::<f64>()
    }
}

/// A byte-bounded LRU cache of derived scalar fields (one per worker
/// node, shared across jobs like the data proxy's caches).
pub struct DerivedFieldCache {
    names: Arc<NameServer>,
    fields: Mutex<MemoryCache<DerivedField>>,
}

impl DerivedFieldCache {
    pub fn new(names: Arc<NameServer>, capacity_bytes: usize) -> DerivedFieldCache {
        DerivedFieldCache {
            names,
            fields: Mutex::new(MemoryCache::new(capacity_bytes, Box::new(LruPolicy::new()))),
        }
    }

    /// The cached field of `kind` for `id`, if any. Never computes a
    /// field and never registers a name.
    pub fn get(&self, dataset: &str, kind: &str, id: BlockStepId) -> Option<Arc<DerivedField>> {
        let item = self
            .names
            .lookup(&ItemName::derived(dataset, kind, id, vec![]))?;
        self.fields.lock().unwrap().get(item)
    }

    /// Returns the cached field or computes and caches it.
    pub fn get_or_compute(
        &self,
        dataset: &str,
        kind: &str,
        id: BlockStepId,
        compute: impl FnOnce() -> ScalarField,
    ) -> Arc<DerivedField> {
        let item = self
            .names
            .register(&ItemName::derived(dataset, kind, id, vec![]));
        if let Some(hit) = self.fields.lock().unwrap().get(item) {
            return hit;
        }
        // Compute outside the lock: other items stay retrievable while
        // this (potentially long) derivation runs.
        let fresh = Arc::new(DerivedField {
            field: compute(),
            tree: OnceLock::new(),
            range: OnceLock::new(),
        });
        let mut fields = self.fields.lock().unwrap();
        // Another thread may have computed the same item concurrently:
        // keep the existing entry, drop our duplicate.
        match fields.get(item) {
            Some(hit) => hit,
            None => {
                fields.insert(item, fresh.clone());
                fresh
            }
        }
    }

    /// Drops every cached field.
    pub fn clear(&self) {
        self.fields.lock().unwrap().clear();
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

    fn cache(capacity_bytes: usize) -> DerivedFieldCache {
        DerivedFieldCache::new(NameServer::new(), capacity_bytes)
    }

    /// `(resident items, charged bytes)` of the inner cache.
    fn usage(cache: &DerivedFieldCache) -> (usize, usize) {
        let fields = cache.fields.lock().unwrap();
        (fields.len(), fields.used_bytes())
    }

    #[test]
    fn second_lookup_hits_without_recompute() {
        let cache = cache(1 << 20);
        let mut computes = 0;
        let first = cache.get_or_compute("Engine", "lambda2", bs(0, 0), || {
            computes += 1;
            field(1.0)
        });
        for _ in 0..2 {
            let f = cache.get_or_compute("Engine", "lambda2", bs(0, 0), || {
                computes += 1;
                field(1.0)
            });
            assert!(Arc::ptr_eq(&first, &f));
        }
        assert_eq!(first.field.values[0], 1.0);
        assert_eq!(computes, 1);
    }

    #[test]
    fn distinct_items_do_not_collide() {
        let cache = cache(1 << 20);
        let a = cache.get_or_compute("Engine", "lambda2", bs(0, 0), || field(1.0));
        let b = cache.get_or_compute("Engine", "lambda2", bs(1, 0), || field(2.0));
        let c = cache.get_or_compute("Engine", "speed", bs(0, 0), || field(3.0));
        let d = cache.get_or_compute("Propfan", "lambda2", bs(0, 0), || field(4.0));
        let first = |f: &DerivedField| f.field.values[0];
        assert_eq!(
            (first(&a), first(&b), first(&c), first(&d)),
            (1.0, 2.0, 3.0, 4.0)
        );
        assert_eq!(usage(&cache).0, 4);
        // Each field is a derived item of the name server, apart from the
        // raw block-step item of the same address.
        let name = ItemName::derived("Engine", "speed", bs(0, 0), vec![]);
        assert!(cache.names.lookup(&name).is_some());
        assert!(cache
            .names
            .lookup(&ItemName::block_step("Engine", bs(0, 0)))
            .is_none());
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        // Each 4³ field is 512 bytes; capacity for two.
        let cache = cache(1100);
        cache.get_or_compute("E", "f", bs(0, 0), || field(0.0));
        cache.get_or_compute("E", "f", bs(1, 0), || field(1.0));
        // Touch item 0 so item 1 is the LRU victim.
        cache.get_or_compute("E", "f", bs(0, 0), || unreachable!("cached"));
        cache.get_or_compute("E", "f", bs(2, 0), || field(2.0));
        let (len, used) = usage(&cache);
        assert_eq!(len, 2);
        assert!(used <= 1100);
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
        let cache = cache(1 << 20);
        let f = cache.get_or_compute("E", "f", bs(0, 0), || field(2.0));
        let t1 = f.tree();
        assert_eq!(t1.root_range(), (2.0, 2.0));
        assert!(t1.matches(f.field.dims));
        let again = cache.get_or_compute("E", "f", bs(0, 0), || unreachable!());
        assert!(
            std::ptr::eq(t1, again.tree()),
            "second lookup reuses the tree"
        );
        // The tree does not count against the byte budget.
        assert_eq!(usage(&cache).1, 4 * 4 * 4 * 8);
    }

    #[test]
    fn range_is_memoized_and_harvested_from_the_tree() {
        let cache = cache(1 << 20);
        let f = cache.get_or_compute("E", "f", bs(0, 0), || field(2.5));
        assert_eq!(f.range(), Some((2.5, 2.5)));
        // The scan did not build the tree; asking again serves the
        // memoized value.
        assert!(f.tree.get().is_none());
        assert_eq!(f.range(), Some((2.5, 2.5)));
        // With a bricktree present its root range is harvested for free.
        let g = cache.get_or_compute("E", "f", bs(1, 0), || field(7.0));
        g.tree();
        assert_eq!(g.range(), Some((7.0, 7.0)));
    }

    #[test]
    fn get_never_computes_a_field() {
        let cache = cache(1 << 20);
        assert!(cache.get("E", "f", bs(0, 0)).is_none());
        assert!(cache.names.is_empty(), "a peek registers no name");
        let f = cache.get_or_compute("E", "f", bs(0, 0), || field(3.0));
        let peeked = cache.get("E", "f", bs(0, 0)).expect("field is cached");
        assert!(Arc::ptr_eq(&f, &peeked));
        assert_eq!(peeked.tree().root_range(), (3.0, 3.0));
        // The peek built and memoized the tree for every holder.
        assert!(std::ptr::eq(peeked.tree(), f.tree()));
    }

    #[test]
    fn eviction_drops_the_tree_with_its_field() {
        let cache = cache(1100);
        cache
            .get_or_compute("E", "f", bs(0, 0), || field(0.0))
            .tree();
        cache.get_or_compute("E", "f", bs(1, 0), || field(1.0));
        cache.get_or_compute("E", "f", bs(2, 0), || field(2.0));
        // Item 0 was the LRU victim: its tree is gone too.
        assert!(cache.get("E", "f", bs(0, 0)).is_none());
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = cache(1 << 20);
        cache.get_or_compute("E", "f", bs(0, 0), || field(0.0));
        cache.clear();
        assert_eq!(usage(&cache), (0, 0));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(cache(1 << 20));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    let f = cache.get_or_compute("E", "f", bs(i % 8, 0), || field((i % 8) as f64));
                    assert_eq!(f.field.values[0], (i % 8) as f64, "thread {t}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(usage(&cache), (8, 8 * 4 * 4 * 4 * 8));
    }
}
