//! Property tests of the two-tier cache with real disk spill: contents
//! survive demotion/promotion, capacity bounds hold in both tiers, and
//! the dropped-log matches reality.

use std::path::PathBuf;
use std::sync::Arc;
use vira_dms::cache::{BlockDataCodec, DiskCache, MemoryCache, TieredCache};
use vira_dms::name::ItemId;
use vira_dms::policy::policy_by_name;
use vira_grid::block::BlockStepId;
use vira_grid::field::BlockData;
use vira_grid::synth::test_cube;
use vira_testkit::check;

fn spill_dir(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("vira_tiered_fuzz_{}_{tag}", std::process::id()))
}

/// Builds a tiered cache whose L1 holds `l1_items` items and whose L2
/// holds `l2_items` items of the given payload size.
fn build(
    item_bytes: usize,
    encoded_bytes: usize,
    l1_items: usize,
    l2_items: usize,
    tag: u64,
) -> TieredCache<BlockData> {
    let l1 = MemoryCache::new(item_bytes * l1_items + 1, policy_by_name("lru").unwrap());
    let l2 = DiskCache::new(
        spill_dir(tag),
        encoded_bytes * l2_items + 1,
        policy_by_name("lru").unwrap(),
        Arc::new(BlockDataCodec),
    )
    .unwrap();
    TieredCache::new(l1, Some(l2))
}

/// Replays `seq` (time steps of block 0) against a cache of the given
/// tier sizes: whatever the cache returns equals what the dataset
/// generates, items never duplicate between tiers' accounting, and
/// dropped items are exactly those absent from both tiers.
fn assert_coherent_under_churn(seq: &[u32], l1_items: usize, l2_items: usize, tag: u64) {
    let ds = Arc::new(test_cube(4, 12));
    let sample = ds.generate(BlockStepId::new(0, 0));
    let item_bytes = sample.memory_bytes();
    let encoded = vira_grid::io::encoded_size(sample.dims()) as usize;
    let mut cache = build(item_bytes, encoded, l1_items, l2_items, tag);
    let mut inserted = std::collections::HashSet::new();
    let mut dropped_total = std::collections::HashSet::new();
    for &step in seq {
        let id = ItemId(step as u64);
        match cache.get(id).unwrap() {
            Some((payload, _tier)) => {
                // Cached payload must be the exact item (the disk
                // tier round-trips through the binary codec).
                assert_eq!(payload.id, BlockStepId::new(0, step));
            }
            None => {
                let payload = Arc::new(ds.generate(BlockStepId::new(0, step)));
                cache.insert(id, payload).unwrap();
                inserted.insert(id);
                for d in cache.drain_dropped() {
                    dropped_total.insert(d);
                }
                // Re-inserting a previously dropped item makes it
                // resident again.
                dropped_total.remove(&id);
            }
        }
        // Capacity invariants.
        assert!(cache.l1().used_bytes() <= item_bytes * l1_items + 1);
        if let Some(l2) = cache.l2() {
            assert!(l2.used_bytes() <= encoded * l2_items + 1);
        }
    }
    for d in cache.drain_dropped() {
        dropped_total.insert(d);
    }
    // Every inserted item is either locatable or was reported
    // dropped.
    for id in inserted {
        let located = cache.locate(id).is_some();
        let dropped = dropped_total.contains(&id);
        assert!(
            located ^ dropped,
            "{id:?}: located={located} dropped={dropped}"
        );
    }
    cache.clear().unwrap();
}

/// Arbitrary access sequences over arbitrary tier sizes.
#[test]
fn tiered_cache_is_coherent_under_churn() {
    check(16, |g| {
        let seq = g.vec(1..60, |g| g.u32_in(0..12));
        let (l1_items, l2_items) = (g.usize_in(1..4), g.usize_in(1..4));
        assert_coherent_under_churn(&seq, l1_items, l2_items, g.u64());
    });
}

/// The one case the earlier property-test runs had saved as a
/// regression: a promotion from a one-item disk tier into a one-item
/// memory tier, whose demotion evicts nothing else.
#[test]
fn one_item_tiers_promote_then_demote() {
    assert_coherent_under_churn(&[4, 0, 5, 4], 1, 1, 85365135471293);
}

/// Promotion from disk keeps the payload byte-identical.
#[test]
fn disk_roundtrip_is_lossless() {
    check(16, |g| {
        let step = g.u32_in(0..12);
        let tag = g.u64();
        let ds = Arc::new(test_cube(5, 12));
        let original = ds.generate(BlockStepId::new(0, step));
        let item_bytes = original.memory_bytes();
        let encoded = vira_grid::io::encoded_size(original.dims()) as usize;
        let mut cache = build(item_bytes, encoded, 1, 3, tag);
        let id = ItemId(step as u64);
        cache.insert(id, Arc::new(original.clone())).unwrap();
        // Force demotion by inserting another item.
        cache
            .insert(
                ItemId(1000),
                Arc::new(ds.generate(BlockStepId::new(0, (step + 1) % 12))),
            )
            .unwrap();
        assert_eq!(cache.locate(id), Some(vira_dms::cache::Tier::Disk));
        let (restored, tier) = cache.get(id).unwrap().expect("resident");
        assert_eq!(tier, vira_dms::cache::Tier::Disk);
        assert_eq!(&*restored, &original);
        cache.clear().unwrap();
    });
}
