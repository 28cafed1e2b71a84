//! Property tests of the two-tier cache with real disk spill: contents
//! survive demotion/promotion bit for bit and keep their geometry,
//! capacity bounds hold in both tiers, and the dropped-log matches
//! reality. The disk tier is sized in field-only spill files
//! (`io::encoded_field_size`), what it writes and charges per item.

use std::path::PathBuf;
use std::sync::Arc;
use vira_dms::cache::{BlockDataCodec, DiskCache, MemoryCache, Tier, TieredCache};
use vira_dms::name::ItemId;
use vira_dms::policy::policy_by_name;
use vira_grid::block::BlockStepId;
use vira_grid::field::{BlockData, VectorField};
use vira_grid::io::encoded_field_size;
use vira_grid::synth::test_cube;
use vira_testkit::{check, Gen};

fn spill_dir(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("vira_tiered_fuzz_{}_{tag}", std::process::id()))
}

/// Builds a tiered cache whose L1 holds `l1_items` items of `item_bytes`
/// and whose L2 holds `l2_items` spill files of `spill_bytes`.
fn build(
    item_bytes: usize,
    spill_bytes: usize,
    l1_items: usize,
    l2_items: usize,
    tag: u64,
) -> TieredCache<BlockData, BlockDataCodec> {
    let l1 = MemoryCache::new(item_bytes * l1_items + 1, policy_by_name("lru").unwrap());
    let l2 = DiskCache::new(
        spill_dir(tag),
        spill_bytes * l2_items + 1,
        policy_by_name("lru").unwrap(),
        BlockDataCodec,
    )
    .unwrap();
    TieredCache::new(l1, Some(l2))
}

/// The bytes one spilled item of `item`'s dims writes and charges.
fn field_file_bytes(item: &BlockData) -> usize {
    encoded_field_size(item.dims()) as usize
}

/// Replays `seq` (time steps of block 0) against a cache of the given
/// tier sizes: whatever the cache returns equals what the dataset
/// generates, items never duplicate between tiers' accounting, and
/// dropped items are exactly those absent from both tiers.
fn assert_coherent_under_churn(seq: &[u32], l1_items: usize, l2_items: usize, tag: u64) {
    let ds = Arc::new(test_cube(4, 12));
    let sample = ds.generate(BlockStepId::new(0, 0));
    let item_bytes = sample.memory_bytes();
    let spilled = field_file_bytes(&sample);
    let mut cache = build(item_bytes, spilled, l1_items, l2_items, tag);
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
            assert!(l2.used_bytes() <= spilled * l2_items + 1);
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
        let mut cache = build(item_bytes, field_file_bytes(&original), 1, 3, tag);
        let id = ItemId(step as u64);
        cache.insert(id, Arc::new(original.clone())).unwrap();
        // Force demotion by inserting another item.
        cache
            .insert(
                ItemId(1000),
                Arc::new(ds.generate(BlockStepId::new(0, (step + 1) % 12))),
            )
            .unwrap();
        assert_eq!(cache.locate(id), Some(Tier::Disk));
        let (restored, tier) = cache.get(id).unwrap().expect("resident");
        assert_eq!(tier, Tier::Disk);
        assert_eq!(&*restored, &original);
        cache.clear().unwrap();
    });
}

/// The charge is the field file: a disk tier of exactly two of them
/// holds two items of the block, not one and not four.
#[test]
fn an_l2_of_two_field_files_holds_exactly_two_items() {
    let ds = test_cube(5, 4);
    let items: Vec<_> = (0..4)
        .map(|s| ds.generate(BlockStepId::new(0, s)))
        .collect();
    let spilled = field_file_bytes(&items[0]);
    assert_eq!(spilled, 36 + 5 * 5 * 5 * 24, "header and velocity");
    let dir = spill_dir(u64::MAX);
    let lru = policy_by_name("lru").unwrap();
    let mut l2 = DiskCache::new(dir.clone(), 2 * spilled, lru, BlockDataCodec).unwrap();
    for (n, item) in items.iter().enumerate() {
        let evicted = l2.insert(ItemId(n as u64), item).unwrap();
        assert_eq!(evicted.len(), usize::from(n >= 2), "item {n}");
    }
    assert_eq!(l2.len(), 2);
    assert_eq!(l2.used_bytes(), 2 * spilled);
    assert!(l2.contains(ItemId(2)) && l2.contains(ItemId(3)));
    let mut sizes: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .collect();
    sizes.dedup();
    assert_eq!(sizes, [spilled as u64], "every file holds one field");
}

/// A value whose every bit the spill must keep: signed zeros, NaNs with
/// payloads and either sign, infinities, subnormals, arbitrary bits.
fn any_f64(g: &mut Gen) -> f64 {
    let bits = match g.usize_in(0..6) {
        0 => 0x8000_0000_0000_0000,
        1 => 0x7ff0_0000_0000_0000 | g.u64_in(1..1 << 52) | (g.u64() & 1 << 63),
        2 => 0xfff0_0000_0000_0000,
        3 => g.u64_in(1..1 << 52),
        _ => g.u64(),
    };
    f64::from_bits(bits)
}

fn field_bits(u: &VectorField) -> Vec<u64> {
    u.xs.iter()
        .chain(&u.ys)
        .chain(&u.zs)
        .map(|v| v.to_bits())
        .collect()
}

/// A promoted item is the demoted one: velocity and time bit for bit
/// (`PartialEq` would let `-0.0 == 0.0` through and fail on any NaN), the
/// same id, and the very geometry object the demotion had.
#[test]
fn promotion_returns_the_demoted_item_bit_for_bit() {
    check(24, |g| {
        let ds = test_cube(g.usize_in(2..7), 4);
        let step = g.u32_in(0..4);
        let base = ds.generate(BlockStepId::new(0, step));
        let n = base.dims().n_points();
        let mut plane = || (0..n).map(|_| any_f64(g)).collect::<Vec<_>>();
        let (xs, ys, zs) = (plane(), plane(), plane());
        let velocity = VectorField::new(base.dims(), xs, ys, zs);
        let time = any_f64(g);
        let demoted = Arc::new(BlockData::new(
            base.id,
            Arc::clone(&base.grid),
            velocity,
            time,
        ));
        let mut cache = build(
            demoted.memory_bytes(),
            field_file_bytes(&demoted),
            1,
            1,
            g.u64(),
        );
        let id = ItemId(u64::from(step));
        cache.insert(id, Arc::clone(&demoted)).unwrap();
        let other = ds.generate(BlockStepId::new(0, (step + 1) % 4));
        cache.insert(ItemId(99), Arc::new(other)).unwrap();
        assert_eq!(cache.locate(id), Some(Tier::Disk));
        assert_eq!(cache.l2().unwrap().used_bytes(), field_file_bytes(&demoted));
        let (promoted, tier) = cache.get(id).unwrap().expect("resident");
        assert_eq!(tier, Tier::Disk);
        assert_eq!(promoted.id, demoted.id);
        assert_eq!(promoted.time.to_bits(), demoted.time.to_bits());
        assert_eq!(
            field_bits(&promoted.velocity),
            field_bits(&demoted.velocity)
        );
        assert!(
            Arc::ptr_eq(&promoted.grid, &demoted.grid),
            "geometry reattached, not decoded"
        );
        cache.clear().unwrap();
    });
}
