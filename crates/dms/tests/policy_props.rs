//! Property tests of the replacement policies: structural invariants
//! that must hold for LRU, LFU and FBR under arbitrary access patterns.

use vira_dms::name::ItemId;
use vira_dms::policy::{policy_by_name, FbrPolicy, ReplacementPolicy};
use vira_testkit::{check, Gen, DEFAULT_CASES};

fn apply_ops(policy: &mut dyn ReplacementPolicy, ops: &[(u8, u64)]) -> Vec<ItemId> {
    // Mirror of residency, maintained like a capacity-8 cache would.
    let mut resident: Vec<ItemId> = Vec::new();
    for &(op, raw) in ops {
        let id = ItemId(raw % 24);
        match op % 3 {
            0 => {
                // access-or-insert with eviction at capacity 8
                if resident.contains(&id) {
                    policy.on_access(id);
                } else {
                    while resident.len() >= 8 {
                        let victim = policy.evict_candidate().expect("non-empty");
                        policy.on_remove(victim);
                        resident.retain(|&r| r != victim);
                    }
                    policy.on_insert(id);
                    resident.push(id);
                }
            }
            1 => {
                if resident.contains(&id) {
                    policy.on_access(id);
                }
            }
            _ => {
                if resident.contains(&id) {
                    policy.on_remove(id);
                    resident.retain(|&r| r != id);
                }
            }
        }
    }
    resident
}

const POLICIES: [&str; 3] = ["lru", "lfu", "fbr"];

fn arb_ops(g: &mut Gen, min_len: usize) -> Vec<(u8, u64)> {
    g.vec(min_len..300, |g| (g.u64() as u8, g.u64()))
}

/// FBR with arbitrary section fractions, driven by arbitrary operations:
/// the policy and the resident set it should be tracking.
fn arb_fbr(g: &mut Gen, min_ops: usize) -> (f64, FbrPolicy, Vec<ItemId>) {
    let new_frac = g.f64_in(0.05, 0.45);
    let old_frac = g.f64_in(0.1, 0.5);
    let mut fbr = FbrPolicy::with_sections(new_frac, old_frac);
    let resident = apply_ops(&mut fbr, &arb_ops(g, min_ops));
    (new_frac, fbr, resident)
}

/// The policy's tracked set always equals the true resident set, and
/// every eviction candidate is actually resident.
#[test]
fn policies_track_residency_exactly() {
    check(DEFAULT_CASES, |g| {
        let name = POLICIES[g.usize_in(0..3)];
        let ops = arb_ops(g, 1);
        let mut policy = policy_by_name(name).unwrap();
        let resident = apply_ops(policy.as_mut(), &ops);
        assert_eq!(policy.len(), resident.len(), "{name}");
        if let Some(victim) = policy.evict_candidate() {
            assert!(
                resident.contains(&victim),
                "{name}: victim {victim:?} not resident"
            );
        } else {
            assert!(resident.is_empty());
        }
    });
}

/// Draining a policy via its own candidates empties it without
/// repeats.
#[test]
fn eviction_drain_visits_each_item_once() {
    check(DEFAULT_CASES, |g| {
        let name = POLICIES[g.usize_in(0..3)];
        let ids: std::collections::HashSet<u64> =
            g.vec(1..32, |g| g.u64_in(0..64)).into_iter().collect();
        let mut policy = policy_by_name(name).unwrap();
        for &id in &ids {
            policy.on_insert(ItemId(id));
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(victim) = policy.evict_candidate() {
            assert!(seen.insert(victim), "{name}: repeated victim {victim:?}");
            policy.on_remove(victim);
        }
        assert_eq!(seen.len(), ids.len());
        assert!(policy.is_empty());
    });
}

/// LRU evicts in exact recency order when no re-accesses happen.
#[test]
fn lru_is_fifo_without_reaccess() {
    check(DEFAULT_CASES, |g| {
        let ids = g.vec(1..40, |g| g.u64_in(0..1000));
        let mut distinct = Vec::new();
        for &id in &ids {
            if !distinct.contains(&id) {
                distinct.push(id);
            }
        }
        let mut policy = policy_by_name("lru").unwrap();
        for &id in &distinct {
            policy.on_insert(ItemId(id));
        }
        for &expected in &distinct {
            let victim = policy.evict_candidate().unwrap();
            assert_eq!(victim, ItemId(expected));
            policy.on_remove(victim);
        }
    });
}

/// FBR section geometry: the new section is never empty (the
/// `.max(1)` bump holds even for an empty or 1-item stack), the old
/// section start stays within bounds, and whenever the bump is not
/// in play (`floor(len · new_frac) ≥ 1`) the new and old sections
/// are disjoint — i.e. new/middle/old partition the stack. Overlap
/// is possible *only* at the documented edges: stacks of ≤ 1 item,
/// or stacks small enough that the bump inflates the new section.
#[test]
fn fbr_sections_partition_the_stack() {
    check(DEFAULT_CASES, |g| {
        let (new_frac, fbr, _) = arb_fbr(g, 0);
        let len = fbr.len();
        let new_len = fbr.new_section_len();
        let old_start = fbr.old_section_start();
        assert!(new_len >= 1, "new section may never be empty (len={len})");
        assert!(old_start <= len);
        let bumped = (len as f64 * new_frac).floor() as usize == 0;
        if len >= 2 && !bumped {
            assert!(
                new_len <= old_start,
                "new [0,{new_len}) and old [{old_start},{len}) overlap without the max(1) edge"
            );
        }
    });
}

/// FBR evictions come from the old section only: the candidate's
/// stack depth is always ≥ `old_section_start`.
#[test]
fn fbr_evicts_only_from_old_section() {
    check(DEFAULT_CASES, |g| {
        let (_, mut fbr, resident) = arb_fbr(g, 1);
        if let Some(victim) = fbr.evict_candidate() {
            assert!(resident.contains(&victim));
            let depth = fbr.stack_depth(victim).expect("victim is tracked");
            assert!(
                depth >= fbr.old_section_start(),
                "victim at depth {depth} but old section starts at {}",
                fbr.old_section_start()
            );
        } else {
            assert!(resident.is_empty());
        }
    });
}

/// FBR freezes reference counts inside the new section ("factoring
/// out locality"): a hit on a new-section item leaves its count
/// unchanged, a hit anywhere else bumps it by exactly one — and
/// either way the item moves to the stack front.
#[test]
fn fbr_new_section_hits_never_bump_counts() {
    check(DEFAULT_CASES, |g| {
        let (_, mut fbr, resident) = arb_fbr(g, 1);
        if resident.is_empty() {
            return;
        }
        let id = resident[g.usize_in(0..resident.len())];
        let before = fbr.ref_count(id).expect("resident is tracked");
        let was_new = fbr.in_new_section(id);
        fbr.on_access(id);
        let after = fbr.ref_count(id).expect("still tracked");
        if was_new {
            assert_eq!(after, before, "new-section hit must not bump the count");
        } else {
            assert_eq!(after, before + 1, "middle/old hit bumps by exactly one");
        }
        assert_eq!(
            fbr.stack_depth(id),
            Some(0),
            "hit moves the item to the front"
        );
    });
}

/// LFU never evicts an item with strictly more accesses than another
/// resident item.
#[test]
fn lfu_prefers_low_counts() {
    check(DEFAULT_CASES, |g| {
        let hot = g.u64_in(0..8);
        let cold = g.u64_in(8..16);
        let hot_hits = g.usize_in(1..6);
        let mut policy = policy_by_name("lfu").unwrap();
        policy.on_insert(ItemId(hot));
        policy.on_insert(ItemId(cold));
        for _ in 0..hot_hits {
            policy.on_access(ItemId(hot));
        }
        assert_eq!(policy.evict_candidate(), Some(ItemId(cold)));
    });
}
