//! The extraction kernels write no process-wide state.
//!
//! Workers run as threads of one process and each may run several
//! extraction threads, so a shared counter on a per-row or per-brick path
//! is one contended cache line for all of them: one atomic add per
//! 5-point row made two threads' bricktree builds slower than one
//! thread's. Counting belongs to the caller, once per job.
//!
//! This file is its own test binary, so no other test moves the metrics
//! registry while it runs.

use vira_extract::bricktree::BrickTree;
use vira_extract::iso::extract_isosurface;
use vira_extract::lambda2::lambda2_field;
use vira_extract::multires::progressive_isosurface;
use vira_grid::block::BlockStepId;
use vira_grid::synth::propfan;
use vira_obs::metrics::snapshot;

#[test]
fn kernels_leave_counters_and_gauges_alone() {
    let data = propfan(9).generate(BlockStepId::new(5, 0));
    let before = snapshot();

    let speed = data.velocity.magnitude();
    let (lo, hi) = speed.range().expect("non-empty block");
    let tree = BrickTree::build(&speed);
    assert!(tree.matches(data.dims()));
    let level = 0.5 * (lo + hi);
    let (soup, _) = extract_isosurface(&data.grid, &speed, level);
    assert!(!soup.is_empty(), "|u| = {level} cuts the block");

    let l2 = lambda2_field(&data);
    let (l2_lo, _) = l2.range().expect("non-empty block");
    let (soup, _) = extract_isosurface(&data.grid, &l2, 0.5 * l2_lo);
    assert!(!soup.is_empty(), "λ₂ = {} cuts the block", 0.5 * l2_lo);

    let levels = progressive_isosurface(&data.grid, &speed, level, 3, |_| {});
    assert_eq!(levels.len(), 3);

    let after = snapshot();
    assert_eq!(after.counters, before.counters, "a kernel moved a counter");
    assert_eq!(after.gauges, before.gauges, "a kernel moved a gauge");
}
