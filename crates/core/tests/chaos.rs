//! Chaos matrix: end-to-end isosurface extraction under seeded,
//! replayable fault plans (see `vira_comm::fault`).
//!
//! Every plan derives from one seed — `CHAOS_SEED` in the environment
//! overrides the default, and CI runs the matrix under several fixed
//! seeds plus one run-id-derived seed per build. The invariants hold
//! for *any* seed:
//!
//! * plans without a kill must reproduce the fault-free result
//!   byte-identically (canonical rank-order merge + retransmission),
//! * a killed worker degrades the job onto the survivors but still
//!   completes it,
//! * the `JobReport` retry/degraded accounting matches the global
//!   vira-obs counters and the plan's own injection stats.
//!
//! Tests share the process-global obs registry, so they serialize on a
//! mutex and compare counter *deltas*.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use vira_grid::synth::test_cube;
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, JobOutcome, SubmitSpec, VistaClient};
use viracocha::{
    FaultPlan, FaultStatsSnapshot, LinkFaults, ResilienceConfig, Viracocha, ViracochaConfig,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A poisoned lock only means another chaos test failed.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The matrix seed: `CHAOS_SEED` from the environment, or a fixed
/// default. Printed so a failing CI run can be replayed locally.
fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .map(|s| s.parse().expect("CHAOS_SEED must be a u64"))
        .unwrap_or(0x00C0_FFEE);
    eprintln!("chaos seed: {seed}");
    seed
}

/// Aggressive timeouts so recovery happens within test time; the
/// defaults in `ResilienceConfig` are tuned never to trip instead.
fn chaos_config(n_workers: usize) -> ViracochaConfig {
    let mut cfg = ViracochaConfig::for_tests(n_workers);
    // EXTRACT_THREADS (picked up by ExtractConfig::default) reruns the
    // matrix with intra-worker parallel extraction; printed for replay.
    eprintln!("chaos extract threads: {}", cfg.extract.threads);
    cfg.resilience = ResilienceConfig {
        dispatch_timeout: Duration::from_millis(150),
        backoff_factor: 1.5,
        max_retransmits: 2,
        // Long enough for ~20 ping rounds: on a lossy link the probe
        // must not convict a live rank just because pings got dropped.
        probe_timeout: Duration::from_millis(500),
        // Far beyond dead-rank detection (~1 s) so a stuck gather never
        // races the requeue path with a timeout error.
        gather_timeout: Duration::from_secs(10),
        max_attempts: 3,
    };
    cfg
}

fn iso_spec(workers: usize) -> SubmitSpec {
    SubmitSpec {
        command: "IsoDataMan".into(),
        dataset: "TestCube".into(),
        params: CommandParams::new().set("iso", 0.15).set("n_steps", 2),
        workers,
    }
}

/// Runs `n_jobs` sequential iso extractions on one backend, optionally
/// behind a fault plan. Panics if any job fails — surviving the plan is
/// the point.
fn run_jobs(
    n_workers: usize,
    plan: Option<FaultPlan>,
    n_jobs: usize,
) -> (Vec<JobOutcome>, Option<FaultStatsSnapshot>) {
    let cfg = chaos_config(n_workers);
    let (backend, link) = match plan {
        Some(p) => Viracocha::launch_with_faults(cfg, p),
        None => Viracocha::launch(cfg),
    };
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(test_cube(10, 4)))),
        false,
    );
    let mut client = VistaClient::new(link);
    let outs: Vec<JobOutcome> = (0..n_jobs)
        .map(|i| {
            client
                .run(&iso_spec(n_workers))
                .unwrap_or_else(|e| panic!("job {i} did not survive the plan: {e:?}"))
        })
        .collect();
    // Snapshot after the join: frames sent while the back-end winds
    // down (the SHUTDOWN round, late pongs) also count in
    // fault_injected_total, which the tests read afterwards.
    let stats = backend.fault_stats().cloned();
    client.shutdown().expect("shutdown");
    backend.join();
    (outs, stats.map(|s| s.snapshot()))
}

/// The scheduler/fault counters the matrix checks, read from the
/// global obs registry.
#[derive(Clone, Copy)]
struct Counters {
    retries: u64,
    requeues: u64,
    dead_ranks: u64,
    failed: u64,
    injected: u64,
}

fn counters() -> Counters {
    let c = |name: &str| vira_obs::counter(name).get();
    Counters {
        retries: c("sched_retries_total"),
        requeues: c("sched_requeues_total"),
        dead_ranks: c("sched_dead_ranks_total"),
        failed: c("sched_jobs_failed_total"),
        injected: c("fault_injected_total"),
    }
}

/// Exact byte-level view of a triangle soup's vertices (plain `==` on
/// `f32` would conflate `-0.0` with `0.0`).
fn vertex_bits(out: &JobOutcome) -> Vec<[u32; 3]> {
    out.triangles
        .positions
        .iter()
        .map(|p| [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
        .collect()
}

fn sorted_bits(out: &JobOutcome) -> Vec<[u32; 3]> {
    let mut v = vertex_bits(out);
    v.sort_unstable();
    v
}

#[test]
fn drop_only_plan_recovers_byte_identical() {
    let _g = serial();
    let seed = chaos_seed();
    let (clean, _) = run_jobs(2, None, 1);
    let before = counters();
    let plan = FaultPlan::new(seed).with_default(LinkFaults {
        drop_p: 0.3,
        ..Default::default()
    });
    let (outs, stats) = run_jobs(2, Some(plan), 3);
    let after = counters();
    let stats = stats.expect("faulty launch exposes stats");
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            vertex_bits(out),
            vertex_bits(&clean[0]),
            "job {i}: non-kill plan must reproduce the fault-free bytes"
        );
        assert!(!out.report.degraded, "job {i}: drops never degrade");
    }
    let report_retries: u64 = outs.iter().map(|o| o.report.retries).sum();
    assert_eq!(
        after.retries - before.retries,
        report_retries,
        "per-job retry accounting must match sched_retries_total"
    );
    assert_eq!(
        after.injected - before.injected,
        stats.injected,
        "plan-local stats mirror fault_injected_total"
    );
    assert_eq!(after.dead_ranks, before.dead_ranks, "nobody died");
    assert_eq!(after.failed, before.failed, "every job completed");
}

#[test]
fn delay_only_plan_is_transparent() {
    let _g = serial();
    let seed = chaos_seed();
    let (clean, _) = run_jobs(2, None, 1);
    let before = counters();
    let plan = FaultPlan::new(seed).with_default(LinkFaults {
        delay_p: 0.6,
        delay_max: Duration::from_millis(3),
        ..Default::default()
    });
    let (outs, stats) = run_jobs(2, Some(plan), 2);
    let after = counters();
    let stats = stats.expect("faulty launch exposes stats");
    for out in &outs {
        assert_eq!(vertex_bits(out), vertex_bits(&clean[0]));
        assert!(!out.report.degraded);
    }
    // Millisecond delays stay far below the 150 ms dispatch timeout.
    assert_eq!(after.requeues, before.requeues);
    assert_eq!(after.dead_ranks, before.dead_ranks);
    assert_eq!(after.injected - before.injected, stats.injected);
    assert_eq!(stats.injected, stats.delayed, "delay-only plan");
}

#[test]
fn killed_worker_degrades_the_job_but_completes_it() {
    let _g = serial();
    let seed = chaos_seed();
    let (clean, _) = run_jobs(2, None, 1);
    let before = counters();
    // Rank 2 loses every outbound message from the start: its partial
    // never reaches the master, the probe convicts it, and the job
    // reruns on rank 1 alone.
    let plan = FaultPlan::new(seed).with_kill(2, 0);
    let (outs, stats) = run_jobs(2, Some(plan), 2);
    let after = counters();
    let stats = stats.expect("faulty launch exposes stats");

    let first = &outs[0];
    assert_eq!(
        sorted_bits(first),
        sorted_bits(&clean[0]),
        "degraded group computes the same surface (different merge order)"
    );
    assert!(
        first.report.degraded,
        "requeue must be visible to the client"
    );
    assert!(first.report.retries >= 1, "retransmits precede the probe");

    // The backend keeps serving after the death: the next job goes
    // straight to the survivor and is *not* degraded.
    let second = &outs[1];
    assert_eq!(sorted_bits(second), sorted_bits(&clean[0]));
    assert!(!second.report.degraded);

    assert_eq!(stats.killed_ranks, 1);
    assert_eq!(after.dead_ranks - before.dead_ranks, 1);
    assert_eq!(after.requeues - before.requeues, 1);
    assert_eq!(after.failed, before.failed, "no job was abandoned");
    let report_retries: u64 = outs.iter().map(|o| o.report.retries).sum();
    assert_eq!(after.retries - before.retries, report_retries);
}

#[test]
fn kitchen_sink_plan_recovers_byte_identical() {
    let _g = serial();
    let seed = chaos_seed();
    let (clean, _) = run_jobs(2, None, 1);
    let before = counters();
    let plan = FaultPlan::new(seed).with_default(LinkFaults {
        drop_p: 0.15,
        dup_p: 0.15,
        delay_p: 0.2,
        delay_max: Duration::from_millis(1),
        reorder_p: 0.15,
        truncate_p: 0.08,
        corrupt_p: 0.08,
    });
    let (outs, stats) = run_jobs(2, Some(plan), 3);
    let after = counters();
    let stats = stats.expect("faulty launch exposes stats");
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            vertex_bits(out),
            vertex_bits(&clean[0]),
            "job {i}: truncation/corruption must be caught by checksums, \
             never silently merged"
        );
        // The counters riding the sealed headers survive the faults too.
        let counts = |o: &JobOutcome| {
            (
                o.report.triangles,
                o.report.cells_skipped,
                o.report.bricks_skipped,
            )
        };
        assert_eq!(counts(out), counts(&clean[0]), "job {i}: report counters");
        assert!(!out.report.degraded);
    }
    let report_retries: u64 = outs.iter().map(|o| o.report.retries).sum();
    assert_eq!(after.retries - before.retries, report_retries);
    assert_eq!(after.injected - before.injected, stats.injected);
    assert_eq!(after.dead_ranks, before.dead_ranks);
    assert_eq!(after.failed, before.failed);
}

#[test]
fn inert_plan_behaves_like_a_clean_launch() {
    let _g = serial();
    let (clean, _) = run_jobs(2, None, 1);
    let (outs, stats) = run_jobs(2, Some(FaultPlan::new(1)), 1);
    let stats = stats.expect("faulty launch exposes stats");
    assert_eq!(vertex_bits(&outs[0]), vertex_bits(&clean[0]));
    assert_eq!(stats, FaultStatsSnapshot::default(), "nothing injected");
    assert_eq!(outs[0].report.retries, 0);
    assert!(!outs[0].report.degraded);
}
