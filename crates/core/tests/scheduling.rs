//! End-to-end tests of the dispatch policies (backfill, aging,
//! locality, per-session fair share) and of the queue-wait accounting
//! bugfixes.
//!
//! All ordering assertions compare per-job `queue_wait_s` values and
//! scheduler counter deltas — never wall-clock sleeps against absolute
//! thresholds — so they stay deterministic on slow machines. Tests
//! share the process-global obs registry and therefore serialize on a
//! mutex and compare counter *deltas*.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use vira_grid::synth::{self, test_cube};
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, SubmitSpec, VistaClient};
use viracocha::{FaultPlan, ResilienceConfig, Viracocha, ViracochaConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Clone, Copy)]
struct SchedCounters {
    backfills: u64,
    locality_hits: u64,
    aged: u64,
    failed: u64,
}

fn counters() -> SchedCounters {
    let c = |name: &str| vira_obs::counter(name).get();
    SchedCounters {
        backfills: c("sched_backfills_total"),
        locality_hits: c("sched_locality_hits_total"),
        aged: c("sched_starvation_aged_total"),
        failed: c("sched_jobs_failed_total"),
    }
}

/// A dilated backend with both a long-running dataset (Engine) and a
/// tiny one (TestCube) registered, so one submission mix can contain
/// blocked heads and backfillable small jobs.
fn launch(n_workers: usize) -> (Viracocha, VistaClient) {
    let mut cfg = ViracochaConfig::for_tests(n_workers);
    cfg.dilation = 0.02;
    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(synth::engine(4)))),
        false,
    );
    backend.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(6, 2)))), false);
    (backend, VistaClient::new(link))
}

/// A long dilated job: all Engine steps on `workers` ranks.
fn long_spec(workers: usize) -> SubmitSpec {
    SubmitSpec {
        command: "IsoDataMan".into(),
        dataset: "Engine".into(),
        params: CommandParams::new().set("iso", 15.0).set("n_steps", 8),
        workers,
    }
}

/// A tiny job: one TestCube step.
fn tiny_spec(workers: usize) -> SubmitSpec {
    SubmitSpec {
        command: "IsoDataMan".into(),
        dataset: "TestCube".into(),
        params: CommandParams::new().set("iso", 0.15).set("n_steps", 1),
        workers,
    }
}

#[test]
fn backfill_dispatches_a_small_job_past_a_blocked_head() {
    let _g = serial();
    // 3 workers: j1 takes 2 of them for a long time, j2 wants all 3 and
    // blocks the queue head, j3 needs only the one free rank.
    let before = counters();
    let (backend, mut client) = launch(3);
    let j1 = client.submit(&long_spec(2)).unwrap();
    let j2 = client.submit(&tiny_spec(3)).unwrap();
    let j3 = client.submit(&tiny_spec(1)).unwrap();
    let o1 = client.collect(j1).unwrap();
    let o2 = client.collect(j2).unwrap();
    let o3 = client.collect(j3).unwrap();
    // With backfill, j3 jumps the blocked j2 and starts immediately:
    // its queue wait is (almost) zero while j2 waits out all of j1.
    assert!(
        o3.report.queue_wait_s < o2.report.queue_wait_s,
        "backfilled j3 must dispatch before the blocked head j2 \
         (j3 waited {:.3}s, j2 waited {:.3}s)",
        o3.report.queue_wait_s,
        o2.report.queue_wait_s
    );
    assert!(o1.triangles.n_triangles() > 0);
    // Re-run the long job: its blocks are now resident on the two ranks
    // that just computed it, so locality-aware placement scores > 0.
    let o4 = client.run(&long_spec(2)).unwrap();
    assert!(o4.triangles.n_triangles() > 0);
    client.shutdown().unwrap();
    backend.join();
    let after = counters();
    assert!(
        after.backfills - before.backfills >= 1,
        "the j3 overtake must be counted in sched_backfills_total"
    );
    assert!(
        after.locality_hits - before.locality_hits >= 1,
        "the warm re-run must be counted in sched_locality_hits_total"
    );
}

#[test]
fn aged_head_blocks_further_backfill_and_then_runs() {
    let _g = serial();
    let before = counters();
    // 2 workers, aging bound 8: j1 holds one rank for a long time; the
    // head (2 workers) blocks; eight one-rank overtakers backfill past
    // it on the free rank — the eighth ages the head to the bound — and
    // the last job must then wait behind the head even though it would
    // fit the free rank. j1 runs 16 steps so that the eight overtakers,
    // one after another, finish well inside it.
    let (backend, mut client) = launch(2);
    let j1 = client
        .submit(&SubmitSpec {
            params: CommandParams::new().set("iso", 15.0).set("n_steps", 16),
            ..long_spec(1)
        })
        .unwrap();
    let head = client.submit(&tiny_spec(2)).unwrap();
    let overtakers: Vec<_> = (0..8)
        .map(|_| client.submit(&tiny_spec(1)).unwrap())
        .collect();
    let last = client.submit(&tiny_spec(1)).unwrap();
    let _o1 = client.collect(j1).unwrap();
    let o_head = client.collect(head).unwrap();
    let o_overtakers: Vec<_> = overtakers
        .iter()
        .map(|&j| client.collect(j).unwrap())
        .collect();
    let o_last = client.collect(last).unwrap();
    client.shutdown().unwrap();
    backend.join();
    let after = counters();
    assert_eq!(
        after.backfills - before.backfills,
        8,
        "exactly the eight overtakers may jump before the bound trips"
    );
    assert_eq!(
        after.aged - before.aged,
        1,
        "the head reaches the aging bound exactly once"
    );
    // The overtakers dispatched ahead of the head; the last job was held
    // until after the aged head finally dispatched and ran.
    for (i, o) in o_overtakers.iter().enumerate() {
        assert!(
            o.report.queue_wait_s < o_head.report.queue_wait_s,
            "overtaker {i} waited {:.3}s, the head {:.3}s",
            o.report.queue_wait_s,
            o_head.report.queue_wait_s
        );
    }
    assert!(
        o_last.report.queue_wait_s > o_head.report.queue_wait_s,
        "the last job must not overtake the aged head (it waited {:.3}s, the head {:.3}s)",
        o_last.report.queue_wait_s,
        o_head.report.queue_wait_s
    );
}

#[test]
fn fair_share_round_robins_dispatch_across_sessions() {
    let _g = serial();
    // One worker, two sessions: session 0 submits three jobs, then
    // session 7 submits three. Round-robin credit interleaves them —
    // b1 runs before a2, b2 before a3 — instead of draining session 0
    // first.
    let (backend, mut client) = launch(1);
    client.set_session(0);
    let a1 = client.submit(&tiny_spec(1)).unwrap();
    let a2 = client.submit(&tiny_spec(1)).unwrap();
    let a3 = client.submit(&tiny_spec(1)).unwrap();
    client.set_session(7);
    let b1 = client.submit(&tiny_spec(1)).unwrap();
    let b2 = client.submit(&tiny_spec(1)).unwrap();
    let b3 = client.submit(&tiny_spec(1)).unwrap();
    let oa: Vec<_> = [a1, a2, a3]
        .iter()
        .map(|&j| client.collect(j).unwrap())
        .collect();
    let ob: Vec<_> = [b1, b2, b3]
        .iter()
        .map(|&j| client.collect(j).unwrap())
        .collect();
    client.shutdown().unwrap();
    backend.join();
    // Dispatch order a1, b1, a2, b2, a3, b3 shows up as strictly
    // interleaved queue waits.
    assert!(
        ob[0].report.queue_wait_s < oa[1].report.queue_wait_s,
        "b1 must run before a2 (b1 waited {:.3}s, a2 waited {:.3}s)",
        ob[0].report.queue_wait_s,
        oa[1].report.queue_wait_s
    );
    assert!(
        ob[1].report.queue_wait_s < oa[2].report.queue_wait_s,
        "b2 must run before a3 (b2 waited {:.3}s, a3 waited {:.3}s)",
        ob[1].report.queue_wait_s,
        oa[2].report.queue_wait_s
    );
}

#[test]
fn requeued_job_reports_per_attempt_waits_not_recovery_time() {
    let _g = serial();
    // Rank 2 is dead from the start: the job retransmits, probes,
    // convicts, and reruns degraded on rank 1. The fix under test:
    // `queue_wait_s` must cover only the wait before the *first*
    // dispatch, and the (tiny) re-wait of the second attempt goes to
    // `requeue_wait_s` — the old accounting folded the whole recovery
    // (retransmit backoffs + probe, most of the job's wall time) into
    // `queue_wait_s`.
    let mut cfg = ViracochaConfig::for_tests(2);
    cfg.resilience = ResilienceConfig {
        dispatch_timeout: Duration::from_millis(150),
        backoff_factor: 1.5,
        max_retransmits: 2,
        probe_timeout: Duration::from_millis(500),
        gather_timeout: Duration::from_secs(10),
        max_attempts: 3,
    };
    let (backend, link) = Viracocha::launch_with_faults(cfg, FaultPlan::new(7).with_kill(2, 0));
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(test_cube(10, 4)))),
        false,
    );
    let mut client = VistaClient::new(link);
    let out = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new().set("iso", 0.15).set("n_steps", 2),
            workers: 2,
        })
        .unwrap();
    client.shutdown().unwrap();
    backend.join();
    assert!(out.report.degraded, "the dead rank degrades the job");
    let wall = out.total_wall.as_secs_f64();
    assert!(
        wall > 0.4,
        "recovery spans retransmit backoffs and a probe ({wall:.3}s)"
    );
    // Both waits are real queue time only — milliseconds, nowhere near
    // the recovery window the old code reported.
    assert!(
        out.report.queue_wait_s < 0.25,
        "queue_wait_s must not absorb the failed attempt ({:.3}s)",
        out.report.queue_wait_s
    );
    assert!(
        out.report.requeue_wait_s < 0.25,
        "requeue_wait_s is the re-queue wait alone ({:.3}s)",
        out.report.requeue_wait_s
    );
}

#[test]
fn client_disconnect_fails_queued_jobs_instead_of_dropping_them() {
    let _g = serial();
    let before = counters();
    let (backend, mut client) = launch(1);
    // j1 must still be running when the client vanishes (~480 ms on a
    // fast host; `long_spec` takes ~135 ms) and must send the client
    // nothing before its final: a progress report or streamed packet to
    // a vanished client fails the job, so the iso and λ₂ commands, which
    // report progress, would count twice. Pathlines report none.
    let j1 = SubmitSpec {
        command: "PathlinesDataMan".into(),
        params: CommandParams::new().set("n_seeds", 16),
        ..long_spec(1)
    };
    let _j1 = client.submit(&j1).unwrap();
    let _j2 = client.submit(&tiny_spec(1)).unwrap();
    // Give the scheduler time to dispatch j1 (j2 stays queued), then
    // vanish without a shutdown handshake.
    std::thread::sleep(Duration::from_millis(150));
    drop(client);
    backend.join();
    let after = counters();
    assert_eq!(
        after.failed - before.failed,
        1,
        "the queued j2 must be recorded as failed on disconnect, \
         the running j1 drains normally"
    );
}

#[test]
fn a_probe_does_not_stall_other_jobs() {
    let _g = serial();
    // Rank 2 is dead from the start, so the two-worker job on ranks 1
    // and 2 spends its (zero) retransmit budget after 100 ms and its
    // group is probed for a whole second. A one-worker job submitted
    // during the probe runs on rank 3 and must not wait for the probe
    // to end: the probe is a phase of the first job, not a blocking
    // wait of the scheduler loop. The only wall-clock bound in this
    // file, and a loose one: the probe window is twice the budget.
    let probe_timeout = Duration::from_secs(1);
    let mut cfg = ViracochaConfig::for_tests(3);
    cfg.resilience = ResilienceConfig {
        dispatch_timeout: Duration::from_millis(100),
        backoff_factor: 1.5,
        max_retransmits: 0,
        probe_timeout,
        gather_timeout: Duration::from_secs(10),
        max_attempts: 3,
    };
    let (backend, link) = Viracocha::launch_with_faults(cfg, FaultPlan::new(7).with_kill(2, 0));
    backend.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(6, 2)))), false);
    let mut client = VistaClient::new(link);
    // Rank 1's answer to the probe records its clock offset: from then
    // on the probe waits for rank 2, which never answers.
    vira_obs::flight::reset_clock_offsets();
    let probed = client.submit(&tiny_spec(2)).unwrap();
    let probing = || {
        vira_obs::flight::clock_offsets()
            .iter()
            .any(|(r, _)| *r == 1)
    };
    let started = std::time::Instant::now();
    while !probing() {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "no probe began"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let quick = client.submit(&tiny_spec(1)).unwrap();
    let quick_out = client.collect(quick).unwrap();
    let probed_out = client.collect(probed).unwrap();
    client.shutdown().unwrap();
    backend.join();
    assert!(probed_out.report.degraded, "the dead rank is convicted");
    assert!(
        !quick_out.report.degraded,
        "the quick job never touched rank 2"
    );
    assert!(
        quick_out.total_wall < probe_timeout / 2,
        "the quick job waited {:?} behind a {probe_timeout:?} probe",
        quick_out.total_wall
    );
}
