//! Synthetic session load generator — the core of `vira load`.
//!
//! Replays N logical Vista sessions against one back-end client link
//! with a seeded mixed command stream (iso / λ₂ / pathline /
//! progressive) and a configurable arrival process:
//!
//! * **Open loop** — Poisson arrivals at a fixed offered rate. The
//!   generator does not slow down when the back-end does, which is
//!   exactly what makes undersized admission quotas shed: offered load
//!   is independent of service capacity. A bounded outstanding window
//!   keeps the single client link multiplexable (collects interleave
//!   with submits); the window bounds *client-side* pipelining only,
//!   never the arrival schedule.
//! * **Closed loop** — classic think-time rounds: every session keeps
//!   one job in flight, waits for it, then thinks. Offered load adapts
//!   to capacity, so this mode measures latency under sustainable
//!   concurrency rather than shed behavior.
//!
//! The invariant the CI smoke leg asserts:
//!
//! ```text
//! offered == completed + failed + shed + refused
//! ```
//!
//! where `shed` are structured busy rejections (admission control) and
//! `refused` are permanent validation rejections. Everything is
//! deterministic per `seed` except wall-clock timing.

use std::time::{Duration, Instant};

use vira_vista::{ClientError, CommandParams, SubmitSpec, VistaClient};

/// How job submissions arrive at the back-end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Open-loop Poisson arrivals at `rate_hz` offered jobs/second.
    OpenLoop { rate_hz: f64 },
    /// Closed-loop rounds: each session submits, waits, then thinks
    /// `think_ms` before its next command.
    ClosedLoop { think_ms: u64 },
}

/// One run of the load plane.
#[derive(Clone, Debug)]
pub struct LoadPlan {
    /// Logical Vista sessions (stamped via `VistaClient::set_session`).
    pub sessions: u64,
    /// Total jobs to offer across all sessions.
    pub jobs: usize,
    /// Seed for the command mix, session assignment and inter-arrival
    /// draws. Same seed → same offered stream.
    pub seed: u64,
    pub arrival: Arrival,
    /// Busy-shed resubmit budget per offered job (each resubmit counts
    /// as a new offered submission; the shed that provoked it is still
    /// counted). 0 = count the shed and move on.
    pub max_retries: u32,
    /// Open-loop only: max submissions outstanding before the driver
    /// collects the oldest. Bounds client memory, not offered load.
    pub window: usize,
    /// The command mix, drawn from uniformly per job.
    pub commands: Vec<SubmitSpec>,
}

impl LoadPlan {
    /// A plan over [`default_mix`] with the driver defaults.
    pub fn new(sessions: u64, jobs: usize, seed: u64, arrival: Arrival, dataset: &str) -> LoadPlan {
        LoadPlan {
            sessions: sessions.max(1),
            jobs,
            seed,
            arrival,
            max_retries: 0,
            window: 32,
            commands: default_mix(dataset, 1),
        }
    }
}

/// The stock mixed command stream of the paper's interactive workload:
/// DMS-backed isosurface, λ₂ vortex regions, pathlines, and the
/// progressive (multiresolution) isosurface. Parameter values match the
/// test-cube synthetic dataset; callers with other datasets override.
pub fn default_mix(dataset: &str, workers: usize) -> Vec<SubmitSpec> {
    let spec = |command: &str, params: CommandParams| SubmitSpec {
        command: command.into(),
        dataset: dataset.into(),
        params,
        workers,
    };
    vec![
        spec("IsoDataMan", CommandParams::new().set("iso", 0.15)),
        spec(
            "VortexDataMan",
            CommandParams::new().set("threshold", -0.01),
        ),
        spec(
            "PathlinesDataMan",
            CommandParams::new().set("n_seeds", 4).set("max_steps", 200),
        ),
        spec(
            "ProgressiveIso",
            CommandParams::new().set("iso", 0.15).set("levels", 2),
        ),
    ]
}

/// Aggregate bookkeeping for one run. `offered` must always equal
/// `completed + failed + shed + refused` — the balance the CI smoke
/// leg cross-checks against the scheduler's own admission counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadOutcome {
    pub offered: u64,
    pub completed: u64,
    pub failed: u64,
    /// Structured busy rejections (queue full / session quota).
    pub shed: u64,
    /// Permanent refusals (unknown command, shutdown, …).
    pub refused: u64,
    /// Busy sheds that were resubmitted within the retry budget.
    pub resubmitted: u64,
    /// Per-completed-job submit→final wall latency.
    pub job_latency_ns: Vec<u64>,
    /// Per-completed-job submit→first-geometry wall latency.
    pub ttfg_ns: Vec<u64>,
    /// Wall duration of the whole run.
    pub wall_ns: u64,
}

impl LoadOutcome {
    /// Offered submissions that the scheduler accepted into its queue.
    pub fn admitted(&self) -> u64 {
        self.offered - self.shed - self.refused
    }

    /// The bookkeeping identity every run must satisfy.
    pub fn balanced(&self) -> bool {
        self.offered == self.completed + self.failed + self.shed + self.refused
    }
}

/// splitmix64 — the same tiny deterministic generator the fault plan
/// uses; good enough for arrival jitter and mix draws, no `rand` dep.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53-bit resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival draw for a Poisson process at `rate_hz`.
    pub fn next_exp(&mut self, rate_hz: f64) -> Duration {
        // 1 - U avoids ln(0); rate is clamped away from zero so a
        // misconfigured plan degenerates to "slow", not to a hang.
        let u = 1.0 - self.next_f64();
        Duration::from_secs_f64((-u.ln()) / rate_hz.max(1e-6))
    }
}

/// The deterministic offered stream: job index → (session, mix index).
/// Exposed so tests and reports can re-derive what was offered.
pub fn offered_stream(plan: &LoadPlan) -> Vec<(u64, usize)> {
    let mut rng = SplitMix64(plan.seed);
    (0..plan.jobs)
        .map(|_| {
            let session = rng.next_u64() % plan.sessions.max(1);
            let mix = (rng.next_u64() as usize) % plan.commands.len().max(1);
            (session, mix)
        })
        .collect()
}

/// One in-flight submission the driver is waiting to collect.
struct Outstanding {
    job: vira_vista::JobId,
    session: u64,
    mix: usize,
    submitted: Instant,
    resubmits: u32,
}

/// Drives `plan` through `client`, stamping each submission with the
/// session that issues it.
pub fn run(client: &mut VistaClient, plan: &LoadPlan) -> Result<LoadOutcome, ClientError> {
    assert!(!plan.commands.is_empty(), "load plan needs a command mix");
    let mut out = LoadOutcome::default();
    let t0 = Instant::now();
    match plan.arrival {
        Arrival::OpenLoop { rate_hz } => run_open_loop(client, plan, rate_hz, &mut out)?,
        Arrival::ClosedLoop { think_ms } => run_closed_loop(client, plan, think_ms, &mut out)?,
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    debug_assert!(out.balanced(), "load bookkeeping out of balance: {out:?}");
    Ok(out)
}

fn submit_one(
    client: &mut VistaClient,
    plan: &LoadPlan,
    session: u64,
    mix: usize,
    resubmits: u32,
    out: &mut LoadOutcome,
) -> Result<Outstanding, ClientError> {
    client.set_session(session);
    out.offered += 1;
    // Stamped before the submit goes out, as the client stamps the
    // job's time to first geometry: latency and TTFG share one origin.
    let submitted = Instant::now();
    let job = client.submit(&plan.commands[mix])?;
    Ok(Outstanding {
        job,
        session,
        mix,
        submitted,
        resubmits,
    })
}

/// Collects one outstanding job, folding the outcome into the
/// bookkeeping. A busy shed within the retry budget sleeps out the
/// server's retry-after hint and resubmits (a new offered submission
/// for the same logical command).
fn collect_one(
    client: &mut VistaClient,
    plan: &LoadPlan,
    pending: Outstanding,
    out: &mut LoadOutcome,
) -> Result<(), ClientError> {
    let mut pending = pending;
    loop {
        match client.collect(pending.job) {
            Ok(o) => {
                let elapsed = pending.submitted.elapsed();
                out.completed += 1;
                out.job_latency_ns.push(elapsed.as_nanos() as u64);
                if let Some(first) = o.first_result_wall {
                    out.ttfg_ns.push(first.as_nanos() as u64);
                }
                return Ok(());
            }
            Err(ClientError::Rejected(reason)) if reason.is_busy() => {
                out.shed += 1;
                if pending.resubmits >= plan.max_retries {
                    return Ok(());
                }
                out.resubmitted += 1;
                std::thread::sleep(Duration::from_millis(
                    reason.retry_after_ms().unwrap_or(1).max(1),
                ));
                pending = submit_one(
                    client,
                    plan,
                    pending.session,
                    pending.mix,
                    pending.resubmits + 1,
                    out,
                )?;
            }
            Err(ClientError::Rejected(_)) => {
                out.refused += 1;
                return Ok(());
            }
            Err(_) => {
                // Transport-level failure: the job is gone, account it
                // as failed rather than losing the balance.
                out.failed += 1;
                return Ok(());
            }
        }
    }
}

fn run_open_loop(
    client: &mut VistaClient,
    plan: &LoadPlan,
    rate_hz: f64,
    out: &mut LoadOutcome,
) -> Result<(), ClientError> {
    let stream = offered_stream(plan);
    let mut rng = SplitMix64(plan.seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let start = Instant::now();
    let mut next_at = Duration::ZERO;
    let mut outstanding: std::collections::VecDeque<Outstanding> =
        std::collections::VecDeque::new();
    for (session, mix) in stream {
        next_at += rng.next_exp(rate_hz);
        let now = start.elapsed();
        if next_at > now {
            std::thread::sleep(next_at - now);
        }
        // The window bounds pipelining, not arrivals: collecting the
        // oldest job here is the driver catching up, while `next_at`
        // keeps marching on the Poisson schedule regardless.
        while outstanding.len() >= plan.window.max(1) {
            let oldest = outstanding.pop_front().expect("window is non-empty");
            collect_one(client, plan, oldest, out)?;
        }
        outstanding.push_back(submit_one(client, plan, session, mix, 0, out)?);
    }
    while let Some(oldest) = outstanding.pop_front() {
        collect_one(client, plan, oldest, out)?;
    }
    Ok(())
}

fn run_closed_loop(
    client: &mut VistaClient,
    plan: &LoadPlan,
    think_ms: u64,
    out: &mut LoadOutcome,
) -> Result<(), ClientError> {
    let stream = offered_stream(plan);
    let mut offset = 0usize;
    while offset < stream.len() {
        // One round: every session (that still has stream entries)
        // submits one job; then everyone waits; then everyone thinks.
        let round: Vec<(u64, usize)> = stream
            .iter()
            .skip(offset)
            .take(plan.sessions as usize)
            .copied()
            .collect();
        offset += round.len();
        let mut pending = Vec::with_capacity(round.len());
        for (session, mix) in round {
            pending.push(submit_one(client, plan, session, mix, 0, out)?);
        }
        for p in pending {
            collect_one(client, plan, p, out)?;
        }
        if think_ms > 0 && offset < stream.len() {
            std::thread::sleep(Duration::from_millis(think_ms));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Viracocha, ViracochaConfig};
    use std::sync::Arc;
    use vira_storage::source::SynthSource;

    fn launch(config: ViracochaConfig) -> (Viracocha, VistaClient) {
        let (backend, link) = Viracocha::launch(config);
        backend.register_dataset(
            Arc::new(SynthSource::new(Arc::new(vira_grid::synth::test_cube(
                6, 2,
            )))),
            false,
        );
        (backend, VistaClient::new(link))
    }

    #[test]
    fn offered_stream_is_deterministic_and_in_range() {
        let plan = LoadPlan::new(8, 64, 42, Arrival::ClosedLoop { think_ms: 0 }, "TestCube");
        let a = offered_stream(&plan);
        let b = offered_stream(&plan);
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&(s, m)| s < 8 && m < plan.commands.len()));
        // All four command kinds appear in a 64-job draw.
        for mix in 0..plan.commands.len() {
            assert!(a.iter().any(|&(_, m)| m == mix), "mix {mix} never drawn");
        }
        let other = offered_stream(&LoadPlan::new(
            8,
            64,
            43,
            Arrival::ClosedLoop { think_ms: 0 },
            "TestCube",
        ));
        assert_ne!(a, other, "different seed, different stream");
    }

    #[test]
    fn poisson_draws_have_roughly_the_configured_mean() {
        let mut rng = SplitMix64(7);
        let n = 4000;
        let total: f64 = (0..n).map(|_| rng.next_exp(100.0).as_secs_f64()).sum();
        let mean = total / n as f64;
        // Mean inter-arrival at 100 Hz is 10 ms; allow a wide band.
        assert!((0.008..0.012).contains(&mean), "mean {mean}");
    }

    #[test]
    fn closed_loop_run_completes_and_balances() {
        let _guard = timing_lock();
        let config = ViracochaConfig::for_tests(2);
        let (backend, mut client) = launch(config);
        let plan = LoadPlan::new(4, 12, 1, Arrival::ClosedLoop { think_ms: 0 }, "TestCube");
        let out = run(&mut client, &plan).expect("load run");
        assert_eq!(out.offered, 12);
        assert_eq!(out.completed, 12);
        assert_eq!(out.shed, 0);
        assert!(out.balanced(), "{out:?}");
        assert_eq!(out.job_latency_ns.len(), 12);
        assert!(!out.ttfg_ns.is_empty());
        client.shutdown().unwrap();
        backend.join();
    }

    #[test]
    fn undersized_quota_sheds_but_never_loses_a_job() {
        let _guard = timing_lock();
        let mut config = ViracochaConfig::for_tests(1);
        config.admission.enabled = true;
        config.admission.max_queue_depth = 2;
        config.admission.max_session_queued = 1;
        config.admission.max_session_running = 1;
        config.admission.retry_after_ms = 1;
        let (backend, mut client) = launch(config);
        let mut plan = LoadPlan::new(
            2,
            30,
            3,
            // Offered far faster than a 1-worker backend serves.
            Arrival::OpenLoop { rate_hz: 2000.0 },
            "TestCube",
        );
        plan.window = 16;
        let out = run(&mut client, &plan).expect("load run");
        assert!(out.shed > 0, "tight quotas must shed: {out:?}");
        assert!(out.completed > 0, "some jobs must still finish: {out:?}");
        assert!(out.balanced(), "{out:?}");
        assert_eq!(out.refused, 0, "no validation refusals in this mix");
        client.shutdown().unwrap();
        backend.join();
    }

    #[test]
    fn retry_budget_resubmits_after_shed() {
        let _guard = timing_lock();
        let mut config = ViracochaConfig::for_tests(1);
        config.admission.enabled = true;
        config.admission.max_queue_depth = 1;
        config.admission.max_session_queued = 1;
        config.admission.max_session_running = 1;
        config.admission.retry_after_ms = 1;
        let (backend, mut client) = launch(config);
        let mut plan = LoadPlan::new(2, 16, 5, Arrival::OpenLoop { rate_hz: 2000.0 }, "TestCube");
        plan.window = 8;
        plan.max_retries = 4;
        let out = run(&mut client, &plan).expect("load run");
        assert!(out.balanced(), "{out:?}");
        if out.shed > 0 {
            assert!(out.resubmitted > 0, "sheds within budget resubmit: {out:?}");
        }
        client.shutdown().unwrap();
        backend.join();
    }

    /// Tests that launch a back-end run one at a time: parallel test
    /// threads distort each other's wall-clock tails on small hosts.
    fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Exact p99 over raw samples.
    fn p99(samples: &[u64]) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        s[(s.len() * 99).div_ceil(100).max(1) - 1]
    }

    #[test]
    fn tight_quotas_shed_and_cut_the_tail() {
        let _guard = timing_lock();
        let jobs = 48;
        // Offered far faster than even a warm worker serves, so the
        // unbounded run always fills its window and the gap in the tails
        // does not depend on how fast this host runs a job.
        let mut open = LoadPlan::new(
            4,
            jobs,
            7,
            Arrival::OpenLoop { rate_hz: 20_000.0 },
            "TestCube",
        );
        open.window = 32;
        let drive = |queue_bound: Option<usize>| {
            let mut config = ViracochaConfig::for_tests(1);
            if let Some(bound) = queue_bound {
                config.admission.enabled = true;
                config.admission.max_queue_depth = bound;
                config.admission.max_session_queued = 2;
                config.admission.max_session_running = 1;
                config.admission.retry_after_ms = 1;
            }
            let (backend, mut client) = launch(config);
            let out = run(&mut client, &open).expect("load run");
            client.shutdown().unwrap();
            backend.join();
            out
        };
        let unbounded = drive(None);
        let quota = drive(Some(4));
        assert!(unbounded.balanced(), "{unbounded:?}");
        assert!(quota.balanced(), "{quota:?}");
        assert_eq!(unbounded.shed, 0, "no admission control, no sheds");
        assert_eq!(unbounded.completed, jobs as u64);
        assert!(quota.shed > 0, "tight quotas must shed: {quota:?}");
        assert!(quota.completed > 0);
        // The whole point of shedding: admitted jobs wait behind a
        // bounded queue, so their completion tail shrinks.
        let (p99_unbounded, p99_quota) =
            (p99(&unbounded.job_latency_ns), p99(&quota.job_latency_ns));
        assert!(
            p99_quota < p99_unbounded,
            "bounded queue must cut the admitted tail ({p99_quota} vs {p99_unbounded})"
        );
    }
}
