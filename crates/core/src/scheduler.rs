//! The scheduler (layer 2, paper §3 / Figure 2).
//!
//! Receives commands from the visualization client over the client link,
//! forms work groups "as soon as enough processes are available",
//! dispatches the parallel task, and forwards the master worker's merged
//! package back to the client. Multiple jobs run concurrently on
//! disjoint work groups.
//!
//! There is one dispatch policy. Its order is FIFO-with-backfill: when
//! the queue head does not fit the free ranks, later jobs that do fit
//! may overtake it, bounded by an aging limit so large jobs cannot
//! starve. Dispatch credit is round-robined across client sessions
//! (per-session fair share). Placement is locality-aware: workers
//! piggyback a compact DMS cache-residency digest on their `JOB_DONE`
//! and `PONG` frames, and the scheduler scores candidate ranks by
//! expected cached blocks; with no digest to go on it takes the lowest
//! free ranks.

use crate::command::{CancelSet, CommandRegistry};
use crate::config::{AdmissionConfig, ResilienceConfig, TelemetryConfig};
use crate::wire;
use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use vira_comm::link::ServerSide;
use vira_comm::transport::{tags, CommError, LocalEndpoint, Message, Rank, Transport};
use vira_dms::cache::ResidencyDigest;
use vira_dms::server::DataServer;
use vira_dms::{ItemId, NameResolver};
use vira_grid::block::BlockStepId;
use vira_obs as obs;
use vira_storage::costmodel::SimClock;
use vira_vista::protocol::{
    decode_request, encode_event, ClientRequest, EventHeader, JobId, JobReport,
};

/// A submission waiting for enough free workers. Requeued jobs return
/// here with `attempt` bumped and their retry accounting intact.
struct QueuedJob {
    job: JobId,
    command: String,
    dataset: String,
    params: vira_vista::protocol::CommandParams,
    workers: usize,
    submitted_at: Instant,
    /// When the job last entered the queue; reset on requeue, so each
    /// attempt's wait is measured from its own enqueue — not from the
    /// original submission (which would silently fold the previous
    /// attempt's dispatch and timeout time into `queue_wait_s`).
    enqueued_at: Instant,
    /// Client session the submission belongs to (fair-share key).
    session: u64,
    /// Dispatch attempt (0 for the first dispatch).
    attempt: u32,
    /// Command retransmissions across all attempts so far.
    retries: u64,
    /// Set once the job was requeued onto a smaller group.
    degraded: bool,
    /// Wall-clock wait before the *first* dispatch.
    first_wait: Duration,
    /// Accumulated wall-clock waits of requeued attempts (attempt > 0).
    requeue_wait: Duration,
    /// How many times a backfilled job has overtaken this one.
    skipped: u32,
    /// Causal trace context from the Submit frame (zero for untraced
    /// clients); every scheduler/worker span of the job links under it.
    ctx: obs::TraceCtx,
}

struct RunningJob {
    group: Vec<Rank>,
    accepted_at: Instant,
    /// Modeled seconds the job waited in the queue before its *first*
    /// dispatch.
    queue_wait_s: f64,
    /// Modeled seconds spent re-waiting in the queue across requeued
    /// attempts (0 unless the job was requeued).
    requeue_wait_s: f64,
    /// The submission, kept so the job can be requeued on a dead rank.
    q: QueuedJob,
    /// The encoded command frame, retransmitted on timeout.
    frame: Bytes,
    /// When the next retransmission, probe start, probe re-ping or
    /// conviction fires.
    deadline: Instant,
    /// Current timeout, grown by the backoff factor per retransmit.
    cur_timeout: Duration,
    retransmits: u32,
    /// Set while the group is being probed for dead ranks.
    probe: Option<Probe>,
}

/// A liveness probe of one running job's group, spread over passes of
/// the scheduler loop instead of blocking it: every rank must echo the
/// nonce before `deadline`, and unanswered ranks are re-pinged every
/// [`PROBE_ROUND`].
struct Probe {
    nonce: u64,
    answered: HashSet<Rank>,
    /// Send time of the latest ping round, in trace-epoch ns — the
    /// clock-offset estimate needs it.
    round_sent_ns: u64,
    deadline: Instant,
}

/// Re-ping interval of a probe: on a lossy link a single ping would
/// regularly convict live ranks.
const PROBE_ROUND: Duration = Duration::from_millis(25);

// Scheduler metrics (see DESIGN.md "Observability layer" for naming).
static JOBS_SUBMITTED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static JOBS_REJECTED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static JOBS_DISPATCHED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static JOBS_DONE: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static JOBS_FAILED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static JOBS_CANCELLED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static REJOINS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static IDLE_WAIT_NS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static QUEUE_WAIT_NS: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
static JOB_RUNTIME_NS: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
static RETRIES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static REQUEUES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static DEAD_RANKS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static BACKFILLS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static LOCALITY_HITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static STARVATION_AGED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static HEARTBEATS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static QUEUE_DEPTH: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
static RUNNING_JOBS: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
// Admission-control metrics (load plane; see DESIGN.md "Load plane &
// admission control").
static ADMITTED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static SHED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static QUOTA_REJECTIONS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static QUEUE_HIGH_WATERMARK: OnceLock<Arc<obs::Counter>> = OnceLock::new();

/// Everything the scheduler thread needs.
pub struct SchedulerSetup<T: Transport = LocalEndpoint> {
    pub transport: T,
    pub link: ServerSide,
    pub server: Arc<DataServer>,
    pub clock: Arc<SimClock>,
    pub registry: Arc<CommandRegistry>,
    pub cancels: CancelSet,
    pub n_workers: usize,
    pub resilience: ResilienceConfig,
    pub admission: AdmissionConfig,
    pub telemetry: TelemetryConfig,
}

/// The scheduler main loop; returns after a client `Shutdown` once all
/// running jobs have drained.
pub fn scheduler_main<T: Transport>(setup: SchedulerSetup<T>) {
    let SchedulerSetup {
        transport,
        link,
        server,
        clock,
        registry,
        cancels,
        n_workers,
        resilience,
        admission,
        telemetry,
    } = setup;
    let mut free: Vec<bool> = vec![true; n_workers + 1];
    free[0] = false; // rank 0 is the scheduler itself
    let mut queue: VecDeque<QueuedJob> = VecDeque::new();
    let mut running: HashMap<JobId, RunningJob> = HashMap::new();
    let mut shutting_down = false;
    // Ranks that failed a liveness probe: permanently excluded.
    let mut dead: HashSet<Rank> = HashSet::new();
    let mut probe_nonce: u64 = 0;
    // Last known per-rank cache-residency digest, harvested from
    // JOB_DONE and PONG frames; drives locality-aware placement.
    let mut residency: HashMap<Rank, ResidencyDigest> = HashMap::new();
    // Session served by the most recent dispatch (fair-share cursor).
    let mut last_session: Option<u64> = None;
    // Scheduler-side resolver: translates a job's (dataset, block, step)
    // footprint into the item ids the digests are keyed by.
    let resolver = NameResolver::new(server.names().clone());
    // Telemetry plane: central time-series store fed by the workers'
    // heartbeat-shipped metric deltas, and the SLO burn-rate engine
    // evaluated on every snapshot write.
    let mut tsdb = obs::Tsdb::default();
    let mut slo_engine = obs::SloEngine::new(obs::default_specs(
        telemetry.job_latency_slo_ns,
        telemetry.ttfg_slo_ns,
    ));
    let mut last_heartbeat = Instant::now();
    let mut last_write = Instant::now();
    // Deepest queue this run has seen; `note_queue_depth` keeps the
    // monotone high-watermark counter in sync with it.
    let mut queue_high_watermark: usize = 0;

    loop {
        let mut progressed = false;

        // 1. Client requests.
        loop {
            match link.try_next_request() {
                Ok(Some(frame)) => {
                    progressed = true;
                    match decode_request(frame) {
                        Ok(ClientRequest::Submit {
                            job,
                            command,
                            dataset,
                            params,
                            workers,
                            session,
                            trace_id,
                            parent_span_id,
                        }) => {
                            // Refusals. Validation rejects count against
                            // sched_jobs_rejected_total and carry no retry
                            // hint. Admission sheds (shed instead of growing
                            // the queue without bound) carry the hint and
                            // the queue depth, and count against
                            // sched_shed_total so offered = admitted + shed
                            // (+ rejected).
                            let refusal = if shutting_down {
                                Some(("back-end is shutting down".to_owned(), None))
                            } else if registry.get(&command).is_none() {
                                Some((format!("unknown command '{command}'"), None))
                            } else if server.dataset_spec(&dataset).is_none() {
                                Some((format!("dataset '{dataset}' not registered"), None))
                            } else if let Some(verdict) =
                                admission_verdict(&admission, &queue, &running, session)
                            {
                                obs::counter_cached(&SHED, "sched_shed_total").inc();
                                let reason = match verdict {
                                    AdmissionReject::QueueFull => {
                                        "busy: scheduler queue is full".to_string()
                                    }
                                    AdmissionReject::SessionQuota => {
                                        obs::counter_cached(
                                            &QUOTA_REJECTIONS,
                                            "sched_quota_rejections_total",
                                        )
                                        .inc();
                                        format!("busy: session {session} is over its quota")
                                    }
                                };
                                Some((reason, Some(queue.len())))
                            } else {
                                None
                            };
                            if let Some((reason, shed_depth)) = refusal {
                                if shed_depth.is_none() {
                                    obs::counter_cached(
                                        &JOBS_REJECTED,
                                        "sched_jobs_rejected_total",
                                    )
                                    .inc();
                                }
                                let _ = link.emit(encode_event(
                                    &EventHeader::JobRejected {
                                        job,
                                        reason,
                                        retry_after_ms: shed_depth
                                            .map(|depth| busy_retry_hint(&admission, depth)),
                                        queue_depth: shed_depth.map(|depth| depth as u64),
                                    },
                                    Bytes::new(),
                                ));
                                continue;
                            }
                            obs::counter_cached(&JOBS_SUBMITTED, "sched_jobs_submitted_total")
                                .inc();
                            obs::counter_cached(&ADMITTED, "sched_admitted_total").inc();
                            let now = Instant::now();
                            queue.push_back(QueuedJob {
                                job,
                                command,
                                dataset,
                                params,
                                workers: workers.clamp(1, n_workers),
                                submitted_at: now,
                                enqueued_at: now,
                                session,
                                attempt: 0,
                                retries: 0,
                                degraded: false,
                                first_wait: Duration::ZERO,
                                requeue_wait: Duration::ZERO,
                                skipped: 0,
                                ctx: obs::TraceCtx {
                                    trace_id,
                                    parent_span_id,
                                },
                            });
                            note_queue_depth(queue.len(), &mut queue_high_watermark);
                        }
                        Ok(ClientRequest::Cancel { job }) => {
                            match cancel_disposition(job, &queue, &running) {
                                CancelDisposition::Queued(pos) => {
                                    // A job still in the queue is dropped
                                    // outright. It will never reach
                                    // handle_job_done, so nothing may enter
                                    // the cancel set here — an entry for a
                                    // dequeued job would live forever.
                                    queue.remove(pos);
                                    note_queue_depth(queue.len(), &mut queue_high_watermark);
                                    obs::counter_cached(
                                        &JOBS_CANCELLED,
                                        "sched_jobs_cancelled_total",
                                    )
                                    .inc();
                                    let _ = link.emit(encode_event(
                                        &EventHeader::Cancelled {
                                            job,
                                            report: JobReport::default(),
                                        },
                                        Bytes::new(),
                                    ));
                                }
                                CancelDisposition::Running(group) => {
                                    // Trip the job's cancel flag everywhere:
                                    // the shared-set insert covers in-process
                                    // workers, the CANCEL fan-out reaches
                                    // each remote rank's process-local set
                                    // mid-extraction. The entry is cleared
                                    // when the (early) DONE arrives.
                                    cancels.write().unwrap().insert(job);
                                    let notice = wire::encode_cancel(job);
                                    for r in group {
                                        let _ = transport.send(r, tags::CANCEL, notice.clone());
                                    }
                                }
                                CancelDisposition::Unknown => {
                                    // Cancel of a finished (or never-known)
                                    // job: idempotent no-op. The client
                                    // already has — or will never get — a
                                    // terminal event.
                                }
                            }
                        }
                        Ok(ClientRequest::Shutdown) => {
                            shutting_down = true;
                            // Jobs still waiting for workers are rejected
                            // explicitly so their clients never hang.
                            for q in queue.drain(..) {
                                obs::counter_cached(&JOBS_REJECTED, "sched_jobs_rejected_total")
                                    .inc();
                                let _ = link.emit(encode_event(
                                    &EventHeader::JobRejected {
                                        job: q.job,
                                        reason: "back-end is shutting down".into(),
                                        retry_after_ms: None,
                                        queue_depth: None,
                                    },
                                    Bytes::new(),
                                ));
                            }
                            note_queue_depth(queue.len(), &mut queue_high_watermark);
                        }
                        Err(_) => { /* malformed request: ignore */ }
                    }
                }
                Ok(None) => break,
                Err(CommError::Disconnected) => {
                    // Client went away: treat as shutdown. The queued
                    // jobs are *failed*, not silently dropped: the
                    // failure counter accounts for them even though
                    // nobody is listening for the error events.
                    shutting_down = true;
                    for q in queue.drain(..) {
                        obs::counter_cached(&JOBS_FAILED, "sched_jobs_failed_total").inc();
                        // A drained job will never reach handle_job_done;
                        // any cancel-set entry it still owns (e.g. from a
                        // conviction/requeue race) must not outlive it.
                        cancels.write().unwrap().remove(&q.job);
                        let _ = link.emit(encode_event(
                            &EventHeader::Error {
                                job: q.job,
                                message: "client disconnected before dispatch".into(),
                            },
                            Bytes::new(),
                        ));
                    }
                    note_queue_depth(queue.len(), &mut queue_high_watermark);
                    break;
                }
                Err(_) => break,
            }
        }

        // 2. Worker traffic, drained in arrival order: a streamed
        // packet forwarded ahead of its job's DONE reaches the client
        // ahead of the Final.
        while let Ok(Some(msg)) = transport.try_recv() {
            progressed = true;
            on_worker_frame(
                msg,
                &mut running,
                &mut free,
                &mut dead,
                &cancels,
                &clock,
                &link,
                &mut residency,
                &mut tsdb,
            );
        }

        // 3. Dispatch: FIFO with bounded backfill. When the queue head
        // does not fit the free ranks, a later job that does fit may
        // overtake it — but never past a job that has already been
        // jumped `MAX_SKIPPED_DISPATCHES` times. Requeued jobs shrink
        // to the surviving worker count.
        loop {
            if queue.is_empty() {
                break;
            }
            let alive: usize = (1..=n_workers).filter(|r| !dead.contains(r)).count();
            if alive == 0 {
                let q = queue.pop_front().expect("non-empty just checked");
                note_queue_depth(queue.len(), &mut queue_high_watermark);
                obs::counter_cached(&JOBS_FAILED, "sched_jobs_failed_total").inc();
                let _ = link.emit(encode_event(
                    &EventHeader::Error {
                        job: q.job,
                        message: "no live workers left".into(),
                    },
                    Bytes::new(),
                ));
                progressed = true;
                continue;
            }
            let free_ranks: Vec<Rank> = (1..=n_workers)
                .filter(|&r| free[r] && !dead.contains(&r))
                .collect();
            let Some(idx) = select_candidate(&queue, free_ranks.len(), alive, last_session) else {
                break;
            };
            let mut q = queue.remove(idx).expect("selected index in bounds");
            note_queue_depth(queue.len(), &mut queue_high_watermark);
            if idx > 0 {
                obs::counter_cached(&BACKFILLS, "sched_backfills_total").inc();
                // Every job the pick jumped over ages by one; the first
                // time one reaches the bound it becomes a barrier that
                // nothing behind it may overtake.
                for jumped in queue.iter_mut().take(idx) {
                    jumped.skipped += 1;
                    if jumped.skipped == MAX_SKIPPED_DISPATCHES {
                        obs::counter_cached(&STARVATION_AGED, "sched_starvation_aged_total").inc();
                    }
                }
            }
            let want = q.workers.min(alive);
            let items = placement_items(&resolver, &server, &q.dataset, &q.params);
            let (group, overlap) = place_group(&free_ranks, want, &items, &residency);
            if overlap > 0 {
                obs::counter_cached(&LOCALITY_HITS, "sched_locality_hits_total").inc();
            }
            for &r in &group {
                free[r] = false;
            }
            let dispatched_at = Instant::now();
            // Per-attempt wait, measured from this attempt's enqueue —
            // requeued attempts must not re-report the first attempt's
            // queue time plus the failed dispatch's timeout window.
            let wait = dispatched_at.duration_since(q.enqueued_at);
            obs::counter_cached(&JOBS_DISPATCHED, "sched_jobs_dispatched_total").inc();
            // The job's trace context scopes the dispatch: the queued
            // and dispatch spans link under the client's root span, and
            // the command frame carries the dispatch span onward so
            // worker spans nest beneath it.
            let _trace = obs::install_ctx(q.ctx);
            if q.attempt == 0 {
                q.first_wait = wait;
                obs::histogram_cached(&QUEUE_WAIT_NS, "sched_queue_wait_ns").record_duration(wait);
                obs::complete_span_ctx(
                    "sched.queued",
                    "sched",
                    q.submitted_at,
                    dispatched_at,
                    q.ctx,
                    &[
                        ("job", obs::ArgValue::U64(q.job)),
                        ("workers", obs::ArgValue::U64(q.workers as u64)),
                    ],
                );
            } else {
                q.requeue_wait += wait;
            }
            let frame;
            {
                let _s = obs::span("sched.dispatch", "sched")
                    .arg("job", q.job)
                    .arg("workers", group.len());
                let child = _s.ctx_for_children();
                let msg = wire::CommandMsg {
                    job: q.job,
                    command: q.command.clone(),
                    dataset: q.dataset.clone(),
                    params: q.params.clone(),
                    group: group.clone(),
                    attempt: q.attempt,
                    trace_id: child.trace_id,
                    parent_span_id: child.parent_span_id,
                };
                frame = wire::encode_command(&msg);
                for &r in &group {
                    let _ = transport.send(r, tags::COMMAND, frame.clone());
                }
            }
            if q.attempt == 0 {
                let _ = link.emit(encode_event(
                    &EventHeader::JobAccepted {
                        job: q.job,
                        workers: group.len(),
                    },
                    Bytes::new(),
                ));
            }
            last_session = Some(q.session);
            running.insert(
                q.job,
                RunningJob {
                    group,
                    accepted_at: dispatched_at,
                    queue_wait_s: clock.wall_to_modeled(q.first_wait),
                    requeue_wait_s: clock.wall_to_modeled(q.requeue_wait),
                    q,
                    frame,
                    deadline: dispatched_at + resilience.dispatch_timeout,
                    cur_timeout: resilience.dispatch_timeout,
                    retransmits: 0,
                    probe: None,
                },
            );
            progressed = true;
        }

        // 4. Timers of running jobs. A timed-out command is
        // retransmitted; once the retransmit budget is spent, the group
        // is probed for dead ranks. Every rank replays its newest
        // response on a duplicate command, so a retransmission
        // recovers lost commands, lost partials and lost completions
        // uniformly. A probe does not hold up the loop: its pongs come
        // in through `on_worker_frame` like any other frame, which ends
        // the probe once every rank answered. Here a probe only
        // re-pings the silent ranks and, at its deadline, convicts them.
        let now = Instant::now();
        let expired: Vec<JobId> = running
            .iter()
            .filter(|(_, r)| now >= r.deadline)
            .map(|(&j, _)| j)
            .collect();
        for job in expired {
            progressed = true;
            let run = running.get_mut(&job).expect("collected above");
            if run.probe.is_none() && run.retransmits < resilience.max_retransmits {
                run.retransmits += 1;
                run.q.retries += 1;
                obs::counter_cached(&RETRIES, "sched_retries_total").inc();
                run.cur_timeout = run.cur_timeout.mul_f64(resilience.backoff_factor);
                run.deadline = now + run.cur_timeout;
                for &r in &run.group {
                    let _ = transport.send(r, tags::COMMAND, run.frame.clone());
                }
                continue;
            }
            // The nonce filters stale pongs from earlier probes and
            // heartbeats, which share the counter.
            let probe = run.probe.get_or_insert_with(|| {
                probe_nonce += 1;
                Probe {
                    nonce: probe_nonce,
                    answered: HashSet::new(),
                    round_sent_ns: 0,
                    deadline: now + resilience.probe_timeout,
                }
            });
            if now < probe.deadline {
                let ping = wire::encode_ping(&wire::Ping {
                    nonce: probe.nonce,
                    want_delta: false,
                });
                probe.round_sent_ns = obs::now_ns();
                for &r in &run.group {
                    if !probe.answered.contains(&r) {
                        let _ = transport.send(r, tags::PING, ping.clone());
                    }
                }
                run.deadline = (now + PROBE_ROUND).min(probe.deadline);
                continue;
            }
            // Dead rank(s): exclude them permanently, free the
            // survivors and requeue the job at the queue front.
            let run = running.remove(&job).expect("present above");
            let answered = run.probe.expect("probing").answered;
            for &r in &run.group {
                if answered.contains(&r) {
                    free[r] = true;
                } else if dead.insert(r) {
                    free[r] = false;
                    obs::counter_cached(&DEAD_RANKS, "sched_dead_ranks_total").inc();
                }
            }
            if cancels.write().unwrap().remove(&job) {
                // The client had already cancelled this job; its group
                // died before the DONE could confirm. Terminate with the
                // Cancelled final instead of requeueing work nobody
                // wants.
                obs::counter_cached(&JOBS_CANCELLED, "sched_jobs_cancelled_total").inc();
                let _ = link.emit(encode_event(
                    &EventHeader::Cancelled {
                        job,
                        report: JobReport::default(),
                    },
                    Bytes::new(),
                ));
                continue;
            }
            let mut q = run.q;
            q.attempt += 1;
            q.degraded = true;
            // This attempt's wait starts now; the time already burned
            // on the failed dispatch belongs to neither wait metric.
            q.enqueued_at = Instant::now();
            let alive_total = (1..=n_workers).filter(|r| !dead.contains(r)).count();
            if q.attempt >= resilience.max_attempts || alive_total == 0 {
                obs::counter_cached(&JOBS_FAILED, "sched_jobs_failed_total").inc();
                let _ = link.emit(encode_event(
                    &EventHeader::Error {
                        job,
                        message: format!(
                            "job abandoned after {} attempts ({} live workers)",
                            q.attempt, alive_total
                        ),
                    },
                    Bytes::new(),
                ));
            } else {
                obs::counter_cached(&REQUEUES, "sched_requeues_total").inc();
                q.workers = q.workers.min(alive_total);
                queue.push_front(q);
                note_queue_depth(queue.len(), &mut queue_high_watermark);
            }
        }

        // 4b. Telemetry plane: heartbeat pings fan the delta harvest
        // out to every live rank, and the periodic snapshot write keeps
        // `telemetry.json` fresh for `vira top` while evaluating SLOs.
        if last_heartbeat.elapsed() >= telemetry.heartbeat_interval {
            last_heartbeat = Instant::now();
            // Shares the probe's nonce counter so a heartbeat nonce
            // can never alias an in-flight probe nonce.
            probe_nonce += 1;
            let ping = wire::encode_ping(&wire::Ping {
                nonce: probe_nonce,
                want_delta: true,
            });
            let mut sent = 0u64;
            for r in 1..=n_workers {
                if !dead.contains(&r) {
                    let _ = transport.send(r, tags::PING, ping.clone());
                    sent += 1;
                }
            }
            obs::counter_cached(&HEARTBEATS, "obs_heartbeats_total").add(sent);
        }
        if last_write.elapsed() >= telemetry.write_interval {
            last_write = Instant::now();
            telemetry_tick(
                &telemetry,
                &mut tsdb,
                &mut slo_engine,
                queue.len(),
                running.len(),
                n_workers,
                &dead,
                &residency,
                false,
            );
        }

        // 5. Exit once shut down and drained.
        if shutting_down && running.is_empty() {
            // One last snapshot, marked final so `vira top` in follow
            // mode knows the run is over.
            telemetry_tick(
                &telemetry,
                &mut tsdb,
                &mut slo_engine,
                queue.len(),
                running.len(),
                n_workers,
                &dead,
                &residency,
                true,
            );
            for r in 1..=n_workers {
                let _ = transport.send(r, tags::SHUTDOWN, Bytes::new());
            }
            return;
        }

        // 6. Idle wait: block briefly on worker traffic so the loop does
        // not spin. Whatever arrives first is handled inline, as in
        // step 2 — a DONE may not overtake packets queued before it.
        if !progressed {
            let wait_started = Instant::now();
            let waited = transport.recv_timeout(Duration::from_micros(500));
            obs::counter_cached(&IDLE_WAIT_NS, "sched_idle_wait_ns_total")
                .add(wait_started.elapsed().as_nanos() as u64);
            match waited {
                Ok(msg) => on_worker_frame(
                    msg,
                    &mut running,
                    &mut free,
                    &mut dead,
                    &cancels,
                    &clock,
                    &link,
                    &mut residency,
                    &mut tsdb,
                ),
                Err(CommError::Timeout) => {}
                Err(_) => return,
            }
        }
    }
}

/// Handles one frame from a worker rank: a completion, a pong (a
/// heartbeat's, or an answer to a running job's probe), a rejoin, or a
/// streamed packet to forward. Anything else is stale traffic and
/// dropped.
#[allow(clippy::too_many_arguments)]
fn on_worker_frame(
    msg: Message,
    running: &mut HashMap<JobId, RunningJob>,
    free: &mut [bool],
    dead: &mut HashSet<Rank>,
    cancels: &CancelSet,
    clock: &SimClock,
    link: &ServerSide,
    residency: &mut HashMap<Rank, ResidencyDigest>,
    tsdb: &mut obs::Tsdb,
) {
    match msg.tag {
        tags::JOB_DONE => handle_job_done(
            msg.payload,
            running,
            free,
            cancels,
            clock,
            link,
            residency,
            tsdb,
        ),
        tags::PONG => {
            // Every pong feeds placement and telemetry; only a probing
            // job's nonce from a member of its group proves a rank alive.
            let Some(pong) = harvest_pong(&msg.payload, msg.from, tsdb, residency) else {
                return;
            };
            let Some(run) = running.values_mut().find(|run| {
                run.probe.as_ref().is_some_and(|p| p.nonce == pong.nonce)
                    && run.group.contains(&msg.from)
            }) else {
                return;
            };
            let probe = run.probe.as_mut().expect("matched above");
            // NTP-style estimate: the worker stamped its clock
            // mid-flight, so offset = t_remote - (t_send + rtt/2). The
            // probe doubles as the flight recorder's clock probe;
            // min-RTT samples win over there.
            let rtt = obs::now_ns().saturating_sub(probe.round_sent_ns);
            let offset = pong.clock_ns as i64 - (probe.round_sent_ns + rtt / 2) as i64;
            obs::flight::record_clock_offset(msg.from as u64, offset, rtt);
            probe.answered.insert(msg.from);
            if probe.answered.len() == run.group.len() {
                // Everyone answered: the job is slow, not stuck. Reset
                // the retransmit budget but keep the grown timeout.
                run.probe = None;
                run.retransmits = 0;
                run.deadline = Instant::now() + run.cur_timeout;
            }
        }
        // A previously-convicted worker rank completed the hub's rejoin
        // handshake: lift its dead-rank exclusion so it is eligible for
        // placement again. Placement state tied to the old process is
        // discarded — the restarted process has a cold cache.
        tags::REJOIN => {
            let r = msg.from;
            if r >= 1 && r < free.len() && dead.remove(&r) {
                residency.remove(&r);
                free[r] = !running.values().any(|run| run.group.contains(&r));
                obs::counter_cached(&REJOINS, "sched_rejoins_total").inc();
            }
        }
        // A remote worker process streaming packets to the client: its
        // EventSender cannot share the link, so the frame rode the
        // transport here and is re-emitted on the real client link
        // verbatim.
        tags::CLIENT_EVENT => {
            let _ = link.emit(msg.payload);
        }
        _ => {}
    }
}

/// Harvests one PONG, a probe's or a heartbeat's alike: the residency
/// digest into the placement map, any metric delta into the tsdb
/// (per-rank seq numbers make the ingest idempotent, so duplicated
/// frames on a lossy transport are dropped there). Returns the pong
/// for the probe's nonce check, or `None` for a damaged frame.
fn harvest_pong(
    frame: &[u8],
    from: Rank,
    tsdb: &mut obs::Tsdb,
    residency: &mut HashMap<Rank, ResidencyDigest>,
) -> Option<wire::Pong> {
    let pong = wire::decode_pong(frame)?;
    if !pong.residency.is_unknown() {
        residency.insert(from, pong.residency.clone());
    }
    if let Ok(delta) = obs::ship::decode(&pong.delta) {
        tsdb.ingest(&delta, obs::now_ns());
    }
    Some(pong)
}

/// One telemetry evaluation pass: refresh the scheduler gauges, cut and
/// ingest rank 0's own metric delta, evaluate the SLOs (emitting any
/// edge-triggered alert events), and — when an output directory is
/// configured — atomically rewrite `telemetry.json`.
#[allow(clippy::too_many_arguments)]
fn telemetry_tick(
    telemetry: &TelemetryConfig,
    tsdb: &mut obs::Tsdb,
    slo_engine: &mut obs::SloEngine,
    queue_depth: usize,
    running_jobs: usize,
    n_workers: usize,
    dead: &HashSet<Rank>,
    residency: &HashMap<Rank, ResidencyDigest>,
    final_snapshot: bool,
) {
    obs::gauge_cached(&QUEUE_DEPTH, "sched_queue_depth").set(queue_depth as i64);
    obs::gauge_cached(&RUNNING_JOBS, "sched_running_jobs").set(running_jobs as i64);
    let now = obs::now_ns();
    // Rank 0 ships to itself: the scheduler's own counters (and, on an
    // in-process world with its shared registry, anything the workers
    // bumped since the last heartbeat) land in the tsdb without a wire
    // round-trip.
    if let Some(d) = obs::take_delta(0) {
        tsdb.ingest(&d, now);
    }
    let statuses = slo_engine.evaluate(tsdb, now);
    let Some(dir) = telemetry.out_dir.as_deref() else {
        return;
    };
    let offsets: HashMap<u64, i64> = obs::flight::clock_offsets()
        .into_iter()
        .map(|(r, s)| (r, s.offset_ns))
        .collect();
    let ranks: Vec<obs::RankMeta> = (1..=n_workers)
        .map(|r| obs::RankMeta {
            rank: r as u64,
            alive: !dead.contains(&r),
            residency_blocks: residency.get(&r).map(|d| d.set_bits() as u64).unwrap_or(0),
            clock_offset_ns: offsets.get(&(r as u64)).copied().unwrap_or(0),
        })
        .collect();
    let text = obs::render_telemetry_json(tsdb, &statuses, &ranks, now, final_snapshot).to_string();
    let _ = std::fs::create_dir_all(dir);
    // Write-then-rename so `vira top` never reads a torn snapshot.
    let tmp = dir.join("telemetry.json.tmp");
    if std::fs::write(&tmp, &text).is_ok() {
        let _ = std::fs::rename(&tmp, dir.join("telemetry.json"));
    }
}

/// Aging bound of backfill: once a queued job has been jumped this many
/// times, nothing behind it may overtake it until it dispatches.
/// Unbounded backfill starves a wide job under a steady stream of
/// small ones; the bound lets a few of them use the idle ranks and then
/// drains the queue until the wide job fits.
const MAX_SKIPPED_DISPATCHES: u32 = 8;

/// Picks the queue index to dispatch next, or `None` when nothing
/// eligible fits the free ranks.
///
/// * Backfill: the scan may pass over jobs that do not fit, but never
///   past the first job that has already been jumped
///   [`MAX_SKIPPED_DISPATCHES`] times (the aging barrier — that job may
///   still be picked itself).
/// * Fair share: within the eligible window, candidate *sessions* are
///   tried round-robin — the first session id strictly greater than
///   the last served one (wrapping), FIFO within each session. With
///   one session this is the first job in the window that fits.
fn select_candidate(
    queue: &VecDeque<QueuedJob>,
    n_free: usize,
    alive: usize,
    last_session: Option<u64>,
) -> Option<usize> {
    if queue.is_empty() || n_free == 0 || alive == 0 {
        return None;
    }
    let fits = |q: &QueuedJob| q.workers.min(alive) <= n_free;
    let limit = queue
        .iter()
        .position(|q| q.skipped >= MAX_SKIPPED_DISPATCHES)
        .unwrap_or(queue.len() - 1);
    let mut sessions: Vec<u64> = queue.iter().take(limit + 1).map(|q| q.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    let pivot = match last_session {
        Some(last) => sessions.iter().position(|&s| s > last).unwrap_or(0),
        None => 0,
    };
    for k in 0..sessions.len() {
        let s = sessions[(pivot + k) % sessions.len()];
        if let Some(i) = (0..=limit).find(|&i| queue[i].session == s && fits(&queue[i])) {
            return Some(i);
        }
    }
    None
}

/// Upper bound on the per-job item footprint used for placement
/// scoring, so scoring stays cheap for huge datasets. The digest is a
/// Bloom-style bitset anyway — a prefix of the footprint is plenty of
/// signal.
const PLACEMENT_ITEM_CAP: usize = 512;

/// The raw `(block, step)` item ids a job will touch: every block of
/// the dataset across the command's
/// [`step_window`](crate::commands::step_window), capped at
/// [`PLACEMENT_ITEM_CAP`].
fn placement_items(
    resolver: &NameResolver,
    server: &DataServer,
    dataset: &str,
    params: &vira_vista::protocol::CommandParams,
) -> Vec<ItemId> {
    let Some(spec) = server.dataset_spec(dataset) else {
        return Vec::new();
    };
    let mut items = Vec::new();
    'outer: for step in crate::commands::step_window(params, spec.n_steps) {
        for block in 0..spec.n_blocks {
            if items.len() >= PLACEMENT_ITEM_CAP {
                break 'outer;
            }
            items.push(resolver.block_step_id(dataset, BlockStepId::new(block, step)));
        }
    }
    items
}

/// Chooses `want` of the free ranks by residency-digest overlap with
/// the job's item footprint (ties fall to the lower rank). The chosen
/// group is returned in ascending rank order — the lowest member is
/// the group master, same invariant as lowest-rank placement. Also
/// returns the summed overlap of the chosen group.
fn place_group(
    free_ranks: &[Rank],
    want: usize,
    items: &[ItemId],
    residency: &HashMap<Rank, ResidencyDigest>,
) -> (Vec<Rank>, usize) {
    let mut scored: Vec<(usize, Rank)> = free_ranks
        .iter()
        .map(|&r| {
            let s = if items.is_empty() {
                0
            } else {
                residency.get(&r).map(|d| d.overlap(items)).unwrap_or(0)
            };
            (s, r)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut total = 0;
    let mut group: Vec<Rank> = scored
        .into_iter()
        .take(want)
        .map(|(s, r)| {
            total += s;
            r
        })
        .collect();
    group.sort_unstable();
    (group, total)
}

/// Where a cancel request lands relative to the job's lifecycle. The
/// three cases need three different actions — drop from the queue,
/// fan CANCEL to the running group, or nothing (idempotent cancel of a
/// finished job) — and only the running case may touch the cancel set.
enum CancelDisposition {
    /// Still queued at this index: drop it, emit the Cancelled final
    /// directly. Must NOT enter the cancel set (it would leak — a
    /// dequeued job never reaches `handle_job_done`).
    Queued(usize),
    /// Running on these ranks: mark the cancel set and fan the CANCEL
    /// tag to every group member.
    Running(Vec<Rank>),
    /// Neither queued nor running — already finished (or never
    /// submitted): no-op.
    Unknown,
}

fn cancel_disposition(
    job: JobId,
    queue: &VecDeque<QueuedJob>,
    running: &HashMap<JobId, RunningJob>,
) -> CancelDisposition {
    if let Some(pos) = queue.iter().position(|q| q.job == job) {
        CancelDisposition::Queued(pos)
    } else if let Some(run) = running.get(&job) {
        CancelDisposition::Running(run.group.clone())
    } else {
        CancelDisposition::Unknown
    }
}

/// Why admission refused a submit: the bounded global queue is full,
/// or the submitting session is over its own queued/in-flight budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdmissionReject {
    QueueFull,
    SessionQuota,
}

/// Pure admission decision for one submit. `None` means admit: control
/// is disabled, or the queue and the session's budget both have room.
/// Global bound first — a full queue sheds everyone, fairness between
/// sessions is the quota's job, not the bound's.
fn admission_verdict(
    admission: &AdmissionConfig,
    queue: &VecDeque<QueuedJob>,
    running: &HashMap<JobId, RunningJob>,
    session: u64,
) -> Option<AdmissionReject> {
    if !admission.enabled {
        return None;
    }
    if queue.len() >= admission.max_queue_depth {
        return Some(AdmissionReject::QueueFull);
    }
    let queued_s = queue.iter().filter(|q| q.session == session).count();
    let running_s = running.values().filter(|r| r.q.session == session).count();
    if queued_s >= admission.max_session_queued
        || queued_s + running_s >= admission.max_session_queued + admission.max_session_running
    {
        return Some(AdmissionReject::SessionQuota);
    }
    None
}

/// Retry-after hint attached to a shed: the configured base plus a
/// linear ramp up to 2x of it as the queue fills. A fuller scheduler
/// pushes retries further out instead of inviting every shed client
/// back at the same instant.
fn busy_retry_hint(admission: &AdmissionConfig, depth: usize) -> u64 {
    let max = admission.max_queue_depth.max(1) as u64;
    let depth = (depth as u64).min(max);
    admission.retry_after_ms + admission.retry_after_ms * depth / max
}

/// Refreshes the queue-depth gauge at the mutation site — not only on
/// the telemetry tick, so bursts shorter than a write interval still
/// show — and keeps the monotone high-watermark counter exactly equal
/// to the deepest queue this scheduler run has observed.
fn note_queue_depth(depth: usize, high_watermark: &mut usize) {
    obs::gauge_cached(&QUEUE_DEPTH, "sched_queue_depth").set(depth as i64);
    if depth > *high_watermark {
        obs::counter_cached(&QUEUE_HIGH_WATERMARK, "sched_queue_high_watermark")
            .add((depth - *high_watermark) as u64);
        *high_watermark = depth;
    }
}

/// Handles one `JOB_DONE` frame from a master worker: frees the group's
/// ranks, clears cancellation state and forwards the merged result (or
/// the error) to the visualization client. Completions from a
/// superseded attempt (the job was requeued meanwhile) are dropped
/// without touching the current dispatch.
#[allow(clippy::too_many_arguments)]
fn handle_job_done(
    frame: Bytes,
    running: &mut HashMap<JobId, RunningJob>,
    free: &mut [bool],
    cancels: &CancelSet,
    clock: &SimClock,
    link: &ServerSide,
    residency: &mut HashMap<Rank, ResidencyDigest>,
    tsdb: &mut obs::Tsdb,
) {
    let Some((done, payload)) = wire::decode_result(tags::JOB_DONE, frame) else {
        return;
    };
    // Harvest the group's piggybacked residency digests and metric
    // deltas before any staleness filtering — even a superseded attempt
    // reports current cache contents, and a delta is a delta no matter
    // which attempt carried it home (per-rank seq numbers in the tsdb
    // drop true duplicates).
    for (r, d) in &done.residency {
        if !d.is_unknown() {
            residency.insert(*r, d.clone());
        }
    }
    for (_, blob) in &done.obs_deltas {
        if let Ok(delta) = obs::ship::decode(blob) {
            tsdb.ingest(&delta, obs::now_ns());
        }
    }
    let stale = match running.get(&done.job) {
        Some(run) => done.attempt != run.q.attempt,
        None => true,
    };
    if stale {
        return;
    }
    let Some(run) = running.remove(&done.job) else {
        return;
    };
    for &r in &run.group {
        free[r] = true;
    }
    // The cancel-set entry doubles as the cancelled-job marker: when
    // the DONE answers a cancelled job, the client gets a `Cancelled`
    // terminal (payload discarded) instead of a `Final` — the
    // DONE-after-CANCEL half of the race, handled idempotently.
    let was_cancelled = cancels.write().unwrap().remove(&done.job);
    let run_elapsed = run.accepted_at.elapsed();
    // The group's accounting came summed in the DONE; the scheduler
    // adds what only it saw.
    let report = JobReport {
        total_runtime_s: clock.wall_to_modeled(run_elapsed),
        queue_wait_s: run.queue_wait_s,
        requeue_wait_s: run.requeue_wait_s,
        retries: run.q.retries,
        degraded: run.q.degraded,
        ..done.report
    };
    obs::complete_span_ctx(
        "sched.job",
        "sched",
        run.accepted_at,
        Instant::now(),
        run.q.ctx,
        &[
            ("job", obs::ArgValue::U64(done.job)),
            ("workers", obs::ArgValue::U64(run.group.len() as u64)),
            ("items", obs::ArgValue::U64(done.n_items as u64)),
        ],
    );
    obs::histogram_cached(&JOB_RUNTIME_NS, "sched_job_runtime_ns").record_duration(run_elapsed);
    if was_cancelled {
        // Whatever geometry (or error) the late DONE carried is
        // discarded — the client abandoned the job and must see exactly
        // one `Cancelled` terminal. Accounting is still reported so the
        // cost of the aborted work stays visible.
        obs::counter_cached(&JOBS_CANCELLED, "sched_jobs_cancelled_total").inc();
        let _ = link.emit(encode_event(
            &EventHeader::Cancelled {
                job: done.job,
                report,
            },
            Bytes::new(),
        ));
        return;
    }
    if let Some(err) = done.error {
        obs::counter_cached(&JOBS_FAILED, "sched_jobs_failed_total").inc();
        let _ = link.emit(encode_event(
            &EventHeader::Error {
                job: done.job,
                message: err,
            },
            Bytes::new(),
        ));
        return;
    }
    obs::counter_cached(&JOBS_DONE, "sched_jobs_done_total").inc();
    let _ = link.emit(encode_event(
        &EventHeader::Final {
            job: done.job,
            kind: done.kind,
            n_items: done.n_items,
            report,
        },
        payload,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_vista::protocol::CommandParams;

    fn qj(job: JobId, workers: usize, session: u64, skipped: u32) -> QueuedJob {
        let now = Instant::now();
        QueuedJob {
            job,
            command: "ViewerIso".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new(),
            workers,
            submitted_at: now,
            enqueued_at: now,
            session,
            attempt: 0,
            retries: 0,
            degraded: false,
            first_wait: Duration::ZERO,
            requeue_wait: Duration::ZERO,
            skipped,
            ctx: obs::TraceCtx::default(),
        }
    }

    fn rj(job: JobId, group: Vec<Rank>) -> RunningJob {
        let now = Instant::now();
        RunningJob {
            group,
            accepted_at: now,
            queue_wait_s: 0.0,
            requeue_wait_s: 0.0,
            q: qj(job, 1, 0, 0),
            frame: Bytes::new(),
            deadline: now + Duration::from_secs(1),
            cur_timeout: Duration::from_secs(1),
            retransmits: 0,
            probe: None,
        }
    }

    #[test]
    fn cancel_disposition_covers_queued_running_and_finished() {
        let queue: VecDeque<QueuedJob> = vec![qj(1, 1, 0, 0), qj(2, 1, 0, 0)].into();
        let mut running: HashMap<JobId, RunningJob> = HashMap::new();
        running.insert(3, rj(3, vec![1, 4]));
        // Queued: reported by index, never via the cancel set.
        assert!(matches!(
            cancel_disposition(2, &queue, &running),
            CancelDisposition::Queued(1)
        ));
        // Running: the CANCEL fan-out targets exactly the work group.
        match cancel_disposition(3, &queue, &running) {
            CancelDisposition::Running(g) => assert_eq!(g, vec![1, 4]),
            _ => panic!("job 3 is running"),
        }
        // Finished/unknown: idempotent no-op.
        assert!(matches!(
            cancel_disposition(9, &queue, &running),
            CancelDisposition::Unknown
        ));
    }

    #[test]
    fn backfill_overtakes_a_blocked_head() {
        let queue: VecDeque<QueuedJob> = vec![qj(1, 8, 0, 0), qj(2, 1, 0, 0)].into();
        // One free rank: the 8-worker head is blocked, the 1-worker job
        // behind it fits.
        assert_eq!(select_candidate(&queue, 1, 9, None), Some(1));
        // With enough free ranks the head wins.
        assert_eq!(select_candidate(&queue, 8, 9, None), Some(0));
    }

    #[test]
    fn aged_job_becomes_a_barrier() {
        let bound = MAX_SKIPPED_DISPATCHES;
        // The blocked head has been jumped `bound` times: the job
        // behind it may no longer overtake.
        let queue: VecDeque<QueuedJob> = vec![qj(1, 2, 0, bound), qj(2, 1, 0, 0)].into();
        assert_eq!(select_candidate(&queue, 1, 2, None), None);
        // Before the bound is reached, the overtake is allowed.
        let queue: VecDeque<QueuedJob> = vec![qj(1, 2, 0, bound - 1), qj(2, 1, 0, 0)].into();
        assert_eq!(select_candidate(&queue, 1, 2, None), Some(1));
        // The aged job itself stays dispatchable the moment it fits.
        let queue: VecDeque<QueuedJob> = vec![qj(1, 2, 0, bound), qj(2, 1, 0, 0)].into();
        assert_eq!(select_candidate(&queue, 2, 2, None), Some(0));
    }

    #[test]
    fn fair_share_rotates_across_sessions() {
        let queue: VecDeque<QueuedJob> =
            vec![qj(1, 1, 0, 0), qj(2, 1, 0, 0), qj(3, 1, 7, 0)].into();
        // Session 0 was just served: session 7's job is next even
        // though two session-0 jobs sit ahead of it.
        assert_eq!(select_candidate(&queue, 4, 4, Some(0)), Some(2));
        // After session 7 the credit wraps back to session 0's oldest.
        assert_eq!(select_candidate(&queue, 4, 4, Some(7)), Some(0));
        // No history: FIFO order (smallest session first here).
        assert_eq!(select_candidate(&queue, 4, 4, None), Some(0));
        // Fair share never picks a job that does not fit.
        let queue: VecDeque<QueuedJob> = vec![qj(1, 1, 0, 0), qj(2, 3, 7, 0)].into();
        assert_eq!(select_candidate(&queue, 1, 4, Some(0)), Some(0));
    }

    fn strict_admission() -> AdmissionConfig {
        AdmissionConfig {
            enabled: true,
            max_queue_depth: 4,
            max_session_queued: 2,
            max_session_running: 1,
            retry_after_ms: 50,
        }
    }

    #[test]
    fn admission_disabled_admits_everything() {
        let admission = AdmissionConfig::default();
        assert!(!admission.enabled);
        // Far past every bound, yet admitted: disabled admission is the
        // historical unbounded-queue behavior.
        let queue: VecDeque<QueuedJob> = (0..5000).map(|j| qj(j, 1, 3, 0)).collect();
        let running: HashMap<JobId, RunningJob> = HashMap::new();
        assert_eq!(admission_verdict(&admission, &queue, &running, 3), None);
    }

    #[test]
    fn admission_sheds_on_full_queue_then_on_session_quota() {
        let admission = strict_admission();
        let running: HashMap<JobId, RunningJob> = HashMap::new();
        // Global bound first: a full queue sheds even a quota-clean
        // session.
        let queue: VecDeque<QueuedJob> = (0..4).map(|j| qj(j, 1, j, 0)).collect();
        assert_eq!(
            admission_verdict(&admission, &queue, &running, 99),
            Some(AdmissionReject::QueueFull)
        );
        // Under the global bound, the per-session queued budget bites…
        let queue: VecDeque<QueuedJob> = vec![qj(1, 1, 7, 0), qj(2, 1, 7, 0)].into();
        assert_eq!(
            admission_verdict(&admission, &queue, &running, 7),
            Some(AdmissionReject::SessionQuota)
        );
        // …while another session still gets in.
        assert_eq!(admission_verdict(&admission, &queue, &running, 8), None);
        // Queued + running budget: one queued job plus enough in-flight
        // work crosses the combined quota.
        let queue: VecDeque<QueuedJob> = vec![qj(1, 1, 7, 0)].into();
        let mut running: HashMap<JobId, RunningJob> = HashMap::new();
        for j in 10..12 {
            let mut run = rj(j, vec![1]);
            run.q.session = 7;
            running.insert(j, run);
        }
        assert_eq!(
            admission_verdict(&admission, &queue, &running, 7),
            Some(AdmissionReject::SessionQuota)
        );
        // The same load on someone else's session is irrelevant.
        assert_eq!(admission_verdict(&admission, &queue, &running, 8), None);
    }

    #[test]
    fn busy_retry_hint_ramps_with_queue_depth() {
        let admission = AdmissionConfig {
            retry_after_ms: 50,
            max_queue_depth: 100,
            ..strict_admission()
        };
        // Empty queue: the base hint. Full queue: exactly double.
        assert_eq!(busy_retry_hint(&admission, 0), 50);
        assert_eq!(busy_retry_hint(&admission, 50), 75);
        assert_eq!(busy_retry_hint(&admission, 100), 100);
        // Depth beyond the bound clamps instead of overflowing the ramp.
        assert_eq!(busy_retry_hint(&admission, 100_000), 100);
        // A zero bound must not divide by zero.
        let degenerate = AdmissionConfig {
            max_queue_depth: 0,
            retry_after_ms: 10,
            ..strict_admission()
        };
        assert_eq!(busy_retry_hint(&degenerate, 0), 10);
    }

    #[test]
    fn queue_high_watermark_tracks_the_deepest_queue_only() {
        let mut hwm = 0usize;
        note_queue_depth(3, &mut hwm);
        assert_eq!(hwm, 3);
        // Draining the queue never lowers the watermark…
        note_queue_depth(0, &mut hwm);
        assert_eq!(hwm, 3);
        // …and a deeper burst raises it by exactly the difference.
        note_queue_depth(5, &mut hwm);
        assert_eq!(hwm, 5);
        note_queue_depth(5, &mut hwm);
        assert_eq!(hwm, 5);
    }

    /// Fair-share starvation bound: with K distinct sessions all
    /// holding fitting jobs, no session waits more than K
    /// consecutive dispatches — for any queue interleaving and any
    /// pivot (`last_session`), including wrap-around past the
    /// largest session id.
    #[test]
    fn fair_share_serves_every_session_within_k_dispatches() {
        vira_testkit::check(vira_testkit::DEFAULT_CASES, |g| {
            let entries = g.vec(1..24, |g| g.u64_in(0..6));
            let last = g.bool().then(|| g.u64());
            let mut queue: VecDeque<QueuedJob> = entries
                .iter()
                .enumerate()
                .map(|(j, &s)| qj(j as u64, 1, s, 0))
                .collect();
            let k = {
                let mut s: Vec<u64> = entries.clone();
                s.sort_unstable();
                s.dedup();
                s.len()
            };
            let mut last_session = last;
            let mut waited: HashMap<u64, usize> = HashMap::new();
            while !queue.is_empty() {
                // Every job fits (1 worker, 16 free): a starved session
                // can only be the rotation's fault.
                let idx = select_candidate(&queue, 16, 16, last_session)
                    .expect("fitting jobs are always dispatchable");
                let q = queue.remove(idx).unwrap();
                waited.remove(&q.session);
                // One dispatch is one wait per *session* still queued,
                // however many jobs it holds.
                let mut waiting: Vec<u64> = queue.iter().map(|w| w.session).collect();
                waiting.sort_unstable();
                waiting.dedup();
                for s in waiting.into_iter().filter(|&s| s != q.session) {
                    let n = waited.entry(s).or_insert(0);
                    *n += 1;
                    assert!(
                        *n < k,
                        "session {s} waited {n} dispatches with only {k} sessions live"
                    );
                }
                last_session = Some(q.session);
            }
        });
    }

    #[test]
    fn place_group_prefers_warm_ranks_and_keeps_master_lowest() {
        let items: Vec<ItemId> = (0..8).map(ItemId).collect();
        let mut residency = HashMap::new();
        let mut warm = ResidencyDigest::empty();
        for &i in &items {
            warm.insert(i);
        }
        residency.insert(4, warm.clone());
        residency.insert(3, warm);
        let free = vec![1, 2, 3, 4];
        let (group, overlap) = place_group(&free, 2, &items, &residency);
        // The two warm ranks win over the lower cold ones…
        assert_eq!(group, vec![3, 4]);
        assert_eq!(overlap, 16);
        // …and the group is ascending so rank 3 is the master.
        let (cold, zero) = place_group(&free, 2, &items, &HashMap::new());
        // No residency knowledge degenerates to lowest-rank placement.
        assert_eq!(cold, vec![1, 2]);
        assert_eq!(zero, 0);
    }

    #[test]
    fn harvest_obs_pong_feeds_the_tsdb_and_residency_map() {
        let mut tsdb = obs::Tsdb::default();
        let mut residency: HashMap<Rank, ResidencyDigest> = HashMap::new();
        let digest = ResidencyDigest::from_items([ItemId(3)]);
        let pong = wire::encode_pong(&wire::Pong {
            nonce: 1,
            clock_ns: 123,
            residency: digest.clone(),
            delta: "OBSD1 2 1 100\nc sched_jobs_done_total 5\n".into(),
        });
        let got = harvest_pong(&pong, 2, &mut tsdb, &mut residency).unwrap();
        assert_eq!((got.nonce, got.clock_ns), (1, 123));
        assert_eq!(residency.get(&2), Some(&digest));
        assert_eq!(tsdb.counter_total("sched_jobs_done_total"), 5);
        // A duplicated frame (lossy transport) is dropped by seq.
        harvest_pong(&pong, 2, &mut tsdb, &mut residency);
        assert_eq!(tsdb.counter_total("sched_jobs_done_total"), 5);
        assert_eq!(tsdb.dup_dropped(), 1);
        // A damaged pong is ignored outright.
        let mut damaged = pong.to_vec();
        damaged[0] ^= 1;
        assert!(harvest_pong(&damaged, 1, &mut tsdb, &mut residency).is_none());
        assert!(!residency.contains_key(&1));
    }

    #[test]
    fn placement_items_respect_step_window_and_cap() {
        let server = DataServer::new(
            SimClock::instant(),
            vira_dms::server::ServerConfig::default(),
        );
        server.register_dataset(
            Arc::new(vira_storage::source::SynthSource::new(Arc::new(
                vira_grid::synth::test_cube(4, 3),
            ))),
            false,
        );
        let resolver = NameResolver::new(server.names().clone());
        let all = placement_items(&resolver, &server, "TestCube", &CommandParams::new());
        // 4-ish blocks × 3 steps, distinct ids.
        let spec = server.dataset_spec("TestCube").unwrap();
        assert_eq!(all.len(), (spec.n_blocks * spec.n_steps) as usize);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        // A one-step window shrinks the footprint accordingly.
        let one = placement_items(
            &resolver,
            &server,
            "TestCube",
            &CommandParams::new().set("n_steps", 1.0),
        );
        assert_eq!(one.len(), spec.n_blocks as usize);
        // Unknown datasets have no footprint (and never panic).
        assert!(placement_items(&resolver, &server, "nope", &CommandParams::new()).is_empty());
    }
}
