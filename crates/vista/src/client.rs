//! The visualization-client stand-in.
//!
//! In production this would be ViSTA FlowLib: a VR application that
//! receives streamed geometry, assembles it just in time for the next
//! rendering loop, and displays it. The stand-in performs everything but
//! the rendering — packet assembly, validation, and precise timing of
//! *when* geometry became available, which is the latency measurement of
//! the paper's Figures 8 and 12.

use crate::protocol::{
    decode_event, decode_polylines, encode_request, ClientRequest, CommandParams, EventHeader,
    JobId, JobReport, PayloadKind, ProtocolError,
};
use bytes::Bytes;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use vira_comm::link::ClientSide;
use vira_comm::transport::CommError;
use vira_extract::mesh::{Polyline, TriangleSoup};
use vira_obs as obs;

// Streaming metrics (client side of the paper's Fig. 8/12 latency path).
static PACKETS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static STREAM_BYTES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static STREAM_ITEMS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static JOBS_COLLECTED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static FIRST_RESULT_NS: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
static DUP_DROPPED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static BUSY_REJECTIONS: OnceLock<Arc<obs::Counter>> = OnceLock::new();

/// A submission to the back-end.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    pub command: String,
    pub dataset: String,
    pub params: CommandParams,
    pub workers: usize,
}

/// Arrival record of one streamed packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    pub seq: u32,
    pub from_worker: usize,
    /// Wall time since submission.
    pub elapsed: Duration,
    pub n_items: u32,
    /// Cumulative items (triangles/polylines) after this packet.
    pub cumulative_items: u64,
}

/// One progress report from a worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressRecord {
    pub from_worker: usize,
    /// Wall time since submission.
    pub elapsed: Duration,
    pub fraction: f32,
}

/// The assembled outcome of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub job: JobId,
    pub triangles: TriangleSoup,
    pub polylines: Vec<Polyline>,
    /// Streamed-packet arrival series (empty for non-streamed commands).
    pub packets: Vec<PacketRecord>,
    /// Per-worker progress reports in arrival order.
    pub progress: Vec<ProgressRecord>,
    /// Wall time from submission until the *first* geometry was decoded —
    /// the latency figure that matters, queueing behind earlier jobs
    /// included. For non-streamed commands it ends at the final event.
    pub first_result_wall: Option<Duration>,
    /// Wall time from submission to the final event.
    pub total_wall: Duration,
    pub report: JobReport,
    /// True when the job terminated with a `Cancelled` event instead of
    /// a `Final`; geometry assembled from partials that arrived before
    /// the cancel is kept.
    pub cancelled: bool,
}

/// Why the back-end rejected a submission before queueing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission-control backpressure: the global queue or the session's
    /// quota is full *right now*. Resubmitting after `retry_after_ms`
    /// (the scheduler's hint, when present) is expected to succeed.
    Busy {
        message: String,
        retry_after_ms: Option<u64>,
        /// Scheduler queue depth at rejection time, for client-side
        /// backoff scaling.
        queue_depth: Option<u64>,
    },
    /// Permanent refusal (unknown command, unregistered dataset,
    /// shutdown): resubmitting the same job cannot succeed.
    Refused(String),
}

impl RejectReason {
    /// Classifies a wire rejection. Frames carrying either busy field
    /// are admission sheds; frames with both `null` (validation
    /// refusals, shutdown) are permanent.
    pub fn from_wire(
        reason: String,
        retry_after_ms: Option<u64>,
        queue_depth: Option<u64>,
    ) -> RejectReason {
        if retry_after_ms.is_some() || queue_depth.is_some() {
            RejectReason::Busy {
                message: reason,
                retry_after_ms,
                queue_depth,
            }
        } else {
            RejectReason::Refused(reason)
        }
    }

    /// The human-readable reason string from the wire.
    pub fn message(&self) -> &str {
        match self {
            RejectReason::Busy { message, .. } => message,
            RejectReason::Refused(message) => message,
        }
    }

    /// The scheduler's resubmit hint, on busy rejections that carry one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            RejectReason::Busy { retry_after_ms, .. } => *retry_after_ms,
            RejectReason::Refused(_) => None,
        }
    }

    /// True for transient admission-control sheds (worth resubmitting).
    pub fn is_busy(&self) -> bool {
        matches!(self, RejectReason::Busy { .. })
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Busy {
                message,
                retry_after_ms,
                ..
            } => match retry_after_ms {
                Some(ms) => write!(f, "{message} (busy, retry after {ms} ms)"),
                None => write!(f, "{message} (busy)"),
            },
            RejectReason::Refused(message) => write!(f, "{message}"),
        }
    }
}

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    Comm(CommError),
    Protocol(ProtocolError),
    Rejected(RejectReason),
    JobFailed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Comm(e) => write!(f, "link error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected(r) => write!(f, "job rejected: {r}"),
            ClientError::JobFailed(m) => write!(f, "job failed: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<CommError> for ClientError {
    fn from(e: CommError) -> Self {
        ClientError::Comm(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// The ViSTA FlowLib stand-in.
pub struct VistaClient {
    link: ClientSide,
    next_job: JobId,
    /// Session id stamped on submissions; the scheduler round-robins
    /// dispatch credit across sessions.
    session: u64,
    /// Events of jobs other than the one currently being collected
    /// (concurrent jobs finish in any order).
    buffered: std::collections::VecDeque<(EventHeader, Bytes)>,
    /// Causal trace context and submit instant per in-flight job; the
    /// context is stamped on the Submit frame so every back-end span
    /// of the job links to the same trace. Entries are removed when
    /// the job is collected.
    traces: std::collections::HashMap<JobId, (obs::TraceCtx, Instant)>,
}

impl VistaClient {
    pub fn new(link: ClientSide) -> Self {
        VistaClient {
            link,
            next_job: 1,
            session: 0,
            buffered: std::collections::VecDeque::new(),
            traces: std::collections::HashMap::new(),
        }
    }

    /// Sets the session id stamped on subsequent submissions. Multiple
    /// VR sessions sharing one back-end pick distinct ids so the
    /// scheduler's fair-share credit treats them separately.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    pub fn session(&self) -> u64 {
        self.session
    }

    /// The next event for `job`: buffered first, then fresh from the
    /// link (buffering events of other jobs).
    fn next_event_for(&mut self, job: JobId) -> Result<(EventHeader, Bytes), ClientError> {
        if let Some(pos) = self.buffered.iter().position(|(h, _)| h.job() == job) {
            return Ok(self.buffered.remove(pos).expect("position just found"));
        }
        loop {
            let frame = self.link.next_event()?;
            let (header, payload) = decode_event(frame)?;
            if header.job() == job {
                return Ok((header, payload));
            }
            self.buffered.push_back((header, payload));
        }
    }

    /// Submits a command and blocks until its final result, assembling
    /// all streamed partials on the way.
    pub fn run(&mut self, spec: &SubmitSpec) -> Result<JobOutcome, ClientError> {
        let job = self.submit(spec)?;
        self.collect(job)
    }

    /// Sends the submit request; returns the job id for later
    /// collection.
    pub fn submit(&mut self, spec: &SubmitSpec) -> Result<JobId, ClientError> {
        let job = self.next_job;
        self.next_job += 1;
        let ctx = obs::TraceCtx::mint();
        self.traces.insert(job, (ctx, Instant::now()));
        let req = ClientRequest::Submit {
            job,
            command: spec.command.clone(),
            dataset: spec.dataset.clone(),
            params: spec.params.clone(),
            workers: spec.workers,
            session: self.session,
            trace_id: ctx.trace_id,
            parent_span_id: ctx.parent_span_id,
        };
        self.link.request(encode_request(&req))?;
        Ok(job)
    }

    /// The causal trace context minted for an in-flight job (None once
    /// the job has been collected) — lets harnesses pair a job's
    /// outcome with its `flight-<trace_id>.jsonl` recording.
    pub fn trace_ctx(&self, job: JobId) -> Option<obs::TraceCtx> {
        self.traces.get(&job).map(|(ctx, _)| *ctx)
    }

    /// Requests cancellation of a running job.
    pub fn cancel(&mut self, job: JobId) -> Result<(), ClientError> {
        self.link
            .request(encode_request(&ClientRequest::Cancel { job }))?;
        Ok(())
    }

    /// Asks the back-end to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.link
            .request(encode_request(&ClientRequest::Shutdown))?;
        Ok(())
    }

    /// Blocks until `job` finishes, assembling partial packets. Events
    /// belonging to other jobs are not expected in the single-outstanding
    /// usage pattern and are skipped.
    pub fn collect(&mut self, job: JobId) -> Result<JobOutcome, ClientError> {
        self.collect_inner(job, None)
    }

    /// Like [`collect`](Self::collect), but sends a
    /// [`ClientRequest::Cancel`] once `after_packets` streamed partials
    /// have arrived, then keeps collecting until the terminal event —
    /// the interactive-steering pattern of aborting a long extraction
    /// mid-stream. The returned outcome has `cancelled == true` when
    /// the back-end honored the cancel before finishing.
    pub fn collect_cancelling_after(
        &mut self,
        job: JobId,
        after_packets: usize,
    ) -> Result<JobOutcome, ClientError> {
        self.collect_inner(job, Some(after_packets))
    }

    fn collect_inner(
        &mut self,
        job: JobId,
        cancel_after: Option<usize>,
    ) -> Result<JobOutcome, ClientError> {
        // Install the job's trace context so the collect span (and any
        // events fired while assembling) land in the job's flight
        // recording. Every wall time of the outcome — packets, progress,
        // first geometry, the final event — counts from submit, so a job
        // that queued behind others shows its wait.
        let (ctx, submitted_at) = self
            .traces
            .remove(&job)
            .unwrap_or_else(|| (obs::current_ctx(), Instant::now()));
        let _ctx_guard = obs::install_ctx(ctx);
        let mut span = obs::span("vista.collect", "vista").arg("job", job);
        let mut triangles = TriangleSoup::new();
        let mut polylines: Vec<Polyline> = Vec::new();
        let mut packets = Vec::new();
        let mut progress = Vec::new();
        let mut first: Option<Duration> = None;
        let mut cumulative: u64 = 0;
        // A requeued attempt restarts every rank's packet seq at 0 and
        // re-streams packets that reached the client the first time
        // (partials carry no attempt number); geometry must not be
        // ingested twice.
        let mut seen: std::collections::HashSet<(usize, u32)> = std::collections::HashSet::new();
        // Threshold for the mid-stream cancel, disarmed once sent.
        let mut cancel_at = cancel_after;
        loop {
            let (header, payload) = self.next_event_for(job)?;
            match header {
                EventHeader::JobAccepted { .. } => {}
                EventHeader::JobRejected {
                    reason,
                    retry_after_ms,
                    queue_depth,
                    ..
                } => {
                    let reason = RejectReason::from_wire(reason, retry_after_ms, queue_depth);
                    if reason.is_busy() {
                        obs::counter_cached(&BUSY_REJECTIONS, "vista_busy_rejections_total").inc();
                    }
                    return Err(ClientError::Rejected(reason));
                }
                EventHeader::Partial {
                    seq,
                    kind,
                    n_items,
                    from_worker,
                    ..
                } => {
                    if !seen.insert((from_worker, seq)) {
                        obs::counter_cached(&DUP_DROPPED, "vista_dup_dropped_total").inc();
                        continue;
                    }
                    let elapsed = submitted_at.elapsed();
                    obs::counter_cached(&PACKETS, "vista_packets_total").inc();
                    obs::counter_cached(&STREAM_BYTES, "vista_stream_bytes_total")
                        .add(payload.len() as u64);
                    obs::counter_cached(&STREAM_ITEMS, "vista_stream_items_total")
                        .add(n_items as u64);
                    Self::ingest(kind, payload, &mut triangles, &mut polylines)?;
                    cumulative += n_items as u64;
                    if n_items > 0 && first.is_none() {
                        first = Some(Self::first_geometry(job, ctx, submitted_at));
                    }
                    packets.push(PacketRecord {
                        seq,
                        from_worker,
                        elapsed,
                        n_items,
                        cumulative_items: cumulative,
                    });
                    if cancel_at.is_some_and(|n| packets.len() >= n) {
                        cancel_at = None;
                        self.link
                            .request(encode_request(&ClientRequest::Cancel { job }))?;
                    }
                }
                EventHeader::Final {
                    kind,
                    n_items,
                    report,
                    ..
                } => {
                    obs::counter_cached(&STREAM_BYTES, "vista_stream_bytes_total")
                        .add(payload.len() as u64);
                    Self::ingest(kind, payload, &mut triangles, &mut polylines)?;
                    if n_items > 0 && first.is_none() {
                        first = Some(Self::first_geometry(job, ctx, submitted_at));
                    }
                    obs::counter_cached(&JOBS_COLLECTED, "vista_jobs_collected_total").inc();
                    span.set_arg("packets", packets.len());
                    span.set_arg("items", cumulative + n_items as u64);
                    return Ok(JobOutcome {
                        job,
                        triangles,
                        polylines,
                        packets,
                        progress,
                        first_result_wall: first,
                        total_wall: submitted_at.elapsed(),
                        report,
                        cancelled: false,
                    });
                }
                EventHeader::Error { message, .. } => {
                    return Err(ClientError::JobFailed(message));
                }
                EventHeader::Cancelled { report, .. } => {
                    // Terminal: the back-end confirms no more events for
                    // this job. Partials assembled so far stay valid.
                    obs::counter_cached(&JOBS_COLLECTED, "vista_jobs_collected_total").inc();
                    span.set_arg("packets", packets.len());
                    span.set_arg("cancelled", 1u64);
                    return Ok(JobOutcome {
                        job,
                        triangles,
                        polylines,
                        packets,
                        progress,
                        first_result_wall: first,
                        total_wall: submitted_at.elapsed(),
                        report,
                        cancelled: true,
                    });
                }
                EventHeader::Progress {
                    from_worker,
                    fraction,
                    ..
                } => {
                    progress.push(ProgressRecord {
                        from_worker,
                        elapsed: submitted_at.elapsed(),
                        fraction,
                    });
                }
            }
        }
    }

    /// Time to first geometry, from submit until the first payload with
    /// items is decoded: the outcome's `first_result_wall`, the live
    /// `vista_first_result_ns` histogram and the `vista.first_result`
    /// span the critical-path analyzer reads as the job's ttft.
    fn first_geometry(job: JobId, ctx: obs::TraceCtx, submitted_at: Instant) -> Duration {
        let now = Instant::now();
        let ttfg = now - submitted_at;
        obs::histogram_cached(&FIRST_RESULT_NS, "vista_first_result_ns").record_duration(ttfg);
        obs::complete_span_ctx(
            "vista.first_result",
            "vista",
            submitted_at,
            now,
            ctx,
            &[("job", obs::ArgValue::U64(job))],
        );
        ttfg
    }

    fn ingest(
        kind: PayloadKind,
        payload: Bytes,
        triangles: &mut TriangleSoup,
        polylines: &mut Vec<Polyline>,
    ) -> Result<(), ClientError> {
        match kind {
            PayloadKind::Triangles => {
                let soup = TriangleSoup::from_bytes(payload).ok_or(ClientError::Protocol(
                    ProtocolError::Malformed("bad triangle payload".into()),
                ))?;
                triangles.extend_from(&soup);
            }
            PayloadKind::Polylines => {
                polylines.extend(decode_polylines(payload)?);
            }
            PayloadKind::None => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_request, encode_event, triangle_packet};
    use vira_comm::link::client_server_link;
    use vira_grid::math::Vec3;

    fn one_tri() -> TriangleSoup {
        let mut s = TriangleSoup::new();
        s.push_tri(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        s
    }

    /// A minimal fake back-end: accepts one job, streams two packets,
    /// finishes.
    fn fake_backend(streamed: usize) -> (VistaClient, std::thread::JoinHandle<()>) {
        let (client_side, server_side) = client_server_link();
        let handle = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            server_side
                .emit(encode_event(
                    &EventHeader::JobAccepted { job, workers: 1 },
                    Bytes::new(),
                ))
                .unwrap();
            for seq in 0..streamed as u32 {
                server_side
                    .emit(triangle_packet(job, seq, 0, &one_tri()))
                    .unwrap();
            }
            server_side
                .emit(encode_event(
                    &EventHeader::Final {
                        job,
                        kind: PayloadKind::None,
                        n_items: 0,
                        report: JobReport {
                            triangles: streamed as u64,
                            total_runtime_s: 1.0,
                            ..JobReport::default()
                        },
                    },
                    Bytes::new(),
                ))
                .unwrap();
        });
        (VistaClient::new(client_side), handle)
    }

    fn spec() -> SubmitSpec {
        SubmitSpec {
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 0.5),
            workers: 2,
        }
    }

    #[test]
    fn streamed_job_assembles_packets() {
        let (mut client, h) = fake_backend(3);
        let out = client.run(&spec()).unwrap();
        h.join().unwrap();
        assert_eq!(out.triangles.n_triangles(), 3);
        assert_eq!(out.packets.len(), 3);
        assert!(out.first_result_wall.is_some());
        assert!(out.first_result_wall.unwrap() <= out.total_wall);
        assert_eq!(out.packets.last().unwrap().cumulative_items, 3);
        assert_eq!(out.report.triangles, 3);
    }

    #[test]
    fn ttfg_of_a_pipelined_job_includes_its_queueing_delay() {
        // Two jobs in flight at once on a back-end that serves one at a
        // time: the second waits out the first's 40 ms, then takes 5 ms.
        // Each final report carries the wait the back-end saw, from the
        // submit's arrival to the start of service.
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let arrivals: Vec<(JobId, Instant)> = (0..2)
                .map(|_| {
                    let frame = server_side.next_request().unwrap();
                    let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                        panic!("expected submit");
                    };
                    (job, Instant::now())
                })
                .collect();
            for ((job, arrived), service_ms) in arrivals.into_iter().zip([40, 5]) {
                let queued = arrived.elapsed();
                std::thread::sleep(Duration::from_millis(service_ms));
                server_side
                    .emit(triangle_packet(job, 0, 0, &one_tri()))
                    .unwrap();
                let report = JobReport {
                    triangles: 1,
                    queue_wait_s: queued.as_secs_f64(),
                    ..JobReport::default()
                };
                let last = EventHeader::Final {
                    job,
                    kind: PayloadKind::None,
                    n_items: 0,
                    report,
                };
                server_side.emit(encode_event(&last, Bytes::new())).unwrap();
            }
        });
        let mut client = VistaClient::new(client_side);
        let first = client.submit(&spec()).unwrap();
        let second = client.submit(&spec()).unwrap();
        let outcomes = [
            client.collect(first).unwrap(),
            client.collect(second).unwrap(),
        ];
        h.join().unwrap();
        assert!(outcomes[1].report.queue_wait_s >= 0.040);
        for out in &outcomes {
            let ttfg = out.first_result_wall.expect("one packet with a triangle");
            assert!(
                ttfg.as_secs_f64() >= out.report.queue_wait_s,
                "job {}: ttfg {ttfg:?} < queueing delay {} s",
                out.job,
                out.report.queue_wait_s
            );
            assert!(ttfg <= out.total_wall);
        }
    }

    #[test]
    fn unstreamed_job_has_no_packets() {
        let (mut client, h) = fake_backend(0);
        let out = client.run(&spec()).unwrap();
        h.join().unwrap();
        assert!(out.packets.is_empty());
        assert!(out.first_result_wall.is_none());
        assert!(out.triangles.is_empty());
    }

    #[test]
    fn rejection_is_an_error() {
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            server_side
                .emit(encode_event(
                    &EventHeader::JobRejected {
                        job,
                        reason: "unknown command".into(),
                        retry_after_ms: None,
                        queue_depth: None,
                    },
                    Bytes::new(),
                ))
                .unwrap();
        });
        let mut client = VistaClient::new(client_side);
        match client.run(&spec()) {
            Err(ClientError::Rejected(r)) => {
                // A rejection without busy fields (a validation
                // refusal) is permanent, never a busy shed.
                assert_eq!(r, RejectReason::Refused("unknown command".into()));
                assert!(!r.is_busy());
                assert_eq!(r.message(), "unknown command");
                assert_eq!(r.retry_after_ms(), None);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn busy_rejection_is_structured() {
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            server_side
                .emit(encode_event(
                    &EventHeader::JobRejected {
                        job,
                        reason: "busy: queue full".into(),
                        retry_after_ms: Some(40),
                        queue_depth: Some(16),
                    },
                    Bytes::new(),
                ))
                .unwrap();
        });
        let mut client = VistaClient::new(client_side);
        match client.run(&spec()) {
            Err(ClientError::Rejected(r)) => {
                assert!(r.is_busy());
                assert_eq!(r.retry_after_ms(), Some(40));
                assert_eq!(r.message(), "busy: queue full");
                assert!(r.to_string().contains("retry after 40 ms"));
            }
            other => panic!("expected busy rejection, got {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn backend_error_event_fails_the_job() {
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            server_side
                .emit(encode_event(
                    &EventHeader::Error {
                        job,
                        message: "dataset missing".into(),
                    },
                    Bytes::new(),
                ))
                .unwrap();
        });
        let mut client = VistaClient::new(client_side);
        assert!(matches!(
            client.run(&spec()),
            Err(ClientError::JobFailed(_))
        ));
        h.join().unwrap();
    }

    #[test]
    fn progress_events_are_recorded() {
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            for (w, f) in [(1usize, 0.5f32), (2, 0.25), (1, 1.0)] {
                server_side
                    .emit(encode_event(
                        &EventHeader::Progress {
                            job,
                            from_worker: w,
                            fraction: f,
                        },
                        Bytes::new(),
                    ))
                    .unwrap();
            }
            server_side
                .emit(encode_event(
                    &EventHeader::Final {
                        job,
                        kind: PayloadKind::None,
                        n_items: 0,
                        report: JobReport::default(),
                    },
                    Bytes::new(),
                ))
                .unwrap();
        });
        let mut client = VistaClient::new(client_side);
        let out = client.run(&spec()).unwrap();
        h.join().unwrap();
        assert_eq!(out.progress.len(), 3);
        assert_eq!(out.progress[0].from_worker, 1);
        assert_eq!(out.progress[0].fraction, 0.5);
        assert_eq!(out.progress[2].fraction, 1.0);
    }

    #[test]
    fn duplicate_partials_are_dropped() {
        // A requeued attempt re-streams some packets; the client must
        // ingest each (worker, seq) once.
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            for seq in [0u32, 1, 0, 1, 2, 2] {
                server_side
                    .emit(triangle_packet(job, seq, 0, &one_tri()))
                    .unwrap();
            }
            server_side
                .emit(encode_event(
                    &EventHeader::Final {
                        job,
                        kind: PayloadKind::None,
                        n_items: 0,
                        report: JobReport::default(),
                    },
                    Bytes::new(),
                ))
                .unwrap();
        });
        let mut client = VistaClient::new(client_side);
        let out = client.run(&spec()).unwrap();
        h.join().unwrap();
        assert_eq!(out.triangles.n_triangles(), 3, "each seq ingested once");
        assert_eq!(out.packets.len(), 3);
        let seqs: Vec<u32> = out.packets.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn cancelled_final_keeps_streamed_geometry() {
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            for seq in 0..2u32 {
                server_side
                    .emit(triangle_packet(job, seq, 0, &one_tri()))
                    .unwrap();
            }
            // The client cancels after the second packet; confirm the
            // request arrives, then terminate with Cancelled.
            let frame = server_side.next_request().unwrap();
            match decode_request(frame).unwrap() {
                ClientRequest::Cancel { job: j } => assert_eq!(j, job),
                other => panic!("expected cancel, got {other:?}"),
            }
            server_side
                .emit(encode_event(
                    &EventHeader::Cancelled {
                        job,
                        report: JobReport {
                            triangles: 2,
                            ..JobReport::default()
                        },
                    },
                    Bytes::new(),
                ))
                .unwrap();
        });
        let mut client = VistaClient::new(client_side);
        let job = client.submit(&spec()).unwrap();
        let out = client.collect_cancelling_after(job, 2).unwrap();
        h.join().unwrap();
        assert!(out.cancelled);
        assert_eq!(out.triangles.n_triangles(), 2, "pre-cancel partials kept");
        assert_eq!(out.packets.len(), 2);
        assert_eq!(out.report.triangles, 2);
    }

    #[test]
    fn job_ids_increment() {
        let (client_side, _server_side) = client_server_link();
        let mut client = VistaClient::new(client_side);
        let a = client.submit(&spec()).unwrap();
        let b = client.submit(&spec()).unwrap();
        assert_eq!(b, a + 1);
    }

    #[test]
    fn session_id_is_stamped_on_submissions() {
        let (client_side, server_side) = client_server_link();
        let mut client = VistaClient::new(client_side);
        assert_eq!(client.session(), 0, "default session");
        client.set_session(42);
        client.submit(&spec()).unwrap();
        let frame = server_side.next_request().unwrap();
        match decode_request(frame).unwrap() {
            ClientRequest::Submit { session, .. } => assert_eq!(session, 42),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn trace_context_is_minted_and_stamped_on_submissions() {
        let (client_side, server_side) = client_server_link();
        let mut client = VistaClient::new(client_side);
        let job = client.submit(&spec()).unwrap();
        let ctx = client.trace_ctx(job).unwrap();
        assert!(ctx.trace_id != 0 && ctx.parent_span_id != 0);
        let frame = server_side.next_request().unwrap();
        match decode_request(frame).unwrap() {
            ClientRequest::Submit {
                trace_id,
                parent_span_id,
                ..
            } => {
                assert_eq!(trace_id, ctx.trace_id);
                assert_eq!(parent_span_id, ctx.parent_span_id);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        // Every submission gets a fresh trace.
        let job2 = client.submit(&spec()).unwrap();
        assert_ne!(client.trace_ctx(job2).unwrap().trace_id, ctx.trace_id);
    }

    /// `n` triangles, each its own, offset by `z`.
    fn tris(n: usize, z: f64) -> TriangleSoup {
        let mut s = TriangleSoup::new();
        for i in 0..n {
            let x = i as f64;
            s.push_tri(
                Vec3::new(x, 0.0, z),
                Vec3::new(x + 1.0, 0.0, z),
                Vec3::new(x, 1.0, z),
            );
        }
        s
    }

    /// A back-end that accepts one job and answers it with the frames
    /// `answer` makes for its id; joining it returns those frames.
    fn answer_one_job(
        answer: impl FnOnce(JobId) -> Vec<Bytes> + Send + 'static,
    ) -> (VistaClient, std::thread::JoinHandle<Vec<Bytes>>) {
        let (client_side, server_side) = client_server_link();
        let handle = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            let frames = answer(job);
            for f in &frames {
                server_side.emit(f.clone()).unwrap();
            }
            frames
        });
        (VistaClient::new(client_side), handle)
    }

    #[test]
    fn a_batch_outcome_keeps_the_bytes_of_its_final_frame() {
        let soup = tris(40, 0.0);
        let payload = soup.to_bytes();
        let (mut client, h) = answer_one_job(move |job| {
            let last = EventHeader::Final {
                job,
                kind: PayloadKind::Triangles,
                n_items: 40,
                report: JobReport::default(),
            };
            vec![
                encode_event(&EventHeader::JobAccepted { job, workers: 1 }, Bytes::new()),
                encode_event(&last, payload),
            ]
        });
        let out = client.run(&spec()).unwrap();
        let frames = h.join().unwrap();
        assert_eq!(out.triangles, soup);
        // The outcome's vertices are the frame's last bytes, not a copy.
        let vertices = out.triangles.positions.as_ptr().cast::<u8>();
        let frame = frames.last().unwrap();
        let block = &frame[frame.len() - 12 * out.triangles.positions.len()..];
        assert_eq!(vertices, block.as_ptr(), "kept, not copied");
    }

    #[test]
    fn a_streamed_outcome_is_its_packets_in_order() {
        let parts = [tris(3, 0.0), tris(5, 1.0), tris(2, 2.0)];
        let expected: Vec<[f32; 3]> = parts.iter().flat_map(|p| p.positions.to_vec()).collect();
        let (mut client, h) = answer_one_job(move |job| {
            let last = EventHeader::Final {
                job,
                kind: PayloadKind::None,
                n_items: 0,
                report: JobReport::default(),
            };
            let packets = parts
                .iter()
                .enumerate()
                .map(|(seq, p)| triangle_packet(job, seq as u32, 0, p));
            packets.chain([encode_event(&last, Bytes::new())]).collect()
        });
        let out = client.run(&spec()).unwrap();
        h.join().unwrap();
        assert_eq!(out.packets.len(), 3);
        assert_eq!(out.triangles.positions[..], expected[..]);
    }

    #[test]
    fn dropped_backend_is_a_comm_error() {
        let (client_side, server_side) = client_server_link();
        drop(server_side);
        let mut client = VistaClient::new(client_side);
        assert!(matches!(client.run(&spec()), Err(ClientError::Comm(_))));
    }
}
