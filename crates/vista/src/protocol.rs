//! Wire protocol between the visualization client (ViSTA FlowLib) and the
//! Viracocha scheduler.
//!
//! In the paper this link is TCP/IP; here it is the framed byte link of
//! `vira-comm`. Frames carry a JSON header (small control data) followed
//! by an optional binary payload (bulk geometry):
//!
//! ```text
//! u32 header_len (LE) | header JSON | payload bytes
//! ```
//!
//! The header is space-padded to a multiple of four bytes, so the
//! payload starts 4-aligned in the frame.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use vira_extract::mesh::{Polyline, TriangleSoup};
use vira_obs::json::{self, Json};

/// Client-assigned job identifier.
pub type JobId = u64;

/// Loosely typed command parameters (iso value, viewpoint, seeds, …).
/// Kept as string pairs on the wire; see the typed accessors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommandParams(pub Vec<(String, String)>);

impl CommandParams {
    pub fn new() -> Self {
        CommandParams::default()
    }

    pub fn set(mut self, key: &str, value: impl ToString) -> Self {
        self.0.retain(|(k, _)| k != key);
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    pub fn get_usize(&self, key: &str) -> Option<usize> {
        self.get(key)?.parse().ok()
    }

    /// A vector parameter encoded as "x,y,z".
    pub fn get_vec3(&self, key: &str) -> Option<[f64; 3]> {
        let s = self.get(key)?;
        let mut it = s.split(',').map(|p| p.trim().parse::<f64>());
        let x = it.next()?.ok()?;
        let y = it.next()?.ok()?;
        let z = it.next()?.ok()?;
        Some([x, y, z])
    }

    pub fn set_vec3(self, key: &str, v: [f64; 3]) -> Self {
        self.set(key, format!("{},{},{}", v[0], v[1], v[2]))
    }

    /// On the wire: `[["key","value"],…]`.
    pub fn to_json(&self) -> Json {
        let pair = |(k, v): &(String, String)| Json::arr([k.as_str(), v.as_str()]);
        Json::Arr(self.0.iter().map(pair).collect())
    }

    pub fn from_json(j: &Json) -> Result<CommandParams, String> {
        json::list(j, |kv| json::pair(kv, json::string, json::string)).map(CommandParams)
    }
}

/// Requests from the client to the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Run a registered command on a dataset.
    Submit {
        job: JobId,
        /// Registered command name (e.g. "IsoDataMan").
        command: String,
        dataset: String,
        params: CommandParams,
        /// Requested work-group size.
        workers: usize,
        /// Client session the job belongs to; the scheduler round-robins
        /// dispatch credit across sessions.
        session: u64,
        /// Causal trace context minted by the client at submit time:
        /// the job's trace id and the client-side root span every
        /// back-end span of this job descends from. `0` means "no
        /// trace" (tracing disabled).
        trace_id: u64,
        parent_span_id: u64,
    },
    /// Abort a running job ("meaningless extraction processes can be
    /// discarded immediately", §5).
    Cancel { job: JobId },
    /// Orderly shutdown of the back-end.
    Shutdown,
}

/// The one `{"Variant": {…}}` entry of an externally tagged enum value.
fn variant(j: &Json) -> Result<(&str, &Json), String> {
    match j.as_obj() {
        Some([(name, body)]) => Ok((name, body)),
        _ => Err("expected an object with exactly one variant key".to_owned()),
    }
}

impl ClientRequest {
    /// Externally tagged: `{"Submit":{…}}`, the unit variant as the bare
    /// string `"Shutdown"`.
    pub fn to_json(&self) -> Json {
        let (name, body) = match self {
            ClientRequest::Submit {
                job,
                command,
                dataset,
                params,
                workers,
                session,
                trace_id,
                parent_span_id,
            } => (
                "Submit",
                Json::obj([
                    ("job", (*job).into()),
                    ("command", command.as_str().into()),
                    ("dataset", dataset.as_str().into()),
                    ("params", params.to_json()),
                    ("workers", (*workers).into()),
                    ("session", (*session).into()),
                    ("trace_id", (*trace_id).into()),
                    ("parent_span_id", (*parent_span_id).into()),
                ]),
            ),
            ClientRequest::Cancel { job } => ("Cancel", Json::obj([("job", (*job).into())])),
            ClientRequest::Shutdown => return "Shutdown".into(),
        };
        Json::obj([(name, body)])
    }

    pub fn from_json(j: &Json) -> Result<ClientRequest, String> {
        if j.as_str() == Some("Shutdown") {
            return Ok(ClientRequest::Shutdown);
        }
        let (name, b) = variant(j)?;
        let job = b.req("job", json::u64);
        match name {
            "Submit" => Ok(ClientRequest::Submit {
                job: job?,
                command: b.req("command", json::string)?,
                dataset: b.req("dataset", json::string)?,
                params: b.req("params", CommandParams::from_json)?,
                workers: b.req("workers", json::usize)?,
                session: b.req("session", json::u64)?,
                trace_id: b.req("trace_id", json::u64)?,
                parent_span_id: b.req("parent_span_id", json::u64)?,
            }),
            "Cancel" => Ok(ClientRequest::Cancel { job: job? }),
            other => Err(format!("unknown request variant `{other}`")),
        }
    }
}

/// What a result payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadKind {
    Triangles,
    Polylines,
    /// No geometry (empty result or control-only event).
    #[default]
    None,
}

impl PayloadKind {
    /// On the wire: the variant name as a string.
    pub fn to_json(self) -> Json {
        match self {
            PayloadKind::Triangles => "Triangles",
            PayloadKind::Polylines => "Polylines",
            PayloadKind::None => "None",
        }
        .into()
    }

    pub fn from_json(j: &Json) -> Result<PayloadKind, String> {
        match j.as_str() {
            Some("Triangles") => Ok(PayloadKind::Triangles),
            Some("Polylines") => Ok(PayloadKind::Polylines),
            Some("None") => Ok(PayloadKind::None),
            _ => Err("expected a payload kind".to_owned()),
        }
    }
}

/// Modeled-time job accounting shipped with the final event. Flat struct
/// so the client library stays decoupled from the back-end crates.
///
/// The same report rides layer 2 inside the back-end: each worker's
/// PARTIAL carries its share, the master folds the shares with
/// [`JobReport::absorb`] into the DONE, and the scheduler fills in its
/// own fields (runtime, both waits, retries, degraded) for the client.
/// A `Cancelled` terminal carries the group's accounting as well, so
/// the cost of aborted work stays visible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobReport {
    /// Modeled wall-clock runtime of the job (submission → final merge).
    pub total_runtime_s: f64,
    /// Summed modeled time per category across workers.
    pub read_s: f64,
    pub compute_s: f64,
    pub send_s: f64,
    /// Modeled seconds the job spent queued at the scheduler before its
    /// *first* dispatch.
    pub queue_wait_s: f64,
    /// Modeled seconds spent re-queued between dispatch attempts after a
    /// rank died — separate from `queue_wait_s` so requeued jobs do not
    /// inflate the pre-dispatch wait.
    pub requeue_wait_s: f64,
    /// Modeled seconds the master worker spent gathering and merging the
    /// group's partials.
    pub merge_s: f64,
    /// DMS counters summed across the group's proxies.
    pub demand_requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub prefetch_issued: u64,
    pub prefetch_hits: u64,
    /// Geometry totals: every item the group's workers emitted, whether
    /// streamed in partial packets or merged into the final package.
    pub triangles: u64,
    pub polylines: u64,
    /// Extraction cells skipped by bricktree pruning, summed across the
    /// work group.
    pub cells_skipped: u64,
    /// Bricks skipped whole.
    pub bricks_skipped: u64,
    /// Command retransmissions the scheduler issued for this job.
    pub retries: u64,
    /// Set when the job was requeued onto a smaller work group after
    /// a rank died; the result is complete but was computed with
    /// degraded parallelism.
    pub degraded: bool,
}

impl JobReport {
    /// Adds another share of the same job to this one: the modeled
    /// seconds, the DMS counters, the geometry and the pruning counters.
    /// The scheduler's fields are left as they are.
    pub fn absorb(&mut self, share: &JobReport) {
        self.read_s += share.read_s;
        self.compute_s += share.compute_s;
        self.send_s += share.send_s;
        self.merge_s += share.merge_s;
        self.demand_requests += share.demand_requests;
        self.cache_hits += share.cache_hits;
        self.cache_misses += share.cache_misses;
        self.prefetch_issued += share.prefetch_issued;
        self.prefetch_hits += share.prefetch_hits;
        self.triangles += share.triangles;
        self.polylines += share.polylines;
        self.cells_skipped += share.cells_skipped;
        self.bricks_skipped += share.bricks_skipped;
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_runtime_s", self.total_runtime_s.into()),
            ("read_s", self.read_s.into()),
            ("compute_s", self.compute_s.into()),
            ("send_s", self.send_s.into()),
            ("queue_wait_s", self.queue_wait_s.into()),
            ("requeue_wait_s", self.requeue_wait_s.into()),
            ("merge_s", self.merge_s.into()),
            ("demand_requests", self.demand_requests.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("prefetch_issued", self.prefetch_issued.into()),
            ("prefetch_hits", self.prefetch_hits.into()),
            ("triangles", self.triangles.into()),
            ("polylines", self.polylines.into()),
            ("cells_skipped", self.cells_skipped.into()),
            ("bricks_skipped", self.bricks_skipped.into()),
            ("retries", self.retries.into()),
            ("degraded", self.degraded.into()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<JobReport, String> {
        Ok(JobReport {
            total_runtime_s: j.req("total_runtime_s", json::f64)?,
            read_s: j.req("read_s", json::f64)?,
            compute_s: j.req("compute_s", json::f64)?,
            send_s: j.req("send_s", json::f64)?,
            queue_wait_s: j.req("queue_wait_s", json::f64)?,
            requeue_wait_s: j.req("requeue_wait_s", json::f64)?,
            merge_s: j.req("merge_s", json::f64)?,
            demand_requests: j.req("demand_requests", json::u64)?,
            cache_hits: j.req("cache_hits", json::u64)?,
            cache_misses: j.req("cache_misses", json::u64)?,
            prefetch_issued: j.req("prefetch_issued", json::u64)?,
            prefetch_hits: j.req("prefetch_hits", json::u64)?,
            triangles: j.req("triangles", json::u64)?,
            polylines: j.req("polylines", json::u64)?,
            cells_skipped: j.req("cells_skipped", json::u64)?,
            bricks_skipped: j.req("bricks_skipped", json::u64)?,
            retries: j.req("retries", json::u64)?,
            degraded: j.req("degraded", json::bool)?,
        })
    }
}

/// Events from the scheduler to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum EventHeader {
    JobAccepted {
        job: JobId,
        workers: usize,
    },
    JobRejected {
        job: JobId,
        reason: String,
        /// Admission-control busy rejection: resubmit after roughly this
        /// many milliseconds. `None` on permanent refusals (unknown
        /// command, unregistered dataset, shutdown).
        retry_after_ms: Option<u64>,
        /// Scheduler queue depth at the moment of a busy rejection, so
        /// clients can scale their own backoff. `None` alongside
        /// `retry_after_ms`.
        queue_depth: Option<u64>,
    },
    /// A streamed partial result; the payload follows in the same frame.
    Partial {
        job: JobId,
        seq: u32,
        kind: PayloadKind,
        /// Triangles or polylines in this packet.
        n_items: u32,
        /// Rank of the worker that produced the packet.
        from_worker: usize,
    },
    /// The final result (payload may be empty if everything was
    /// streamed).
    Final {
        job: JobId,
        kind: PayloadKind,
        n_items: u32,
        report: JobReport,
    },
    Error {
        job: JobId,
        message: String,
    },
    /// The job was cancelled (client request) and will produce no more
    /// events. Replaces `Final` for cancelled jobs — whether the job
    /// was still queued or already running when the cancel arrived, the
    /// client sees exactly one terminal `Cancelled` event. Geometry
    /// already streamed as partials stays valid; any payload a late
    /// DONE carried is discarded.
    Cancelled {
        job: JobId,
        report: JobReport,
    },
    /// Computation progress of one worker (the paper's §9 suggestion of
    /// a progress indicator in the virtual environment).
    Progress {
        job: JobId,
        from_worker: usize,
        /// Fraction of this worker's share completed, in `[0, 1]`.
        fraction: f32,
    },
}

impl EventHeader {
    pub fn job(&self) -> JobId {
        match self {
            EventHeader::JobAccepted { job, .. }
            | EventHeader::JobRejected { job, .. }
            | EventHeader::Partial { job, .. }
            | EventHeader::Final { job, .. }
            | EventHeader::Error { job, .. }
            | EventHeader::Cancelled { job, .. }
            | EventHeader::Progress { job, .. } => *job,
        }
    }
}

impl EventHeader {
    /// Externally tagged, like [`ClientRequest::to_json`].
    pub fn to_json(&self) -> Json {
        let (name, body) = match self {
            EventHeader::JobAccepted { job, workers } => (
                "JobAccepted",
                Json::obj([("job", (*job).into()), ("workers", (*workers).into())]),
            ),
            EventHeader::JobRejected {
                job,
                reason,
                retry_after_ms,
                queue_depth,
            } => (
                "JobRejected",
                Json::obj([
                    ("job", (*job).into()),
                    ("reason", reason.as_str().into()),
                    ("retry_after_ms", (*retry_after_ms).into()),
                    ("queue_depth", (*queue_depth).into()),
                ]),
            ),
            EventHeader::Partial {
                job,
                seq,
                kind,
                n_items,
                from_worker,
            } => (
                "Partial",
                Json::obj([
                    ("job", (*job).into()),
                    ("seq", (*seq).into()),
                    ("kind", kind.to_json()),
                    ("n_items", (*n_items).into()),
                    ("from_worker", (*from_worker).into()),
                ]),
            ),
            EventHeader::Final {
                job,
                kind,
                n_items,
                report,
            } => (
                "Final",
                Json::obj([
                    ("job", (*job).into()),
                    ("kind", kind.to_json()),
                    ("n_items", (*n_items).into()),
                    ("report", report.to_json()),
                ]),
            ),
            EventHeader::Error { job, message } => (
                "Error",
                Json::obj([("job", (*job).into()), ("message", message.as_str().into())]),
            ),
            EventHeader::Cancelled { job, report } => (
                "Cancelled",
                Json::obj([("job", (*job).into()), ("report", report.to_json())]),
            ),
            EventHeader::Progress {
                job,
                from_worker,
                fraction,
            } => (
                "Progress",
                Json::obj([
                    ("job", (*job).into()),
                    ("from_worker", (*from_worker).into()),
                    ("fraction", (*fraction).into()),
                ]),
            ),
        };
        Json::obj([(name, body)])
    }

    pub fn from_json(j: &Json) -> Result<EventHeader, String> {
        let (name, b) = variant(j)?;
        let job = b.req("job", json::u64)?;
        match name {
            "JobAccepted" => Ok(EventHeader::JobAccepted {
                job,
                workers: b.req("workers", json::usize)?,
            }),
            "JobRejected" => Ok(EventHeader::JobRejected {
                job,
                reason: b.req("reason", json::string)?,
                retry_after_ms: b.opt("retry_after_ms", json::u64)?,
                queue_depth: b.opt("queue_depth", json::u64)?,
            }),
            "Partial" => Ok(EventHeader::Partial {
                job,
                seq: b.req("seq", json::u32)?,
                kind: b.req("kind", PayloadKind::from_json)?,
                n_items: b.req("n_items", json::u32)?,
                from_worker: b.req("from_worker", json::usize)?,
            }),
            "Final" => Ok(EventHeader::Final {
                job,
                kind: b.req("kind", PayloadKind::from_json)?,
                n_items: b.req("n_items", json::u32)?,
                report: b.req("report", JobReport::from_json)?,
            }),
            "Error" => Ok(EventHeader::Error {
                job,
                message: b.req("message", json::string)?,
            }),
            "Cancelled" => Ok(EventHeader::Cancelled {
                job,
                report: b.req("report", JobReport::from_json)?,
            }),
            "Progress" => Ok(EventHeader::Progress {
                job,
                from_worker: b.req("from_worker", json::usize)?,
                fraction: b.req("fraction", json::f64)? as f32,
            }),
            other => Err(format!("unknown event variant `{other}`")),
        }
    }
}

/// Protocol encode/decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Malformed(s) => write!(f, "malformed frame: {s}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The framing of every JSON-headed message: `u32` header length (LE),
/// the compact JSON header, the binary payload. Layer 2
/// (`viracocha::wire`) builds the same framing with a seal behind it and
/// reads it back with [`decode_frame`].
///
/// The header is padded with spaces, which the JSON parser skips, to a
/// multiple of four bytes: the payload then starts 4-aligned in the
/// frame, and so does a triangle block behind its count prefix, which
/// [`TriangleSoup::from_bytes`] keeps instead of copying.
fn encode_frame(header: &Json, payload: &Bytes) -> Bytes {
    let mut json = header.to_string();
    let padded = json.len().next_multiple_of(4);
    json.extend(std::iter::repeat_n(' ', padded - json.len()));
    let mut buf = BytesMut::with_capacity(4 + json.len() + payload.len());
    buf.put_u32_le(json.len() as u32);
    buf.put_slice(json.as_bytes());
    buf.put_slice(payload);
    buf.freeze()
}

/// Splits a frame into its parsed JSON header and the payload behind it.
pub fn decode_frame(mut frame: Bytes) -> Result<(Json, Bytes), ProtocolError> {
    if frame.remaining() < 4 {
        return Err(ProtocolError::Malformed(
            "frame shorter than header length".into(),
        ));
    }
    let len = frame.get_u32_le() as usize;
    if frame.remaining() < len {
        return Err(ProtocolError::Malformed("truncated header".into()));
    }
    let header = std::str::from_utf8(&frame[..len])
        .map_err(|e| e.to_string())
        .and_then(json::parse)
        .map_err(bad_header)?;
    frame.advance(len);
    Ok((header, frame))
}

fn bad_header(e: String) -> ProtocolError {
    ProtocolError::Malformed(format!("bad header JSON: {e}"))
}

/// Encodes a request frame (requests carry no binary payload).
pub fn encode_request(req: &ClientRequest) -> Bytes {
    encode_frame(&req.to_json(), &Bytes::new())
}

/// Decodes a request frame.
pub fn decode_request(frame: Bytes) -> Result<ClientRequest, ProtocolError> {
    let (header, _) = decode_frame(frame)?;
    ClientRequest::from_json(&header).map_err(bad_header)
}

/// Encodes an event frame with its binary payload.
pub fn encode_event(header: &EventHeader, payload: Bytes) -> Bytes {
    encode_frame(&header.to_json(), &payload)
}

/// Decodes an event frame into header + payload.
pub fn decode_event(frame: Bytes) -> Result<(EventHeader, Bytes), ProtocolError> {
    let (header, payload) = decode_frame(frame)?;
    Ok((
        EventHeader::from_json(&header).map_err(bad_header)?,
        payload,
    ))
}

/// Encodes a list of polylines: `u32` count, then each polyline's own
/// encoding prefixed by its byte length.
pub fn encode_polylines(lines: &[Polyline]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(lines.len() as u32);
    append_polylines(&mut buf, lines);
    buf.freeze()
}

/// Appends the body of [`encode_polylines`] (everything past the count)
/// to `buf`.
pub fn append_polylines(buf: &mut BytesMut, lines: &[Polyline]) {
    for l in lines {
        let b = l.to_bytes();
        buf.put_u32_le(b.len() as u32);
        buf.put_slice(&b);
    }
}

/// Inverse of [`encode_polylines`].
pub fn decode_polylines(mut b: Bytes) -> Result<Vec<Polyline>, ProtocolError> {
    if b.remaining() < 4 {
        return Err(ProtocolError::Malformed("missing polyline count".into()));
    }
    let n = b.get_u32_le() as usize;
    // Every polyline takes at least its 4-byte length, so the count a
    // hostile frame claims cannot reserve more than the frame holds.
    let mut out = Vec::with_capacity(n.min(b.remaining() / 4));
    for _ in 0..n {
        if b.remaining() < 4 {
            return Err(ProtocolError::Malformed("missing polyline length".into()));
        }
        let len = b.get_u32_le() as usize;
        if b.remaining() < len {
            return Err(ProtocolError::Malformed("truncated polyline".into()));
        }
        let line = Polyline::from_bytes(b.slice(0..len))
            .ok_or_else(|| ProtocolError::Malformed("bad polyline body".into()))?;
        b.advance(len);
        out.push(line);
    }
    if !b.is_empty() {
        return Err(ProtocolError::Malformed("trailing bytes".into()));
    }
    Ok(out)
}

/// Convenience: a partial-triangles event frame.
pub fn triangle_packet(job: JobId, seq: u32, from_worker: usize, soup: &TriangleSoup) -> Bytes {
    encode_event(
        &EventHeader::Partial {
            job,
            seq,
            kind: PayloadKind::Triangles,
            n_items: soup.n_triangles() as u32,
            from_worker,
        },
        soup.to_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::math::Vec3;

    #[test]
    fn request_roundtrip() {
        let req = ClientRequest::Submit {
            job: 7,
            command: "IsoDataMan".into(),
            dataset: "Engine".into(),
            params: CommandParams::new()
                .set("iso", 0.5)
                .set_vec3("viewpoint", [1.0, 2.0, 3.0]),
            workers: 8,
            session: 3,
            trace_id: 0xabcd,
            parent_span_id: 12,
        };
        let back = decode_request(encode_request(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn busy_rejection_roundtrips_through_event_frame() {
        let ev = EventHeader::JobRejected {
            job: 12,
            reason: "busy: queue full".into(),
            retry_after_ms: Some(100),
            queue_depth: Some(64),
        };
        let frame = encode_event(&ev, Bytes::new());
        let (h, payload) = decode_event(frame).unwrap();
        assert!(payload.is_empty());
        assert_eq!(h, ev);
        assert_eq!(h.job(), 12);
    }

    #[test]
    fn params_typed_accessors() {
        let p = CommandParams::new()
            .set("iso", 0.25)
            .set("batch", 500)
            .set_vec3("viewpoint", [0.0, -1.5, 2.0]);
        assert_eq!(p.get_f64("iso"), Some(0.25));
        assert_eq!(p.get_usize("batch"), Some(500));
        assert_eq!(p.get_vec3("viewpoint"), Some([0.0, -1.5, 2.0]));
        assert_eq!(p.get("missing"), None);
        assert_eq!(p.get_f64("viewpoint"), None, "not a scalar");
        // set() replaces.
        let p = p.set("iso", 0.3);
        assert_eq!(p.get_f64("iso"), Some(0.3));
    }

    #[test]
    fn event_roundtrip_with_payload() {
        let mut soup = TriangleSoup::new();
        soup.push_tri(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let frame = triangle_packet(3, 11, 2, &soup);
        let (header, payload) = decode_event(frame).unwrap();
        match header {
            EventHeader::Partial {
                job,
                seq,
                kind,
                n_items,
                from_worker,
            } => {
                assert_eq!((job, seq, n_items, from_worker), (3, 11, 1, 2));
                assert_eq!(kind, PayloadKind::Triangles);
            }
            other => panic!("wrong header {other:?}"),
        }
        let block = payload[4..].as_ptr();
        let back = TriangleSoup::from_bytes(payload).unwrap();
        assert_eq!(back, soup);
        assert_eq!(
            back.positions.as_ptr().cast::<u8>(),
            block,
            "the padded header leaves the vertex block aligned, so it is kept"
        );
    }

    #[test]
    fn headers_are_padded_to_four_bytes_and_still_parse() {
        for job in [0, 7, 77, 777, 7777, u64::MAX] {
            for seq in [0, 1, 22, 333] {
                let frame = triangle_packet(job, seq, 1, &TriangleSoup::new());
                let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
                assert_eq!(len % 4, 0, "header of {len} bytes");
                assert!(
                    !frame[4..4 + len].ends_with(b"    "),
                    "at most three spaces"
                );
                let (header, payload) = decode_event(frame).unwrap();
                assert_eq!(header.job(), job);
                assert_eq!(&payload[..], &0u32.to_le_bytes());
            }
        }
    }

    #[test]
    fn final_event_carries_report() {
        let report = JobReport {
            total_runtime_s: 12.5,
            read_s: 3.0,
            compute_s: 9.0,
            send_s: 0.5,
            queue_wait_s: 0.75,
            merge_s: 0.125,
            triangles: 1234,
            ..JobReport::default()
        };
        let frame = encode_event(
            &EventHeader::Final {
                job: 1,
                kind: PayloadKind::None,
                n_items: 0,
                report,
            },
            Bytes::new(),
        );
        let (h, payload) = decode_event(frame).unwrap();
        assert!(payload.is_empty());
        match h {
            EventHeader::Final { report: r, .. } => assert_eq!(r, report),
            other => panic!("wrong header {other:?}"),
        }
    }

    #[test]
    fn report_roundtrips_through_event_frame_with_stage_timings() {
        let report = JobReport {
            total_runtime_s: 5.0,
            read_s: 1.0,
            compute_s: 2.0,
            send_s: 0.5,
            queue_wait_s: 1.25,
            requeue_wait_s: 0.375,
            merge_s: 0.25,
            demand_requests: 9,
            cache_hits: 6,
            cache_misses: 3,
            prefetch_issued: 4,
            prefetch_hits: 2,
            triangles: 77,
            polylines: 0,
            cells_skipped: 1000,
            bricks_skipped: 12,
            retries: 2,
            degraded: true,
        };
        let frame = encode_event(
            &EventHeader::Final {
                job: 5,
                kind: PayloadKind::Triangles,
                n_items: 77,
                report,
            },
            Bytes::new(),
        );
        let (h, _) = decode_event(frame).unwrap();
        match h {
            EventHeader::Final { report: r, .. } => {
                assert_eq!(r, report);
                assert_eq!(r.queue_wait_s, 1.25);
                assert_eq!(r.merge_s, 0.25);
            }
            other => panic!("wrong header {other:?}"),
        }
    }

    #[test]
    fn absorb_sums_the_group_fields_and_keeps_the_scheduler_fields() {
        let mut own = fixture_report();
        own.absorb(&fixture_report());
        let twice = JobReport {
            read_s: 6.0,
            compute_s: 18.0,
            send_s: 1.0,
            merge_s: 0.25,
            demand_requests: 18,
            cache_hits: 12,
            cache_misses: 6,
            prefetch_issued: 8,
            prefetch_hits: 4,
            triangles: 2468,
            polylines: 0,
            cells_skipped: 2000,
            bricks_skipped: 24,
            ..fixture_report()
        };
        assert_eq!(own, twice);
    }

    #[test]
    fn every_written_key_is_required() {
        // Deleting any one key of a submit or a report fails its decode.
        let submit = ClientRequest::Submit {
            job: 1,
            command: "IsoDataMan".into(),
            dataset: "Engine".into(),
            params: CommandParams::new(),
            workers: 2,
            session: 3,
            trace_id: 4,
            parent_span_id: 5,
        }
        .to_json();
        for (key, _) in submit.get("Submit").unwrap().as_obj().unwrap() {
            let mut v = submit.clone();
            v.get_mut("Submit").unwrap().remove(key);
            assert!(ClientRequest::from_json(&v).is_err(), "without `{key}`");
        }
        let report = fixture_report().to_json();
        for (key, _) in report.as_obj().unwrap() {
            let mut v = report.clone();
            v.remove(key);
            assert!(JobReport::from_json(&v).is_err(), "without `{key}`");
        }
    }

    /// `text` is what this build sends for `value`: it must decode to
    /// it, be what we send ourselves, and survive a round trip.
    fn assert_request_shape(text: &str, value: ClientRequest) {
        let j = json::parse(text).unwrap();
        assert_eq!(ClientRequest::from_json(&j).as_ref(), Ok(&value), "{text}");
        assert_eq!(value.to_json().to_string(), text);
        assert_eq!(decode_request(encode_request(&value)).unwrap(), value);
    }

    fn assert_event_shape(text: &str, value: EventHeader) {
        let j = json::parse(text).unwrap();
        assert_eq!(EventHeader::from_json(&j).as_ref(), Ok(&value), "{text}");
        assert_eq!(value.to_json().to_string(), text);
        let (back, _) = decode_event(encode_event(&value, Bytes::new())).unwrap();
        assert_eq!(back, value);
    }

    const REPORT_TEXT: &str = r#"{"total_runtime_s":12.5,"read_s":3.0,"compute_s":9.0,"send_s":0.5,"queue_wait_s":0.75,"requeue_wait_s":0.0,"merge_s":0.125,"demand_requests":9,"cache_hits":6,"cache_misses":3,"prefetch_issued":4,"prefetch_hits":2,"triangles":1234,"polylines":0,"cells_skipped":1000,"bricks_skipped":12,"retries":2,"degraded":true}"#;

    fn fixture_report() -> JobReport {
        JobReport {
            total_runtime_s: 12.5,
            read_s: 3.0,
            compute_s: 9.0,
            send_s: 0.5,
            queue_wait_s: 0.75,
            requeue_wait_s: 0.0,
            merge_s: 0.125,
            demand_requests: 9,
            cache_hits: 6,
            cache_misses: 3,
            prefetch_issued: 4,
            prefetch_hits: 2,
            triangles: 1234,
            polylines: 0,
            cells_skipped: 1000,
            bricks_skipped: 12,
            retries: 2,
            degraded: true,
        }
    }

    #[test]
    fn request_wire_shapes_are_pinned() {
        assert_request_shape(
            r#"{"Submit":{"job":18446744073709551615,"command":"IsoDataMan","dataset":"Engine","params":[["iso","0.5"],["viewpoint","1,2,3"]],"workers":8,"session":3,"trace_id":9007199254740993,"parent_span_id":12}}"#,
            ClientRequest::Submit {
                job: u64::MAX,
                command: "IsoDataMan".into(),
                dataset: "Engine".into(),
                params: CommandParams::new()
                    .set("iso", 0.5)
                    .set_vec3("viewpoint", [1.0, 2.0, 3.0]),
                workers: 8,
                session: 3,
                trace_id: (1 << 53) + 1,
                parent_span_id: 12,
            },
        );
        assert_request_shape(r#"{"Cancel":{"job":4}}"#, ClientRequest::Cancel { job: 4 });
        assert_request_shape(r#""Shutdown""#, ClientRequest::Shutdown);
        // Unknown fields are skipped, unknown variants are not: the
        // retired `Ack`/`Resume` requests among them.
        let j = json::parse(r#"{"Cancel":{"job":4,"why":"bored"}}"#).unwrap();
        assert_eq!(
            ClientRequest::from_json(&j),
            Ok(ClientRequest::Cancel { job: 4 })
        );
        for bad in [
            r#"{"Pause":{"job":4}}"#,
            r#"{"Ack":{"job":4,"up_to_seq":17}}"#,
            r#"{"Resume":{"job":4}}"#,
            r#""Submit""#,
            r#"{"Cancel":{}}"#,
            "{}",
            "7",
        ] {
            assert!(
                ClientRequest::from_json(&json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn event_wire_shapes_are_pinned() {
        assert_event_shape(
            r#"{"JobAccepted":{"job":1,"workers":4}}"#,
            EventHeader::JobAccepted { job: 1, workers: 4 },
        );
        assert_event_shape(
            r#"{"JobRejected":{"job":3,"reason":"busy: \"queue\" full","retry_after_ms":25,"queue_depth":null}}"#,
            EventHeader::JobRejected {
                job: 3,
                reason: "busy: \"queue\" full".into(),
                retry_after_ms: Some(25),
                queue_depth: None,
            },
        );
        assert_event_shape(
            r#"{"Partial":{"job":3,"seq":11,"kind":"Triangles","n_items":1,"from_worker":2}}"#,
            EventHeader::Partial {
                job: 3,
                seq: 11,
                kind: PayloadKind::Triangles,
                n_items: 1,
                from_worker: 2,
            },
        );
        assert_event_shape(
            &format!(r#"{{"Final":{{"job":1,"kind":"None","n_items":0,"report":{REPORT_TEXT}}}}}"#),
            EventHeader::Final {
                job: 1,
                kind: PayloadKind::None,
                n_items: 0,
                report: fixture_report(),
            },
        );
        assert_event_shape(
            r#"{"Error":{"job":42,"message":"boom"}}"#,
            EventHeader::Error {
                job: 42,
                message: "boom".into(),
            },
        );
        assert_event_shape(
            &format!(r#"{{"Cancelled":{{"job":8,"report":{REPORT_TEXT}}}}}"#),
            EventHeader::Cancelled {
                job: 8,
                report: fixture_report(),
            },
        );
        assert_event_shape(
            r#"{"Progress":{"job":5,"from_worker":1,"fraction":0.1}}"#,
            EventHeader::Progress {
                job: 5,
                from_worker: 1,
                fraction: 0.1,
            },
        );
        assert_event_shape(
            r#"{"Partial":{"job":3,"seq":0,"kind":"Polylines","n_items":7,"from_worker":0}}"#,
            EventHeader::Partial {
                job: 3,
                seq: 0,
                kind: PayloadKind::Polylines,
                n_items: 7,
                from_worker: 0,
            },
        );
    }

    #[test]
    fn non_finite_report_values_travel_as_null_and_are_refused() {
        // JSON has no NaN; the derived encoder wrote `null` too, and a
        // required number that is `null` never decoded.
        let report = JobReport {
            total_runtime_s: f64::NAN,
            ..JobReport::default()
        };
        let text = report.to_json().to_string();
        assert!(text.starts_with(r#"{"total_runtime_s":null,"#));
        assert!(JobReport::from_json(&json::parse(&text).unwrap()).is_err());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(decode_request(Bytes::from_static(b"xx")).is_err());
        assert!(decode_event(Bytes::from_static(b"\xFF\xFF\xFF\xFF")).is_err());
        let mut bad = encode_request(&ClientRequest::Shutdown).to_vec();
        bad[4] = b'!';
        assert!(decode_request(Bytes::from(bad)).is_err());
    }

    #[test]
    fn polyline_list_roundtrip() {
        let mut a = Polyline::default();
        a.push(Vec3::ZERO, 0.0);
        a.push(Vec3::new(1.0, 0.0, 0.0), 0.5);
        let mut b = Polyline::default();
        b.push(Vec3::new(0.0, 2.0, 0.0), 0.1);
        let lines = vec![a, b, Polyline::default()];
        let back = decode_polylines(encode_polylines(&lines)).unwrap();
        assert_eq!(back, lines);
        assert!(decode_polylines(Bytes::from_static(b"z")).is_err());
        // A count of four billion in an eight-byte frame is refused, not
        // allocated for.
        assert!(decode_polylines(Bytes::from_static(b"\xFF\xFF\xFF\xFF\0\0\0\0")).is_err());
    }

    #[test]
    fn cancelled_event_roundtrip() {
        let report = JobReport {
            total_runtime_s: 1.5,
            triangles: 40,
            ..JobReport::default()
        };
        let frame = encode_event(&EventHeader::Cancelled { job: 8, report }, Bytes::new());
        let (h, payload) = decode_event(frame).unwrap();
        assert!(payload.is_empty());
        match h {
            EventHeader::Cancelled { job, report: r } => {
                assert_eq!(job, 8);
                assert_eq!(r, report);
            }
            other => panic!("wrong header {other:?}"),
        }
        assert_eq!(h.job(), 8);
    }

    #[test]
    fn header_job_accessor() {
        let h = EventHeader::Error {
            job: 42,
            message: "boom".into(),
        };
        assert_eq!(h.job(), 42);
    }
}
