//! Internal message encodings between scheduler, workers and master
//! workers (layer 2 traffic riding on the layer-1 transport).
//!
//! Same framing as the client protocol, and the same functions
//! (`vira_vista::protocol::{encode_frame, decode_frame}`): `u32`
//! JSON-header length, JSON header, binary payload.

use bytes::Bytes;
use vira_comm::transport::Rank;
use vira_dms::cache::ResidencyDigest;
use vira_dms::stats::DmsStatsSnapshot;
use vira_obs::json::{self, Json};
use vira_vista::protocol::{decode_frame, encode_frame, CommandParams, JobId, PayloadKind};

/// Scheduler → worker: run a command as part of a work group.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandMsg {
    pub job: JobId,
    pub command: String,
    pub dataset: String,
    pub params: CommandParams,
    /// Ranks of the work group (sorted; the first is the master worker).
    pub group: Vec<Rank>,
    /// Dispatch attempt (0 on first dispatch, bumped on every requeue)
    /// so stale frames from an abandoned attempt can be told apart.
    pub attempt: u32,
    /// Integrity check over the other fields, filled in by
    /// [`encode_command`]. A command frame is pure JSON, so a flipped
    /// bit that still parses could silently change e.g. the iso value;
    /// the check catches that. `0` means "unchecked" (older peers).
    pub check: u32,
    /// Causal trace context: the submit's trace id and the scheduler
    /// dispatch span to parent worker spans under. `0` means "no
    /// trace" (tracing disabled, or frames from older peers). Both are
    /// deliberately excluded from [`command_check`] so checked frames
    /// stay verifiable across peers that do not know these fields.
    pub trace_id: u64,
    pub parent_span_id: u64,
}

impl CommandMsg {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("job", self.job.into()),
            ("command", self.command.as_str().into()),
            ("dataset", self.dataset.as_str().into()),
            ("params", self.params.to_json()),
            ("group", Json::arr(self.group.iter().copied())),
            ("attempt", self.attempt.into()),
            ("check", self.check.into()),
            ("trace_id", self.trace_id.into()),
            ("parent_span_id", self.parent_span_id.into()),
        ])
    }

    /// Fields documented as absent in frames from older peers default
    /// to zero; unknown fields are skipped.
    pub fn from_json(j: &Json) -> Result<CommandMsg, String> {
        Ok(CommandMsg {
            job: j.req("job", json::u64)?,
            command: j.req("command", json::string)?,
            dataset: j.req("dataset", json::string)?,
            params: j.req("params", CommandParams::from_json)?,
            group: j.req("group", |g| json::list(g, json::usize))?,
            attempt: j.opt("attempt", json::u32)?.unwrap_or_default(),
            check: j.opt("check", json::u32)?.unwrap_or_default(),
            trace_id: j.opt("trace_id", json::u64)?.unwrap_or_default(),
            parent_span_id: j.opt("parent_span_id", json::u64)?.unwrap_or_default(),
        })
    }
}

/// Marker suffix a telemetry heartbeat PING carries after its 8-byte
/// nonce (`nonce(8) | b"OBS1"`, 12 bytes total). Workers that know the
/// marker append their pending metric delta to the pong; older workers
/// echo the payload untouched and answer with a classic pong.
pub const OBS_PING_SUFFIX: &[u8; 4] = b"OBS1";

/// True when a PING payload requests a telemetry delta in the pong.
pub fn is_obs_ping(payload: &[u8]) -> bool {
    payload.len() == 12 && &payload[8..] == OBS_PING_SUFFIX
}

/// Worker → master: this worker's share of the result.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialHeader {
    pub job: JobId,
    pub kind: PayloadKind,
    pub n_items: u32,
    /// Modeled seconds charged by this worker, per category.
    pub read_s: f64,
    pub compute_s: f64,
    pub send_s: f64,
    /// This worker's DMS counters for the job window.
    pub dms: DmsStatsSnapshot,
    /// Extraction cells skipped by bricktree pruning (E11/E15 reporting).
    pub cells_skipped: u64,
    /// Finest-level bricks skipped whole.
    pub bricks_skipped: u64,
    /// Modeled seconds this worker spent in the intra-worker parallel
    /// extraction section (absent in frames from older peers → 0).
    pub extract_par_s: f64,
    /// Extraction threads the worker used (`0` = unknown/older peer,
    /// `1` = serial path).
    pub extract_threads: u32,
    /// Dispatch attempt this partial answers (mirrors the command).
    pub attempt: u32,
    /// FNV-1a checksum of the binary payload, filled in by
    /// [`encode_partial`]; `0` means "unchecked" (older peers).
    pub payload_crc: u32,
    /// Fingerprint of this worker's DMS cache after the job, harvested
    /// by the master into the DONE frame for locality-aware placement
    /// (absent in frames from older peers → unknown).
    pub residency: ResidencyDigest,
    /// Causal trace context propagated from the command: the trace id
    /// and this worker's `worker.job` span, so the master (and the
    /// flight recorder) can bind the partial to its producer. `0`
    /// means "no trace" (older peers or tracing disabled).
    pub trace_id: u64,
    pub parent_span_id: u64,
    /// Piggybacked telemetry: this worker's metric delta in the
    /// `OBSD1` text codec (`vira_obs::ship`), harvested by the master
    /// into the DONE frame. Empty = none (older peers or nothing new).
    pub obs_delta: String,
    /// Set when the command failed on this worker.
    pub error: Option<String>,
}

impl PartialHeader {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("job", self.job.into()),
            ("kind", self.kind.to_json()),
            ("n_items", self.n_items.into()),
            ("read_s", self.read_s.into()),
            ("compute_s", self.compute_s.into()),
            ("send_s", self.send_s.into()),
            ("dms", self.dms.to_json()),
            ("cells_skipped", self.cells_skipped.into()),
            ("bricks_skipped", self.bricks_skipped.into()),
            ("extract_par_s", self.extract_par_s.into()),
            ("extract_threads", self.extract_threads.into()),
            ("attempt", self.attempt.into()),
            ("payload_crc", self.payload_crc.into()),
            ("residency", self.residency.to_json()),
            ("trace_id", self.trace_id.into()),
            ("parent_span_id", self.parent_span_id.into()),
            ("obs_delta", self.obs_delta.as_str().into()),
            ("error", self.error.as_deref().into()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<PartialHeader, String> {
        Ok(PartialHeader {
            job: j.req("job", json::u64)?,
            kind: j.req("kind", PayloadKind::from_json)?,
            n_items: j.req("n_items", json::u32)?,
            read_s: j.req("read_s", json::f64)?,
            compute_s: j.req("compute_s", json::f64)?,
            send_s: j.req("send_s", json::f64)?,
            dms: j.req("dms", DmsStatsSnapshot::from_json)?,
            cells_skipped: j.opt("cells_skipped", json::u64)?.unwrap_or_default(),
            bricks_skipped: j.opt("bricks_skipped", json::u64)?.unwrap_or_default(),
            extract_par_s: j.opt("extract_par_s", json::f64)?.unwrap_or_default(),
            extract_threads: j.opt("extract_threads", json::u32)?.unwrap_or_default(),
            attempt: j.opt("attempt", json::u32)?.unwrap_or_default(),
            payload_crc: j.opt("payload_crc", json::u32)?.unwrap_or_default(),
            residency: j
                .opt("residency", ResidencyDigest::from_json)?
                .unwrap_or_default(),
            trace_id: j.opt("trace_id", json::u64)?.unwrap_or_default(),
            parent_span_id: j.opt("parent_span_id", json::u64)?.unwrap_or_default(),
            obs_delta: j.opt("obs_delta", json::string)?.unwrap_or_default(),
            error: j.opt("error", json::string)?,
        })
    }
}

/// Master → scheduler: the merged job result.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneHeader {
    pub job: JobId,
    pub kind: PayloadKind,
    pub n_items: u32,
    /// Aggregated worker accounting.
    pub read_s: f64,
    pub compute_s: f64,
    pub send_s: f64,
    /// Modeled seconds the master spent gathering and splicing the
    /// group's partials (absent in frames from older peers).
    pub merge_s: f64,
    pub dms: DmsStatsSnapshot,
    /// Summed bricktree pruning counters of the whole group.
    pub cells_skipped: u64,
    pub bricks_skipped: u64,
    /// Summed parallel-extraction seconds of the whole group (absent in
    /// frames from older peers → 0).
    pub extract_par_s: f64,
    /// Maximum extraction thread count any group member used (`0` =
    /// unknown/older peers, `1` = all serial).
    pub extract_threads: u32,
    /// Dispatch attempt this result answers (mirrors the command).
    pub attempt: u32,
    /// FNV-1a checksum of the binary payload, filled in by
    /// [`encode_done`]; `0` means "unchecked" (older peers).
    pub payload_crc: u32,
    /// Per-rank DMS cache fingerprints of the whole work group (the
    /// master's own plus those piggybacked on the partials), used by the
    /// scheduler to score future placements (absent in older frames →
    /// empty).
    pub residency: Vec<(Rank, ResidencyDigest)>,
    /// Causal trace context propagated from the command: the trace id
    /// and the master's `worker.job` span. `0` means "no trace"
    /// (older peers or tracing disabled).
    pub trace_id: u64,
    pub parent_span_id: u64,
    /// Piggybacked telemetry: the group's metric deltas (`OBSD1` text
    /// codec) — the master's own plus any harvested from the partials —
    /// keyed by producing rank, mirroring how `residency` rides DONE.
    /// Empty = none (older peers or nothing new).
    pub obs_deltas: Vec<(Rank, String)>,
    pub error: Option<String>,
}

impl DoneHeader {
    pub fn to_json(&self) -> Json {
        let residency = |(rank, digest): &(Rank, ResidencyDigest)| {
            Json::Arr(vec![(*rank).into(), digest.to_json()])
        };
        let obs_delta =
            |(rank, delta): &(Rank, String)| Json::Arr(vec![(*rank).into(), delta.as_str().into()]);
        Json::obj([
            ("job", self.job.into()),
            ("kind", self.kind.to_json()),
            ("n_items", self.n_items.into()),
            ("read_s", self.read_s.into()),
            ("compute_s", self.compute_s.into()),
            ("send_s", self.send_s.into()),
            ("merge_s", self.merge_s.into()),
            ("dms", self.dms.to_json()),
            ("cells_skipped", self.cells_skipped.into()),
            ("bricks_skipped", self.bricks_skipped.into()),
            ("extract_par_s", self.extract_par_s.into()),
            ("extract_threads", self.extract_threads.into()),
            ("attempt", self.attempt.into()),
            ("payload_crc", self.payload_crc.into()),
            (
                "residency",
                Json::Arr(self.residency.iter().map(residency).collect()),
            ),
            ("trace_id", self.trace_id.into()),
            ("parent_span_id", self.parent_span_id.into()),
            (
                "obs_deltas",
                Json::Arr(self.obs_deltas.iter().map(obs_delta).collect()),
            ),
            ("error", self.error.as_deref().into()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<DoneHeader, String> {
        let residency = |r: &Json| json::pair(r, json::usize, ResidencyDigest::from_json);
        let obs_delta = |d: &Json| json::pair(d, json::usize, json::string);
        Ok(DoneHeader {
            job: j.req("job", json::u64)?,
            kind: j.req("kind", PayloadKind::from_json)?,
            n_items: j.req("n_items", json::u32)?,
            read_s: j.req("read_s", json::f64)?,
            compute_s: j.req("compute_s", json::f64)?,
            send_s: j.req("send_s", json::f64)?,
            merge_s: j.opt("merge_s", json::f64)?.unwrap_or_default(),
            dms: j.req("dms", DmsStatsSnapshot::from_json)?,
            cells_skipped: j.opt("cells_skipped", json::u64)?.unwrap_or_default(),
            bricks_skipped: j.opt("bricks_skipped", json::u64)?.unwrap_or_default(),
            extract_par_s: j.opt("extract_par_s", json::f64)?.unwrap_or_default(),
            extract_threads: j.opt("extract_threads", json::u32)?.unwrap_or_default(),
            attempt: j.opt("attempt", json::u32)?.unwrap_or_default(),
            payload_crc: j.opt("payload_crc", json::u32)?.unwrap_or_default(),
            residency: j
                .opt("residency", |r| json::list(r, residency))?
                .unwrap_or_default(),
            trace_id: j.opt("trace_id", json::u64)?.unwrap_or_default(),
            parent_span_id: j.opt("parent_span_id", json::u64)?.unwrap_or_default(),
            obs_deltas: j
                .opt("obs_deltas", |d| json::list(d, obs_delta))?
                .unwrap_or_default(),
            error: j.opt("error", json::string)?,
        })
    }
}

/// FNV-1a over a byte slice, used both as the payload checksum on
/// framed messages and (over a canonical field encoding) as the
/// command integrity check. A value of `0` is reserved for
/// "unchecked", so a real hash of zero is nudged to `1` — a harmless
/// 2⁻³² bias for an error-detection (not cryptographic) code.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Canonical integrity check over every [`CommandMsg`] field except
/// `check` itself. Length-prefixed so field boundaries can't alias.
fn command_check(msg: &CommandMsg) -> u32 {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&msg.job.to_le_bytes());
    buf.extend_from_slice(&(msg.command.len() as u32).to_le_bytes());
    buf.extend_from_slice(msg.command.as_bytes());
    buf.extend_from_slice(&(msg.dataset.len() as u32).to_le_bytes());
    buf.extend_from_slice(msg.dataset.as_bytes());
    for (k, v) in &msg.params.0 {
        buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
        buf.extend_from_slice(k.as_bytes());
        buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        buf.extend_from_slice(v.as_bytes());
    }
    for &r in &msg.group {
        buf.extend_from_slice(&(r as u64).to_le_bytes());
    }
    buf.extend_from_slice(&msg.attempt.to_le_bytes());
    fnv1a(&buf)
}

/// Splits a frame into its JSON header, read with `header`, and the
/// payload behind it.
fn decode<T>(
    frame: Bytes,
    header: impl FnOnce(&Json) -> Result<T, String>,
) -> Option<(T, Bytes)> {
    let (json, payload) = decode_frame(frame).ok()?;
    Some((header(&json).ok()?, payload))
}

pub fn encode_command(msg: &CommandMsg) -> Bytes {
    let mut msg = msg.clone();
    msg.check = command_check(&msg);
    encode_frame(&msg.to_json(), &Bytes::new())
}

/// Rejects frames whose integrity check no longer matches the fields
/// (a corrupted-but-still-parseable command must not run with, say, a
/// silently altered iso value). `check == 0` frames are from older
/// peers and pass unchecked.
pub fn decode_command(frame: Bytes) -> Option<CommandMsg> {
    let (msg, _) = decode(frame, CommandMsg::from_json)?;
    if msg.check != 0 && msg.check != command_check(&msg) {
        return None;
    }
    Some(msg)
}

pub fn encode_partial(header: &PartialHeader, payload: Bytes) -> Bytes {
    let mut header = header.clone();
    header.payload_crc = fnv1a(&payload);
    encode_frame(&header.to_json(), &payload)
}

/// Rejects frames whose binary payload fails its checksum (the JSON
/// header is already guarded by the strictness of its decoder; the payload is
/// where a flipped bit would otherwise slip through as bad geometry).
pub fn decode_partial(frame: Bytes) -> Option<(PartialHeader, Bytes)> {
    let (h, p) = decode(frame, PartialHeader::from_json)?;
    if h.payload_crc != 0 && h.payload_crc != fnv1a(&p) {
        return None;
    }
    Some((h, p))
}

pub fn encode_done(header: &DoneHeader, payload: Bytes) -> Bytes {
    let mut header = header.clone();
    header.payload_crc = fnv1a(&payload);
    encode_frame(&header.to_json(), &payload)
}

pub fn decode_done(frame: Bytes) -> Option<(DoneHeader, Bytes)> {
    let (h, p) = decode(frame, DoneHeader::from_json)?;
    if h.payload_crc != 0 && h.payload_crc != fnv1a(&p) {
        return None;
    }
    Some((h, p))
}

/// Scheduler → worker cancel notice: the bare job id, 8 bytes LE. Kept
/// deliberately tiny and JSON-free so the socket reader thread can
/// decode it inline without pulling a payload apart mid-stream.
pub fn encode_cancel(job: JobId) -> Bytes {
    Bytes::copy_from_slice(&job.to_le_bytes())
}

pub fn decode_cancel(payload: &[u8]) -> Option<JobId> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    Some(JobId::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON header of a payload-free frame.
    fn header_of(frame: &Bytes) -> Json {
        json::parse(std::str::from_utf8(&frame[4..]).unwrap()).unwrap()
    }

    #[test]
    fn cancel_roundtrip() {
        assert_eq!(decode_cancel(&encode_cancel(0)), Some(0));
        assert_eq!(decode_cancel(&encode_cancel(u64::MAX)), Some(u64::MAX));
        assert_eq!(decode_cancel(&encode_cancel(42)), Some(42));
        assert_eq!(decode_cancel(b"short"), None, "truncated payload");
        assert_eq!(decode_cancel(&[0u8; 9]), None, "oversized payload");
    }

    #[test]
    fn command_roundtrip() {
        let msg = CommandMsg {
            job: 3,
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 0.4),
            group: vec![1, 2, 5],
            attempt: 2,
            check: 0,
            trace_id: 0,
            parent_span_id: 0,
        };
        let got = decode_command(encode_command(&msg)).unwrap();
        assert_ne!(got.check, 0, "encode_command must fill in the check");
        let mut want = msg;
        want.check = got.check;
        assert_eq!(got, want);
    }

    #[test]
    fn tampered_command_fields_are_rejected() {
        // A bit flip that still parses as JSON must not yield a
        // command with silently altered fields.
        let msg = CommandMsg {
            job: 3,
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 0.4),
            group: vec![1, 2, 5],
            attempt: 0,
            check: 0,
            trace_id: 0,
            parent_span_id: 0,
        };
        let frame = encode_command(&msg);
        let mut v = header_of(&frame);
        v.set("dataset", "Rotor".into());
        assert!(decode_command(encode_frame(&v, &Bytes::new())).is_none());
    }

    #[test]
    fn partial_roundtrip_with_payload() {
        let h = PartialHeader {
            job: 1,
            kind: PayloadKind::Triangles,
            n_items: 2,
            read_s: 1.0,
            compute_s: 2.0,
            send_s: 0.1,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 120,
            bricks_skipped: 3,
            extract_par_s: 0.5,
            extract_threads: 4,
            attempt: 1,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 0,
            parent_span_id: 0,
            obs_delta: String::new(),
            error: None,
        };
        let payload = Bytes::from_static(b"geometry");
        let (h2, p2) = decode_partial(encode_partial(&h, payload.clone())).unwrap();
        assert_eq!(h2.payload_crc, fnv1a(&payload));
        let mut want = h;
        want.payload_crc = h2.payload_crc;
        assert_eq!(h2, want);
        assert_eq!(&p2[..], &payload[..]);
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let h = PartialHeader {
            job: 1,
            kind: PayloadKind::Triangles,
            n_items: 2,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 0,
            parent_span_id: 0,
            obs_delta: String::new(),
            error: None,
        };
        let frame = encode_partial(&h, Bytes::from_static(b"geometry"));
        let mut bytes = frame.to_vec();
        let last = bytes.len() - 1; // inside the binary payload
        bytes[last] ^= 0x10;
        assert!(decode_partial(Bytes::from(bytes)).is_none());
    }

    #[test]
    fn done_roundtrip_with_error() {
        let h = DoneHeader {
            job: 9,
            kind: PayloadKind::None,
            n_items: 0,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            merge_s: 0.25,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 0,
            parent_span_id: 0,
            obs_deltas: Vec::new(),
            error: Some("worker 3 failed".into()),
        };
        let (h2, p) = decode_done(encode_done(&h, Bytes::new())).unwrap();
        let mut want = h;
        want.payload_crc = h2.payload_crc;
        assert_eq!(h2, want);
        assert!(p.is_empty());
    }

    #[test]
    fn headers_without_counters_decode_with_zero_defaults() {
        // Frames from peers predating the pruning counters must still
        // decode (the fields are optional on decode).
        let h = PartialHeader {
            job: 4,
            kind: PayloadKind::None,
            n_items: 0,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 7,
            bricks_skipped: 7,
            extract_par_s: 0.25,
            extract_threads: 2,
            attempt: 0,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 0,
            parent_span_id: 0,
            obs_delta: String::new(),
            error: None,
        };
        let mut v = h.to_json();
        v.remove("cells_skipped");
        v.remove("bricks_skipped");
        v.remove("attempt");
        v.remove("payload_crc");
        // Older peers also predate intra-worker parallel extraction.
        v.remove("extract_par_s");
        v.remove("extract_threads");
        // Older peers also predate the DMS fallback counter.
        v.get_mut("dms").unwrap().remove("fallbacks");
        let (h2, _) = decode_partial(encode_frame(&v, &Bytes::new())).unwrap();
        assert_eq!(h2.cells_skipped, 0);
        assert_eq!(h2.bricks_skipped, 0);
        assert_eq!(h2.attempt, 0);
        assert_eq!(h2.payload_crc, 0, "absent crc means unchecked");
        assert_eq!(h2.dms.fallbacks, 0);
        assert_eq!(h2.extract_par_s, 0.0);
        assert_eq!(h2.extract_threads, 0, "absent thread count means unknown");
        assert_eq!(h2.job, 4);
    }

    #[test]
    fn done_header_without_merge_time_defaults_to_zero() {
        // Frames from masters predating the per-stage merge timing must
        // still decode.
        let h = DoneHeader {
            job: 11,
            kind: PayloadKind::Triangles,
            n_items: 5,
            read_s: 1.0,
            compute_s: 2.0,
            send_s: 0.5,
            merge_s: 0.125,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 0,
            parent_span_id: 0,
            obs_deltas: Vec::new(),
            error: None,
        };
        let mut v = h.to_json();
        v.remove("merge_s");
        let (h2, _) = decode_done(encode_frame(&v, &Bytes::new())).unwrap();
        assert_eq!(h2.merge_s, 0.0);
        assert_eq!(h2.read_s, 1.0);
        assert_eq!(h2.job, 11);
    }

    #[test]
    fn commands_without_resilience_fields_decode_unchecked() {
        // Frames from peers predating attempt/check must still decode.
        let msg = CommandMsg {
            job: 8,
            command: "ViewerCut".into(),
            dataset: "Engine".into(),
            params: CommandParams::new(),
            group: vec![0, 1],
            attempt: 0,
            check: 0,
            trace_id: 0,
            parent_span_id: 0,
        };
        let frame = encode_command(&msg);
        let mut v = header_of(&frame);
        v.remove("attempt");
        v.remove("check");
        let got = decode_command(encode_frame(&v, &Bytes::new())).unwrap();
        assert_eq!(got.attempt, 0);
        assert_eq!(got.check, 0);
        assert_eq!(got.job, 8);
    }

    #[test]
    fn done_header_residency_roundtrips() {
        let mut d1 = ResidencyDigest::empty();
        d1.insert(vira_dms::ItemId(17));
        let mut d2 = ResidencyDigest::empty();
        d2.insert(vira_dms::ItemId(900));
        let h = DoneHeader {
            job: 6,
            kind: PayloadKind::Triangles,
            n_items: 1,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            merge_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: vec![(1, d1.clone()), (2, d2.clone())],
            trace_id: 0,
            parent_span_id: 0,
            obs_deltas: Vec::new(),
            error: None,
        };
        let (h2, _) = decode_done(encode_done(&h, Bytes::new())).unwrap();
        assert_eq!(h2.residency, vec![(1, d1), (2, d2)]);
    }

    #[test]
    fn headers_without_residency_decode_with_empty_defaults() {
        // Frames from peers predating locality-aware placement carry no
        // residency fields; they must decode to the unknown digest /
        // empty list.
        let h = PartialHeader {
            job: 2,
            kind: PayloadKind::None,
            n_items: 0,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: ResidencyDigest::from_items([vira_dms::ItemId(3)]),
            trace_id: 0,
            parent_span_id: 0,
            obs_delta: String::new(),
            error: None,
        };
        let mut v = h.to_json();
        v.remove("residency");
        let (h2, _) = decode_partial(encode_frame(&v, &Bytes::new())).unwrap();
        assert!(h2.residency.is_unknown());

        let d = DoneHeader {
            job: 2,
            kind: PayloadKind::None,
            n_items: 0,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            merge_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: vec![(1, ResidencyDigest::empty())],
            trace_id: 0,
            parent_span_id: 0,
            obs_deltas: Vec::new(),
            error: None,
        };
        let mut v = d.to_json();
        v.remove("residency");
        let (d2, _) = decode_done(encode_frame(&v, &Bytes::new())).unwrap();
        assert!(d2.residency.is_empty());
    }

    #[test]
    fn traced_command_verifies_and_decodes_without_trace_fields() {
        // New writer -> new reader: the trace context rides along and
        // the integrity check (which excludes it) still verifies.
        let msg = CommandMsg {
            job: 12,
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 0.4),
            group: vec![0, 1],
            attempt: 1,
            check: 0,
            trace_id: 0xfeed,
            parent_span_id: 77,
        };
        let frame = encode_command(&msg);
        let got = decode_command(frame.clone()).unwrap();
        assert_eq!(got.trace_id, 0xfeed);
        assert_eq!(got.parent_span_id, 77);
        assert_ne!(got.check, 0);
        // New writer -> old reader: an old peer's check computation
        // never saw the trace fields, so the check over the remaining
        // fields must be identical to an untraced frame's.
        let mut untraced = msg.clone();
        untraced.trace_id = 0;
        untraced.parent_span_id = 0;
        let old = decode_command(encode_command(&untraced)).unwrap();
        assert_eq!(
            old.check, got.check,
            "trace fields must not perturb the check"
        );
        // Old writer -> new reader: frames without the fields decode
        // to the zero (no-trace) context.
        let mut v = header_of(&frame);
        v.remove("trace_id");
        v.remove("parent_span_id");
        let got = decode_command(encode_frame(&v, &Bytes::new())).unwrap();
        assert_eq!(got.trace_id, 0);
        assert_eq!(got.parent_span_id, 0);
        assert_eq!(got.job, 12);
    }

    #[test]
    fn partial_and_done_trace_fields_default_to_zero() {
        let h = DoneHeader {
            job: 5,
            kind: PayloadKind::Triangles,
            n_items: 1,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            merge_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 42,
            parent_span_id: 9,
            obs_deltas: Vec::new(),
            error: None,
        };
        let (h2, _) = decode_done(encode_done(&h, Bytes::new())).unwrap();
        assert_eq!((h2.trace_id, h2.parent_span_id), (42, 9));
        // Old-writer frames (fields absent) decode to the no-trace context.
        let mut v = h.to_json();
        v.remove("trace_id");
        v.remove("parent_span_id");
        let (h2, _) = decode_done(encode_frame(&v, &Bytes::new())).unwrap();
        assert_eq!((h2.trace_id, h2.parent_span_id), (0, 0));
    }

    #[test]
    fn obs_delta_fields_roundtrip_and_default_empty() {
        // New writer -> new reader: the piggybacked telemetry delta
        // rides the partial header verbatim.
        let mut h = PartialHeader {
            job: 7,
            kind: PayloadKind::Triangles,
            n_items: 1,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 0,
            parent_span_id: 0,
            obs_delta: "OBSD1 2 1 100\nc sched_jobs_done_total 3\n".into(),
            error: None,
        };
        let (h2, _) = decode_partial(encode_partial(&h, Bytes::new())).unwrap();
        assert_eq!(h2.obs_delta, h.obs_delta);
        // Old-writer frames (field absent) decode to an empty delta.
        h.payload_crc = h2.payload_crc;
        let mut v = h.to_json();
        v.remove("obs_delta");
        let (h2, _) = decode_partial(encode_frame(&v, &Bytes::new())).unwrap();
        assert!(h2.obs_delta.is_empty());

        let mut d = DoneHeader {
            job: 7,
            kind: PayloadKind::Triangles,
            n_items: 1,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            merge_s: 0.0,
            dms: DmsStatsSnapshot::default(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: Default::default(),
            trace_id: 0,
            parent_span_id: 0,
            obs_deltas: vec![(1, "OBSD1 1 4 200\ng dms_cache_blocks 9\n".into())],
            error: None,
        };
        let (d2, _) = decode_done(encode_done(&d, Bytes::new())).unwrap();
        assert_eq!(d2.obs_deltas, d.obs_deltas);
        d.payload_crc = d2.payload_crc;
        let mut v = d.to_json();
        v.remove("obs_deltas");
        let (d2, _) = decode_done(encode_frame(&v, &Bytes::new())).unwrap();
        assert!(d2.obs_deltas.is_empty());
    }

    const DMS_TEXT: &str = r#"{"demand_requests":9,"l1_hits":4,"l2_hits":2,"misses":3,"prefetch_waits":1,"prefetch_issued":5,"prefetch_redundant":6,"prefetch_hits":7,"fallbacks":8,"loads_by_strategy":[1,2,3,4]}"#;

    fn fixture_dms() -> DmsStatsSnapshot {
        DmsStatsSnapshot {
            demand_requests: 9,
            l1_hits: 4,
            l2_hits: 2,
            misses: 3,
            prefetch_waits: 1,
            prefetch_issued: 5,
            prefetch_redundant: 6,
            prefetch_hits: 7,
            fallbacks: 8,
            loads_by_strategy: [1, 2, 3, 4],
        }
    }

    // The three fixtures below are what a peer built with the derived
    // encoder of earlier versions puts on the wire: each must decode to
    // the value beside it, be what this build sends, and round-trip
    // through the frame codec.

    #[test]
    fn command_wire_shape_is_pinned() {
        let text = r#"{"job":18446744073709551615,"command":"ViewerIso","dataset":"Engine","params":[["iso","0.4"]],"group":[1,2,5],"attempt":2,"check":77,"trace_id":9007199254740993,"parent_span_id":12}"#;
        let msg = CommandMsg {
            job: u64::MAX,
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 0.4),
            group: vec![1, 2, 5],
            attempt: 2,
            check: 77,
            trace_id: (1 << 53) + 1,
            parent_span_id: 12,
        };
        assert_eq!(
            CommandMsg::from_json(&json::parse(text).unwrap()).as_ref(),
            Ok(&msg)
        );
        assert_eq!(msg.to_json().to_string(), text);
        let back = decode_command(encode_command(&msg)).unwrap();
        assert_eq!(
            back,
            CommandMsg {
                check: back.check,
                ..msg
            }
        );
    }

    #[test]
    fn partial_wire_shape_is_pinned() {
        let text = format!(
            r#"{{"job":1,"kind":"Triangles","n_items":2,"read_s":1.0,"compute_s":2.5,"send_s":0.1,"dms":{DMS_TEXT},"cells_skipped":120,"bricks_skipped":3,"extract_par_s":0.5,"extract_threads":4,"attempt":1,"payload_crc":4294967295,"residency":{{"words":[]}},"trace_id":7,"parent_span_id":8,"obs_delta":"OBSD1 2 1 100\nc jobs 3\n","error":null}}"#
        );
        let h = PartialHeader {
            job: 1,
            kind: PayloadKind::Triangles,
            n_items: 2,
            read_s: 1.0,
            compute_s: 2.5,
            send_s: 0.1,
            dms: fixture_dms(),
            cells_skipped: 120,
            bricks_skipped: 3,
            extract_par_s: 0.5,
            extract_threads: 4,
            attempt: 1,
            payload_crc: u32::MAX,
            residency: ResidencyDigest::default(),
            trace_id: 7,
            parent_span_id: 8,
            obs_delta: "OBSD1 2 1 100\nc jobs 3\n".into(),
            error: None,
        };
        assert_eq!(
            PartialHeader::from_json(&json::parse(&text).unwrap()).as_ref(),
            Ok(&h)
        );
        assert_eq!(h.to_json().to_string(), text);
        let (back, payload) =
            decode_partial(encode_partial(&h, Bytes::from_static(b"xyz"))).unwrap();
        assert_eq!(&payload[..], b"xyz");
        assert_eq!(
            back,
            PartialHeader {
                payload_crc: back.payload_crc,
                ..h
            }
        );
    }

    #[test]
    fn done_wire_shape_is_pinned() {
        let d1 = ResidencyDigest::from_items([vira_dms::ItemId(63)]);
        let text = format!(
            r#"{{"job":9,"kind":"None","n_items":0,"read_s":0.0,"compute_s":0.0,"send_s":0.0,"merge_s":0.25,"dms":{DMS_TEXT},"cells_skipped":0,"bricks_skipped":0,"extract_par_s":0.0,"extract_threads":0,"attempt":0,"payload_crc":0,"residency":[[1,{}],[2,{{"words":[]}}]],"trace_id":0,"parent_span_id":0,"obs_deltas":[[1,"OBSD1 1 4 200\n"]],"error":"worker 3 failed"}}"#,
            d1.to_json()
        );
        let h = DoneHeader {
            job: 9,
            kind: PayloadKind::None,
            n_items: 0,
            read_s: 0.0,
            compute_s: 0.0,
            send_s: 0.0,
            merge_s: 0.25,
            dms: fixture_dms(),
            cells_skipped: 0,
            bricks_skipped: 0,
            extract_par_s: 0.0,
            extract_threads: 0,
            attempt: 0,
            payload_crc: 0,
            residency: vec![(1, d1), (2, ResidencyDigest::default())],
            trace_id: 0,
            parent_span_id: 0,
            obs_deltas: vec![(1, "OBSD1 1 4 200\n".into())],
            error: Some("worker 3 failed".into()),
        };
        assert_eq!(
            DoneHeader::from_json(&json::parse(&text).unwrap()).as_ref(),
            Ok(&h)
        );
        assert_eq!(h.to_json().to_string(), text);
        let (back, _) = decode_done(encode_done(&h, Bytes::new())).unwrap();
        assert_eq!(
            back,
            DoneHeader {
                payload_crc: back.payload_crc,
                ..h
            }
        );
    }

    #[test]
    fn headers_skip_unknown_fields_and_refuse_wrong_types() {
        let msg = CommandMsg {
            job: 3,
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new(),
            group: vec![0],
            attempt: 0,
            check: 0,
            trace_id: 0,
            parent_span_id: 0,
        };
        let mut v = msg.to_json();
        v.set("priority", "a field from the future".into());
        assert_eq!(CommandMsg::from_json(&v), Ok(msg));
        v.set("job", Json::Num(3.0));
        assert!(
            CommandMsg::from_json(&v).is_err(),
            "a float is not a job id"
        );
        v.set("job", Json::Int(-3));
        assert!(CommandMsg::from_json(&v).is_err());
        v.remove("job");
        assert!(CommandMsg::from_json(&v).unwrap_err().contains("job"));
    }

    #[test]
    fn malformed_frames_yield_none() {
        assert!(decode_command(Bytes::from_static(b"x")).is_none());
        assert!(decode_partial(Bytes::from_static(b"\x10\x00\x00\x00nope")).is_none());
    }
}
