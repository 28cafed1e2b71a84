//! Layer-2 messages between the scheduler, workers and master workers,
//! riding on the layer-1 transport. Every message core puts on the rank
//! transport is built and parsed here and nowhere else:
//!
//! ```text
//! COMMAND, PARTIAL, DONE   u32 header_len (LE) | JSON header | payload         | seal
//! PING                     nonce u64 | want_delta u8                           | seal
//! PONG                     nonce u64 | clock_ns u64 | digest_len u32 | digest | delta | seal
//! CANCEL                   job u64                                             | seal
//! ```
//!
//! PARTIAL and DONE share one header, [`ResultHeader`]: a partial is one
//! rank's share of a job's result, a done the whole group's, and the
//! accounting in both is a [`JobReport`] that the master sums hop by
//! hop and the scheduler hands on to the client.
//!
//! The seal is [`frame_crc`]`(0, 0, tag, body)` over every byte before
//! it (8 bytes LE). It binds the message to its tag and detects every
//! change confined to one 8-byte word, so a flipped bit anywhere —
//! header, payload or seal — makes the decoder return `None` and the
//! sender's retransmission recovers the message. Decoding is strict: a
//! decoder accepts exactly the layout its encoder writes, and a JSON
//! header must carry every key but those of `Option` fields (unknown
//! keys are skipped). Any change to one of these layouts bumps
//! `vira_comm::socket::PROTOCOL_VERSION`, and the handshake refuses a
//! peer of another version, so no decoder ever meets an older layout.

use bytes::Bytes;
use vira_comm::socket::frame_crc;
use vira_comm::transport::{tags, Rank, Tag};
use vira_dms::cache::ResidencyDigest;
use vira_obs::json::{self, Json};
use vira_vista::protocol::{decode_frame, CommandParams, JobId, JobReport, PayloadKind};

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
    /// Causal trace context: the submit's trace id and the scheduler
    /// dispatch span to parent worker spans under (`0` = no trace).
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
            ("trace_id", self.trace_id.into()),
            ("parent_span_id", self.parent_span_id.into()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<CommandMsg, String> {
        Ok(CommandMsg {
            job: j.req("job", json::u64)?,
            command: j.req("command", json::string)?,
            dataset: j.req("dataset", json::string)?,
            params: j.req("params", CommandParams::from_json)?,
            group: j.req("group", |g| json::list(g, json::usize))?,
            attempt: j.req("attempt", json::u32)?,
            trace_id: j.req("trace_id", json::u64)?,
            parent_span_id: j.req("parent_span_id", json::u64)?,
        })
    }
}

/// Worker → master (PARTIAL) and master → scheduler (DONE): a share of
/// a job's result. A PARTIAL carries one rank's share; the master folds
/// the group's partials into its own and sends the sum as the DONE.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultHeader {
    pub job: JobId,
    /// Dispatch attempt this result answers (mirrors the command).
    pub attempt: u32,
    pub kind: PayloadKind,
    pub n_items: u32,
    /// The share's accounting: modeled seconds per category, DMS,
    /// geometry and pruning counters. The scheduler's own fields ride as
    /// zeros; it sets them before the report reaches the client.
    pub report: JobReport,
    /// DMS cache fingerprints after the job, per rank (the sender's in a
    /// PARTIAL, the whole group's in a DONE), which the scheduler scores
    /// future placements with.
    pub residency: Vec<(Rank, ResidencyDigest)>,
    /// Piggybacked telemetry: per-rank metric deltas in the `OBSD1` text
    /// codec (`vira_obs::ship`); a rank with nothing new is left out.
    pub obs_deltas: Vec<(Rank, String)>,
    /// Causal trace context propagated from the command: the trace id
    /// and the sender's `worker.job` span, so the receiver (and the
    /// flight recorder) can bind the result to its producer (`0` = no
    /// trace).
    pub trace_id: u64,
    pub parent_span_id: u64,
    /// Set when the command failed: on the sender, or in a DONE on the
    /// first rank of the group that failed.
    pub error: Option<String>,
}

impl ResultHeader {
    pub fn to_json(&self) -> Json {
        let residency = |(rank, digest): &(Rank, ResidencyDigest)| {
            Json::Arr(vec![(*rank).into(), digest.to_json()])
        };
        let obs_delta =
            |(rank, delta): &(Rank, String)| Json::Arr(vec![(*rank).into(), delta.as_str().into()]);
        Json::obj([
            ("job", self.job.into()),
            ("attempt", self.attempt.into()),
            ("kind", self.kind.to_json()),
            ("n_items", self.n_items.into()),
            ("report", self.report.to_json()),
            (
                "residency",
                Json::Arr(self.residency.iter().map(residency).collect()),
            ),
            (
                "obs_deltas",
                Json::Arr(self.obs_deltas.iter().map(obs_delta).collect()),
            ),
            ("trace_id", self.trace_id.into()),
            ("parent_span_id", self.parent_span_id.into()),
            ("error", self.error.as_deref().into()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<ResultHeader, String> {
        let residency = |r: &Json| json::pair(r, json::usize, ResidencyDigest::from_json);
        let obs_delta = |d: &Json| json::pair(d, json::usize, json::string);
        Ok(ResultHeader {
            job: j.req("job", json::u64)?,
            attempt: j.req("attempt", json::u32)?,
            kind: j.req("kind", PayloadKind::from_json)?,
            n_items: j.req("n_items", json::u32)?,
            report: j.req("report", JobReport::from_json)?,
            residency: j.req("residency", |r| json::list(r, residency))?,
            obs_deltas: j.req("obs_deltas", |d| json::list(d, obs_delta))?,
            trace_id: j.req("trace_id", json::u64)?,
            parent_span_id: j.req("parent_span_id", json::u64)?,
            error: j.opt("error", json::string)?,
        })
    }
}

/// Scheduler → worker liveness probe. Liveness probes and telemetry
/// heartbeats draw their nonces from one counter, so neither can answer
/// the other; a heartbeat sets `want_delta` to have the worker ship its
/// pending metric delta in the pong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ping {
    pub nonce: u64,
    pub want_delta: bool,
}

/// Worker → scheduler: the answer to a [`Ping`].
#[derive(Debug, Clone, PartialEq)]
pub struct Pong {
    /// The nonce of the ping answered.
    pub nonce: u64,
    /// The worker's clock when it answered, in nanoseconds since the
    /// obs epoch: the probe's sample for the flight recorder's
    /// clock-offset estimate.
    pub clock_ns: u64,
    /// The worker's cache-residency digest, for placement.
    pub residency: ResidencyDigest,
    /// The worker's metric delta (`OBSD1` text codec) when the ping
    /// wanted one; empty otherwise, or when nothing changed.
    pub delta: String,
}

/// Bytes of the seal that closes every message.
const SEAL_LEN: usize = 8;

/// Closes the message built in `buf` with its seal. Callers allocate
/// `buf` with [`SEAL_LEN`] bytes to spare, so sealing never copies.
fn seal(tag: Tag, mut buf: Vec<u8>) -> Bytes {
    let digest = frame_crc(0, 0, tag, &buf);
    buf.extend_from_slice(&digest.to_le_bytes());
    Bytes::from(buf)
}

/// The body of a message received under `tag` — `frame` without its
/// seal — or `None` when the seal does not match.
fn open(tag: Tag, frame: &[u8]) -> Option<&[u8]> {
    let (body, digest) = frame.split_at(frame.len().checked_sub(SEAL_LEN)?);
    (frame_crc(0, 0, tag, body).to_le_bytes() == digest).then_some(body)
}

/// A sealed JSON-headed message: `u32 header_len | header | payload`.
fn encode(tag: Tag, header: &Json, payload: &[u8]) -> Bytes {
    let header = header.to_string();
    let mut buf = Vec::with_capacity(4 + header.len() + payload.len() + SEAL_LEN);
    buf.extend_from_slice(&(header.len() as u32).to_le_bytes());
    buf.extend_from_slice(header.as_bytes());
    buf.extend_from_slice(payload);
    seal(tag, buf)
}

/// Opens a JSON-headed message and reads its header with `header`; the
/// payload behind it is a view of `frame`, not a copy.
fn decode<T>(
    tag: Tag,
    frame: Bytes,
    header: impl FnOnce(&Json) -> Result<T, String>,
) -> Option<(T, Bytes)> {
    let body = open(tag, &frame)?.len();
    let (json, payload) = decode_frame(frame.slice(0..body)).ok()?;
    Some((header(&json).ok()?, payload))
}

/// The little-endian `u64` at `at`; the caller checked the length.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

pub fn encode_command(msg: &CommandMsg) -> Bytes {
    encode(tags::COMMAND, &msg.to_json(), &[])
}

/// A command carries no payload; a frame with one is not a command.
pub fn decode_command(frame: Bytes) -> Option<CommandMsg> {
    let (msg, payload) = decode(tags::COMMAND, frame, CommandMsg::from_json)?;
    payload.is_empty().then_some(msg)
}

/// A result under `tag`: [`tags::PARTIAL_RESULT`] or [`tags::JOB_DONE`].
/// The seal binds the tag, so a PARTIAL never decodes as a DONE.
pub fn encode_result(tag: Tag, header: &ResultHeader, payload: &[u8]) -> Bytes {
    encode(tag, &header.to_json(), payload)
}

pub fn decode_result(tag: Tag, frame: Bytes) -> Option<(ResultHeader, Bytes)> {
    decode(tag, frame, ResultHeader::from_json)
}

pub fn encode_ping(ping: &Ping) -> Bytes {
    let mut buf = Vec::with_capacity(9 + SEAL_LEN);
    buf.extend_from_slice(&ping.nonce.to_le_bytes());
    buf.push(ping.want_delta.into());
    seal(tags::PING, buf)
}

pub fn decode_ping(frame: &[u8]) -> Option<Ping> {
    let body = open(tags::PING, frame)?;
    if body.len() != 9 || body[8] > 1 {
        return None;
    }
    Some(Ping {
        nonce: le_u64(body, 0),
        want_delta: body[8] == 1,
    })
}

pub fn encode_pong(pong: &Pong) -> Bytes {
    let digest = pong.residency.to_bytes();
    let mut buf = Vec::with_capacity(20 + digest.len() + pong.delta.len() + SEAL_LEN);
    buf.extend_from_slice(&pong.nonce.to_le_bytes());
    buf.extend_from_slice(&pong.clock_ns.to_le_bytes());
    buf.extend_from_slice(&(digest.len() as u32).to_le_bytes());
    buf.extend_from_slice(&digest);
    buf.extend_from_slice(pong.delta.as_bytes());
    seal(tags::PONG, buf)
}

pub fn decode_pong(frame: &[u8]) -> Option<Pong> {
    let body = open(tags::PONG, frame)?;
    let digest_len = u32::from_le_bytes(body.get(16..20)?.try_into().expect("4 bytes"));
    let (digest, delta) = body[20..].split_at_checked(digest_len as usize)?;
    Some(Pong {
        nonce: le_u64(body, 0),
        clock_ns: le_u64(body, 8),
        residency: ResidencyDigest::from_bytes(digest)?,
        delta: std::str::from_utf8(delta).ok()?.to_owned(),
    })
}

/// Scheduler → worker cancel notice: the bare job id. JSON-free so the
/// socket reader thread can decode it inline without pulling a payload
/// apart mid-stream.
pub fn encode_cancel(job: JobId) -> Bytes {
    let mut buf = Vec::with_capacity(8 + SEAL_LEN);
    buf.extend_from_slice(&job.to_le_bytes());
    seal(tags::CANCEL, buf)
}

pub fn decode_cancel(frame: &[u8]) -> Option<JobId> {
    Some(JobId::from_le_bytes(
        open(tags::CANCEL, frame)?.try_into().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_dms::ItemId;

    fn command() -> CommandMsg {
        CommandMsg {
            job: 3,
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 0.4),
            group: vec![1, 2, 5],
            attempt: 2,
            trace_id: 0xfeed,
            parent_span_id: 77,
        }
    }

    /// One rank's share, as its PARTIAL carries it.
    fn partial() -> ResultHeader {
        ResultHeader {
            job: 1,
            attempt: 1,
            kind: PayloadKind::Triangles,
            n_items: 2,
            report: JobReport {
                read_s: 1.0,
                compute_s: 2.5,
                send_s: 0.1,
                demand_requests: 9,
                cache_hits: 6,
                cache_misses: 3,
                prefetch_issued: 5,
                prefetch_hits: 7,
                triangles: 2,
                cells_skipped: 120,
                bricks_skipped: 3,
                ..JobReport::default()
            },
            residency: vec![(2, ResidencyDigest::default())],
            obs_deltas: vec![(2, "OBSD1 2 1 100\nc jobs 3\n".into())],
            trace_id: 7,
            parent_span_id: 8,
            error: None,
        }
    }

    /// A group's DONE with two ranks' digests and a failure.
    fn done() -> ResultHeader {
        ResultHeader {
            job: 9,
            attempt: 0,
            report: JobReport {
                merge_s: 0.25,
                ..partial().report
            },
            residency: vec![
                (1, ResidencyDigest::from_items([ItemId(63)])),
                (2, ResidencyDigest::from_items([ItemId(900)])),
            ],
            obs_deltas: vec![(1, "OBSD1 1 4 200\n".into())],
            trace_id: 0,
            parent_span_id: 0,
            error: Some("worker 3 failed".into()),
            ..partial()
        }
    }

    #[test]
    fn cancel_roundtrip() {
        for job in [0, 42, u64::MAX] {
            assert_eq!(decode_cancel(&encode_cancel(job)), Some(job));
        }
        assert_eq!(decode_cancel(b"short"), None, "truncated payload");
        assert_eq!(decode_cancel(&42u64.to_le_bytes()), None, "unsealed job id");
        let mut long = encode_cancel(42).to_vec();
        long.insert(0, 0);
        assert_eq!(decode_cancel(&long), None, "oversized payload");
    }

    #[test]
    fn command_roundtrip() {
        assert_eq!(decode_command(encode_command(&command())), Some(command()));
    }

    #[test]
    fn tampered_command_fields_are_rejected() {
        // A change that still parses as JSON must not yield a command
        // with silently altered fields.
        let mut bytes = encode_command(&command()).to_vec();
        let at = bytes.windows(6).position(|w| w == b"Engine").unwrap();
        bytes[at..at + 6].copy_from_slice(b"Rotors");
        assert!(decode_command(Bytes::from(bytes)).is_none());
    }

    #[test]
    fn partial_roundtrip_with_payload() {
        let frame = encode_result(tags::PARTIAL_RESULT, &partial(), b"geometry");
        let (h, p) = decode_result(tags::PARTIAL_RESULT, frame).unwrap();
        assert_eq!(h, partial());
        assert_eq!(&p[..], b"geometry");
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = encode_result(tags::PARTIAL_RESULT, &partial(), b"geometry").to_vec();
        let last_payload_byte = bytes.len() - SEAL_LEN - 1;
        bytes[last_payload_byte] ^= 0x10;
        assert!(decode_result(tags::PARTIAL_RESULT, Bytes::from(bytes)).is_none());
    }

    #[test]
    fn done_roundtrip_with_error() {
        // Every rank's digest and the group's first error come back.
        let frame = encode_result(tags::JOB_DONE, &done(), &[]);
        let (h, p) = decode_result(tags::JOB_DONE, frame).unwrap();
        assert_eq!(h, done());
        assert!(p.is_empty());
    }

    #[test]
    fn obs_delta_fields_roundtrip_and_default_empty() {
        // The piggybacked telemetry deltas ride the header verbatim, and
        // "nothing new" travels as no entry.
        for deltas in [
            vec![(1, "OBSD1 1 4 200\ng dms_cache_blocks 9\n".into())],
            vec![],
        ] {
            let h = ResultHeader {
                obs_deltas: deltas.clone(),
                ..done()
            };
            let (h2, _) =
                decode_result(tags::JOB_DONE, encode_result(tags::JOB_DONE, &h, &[])).unwrap();
            assert_eq!(h2.obs_deltas, deltas);
        }
    }

    #[test]
    fn every_written_key_is_required_but_the_options() {
        // Deleting any one key a header writes fails its decode, except
        // the keys of `Option` fields.
        fn check(full: Json, optional: &[&str], decodes: impl Fn(&Json) -> bool) {
            assert!(decodes(&full));
            for (key, _) in full.as_obj().unwrap() {
                let mut v = full.clone();
                v.remove(key);
                assert_eq!(
                    decodes(&v),
                    optional.contains(&key.as_str()),
                    "without `{key}`"
                );
            }
        }
        check(command().to_json(), &[], |j| {
            CommandMsg::from_json(j).is_ok()
        });
        check(done().to_json(), &["error"], |j| {
            ResultHeader::from_json(j).is_ok()
        });
        check(ResidencyDigest::empty().to_json(), &[], |j| {
            ResidencyDigest::from_json(j).is_ok()
        });
    }

    #[test]
    fn ping_roundtrips_and_refuses_other_layouts() {
        for ping in [
            Ping {
                nonce: 42,
                want_delta: false,
            },
            Ping {
                nonce: u64::MAX,
                want_delta: true,
            },
        ] {
            let frame = encode_ping(&ping);
            assert_eq!(frame.len(), 9 + SEAL_LEN);
            assert_eq!(decode_ping(&frame), Some(ping));
            // The seal binds the tag: a ping is no other message.
            assert_eq!(decode_pong(&frame), None);
            assert_eq!(decode_cancel(&frame), None);
        }
        let mut body = 7u64.to_le_bytes().to_vec();
        body.push(2);
        assert_eq!(decode_ping(&seal(tags::PING, body)), None, "flag is 0 or 1");
        assert_eq!(decode_ping(&7u64.to_le_bytes()), None, "unsealed nonce");
    }

    fn pong(residency: ResidencyDigest, delta: &str) -> Pong {
        Pong {
            nonce: 9,
            clock_ns: 1234,
            residency,
            delta: delta.into(),
        }
    }

    #[test]
    fn pong_roundtrips_with_and_without_digest() {
        let digest = ResidencyDigest::from_items([ItemId(5)]);
        for residency in [ResidencyDigest::default(), digest] {
            let p = pong(residency, "");
            let frame = encode_pong(&p);
            let digest_len = p.residency.to_bytes().len();
            assert_eq!(frame.len(), 20 + digest_len + SEAL_LEN);
            assert_eq!(decode_pong(&frame), Some(p));
        }
    }

    #[test]
    fn pong_roundtrips_with_and_without_delta() {
        let digest = ResidencyDigest::from_items([ItemId(5)]);
        let delta = "OBSD1 1 1 100\nc sched_jobs_done_total 2\n";
        for residency in [ResidencyDigest::default(), digest] {
            for delta in ["", delta] {
                let p = pong(residency.clone(), delta);
                assert_eq!(decode_pong(&encode_pong(&p)), Some(p));
            }
        }
    }

    #[test]
    fn pong_of_any_other_layout_is_refused() {
        let sealed = |digest_len: u32, digest: &[u8], delta: &[u8]| {
            let mut b = 9u64.to_le_bytes().to_vec();
            b.extend_from_slice(&1234u64.to_le_bytes());
            b.extend_from_slice(&digest_len.to_le_bytes());
            b.extend_from_slice(digest);
            b.extend_from_slice(delta);
            seal(tags::PONG, b)
        };
        assert!(decode_pong(&sealed(0, &[], b"")).is_some());
        assert!(
            decode_pong(&sealed(8, &[0; 8], b"")).is_none(),
            "digest is 0 or 128 bytes"
        );
        assert!(
            decode_pong(&sealed(128, &[0; 64], b"")).is_none(),
            "digest past the end"
        );
        assert!(
            decode_pong(&sealed(0, &[], &[0xff])).is_none(),
            "delta is UTF-8"
        );
        assert!(
            decode_pong(&seal(tags::PONG, vec![0; 19])).is_none(),
            "short fixed part"
        );
        assert!(decode_pong(&[0; 24]).is_none(), "unsealed nonce | clock");
    }

    // The two fixtures below pin what this build puts on the wire:
    // each must decode to the value beside it, be what this build
    // sends, and round-trip through the sealed codec.

    #[test]
    fn command_wire_shape_is_pinned() {
        let text = r#"{"job":18446744073709551615,"command":"ViewerIso","dataset":"Engine","params":[["iso","0.4"]],"group":[1,2,5],"attempt":2,"trace_id":9007199254740993,"parent_span_id":12}"#;
        let msg = CommandMsg {
            job: u64::MAX,
            trace_id: (1 << 53) + 1,
            parent_span_id: 12,
            ..command()
        };
        assert_eq!(
            CommandMsg::from_json(&json::parse(text).unwrap()).as_ref(),
            Ok(&msg)
        );
        assert_eq!(msg.to_json().to_string(), text);
        assert_eq!(decode_command(encode_command(&msg)), Some(msg));
    }

    #[test]
    fn result_wire_shape_is_pinned() {
        let report = r#"{"total_runtime_s":0.0,"read_s":1.0,"compute_s":2.5,"send_s":0.1,"queue_wait_s":0.0,"requeue_wait_s":0.0,"merge_s":0.25,"demand_requests":9,"cache_hits":6,"cache_misses":3,"prefetch_issued":5,"prefetch_hits":7,"triangles":2,"polylines":0,"cells_skipped":120,"bricks_skipped":3,"retries":0,"degraded":false}"#;
        let text = format!(
            r#"{{"job":9,"attempt":0,"kind":"Triangles","n_items":2,"report":{report},"residency":[[1,{}],[2,{}]],"obs_deltas":[[1,"OBSD1 1 4 200\n"]],"trace_id":0,"parent_span_id":0,"error":"worker 3 failed"}}"#,
            ResidencyDigest::from_items([ItemId(63)]).to_json(),
            ResidencyDigest::from_items([ItemId(900)]).to_json(),
        );
        let h = done();
        assert_eq!(
            ResultHeader::from_json(&json::parse(&text).unwrap()).as_ref(),
            Ok(&h)
        );
        assert_eq!(h.to_json().to_string(), text);
        for tag in [tags::PARTIAL_RESULT, tags::JOB_DONE] {
            let (back, payload) = decode_result(tag, encode_result(tag, &h, b"xyz")).unwrap();
            assert_eq!(&payload[..], b"xyz");
            assert_eq!(back, h);
        }
    }

    #[test]
    fn headers_skip_unknown_fields_and_refuse_wrong_types() {
        let msg = command();
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
        let garbage = Bytes::from_static(b"\x10\x00\x00\x00nope");
        assert!(decode_result(tags::PARTIAL_RESULT, garbage).is_none());
        // A well-formed frame sealed under another tag is refused too:
        // a PARTIAL never decodes as a DONE.
        let partial = encode_result(tags::PARTIAL_RESULT, &partial(), &[]);
        assert!(decode_result(tags::JOB_DONE, partial).is_none());
    }
}
