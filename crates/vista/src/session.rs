//! Session recording: a serializable log of everything a visualization
//! session asked the back-end to do and what came back — the artifact an
//! exploration session leaves behind for later analysis (which commands
//! were tried, how long each took, how the caches behaved over time).
//!
//! Also home of [`StreamSession`], the back-end's per-job resend buffer
//! that lets a client survive mid-stream frame loss: every emitted
//! frame is kept until the client acknowledges it, and a
//! [`Resume`](crate::protocol::ClientRequest::Resume) replays whatever
//! is still un-acked, byte-identical.

use crate::client::JobOutcome;
use crate::protocol::{CommandParams, JobId, JobReport};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use vira_obs as obs;
use vira_obs::json::{self, Json};

static RESENDS: OnceLock<Arc<obs::Counter>> = OnceLock::new();

/// Per-job resend buffer on the scheduler side of the client link.
///
/// The link itself is reliable in-process, but a real deployment (and
/// the fault-injected test harness) can lose frames between back-end
/// and viewer. The session keeps every streamed frame until it is
/// acknowledged; on a resume request the un-acked tail — plus the
/// final event, if the job already finished — is replayed verbatim.
#[derive(Debug, Default)]
pub struct StreamSession {
    job: JobId,
    /// Un-acked partial frames by sequence number (fully encoded, so
    /// a resend is byte-identical to the original transmission).
    unacked: BTreeMap<u32, Bytes>,
    /// The final event frame, kept until the session is dropped (a
    /// resume after job completion must still deliver it).
    final_frame: Option<Bytes>,
    next_seq: u32,
}

impl StreamSession {
    pub fn new(job: JobId) -> StreamSession {
        StreamSession {
            job,
            ..StreamSession::default()
        }
    }

    pub fn job(&self) -> JobId {
        self.job
    }

    /// Allocates the next partial sequence number.
    pub fn next_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Records a streamed partial frame for possible resend.
    pub fn record_partial(&mut self, seq: u32, frame: Bytes) {
        self.unacked.insert(seq, frame);
    }

    /// Records the final event frame for possible resend.
    pub fn record_final(&mut self, frame: Bytes) {
        self.final_frame = Some(frame);
    }

    /// Drops every partial with `seq <= up_to_seq` from the buffer.
    pub fn ack(&mut self, up_to_seq: u32) {
        self.unacked.retain(|&seq, _| seq > up_to_seq);
    }

    /// Un-acked partial frames currently buffered.
    pub fn unacked(&self) -> usize {
        self.unacked.len()
    }

    /// Whether the final event has been recorded.
    pub fn finished(&self) -> bool {
        self.final_frame.is_some()
    }

    /// The frames to replay on a resume: un-acked partials in
    /// sequence order, then the final event if the job finished.
    /// Each returned frame counts as a resend.
    pub fn resend_frames(&self) -> Vec<Bytes> {
        let mut out: Vec<Bytes> = self.unacked.values().cloned().collect();
        if let Some(f) = &self.final_frame {
            out.push(f.clone());
        }
        obs::counter_cached(&RESENDS, "vista_resend_total").add(out.len() as u64);
        out
    }
}

/// One completed job, reduced to its measurable facts (geometry is
/// summarized, not stored).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    pub job: JobId,
    pub command: String,
    pub dataset: String,
    pub params: CommandParams,
    pub workers: usize,
    pub report: JobReport,
    /// Wall seconds from submission to the final event.
    pub wall_s: f64,
    /// Wall seconds until the first streamed geometry (None when nothing
    /// streamed).
    pub first_result_wall_s: Option<f64>,
    pub triangles: u64,
    pub polylines: u64,
    pub packets: u64,
}

impl SessionRecord {
    /// Builds a record from a submission and its outcome.
    pub fn from_outcome(
        command: &str,
        dataset: &str,
        params: &CommandParams,
        workers: usize,
        outcome: &JobOutcome,
    ) -> SessionRecord {
        SessionRecord {
            job: outcome.job,
            command: command.to_string(),
            dataset: dataset.to_string(),
            params: params.clone(),
            workers,
            report: outcome.report,
            wall_s: outcome.total_wall.as_secs_f64(),
            first_result_wall_s: outcome.first_result_wall.map(|d| d.as_secs_f64()),
            triangles: outcome.triangles.n_triangles() as u64,
            polylines: outcome.polylines.len() as u64,
            packets: outcome.packets.len() as u64,
        }
    }
}

/// An append-only session log with aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionLog {
    pub records: Vec<SessionRecord>,
}

/// Aggregates computed over a session log.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    pub jobs: usize,
    pub total_modeled_s: f64,
    pub total_wall_s: f64,
    pub total_triangles: u64,
    pub total_polylines: u64,
    /// Cache hit rate over all demand requests of the session.
    pub cache_hit_rate: f64,
    /// Jobs per command name, sorted by name.
    pub by_command: Vec<(String, usize)>,
}

impl SessionLog {
    pub fn new() -> SessionLog {
        SessionLog::default()
    }

    pub fn push(&mut self, r: SessionRecord) {
        self.records.push(r);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregate statistics over the whole session.
    pub fn summary(&self) -> SessionSummary {
        let mut by_command = std::collections::BTreeMap::<String, usize>::new();
        let mut hits = 0u64;
        let mut demands = 0u64;
        let mut s = SessionSummary {
            jobs: self.records.len(),
            total_modeled_s: 0.0,
            total_wall_s: 0.0,
            total_triangles: 0,
            total_polylines: 0,
            cache_hit_rate: 0.0,
            by_command: Vec::new(),
        };
        for r in &self.records {
            s.total_modeled_s += r.report.total_runtime_s;
            s.total_wall_s += r.wall_s;
            s.total_triangles += r.triangles;
            s.total_polylines += r.polylines;
            hits += r.report.cache_hits;
            demands += r.report.demand_requests;
            *by_command.entry(r.command.clone()).or_insert(0) += 1;
        }
        if demands > 0 {
            s.cache_hit_rate = hits as f64 / demands as f64;
        }
        s.by_command = by_command.into_iter().collect();
        s
    }

    pub fn to_json(&self) -> Json {
        let record = |r: &SessionRecord| {
            Json::obj([
                ("job", r.job.into()),
                ("command", r.command.as_str().into()),
                ("dataset", r.dataset.as_str().into()),
                ("params", r.params.to_json()),
                ("workers", r.workers.into()),
                ("report", r.report.to_json()),
                ("wall_s", r.wall_s.into()),
                ("first_result_wall_s", r.first_result_wall_s.into()),
                ("triangles", r.triangles.into()),
                ("polylines", r.polylines.into()),
                ("packets", r.packets.into()),
            ])
        };
        Json::obj([("records", Json::Arr(self.records.iter().map(record).collect()))])
    }

    pub fn from_json(j: &Json) -> Result<SessionLog, String> {
        let record = |r: &Json| {
            Ok(SessionRecord {
                job: r.req("job", json::u64)?,
                command: r.req("command", json::string)?,
                dataset: r.req("dataset", json::string)?,
                params: r.req("params", CommandParams::from_json)?,
                workers: r.req("workers", json::usize)?,
                report: r.req("report", JobReport::from_json)?,
                wall_s: r.req("wall_s", json::f64)?,
                first_result_wall_s: r.opt("first_result_wall_s", json::f64)?,
                triangles: r.req("triangles", json::u64)?,
                polylines: r.req("polylines", json::u64)?,
                packets: r.req("packets", json::u64)?,
            })
        };
        let records = j.req("records", |rs| json::list(rs, record))?;
        Ok(SessionLog { records })
    }

    /// Writes the log as pretty JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }

    /// Reads a log written by [`save`](Self::save).
    pub fn load(path: &Path) -> io::Result<SessionLog> {
        let text = std::fs::read_to_string(path)?;
        json::parse(&text)
            .and_then(|j| SessionLog::from_json(&j))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{SubmitSpec, VistaClient};
    use crate::protocol::{
        decode_request, encode_event, triangle_packet, ClientRequest, EventHeader, PayloadKind,
    };
    use vira_comm::link::client_server_link;
    use vira_extract::mesh::TriangleSoup;
    use vira_grid::math::Vec3;

    fn one_tri() -> TriangleSoup {
        let mut s = TriangleSoup::new();
        s.push_tri(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        s
    }

    #[test]
    fn stream_session_acks_trim_the_buffer() {
        let mut sess = StreamSession::new(7);
        for _ in 0..3 {
            let seq = sess.next_seq();
            sess.record_partial(seq, triangle_packet(7, seq, 0, &one_tri()));
        }
        assert_eq!(sess.unacked(), 3);
        sess.ack(1);
        assert_eq!(sess.unacked(), 1);
        assert!(!sess.finished());
        // Acks are idempotent and may arrive out of date.
        sess.ack(0);
        assert_eq!(sess.unacked(), 1);
        sess.ack(2);
        assert_eq!(sess.unacked(), 0);
    }

    #[test]
    fn resend_replays_unacked_tail_then_final() {
        let mut sess = StreamSession::new(3);
        let mut frames = Vec::new();
        for _ in 0..3 {
            let seq = sess.next_seq();
            let f = triangle_packet(3, seq, 0, &one_tri());
            sess.record_partial(seq, f.clone());
            frames.push(f);
        }
        let fin = encode_event(
            &EventHeader::Final {
                job: 3,
                kind: PayloadKind::None,
                n_items: 0,
                report: JobReport::default(),
            },
            Bytes::new(),
        );
        sess.record_final(fin.clone());
        assert!(sess.finished());
        sess.ack(0);
        let resend = sess.resend_frames();
        // seq 1, seq 2, then the final frame — byte-identical.
        assert_eq!(resend, vec![frames[1].clone(), frames[2].clone(), fin]);
    }

    #[test]
    fn lossy_stream_recovers_on_resume() {
        // The back-end streams three packets but only packets 0 and 2
        // reach the client, and the final event is lost too. A resume
        // replays the full un-acked buffer; the client's duplicate
        // filter keeps the geometry correct.
        let (client_side, server_side) = client_server_link();
        let h = std::thread::spawn(move || {
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Submit { job, .. } = decode_request(frame).unwrap() else {
                panic!("expected submit");
            };
            let mut sess = StreamSession::new(job);
            for i in 0..3u32 {
                let seq = sess.next_seq();
                let f = triangle_packet(job, seq, 0, &one_tri());
                sess.record_partial(seq, f.clone());
                if i != 1 {
                    server_side.emit(f).unwrap(); // packet 1 is "lost"
                }
            }
            sess.record_final(encode_event(
                &EventHeader::Final {
                    job,
                    kind: PayloadKind::None,
                    n_items: 0,
                    report: JobReport::default(),
                },
                Bytes::new(),
            )); // final frame "lost" too: recorded, never emitted
            let frame = server_side.next_request().unwrap();
            let ClientRequest::Resume { job: j } = decode_request(frame).unwrap() else {
                panic!("expected resume");
            };
            assert_eq!(j, job);
            for f in sess.resend_frames() {
                server_side.emit(f).unwrap();
            }
        });
        let mut client = VistaClient::new(client_side);
        let spec = SubmitSpec {
            command: "ViewerIso".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 0.5),
            workers: 1,
        };
        let job = client.submit(&spec).unwrap();
        client.resume(job).unwrap();
        let out = client.collect(job).unwrap();
        h.join().unwrap();
        assert_eq!(out.triangles.n_triangles(), 3, "no loss, no double-count");
        let mut seqs: Vec<u32> = out.packets.iter().map(|p| p.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    fn record(command: &str, modeled: f64, hits: u64, demands: u64) -> SessionRecord {
        SessionRecord {
            job: 1,
            command: command.into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 15.0),
            workers: 4,
            report: JobReport {
                total_runtime_s: modeled,
                cache_hits: hits,
                demand_requests: demands,
                triangles: 100,
                ..JobReport::default()
            },
            wall_s: modeled * 0.05,
            first_result_wall_s: None,
            triangles: 100,
            polylines: 0,
            packets: 0,
        }
    }

    #[test]
    fn summary_aggregates() {
        let mut log = SessionLog::new();
        log.push(record("IsoDataMan", 10.0, 0, 10));
        log.push(record("IsoDataMan", 5.0, 10, 10));
        log.push(record("VortexDataMan", 20.0, 10, 10));
        let s = log.summary();
        assert_eq!(s.jobs, 3);
        assert!((s.total_modeled_s - 35.0).abs() < 1e-12);
        assert_eq!(s.total_triangles, 300);
        assert!((s.cache_hit_rate - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(
            s.by_command,
            vec![("IsoDataMan".to_string(), 2), ("VortexDataMan".to_string(), 1)]
        );
    }

    #[test]
    fn empty_log_summary() {
        let s = SessionLog::new().summary();
        assert_eq!(s.jobs, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut log = SessionLog::new();
        log.push(record("IsoDataMan", 1.0, 1, 2));
        let path = std::env::temp_dir().join(format!("vira_session_{}.json", std::process::id()));
        log.save(&path).unwrap();
        let back = SessionLog::load(&path).unwrap();
        assert_eq!(back, log);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn session_file_shape_is_pinned() {
        // The head of a one-record log exactly as the derived encoder of
        // earlier versions saved it; logs on disk stay loadable.
        let mut log = SessionLog::new();
        log.push(record("IsoDataMan", 2.0, 1, 2));
        let text = log.to_json().pretty();
        let head = r#"{
  "records": [
    {
      "job": 1,
      "command": "IsoDataMan",
      "dataset": "Engine",
      "params": [
        [
          "iso",
          "15"
        ]
      ],
      "workers": 4,
      "report": {
        "total_runtime_s": 2.0,
        "read_s": 0.0,"#;
        let tail = r#"
        "degraded": false
      },
      "wall_s": 0.1,
      "first_result_wall_s": null,
      "triangles": 100,
      "polylines": 0,
      "packets": 0
    }
  ]
}"#;
        assert!(text.starts_with(head), "{text}");
        assert!(text.ends_with(tail), "{text}");
        assert_eq!(SessionLog::from_json(&json::parse(&text).unwrap()), Ok(log));
    }

    #[test]
    fn load_rejects_malformed() {
        let path = std::env::temp_dir().join(format!("vira_badsession_{}.json", std::process::id()));
        std::fs::write(&path, b"not json").unwrap();
        assert!(SessionLog::load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
