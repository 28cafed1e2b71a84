//! [`StreamSession`], the back-end's per-job resend buffer that lets a
//! client survive mid-stream frame loss: every emitted frame is kept
//! until the client acknowledges it, and a
//! [`Resume`](crate::protocol::ClientRequest::Resume) replays whatever
//! is still un-acked, byte-identical.

use crate::protocol::JobId;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use vira_obs as obs;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{SubmitSpec, VistaClient};
    use crate::protocol::{
        decode_request, encode_event, triangle_packet, ClientRequest, CommandParams, EventHeader,
        JobReport, PayloadKind,
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
}
