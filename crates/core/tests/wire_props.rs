//! Property tests for the layer-2 wire codecs under hostile input:
//! whatever a faulty transport hands `decode_*`, it must either
//! decode faithfully or return `None` — never panic, and never return
//! a frame whose payload no longer matches its checksum.

use bytes::Bytes;
use vira_dms::stats::DmsStatsSnapshot;
use vira_testkit::{check, DEFAULT_CASES};
use vira_vista::protocol::{CommandParams, PayloadKind};
use viracocha::wire::{
    decode_command, decode_done, decode_partial, encode_command, encode_done, encode_partial,
    CommandMsg, DoneHeader, PartialHeader,
};

fn sample_command(job: u64, attempt: u32) -> CommandMsg {
    CommandMsg {
        job,
        command: "ViewerIso".into(),
        dataset: "Engine".into(),
        params: CommandParams::new().set("iso", 0.4),
        group: vec![0, 1, 2],
        attempt,
        check: 0,
        trace_id: job.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        parent_span_id: attempt as u64 + 1,
    }
}

fn sample_partial(job: u64, payload_len: usize) -> (PartialHeader, Bytes) {
    let h = PartialHeader {
        job,
        kind: PayloadKind::Triangles,
        n_items: 3,
        read_s: 0.5,
        compute_s: 1.5,
        send_s: 0.25,
        dms: DmsStatsSnapshot::default(),
        cells_skipped: 11,
        bricks_skipped: 2,
        extract_par_s: 0.75,
        extract_threads: 2,
        attempt: 1,
        payload_crc: 0,
        residency: Default::default(),
        error: None,
        obs_delta: String::new(),
        trace_id: job | 1,
        parent_span_id: job >> 1,
    };
    let payload: Vec<u8> = (0..payload_len).map(|i| (i * 7 + 13) as u8).collect();
    (h, Bytes::from(payload))
}

fn done_from_partial(p: &PartialHeader) -> DoneHeader {
    DoneHeader {
        job: p.job,
        kind: p.kind,
        n_items: p.n_items,
        read_s: p.read_s,
        compute_s: p.compute_s,
        send_s: p.send_s,
        merge_s: 0.125,
        dms: p.dms,
        cells_skipped: p.cells_skipped,
        bricks_skipped: p.bricks_skipped,
        extract_par_s: p.extract_par_s,
        extract_threads: p.extract_threads,
        attempt: p.attempt,
        payload_crc: 0,
        residency: Vec::new(),
        error: None,
        trace_id: p.trace_id,
        parent_span_id: p.parent_span_id,
        obs_deltas: Vec::new(),
    }
}

/// Truncating an encoded frame anywhere must be detected: either
/// the framing/JSON no longer parses, or the payload checksum
/// catches the shortened body. A truncated frame must never
/// decode as if it were intact.
#[test]
fn truncated_partial_frames_are_rejected() {
    check(DEFAULT_CASES, |g| {
        let (h, payload) = sample_partial(g.u64_in(0..1000), g.usize_in(1..128));
        let frame = encode_partial(&h, payload);
        let cut = g.usize_in(0..frame.len());
        assert!(decode_partial(frame.slice(0..cut)).is_none());
    });
}

#[test]
fn truncated_done_frames_are_rejected() {
    check(DEFAULT_CASES, |g| {
        let (p, payload) = sample_partial(g.u64_in(0..1000), g.usize_in(1..128));
        let frame = encode_done(&done_from_partial(&p), payload);
        let cut = g.usize_in(0..frame.len());
        assert!(decode_done(frame.slice(0..cut)).is_none());
    });
}

/// A truncated command either fails to decode or — when the cut
/// happens to land on a still-valid JSON document, which the
/// length prefix prevents — never yields altered fields.
#[test]
fn truncated_command_frames_are_rejected() {
    check(DEFAULT_CASES, |g| {
        let frame = encode_command(&sample_command(g.u64_in(0..1000), g.u32_in(0..8)));
        let cut = g.usize_in(0..frame.len());
        assert!(decode_command(frame.slice(0..cut)).is_none());
    });
}

/// Any single bit flip anywhere in a framed partial must not
/// panic, and must not surface a frame whose payload fails its
/// checksum. (A flip confined to redundant JSON whitespace can
/// legitimately still decode; a flip in the binary body cannot.)
#[test]
fn bitflipped_partial_frames_never_misdecode() {
    check(DEFAULT_CASES, |g| {
        let payload_len = g.usize_in(1..128);
        let (h, payload) = sample_partial(g.u64_in(0..1000), payload_len);
        let frame = encode_partial(&h, payload);
        let byte = g.usize_in(0..frame.len());
        let mut bytes = frame.to_vec();
        bytes[byte] ^= 1 << g.u32_in(0..8);
        let body_start = frame.len() - payload_len;
        match decode_partial(Bytes::from(bytes)) {
            None => {} // rejected: always acceptable
            Some((h2, p2)) => {
                // Whatever survived must be internally consistent (a
                // flip that knocked out the crc *field name* leaves it
                // 0 = unchecked — but then the body was untouched)…
                if h2.payload_crc != 0 {
                    assert_eq!(h2.payload_crc, viracocha::wire::fnv1a(&p2));
                }
                // …and a flip inside the binary body is always caught.
                assert!(byte < body_start);
            }
        }
    });
}

/// Trace context rides every frame type loss-free: whatever
/// (trace_id, parent_span_id) pair the sender stamps comes back
/// from the decoder bit-identical.
#[test]
fn trace_context_roundtrips_on_all_frame_types() {
    check(DEFAULT_CASES, |g| {
        let job = g.u64_in(0..1000);
        let (trace_id, parent) = (g.u64(), g.u64());
        let mut cmd = sample_command(job, 0);
        cmd.trace_id = trace_id;
        cmd.parent_span_id = parent;
        let got = decode_command(encode_command(&cmd)).unwrap();
        assert_eq!((got.trace_id, got.parent_span_id), (trace_id, parent));

        let (mut ph, payload) = sample_partial(job, 16);
        ph.trace_id = trace_id;
        ph.parent_span_id = parent;
        let (got, _) = decode_partial(encode_partial(&ph, payload.clone())).unwrap();
        assert_eq!((got.trace_id, got.parent_span_id), (trace_id, parent));

        let (got, _) = decode_done(encode_done(&done_from_partial(&ph), payload)).unwrap();
        assert_eq!((got.trace_id, got.parent_span_id), (trace_id, parent));
    });
}

/// Mixed-version compatibility: the command integrity check covers
/// the semantic fields only, so a frame differing solely in trace
/// context still verifies on an old scheduler (which recomputes the
/// check without knowing the trace fields exist), and an old
/// writer's frame — the trace keys stripped from the JSON — still
/// decodes on a new reader with both fields defaulting to zero.
#[test]
fn trace_fields_never_affect_command_verification() {
    check(DEFAULT_CASES, |g| {
        let untraced = {
            let mut c = sample_command(g.u64_in(0..1000), g.u32_in(0..8));
            c.trace_id = 0;
            c.parent_span_id = 0;
            c
        };
        let mut traced = untraced.clone();
        traced.trace_id = g.u64();
        traced.parent_span_id = g.u64();
        // Both variants pass decode-time verification…
        let a = decode_command(encode_command(&untraced)).unwrap();
        let b = decode_command(encode_command(&traced)).unwrap();
        // …and carry the same integrity check: trace fields are
        // invisible to old peers' recomputation.
        assert_eq!(a.check, b.check);
        assert_eq!(a.job, b.job);
        assert_eq!(a.params, b.params);
        // Old-writer simulation: drop the trace keys from the message
        // JSON; a new reader defaults both fields to zero.
        let mut val = traced.to_json();
        val.remove("trace_id");
        val.remove("parent_span_id");
        let old = CommandMsg::from_json(&val).unwrap();
        assert_eq!(old.trace_id, 0);
        assert_eq!(old.parent_span_id, 0);
        assert_eq!(old.job, traced.job);
    });
}

/// Same for commands: a flip either breaks the JSON, trips the
/// integrity check, or hit a redundant byte leaving every field
/// intact. It must never produce a command with changed fields.
#[test]
fn bitflipped_command_frames_never_misdecode() {
    check(DEFAULT_CASES, |g| {
        let msg = sample_command(g.u64_in(0..1000), g.u32_in(0..8));
        let frame = encode_command(&msg);
        let byte = g.usize_in(0..frame.len());
        let mut bytes = frame.to_vec();
        bytes[byte] ^= 1 << g.u32_in(0..8);
        if let Some(got) = decode_command(Bytes::from(bytes)) {
            assert_eq!(got.job, msg.job);
            assert_eq!(got.command, msg.command);
            assert_eq!(got.dataset, msg.dataset);
            assert_eq!(got.params, msg.params);
            assert_eq!(got.group, msg.group);
            assert_eq!(got.attempt, msg.attempt);
        }
    });
}
