//! Property tests for the layer-2 wire codecs under hostile input:
//! whatever a faulty transport hands `decode_*`, it must either
//! decode faithfully or return `None` — never panic, and never return
//! a message with a changed bit.

use bytes::Bytes;
use vira_comm::transport::tags::{JOB_DONE, PARTIAL_RESULT};
use vira_dms::cache::ResidencyDigest;
use vira_testkit::{check, Gen, DEFAULT_CASES};
use vira_vista::protocol::{CommandParams, JobReport, PayloadKind};
use viracocha::wire::{
    decode_cancel, decode_command, decode_ping, decode_pong, decode_result, encode_cancel,
    encode_command, encode_ping, encode_pong, encode_result, CommandMsg, Ping, Pong, ResultHeader,
};

fn sample_command(job: u64, attempt: u32) -> CommandMsg {
    CommandMsg {
        job,
        command: "ViewerIso".into(),
        dataset: "Engine".into(),
        params: CommandParams::new().set("iso", 0.4),
        group: vec![0, 1, 2],
        attempt,
        trace_id: job.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        parent_span_id: attempt as u64 + 1,
    }
}

fn sample_result(job: u64, payload_len: usize) -> (ResultHeader, Bytes) {
    let h = ResultHeader {
        job,
        attempt: 1,
        kind: PayloadKind::Triangles,
        n_items: 3,
        report: JobReport {
            read_s: 0.5,
            compute_s: 1.5,
            send_s: 0.25,
            merge_s: 0.125,
            triangles: 3,
            cells_skipped: 11,
            bricks_skipped: 2,
            ..JobReport::default()
        },
        residency: vec![(1, ResidencyDigest::default())],
        obs_deltas: Vec::new(),
        trace_id: job | 1,
        parent_span_id: job >> 1,
        error: None,
    };
    let payload: Vec<u8> = (0..payload_len).map(|i| (i * 7 + 13) as u8).collect();
    (h, Bytes::from(payload))
}

/// Truncating an encoded frame anywhere must be detected: the seal
/// no longer matches the shortened body. A truncated frame must never
/// decode as if it were intact.
#[test]
fn truncated_partial_frames_are_rejected() {
    check(DEFAULT_CASES, |g| {
        let (h, payload) = sample_result(g.u64_in(0..1000), g.usize_in(1..128));
        let frame = encode_result(PARTIAL_RESULT, &h, &payload);
        let cut = g.usize_in(0..frame.len());
        assert!(decode_result(PARTIAL_RESULT, frame.slice(0..cut)).is_none());
    });
}

#[test]
fn truncated_done_frames_are_rejected() {
    check(DEFAULT_CASES, |g| {
        let (h, payload) = sample_result(g.u64_in(0..1000), g.usize_in(1..128));
        let frame = encode_result(JOB_DONE, &h, &payload);
        let cut = g.usize_in(0..frame.len());
        assert!(decode_result(JOB_DONE, frame.slice(0..cut)).is_none());
    });
}

#[test]
fn truncated_command_frames_are_rejected() {
    check(DEFAULT_CASES, |g| {
        let frame = encode_command(&sample_command(g.u64_in(0..1000), g.u32_in(0..8)));
        let cut = g.usize_in(0..frame.len());
        assert!(decode_command(frame.slice(0..cut)).is_none());
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

        let (mut h, payload) = sample_result(job, 16);
        h.trace_id = trace_id;
        h.parent_span_id = parent;
        for tag in [PARTIAL_RESULT, JOB_DONE] {
            let (got, _) = decode_result(tag, encode_result(tag, &h, &payload)).unwrap();
            assert_eq!((got.trace_id, got.parent_span_id), (trace_id, parent));
        }
    });
}

type Decodes = fn(Bytes) -> bool;

/// Flips one randomly chosen bit of `frame` — header, payload or seal
/// alike — and asserts the decoder refuses what is left. The seal
/// detects any change confined to one 8-byte word, so not even a flip
/// in a redundant byte of a JSON header slips through.
fn assert_a_flipped_bit_is_refused(g: &mut Gen, frame: Bytes, decodes: Decodes) {
    assert!(decodes(frame.clone()), "the intact message decodes");
    let bit = g.usize_in(0..frame.len() * 8);
    let mut bytes = frame.to_vec();
    bytes[bit / 8] ^= 1 << (bit % 8);
    assert!(!decodes(Bytes::from(bytes)), "bit {bit} flipped");
}

#[test]
fn bitflipped_command_frames_never_misdecode() {
    check(DEFAULT_CASES, |g| {
        let frame = encode_command(&sample_command(g.u64_in(0..1000), g.u32_in(0..8)));
        assert_a_flipped_bit_is_refused(g, frame, |f| decode_command(f).is_some());
    });
}

#[test]
fn bitflipped_partial_frames_never_misdecode() {
    check(DEFAULT_CASES, |g| {
        let (h, payload) = sample_result(g.u64_in(0..1000), g.usize_in(0..128));
        let frame = encode_result(PARTIAL_RESULT, &h, &payload);
        assert_a_flipped_bit_is_refused(g, frame, |f| decode_result(PARTIAL_RESULT, f).is_some());
    });
}

/// The two properties above, for every other message core puts on the
/// rank transport: DONE, PING, PONG and CANCEL.
#[test]
fn every_single_bit_flip_is_refused() {
    check(DEFAULT_CASES, |g| {
        let job = g.u64_in(0..1000);
        let (h, payload) = sample_result(job, g.usize_in(0..128));
        let pong = Pong {
            nonce: g.u64(),
            clock_ns: g.u64(),
            residency: ResidencyDigest::from_items([vira_dms::ItemId(job)]),
            delta: "OBSD1 1 1 100\nc jobs 2\n".into(),
        };
        let messages: [(Bytes, Decodes); 4] = [
            (encode_result(JOB_DONE, &h, &payload), |f| {
                decode_result(JOB_DONE, f).is_some()
            }),
            (
                encode_ping(&Ping {
                    nonce: g.u64(),
                    want_delta: g.bool(),
                }),
                |f| decode_ping(&f).is_some(),
            ),
            (encode_pong(&pong), |f| decode_pong(&f).is_some()),
            (encode_cancel(job), |f| decode_cancel(&f).is_some()),
        ];
        for (frame, decodes) in messages {
            assert_a_flipped_bit_is_refused(g, frame, decodes);
        }
    });
}
