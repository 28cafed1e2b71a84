//! Property tests for the socket frame codec: whatever the wire does —
//! arbitrary chunking, truncation, bit flips, garbage between frames —
//! the decoder must never hand the transport a frame that was not sent
//! exactly as encoded. Checksums catch corruption; magic-scan resync
//! catches desynchronization.

use vira_comm::socket::{encode_frame, frame_crc, DecodeStep, Frame, FrameDecoder};
use vira_testkit::{check, Gen, DEFAULT_CASES};

/// Drives a decoder over `stream` split at `cuts`, collecting every
/// decoded frame and counting corrupt/resync events.
fn decode_chunked(stream: &[u8], cuts: &[usize]) -> (Vec<Frame>, usize, usize) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut corrupt = 0;
    let mut resync = 0;
    let mut feed = |dec: &mut FrameDecoder, chunk: &[u8]| {
        dec.feed(chunk);
        loop {
            match dec.next() {
                Some(DecodeStep::Frame(f)) => frames.push(f),
                Some(DecodeStep::Corrupt) => corrupt += 1,
                Some(DecodeStep::Resync(_)) => resync += 1,
                None => break,
            }
        }
    };
    let mut at = 0;
    for &cut in cuts {
        let cut = cut.min(stream.len());
        if cut > at {
            feed(&mut dec, &stream[at..cut]);
            at = cut;
        }
    }
    if at < stream.len() {
        feed(&mut dec, &stream[at..]);
    }
    (frames, corrupt, resync)
}

/// One arbitrary frame's wire fields.
fn arb_frame(g: &mut Gen) -> (u32, u32, u32, Vec<u8>) {
    (
        g.u32_in(0..64),
        g.u32_in(0..64),
        g.u64() as u32,
        g.bytes(0..512),
    )
}

fn assert_same_frames(got: &[Frame], sent: &[(u32, u32, u32, Vec<u8>)]) {
    assert_eq!(got.len(), sent.len());
    for (g, (to, from, tag, payload)) in got.iter().zip(sent) {
        assert_eq!((g.to, g.from, g.tag), (*to, *from, *tag));
        assert_eq!(&g.payload[..], &payload[..]);
    }
}

/// Any sequence of frames, split into arbitrary read() chunks,
/// round-trips losslessly and in order.
#[test]
fn roundtrip_survives_arbitrary_chunking() {
    check(DEFAULT_CASES, |g| {
        let frames = g.vec(1..8, arb_frame);
        let mut cuts = g.vec(0..32, |g| g.usize_in(0..4096));
        let mut stream = Vec::new();
        for (to, from, tag, payload) in &frames {
            stream.extend_from_slice(&encode_frame(*to, *from, *tag, payload));
        }
        cuts.sort_unstable();
        let (got, corrupt, resync) = decode_chunked(&stream, &cuts);
        assert_eq!(corrupt, 0);
        assert_eq!(resync, 0);
        assert_same_frames(&got, &frames);
    });
}

/// A single flipped bit anywhere in a frame never yields a wrong
/// frame: the decoder either rejects it (checksum / magic / length
/// guard) or — when only routing-irrelevant bytes beyond the
/// checksummed region could be hit, which is never the case here
/// since the crc covers header fields and payload — reproduces the
/// original. Trailing intact frames must still decode after resync.
#[test]
fn single_bit_flip_never_forges_a_frame() {
    check(DEFAULT_CASES, |g| {
        let (to, from, tag, payload) = arb_frame(g);
        let bit = g.usize_in(0..64);
        let tail = arb_frame(g);
        let mut stream = encode_frame(to, from, tag, &payload);
        let n = stream.len();
        let bit = bit % (n * 8);
        stream[bit / 8] ^= 1 << (bit % 8);
        let (t2, f2, g2, p2) = &tail;
        stream.extend_from_slice(&encode_frame(*t2, *f2, *g2, p2));

        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let mut decoded = Vec::new();
        while let Some(step) = dec.next() {
            if let DecodeStep::Frame(f) = step {
                decoded.push(f);
            }
        }
        // The corrupted first frame either vanishes or decodes
        // byte-identically (impossible for a covered flip, but the
        // property is "never a FORGED frame", so state it that way).
        for f in &decoded {
            let original_first =
                f.to == to && f.from == from && f.tag == tag && f.payload[..] == payload[..];
            let is_tail = f.to == *t2 && f.from == *f2 && f.tag == *g2 && f.payload[..] == p2[..];
            assert!(
                original_first || is_tail,
                "decoder produced a frame that was never sent: to={} from={} tag={}",
                f.to,
                f.from,
                f.tag
            );
        }
        // The intact tail frame must survive — resync may eat it only
        // if the flip manufactured a longer bogus length field that
        // swallowed it, in which case the decoder is still *waiting*,
        // not wrong. So: at most one of each, never duplicates.
        assert!(decoded.len() <= 2);
    });
}

/// Truncation holds the frame back until the missing bytes arrive,
/// then completes it — no partial or invented frames in between.
#[test]
fn truncation_waits_for_the_rest() {
    check(DEFAULT_CASES, |g| {
        let (to, from, tag, payload) = arb_frame(g);
        let cut_at = g.usize_in(0..600);
        let stream = encode_frame(to, from, tag, &payload);
        let cut = cut_at.min(stream.len().saturating_sub(1));
        let mut dec = FrameDecoder::new();
        dec.feed(&stream[..cut]);
        while let Some(step) = dec.next() {
            assert!(
                !matches!(step, DecodeStep::Frame(_) | DecodeStep::Corrupt),
                "truncated prefix must not produce a frame or corruption"
            );
        }
        dec.feed(&stream[cut..]);
        let mut got = Vec::new();
        while let Some(step) = dec.next() {
            if let DecodeStep::Frame(f) = step {
                got.push(f);
            }
        }
        // One frame in, one frame out, once all bytes arrived.
        assert_same_frames(&got, &[(to, from, tag, payload)]);
    });
}

/// Garbage injected before and between frames is skipped by the
/// magic scan; every real frame still decodes intact.
#[test]
fn garbage_between_frames_is_resynced_past() {
    check(DEFAULT_CASES, |g| {
        let frames = g.vec(1..5, arb_frame);
        // Avoid junk that happens to contain the magic: the decoder
        // would rightly treat it as a (corrupt) frame start, which
        // is resynchronization's job, not forgery.
        let junk = g.vec(1..5, |g| g.vec(1..40, |g| g.u32_in(0..b'V' as u32) as u8));
        let mut stream = Vec::new();
        for (i, (to, from, tag, payload)) in frames.iter().enumerate() {
            stream.extend_from_slice(&junk[i % junk.len()]);
            stream.extend_from_slice(&encode_frame(*to, *from, *tag, payload));
        }
        let (got, corrupt, _resync) = decode_chunked(&stream, &[]);
        assert_eq!(corrupt, 0);
        assert_same_frames(&got, &frames);
    });
}

/// The checksum is order- and content-sensitive: any differing
/// (to, from, tag, payload) tuple gets a different crc, except for
/// unavoidable 64-bit collisions — approximated here by checking
/// that single-field tweaks change the crc.
#[test]
fn crc_reacts_to_every_field() {
    check(DEFAULT_CASES, |g| {
        let (to, from, tag, payload) = arb_frame(g);
        let base = frame_crc(to, from, tag, &payload);
        assert_ne!(base, 0, "crc 0 is reserved (nudged to 1)");
        assert_ne!(base, frame_crc(to ^ 1, from, tag, &payload));
        assert_ne!(base, frame_crc(to, from ^ 1, tag, &payload));
        assert_ne!(base, frame_crc(to, from, tag ^ 1, &payload));
        let mut tweaked = payload.clone();
        tweaked.push(0);
        assert_ne!(base, frame_crc(to, from, tag, &tweaked));
    });
}
