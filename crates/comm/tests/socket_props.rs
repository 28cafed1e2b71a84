//! Property tests for the socket frame codec: whatever the wire does —
//! arbitrary chunking, truncation, bit flips, garbage between frames —
//! the decoder must never hand the transport a frame that was not sent
//! exactly as encoded. Checksums catch corruption; magic-scan resync
//! catches desynchronization.

use proptest::prelude::*;
use vira_comm::socket::{encode_frame, frame_crc, DecodeStep, Frame, FrameDecoder};

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
fn arb_frame() -> impl Strategy<Value = (u32, u32, u32, Vec<u8>)> {
    (
        0u32..64,
        0u32..64,
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
}

proptest! {
    /// Any sequence of frames, split into arbitrary read() chunks,
    /// round-trips losslessly and in order.
    #[test]
    fn roundtrip_survives_arbitrary_chunking(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        cuts in proptest::collection::vec(0usize..4096, 0..32),
    ) {
        let mut stream = Vec::new();
        for (to, from, tag, payload) in &frames {
            stream.extend_from_slice(&encode_frame(*to, *from, *tag, payload));
        }
        let mut cuts = cuts;
        cuts.sort_unstable();
        let (got, corrupt, resync) = decode_chunked(&stream, &cuts);
        prop_assert_eq!(corrupt, 0);
        prop_assert_eq!(resync, 0);
        prop_assert_eq!(got.len(), frames.len());
        for (g, (to, from, tag, payload)) in got.iter().zip(&frames) {
            prop_assert_eq!(g.to, *to);
            prop_assert_eq!(g.from, *from);
            prop_assert_eq!(g.tag, *tag);
            prop_assert_eq!(&g.payload[..], &payload[..]);
        }
    }

    /// A single flipped bit anywhere in a frame never yields a wrong
    /// frame: the decoder either rejects it (checksum / magic / length
    /// guard) or — when only routing-irrelevant bytes beyond the
    /// checksummed region could be hit, which is never the case here
    /// since the crc covers header fields and payload — reproduces the
    /// original. Trailing intact frames must still decode after resync.
    #[test]
    fn single_bit_flip_never_forges_a_frame(
        (to, from, tag, payload) in arb_frame(),
        bit in 0usize..64,
        tail in arb_frame(),
    ) {
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
            let original_first = f.to == to
                && f.from == from
                && f.tag == tag
                && f.payload[..] == payload[..];
            let is_tail = f.to == *t2
                && f.from == *f2
                && f.tag == *g2
                && f.payload[..] == p2[..];
            prop_assert!(
                original_first || is_tail,
                "decoder produced a frame that was never sent: to={} from={} tag={}",
                f.to, f.from, f.tag
            );
        }
        // The intact tail frame must survive — resync may eat it only
        // if the flip manufactured a longer bogus length field that
        // swallowed it, in which case the decoder is still *waiting*,
        // not wrong. So: at most one of each, never duplicates.
        prop_assert!(decoded.len() <= 2);
    }

    /// Truncation holds the frame back until the missing bytes arrive,
    /// then completes it — no partial or invented frames in between.
    #[test]
    fn truncation_waits_for_the_rest(
        (to, from, tag, payload) in arb_frame(),
        cut_at in 0usize..600,
    ) {
        let stream = encode_frame(to, from, tag, &payload);
        let cut = cut_at.min(stream.len().saturating_sub(1));
        let mut dec = FrameDecoder::new();
        dec.feed(&stream[..cut]);
        while let Some(step) = dec.next() {
            prop_assert!(
                !matches!(step, DecodeStep::Frame(_) | DecodeStep::Corrupt),
                "truncated prefix must not produce a frame or corruption"
            );
        }
        dec.feed(&stream[cut..]);
        let mut got = None;
        while let Some(step) = dec.next() {
            if let DecodeStep::Frame(f) = step {
                prop_assert!(got.is_none(), "one frame in, one frame out");
                got = Some(f);
            }
        }
        let f = got.expect("frame completes once all bytes arrived");
        prop_assert_eq!(f.to, to);
        prop_assert_eq!(f.from, from);
        prop_assert_eq!(f.tag, tag);
        prop_assert_eq!(&f.payload[..], &payload[..]);
    }

    /// Garbage injected before and between frames is skipped by the
    /// magic scan; every real frame still decodes intact.
    #[test]
    fn garbage_between_frames_is_resynced_past(
        frames in proptest::collection::vec(arb_frame(), 1..5),
        junk in proptest::collection::vec(
            // Avoid junk that happens to contain the magic: the decoder
            // would rightly treat it as a (corrupt) frame start, which
            // is resynchronization's job, not forgery.
            proptest::collection::vec(0u8..b'V', 1..40),
            1..5,
        ),
    ) {
        let mut stream = Vec::new();
        for (i, (to, from, tag, payload)) in frames.iter().enumerate() {
            stream.extend_from_slice(&junk[i % junk.len()]);
            stream.extend_from_slice(&encode_frame(*to, *from, *tag, payload));
        }
        let (got, corrupt, _resync) = decode_chunked(&stream, &[]);
        prop_assert_eq!(corrupt, 0);
        prop_assert_eq!(got.len(), frames.len());
        for (g, (to, from, tag, payload)) in got.iter().zip(&frames) {
            prop_assert_eq!(g.to, *to);
            prop_assert_eq!(g.from, *from);
            prop_assert_eq!(g.tag, *tag);
            prop_assert_eq!(&g.payload[..], &payload[..]);
        }
    }

    /// The checksum is order- and content-sensitive: any differing
    /// (to, from, tag, payload) tuple gets a different crc, except for
    /// unavoidable 64-bit collisions — approximated here by checking
    /// that single-field tweaks change the crc.
    #[test]
    fn crc_reacts_to_every_field(
        (to, from, tag, payload) in arb_frame(),
    ) {
        let base = frame_crc(to, from, tag, &payload);
        prop_assert_ne!(base, 0, "crc 0 is reserved (nudged to 1)");
        prop_assert_ne!(base, frame_crc(to ^ 1, from, tag, &payload));
        prop_assert_ne!(base, frame_crc(to, from ^ 1, tag, &payload));
        prop_assert_ne!(base, frame_crc(to, from, tag ^ 1, &payload));
        let mut tweaked = payload.clone();
        tweaked.push(0);
        prop_assert_ne!(base, frame_crc(to, from, tag, &tweaked));
    }
}
