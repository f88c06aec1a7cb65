//! Frame-corruption corpus for the RPC transport (`protoacc-rpc`).
//!
//! The framing contract is *totality*: any byte sequence fed to either
//! decode surface — one-shot [`decode_frame`] or the streaming
//! [`FrameDecoder`] — yields frames or a typed [`FrameError`], never a
//! panic, never a hang, never an unbounded allocation. This corpus checks
//! it exhaustively where the space is small (every truncation offset, every
//! reserved flag byte) and by seeded sweep over the `protoacc-faults`
//! frame-plane generators where it is not.

use protoacc_suite::faults::frames::{corrupt, mutate, FrameFault, FRAME_PREFIX_LEN};
use protoacc_suite::rpc::{
    decode_frame, encode_frame, Frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME_LEN,
    FRAME_HEADER_LEN,
};
use protoacc_suite::xrand::{Rng, StdRng};

/// Payload shapes the corpus builds frames around: empty, tiny, and large
/// enough that body truncation has room to land anywhere.
fn corpus_frames() -> Vec<Vec<u8>> {
    [
        (false, Vec::new()),
        (false, vec![0xA5; 1]),
        (true, vec![0x5A; 37]),
        (false, (0..=255u8).collect::<Vec<u8>>()),
    ]
    .into_iter()
    .map(|(compressed, payload)| encode_frame(compressed, &payload).unwrap())
    .collect()
}

/// Drains a decoder with a hang guard: a decoder that keeps yielding
/// frames past what the byte budget admits is broken, not busy.
fn drain(dec: &mut FrameDecoder, budget: usize) -> Result<usize, FrameError> {
    let mut frames = 0;
    loop {
        match dec.next_frame() {
            Ok(None) => return Ok(frames),
            Err(e) => return Err(e),
            Ok(Some(_)) => {
                frames += 1;
                assert!(
                    frames <= budget / FRAME_HEADER_LEN + 1,
                    "decoder yielded more frames than the byte budget admits"
                );
            }
        }
    }
}

#[test]
fn frame_prefix_constants_agree_across_crates() {
    // The faults crate mirrors the transport's prefix layout without
    // depending on it; this is the tripwire if either side drifts.
    assert_eq!(FRAME_PREFIX_LEN, FRAME_HEADER_LEN);
}

#[test]
fn every_truncation_offset_is_typed_on_both_surfaces() {
    for wire in corpus_frames() {
        let declared = (wire.len() - FRAME_HEADER_LEN) as u32;
        for cut in 0..wire.len() {
            let expect = if cut < FRAME_HEADER_LEN {
                FrameError::TruncatedHeader { have: cut }
            } else {
                FrameError::TruncatedBody {
                    declared,
                    have: (cut - FRAME_HEADER_LEN) as u64,
                }
            };
            // One-shot: truncation is an immediate typed error.
            assert_eq!(
                decode_frame(&wire[..cut], DEFAULT_MAX_FRAME_LEN).unwrap_err(),
                expect,
                "cut at {cut} of {}",
                wire.len()
            );
            // Streaming: a partial frame is "wait for more bytes" until
            // teardown, where it becomes the same typed truncation.
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
            dec.push(&wire[..cut]);
            assert_eq!(dec.next_frame().unwrap(), None);
            if cut == 0 {
                dec.finish().unwrap();
            } else {
                assert_eq!(dec.finish().unwrap_err(), expect);
            }
        }
        // The uncut frame decodes cleanly on both surfaces.
        let (frame, used) = decode_frame(&wire, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(used, wire.len());
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
        dec.finish().unwrap();
    }
}

#[test]
fn every_reserved_flag_value_rejects() {
    let body = encode_frame(false, b"payload").unwrap();
    for flag in 2..=255u8 {
        let mut wire = body.clone();
        wire[0] = flag;
        assert_eq!(
            decode_frame(&wire, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            FrameError::ReservedFlag { flag }
        );
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&wire);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            FrameError::ReservedFlag { flag }
        );
        // The fault is sticky: framing sync is unrecoverable.
        assert_eq!(
            dec.next_frame().unwrap_err(),
            FrameError::ReservedFlag { flag }
        );
    }
}

#[test]
fn oversized_declared_lengths_reject_before_buffering() {
    let max = DEFAULT_MAX_FRAME_LEN;
    for declared in [max as u32 + 1, max as u32 * 2, u32::MAX] {
        let mut wire = vec![0u8];
        wire.extend_from_slice(&declared.to_be_bytes());
        // No payload follows at all: the ceiling check must fire off the
        // prefix alone, before any buffering could be attempted.
        assert_eq!(
            decode_frame(&wire, max).unwrap_err(),
            FrameError::Oversized {
                declared: u64::from(declared),
                max
            }
        );
        let mut dec = FrameDecoder::new(max);
        dec.push(&wire);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            FrameError::Oversized {
                declared: u64::from(declared),
                max
            }
        );
    }
}

/// Per-class verdicts on single-frame inputs: each generator's corruption
/// maps to the error family it aims at (length jitter is excluded — a
/// jittered length can land anywhere, including on a still-decodable
/// frame).
#[test]
fn fault_classes_map_to_their_error_families() {
    let mut rng = StdRng::seed_from_u64(0xF4A3_0001);
    for wire in corpus_frames() {
        for trial in 0..64 {
            let bad = corrupt(&wire, FrameFault::ReservedFlag, &mut rng);
            assert!(
                matches!(
                    decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
                    Err(FrameError::ReservedFlag { .. })
                ),
                "reserved-flag trial {trial}"
            );
            let bad = corrupt(&wire, FrameFault::OversizeLength, &mut rng);
            assert!(
                matches!(
                    decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
                    Err(FrameError::Oversized { .. })
                ),
                "oversize trial {trial}"
            );
            let bad = corrupt(&wire, FrameFault::HeaderTruncate, &mut rng);
            assert!(
                matches!(
                    decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
                    Err(FrameError::TruncatedHeader { .. } | FrameError::ReservedFlag { .. })
                ),
                "header-truncate trial {trial}"
            );
            let bad = corrupt(&wire, FrameFault::BodyTruncate, &mut rng);
            assert!(
                matches!(
                    decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
                    Err(FrameError::TruncatedHeader { .. } | FrameError::TruncatedBody { .. })
                ),
                "body-truncate trial {trial}"
            );
        }
    }
}

/// The seeded sweep: multi-frame streams mutated by every fault class, fed
/// to the streaming decoder in seeded chunk sizes. Every outcome must be a
/// clean drain or a typed error; the drain is hang-guarded and faults are
/// sticky.
#[test]
fn seeded_sweep_is_total_on_chunked_streams() {
    let mut rng = StdRng::seed_from_u64(0xF4A3_0002);
    let frames = corpus_frames();
    for round in 0..200 {
        // A stream of 1-4 frames drawn from the corpus.
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(1..=4usize) {
            stream.extend_from_slice(&frames[rng.gen_range(0..frames.len())]);
        }
        let (fault, bad) = mutate(&stream, &mut rng);
        assert_ne!(bad, stream, "round {round}: {fault:?} must mutate");

        // One-shot walk over the mutated buffer: consume frames until an
        // error or exhaustion, bounded by construction (every frame eats
        // at least the 5-byte prefix).
        let mut off = 0;
        let one_shot: Result<usize, FrameError> = loop {
            if off == bad.len() {
                break Ok(off);
            }
            match decode_frame(&bad[off..], DEFAULT_MAX_FRAME_LEN) {
                Ok((_, used)) => off += used,
                Err(e) => break Err(e),
            }
        };

        // Streaming drain in seeded chunks, then teardown.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut cursor = 0;
        let mut stream_err: Option<FrameError> = None;
        while cursor < bad.len() && stream_err.is_none() {
            let take = rng.gen_range(1..=(bad.len() - cursor).min(7));
            dec.push(&bad[cursor..cursor + take]);
            cursor += take;
            if let Err(e) = drain(&mut dec, bad.len()) {
                stream_err = Some(e);
            }
        }
        let teardown = dec.finish();

        // Agreement: a poisoned stream reports the same error one-shot
        // decoding hit; a clean one-shot walk means a clean teardown —
        // unless the walk ended mid-frame, which teardown types as
        // truncation.
        match (one_shot, stream_err) {
            (Err(a), Some(b)) => {
                assert_eq!(a, b, "round {round}: surfaces disagree on {fault:?}");
            }
            (Err(a), None) => {
                // One-shot truncation errors are "wait for more" in the
                // stream until teardown reports them.
                assert_eq!(teardown.unwrap_err(), a, "round {round} ({fault:?})");
            }
            (Ok(_), Some(b)) => {
                panic!("round {round}: stream errored {b:?} where one-shot drained ({fault:?})")
            }
            (Ok(_), None) => teardown.unwrap_or_else(|e| {
                panic!("round {round}: clean drain but teardown error {e:?} ({fault:?})")
            }),
        }
    }
}

/// A seeded stream of 1–6 frames with payloads from empty to 64 KiB, and
/// the offset where each frame's prefix starts. Odd rounds replace one
/// frame's prefix partway through with a reserved flag or an oversized
/// length; every fourth round ends inside its last frame.
fn seeded_stream(round: u64, rng: &mut StdRng) -> (Vec<u8>, Vec<usize>) {
    let mut stream = Vec::new();
    let mut starts = Vec::new();
    let frames = rng.gen_range(1..=6usize);
    for _ in 0..frames {
        let len = match rng.gen_range(0..8u32) {
            0 => 0,
            1 => rng.gen_range(4096..=65_536usize),
            _ => rng.gen_range(1..300usize),
        };
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        starts.push(stream.len());
        stream.extend_from_slice(&encode_frame(rng.gen_range(0..2u32) == 1, &payload).unwrap());
    }
    if round % 2 == 1 {
        let at = starts[rng.gen_range(0..starts.len())];
        if rng.gen_range(0..2u32) == 0 {
            stream[at] = rng.gen_range(2..=255u8);
        } else {
            stream[at + 1..at + FRAME_HEADER_LEN]
                .copy_from_slice(&(DEFAULT_MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        }
    }
    if round.is_multiple_of(4) {
        let last = *starts.last().unwrap();
        stream.truncate(rng.gen_range(last + 1..stream.len().max(last + 2)));
    }
    (stream, starts)
}

/// What a decoder shows over one stream: every frame or fault
/// `next_frame` yields, each with the stream bytes still unconsumed after
/// it (buffered plus not yet pushed), then `finish()`.
type Observed = (
    Vec<(Result<Frame, FrameError>, usize)>,
    Result<(), FrameError>,
);

/// Streams `stream` into a decoder in the chunks that end at `cuts`,
/// draining after every push and stopping at the first fault. After every
/// `next_frame` call, `buffered()` must equal the bytes pushed and not yet
/// yielded as frames.
fn observe_chunked(stream: &[u8], cuts: &[usize]) -> Observed {
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
    let (mut pushed, mut yielded) = (0, 0);
    let mut seen = Vec::new();
    'push: for &cut in cuts.iter().chain([&stream.len()]) {
        dec.push(&stream[pushed..cut]);
        pushed = cut;
        loop {
            let next = dec.next_frame();
            if let Ok(Some(frame)) = &next {
                yielded += FRAME_HEADER_LEN + frame.payload.len();
            }
            assert_eq!(dec.buffered(), pushed - yielded, "cuts {cuts:?}");
            let unconsumed = dec.buffered() + stream.len() - pushed;
            match next {
                Ok(None) => break,
                Ok(Some(frame)) => seen.push((Ok(frame), unconsumed)),
                Err(e) => {
                    seen.push((Err(e), unconsumed));
                    break 'push;
                }
            }
        }
    }
    (seen, dec.finish())
}

/// The same observation from one-shot `decode_frame` walked over the
/// stream: a malformed prefix is yielded where the stream reaches it, a
/// truncated tail surfaces only at teardown.
fn observe_one_shot(stream: &[u8]) -> Observed {
    let mut seen = Vec::new();
    let mut off = 0;
    while off < stream.len() {
        match decode_frame(&stream[off..], DEFAULT_MAX_FRAME_LEN) {
            Ok((frame, used)) => {
                off += used;
                seen.push((Ok(frame), stream.len() - off));
            }
            Err(e @ (FrameError::ReservedFlag { .. } | FrameError::Oversized { .. })) => {
                seen.push((Err(e), stream.len() - off));
                return (seen, Err(e));
            }
            Err(e) => return (seen, Err(e)),
        }
    }
    (seen, Ok(()))
}

/// Chunking equivalence: whole frames per push, several frames per push,
/// one byte per push, and pushes that end inside the 5-byte prefix all
/// observe exactly what one push of the whole stream observes, and that
/// equals the one-shot decode.
#[test]
fn every_chunking_matches_one_push_and_one_shot_decode() {
    let mut rng = StdRng::seed_from_u64(0xF4A3_0003);
    for round in 0..24u64 {
        let (stream, starts) = seeded_stream(round, &mut rng);
        let whole = observe_chunked(&stream, &[]);
        assert_eq!(whole, observe_one_shot(&stream), "round {round}");
        let inner = |cuts: Vec<usize>| -> Vec<usize> {
            cuts.into_iter()
                .filter(|&c| c > 0 && c < stream.len())
                .collect()
        };
        let per_frame = inner(starts.clone());
        let group = rng.gen_range(2..=3usize);
        let per_group = inner(starts.iter().copied().step_by(group).collect());
        let per_byte = inner((1..stream.len()).collect());
        let mut in_prefix: Vec<usize> = starts
            .iter()
            .flat_map(|&s| {
                let a = rng.gen_range(1..FRAME_HEADER_LEN);
                let b = rng.gen_range(a..FRAME_HEADER_LEN);
                [s, s + a, s + b]
            })
            .collect();
        in_prefix.dedup();
        let in_prefix = inner(in_prefix);
        for (name, cuts) in [
            ("frame", per_frame),
            ("group", per_group),
            ("byte", per_byte),
            ("prefix", in_prefix),
        ] {
            assert_eq!(
                observe_chunked(&stream, &cuts),
                whole,
                "round {round}, {name} chunking"
            );
        }
    }
}
