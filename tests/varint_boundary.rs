//! Three-way varint end-of-buffer agreement: the scalar software decoder
//! (`protoacc_wire::varint::decode`), the fast-path SWAR decoder
//! (`protoacc_fastpath::swar::decode`), and the hardware model's windowed
//! decoder (`CombVarintDecoder::decode_avail` plus the deserializer's
//! `varint_at` classification) must return the *same* `Result` — same value,
//! same consumed length, and the same `Truncated`-vs-`VarintOverflow`
//! verdict — on every input, in particular at buffer-end straddles and on
//! overlong-but-terminated 10-byte encodings.
//!
//! Before this sweep existed the three classifications were only pinned
//! pairwise and informally; this file is the shared exhaustive boundary test
//! the divergence-fix satellite calls for.

use protoacc_suite::fastpath::swar;
use protoacc_suite::wire::hw::CombVarintDecoder;
use protoacc_suite::wire::{varint, WireError, MAX_VARINT_LEN};
use protoacc_suite::xrand::{Rng, StdRng};

/// The hardware deserializer's varint path: a peek window of up to 10 bytes
/// through `CombVarintDecoder::decode_avail`, with `None` classified exactly
/// as `crates/core::deser::varint_at` does (window position 0 here).
fn hw_decode(input: &[u8]) -> Result<(u64, usize), WireError> {
    let window = &input[..input.len().min(MAX_VARINT_LEN)];
    match CombVarintDecoder::decode_avail(window) {
        Some(out) => Ok((out.value, out.len)),
        None => Err(if window.len() >= MAX_VARINT_LEN {
            WireError::VarintOverflow { offset: 0 }
        } else {
            WireError::Truncated {
                offset: window.len(),
            }
        }),
    }
}

#[track_caller]
fn assert_three_way(input: &[u8]) {
    let scalar = varint::decode(input);
    assert_eq!(
        scalar,
        swar::decode(input),
        "scalar vs swar on {input:02x?}"
    );
    assert_eq!(scalar, hw_decode(input), "scalar vs hw on {input:02x?}");
}

/// Every combination of boundary-heavy bytes at every length 0..=5, plus the
/// same alphabet as a prefix under a long continuation run.
#[test]
fn exhaustive_short_inputs_agree() {
    let alphabet = [0x00u8, 0x01, 0x7f, 0x80, 0x81, 0xff];
    for len in 0..=5usize {
        let mut counters = vec![0usize; len];
        let mut buf = vec![0u8; len];
        'odometer: loop {
            for (b, &c) in buf.iter_mut().zip(&counters) {
                *b = alphabet[c];
            }
            assert_three_way(&buf);
            let mut i = 0;
            loop {
                if i == len {
                    break 'odometer;
                }
                counters[i] += 1;
                if counters[i] < alphabet.len() {
                    break;
                }
                counters[i] = 0;
                i += 1;
            }
        }
    }
}

/// Buffer-end straddles: for every continuation-run length 1..=12, every
/// truncation point — the case where a varint is cut by the end of the
/// buffer (or an enclosing frame slice) rather than malformed.
#[test]
fn buffer_end_straddles_agree() {
    for run in 1..=12usize {
        for fill in [0x80u8, 0xff, 0x81] {
            let full: Vec<u8> = (0..run).map(|_| fill).chain([0x01]).collect();
            for cut in 0..=full.len() {
                assert_three_way(&full[..cut]);
            }
        }
    }
}

/// Overlong-but-terminated encodings: small values padded with redundant
/// continuation bytes out to every length 1..=10 must decode to the same
/// value everywhere, and an 11-byte "encoding" must be VarintOverflow (the
/// 10-byte cap) on all three, never Truncated.
#[test]
fn overlong_terminated_encodings_agree() {
    for value in [0u64, 1, 5, 0x7f] {
        for total_len in 1..=MAX_VARINT_LEN {
            let mut buf = vec![0u8; total_len];
            buf[0] = (value as u8 & 0x7f) | if total_len > 1 { 0x80 } else { 0 };
            for b in buf.iter_mut().take(total_len - 1).skip(1) {
                *b = 0x80;
            }
            buf[total_len - 1] = if total_len == 1 { value as u8 } else { 0x00 };
            let decoded = varint::decode(&buf).expect("terminated encoding decodes");
            assert_eq!(decoded, (value, total_len), "scalar on {buf:02x?}");
            assert_three_way(&buf);
        }
    }
    // Ten continuation bytes followed by a terminator: the terminator is
    // past the legal window, so this is overflow everywhere.
    let mut eleven = vec![0x80u8; MAX_VARINT_LEN];
    eleven.push(0x00);
    assert_eq!(
        varint::decode(&eleven),
        Err(WireError::VarintOverflow { offset: 0 })
    );
    assert_three_way(&eleven);
}

/// Ten-byte encodings that set bits past the 64th: all three decoders
/// discard the excess identically (upstream protobuf's behavior).
#[test]
fn bits_past_64_are_discarded_identically() {
    let vectors: [[u8; 10]; 4] = [
        [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f],
        [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
        [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
        [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02],
    ];
    for v in &vectors {
        assert_three_way(v);
        let (value, len) = varint::decode(v).expect("terminated 10-byte varint");
        assert_eq!(len, MAX_VARINT_LEN);
        // Byte 9 contributes only bit 63.
        let expected_top = u64::from(v[9] & 1) << 63;
        assert_eq!(value & (1 << 63), expected_top, "vector {v:02x?}");
    }
}

/// Classification pin: truncation (buffer ends mid-varint) vs overflow (ten
/// continuation bytes), byte counts at both edges.
#[test]
fn truncation_vs_overflow_classification() {
    for len in 0..MAX_VARINT_LEN {
        let buf = vec![0xffu8; len];
        assert_eq!(
            varint::decode(&buf),
            Err(WireError::Truncated { offset: len }),
            "{len} continuation bytes"
        );
        assert_three_way(&buf);
    }
    for len in MAX_VARINT_LEN..=14 {
        let buf = vec![0xffu8; len];
        assert_eq!(
            varint::decode(&buf),
            Err(WireError::VarintOverflow { offset: 0 }),
            "{len} continuation bytes"
        );
        assert_three_way(&buf);
    }
}

/// Round trip: every encodable value in every length bucket decodes to
/// itself on all three decoders, with trailing garbage ignored.
#[test]
fn encoded_values_round_trip_three_ways() {
    for k in 0..10u32 {
        for v in [
            (1u64 << (7 * k)).wrapping_sub(1),
            1u64 << (7 * k),
            (1u64 << (7 * k)) | 0x55,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            let n = varint::encode(v, &mut buf);
            buf.extend_from_slice(&[0xee, 0x80, 0xff]);
            for decode in [varint::decode, swar::decode, hw_decode] {
                assert_eq!(decode(&buf).unwrap(), (v, n), "value {v:#x}");
            }
        }
    }
}

#[test]
fn seeded_random_sweep_agrees() {
    let mut rng = StdRng::seed_from_u64(0xB0DA_0661);
    let trials = if cfg!(feature = "slow-tests") {
        200_000
    } else {
        30_000
    };
    for _ in 0..trials {
        let len = rng.gen_range(0usize..16);
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf[..]);
        // Bias half the trials toward continuation-heavy bytes where the
        // interesting boundaries live.
        if rng.gen_bool(0.5) {
            for b in &mut buf {
                *b |= 0x80;
            }
            if len > 0 && rng.gen_bool(0.7) {
                let i = rng.gen_range(0..len);
                buf[i] &= 0x7f;
            }
        }
        assert_three_way(&buf);
    }
}

/// `decode_avail` as it was before its 1-byte shortcut: pad the available
/// bytes into a full window of continuation bytes and decode that.
fn padded_window_decode(avail: &[u8]) -> Option<(u64, usize)> {
    let mut window = [0x80u8; MAX_VARINT_LEN];
    let n = avail.len().min(MAX_VARINT_LEN);
    window[..n].copy_from_slice(&avail[..n]);
    let out = CombVarintDecoder::decode(&window)?;
    (out.len <= n).then_some((out.value, out.len))
}

/// Every first byte, under every window length 0..=10 and three tails
/// (all continuation, all terminators, mixed): the 1-byte shortcut and the
/// padded-window path must agree with the padded-window reference.
#[test]
fn decode_avail_matches_the_padded_window_on_every_first_byte() {
    for first in 0..=u8::MAX {
        for tail in [0xffu8, 0x00, 0x81] {
            let mut buf = [tail; MAX_VARINT_LEN + 2];
            buf[0] = first;
            for len in 0..=MAX_VARINT_LEN + 2 {
                let avail = &buf[..len];
                assert_eq!(
                    CombVarintDecoder::decode_avail(avail).map(|o| (o.value, o.len)),
                    padded_window_decode(avail),
                    "{avail:02x?}"
                );
            }
        }
    }
}
