//! Front-to-back serialization into one `Vec<u8>`.
//!
//! The paper's memwriter writes backwards because the hardware learns a
//! sub-message's size only once its body is written (Section 4.5). The host
//! encoder re-encodes objects its own decoder built, and the decoder keeps
//! each sub-message's input body length next to its object offset, so every
//! length prefix goes out before its body, from that recorded length, into
//! one buffer sized from the input. Nothing is zeroed and nothing is copied
//! twice. When a body's real length differs from the recorded one (only for
//! non-canonical input), [`fix_prefix`] rewrites the prefix.
//!
//! Two wide stores stay in safe Rust by appending more bytes than count and
//! truncating back: a multi-byte varint goes out as its 16-byte image, and a
//! payload of at most 64 bytes as the 64 source bytes from its start, when
//! the source has them. With [`SLACK`] bytes of spare capacity past the
//! output's end neither store grows the buffer; without them the `Vec`
//! grows and the bytes stay the same.

/// Longest payload [`put_payload`] writes with one fixed-width copy, and
/// that copy's width. In the ml-features suite 96% of strings are at most
/// 64 bytes long (77% at most 32).
const WILD_COPY: usize = 64;

/// Spare capacity past the output's end that keeps every wide store inside
/// the buffer: the widest store, [`WILD_COPY`].
pub(crate) const SLACK: usize = WILD_COPY;

/// Continuation bit of every byte lane of a 16-byte image.
const CONT_MASK: u128 = 0x8080_8080_8080_8080_8080_8080_8080_8080;

/// Bytes in the varint encoding of `value`: `(bits * 9 + 64) / 64` for a
/// `bits`-bit value, one byte per 7 bits rounded up, with no loop and no
/// division.
#[inline(always)]
pub(crate) fn varint_len(value: u64) -> usize {
    let bits = 64 - (value | 1).leading_zeros() as usize;
    (bits * 9 + 64) / 64
}

/// The varint encoding of `value` as a little-endian image (byte `i` of the
/// encoding is byte `i` of the image) and its length in bytes.
///
/// The inverse of [`crate::swar`]'s fold: the low 56 bits spread into eight
/// 7-bit lanes in three parallel steps, bits 56..=63 fill lanes 8 and 9,
/// and every lane below the last gets its continuation bit.
#[inline(always)]
fn flat_varint(value: u64) -> (u128, usize) {
    let n = varint_len(value);
    let x = (value & 0x0fff_ffff) | ((value & 0x00ff_ffff_f000_0000) << 4);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1);
    let high = ((value >> 56) & 0x7f) | ((value >> 63) << 8);
    let lanes = u128::from(x) | (u128::from(high) << 64);
    (lanes | (CONT_MASK & ((1u128 << (8 * (n - 1))) - 1)), n)
}

/// Appends the varint encoding of `value`. A multi-byte varint is one
/// register build and one 16-byte store, whatever its length.
#[inline(always)]
pub(crate) fn put_varint(out: &mut Vec<u8>, value: u64) {
    if value < 0x80 {
        // One-byte varints: most keys, lengths and small scalars.
        out.push(value as u8);
        return;
    }
    let (image, n) = flat_varint(value);
    let end = out.len() + n;
    out.extend_from_slice(&image.to_le_bytes());
    out.truncate(end);
}

/// Appends `src[off..off + len]`. A payload of at most 64 bytes goes out as
/// one fixed 64-byte copy of `src[off..off + 64]` when `src` has those
/// bytes; anything else is an exact copy.
#[inline(always)]
pub(crate) fn put_payload(out: &mut Vec<u8>, src: &[u8], off: usize, len: usize) {
    if len <= WILD_COPY {
        if let Some(wide) = src[off..].first_chunk::<WILD_COPY>() {
            let end = out.len() + len;
            out.extend_from_slice(wide);
            out.truncate(end);
            return;
        }
    }
    out.extend_from_slice(&src[off..off + len]);
}

/// Rewrites the length prefix at `out[at..body]` to the length of the body
/// that runs from `body` to the end of `out`: in place when the new prefix
/// is as wide as the old, otherwise by splicing, which moves the body.
#[cold]
#[inline(never)]
pub(crate) fn fix_prefix(out: &mut Vec<u8>, at: usize, body: usize) {
    let (image, n) = flat_varint((out.len() - body) as u64);
    let prefix = &image.to_le_bytes()[..n];
    if n == body - at {
        out[at..body].copy_from_slice(prefix);
    } else {
        out.splice(at..body, prefix.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_wire::varint;

    /// Varint boundaries: 2^7k - 1 and 2^7k for k = 0..=9, so every
    /// length from 1 to 10 bytes, plus the widest value.
    fn varint_edges() -> Vec<u64> {
        (0..=9u32)
            .flat_map(|k| [(1u64 << (7 * k)) - 1, 1u64 << (7 * k)])
            .chain([u64::MAX])
            .collect()
    }

    /// Every varint length from 1 to 10 bytes equals the scalar encoder,
    /// behind existing bytes, with spare capacity none, short of and past
    /// the 16-byte store.
    #[test]
    fn varints_match_the_scalar_encoder_at_every_length() {
        let mut lengths = Vec::new();
        for v in varint_edges() {
            let mut expected = vec![0xa5; 3];
            let n = varint::encode(v, &mut expected);
            assert_eq!(varint_len(v), n, "length of {v:#x}");
            lengths.push(n);
            for spare in [0usize, 1, 15, 16, 17, 64] {
                let mut out = Vec::with_capacity(3 + spare);
                out.extend_from_slice(&[0xa5; 3]);
                put_varint(&mut out, v);
                assert_eq!(out, expected, "{v:#x} with {spare} B spare");
            }
        }
        lengths.dedup();
        assert_eq!(lengths, (1..=10).collect::<Vec<_>>());
    }

    /// The wide copy at lengths 0, 63, 64 and 65, with the payload
    /// starting 64 or more bytes before the source's end (the wide copy),
    /// starting fewer and ending less than 64 bytes before it (an exact
    /// copy), and with spare capacity none, short of and past the 64-byte
    /// store.
    #[test]
    fn payload_copy_edges() {
        let src: Vec<u8> = (0..3 * WILD_COPY).map(|i| (i * 7 + 1) as u8).collect();
        let n = src.len();
        for len in [0, WILD_COPY - 1, WILD_COPY, WILD_COPY + 1] {
            let offs = [
                0,
                n - WILD_COPY - 1,
                n - WILD_COPY,
                n - WILD_COPY + 1,
                n - len,
            ];
            for off in offs.into_iter().filter(|off| off + len <= n) {
                for spare in [0usize, 1, WILD_COPY - 1, WILD_COPY, 2 * WILD_COPY] {
                    let mut out = Vec::with_capacity(2 + spare);
                    out.extend_from_slice(&[0xa5; 2]);
                    put_payload(&mut out, &src, off, len);
                    let mut expected = vec![0xa5; 2];
                    expected.extend_from_slice(&src[off..off + len]);
                    assert_eq!(out, expected, "off {off}, len {len}, {spare} B spare");
                }
            }
        }
    }

    /// A buffer too small for the output grows and writes the same bytes
    /// as one with room to spare: the capacity is only a hint.
    #[test]
    fn a_too_small_buffer_grows_to_the_same_bytes() {
        let src: Vec<u8> = (0..500).map(|i| (i * 31 + i / 7) as u8).collect();
        let write = |capacity: usize| {
            let mut out = Vec::with_capacity(capacity);
            for (i, v) in varint_edges().into_iter().enumerate() {
                put_varint(&mut out, v);
                let len = i * 23 % 90;
                put_payload(&mut out, &src, i * 17 % (src.len() - len), len);
            }
            out
        };
        let roomy = write(4096);
        assert!(roomy.len() > 300, "the mix spans several growths");
        for capacity in [0, 1, 16, 63, roomy.len() - 1, roomy.len()] {
            assert_eq!(write(capacity), roomy, "capacity {capacity}");
        }
    }

    /// A rewritten prefix equals the scalar encoding of the body's length,
    /// in place at one width, spliced across 127/128 and 16383/16384 both
    /// ways, and the body behind it is unmoved in content.
    #[test]
    fn prefix_rewrites_keep_the_body() {
        for (recorded, real) in [
            (5usize, 3usize),
            (127, 128),
            (128, 127),
            (16383, 16384),
            (16384, 16383),
            (300, 200),
        ] {
            let mut out = vec![0x0a];
            let at = out.len();
            put_varint(&mut out, recorded as u64);
            let body = out.len();
            let payload: Vec<u8> = (0..real).map(|i| i as u8).collect();
            out.extend_from_slice(&payload);
            fix_prefix(&mut out, at, body);
            let mut expected = vec![0x0a];
            varint::encode(real as u64, &mut expected);
            expected.extend_from_slice(&payload);
            assert_eq!(out, expected, "recorded {recorded}, real {real}");
        }
    }
}
