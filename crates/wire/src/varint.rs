//! Base-128 variable-length integer encoding.
//!
//! The protobuf varint algorithm repeatedly consumes 7 bits at a time from
//! the least-significant side of a fixed-width value until no non-zero bits
//! remain, emitting one byte per group with a continuation bit in the MSB
//! (Section 2.1.2 of the paper).

use crate::{WireError, MAX_VARINT_LEN};

/// Returns the number of bytes `value` occupies when varint-encoded (1..=10).
///
/// ```rust
/// use protoacc_wire::varint::encoded_len;
/// assert_eq!(encoded_len(0), 1);
/// assert_eq!(encoded_len(127), 1);
/// assert_eq!(encoded_len(128), 2);
/// assert_eq!(encoded_len(u64::MAX), 10);
/// ```
#[inline]
pub fn encoded_len(value: u64) -> usize {
    // Each output byte carries 7 payload bits; value 0 still needs one byte.
    let bits = 64 - (value | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends the varint encoding of `value` to `out`, returning the number of
/// bytes written.
///
/// ```rust
/// use protoacc_wire::varint::encode;
/// let mut buf = Vec::new();
/// assert_eq!(encode(1, &mut buf), 1);
/// assert_eq!(buf, [0x01]);
/// ```
#[inline]
pub fn encode(mut value: u64, out: &mut Vec<u8>) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            out.push(byte);
            return written;
        }
        out.push(byte | 0x80);
    }
}

/// Encodes `value` into a fixed 10-byte buffer, returning the byte length.
///
/// This is the allocation-free variant used by the simulators' inner loops.
#[inline]
pub fn encode_to_array(mut value: u64, out: &mut [u8; MAX_VARINT_LEN]) -> usize {
    let mut i = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out[i] = byte;
            return i + 1;
        }
        out[i] = byte | 0x80;
        i += 1;
    }
}

/// Decodes a varint from the front of `input`.
///
/// Returns the decoded value and the number of bytes consumed.
///
/// # Errors
///
/// * [`WireError::Truncated`] if `input` ends mid-varint.
/// * [`WireError::VarintOverflow`] if no terminating byte appears within the
///   10-byte maximum.
///
/// Note that, matching the C++ reference implementation, bits beyond the 64th
/// are silently discarded rather than rejected.
#[inline]
pub fn decode(input: &[u8]) -> Result<(u64, usize), WireError> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate().take(MAX_VARINT_LEN) {
        // Shifts past bit 63 drop extra bits, as upstream protobuf does.
        if i * 7 < 64 {
            value |= u64::from(byte & 0x7f) << (i * 7);
        }
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    if input.len() < MAX_VARINT_LEN {
        Err(WireError::Truncated {
            offset: input.len(),
        })
    } else {
        Err(WireError::VarintOverflow { offset: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_single_byte_values() {
        for v in 0..=127u64 {
            let mut buf = Vec::new();
            assert_eq!(encode(v, &mut buf), 1);
            assert_eq!(buf, [v as u8]);
        }
    }

    #[test]
    fn encodes_known_vectors() {
        // Canonical examples from the protobuf encoding documentation.
        let cases: &[(u64, &[u8])] = &[
            (0, &[0x00]),
            (1, &[0x01]),
            (150, &[0x96, 0x01]),
            (300, &[0xac, 0x02]),
            (16_384, &[0x80, 0x80, 0x01]),
        ];
        for &(value, expect) in cases {
            let mut buf = Vec::new();
            encode(value, &mut buf);
            assert_eq!(buf, expect, "value {value}");
        }
        let mut buf = Vec::new();
        encode(u64::MAX, &mut buf);
        assert_eq!(buf.len(), 10);
        assert_eq!(&buf[..9], &[0xff; 9]);
        assert_eq!(buf[9], 0x01);
    }

    #[test]
    fn round_trips_across_length_boundaries() {
        // Exercise every encoded-length bucket edge: 2^(7k) - 1 and 2^(7k).
        for k in 1..=9 {
            for v in [(1u64 << (7 * k)) - 1, 1u64 << (7 * k)] {
                let mut buf = Vec::new();
                let n = encode(v, &mut buf);
                assert_eq!(n, encoded_len(v));
                let (decoded, consumed) = decode(&buf).unwrap();
                assert_eq!(decoded, v);
                assert_eq!(consumed, n);
            }
        }
    }

    #[test]
    fn encoded_len_matches_encode() {
        for shift in 0..64 {
            let v = 1u64 << shift;
            let mut buf = Vec::new();
            assert_eq!(encode(v, &mut buf), encoded_len(v));
        }
    }

    #[test]
    fn encode_to_array_matches_encode() {
        for v in [0u64, 1, 127, 128, 300, 1 << 21, u64::MAX] {
            let mut vec = Vec::new();
            let n1 = encode(v, &mut vec);
            let mut arr = [0u8; MAX_VARINT_LEN];
            let n2 = encode_to_array(v, &mut arr);
            assert_eq!(n1, n2);
            assert_eq!(&arr[..n2], vec.as_slice());
        }
    }

    #[test]
    fn decode_rejects_truncated_input() {
        assert_eq!(decode(&[0x80]), Err(WireError::Truncated { offset: 1 }));
        assert_eq!(decode(&[]), Err(WireError::Truncated { offset: 0 }));
    }

    #[test]
    fn decode_rejects_eleven_continuations() {
        let bad = [0xffu8; 11];
        assert_eq!(decode(&bad), Err(WireError::VarintOverflow { offset: 0 }));
    }

    #[test]
    fn decode_accepts_ten_byte_max() {
        let mut buf = Vec::new();
        encode(u64::MAX, &mut buf);
        let (v, n) = decode(&buf).unwrap();
        assert_eq!(v, u64::MAX);
        assert_eq!(n, 10);
    }

    #[test]
    fn decode_discards_bits_past_64() {
        // A 10-byte varint whose final byte carries bits beyond the 64th:
        // upstream protobuf truncates, and so do we.
        let buf = [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f];
        let (v, n) = decode(&buf).unwrap();
        assert_eq!(n, 10);
        // Byte 9 contributes only its lowest bit (bit 63); bits 64+ vanish.
        assert_eq!(v, (1u64 << 63) | 1);
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let buf = [0x05, 0xde, 0xad];
        assert_eq!(decode(&buf).unwrap(), (5, 1));
    }
}
