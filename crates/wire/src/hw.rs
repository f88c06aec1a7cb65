//! Combinational hardware models of varint processing.
//!
//! Section 4.4.4 of the paper: "The field-handler unit contains a
//! combinational varint decoder, which can directly peek at the next 10B of
//! the serialized buffer via the memloader's variable-width consumer
//! interface." Both directions complete in a single cycle; the models here
//! compute the same outputs a parallel gate-level implementation would, so
//! the cycle-level simulators can charge exactly one cycle per varint.

use crate::MAX_VARINT_LEN;

/// Output of the single-cycle combinational varint decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedVarint {
    /// The decoded 64-bit value.
    pub value: u64,
    /// Encoded length in bytes (1..=10), fed back to the memloader so it can
    /// discard the consumed bytes at the end of the cycle.
    pub len: usize,
}

/// Combinational varint decoder over a fixed 10-byte peek window.
///
/// Hardware structure being modeled: ten continuation-bit taps feed a
/// priority encoder that selects the terminating byte; 7-bit payload groups
/// are extracted in parallel and merged through a masked OR tree. All of that
/// settles within one clock.
///
/// ```rust
/// use protoacc_wire::hw::CombVarintDecoder;
/// let window = [0xac, 0x02, 0, 0, 0, 0, 0, 0, 0, 0];
/// let out = CombVarintDecoder::decode(&window).expect("terminator in window");
/// assert_eq!((out.value, out.len), (300, 2));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CombVarintDecoder;

impl CombVarintDecoder {
    /// Decodes the varint at the front of a full 10-byte window.
    ///
    /// Returns `None` when no byte in the window clears its continuation
    /// bit — the hardware analog of a malformed (>10 byte) varint, which the
    /// real unit flags as an error to the control FSM.
    pub fn decode(window: &[u8; MAX_VARINT_LEN]) -> Option<DecodedVarint> {
        // Priority encoder: position of the first byte with bit 7 clear.
        let len = window.iter().position(|b| b & 0x80 == 0)? + 1;
        // Parallel group extraction + OR merge.
        let mut value = 0u64;
        for (i, &byte) in window.iter().enumerate().take(len) {
            if i * 7 < 64 {
                value |= u64::from(byte & 0x7f) << (i * 7);
            }
        }
        Some(DecodedVarint { value, len })
    }

    /// Decodes from a possibly-short peek (end of buffer); bytes past the end
    /// of `avail` are treated as absent.
    ///
    /// Returns `None` if no terminator lies within the available bytes — the
    /// FSM then either waits for more data or raises truncation.
    pub fn decode_avail(avail: &[u8]) -> Option<DecodedVarint> {
        // A 1-byte varint (every key of a field numbered below 16, most
        // small values) needs no padded window.
        if let Some(&first) = avail.first() {
            if first < 0x80 {
                return Some(DecodedVarint {
                    value: u64::from(first),
                    len: 1,
                });
            }
        }
        let mut window = [0x80u8; MAX_VARINT_LEN];
        let n = avail.len().min(MAX_VARINT_LEN);
        window[..n].copy_from_slice(&avail[..n]);
        let out = Self::decode(&window)?;
        (out.len <= n).then_some(out)
    }
}

/// Combinational varint encoder: fixed-width value in, up to 10 bytes plus a
/// byte-count out, in one cycle.
///
/// Hardware structure being modeled: a leading-zero counter determines the
/// output length; ten 7-bit slices are wired in parallel with continuation
/// bits set by comparators against the length.
#[derive(Debug, Clone, Copy, Default)]
pub struct CombVarintEncoder;

/// Output of the single-cycle combinational varint encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedVarint {
    /// Output bytes; only the first `len` are meaningful.
    pub bytes: [u8; MAX_VARINT_LEN],
    /// Number of valid bytes (1..=10).
    pub len: usize,
}

impl EncodedVarint {
    /// The valid prefix of the output.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl CombVarintEncoder {
    /// Encodes `value` in a single modeled cycle.
    ///
    /// ```rust
    /// use protoacc_wire::hw::CombVarintEncoder;
    /// let out = CombVarintEncoder::encode(300);
    /// assert_eq!(out.as_slice(), &[0xac, 0x02]);
    /// ```
    pub fn encode(value: u64) -> EncodedVarint {
        let len = crate::varint::encoded_len(value);
        let mut bytes = [0u8; MAX_VARINT_LEN];
        for (i, byte) in bytes.iter_mut().enumerate().take(len) {
            let group = ((value >> (i * 7)) & 0x7f) as u8;
            *byte = if i + 1 < len { group | 0x80 } else { group };
        }
        EncodedVarint { bytes, len }
    }
}

/// Combinational UTF-8 validator model.
///
/// Section 7: "the only change needed for proto3 support in our accelerator
/// is adding support for UTF-8 validation of string fields during
/// deserialization." The modeled unit checks one memloader window per cycle
/// (16 bytes by default), carrying continuation state across windows — the
/// standard shift-based DFA flattened into parallel per-byte classifiers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Utf8Validator;

impl Utf8Validator {
    /// Validates `bytes`, returning the number of cycles a `window_bytes`-
    /// wide unit takes, or `None` if the payload is not valid UTF-8.
    ///
    /// ```rust
    /// use protoacc_wire::hw::Utf8Validator;
    /// assert_eq!(Utf8Validator::validate("héllo".as_bytes(), 16), Some(1));
    /// assert_eq!(Utf8Validator::validate(&[0xff, 0xfe], 16), None);
    /// ```
    pub fn validate(bytes: &[u8], window_bytes: usize) -> Option<u64> {
        if std::str::from_utf8(bytes).is_err() {
            return None;
        }
        Some((bytes.len().div_ceil(window_bytes.max(1)) as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint;

    fn window_from(bytes: &[u8]) -> [u8; MAX_VARINT_LEN] {
        let mut w = [0u8; MAX_VARINT_LEN];
        w[..bytes.len()].copy_from_slice(bytes);
        w
    }

    #[test]
    fn comb_decoder_matches_software_decoder() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, 1 << 41, u64::MAX] {
            let mut buf = Vec::new();
            varint::encode(v, &mut buf);
            let out = CombVarintDecoder::decode(&window_from(&buf)).unwrap();
            assert_eq!(out.value, v);
            assert_eq!(out.len, buf.len());
        }
    }

    #[test]
    fn comb_decoder_flags_no_terminator() {
        assert_eq!(CombVarintDecoder::decode(&[0xff; 10]), None);
    }

    #[test]
    fn comb_decoder_partial_window() {
        // Terminator within available bytes: decodes.
        assert_eq!(
            CombVarintDecoder::decode_avail(&[0x96, 0x01]),
            Some(DecodedVarint { value: 150, len: 2 })
        );
        // Continuation bit set on the only available byte: must wait.
        assert_eq!(CombVarintDecoder::decode_avail(&[0x96 | 0x80]), None);
        assert_eq!(CombVarintDecoder::decode_avail(&[]), None);
    }

    #[test]
    fn comb_encoder_matches_software_encoder() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            varint::encode(v, &mut buf);
            let out = CombVarintEncoder::encode(v);
            assert_eq!(out.as_slice(), buf.as_slice());
        }
    }

    #[test]
    fn utf8_validator_accepts_and_rejects() {
        assert_eq!(Utf8Validator::validate(b"", 16), Some(1));
        assert_eq!(Utf8Validator::validate(b"plain ascii", 16), Some(1));
        assert_eq!(Utf8Validator::validate("δοκιμή".as_bytes(), 16), Some(1));
        // 33 bytes at 16 B/cycle = 3 cycles.
        assert_eq!(Utf8Validator::validate(&[b'a'; 33], 16), Some(3));
        // Lone continuation byte and overlong forms are invalid.
        assert_eq!(Utf8Validator::validate(&[0x80], 16), None);
        assert_eq!(Utf8Validator::validate(&[0xc0, 0xaf], 16), None);
        // Truncated multibyte sequence.
        assert_eq!(Utf8Validator::validate(&[0xe2, 0x82], 16), None);
    }

    #[test]
    fn encoder_decoder_round_trip_all_lengths() {
        for k in 0..10 {
            let v = if k == 0 { 0 } else { 1u64 << (7 * k) };
            let enc = CombVarintEncoder::encode(v);
            assert_eq!(enc.len, k + 1);
            let dec = CombVarintDecoder::decode_avail(enc.as_slice()).unwrap();
            assert_eq!(dec.value, v);
            assert_eq!(dec.len, enc.len);
        }
    }
}
