//! Reverse-order serialization buffer — the software analogue of the
//! paper's memwriter (Section 5.2).
//!
//! The protobuf wire format nests length-prefixed frames, so a forward
//! writer must either run a separate ByteSize pass (what the C++ library and
//! `crates/cpu` do) or seek back to patch lengths. The memwriter trick
//! sidesteps both: serialize *backwards*, children first. By the time a
//! sub-message's length prefix is written, its body already sits in the
//! buffer and the length is simply the byte count produced since the frame
//! started — one pass, no patching, no size cache.
//!
//! Data grows from the end of the buffer toward the front; `head` is the
//! offset of the most recently written byte. Growth copies the existing
//! tail to the end of a larger buffer, preserving all offsets relative to
//! the *end*. [`ReverseWriter::into_bytes`] slides the data to the front of
//! the same buffer, so finishing a message allocates nothing.

use protoacc_wire::varint;

/// A buffer that is written back-to-front.
#[derive(Debug, Clone)]
pub struct ReverseWriter {
    buf: Vec<u8>,
    head: usize,
}

impl ReverseWriter {
    /// Creates a writer with `capacity` bytes of initial headroom.
    pub fn with_capacity(capacity: usize) -> Self {
        ReverseWriter {
            buf: vec![0u8; capacity],
            head: capacity,
        }
    }

    /// Creates an empty writer (grows on first prepend).
    pub fn new() -> Self {
        Self::with_capacity(256)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Ensures at least `need` bytes of headroom in front of `head`.
    ///
    /// `need == head` is an exact fit and must NOT grow; `need == 0` must be
    /// a no-op even on a zero-capacity buffer — both were called out as
    /// risky edges in the divergence sweep and are pinned by tests below.
    #[inline]
    fn ensure(&mut self, need: usize) {
        if need <= self.head {
            return;
        }
        let data_len = self.len();
        let new_cap = (self.buf.len() * 2).max(data_len + need).max(64);
        let mut grown = vec![0u8; new_cap];
        let new_head = new_cap - data_len;
        grown[new_head..].copy_from_slice(&self.buf[self.head..]);
        self.buf = grown;
        self.head = new_head;
    }

    /// Prepends raw bytes.
    #[inline]
    pub fn prepend_slice(&mut self, bytes: &[u8]) {
        self.ensure(bytes.len());
        self.head -= bytes.len();
        self.buf[self.head..self.head + bytes.len()].copy_from_slice(bytes);
    }

    /// Reserves `n` bytes in front of the written data and returns them for
    /// the caller to fill front to back. The caller must write all `n`
    /// bytes: the region holds whatever the buffer held before.
    #[inline]
    pub fn prepend_region(&mut self, n: usize) -> &mut [u8] {
        self.ensure(n);
        self.head -= n;
        &mut self.buf[self.head..self.head + n]
    }

    /// Prepends one byte.
    #[inline]
    pub fn prepend_byte(&mut self, byte: u8) {
        self.ensure(1);
        self.head -= 1;
        self.buf[self.head] = byte;
    }

    /// Prepends the varint encoding of `value`, written in place.
    #[inline]
    pub fn prepend_varint(&mut self, value: u64) {
        if value < 0x80 {
            // One-byte varints: most keys, lengths and small scalars.
            self.prepend_byte(value as u8);
            return;
        }
        let n = varint::encoded_len(value);
        self.ensure(n);
        self.head -= n;
        let out = &mut self.buf[self.head..self.head + n];
        let mut v = value;
        for b in &mut out[..n - 1] {
            *b = v as u8 | 0x80;
            v >>= 7;
        }
        out[n - 1] = v as u8;
    }

    /// Prepends a little-endian fixed32.
    #[inline]
    pub fn prepend_fixed32(&mut self, value: u32) {
        self.prepend_slice(&value.to_le_bytes());
    }

    /// Prepends a little-endian fixed64.
    #[inline]
    pub fn prepend_fixed64(&mut self, value: u64) {
        self.prepend_slice(&value.to_le_bytes());
    }

    /// The bytes written so far, front to back.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Consumes the writer, returning the written bytes in its own buffer:
    /// the data moves to the front and the headroom is truncated away.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let len = self.len();
        self.buf.copy_within(self.head.., 0);
        self.buf.truncate(len);
        self.buf
    }

    /// Discards all written bytes, keeping the allocation.
    pub fn clear(&mut self) {
        self.head = self.buf.len();
    }
}

impl Default for ReverseWriter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepends_accumulate_front_to_back() {
        let mut w = ReverseWriter::with_capacity(8);
        w.prepend_slice(b"world");
        w.prepend_byte(b' ');
        w.prepend_slice(b"hello");
        assert_eq!(w.as_slice(), b"hello world");
        assert_eq!(w.len(), 11);
        assert_eq!(w.into_bytes(), b"hello world");
    }

    /// Regression: a zero-length prepend on a full (head == 0) or
    /// zero-capacity buffer must neither grow nor underflow `head`.
    #[test]
    fn zero_length_prepend_is_a_noop_even_when_full() {
        let mut w = ReverseWriter::with_capacity(0);
        w.prepend_slice(&[]);
        assert_eq!(w.len(), 0);
        assert!(w.is_empty());
        let mut w = ReverseWriter::with_capacity(4);
        w.prepend_slice(&[1, 2, 3, 4]);
        assert_eq!(w.head, 0);
        let cap_before = w.buf.len();
        w.prepend_slice(&[]);
        assert_eq!(w.buf.len(), cap_before, "zero-length prepend must not grow");
        assert_eq!(w.as_slice(), &[1, 2, 3, 4]);
    }

    /// Regression: an exact-fit prepend (need == head) must succeed without
    /// growing and leave head at exactly zero.
    #[test]
    fn exact_fit_prepend_does_not_grow() {
        let mut w = ReverseWriter::with_capacity(10);
        w.prepend_slice(&[9; 3]);
        assert_eq!(w.head, 7);
        let cap_before = w.buf.len();
        w.prepend_slice(&[7; 7]);
        assert_eq!(w.buf.len(), cap_before, "exact fit must not grow");
        assert_eq!(w.head, 0);
        assert_eq!(w.as_slice(), &[7, 7, 7, 7, 7, 7, 7, 9, 9, 9]);
    }

    /// `prepend_region` edges, mirroring the `ensure` tests above: a zero
    /// length on a zero-capacity writer, an exact fit that must not grow,
    /// and growth that keeps the written suffix.
    #[test]
    fn zero_length_region_on_a_zero_capacity_writer_is_a_noop() {
        let mut w = ReverseWriter::with_capacity(0);
        assert!(w.prepend_region(0).is_empty());
        assert!(w.is_empty());
        assert_eq!(w.buf.len(), 0, "zero-length region must not grow");
    }

    #[test]
    fn exact_fit_region_does_not_grow() {
        let mut w = ReverseWriter::with_capacity(8);
        w.prepend_slice(&[9; 3]);
        let cap_before = w.buf.len();
        w.prepend_region(5).copy_from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(w.buf.len(), cap_before, "exact fit must not grow");
        assert_eq!(w.head, 0);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4, 5, 9, 9, 9]);
    }

    #[test]
    fn region_growth_preserves_written_suffix() {
        let mut w = ReverseWriter::with_capacity(4);
        w.prepend_slice(&[7, 8, 9]);
        let region = w.prepend_region(100);
        assert_eq!(region.len(), 100);
        for (i, b) in region.iter_mut().enumerate() {
            *b = i as u8;
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 103);
        assert!(bytes[..100].iter().enumerate().all(|(i, &b)| b == i as u8));
        assert_eq!(&bytes[100..], &[7, 8, 9]);
    }

    #[test]
    fn growth_preserves_written_suffix() {
        let mut w = ReverseWriter::with_capacity(2);
        for i in 0..100u8 {
            w.prepend_byte(i);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 100);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(b, 99 - i as u8);
        }
    }

    #[test]
    fn varint_prepend_matches_forward_encoding() {
        for v in [0u64, 1, 127, 128, 300, 1 << 21, 1 << 56, u64::MAX] {
            let mut w = ReverseWriter::new();
            w.prepend_varint(v);
            let mut fwd = Vec::new();
            varint::encode(v, &mut fwd);
            assert_eq!(w.as_slice(), fwd.as_slice(), "value {v}");
        }
    }

    /// Every encoded-length boundary, 2^7k - 1 and 2^7k for k = 1..9, on
    /// its own and behind existing data, in a buffer that has to grow.
    #[test]
    fn varint_prepend_matches_forward_encoding_at_every_length_boundary() {
        let mut w = ReverseWriter::with_capacity(0);
        let mut fwd = Vec::new();
        for k in 1..=9u32 {
            for v in [(1u64 << (7 * k)) - 1, 1u64 << (7 * k)] {
                let mut one = ReverseWriter::with_capacity(0);
                one.prepend_varint(v);
                let mut expected = Vec::new();
                varint::encode(v, &mut expected);
                assert_eq!(one.as_slice(), expected.as_slice(), "value {v:#x}");
                assert_eq!(one.len(), varint::encoded_len(v), "value {v:#x}");
                w.prepend_varint(v);
                expected.extend_from_slice(&fwd);
                fwd = expected;
            }
        }
        assert_eq!(w.into_bytes(), fwd);
    }

    /// `into_bytes` after several growths, on an exact fit (head == 0), and
    /// when nothing was written.
    #[test]
    fn into_bytes_compacts_after_growth_and_on_exact_fit() {
        let mut w = ReverseWriter::with_capacity(3);
        let mut expected = Vec::new();
        for i in 0..50u8 {
            w.prepend_slice(&[i, i.wrapping_mul(7)]);
            expected.splice(0..0, [i, i.wrapping_mul(7)]);
        }
        assert!(w.head > 0, "growth leaves headroom in front");
        assert_eq!(w.into_bytes(), expected);
        let mut w = ReverseWriter::with_capacity(6);
        w.prepend_slice(&[4, 5, 6]);
        w.prepend_varint(300);
        w.prepend_byte(1);
        assert_eq!(w.head, 0, "exact fit");
        assert_eq!(w.into_bytes(), [1, 0xac, 0x02, 4, 5, 6]);
        assert!(ReverseWriter::with_capacity(16).into_bytes().is_empty());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut w = ReverseWriter::with_capacity(16);
        w.prepend_slice(b"abc");
        w.clear();
        assert!(w.is_empty());
        w.prepend_slice(b"xy");
        assert_eq!(w.as_slice(), b"xy");
    }
}
