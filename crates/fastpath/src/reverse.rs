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
//! the *end*. [`ReverseWriter::into_bytes`] hands back the buffer itself
//! when the data fills it exactly, and otherwise slides the data to the
//! front of the same buffer, so finishing a message allocates nothing.
//!
//! A safe `Vec<u8>` must be initialized before it is written, so the buffer
//! is zero-filled first. A payload of [`DEFER_MIN`] bytes or more skips it:
//! [`ReverseWriter::prepend_tail`] records where the payload sits in the
//! source and how many buffered bytes follow it, and copies nothing.
//! Finishing such a writer builds the output front to back in memory that
//! is never zeroed, alternating buffered runs and deferred payloads, so
//! each long payload is copied once, straight from the source.
//!
//! Writing backwards also makes *headroom stores* safe: a fixed-width store
//! that ends at `head` writes its leading bytes into free headroom, never
//! into data already written. A multi-byte varint is built in a register
//! and goes out as one 16-byte store, and a short string as one 64-byte
//! copy ([`ReverseWriter::prepend_tail`]); `head` then moves back by the
//! bytes that count. The spare bytes are overwritten by later prepends or
//! left in front of the data. Without enough headroom, an exact copy
//! writes the same bytes.

/// Headroom a flat varint store needs: one 16-byte store ending at `head`.
const VARINT_STORE: usize = 16;

/// Longest payload [`ReverseWriter::prepend_tail`] writes with one
/// fixed-width copy, and that copy's width. In the ml-features suite 96%
/// of strings are at most 64 bytes long (77% at most 32).
const WILD_COPY: usize = 64;

/// Shortest payload [`ReverseWriter::prepend_tail`] defers instead of
/// copying into the buffer. A deferral saves zero-filling the payload's
/// bytes and costs one segment record, plus, once per message, a fresh
/// output allocation and a second copy of the buffered bytes; at 8 KiB
/// only the storage-rows and search-indexing suites' blobs qualify (see
/// EXPERIMENTS "Encode-side fill and frame copy" for the sizing).
pub const DEFER_MIN: usize = 8 * 1024;

/// Continuation bit of every byte lane of a 16-byte image.
const CONT_MASK: u128 = 0x8080_8080_8080_8080_8080_8080_8080_8080;

/// The varint encoding of `value` as a little-endian image (byte `i` of the
/// encoding is byte `i` of the image) and its length in bytes.
///
/// The inverse of [`crate::swar`]'s fold: the low 56 bits spread into eight
/// 7-bit lanes in three parallel steps, bits 56..=63 fill lanes 8 and 9,
/// and every lane below the last gets its continuation bit. The length is
/// `(bits * 9 + 64) / 64` for a `bits`-bit value: one byte per 7 bits,
/// rounded up, with no loop and no division.
#[inline(always)]
fn flat_varint(value: u64) -> (u128, usize) {
    let bits = 64 - (value | 1).leading_zeros() as usize;
    let n = (bits * 9 + 64) / 64;
    let x = (value & 0x0fff_ffff) | ((value & 0x00ff_ffff_f000_0000) << 4);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1);
    let high = ((value >> 56) & 0x7f) | ((value >> 63) << 8);
    let lanes = u128::from(x) | (u128::from(high) << 64);
    (lanes | (CONT_MASK & ((1u128 << (8 * (n - 1))) - 1)), n)
}

/// A long payload left out of the buffer: the source bytes, and how many
/// buffered bytes follow them in the output.
#[derive(Debug, Clone, Copy)]
struct Deferred<'a> {
    payload: &'a [u8],
    behind: usize,
}

/// A buffer that is written back-to-front. Deferred payloads borrow from
/// the source they were prepended from for `'a`.
#[derive(Debug, Clone)]
pub struct ReverseWriter<'a> {
    buf: Vec<u8>,
    head: usize,
    /// Deferred payloads in prepend order, so back to front.
    deferred: Vec<Deferred<'a>>,
    /// Total length of `deferred`.
    deferred_len: usize,
}

impl<'a> ReverseWriter<'a> {
    /// Creates a writer with `capacity` bytes of initial headroom. Sizing
    /// it at the output's length less its deferred payloads means it never
    /// grows; the capacity changes only where the bytes are built, never
    /// which bytes come out.
    pub fn with_capacity(capacity: usize) -> Self {
        ReverseWriter {
            buf: vec![0u8; capacity],
            head: capacity,
            deferred: Vec::new(),
            deferred_len: 0,
        }
    }

    /// Bytes written so far, deferred payloads included.
    pub fn len(&self) -> usize {
        self.buffered() + self.deferred_len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes written into the buffer itself.
    fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Ensures at least `need` bytes of headroom in front of `head`.
    ///
    /// `need == head` is an exact fit and must NOT grow; `need == 0` must be
    /// a no-op even on a zero-capacity buffer — both were called out as
    /// risky edges in the divergence sweep and are pinned by tests below.
    #[inline]
    fn ensure(&mut self, need: usize) {
        if need > self.head {
            self.grow(need);
        }
    }

    /// Moves the data to the end of a buffer with at least `need` bytes of
    /// headroom.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, need: usize) {
        let data_len = self.buffered();
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

    /// Prepends `src[end - len..end]`, the payload that ends at `end`.
    ///
    /// A payload of at most 64 bytes goes out as one fixed 64-byte copy of
    /// `src[end - 64..end]` ending at `head`, when there are 64 bytes of
    /// headroom and `src` has 64 bytes before `end`; the copy's leading
    /// bytes land in free headroom. A payload of [`DEFER_MIN`] bytes or
    /// more is deferred, not copied. Anything else is an exact copy. Both
    /// are kept out of line.
    #[inline(always)]
    pub fn prepend_tail(&mut self, src: &'a [u8], end: usize, len: usize) {
        let head = self.head;
        if len <= WILD_COPY && end >= WILD_COPY && head >= WILD_COPY {
            let tail: &[u8; WILD_COPY] = src[end - WILD_COPY..end]
                .try_into()
                .expect("WILD_COPY bytes");
            self.buf[head - WILD_COPY..head].copy_from_slice(tail);
            self.head = head - len;
        } else {
            self.prepend_tail_exact(&src[end - len..end]);
        }
    }

    /// [`prepend_tail`](Self::prepend_tail) without room for the wide
    /// copy, or for a long payload.
    #[cold]
    #[inline(never)]
    fn prepend_tail_exact(&mut self, payload: &'a [u8]) {
        if payload.len() >= DEFER_MIN {
            self.deferred.push(Deferred {
                payload,
                behind: self.buffered(),
            });
            self.deferred_len += payload.len();
        } else {
            self.prepend_slice(payload);
        }
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

    /// Prepends the varint encoding of `value`.
    ///
    /// A multi-byte varint with 16 bytes of headroom is one register build
    /// and one 16-byte store ending at `head`, whatever its length.
    #[inline(always)]
    pub fn prepend_varint(&mut self, value: u64) {
        if value < 0x80 {
            // One-byte varints: most keys, lengths and small scalars.
            self.prepend_byte(value as u8);
            return;
        }
        let head = self.head;
        if head < VARINT_STORE {
            self.prepend_varint_cold(value);
            return;
        }
        let (image, n) = flat_varint(value);
        // Shift the encoding to the top of the store so it ends at `head`.
        let store = image << (8 * (VARINT_STORE - n));
        self.buf[head - VARINT_STORE..head].copy_from_slice(&store.to_le_bytes());
        self.head = head - n;
    }

    /// [`prepend_varint`](Self::prepend_varint) with less than 16 bytes of
    /// headroom: an exact copy of the encoding.
    #[cold]
    #[inline(never)]
    fn prepend_varint_cold(&mut self, value: u64) {
        let (image, n) = flat_varint(value);
        self.prepend_slice(&image.to_le_bytes()[..n]);
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

    /// The bytes written so far, front to back, when none was deferred.
    #[cfg(test)]
    fn as_slice(&self) -> &[u8] {
        assert!(self.deferred.is_empty(), "deferred bytes are not buffered");
        &self.buf[self.head..]
    }

    /// Consumes the writer, returning the written bytes. Without deferred
    /// payloads they come back in the writer's own buffer: untouched when
    /// the data fills it exactly (`head == 0`), otherwise moved to the
    /// front with the headroom truncated away. With deferred payloads the
    /// output is assembled in a fresh allocation.
    #[inline]
    pub fn into_bytes(mut self) -> Vec<u8> {
        if !self.deferred.is_empty() {
            return self.assemble();
        }
        if self.head > 0 {
            let len = self.len();
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(len);
        }
        self.buf
    }

    /// The output front to back: the last payload deferred is the first
    /// in the output, and each ends where its `behind` buffered bytes
    /// begin.
    #[inline(never)]
    fn assemble(&self) -> Vec<u8> {
        let end = self.buf.len();
        let mut out = Vec::with_capacity(self.len());
        let mut from = self.head;
        for seg in self.deferred.iter().rev() {
            let to = end - seg.behind;
            out.extend_from_slice(&self.buf[from..to]);
            out.extend_from_slice(seg.payload);
            from = to;
        }
        out.extend_from_slice(&self.buf[from..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_wire::varint;

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

    /// `into_bytes` after several growths, on an exact fit (head == 0, where
    /// the buffer comes back untouched), and when nothing was written.
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
        let at = w.as_slice().as_ptr();
        let bytes = w.into_bytes();
        assert_eq!(bytes.as_ptr(), at, "an exact fit must not move the data");
        assert_eq!(bytes, [1, 0xac, 0x02, 4, 5, 6]);
        assert!(ReverseWriter::with_capacity(16).into_bytes().is_empty());
    }

    /// Varint boundaries: 2^7k - 1 and 2^7k for k = 0..=9, so every
    /// length from 1 to 10 bytes, plus the widest value.
    fn varint_edges() -> Vec<u64> {
        (0..=9u32)
            .flat_map(|k| [(1u64 << (7 * k)) - 1, 1u64 << (7 * k)])
            .chain([u64::MAX])
            .collect()
    }

    /// A writer holding only a sentinel suffix, with exactly `headroom`
    /// bytes free in front of it.
    fn behind_sentinel<'a>(headroom: usize) -> ReverseWriter<'a> {
        let mut w = ReverseWriter::with_capacity(headroom + 48);
        w.prepend_slice(&[0xa5; 48]);
        assert_eq!(w.head, headroom);
        w
    }

    /// The flat store equals the forward encoder at every length and
    /// boundary, with headroom below, at and above the 16-byte store, and
    /// never writes past `head` into the data behind it.
    #[test]
    fn flat_varint_matches_forward_encoding_at_every_headroom() {
        for v in varint_edges() {
            let mut expected = Vec::new();
            let n = varint::encode(v, &mut expected);
            assert_eq!(flat_varint(v).1, n, "length of {v:#x}");
            expected.extend_from_slice(&[0xa5; 48]);
            for headroom in 0..=24 {
                let mut w = behind_sentinel(headroom);
                w.prepend_varint(v);
                assert_eq!(w.as_slice(), expected, "{v:#x} with {headroom} B headroom");
            }
        }
    }

    /// A seeded mix of every store kind against a forward model: after
    /// each prepend the written bytes, sentinel suffix included, equal the
    /// model exactly, so no wild store ever lands on written data.
    #[test]
    fn wild_stores_never_touch_written_data() {
        let src: Vec<u8> = (0..3 * WILD_COPY).map(|i| i as u8).collect();
        let edges = varint_edges();
        for capacity in [0usize, 17, WILD_COPY + 1, 2 * WILD_COPY, 4096] {
            let mut w = ReverseWriter::with_capacity(capacity);
            let mut model = vec![0xa5u8; 48];
            w.prepend_slice(&model);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..600 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let pick = (state >> 33) as usize;
                let mut front = Vec::new();
                if pick.is_multiple_of(2) {
                    let v = edges[pick / 2 % edges.len()];
                    varint::encode(v, &mut front);
                    w.prepend_varint(v);
                } else {
                    let len = pick / 2 % (WILD_COPY + 9);
                    let end = len + pick / 128 % (src.len() - len + 1);
                    front.extend_from_slice(&src[end - len..end]);
                    w.prepend_tail(&src, end, len);
                }
                model.splice(0..0, front);
                assert_eq!(w.as_slice(), model, "capacity {capacity}");
            }
        }
    }

    /// `prepend_tail` at the wild-copy edges (len 0, W - 1, W and W + 1
    /// for W = `WILD_COPY`), with `end` below W (the source has no W bytes
    /// before it), and with headroom below, at and above W.
    #[test]
    fn prepend_tail_edges() {
        const W: usize = WILD_COPY;
        let src: Vec<u8> = (0..2 * W).map(|i| i as u8).collect();
        for (end, len) in [
            (2 * W, 0),
            (2 * W, W - 1),
            (2 * W, W),
            (2 * W, W + 1),
            (W + 8, W),
            (W - 1, W - 1),
            (5, 3),
            (0, 0),
        ] {
            for headroom in [0usize, W - 1, W, W + 1, 3 * W] {
                let mut w = behind_sentinel(headroom);
                w.prepend_tail(&src, end, len);
                let mut expected = src[end - len..end].to_vec();
                expected.extend_from_slice(&[0xa5; 48]);
                assert_eq!(
                    w.as_slice(),
                    expected,
                    "end {end}, len {len}, {headroom} B headroom"
                );
            }
        }
    }

    /// A source of `n` distinct-looking bytes.
    fn source(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + i / 251) as u8).collect()
    }

    /// `prepend_tail` below, at and above [`DEFER_MIN`], with headroom
    /// none, at the wild copy and for the whole payload: only a payload of
    /// at least `DEFER_MIN` bytes stays out of the buffer, and `len`
    /// counts it either way.
    #[test]
    fn payloads_defer_from_the_threshold_up() {
        let src = source(DEFER_MIN + 100);
        for len in [DEFER_MIN - 1, DEFER_MIN, DEFER_MIN + 1] {
            let end = src.len() - 7;
            for headroom in [0, WILD_COPY, len + 100] {
                let mut w = behind_sentinel(headroom);
                w.prepend_tail(&src, end, len);
                let deferred = len >= DEFER_MIN;
                assert_eq!(w.deferred.len(), usize::from(deferred), "len {len}");
                assert_eq!(w.buffered(), if deferred { 48 } else { len + 48 });
                assert_eq!(w.len(), len + 48, "len {len}: len() counts every byte");
                let mut expected = src[end - len..end].to_vec();
                expected.extend_from_slice(&[0xa5; 48]);
                assert_eq!(w.into_bytes(), expected, "len {len}, {headroom} B headroom");
            }
        }
    }

    /// Deferred payloads with nothing buffered between them come out in
    /// prepend order reversed, as the buffered bytes do.
    #[test]
    fn adjacent_deferred_segments_keep_their_order() {
        let src = source(4 * DEFER_MIN + 10);
        let cut = |i: usize| (i * DEFER_MIN + i, DEFER_MIN + i);
        let mut w = behind_sentinel(4);
        let mut expected = vec![0xa5u8; 48];
        for i in 0..4 {
            let (start, len) = cut(i);
            w.prepend_tail(&src, start + len, len);
            expected.splice(0..0, src[start..start + len].iter().copied());
            if i == 1 {
                w.prepend_byte(0x7e);
                expected.insert(0, 0x7e);
            }
        }
        assert_eq!(w.deferred.len(), 4);
        assert_eq!(w.len(), expected.len());
        assert_eq!(w.into_bytes(), expected);
    }

    /// A deferred payload as the last bytes of the output (nothing buffered
    /// behind it), as the first (nothing buffered in front of it), and as
    /// the whole output.
    #[test]
    fn deferred_payload_at_either_end_of_the_output() {
        let src = source(2 * DEFER_MIN);
        let payload = &src[3..3 + DEFER_MIN];
        let mut w = ReverseWriter::with_capacity(8);
        w.prepend_tail(&src, 3 + DEFER_MIN, DEFER_MIN);
        w.prepend_varint(DEFER_MIN as u64);
        w.prepend_byte(0x0a);
        let mut expected = vec![0x0a, 0x80, 0x40];
        expected.extend_from_slice(payload);
        assert_eq!(w.into_bytes(), expected, "deferred payload last");

        let mut w = ReverseWriter::with_capacity(8);
        w.prepend_slice(b"tail");
        w.prepend_tail(&src, 3 + DEFER_MIN, DEFER_MIN);
        let mut expected = payload.to_vec();
        expected.extend_from_slice(b"tail");
        assert_eq!(w.into_bytes(), expected, "deferred payload first");

        let mut w = ReverseWriter::with_capacity(0);
        w.prepend_tail(&src, 3 + DEFER_MIN, DEFER_MIN);
        assert!(!w.is_empty());
        assert_eq!(w.into_bytes(), payload, "deferred payload alone");
    }

    /// Nested length-delimited frames around a seeded mix of short and
    /// long payloads, each frame's length prefix taken from `len`, as the
    /// encoder does. Returns the writer and a forward model of its bytes.
    fn nested_frames(capacity: usize, src: &[u8]) -> (ReverseWriter<'_>, Vec<u8>) {
        let mut w = ReverseWriter::with_capacity(capacity);
        let mut model = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for frame in 0..6 {
            let (w_before, model_before) = (w.len(), model.len());
            for _ in 0..5 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let pick = (state >> 33) as usize;
                let len = match pick % 4 {
                    0 => pick / 4 % WILD_COPY,
                    1 => DEFER_MIN - 1 + pick / 4 % 3,
                    2 => DEFER_MIN + pick / 4 % (2 * DEFER_MIN),
                    _ => WILD_COPY + pick / 4 % 500,
                };
                let end = len + pick / 16 % (src.len() - len + 1);
                w.prepend_tail(src, end, len);
                w.prepend_varint(len as u64);
                model.splice(0..0, src[end - len..end].iter().copied());
                let mut prefix = Vec::new();
                varint::encode(len as u64, &mut prefix);
                model.splice(0..0, prefix);
            }
            // Every other frame closes as a sub-message: its length prefix
            // counts the deferred payloads inside it.
            if frame % 2 == 1 {
                w.prepend_varint((w.len() - w_before) as u64);
                let mut prefix = Vec::new();
                varint::encode((model.len() - model_before) as u64, &mut prefix);
                model.splice(0..0, prefix);
            }
        }
        (w, model)
    }

    /// The capacity is only a hint: zero, too small, exact and too large
    /// all give the same bytes, and the exact buffered size never grows.
    #[test]
    fn size_hint_never_changes_the_bytes() {
        let src = source(4 * DEFER_MIN);
        let (exact, model) = nested_frames(0, &src);
        assert!(!exact.deferred.is_empty(), "the mix defers some payloads");
        let buffered = exact.buffered();
        assert_eq!(exact.len(), model.len());
        assert_eq!(exact.into_bytes(), model, "capacity 0");
        for capacity in [
            1,
            buffered / 2,
            buffered,
            buffered + 1,
            model.len(),
            2 * model.len(),
        ] {
            let (w, _) = nested_frames(capacity, &src);
            if capacity == buffered {
                assert_eq!(w.buf.len(), capacity, "an exact hint must not grow");
                assert_eq!(w.head, 0);
            }
            assert_eq!(w.into_bytes(), model, "capacity {capacity}");
        }
    }
}
