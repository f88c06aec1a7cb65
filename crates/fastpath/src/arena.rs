//! Host-side bump arena for decoded message objects.
//!
//! Decoded objects use the exact ADT layouts the simulator's guest-memory
//! path uses (`MessageLayout` offsets, sparse hasbits, 8-byte slot
//! alignment), but live in one contiguous host `Vec<u8>` addressed by
//! 32-bit offsets. A decode is one monotonic bump through the buffer;
//! resetting for the next message is a cursor reset, not a free — the
//! arena-allocation discipline Section 2.3 credits for the C++ library's own
//! fastest configurations.
//!
//! Allocation does not zero. The buffer is initialized up to its high-water
//! mark, and a reused arena hands out bytes an earlier decode left behind.
//! That is sound because decode writes every byte it later reads: an object
//! clears its own hasbits ([`CompiledMessage::clear_hasbits`]), a slot is
//! read only when its hasbit is set and is written before the bit is set,
//! and a repeated field's header and element array are written in full when
//! they are placed.
//!
//! String and bytes fields are not copied at all: their 8-byte slots pack
//! `(length << 32) | input_offset`, borrowing the payload from the input
//! buffer (which must outlive the arena's contents). A sub-message's slot
//! packs `(body_length << 32) | object_offset` the same way, its body's
//! length as the input's prefix declared it, so re-encoding can write each
//! length prefix before its body. Repeated fields store a 24-byte
//! `{data_offset, count, capacity}` header, matching the
//! `REPEATED_HEADER_BYTES` shape the rest of the suite uses.
//!
//! The arena also owns the decoder's scratch (`Scratch`): the repeated-
//! field element buffers, each holding its field's elements already at
//! their arena width ([`Op::width`](crate::dispatch::Op::width)) so that
//! placing the array is one copy, and the accumulator stack. Callers
//! reuse one arena across decodes, so steady-state decoding allocates
//! nothing. Scratch is not object storage: [`DecodeArena::len`] counts
//! object bytes only.

use crate::dispatch::CompiledMessage;
use protoacc_runtime::{ArenaError, RuntimeError};

/// Default ceiling on decoded-object storage. Hostile inputs cannot make a
/// decode allocate more than a small multiple of the input length (declared
/// lengths are bounds-checked against the frame), so this exists only as a
/// final backstop; exceeding it maps to the same `ResourceExhausted` fault
/// class as the guest-memory arenas.
pub const DEFAULT_LIMIT: usize = 1 << 30;

/// A bump allocator over one host buffer.
#[derive(Debug, Clone)]
pub struct DecodeArena {
    /// Initialized bytes up to the high-water mark of every decode so far.
    buf: Vec<u8>,
    /// End of the live objects; the next allocation starts here. Offsets
    /// are 32-bit, so this and `limit` are too.
    len: u32,
    limit: u32,
    pub(crate) scratch: Scratch,
}

/// Elements of one repeated field within one message frame, in arrival
/// order, as the little-endian bytes of the arena array they become.
#[derive(Debug, Clone)]
pub(crate) struct RepAccum {
    pub(crate) number: u32,
    pub(crate) elems: Vec<u8>,
}

/// Decoder scratch kept across decodes.
///
/// `accums` is one stack shared down the recursion: a frame opened at stack
/// height `base` owns `accums[base..]` and truncates back to `base` when it
/// materializes. Element buffers of retired accumulators go to `pool` with
/// their capacity, so the next frame's accumulators reuse them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    pub(crate) accums: Vec<RepAccum>,
    pub(crate) pool: Vec<Vec<u8>>,
}

impl Scratch {
    /// Index of the accumulator for `number` in the frame owning
    /// `accums[base..]`, opening one with a pooled buffer on first arrival.
    /// The accumulator used last (`hint`, never below `base`) is tried
    /// before the linear search.
    #[inline]
    pub(crate) fn accum(&mut self, base: usize, hint: &mut usize, number: u32) -> usize {
        if self.accums.get(*hint).is_some_and(|a| a.number == number) {
            return *hint;
        }
        *hint = match self.accums[base..].iter().position(|a| a.number == number) {
            Some(i) => base + i,
            None => {
                let mut elems = self.pool.pop().unwrap_or_default();
                elems.clear();
                self.accums.push(RepAccum { number, elems });
                self.accums.len() - 1
            }
        };
        *hint
    }

    /// Retires every accumulator from `base` up, pooling their buffers.
    pub(crate) fn unwind(&mut self, base: usize) {
        self.pool
            .extend(self.accums.drain(base..).map(|acc| acc.elems));
    }
}

impl DecodeArena {
    /// Creates an empty arena with the default size backstop.
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_LIMIT)
    }

    /// Creates an arena that refuses to grow beyond `limit` bytes, or
    /// beyond `u32::MAX`: offsets are 32-bit.
    pub fn with_limit(limit: usize) -> Self {
        DecodeArena {
            buf: Vec::new(),
            len: 0,
            limit: u32::try_from(limit).unwrap_or(u32::MAX),
            scratch: Scratch::default(),
        }
    }

    /// Discards all objects, keeping the allocation (and the decoder
    /// scratch). Nothing is zeroed.
    pub fn reset(&mut self) {
        self.len = 0;
    }

    /// Object bytes currently allocated (decoder scratch not included).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the arena holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates `size` bytes, 8-byte aligned, returning the offset.
    ///
    /// The bytes are zero only the first time the arena reaches them; after
    /// a [`reset`](Self::reset) they hold whatever the last decode wrote
    /// there. The caller writes every byte it later reads.
    ///
    /// # Errors
    ///
    /// `ResourceExhausted`-class error when the backstop limit is exceeded.
    #[inline]
    pub fn alloc(&mut self, size: usize) -> Result<u32, RuntimeError> {
        let off = self.len;
        let padded = size.div_ceil(8) * 8;
        let new_len = off as usize + padded;
        if new_len > self.limit as usize {
            return Err(RuntimeError::Arena(ArenaError::Exhausted {
                requested: padded as u64,
                remaining: u64::from(self.limit - off),
            }));
        }
        if new_len > self.buf.len() {
            self.buf.resize(new_len, 0);
        }
        // At most `limit`, so it fits.
        self.len = new_len as u32;
        Ok(off)
    }

    /// Allocates one `cm` object with its hasbits cleared. Its other bytes
    /// are stale until decode writes them.
    #[inline]
    pub(crate) fn alloc_object(&mut self, cm: &CompiledMessage) -> Result<u32, RuntimeError> {
        let size = cm.object_size as usize;
        let obj = self.alloc(size)?;
        cm.clear_hasbits(&mut self.buf[obj as usize..obj as usize + size]);
        Ok(obj)
    }

    /// Reads a u64 slot.
    #[inline]
    pub fn read_u64(&self, off: u32) -> u64 {
        let off = off as usize;
        u64::from_le_bytes(self.buf[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Writes a u64 slot.
    #[inline]
    pub fn write_u64(&mut self, off: u32, value: u64) {
        let off = off as usize;
        self.buf[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Writes the low `size` bytes of `bits` at `off` (scalar slot store).
    ///
    /// Layout sizes 1/4/8 are fixed-width stores; only other sizes copy a
    /// runtime-length slice.
    #[inline]
    pub fn write_scalar(&mut self, off: u32, bits: u64, size: usize) {
        let off = off as usize;
        match size {
            8 => self.buf[off..off + 8].copy_from_slice(&bits.to_le_bytes()),
            4 => self.buf[off..off + 4].copy_from_slice(&(bits as u32).to_le_bytes()),
            1 => self.buf[off] = bits as u8,
            _ => self.buf[off..off + size].copy_from_slice(&bits.to_le_bytes()[..size]),
        }
    }

    /// Reads a `size`-byte little-endian scalar at `off`.
    #[inline]
    pub fn read_scalar(&self, off: u32, size: usize) -> u64 {
        let off = off as usize;
        match size {
            8 => u64::from_le_bytes(self.buf[off..off + 8].try_into().expect("8 bytes")),
            4 => u64::from(u32::from_le_bytes(
                self.buf[off..off + 4].try_into().expect("4 bytes"),
            )),
            1 => u64::from(self.buf[off]),
            _ => {
                let mut bytes = [0u8; 8];
                bytes[..size].copy_from_slice(&self.buf[off..off + size]);
                u64::from_le_bytes(bytes)
            }
        }
    }

    /// Copies `bytes` to `off..off + bytes.len()` (an element array).
    #[inline]
    pub(crate) fn write_bytes(&mut self, off: u32, bytes: &[u8]) {
        let off = off as usize;
        self.buf[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// The raw object bytes `off..off + len` (a fixed-width array's
    /// little-endian image, which is also its packed wire body).
    #[inline]
    pub(crate) fn bytes(&self, off: u32, len: usize) -> &[u8] {
        &self.buf[off as usize..off as usize + len]
    }

    /// ORs `mask` into the byte at `off` (hasbit set).
    #[inline]
    pub fn set_bit(&mut self, off: u32, mask: u8) {
        self.buf[off as usize] |= mask;
    }

    /// Whether the bit at `off`/`mask` is set.
    #[inline]
    pub fn bit(&self, off: u32, mask: u8) -> bool {
        self.buf[off as usize] & mask != 0
    }
}

impl Default for DecodeArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Packs `(offset, length)` into one slot word: a borrowed string
/// payload's input offset and length, or a sub-object's arena offset and
/// its body's input length.
#[inline]
pub fn pack_str(input_off: usize, len: usize) -> u64 {
    debug_assert!(input_off <= u32::MAX as usize && len <= u32::MAX as usize);
    ((len as u64) << 32) | (input_off as u64 & 0xffff_ffff)
}

/// Unpacks a slot word into `(input_offset, length)`.
#[inline]
pub fn unpack_str(word: u64) -> (usize, usize) {
    ((word & 0xffff_ffff) as usize, (word >> 32) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_bumping_and_reset_keeps_the_bytes() {
        let mut a = DecodeArena::new();
        let x = a.alloc(12).unwrap();
        let y = a.alloc(1).unwrap();
        assert_eq!(x, 0);
        assert_eq!(y, 16, "12 pads to 16");
        assert_eq!(a.len(), 24);
        assert_eq!(a.read_u64(x), 0, "fresh bytes start zeroed");
        a.write_u64(x, 0xdead_beef_0102_0304);
        assert_eq!(a.read_u64(x), 0xdead_beef_0102_0304);
        a.reset();
        assert_eq!(a.len(), 0);
        assert!(a.is_empty());
        let z = a.alloc(8).unwrap();
        assert_eq!(z, 0);
        assert_eq!(a.len(), 8, "len counts live bytes, not the high-water mark");
        assert_eq!(
            a.read_u64(z),
            0xdead_beef_0102_0304,
            "reset does not zero: the caller writes what it reads"
        );
    }

    #[test]
    fn scalar_and_bit_accessors_round_trip() {
        let mut a = DecodeArena::new();
        let o = a.alloc(32).unwrap();
        a.write_scalar(o + 8, 0x1122_3344_5566_7788, 4);
        assert_eq!(a.read_scalar(o + 8, 4), 0x5566_7788);
        a.write_scalar(o + 16, 0xff, 1);
        assert_eq!(a.read_scalar(o + 16, 1), 0xff);
        a.set_bit(o, 0b100);
        assert!(a.bit(o, 0b100));
        assert!(!a.bit(o, 0b1000));
    }

    #[test]
    fn limit_is_a_typed_resource_fault() {
        let mut a = DecodeArena::with_limit(64);
        assert!(a.alloc(64).is_ok());
        let err = a.alloc(8).unwrap_err();
        assert!(matches!(err, RuntimeError::Arena(_)), "{err:?}");
    }

    /// The arena's own size is a host-path cost: an 8-byte field moved
    /// host-blob by 2-8% (EXPERIMENTS "Encode-side fill and frame copy").
    #[test]
    fn decode_arena_stays_80_bytes() {
        assert_eq!(
            std::mem::size_of::<DecodeArena>(),
            80,
            "DecodeArena's size alone moves host-blob throughput: A/B a new \
             field on host-blob against the same tree without it \
             (EXPERIMENTS \"Encode-side fill and frame copy\") before \
             changing this pin"
        );
    }

    #[test]
    fn string_packing_round_trips() {
        for (off, len) in [(0usize, 0usize), (1, 2), (0xffff_ffff, 0xffff_ffff)] {
            assert_eq!(unpack_str(pack_str(off, len)), (off, len));
        }
    }
}
