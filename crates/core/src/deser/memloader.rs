//! Memloader unit (Section 4.4.2).
//!
//! Streams serialized buffer contents from memory and exposes a decoupled
//! consumer interface: a full window (16 bytes by default) is always visible,
//! and the consumer dictates how many bytes to discard each cycle — the
//! amount is data-dependent (e.g. a varint's length is unknown until
//! decoded).
//!
//! Functionally the loader holds the whole input (prefetched); its timing is
//! charged once as a streaming transfer by the deserializer unit, which then
//! overlaps FSM execution against that bandwidth bound.

use protoacc_wire::MAX_VARINT_LEN;

/// Bytes presented to the FSM per memloader window (Section 4.4.2).
pub const WINDOW_BYTES: usize = 16;

/// The memloader's consumer-side view of the serialized input.
#[derive(Debug, Clone)]
pub struct Memloader {
    input: Vec<u8>,
    base_addr: u64,
    pos: usize,
}

impl Memloader {
    /// Creates a loader over an input buffer already fetched from
    /// `base_addr`.
    pub fn new(input: Vec<u8>, base_addr: u64) -> Self {
        Memloader {
            input,
            base_addr,
            pos: 0,
        }
    }

    /// Current absolute position (offset from the start of the input).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Guest address of the current position.
    pub fn address(&self) -> u64 {
        self.base_addr + self.pos as u64
    }

    /// Total input length in bytes.
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// The varint peek window: up to 10 bytes, bounded by `limit` (the
    /// enclosing message's end) and the end of input.
    pub fn peek_varint_window(&self, limit: usize) -> &[u8] {
        let end = limit.min(self.input.len()).max(self.pos);
        &self.input[self.pos..end.min(self.pos + MAX_VARINT_LEN)]
    }

    /// A slice of `n` bytes at the cursor, or `None` if fewer remain before
    /// `limit`.
    pub fn peek_bytes(&self, n: usize, limit: usize) -> Option<&[u8]> {
        let end = limit.min(self.input.len());
        // Subtraction, not addition: `n` can be an adversarial declared
        // length near `usize::MAX`, which must report "not enough bytes"
        // rather than overflow.
        if self.pos > end || n > end - self.pos {
            return None;
        }
        Some(&self.input[self.pos..self.pos + n])
    }

    /// Discards `n` bytes (the consumer accepted them this cycle).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the remaining input — the FSM validates bounds
    /// before consuming.
    pub fn consume(&mut self, n: usize) {
        assert!(
            self.pos + n <= self.input.len(),
            "consume past end of input"
        );
        self.pos += n;
    }

    /// Gives back the input buffer, so its allocation can hold the next
    /// op's input.
    pub fn into_inner(self) -> Vec<u8> {
        self.input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_bounded_by_limit_and_input() {
        let loader = Memloader::new(vec![1, 2, 3, 4, 5], 0x100);
        assert_eq!(loader.peek_varint_window(5), &[1, 2, 3, 4, 5]);
        assert_eq!(loader.peek_varint_window(3), &[1, 2, 3]);
        assert_eq!(loader.peek_varint_window(100), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn consume_advances_cursor_and_address() {
        let mut loader = Memloader::new(vec![0; 32], 0x100);
        loader.consume(10);
        assert_eq!(loader.position(), 10);
        assert_eq!(loader.address(), 0x10a);
        assert_eq!(loader.remaining(), 22);
    }

    #[test]
    fn peek_bytes_respects_limit() {
        let loader = Memloader::new(vec![9; 16], 0x0);
        assert!(loader.peek_bytes(8, 16).is_some());
        assert!(loader.peek_bytes(8, 4).is_none());
        assert!(loader.peek_bytes(17, 32).is_none());
    }

    #[test]
    #[should_panic(expected = "consume past end")]
    fn consume_past_end_panics() {
        let mut loader = Memloader::new(vec![0; 4], 0);
        loader.consume(5);
    }
}
