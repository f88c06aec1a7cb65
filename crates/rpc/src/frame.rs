//! gRPC-style length-prefixed framing.
//!
//! Every message on a connection travels inside a 5-byte-prefixed frame,
//! byte-compatible with the `application/grpc+proto` wire convention:
//!
//! ```text
//! +------------+--------------------+---------------------+
//! | flag (1 B) | length (4 B, BE)   | payload (length B)  |
//! +------------+--------------------+---------------------+
//! ```
//!
//! The flag byte is `0` (uncompressed) or `1` (compressed); all other
//! values are reserved and rejected with a typed error. The length is a
//! big-endian `u32` covering the payload only. Decoding is *total*: any
//! byte sequence either yields frames or a [`FrameError`] — never a panic,
//! never an unbounded allocation (the declared length is checked against a
//! configurable ceiling before any buffering happens).
//!
//! Two decode surfaces share one validation path: [`decode_frame`] for a
//! complete buffer (truncation is an error), and the incremental
//! [`FrameDecoder`] for a connection byte stream (truncation means "wait
//! for more bytes"; only [`FrameDecoder::finish`] at connection teardown
//! turns a partial frame into an error).

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Bytes in the frame prefix: 1 flag byte + 4 length bytes.
pub const FRAME_HEADER_LEN: usize = 5;

/// Default ceiling on a frame's declared payload length (4 MiB). A frame
/// declaring more is rejected *before* any payload is buffered, so a
/// corrupt or hostile length field cannot drive allocation.
pub const DEFAULT_MAX_FRAME_LEN: u64 = 1 << 22;

/// Flag byte of an uncompressed frame.
pub const FLAG_UNCOMPRESSED: u8 = 0;
/// Flag byte of a compressed frame.
pub const FLAG_COMPRESSED: u8 = 1;

/// Typed frame-plane decode error. Every malformed frame maps to exactly
/// one of these; the connection that produced it has lost framing sync and
/// must be torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended inside the 5-byte prefix.
    TruncatedHeader {
        /// Prefix bytes actually present (`< FRAME_HEADER_LEN`).
        have: usize,
    },
    /// The prefix declared more payload bytes than the buffer holds.
    TruncatedBody {
        /// Declared payload length.
        declared: u32,
        /// Payload bytes actually present.
        have: u64,
    },
    /// The declared (decode) or actual (encode) payload length exceeds the
    /// frame-length ceiling. `u64` so the encode path can report payloads
    /// too large even for the wire format's `u32` length field.
    Oversized {
        /// Payload length: declared by the prefix on decode, measured from
        /// the payload slice on encode.
        declared: u64,
        /// The ceiling it exceeded.
        max: u64,
    },
    /// The flag byte is neither 0 (uncompressed) nor 1 (compressed).
    ReservedFlag {
        /// The offending flag byte.
        flag: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TruncatedHeader { have } => {
                write!(
                    f,
                    "frame prefix truncated: {have} of {FRAME_HEADER_LEN} bytes"
                )
            }
            FrameError::TruncatedBody { declared, have } => {
                write!(
                    f,
                    "frame body truncated: {have} of {declared} declared bytes"
                )
            }
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} bytes, ceiling is {max}")
            }
            FrameError::ReservedFlag { flag } => {
                write!(f, "reserved frame flag {flag:#04x}")
            }
        }
    }
}

impl Error for FrameError {}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The flag byte's compressed bit.
    pub compressed: bool,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Encodes one frame: flag byte, big-endian `u32` length, payload, under
/// the default [`DEFAULT_MAX_FRAME_LEN`] ceiling.
///
/// Encoding is as total as decoding: a payload above the ceiling (or above
/// `u32::MAX`, unrepresentable in the prefix) returns the same typed
/// [`FrameError::Oversized`] the decode path would raise, instead of
/// panicking. A frame this function accepts is always accepted by a
/// decoder configured with the same ceiling.
pub fn encode_frame(compressed: bool, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    encode_frame_with_limit(compressed, payload, DEFAULT_MAX_FRAME_LEN)
}

/// [`encode_frame`] with an explicit payload-length ceiling, for producers
/// that must agree with a [`FrameDecoder`] configured with a non-default
/// `max_len`. The effective ceiling is `min(max_len, u32::MAX)` — the wire
/// format cannot declare more than a `u32` regardless of configuration.
pub fn encode_frame_with_limit(
    compressed: bool,
    payload: &[u8],
    max_len: u64,
) -> Result<Vec<u8>, FrameError> {
    let ceiling = max_len.min(u64::from(u32::MAX));
    if payload.len() as u64 > ceiling {
        return Err(FrameError::Oversized {
            declared: payload.len() as u64,
            max: ceiling,
        });
    }
    // Fits in u32 by the ceiling check above.
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.push(if compressed {
        FLAG_COMPRESSED
    } else {
        FLAG_UNCOMPRESSED
    });
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Validates the 5-byte prefix at the head of `buf` against `max_len`.
/// Returns the compressed bit and declared length.
fn decode_prefix(buf: &[u8], max_len: u64) -> Result<(bool, u32), FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(FrameError::TruncatedHeader { have: buf.len() });
    }
    let flag = buf[0];
    if flag > FLAG_COMPRESSED {
        return Err(FrameError::ReservedFlag { flag });
    }
    let declared = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
    if u64::from(declared) > max_len {
        return Err(FrameError::Oversized {
            declared: u64::from(declared),
            max: max_len,
        });
    }
    Ok((flag == FLAG_COMPRESSED, declared))
}

/// Decodes one complete frame from the head of `buf`, returning it plus the
/// total bytes consumed (prefix + payload). A partial frame is an error
/// here — use [`FrameDecoder`] for byte streams that grow over time.
pub fn decode_frame(buf: &[u8], max_len: u64) -> Result<(Frame, usize), FrameError> {
    let (compressed, declared) = decode_prefix(buf, max_len)?;
    let body = &buf[FRAME_HEADER_LEN..];
    if (body.len() as u64) < u64::from(declared) {
        return Err(FrameError::TruncatedBody {
            declared,
            have: body.len() as u64,
        });
    }
    let payload = body[..declared as usize].to_vec();
    Ok((
        Frame {
            compressed,
            payload,
        },
        FRAME_HEADER_LEN + declared as usize,
    ))
}

/// Incremental frame decoder over one connection's byte stream.
///
/// Bytes arrive in arbitrary chunks via [`push`](FrameDecoder::push);
/// [`next_frame`](FrameDecoder::next_frame) yields complete frames as they
/// materialize. A malformed prefix (reserved flag, oversized length)
/// *poisons* the decoder — framing sync is unrecoverable once the length
/// field can't be trusted — and every later call returns the same error.
///
/// Each payload byte is copied once: `push` parses prefixes as they
/// complete and appends payload bytes straight into the [`Frame`] that
/// `next_frame` later hands out. A payload's capacity grows with the bytes
/// that have arrived, never past twice their count or the declared
/// length, so a hostile length field cannot drive allocation. A prefix
/// that fails validation stops parsing: later bytes are only counted, and
/// `next_frame` reports the fault once the frames in front of it are out.
#[derive(Debug)]
pub struct FrameDecoder {
    max_len: u64,
    /// Prefix bytes of the frame in flight while fewer than five have
    /// arrived.
    prefix: [u8; FRAME_HEADER_LEN],
    prefix_len: usize,
    /// The frame in flight once its prefix validated, with its declared
    /// payload length.
    body: Option<(Frame, u32)>,
    /// Complete frames not yet yielded, in arrival order.
    ready: VecDeque<Frame>,
    /// The malformed prefix behind `ready`, not yet reported.
    pending: Option<FrameError>,
    /// Bytes pushed and not yet yielded as part of a frame.
    buffered: usize,
    fault: Option<FrameError>,
}

impl FrameDecoder {
    /// Creates a decoder enforcing `max_len` as the payload-length ceiling.
    #[must_use]
    pub fn new(max_len: u64) -> Self {
        FrameDecoder {
            max_len,
            prefix: [0; FRAME_HEADER_LEN],
            prefix_len: 0,
            body: None,
            ready: VecDeque::new(),
            pending: None,
            buffered: 0,
            fault: None,
        }
    }

    /// Appends stream bytes. Bytes pushed after a framing fault are
    /// discarded — the connection is already dead.
    pub fn push(&mut self, mut bytes: &[u8]) {
        if self.fault.is_some() {
            return;
        }
        self.buffered += bytes.len();
        while self.pending.is_none() && !bytes.is_empty() {
            let (mut frame, declared) = match self.body.take() {
                Some(body) => body,
                None => {
                    // A prefix that arrived whole is read where it lies;
                    // one split across pushes is gathered first.
                    let parsed = if self.prefix_len == 0 && bytes.len() >= FRAME_HEADER_LEN {
                        let parsed = decode_prefix(bytes, self.max_len);
                        bytes = &bytes[FRAME_HEADER_LEN..];
                        parsed
                    } else {
                        let take = (FRAME_HEADER_LEN - self.prefix_len).min(bytes.len());
                        self.prefix[self.prefix_len..self.prefix_len + take]
                            .copy_from_slice(&bytes[..take]);
                        self.prefix_len += take;
                        bytes = &bytes[take..];
                        if self.prefix_len < FRAME_HEADER_LEN {
                            return;
                        }
                        self.prefix_len = 0;
                        decode_prefix(&self.prefix, self.max_len)
                    };
                    match parsed {
                        Ok((compressed, declared)) => {
                            let payload = Vec::with_capacity(bytes.len().min(declared as usize));
                            (
                                Frame {
                                    compressed,
                                    payload,
                                },
                                declared,
                            )
                        }
                        Err(e) => {
                            self.pending = Some(e);
                            return;
                        }
                    }
                }
            };
            let payload = &mut frame.payload;
            let missing = declared as usize - payload.len();
            let take = missing.min(bytes.len());
            if payload.capacity() - payload.len() < take {
                // Geometric growth for dribbled bytes, capped at the
                // declared length.
                payload.reserve_exact(take.max(payload.len()).min(missing));
            }
            payload.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if take == missing {
                self.ready.push_back(frame);
            } else {
                self.body = Some((frame, declared));
            }
        }
    }

    /// Unconsumed buffered bytes (a partial frame in flight).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Yields the next complete frame, `Ok(None)` if more bytes are needed,
    /// or the (sticky) framing fault.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if let Some(frame) = self.ready.pop_front() {
            self.buffered -= FRAME_HEADER_LEN + frame.payload.len();
            return Ok(Some(frame));
        }
        if let Some(fault) = self.pending {
            self.fault = Some(fault);
            return Err(fault);
        }
        Ok(None)
    }

    /// Connection teardown: a clean stream ends on a frame boundary. Any
    /// buffered partial frame becomes the truncation error it would have
    /// been in one-shot decoding, and a poisoned decoder reports its fault.
    ///
    /// Like a one-shot decode of the unconsumed bytes, the verdict is about
    /// the first frame among them: one complete but not yet yielded reads
    /// as a body truncated at the end of everything buffered.
    pub fn finish(&self) -> Result<(), FrameError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if self.buffered == 0 {
            return Ok(());
        }
        let declared = match (self.ready.front(), self.pending, &self.body) {
            (Some(frame), _, _) => frame.payload.len() as u32,
            (None, Some(fault), _) => return Err(fault),
            (None, None, Some((_, declared))) => *declared,
            (None, None, None) => {
                return Err(FrameError::TruncatedHeader {
                    have: self.buffered,
                })
            }
        };
        Err(FrameError::TruncatedBody {
            declared,
            have: (self.buffered - FRAME_HEADER_LEN) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_one_shot_decode() {
        for (compressed, payload) in [(false, b"".to_vec()), (true, vec![0xAB; 300])] {
            let wire = encode_frame(compressed, &payload).unwrap();
            assert_eq!(wire.len(), FRAME_HEADER_LEN + payload.len());
            let (frame, used) = decode_frame(&wire, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(used, wire.len());
            assert_eq!(frame.compressed, compressed);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn every_truncation_offset_is_a_typed_error() {
        let wire = encode_frame(false, b"hello").unwrap();
        for cut in 0..wire.len() {
            let err = decode_frame(&wire[..cut], DEFAULT_MAX_FRAME_LEN).unwrap_err();
            if cut < FRAME_HEADER_LEN {
                assert_eq!(err, FrameError::TruncatedHeader { have: cut });
            } else {
                assert_eq!(
                    err,
                    FrameError::TruncatedBody {
                        declared: 5,
                        have: (cut - FRAME_HEADER_LEN) as u64,
                    }
                );
            }
        }
    }

    #[test]
    fn reserved_flags_and_oversized_lengths_reject() {
        let mut wire = encode_frame(false, b"x").unwrap();
        wire[0] = 0x7F;
        assert_eq!(
            decode_frame(&wire, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            FrameError::ReservedFlag { flag: 0x7F }
        );
        let wire = encode_frame(false, &[0u8; 64]).unwrap();
        assert_eq!(
            decode_frame(&wire, 16).unwrap_err(),
            FrameError::Oversized {
                declared: 64,
                max: 16
            }
        );
    }

    #[test]
    fn oversized_payload_encodes_to_typed_error_not_panic() {
        // Encode-side ceiling agrees with the decode-side ceiling: a payload
        // the encoder rejects is exactly one a decoder with the same limit
        // would reject, with the same typed error.
        let payload = [0u8; 64];
        let err = encode_frame_with_limit(false, &payload, 16).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                declared: 64,
                max: 16
            }
        );
        // Anything the encoder accepts, a decoder with the same limit accepts.
        let wire = encode_frame_with_limit(true, &payload, 64).unwrap();
        let (frame, _) = decode_frame(&wire, 64).unwrap();
        assert_eq!(frame.payload, payload);
        // The default-ceiling wrapper enforces DEFAULT_MAX_FRAME_LEN.
        let big = vec![0u8; DEFAULT_MAX_FRAME_LEN as usize + 1];
        assert_eq!(
            encode_frame(false, &big).unwrap_err(),
            FrameError::Oversized {
                declared: DEFAULT_MAX_FRAME_LEN + 1,
                max: DEFAULT_MAX_FRAME_LEN
            }
        );
    }

    #[test]
    fn streaming_decoder_reassembles_byte_dribble() {
        let mut wire = encode_frame(false, b"first").unwrap();
        wire.extend_from_slice(&encode_frame(true, b"second frame").unwrap());
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut got = Vec::new();
        for b in &wire {
            dec.push(&[*b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, b"first");
        assert!(got[1].compressed);
        assert_eq!(got[1].payload, b"second frame");
        assert_eq!(dec.buffered(), 0);
        dec.finish().unwrap();
    }

    #[test]
    fn streaming_faults_are_sticky_and_finish_flags_partial_tails() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&[0x02, 0, 0, 0, 1, 0xAA]);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err, FrameError::ReservedFlag { flag: 0x02 });
        dec.push(&encode_frame(false, b"ignored").unwrap());
        assert_eq!(dec.next_frame().unwrap_err(), err);
        assert_eq!(dec.finish().unwrap_err(), err);

        let mut tail = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        tail.push(&encode_frame(false, b"abc").unwrap()[..6]);
        assert_eq!(tail.next_frame().unwrap(), None);
        assert_eq!(
            tail.finish().unwrap_err(),
            FrameError::TruncatedBody {
                declared: 3,
                have: 1
            }
        );
    }
}
